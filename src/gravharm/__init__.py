"""Numerical laboratory for smoothed point-mass gravity models.

Mass densities built from radially smoothed point masses, their exact
gravitational potentials (shell theorem), spherical harmonic expansions
with convergence-radius diagnostics, and two constructions: greedy
spherical-filling approximation of a grid density and the two-ball
"snowman" family whose expansion reaches all the way down to the
topography.
"""

from .geometry import (BallRegion, as_vec3, brillouin_radius,
                       fibonacci_sphere, general_position_perturb,
                       hausdorff_distance, pointmass_brillouin_radius)
from .density import (GridDensity, PointMass, PointMasses, RadialProfile,
                      SPMA, SmoothedPointMass, constant_taper,
                      cosine_bump, evaluate, evaluate_on_grid, load_spma,
                      lp_metric, quadratic_bump, save_spma, table_profile,
                      total_mass)
from .potential import (oracle_clear, potential_oracle,
                        potential_point_masses, potential_spm, potential_spma)
from .she import (Direction, SHECoefficients, coeffs_from_point_masses,
                  coeffs_from_sphere_quadrature, direction_coefficient_table,
                  direction_term_sequence, evaluate_partial_sum,
                  fibonacci_directions, legendre_p, partial_sum_sequence,
                  pointmass_direction_sums, series_value, ynm_bar, ynm_table)
from .convergence import (AllDirectionsInconclusive, ConvergenceReport,
                          DescentReport, PartialSumReport,
                          classify_partial_sums, epsilon_descent_check,
                          estimate_rc, estimate_rc_reports, pointmass_rc,
                          rc_from_reports)
from .construct import (ApproximationResult, ConstructionError,
                        FillingBudgetError, FillingParams, SnowmanParams,
                        SnowmanReport, SphericalFilling, build_snowman,
                        snowman_clears, snowman_descends_to_topography,
                        snowman_waist_radius,
                        spherical_filling, spma_approximate)

__version__ = "0.1.0"
