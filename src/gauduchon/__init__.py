"""Numerical curvature of the Gauduchon connection family nab^t and the
two-parameter canonical connections D^t_s = (1-s) nab^t + s nab^LC on
Hermitian coordinate charts, with desk-scale verification of torsion and
curvature transformation laws, pointwise-constancy criteria for holomorphic
sectional curvature, self-duality residuals and the admissible Hopf metrics.
"""

CONVENTIONS_VERSION = "1"
SCHEMA_VERSION = "1"

from .catalog import (HopfSpec, admissible_chart,
                      admissible_hsc_reference, circle_residual,
                      complex_hyperbolic_chart, euclidean_chart,
                      fs_bergman_chart, fubini_study_chart, hopf_chart,
                      hopf_spec, hopf_t3_reference, inline_chart, make_chart,
                      sample_points, validate_admissible, xi_field)
from .conformal import (ConformalPair, FactorAt, commutation_residual,
                        delta_canonical_predicted, delta_direct,
                        delta_direct_symmetrized, delta_gauduchon_predicted,
                        delta_kahler_predicted, delta_weights, f_covariant_hessians,
                        paired_frames, rescale, torsion_transform_residual)
from .connection import (ConnectionParams, FrameAtPoint, MetricChart,
                         chern_torsion, gamma_theta2, metric_jet,
                         torsion_cov_deriv, unitary_frame)
from .curvature import (Curv4, canonical_bases, canonical_basis,
                        canonical_curvature, canonical_weights, chern_curvature,
                        connection_curvature_oracle, constancy_residual,
                        constancy_table, curv4_rows, gauduchon_curvature,
                        hsc, lc_curvature, lc_curvature_fd, lc_full, qline_weights,
                        scalar_curvature, scalar_curvature_fd, selfdual_residual,
                        symmetrize, weyl_minus)
from .errors import (BaseNotKahler, ConfigError, DimensionError, DomainError,
                     GauduchonError, InvalidSpec, NonFinite,
                     NonRealConformalFactor, NotHermitian, NotPositiveDefinite,
                     ZeroPoint, ZeroVector)
from .wjet import (Quadratic, ScalarField, WJet2, abs2, const, eval_jet, eval_jets, exp,
                   fd_jet, fd_jets, log, parse_field, z, zbar)
