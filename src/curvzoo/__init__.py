"""curvzoo: exact symbolic curvature workbench.

Computes curvature tensors of coordinate metrics over an exact rational
function field, implements the Kulkarni-Nomizu / Tachibana operator algebra,
and classifies metrics against pseudosymmetry-type curvature conditions
(semisymmetry, Deszcz and Chaki pseudosymmetry, Tamassy-Binh weak symmetry,
recurrent curvature forms, Roter-type decompositions, torseforming fields).
"""

from .charts import (Chart, ChartError, OneForm, Tensor, build_chart,
                     christoffel, covariant_derivative,
                     covariant_derivative_oneform, determinant,
                     exterior_derivative_oneform, generic_rank, is_closed,
                     nabla_riemann, oneform, rank_at_most, ricci,
                     ricci_square, riemann, scalar_curvature)
from .classifiers import (ClassifierVerdict, QuasiEinsteinResult,
                          RankOneDecomposition, SolverOutcome,
                          TorseformingResult, WeakSymmetryNormalization,
                          WeakZResult,
                          check_semisymmetric, check_torseforming,
                          classify_deszcz, classify_generalized_roter,
                          classify_roter, compute_J, corollary_decomposition,
                          form_recurrence_b4, form_recurrence_checks,
                          is_codazzi, is_cyclic_parallel,
                          normalize_weak_solution,
                          solve_chaki, solve_linear_combination,
                          solve_quasi_einstein, solve_recurrence,
                          solve_weak_Z, solve_weak_symmetry_04,
                          theorem_residual)
from .exprs import (Atom, Context, EvaluationError, ExpressionError, Expr,
                    ParseError, differentiate, evaluate_rational,
                    parse_expression)
from .linsolve import (InternalInconsistencyError, SolutionSpace,
                       solve_linear_system)
from .metrics import (BUILTINS, MetricFileError, MetricSpec, builtin,
                      list_builtins, load_metric_file, resolve_metric,
                      save_metric_file)
from .operators import (check_gct, check_second_bianchi, concircular,
                        conharmonic, dot_action, gaussian_tensor, is_gct,
                        is_proper_gct,
                        kulkarni_nomizu, named_tensor, oneform_dot,
                        projective, tachibana, walker_cyclic_check,
                        weyl_conformal)
from .zoo import (Identity, OracleSummary, Report, classify,
                  oracle_crosscheck, render_report, report_to_dict)

__version__ = "0.1.0"
