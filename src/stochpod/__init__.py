"""Stochastic proper orthogonal decomposition.

Random principal subspaces sampled around a POD basis, stochastic
reduced-order models built from them, and training of the single
concentration parameter so prediction intervals track model error.
Training and sampling share one Monte-Carlo loop in ``stochpod.pipeline``.
"""

__version__ = "0.1.0"

from .ensemble import (CoverageReport, PredictionSummary, coverage,
                       summarize_matrix)
from .errors import ConvergenceError, GapError
from .rom import (LinearDynamicSystem, LinearStaticSystem,
                  NonlinearCubicSystem, Trajectory, galerkin_reduce,
                  inner_reduce, newmark_integrate, reconstruct,
                  solve_linear_static, solve_nonlinear_cubic,
                  solve_rom_nonlinear)
from .sampling import (RandomStream, StochasticSubspaceModel,
                       batch_fractional_draws, sample_fractional)
from .subspace import (CovarianceModel, PodDecomposition, SubspaceBasis,
                       center, compact_svd, macg_log_pdf,
                       polar_orthonormalize, principal_subspace_map,
                       projector_distance, select_rank)
from .training import (BetaSearchResult, ObjectiveCache, RefinementConfig,
                       TrainingConfig, interpolated_objective, optimize_beta,
                       refine_beta_real, train_integer_beta)
