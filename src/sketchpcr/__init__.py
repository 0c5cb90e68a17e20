"""Sketching-based approximate principal component regression and projection.

A small numpy/scipy library for PCR/PCP with exact SVD solvers, sketched
solvers (left, right, two-sided, compressed least squares), an
input-sparsity solver, a one-pass streaming estimator, polynomial-kernel
PCR via TensorSketch, and fixed-design risk evaluation utilities.
"""

from .errors import ConvergenceError, GapError, RankDeficiencyError
from .evaluation import (
    FixedDesignModel,
    RiskBoundReport,
    RiskEstimate,
    bias_variance,
    classic_pcr_risk_bound,
    exact_risk,
    excess_risk_mc,
    pcr_corollary_bound,
    planted_matrix,
    planted_spectrum,
    sample_response,
    stat_structural_bound,
    struct_stat_pcp_bound,
)
from .kernel import (
    KernelModel,
    KernelSpec,
    fit_exact,
    kernel_matrix,
    kernel_predict,
    sketched_kernel_pcr,
    sketched_kernel_predict,
)
from .linalg import (
    Svd,
    relative_gap,
    stable_rank,
    subspace_distance,
    thin_svd,
)
from .sketch import (
    GramErrorReport,
    TensorSketch,
    apply_left,
    gen_countsketch,
    gen_subgaussian,
    gen_tensorsketch,
    gram_error,
    sketch_rows_for_gram,
    tensorsketch_apply,
)
from .solvers import (
    ApproxCertificate,
    PcrProblem,
    PcrSolution,
    build_r_left,
    build_r_right,
    build_r_twosided,
    certify,
    cls,
    exact_pcr,
    input_sparsity_pcp,
    precond_iterative_ls,
    sketched_pcr,
)
from .streaming import (
    StreamState,
    stream_block,
    stream_finalize,
    stream_init,
    stream_update,
)

__version__ = "0.1.0"
