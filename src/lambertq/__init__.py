"""lambertq: high-precision Lambert series and q-exponential products with
certified truncation bounds, plus a machine-checkable identity catalog."""

from .numerics import (
    DEFAULT_PRECISION_BITS,
    ConvergenceError,
    DomainError,
    catalan,
    dirichlet_beta,
    euler_gamma,
    glaisher,
    precision,
    richardson_extrapolate,
    set_precision,
    zeta,
)
from .arith import (
    ArithTable,
    FunctionId,
    build_table,
    custom_table,
    dirichlet_convolve,
    gcd_sum_transform,
    h_transform,
    mobius_invert,
    squarefree_kernel_sum,
)
from .qseries import (
    E_q,
    KernelForm,
    QPoint,
    SeriesValue,
    TableTooShortError,
    dedekind_eta,
    e_q,
    lambert_sum,
    log_qpoch_inf,
    q_binomial_check,
    q_gamma,
    qpoch_n,
    triple_product,
    weierstrass_delta,
    weighted_product_log,
)

from .identities import (
    IdentityRecord,
    IdentityReport,
    LimitReport,
    UnknownIdError,
    catalog,
    hypothesis_check,
    limit_check,
    limit_check_all,
    limit_lookup,
    limit_targets,
    lookup,
    verify,
    verify_all,
)

__version__ = "0.1.0"


def __getattr__(name):
    # identities loads LimitTarget, and dataclasses with it, on first use
    if name == "LimitTarget":
        return identities.LimitTarget
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
