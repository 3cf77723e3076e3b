"""Generalized inverses of complex square matrices of arbitrary index.

The package computes the weak group inverse and its seven relatives
(Moore-Penrose, group, Drazin, core, core-EP, DMP, B-T), the decompositions
they rest on (Hartwig-Spindelboeck, core-nilpotent, core-EP), and decision
procedures for seven matrix orders, with every result checked against its
defining equations.
"""

from .decomp import (
    CNParts,
    CoreEPParts,
    HSParts,
    IndexResult,
    core_ep_decompose,
    core_nilpotent_decompose,
    hs_decompose,
    index,
)
from .errors import (
    DefiningEquationViolationError,
    GinvError,
    IllConditionedError,
    InconsistentSystemError,
    InfeasibleSpecError,
    MatrixParseError,
    NotGroupInvertibleError,
    ShapeMismatchError,
)
from .geninv import (
    InverseResult,
    WGRoute,
    bt_inverse,
    core_ep_inverse,
    core_inverse,
    dmp_inverse,
    drazin_inverse,
    group_inverse,
    mp_inverse,
    projector_onto_range,
    verify_wg,
    wg_inverse,
)
from .matcore import (
    DEFAULT_TOL,
    ToleranceConfig,
    approx_eq,
    as_matrix,
    frobenius_norm,
    rank,
    residual,
)
from .matfile import format_matrix, load_matrix, parse_matrix, save_matrix
from .orders import (
    OrderVerdict,
    ce_order,
    cn_order,
    core_ep_order,
    core_ep_order_via_wg,
    drazin_order,
    minus_order,
    sharp_order,
    wg_order,
)

__version__ = "0.1.0"

# The verification oracle (test-data builders, suites and the brute-force WG
# solver) is imported on first use (PEP 562): the compute path never needs it.
_ORACLE_NAMES = frozenset(
    {
        "GenSpec",
        "SuiteFailure",
        "SuiteReport",
        "SUITE_NAMES",
        "WGPairSpec",
        "brute_force_wg",
        "gen_matrix",
        "make_ce_pair",
        "make_wg_pair",
        "run_suite",
    }
)


def __getattr__(name: str):
    if name in _ORACLE_NAMES:
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | _ORACLE_NAMES)

__all__ = [
    "CNParts",
    "CoreEPParts",
    "DEFAULT_TOL",
    "DefiningEquationViolationError",
    "GenSpec",
    "GinvError",
    "HSParts",
    "IllConditionedError",
    "InconsistentSystemError",
    "IndexResult",
    "InfeasibleSpecError",
    "InverseResult",
    "MatrixParseError",
    "NotGroupInvertibleError",
    "OrderVerdict",
    "ShapeMismatchError",
    "SuiteFailure",
    "SuiteReport",
    "SUITE_NAMES",
    "ToleranceConfig",
    "WGPairSpec",
    "WGRoute",
    "approx_eq",
    "as_matrix",
    "brute_force_wg",
    "bt_inverse",
    "ce_order",
    "cn_order",
    "core_ep_decompose",
    "core_ep_inverse",
    "core_ep_order",
    "core_ep_order_via_wg",
    "core_inverse",
    "core_nilpotent_decompose",
    "dmp_inverse",
    "drazin_inverse",
    "drazin_order",
    "format_matrix",
    "frobenius_norm",
    "gen_matrix",
    "group_inverse",
    "hs_decompose",
    "index",
    "load_matrix",
    "make_ce_pair",
    "make_wg_pair",
    "minus_order",
    "mp_inverse",
    "parse_matrix",
    "projector_onto_range",
    "rank",
    "residual",
    "run_suite",
    "save_matrix",
    "sharp_order",
    "verify_wg",
    "wg_inverse",
    "wg_order",
]
