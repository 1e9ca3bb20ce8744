"""REE and closest separable states for two-qubit X-like states."""

from .config import Tolerances, default_tolerances
from .qmath import (
    DensityMatrix,
    EigenSystem,
    binary_entropy,
    hermitian_eig,
    min_eig_pt,
    partial_transpose,
    relative_entropy,
    von_neumann_entropy,
)
from .ree import (
    BRANCH_FAILURE,
    BRANCH_SEPARABLE,
    BRANCH_THEOREM1,
    BRANCH_THEOREM2,
    BRANCH_THEOREM3,
    CssSolution,
    ReeResult,
    closed_form_family_ree,
    compute_ree,
    compute_ree_many,
    css_residuals,
    css_solution,
    css_to_density_matrix,
    css_to_x_params,
    ree_from_css,
    solve_theorem1,
    solve_theorem2,
    solve_theorem3,
)
from .states import (
    BlochZParams,
    XStateParams,
    bell_ket,
    from_density_matrix,
    is_entangled,
    named_state,
    to_density_matrix,
    x_state,
    x_state_from_bloch,
)

__version__ = "0.1.0"
_ORACLE_API = {"OracleConfig", "OracleResult", "OracleValidation", "oracle_ree", "oracle_validate"}


def __getattr__(name: str):
    """xree.oracle and its names load on first use: computes and scans never run it."""
    if name == "oracle" or name in _ORACLE_API:
        import xree.oracle as oracle  # the relative form would ask this hook again
        return oracle if name == "oracle" else getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "BlochZParams",
    "BRANCH_FAILURE",
    "BRANCH_SEPARABLE",
    "BRANCH_THEOREM1",
    "BRANCH_THEOREM2",
    "BRANCH_THEOREM3",
    "CssSolution",
    "DensityMatrix",
    "EigenSystem",
    "OracleConfig",
    "OracleResult",
    "OracleValidation",
    "ReeResult",
    "Tolerances",
    "XStateParams",
    "bell_ket",
    "binary_entropy",
    "closed_form_family_ree",
    "compute_ree",
    "compute_ree_many",
    "css_residuals",
    "css_solution",
    "css_to_density_matrix",
    "css_to_x_params",
    "default_tolerances",
    "from_density_matrix",
    "hermitian_eig",
    "is_entangled",
    "min_eig_pt",
    "named_state",
    "oracle_ree",
    "oracle_validate",
    "partial_transpose",
    "ree_from_css",
    "relative_entropy",
    "solve_theorem1",
    "solve_theorem2",
    "solve_theorem3",
    "to_density_matrix",
    "von_neumann_entropy",
    "x_state",
    "x_state_from_bloch",
]
