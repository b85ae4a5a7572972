"""Parametric-simplex path solver for l1-style estimators.

The core engine traces the full piecewise-linear solution path of

    max (c + lambda*c_bar)' x   s.t.  A x = b + lambda*b_bar,  x >= 0

in decreasing lambda, pivoting only at breakpoints. Reductions turn three
sparse-learning estimators (l1 regression via correlation constraints, an
l1-constrained soft-margin classifier, and sparse precision-difference
estimation) into this form so their entire regularization paths come from
one solve.
"""

from .core import (
    BasisPartition,
    ParametricProgram,
    PathSegment,
    PivotEvent,
    PivotKind,
    ProgramKind,
    SlackInfo,
    SolutionPath,
    Termination,
    evaluate_dual,
    evaluate_primal,
    to_standard_form,
)
from .engine import (
    CertificateReport,
    DictionaryState,
    SolveOptions,
    compute_lambda_max,
    compute_lambda_star,
    dual_pivot,
    initialize,
    primal_pivot,
    solve_path,
    verify_certificate,
)
from .errors import (
    ComplementarityViolation,
    InfeasibleAtLargeLambda,
    InfeasibleProblem,
    ParasimplexError,
    SingularBasis,
    SizeGuard,
    UnboundedDirection,
    UpdateDegenerate,
)
from .linalg import BasisFactorization
from .reductions import (
    DantzigInstance,
    DiffNetInstance,
    OriginalSegment,
    PathInOriginalCoords,
    SvmInstance,
    build_dantzig,
    build_diffnet,
    build_svm,
    recover_dantzig,
    recover_diffnet,
    recover_svm,
)

__version__ = "0.1.0"

__all__ = [
    "BasisFactorization",
    "BasisPartition",
    "CertificateReport",
    "ComplementarityViolation",
    "DantzigInstance",
    "DictionaryState",
    "DiffNetInstance",
    "InfeasibleAtLargeLambda",
    "InfeasibleProblem",
    "OriginalSegment",
    "ParametricProgram",
    "ParasimplexError",
    "PathInOriginalCoords",
    "PathSegment",
    "PivotEvent",
    "PivotKind",
    "ProgramKind",
    "SingularBasis",
    "SizeGuard",
    "SlackInfo",
    "SolutionPath",
    "SolveOptions",
    "SvmInstance",
    "Termination",
    "UnboundedDirection",
    "UpdateDegenerate",
    "build_dantzig",
    "build_diffnet",
    "build_svm",
    "compute_lambda_max",
    "compute_lambda_star",
    "dual_pivot",
    "evaluate_dual",
    "evaluate_primal",
    "initialize",
    "primal_pivot",
    "recover_dantzig",
    "recover_diffnet",
    "recover_svm",
    "solve_path",
    "to_standard_form",
    "verify_certificate",
    "__version__",
]
