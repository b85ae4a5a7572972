"""Exception types raised by the path solver and its supporting pieces."""


class ParasimplexError(Exception):
    """Base class for all solver errors."""


class InfeasibleAtLargeLambda(ParasimplexError):
    """The starting basis is not optimal for any sufficiently large lambda.

    Raised by ``initialize`` when some base entry is negative while its
    perturbation entry vanishes, or when the feasible lambda window
    ``[lambda_star, lambda_max]`` is empty.
    """


class UnboundedDirection(ParasimplexError):
    """A primal pivot found no blocking variable: the program is unbounded
    just below the current breakpoint."""


class InfeasibleProblem(ParasimplexError):
    """A dual pivot found no entering variable: the program is infeasible
    just below the current breakpoint."""


class SingularBasis(ParasimplexError):
    """The selected basis matrix could not be factorized (rank deficient)."""


class UpdateDegenerate(ParasimplexError):
    """A rank-one basis update would make the factorization singular."""


class ComplementarityViolation(ParasimplexError):
    """Both halves of a positive/negative variable split are simultaneously
    nonzero at a breakpoint — indicates an engine bug, not bad data."""


class SizeGuard(ParasimplexError):
    """The instance is too large for exhaustive basis enumeration."""
