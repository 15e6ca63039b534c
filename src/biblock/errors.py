"""Exception types shared across the package."""


class BiblockError(Exception):
    """Base class for all errors raised by this package."""


class OutOfRangeError(BiblockError, ValueError):
    """A vertex label or block id is negative or >= the vertex or block count."""


class SelfLoopError(BiblockError, ValueError):
    """An edge joins a vertex to itself."""


class DuplicateEdgeError(BiblockError, ValueError):
    """An edge is given twice, or added when already present."""


class InvalidSizeError(BiblockError, ValueError):
    """A size parameter is outside its allowed range."""


class SizeMismatchError(BiblockError, ValueError):
    """Two objects that must share a vertex set (or length) do not."""


class OddCycleError(BiblockError):
    """The graph contains an odd cycle, hence is not bipartite."""


class DisconnectedError(BiblockError):
    """The graph is not connected where connectivity is required."""


class NotBiBlockError(BiblockError):
    """The graph is not a bi-block graph where one is required."""


class NotNeighborsError(BiblockError):
    """The two named blocks do not share a cut vertex."""


class TooLargeError(BiblockError):
    """The instance exceeds a stated size cap."""


class NotMaximumError(BiblockError):
    """A claimed maximum independent set is not one."""


class NoConvergenceError(BiblockError):
    """A Perron pair failed its positivity or residual check."""


class NotConstantWithinClassError(BiblockError):
    """Eigenvector entries that must agree within a vertex class do not."""


class PreconditionFailedError(BiblockError):
    """A rewrite's case hypotheses do not hold for the given selection."""


class BadSplitError(BiblockError, ValueError):
    """The chosen subset N1 does not have the required size m."""


class OrientationMismatchError(BiblockError):
    """A rewrite step's two sides overlap (raised by ``rewrites._edit``)."""


class BlockIndexTooSmallError(BiblockError):
    """The vertex has block index < 3, so no index reduction applies."""


class NoValidPairError(BiblockError):
    """No pair of blocks at the vertex satisfies the pigeonhole rule."""


class PostconditionViolationError(BiblockError):
    """A rewrite changed an invariant it must preserve (k, alpha, rho)."""


class StuckError(BiblockError):
    """Normalization found no applicable step before reaching one block."""


class TheoremViolationError(BiblockError):
    """Extremal verification found a counterexample (must never happen).

    Carries the offending graph in ``args[1]`` when raised by
    ``enumeration._verify_class``; its text is the message alone.
    """

    def __str__(self) -> str:
        return str(self.args[0])


class EmptyClassError(BiblockError, ValueError):
    """The requested class B(k, alpha) has no members."""
