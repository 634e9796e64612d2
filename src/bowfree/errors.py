"""Exception hierarchy shared across the package."""


class BowfreeError(Exception):
    """Base class for all package errors."""


class GraphStructureError(BowfreeError):
    """Malformed graph: out-of-range index, self-loop, duplicate edge."""


class CycleError(BowfreeError):
    """Directed part of the graph is not acyclic. ``cycle`` holds 0-based
    vertices; the message names them 1-based, as the graph files do."""

    def __init__(self, cycle):
        self.cycle = list(cycle)
        super().__init__("directed edges contain the cycle " + " -> ".join(str(v + 1) for v in self.cycle))


class BowViolationError(BowfreeError):
    """A vertex pair carries both a directed and a bidirected edge. ``pairs``
    holds 0-based vertices; the message names them 1-based."""

    def __init__(self, pairs):
        self.pairs = list(pairs)
        super().__init__(f"graph is not bow-free, violating pairs: {[(u + 1, v + 1) for u, v in self.pairs]}")


class PatternError(BowfreeError):
    """Parameter matrix has nonzeros outside the structural zero pattern."""


class DefinitenessError(BowfreeError):
    """Matrix expected to be positive (semi)definite is not."""


class NearSingularError(BowfreeError):
    """Linear system is numerically singular (identifiability failure).
    ``vertex`` is 0-based; messages name it 1-based."""

    def __init__(self, message, vertex=None):
        self.vertex = vertex
        super().__init__(message)


class ConvergenceError(BowfreeError):
    """Iterative scheme failed to converge."""


class OrderingError(BowfreeError):
    """A recovery input that does not fit the graph: a covariance or edge
    weights of the wrong shape, a cyclic forced-edge chain, or the closed
    form asked of a vertex with grandparents or forced in-edges."""


class PremiseError(BowfreeError):
    """Stability premise on (alpha, beta, kappa0) is violated."""


class ConfigError(BowfreeError):
    """Invalid generator or experiment configuration."""


class SampleSizeError(BowfreeError):
    """Too few observations for the requested estimator."""


class IngestionError(BowfreeError):
    """External file does not match the documented format."""
