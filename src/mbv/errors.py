"""Exception types shared across the package."""


class MbvError(Exception):
    """Base class for every error raised by this package."""


class LoopEdgeError(MbvError):
    """An edge joins a vertex to itself."""


class DuplicateEdgeError(MbvError):
    """The same undirected edge was given twice."""


class IndexOutOfRangeError(MbvError):
    """A vertex index is outside [0, n)."""


class DisconnectedInputError(MbvError):
    """The operation requires a connected graph."""


class StaleBoundError(MbvError):
    """A lower-bound result was computed on a different graph."""


class NotASpanningTreeError(MbvError):
    """An edge set is not a spanning tree of the graph it was checked against."""


class TooLargeError(MbvError):
    """The instance exceeds the brute-force enumeration guard."""


class MalformedHeaderError(MbvError):
    """An instance file header could not be parsed."""


class BadEdgeLineError(MbvError):
    """An instance file edge line could not be parsed."""


class InfeasibleEdgeCountError(MbvError):
    """The requested edge count cannot produce a simple connected graph."""
