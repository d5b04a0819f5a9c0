"""Exception types raised across the package."""


class AvgCutError(Exception):
    """Base class for all errors raised by this package."""


# --- tree construction -------------------------------------------------- #

class TreeError(AvgCutError):
    """A tree input violates the rooted-tree contract."""


class DuplicateParentError(TreeError):
    """A label appears as a child of two edges (two in-edges)."""


class NotATreeError(TreeError):
    """The parent relation has no unique root, a cycle, or is disconnected."""


class NegativeWeightError(TreeError):
    """An edge weight is negative."""


class MalformedWeightError(TreeError):
    """A weight token is not a decimal or p/q rational literal."""


class ZeroWeightWarning(UserWarning):
    """Zero edge weights are legal but unusual; flagged once per tree."""


# --- contraction engine -------------------------------------------------- #

class DeadEdgeError(AvgCutError):
    """The edge was already contracted."""


class LeafHeadError(AvgCutError):
    """The edge's head is a leaf; leaf edges are never contractible."""


# --- exhaustive oracle ---------------------------------------------------- #

class TooManyCutsError(AvgCutError):
    """The tree has more root-separating cuts than the enumeration limit."""


class EmptyCutError(AvgCutError):
    """A cut must contain at least one edge."""


class InvalidCutError(AvgCutError):
    """The edge set is not the boundary of a root-containing internal subtree."""


# --- dendrogram / linkage -------------------------------------------------- #

class LinkageError(AvgCutError):
    """A linkage merge table violates its structural contract."""


class LinkageIndexError(LinkageError):
    """A merge row references a cluster index that is invalid or reused."""


class NegativeGapError(LinkageError):
    """Merge heights decrease somewhere, so a derived edge weight is negative."""


# --- parsers ---------------------------------------------------------------- #

class ParseError(AvgCutError):
    """Malformed input text; ``line`` is 1-based when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class MissingBranchLengthError(ParseError):
    """A non-root Newick node has no branch length."""


class UnbalancedParensError(ParseError):
    """Newick parentheses do not balance."""
