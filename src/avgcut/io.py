"""Text formats: whitespace-separated edge lists and Newick strings.

Edge list: one ``parent child weight`` triple per line, separated by tabs
or spaces; lines starting with ``#`` are comments, blank lines are skipped.
Weights are decimal or p/q literals, parsed exactly.

Newick: ``(A:1,(B:2,C:3)inner:4)root;`` style with a branch length on every
non-root node. Unlabeled nodes are auto-named ``_1``, ``_2``, ... (skipping
names already present); a branch length on the root is accepted and ignored.
"""

from __future__ import annotations

from .errors import (
    DuplicateParentError,
    MalformedWeightError,
    MissingBranchLengthError,
    NegativeWeightError,
    NotATreeError,
    ParseError,
    UnbalancedParensError,
)
from .rational import parse_digits, parse_weight, ratio_str
from .tree import RootedTree, _assemble, from_edges


def parse_edgelist(text: str) -> RootedTree:
    """Parse edge-list text; errors carry 1-based line numbers. Per-line
    errors come in line order; structural ones only after the last line."""
    ids: dict[str, int] = {}
    parent: list[int | None] = []
    wnum: list[int] = []
    wden: list[int] = []
    loop = None  # the child label of the first self-loop
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if not parts or parts[0][0] == "#":
            continue
        if len(parts) != 3:
            raise ParseError(
                f"expected 'parent child weight', got {len(parts)} fields", line=lineno
            )
        parent_label, child, weight_text = parts
        try:
            if weight_text.isdigit() and weight_text.isascii():
                num, den = parse_digits(weight_text), 1
            else:
                weight = parse_weight(weight_text)
                num, den = weight.numerator, weight.denominator
        except (MalformedWeightError, NegativeWeightError) as err:
            raise type(err)(f"line {lineno}: {err}") from None
        u = ids.get(parent_label)
        if u is None:
            u = ids[parent_label] = len(parent)
            parent.append(None)
            wnum.append(0)
            wden.append(1)
        c = ids.get(child)
        if c is None:
            ids[child] = len(parent)
            parent.append(u)
            wnum.append(num)
            wden.append(den)
            continue
        if parent[c] is not None:
            first = next(
                i for i, row in enumerate(text.splitlines(), start=1)
                if len(f := row.split()) == 3 and f[0][0] != "#" and f[1] == child
            )
            raise DuplicateParentError(
                f"line {lineno}: child {child!r} already has a parent (line {first})"
            )
        if c == u and loop is None:
            loop = child
        parent[c] = u
        wnum[c] = num
        wden[c] = den
    if not ids:
        raise ParseError("no edges found")
    if loop is not None:
        raise NotATreeError(f"self-loop at {loop!r}")
    return _assemble(ids, parent, wnum, wden)


def format_edgelist(t: RootedTree) -> str:
    """Serialize to edge-list text, sorted by labels.

    The ordering depends only on labels, so any tree built from a permuted
    edge list serializes identically; re-parsing yields an isomorphic tree.
    """
    return "".join("\t".join(row) + "\n" for row in sorted(edge_rows(t, t.edges())))


def edge_rows(t: RootedTree, edges) -> tuple[tuple[str, str, str], ...]:
    """``(parent label, child label, exact weight text)`` of each edge."""
    labels, wnum, wden = t.labels, t.wnum, t.wden
    return tuple((labels[t.parent[e]], labels[e], ratio_str(wnum[e], wden[e])) for e in edges)


_NEWICK_DELIMS = frozenset("(),:;")


def parse_newick(text: str) -> RootedTree:
    """Parse a Newick string into a RootedTree."""
    s = text.strip()
    if s.endswith(";"):
        s = s[:-1]
    if not s:
        raise ParseError("empty input")
    n = len(s)
    # A node is [label, branch length, children]; the bottom of the stack
    # collects the finished root.
    stack: list[list] = [[]]
    i = 0

    def skip_ws(j: int) -> int:
        while j < n and s[j].isspace():
            j += 1
        return j

    def read_token(j: int) -> tuple[str, int]:
        k = j
        while k < n and not s[k].isspace() and s[k] not in _NEWICK_DELIMS:
            k += 1
        return s[j:k], k

    def read_suffix(j: int) -> tuple[str | None, object, int]:
        label, j = read_token(j)
        j = skip_ws(j)
        length = None
        if j < n and s[j] == ":":
            j = skip_ws(j + 1)
            token, j = read_token(j)
            if not token:
                raise ParseError(f"missing branch length after ':' at offset {j}")
            length = parse_weight(token)
        return (label or None), length, j

    while True:
        i = skip_ws(i)
        if i >= n:
            break
        ch = s[i]
        if ch == "(":
            stack.append([])
            i += 1
            continue
        if ch == ")":
            if len(stack) < 2:
                raise UnbalancedParensError(f"unmatched ')' at offset {i}")
            kids = stack.pop()
            if not kids:
                raise ParseError(f"empty parentheses at offset {i}")
            label, length, i = read_suffix(skip_ws(i + 1))
            stack[-1].append([label, length, kids])
        elif ch in ",;":
            raise ParseError(f"expected a node at offset {i}")
        else:
            label, length, i = read_suffix(i)
            if label is None and length is None:
                raise ParseError(f"unexpected character {s[i]!r} at offset {i}")
            stack[-1].append([label, length, []])
        # After a finished node the only legal continuations are a sibling
        # separator, the parent's closing paren, or the end of input.
        i = skip_ws(i)
        if i < n:
            if s[i] == ",":
                i += 1
            elif s[i] != ")":
                raise ParseError(f"expected ',' or ')' at offset {i}")

    if len(stack) != 1:
        raise UnbalancedParensError("unclosed '('")
    if len(stack[0]) != 1:
        raise ParseError("input is not a single rooted tree")
    root = stack[0][0]
    if not root[2]:
        raise ParseError("tree has no edges")
    return _newick_to_tree(root)


def _newick_to_tree(root: list) -> RootedTree:
    used: set[str] = set()
    scan = [root]
    while scan:
        node = scan.pop()
        if node[0] is not None:
            used.add(node[0])
        scan.extend(node[2])

    counter = 0

    def fresh() -> str:
        nonlocal counter
        while True:
            counter += 1
            name = f"_{counter}"
            if name not in used:
                used.add(name)
                return name

    if root[0] is None:
        root[0] = fresh()
    # The root's own branch length, if present, has no edge and is ignored.
    triples = []
    stack = [root]
    while stack:
        label, _length, kids = stack.pop()
        for kid in kids:
            if kid[0] is None:
                kid[0] = fresh()
            if kid[1] is None:
                raise MissingBranchLengthError(f"node {kid[0]!r} has no branch length")
            triples.append((label, kid[0], kid[1]))
        stack.extend(reversed(kids))
    return from_edges(triples)
