"""Text formats: whitespace-separated edge lists and Newick strings.

Edge list: one ``parent child weight`` triple per line, separated by tabs
or spaces; lines starting with ``#`` are comments, blank lines are skipped.
Weights are decimal or p/q literals, parsed exactly.

Newick: ``(A:1,(B:2,C:3)inner:4)root;`` style with a branch length on every
non-root node. Unlabeled nodes are auto-named ``_1``, ``_2``, ... (skipping
names already present); a branch length on the root is accepted and ignored.
"""

from __future__ import annotations

import itertools
import re

from .errors import (
    DuplicateParentError,
    MalformedWeightError,
    MissingBranchLengthError,
    NegativeWeightError,
    NotATreeError,
    ParseError,
    UnbalancedParensError,
)
from .rational import parse_digits, parse_weight_pair, ratio_str
from .tree import RootedTree, _assemble


def parse_edgelist(text: str) -> RootedTree:
    """Parse edge-list text; errors carry 1-based line numbers. Per-line
    errors come in line order; structural ones only after the last line."""
    ids: dict[str, int] = {}
    parent: list[int | None] = []
    wnum: list[int] = []
    wden: list[int] = []
    loop = None  # the child label of the first self-loop
    for lineno, parts in enumerate(map(str.split, text.splitlines()), start=1):
        try:
            parent_label, child, weight_text = parts
        except ValueError:  # blank, a comment, or the wrong number of fields
            if not parts or parts[0][0] == "#":
                continue
            raise ParseError(
                f"expected 'parent child weight', got {len(parts)} fields", line=lineno
            ) from None
        if parent_label[0] == "#":
            continue
        try:
            if weight_text.isdigit() and weight_text.isascii():
                try:
                    num, den = int(weight_text), 1
                except ValueError:  # past int()'s digit limit
                    num, den = parse_digits(weight_text), 1
            else:
                num, den = parse_weight_pair(weight_text)
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


_NEWICK_TOKENS = re.compile(r"[(),:;]|[^\s(),:;]+")
# Tokens that cannot be a label or a branch length; "" marks the end.
_NEWICK_STOPS = frozenset(("(", ")", ",", ":", ";", ""))


def parse_newick(text: str) -> RootedTree:
    """Parse a Newick string into a RootedTree."""
    s = text.strip()
    if s.endswith(";"):
        s = s[:-1]
    if not s:
        raise ParseError("empty input")
    tokens = _NEWICK_TOKENS.findall(s) + [""]
    # Per-node columns in text order; a node without a branch length has
    # num None. The bottom of the stack collects the top-level nodes.
    label, num, den, kids = [], [], [], []
    stack: list[list[int]] = [[]]
    k = 0
    while tokens[k]:
        tok = tokens[k]
        if tok == "(":
            stack.append([])
            k += 1
            continue
        if tok == ")":
            if len(stack) < 2:
                raise UnbalancedParensError(f"unmatched ')' at offset {_offset(s, k)}")
            node_kids = stack.pop()
            if not node_kids:
                raise ParseError(f"empty parentheses at offset {_offset(s, k)}")
            k += 1
            tok = tokens[k]
        elif tok == "," or tok == ";":
            raise ParseError(f"expected a node at offset {_offset(s, k)}")
        else:
            node_kids = ()
        if tok not in _NEWICK_STOPS:
            k += 1
        else:
            tok = None  # no label
        p = q = None
        if tokens[k] == ":":
            k += 1
            if tokens[k] in _NEWICK_STOPS:
                raise ParseError(f"missing branch length after ':' at offset {_offset(s, k)}")
            p, q = parse_weight_pair(tokens[k])
            k += 1
        stack[-1].append(len(label))
        label.append(tok)
        num.append(p)
        den.append(q)
        kids.append(node_kids)
        # After a finished node the only legal continuations are a sibling
        # separator, the parent's closing paren, or the end of input.
        tok = tokens[k]
        if tok == ",":
            k += 1
            if tokens[k] in (")", ""):
                raise ParseError(f"expected a node at offset {_offset(s, k)}")
        elif tok and tok != ")":
            raise ParseError(f"expected ',' or ')' at offset {_offset(s, k)}")

    if len(stack) != 1:
        raise UnbalancedParensError("unclosed '('")
    if len(stack[0]) != 1:
        raise ParseError("input is not a single rooted tree")
    root = stack[0][0]
    if not kids[root]:
        raise ParseError("tree has no edges")

    # Walk down from the root as from_edges would read its (parent, child)
    # rows: ids by first appearance, auto-names in the same order. A label
    # error is raised only once every branch length is known to be present.
    used = set(label)
    fresh = (name for name in map("_{}".format, itertools.count(1)) if name not in used)
    if label[root] is None:
        label[root] = next(fresh)
    ids = {label[root]: 0}
    node_id = [0] * len(label)
    parent: list[int | None] = [None]
    wnum, wden = [0], [1]
    clash = None
    walk = [root]
    while walk:
        v = walk.pop()
        u = node_id[v]
        for c in kids[v]:
            name = label[c]
            if name is None:
                name = label[c] = next(fresh)
            if num[c] is None:
                raise MissingBranchLengthError(f"node {name!r} has no branch length")
            n = len(parent)
            i = node_id[c] = ids.setdefault(name, n)
            if i == n:
                parent.append(u)
                wnum.append(num[c])
                wden.append(den[c])
            elif clash is None:
                if parent[i] is not None:
                    clash = DuplicateParentError(f"child label {name!r} has two in-edges")
                elif i == u:
                    clash = NotATreeError(f"self-loop at {name!r}")
                else:  # the root's label again: _assemble reports the cycle
                    parent[i] = u
        walk.extend(reversed(kids[v]))
    if clash is not None:
        raise clash
    return _assemble(ids, parent, wnum, wden)


def _offset(s: str, k: int) -> int:
    """The offset in ``s`` of its token ``k``, or ``len(s)`` past the last."""
    match = next(itertools.islice(_NEWICK_TOKENS.finditer(s), k, None), None)
    return len(s) if match is None else match.start()
