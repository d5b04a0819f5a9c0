"""Command-line surface: cut, oracle, count, and cluster subcommands.

Reports are stable-ordered ``key: value`` lines on stdout; diagnostics go
to stderr. Exit codes: 0 success, 1 input error, 2 enumeration limit hit.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import sys
import time
import warnings

from .contraction import CutResult, Objective, optimal_average_cut, run_contraction
from .dendro import communities_from_cut, linkage_to_tree, parse_linkage_csv
from .errors import AvgCutError, TooManyCutsError
from .io import edge_rows, parse_edgelist, parse_newick
from .oracle import DEFAULT_CUT_LIMIT, brute_force_optimum, count_cuts
from .rational import decimal_approx, exact_str
from .tree import RootedTree


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _read(path: str) -> tuple[str, str]:
    with open(path, "rb") as fh:
        data = fh.read()
    # A leading byte-order mark is not text; the digest still covers it.
    return data.decode("utf-8-sig"), _digest(data)


_FORMATS = ("edgelist", "newick")


def _load_tree(path: str, fmt: str) -> tuple[RootedTree, str]:
    text, digest = _read(path)
    tree = parse_newick(text) if fmt == "newick" else parse_edgelist(text)
    return tree, digest


def _print_report(
    args, digest: str, tree: RootedTree, result: CutResult, elapsed: float, communities=(), steps=()
) -> None:
    """Print one ``cut``, ``oracle`` or ``cluster`` report. Only ``cluster``
    prints ``scheme:`` and passes ``communities``, and only ``cut --trace``
    passes ``steps``; the oracle's result carries ``cut_count``, which
    replaces ``contraction_count:``."""
    labels = tree.labels
    lines = [f"input_digest: {digest}", f"objective: {args.objective}"]
    if args.command == "cluster":
        lines.append(f"scheme: {args.scheme}")
    lines += [
        f"average: {exact_str(result.average)}",
        f"average_decimal: {decimal_approx(result.average)}",
        f"total: {exact_str(result.total)}",
        f"size: {result.size}",
        f"contraction_count: {len(result.contractions)}"
        if result.cut_count is None
        else f"cut_count: {exact_str(result.cut_count)}",
    ]
    lines += ["community: " + " ".join(members) for members in communities]
    lines += [f"cut: {p} {c} {w}" for p, c, w in edge_rows(tree, sorted(result.cut))]
    lines += [f"trace: {labels[tree.tail(e)]} {labels[e]} {lam}" for e, lam, *_ in steps]
    lines.append(f"elapsed_ms: {elapsed * 1000:.3f}")
    print("\n".join(lines))


def _cmd_cut(args) -> int:
    tree, digest = _load_tree(args.input, args.format)
    started = time.perf_counter()
    state = run_contraction(tree, Objective(args.objective))
    result = state.result()
    elapsed = time.perf_counter() - started
    _print_report(args, digest, tree, result, elapsed, steps=state.steps() if args.trace else ())
    return 0


def _cmd_oracle(args) -> int:
    tree, digest = _load_tree(args.input, args.format)
    started = time.perf_counter()
    result = brute_force_optimum(tree, Objective(args.objective), args.limit)
    elapsed = time.perf_counter() - started
    _print_report(args, digest, tree, result, elapsed)
    return 0


def _cmd_count(args) -> int:
    tree, digest = _load_tree(args.input, args.format)
    started = time.perf_counter()
    total = count_cuts(tree)
    elapsed = time.perf_counter() - started
    print(f"input_digest: {digest}")
    print(f"cut_count: {exact_str(total)}")
    print(f"elapsed_ms: {elapsed * 1000:.3f}")
    return 0


def _cmd_cluster(args) -> int:
    text, digest = _read(args.linkage)
    table = parse_linkage_csv(text)
    del text
    started = time.perf_counter()
    tree = linkage_to_tree(table, args.scheme)
    del table  # the tree holds everything the report needs
    result = optimal_average_cut(tree, Objective(args.objective))
    partition = communities_from_cut(tree, result.cut)
    elapsed = time.perf_counter() - started
    _print_report(args, digest, tree, result, elapsed, communities=partition.ordered())
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="avgcut",
        description="Optimal average-weight root-separating cuts in rooted weighted trees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    cut = sub.add_parser("cut", help="run the contraction algorithm")
    cut.add_argument("--objective", choices=("max", "min"), default="max")
    cut.add_argument("--format", choices=_FORMATS, default="edgelist")
    cut.add_argument("--input", required=True)
    cut.add_argument("--trace", action="store_true", help="log each contraction")
    cut.set_defaults(handler=_cmd_cut)

    oracle = sub.add_parser("oracle", help="brute-force optimum by full enumeration")
    oracle.add_argument("--objective", choices=("max", "min"), default="max")
    oracle.add_argument("--format", choices=_FORMATS, default="edgelist")
    oracle.add_argument("--input", required=True)
    oracle.add_argument("--limit", type=int, default=DEFAULT_CUT_LIMIT)
    oracle.set_defaults(handler=_cmd_oracle)

    count = sub.add_parser("count", help="count the root-separating cuts")
    count.add_argument("--format", choices=_FORMATS, default="edgelist")
    count.add_argument("--input", required=True)
    count.set_defaults(handler=_cmd_count)

    cluster = sub.add_parser("cluster", help="cut a linkage dendrogram into communities")
    cluster.add_argument("--linkage", required=True)
    cluster.add_argument("--objective", choices=("max", "min"), default="max")
    cluster.add_argument("--scheme", choices=("gap", "height"), default="gap")
    cluster.set_defaults(handler=_cmd_cluster)
    return parser


def run_cli(argv=None) -> int:
    # The cyclic collector is paused for the one command: a run drops what it
    # builds only at its end, so collections would find no cycles and only
    # cost time. Reference counting still frees whatever the command drops.
    collecting = gc.isenabled()
    gc.disable()
    try:
        parser = _build_parser()
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            return 0 if exc.code in (0, None) else 1
        try:
            with warnings.catch_warnings():  # a warning is one line, like an error
                warnings.showwarning = lambda msg, *_: print(f"warning: {msg}", file=sys.stderr)
                return args.handler(args)
        except TooManyCutsError as err:
            print(f"error: {err}", file=sys.stderr)
            return 2
        except (AvgCutError, OSError, UnicodeDecodeError) as err:
            print(f"error: {err}", file=sys.stderr)
            return 1
    finally:
        if collecting:
            gc.enable()


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
