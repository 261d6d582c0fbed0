"""Command-line surface: recognize / evaluate / check / triples / aho /
gen-random / oracle-verify / bench.

Exit codes: 0 success, 1 negative domain verdict (not tree-like, label
conflict, mismatch, inconsistent triples, oracle disagreement), 2 input
or budget errors.  All randomness is seed-controlled, so equal inputs
give byte-identical outputs.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import sys
import time
from itertools import product
from typing import Optional, Sequence

from . import __version__, io, oracle
from .core import NO_EVENT, FitchError, LabelConflict, RootedTriple, TripleSet, make_fitch_map
from .evaluate import evaluate, explains
from .generalized import recognize
from .triples import Inconsistent, aho_build, informative_triples


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write_text(path: Optional[str], text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _info(args, message: str) -> None:
    if not args.quiet:
        print(message)


def _cmd_recognize(args) -> int:
    fmap = io.read_map(_read_text(args.map))
    report = recognize(fmap)
    if args.report == "json":
        sys.stdout.write(json.dumps(report.to_json(), sort_keys=True) + "\n")
    if report.tree_like:
        tree_text = io.write_tree(report.tree)
        if args.output is not None:
            _write_text(args.output, tree_text)
        elif args.report != "json":
            sys.stdout.write(tree_text)
        return 0
    if args.report != "json":
        sys.stderr.write(f"not tree-like: {report.reason.describe()}\n")
    return 1


def _cmd_evaluate(args) -> int:
    tree = io.read_tree(_read_text(args.tree))
    try:
        fmap = evaluate(tree)
    except LabelConflict as e:
        sys.stderr.write(f"label conflict: {e}\n")
        return 1
    _write_text(args.output, io.write_map(fmap))
    return 0


def _cmd_check(args) -> int:
    tree = io.read_tree(_read_text(args.tree))
    fmap = io.read_map(_read_text(args.map))
    if explains(tree, fmap):
        _info(args, "tree explains the map")
        return 0
    _info(args, "tree does not explain the map")
    return 1


def _format_triples(ts: TripleSet) -> str:
    lines = sorted(f"{t.a} {t.b} | {t.c}" for t in ts)
    return "".join(line + "\n" for line in lines)


def _parse_triples(text: str) -> TripleSet:
    out = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split("|")
        if len(parts) != 2:
            raise io.ParseError(lineno, 1, "expected 'a b | c'")
        left = parts[0].split()
        right = parts[1].split()
        if len(left) != 2 or len(right) != 1:
            raise io.ParseError(lineno, 1, "expected 'a b | c'")
        out.append(RootedTriple(left[0], left[1], right[0]))
    return TripleSet(out)


def _cmd_triples(args) -> int:
    fmap = io.read_map(_read_text(args.map))
    _write_text(args.output, _format_triples(informative_triples(fmap)))
    return 0


def _cmd_aho(args) -> int:
    ts = _parse_triples(_read_text(args.triples))
    leaves = [nm for nm in args.leaves.split(",") if nm]
    try:
        tree = aho_build(ts, leaves)
    except Inconsistent as e:
        sys.stderr.write(f"inconsistent: {e}\n")
        return 1
    sys.stdout.write(io.write_tree(tree))
    return 0


def _cmd_gen_random(args) -> int:
    tree, fmap = oracle.random_tree_like_instance(args.seed, args.leaves, args.symbols)
    prefix = args.o_prefix
    _write_text(f"{prefix}.lnw", io.write_tree(tree))
    _write_text(f"{prefix}.fm", io.write_map(fmap))
    _info(args, f"wrote {prefix}.lnw and {prefix}.fm")
    return 0


def _mutate_map(fmap, rng):
    """Flip a few random entries; the result usually stops being tree-like."""
    entries = {pair: lab for pair, lab in fmap.pairs()}
    pool = list(fmap.alphabet) + ["1"] + [NO_EVENT]
    pairs = sorted(entries)
    for _ in range(rng.randrange(1, 4)):
        pair = pairs[rng.randrange(len(pairs))]
        entries[pair] = pool[rng.randrange(len(pool))]
    return make_fitch_map(fmap.leaves, entries)


def _cmd_oracle_verify(args) -> int:
    total = agree = tree_like = 0
    if args.exhaustive:
        leaves = [f"L{i}" for i in range(1, args.leaves + 1)]
        alphabet = [str(i) for i in range(1, args.symbols + 1)]
        truth = oracle.all_explainers(leaves, alphabet)
        labels = [NO_EVENT] + alphabet
        pairs = [(x, y) for x in leaves for y in leaves if x != y]
        order = sorted(leaves)
        for combo in product(labels, repeat=len(pairs)):
            fmap = make_fitch_map(leaves, dict(zip(pairs, combo)))
            verdict = recognize(fmap).tree_like
            expected = fmap.encoding(order) in truth
            total += 1
            tree_like += verdict
            agree += verdict == expected
    else:
        rng = random.Random(args.seed)
        for i in range(args.samples):
            _, fmap = oracle.random_tree_like_instance(
                rng.randrange(1 << 30), args.leaves, args.symbols
            )
            if i % 2:
                fmap = _mutate_map(fmap, rng)
            verdict = recognize(fmap).tree_like
            expected = oracle.brute_force_tree_like(fmap) is not None
            total += 1
            tree_like += verdict
            agree += verdict == expected
    _info(args, f"maps: {total}  tree-like: {tree_like}  agreements: {agree}")
    return 0 if agree == total else 1


def _cmd_bench(args) -> int:
    times = []
    for r in range(args.repeat):
        _, fmap = oracle.random_tree_like_instance(
            args.seed + r, args.leaves, args.symbols
        )
        t0 = time.perf_counter()
        report = recognize(fmap)
        times.append(time.perf_counter() - t0)
        if not report.tree_like:
            sys.stderr.write(
                f"error: tree-like instance (seed {args.seed + r}) reported not tree-like: "
                f"{report.reason.describe()}\n"
            )
            return 1
    sys.stdout.write(f"{args.leaves}\t{statistics.median(times):.6f}\n")
    return 0


def _positive_int(text: str) -> int:
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {text}")
    return int(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fitchmap",
        description="recognize leaf-pair maps explained by edge-labeled trees",
    )
    parser.add_argument("--quiet", action="store_true", help="suppress informational output")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("recognize", help="decide tree-likeness, emit the least-resolved tree")
    p.add_argument("map", help=".fm file ('-' for stdin)")
    p.add_argument("-o", "--output", default=None, help="write the tree here")
    p.add_argument("--report", choices=("json", "text"), default="text")
    p.set_defaults(func=_cmd_recognize)

    p = sub.add_parser("evaluate", help="compute the map a labeled tree explains")
    p.add_argument("tree", help=".lnw file ('-' for stdin)")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("check", help="does the tree explain the map?")
    p.add_argument("tree")
    p.add_argument("map")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("triples", help="informative triples of a map")
    p.add_argument("map")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_triples)

    p = sub.add_parser("aho", help="BUILD a tree displaying the given triples")
    p.add_argument("triples", help="file with one 'a b | c' per line")
    p.add_argument("--leaves", required=True, help="comma-separated leaf set")
    p.set_defaults(func=_cmd_aho)

    p = sub.add_parser("gen-random", help="emit a seeded random instance")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--leaves", type=int, required=True)
    p.add_argument("--symbols", type=int, required=True)
    p.add_argument("-o-prefix", "--o-prefix", dest="o_prefix", default="instance")
    p.set_defaults(func=_cmd_gen_random)

    p = sub.add_parser("oracle-verify", help="compare recognizer against brute force")
    p.add_argument("--leaves", type=int, required=True)
    p.add_argument("--symbols", type=int, required=True)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--exhaustive", action="store_true")
    mode.add_argument("--samples", type=_positive_int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_oracle_verify)

    p = sub.add_parser("bench", help="median wall time of recognize()")
    p.add_argument("--leaves", type=int, required=True)
    p.add_argument("--symbols", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--repeat", type=_positive_int, default=20)
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on bad flags, 0 on --help/--version
        return int(e.code or 0)
    try:
        return args.func(args)
    except (FitchError, OSError, UnicodeDecodeError) as e:
        sys.stderr.write(f"error: {e}\n")
        return 2


def entry() -> None:
    sys.exit(main())
