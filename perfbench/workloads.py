"""The four workloads: what one timed call does and how its output is checked.

Each workload runs maps at a headline size and at a quarter of it, for
the scaling exponent; see README.md for why each was chosen.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import fitchmap.cli as cli
import fitchmap.generalized as generalized
from fitchmap import io

from inputs import (
    CheckFailed,
    TriadOracle,
    check_map_text,
    check_tree,
    check_witness,
    class_sizes,
    map_text,
    plant_t1,
    plant_t2,
    plant_t3,
    profiled_tree,
    tree_like_map,
    tree_text,
)

# cells of each written map compared against a label walk
SAMPLED_CELLS = 200
SMALL_PER_BIG = 2
# at least two thirds T2, so the median map of a size is a T2 map
REJECT_KINDS = ("T2", "T2", "T1", "T2", "T2", "T3")


@dataclass
class Context:
    workdir: Path
    triads: TriadOracle


class RecognizeFile:
    """``fitchmap recognize map.fm -o tree.lnw`` through ``cli.main``."""

    def __init__(self, rng, n, i, ctx):
        self.n = n
        self.fmap = tree_like_map(rng, n)
        self.src = str(ctx.workdir / f"rf-{n}-{i}.fm")
        self.dst = str(ctx.workdir / f"rf-{n}-{i}.lnw")
        Path(self.src).write_text(map_text(self.fmap), encoding="utf-8")
        self.first = None

    def run(self):
        return cli.main(["recognize", self.src, "-o", self.dst])

    def check(self, code):
        if code != 0:
            raise CheckFailed(f"recognize exited {code}")
        text = Path(self.dst).read_text(encoding="utf-8")
        if self.first is None:
            check_tree(io.read_tree(text), self.fmap)
            self.first = text
        elif text != self.first:
            raise CheckFailed("tree file differs from the first run's")


class EvaluateFile:
    """``fitchmap evaluate tree.lnw -o map.fm`` through ``cli.main``."""

    def __init__(self, rng, n, i, ctx):
        self.n = n
        self.tree = profiled_tree(rng, n, class_sizes(n))
        self.sample_seed = rng.randrange(1 << 30)
        self.src = str(ctx.workdir / f"ef-{n}-{i}.lnw")
        self.dst = str(ctx.workdir / f"ef-{n}-{i}.fm")
        Path(self.src).write_text(tree_text(self.tree), encoding="utf-8")
        self.digest = None

    def run(self):
        return cli.main(["evaluate", self.src, "-o", self.dst])

    def check(self, code):
        if code != 0:
            raise CheckFailed(f"evaluate exited {code}")
        data = Path(self.dst).read_bytes()
        digest = hashlib.sha256(data).hexdigest()
        if self.digest is None:
            check_map_text(data.decode("utf-8"), self.tree,
                           random.Random(self.sample_seed), SAMPLED_CELLS)
            self.digest = digest
        elif digest != self.digest:
            raise CheckFailed("map file bytes differ from the first run's")


class RecognizeMem:
    """In-memory ``recognize(fmap)`` on a tree-like map."""

    def __init__(self, rng, n, i, ctx):
        self.n = n
        self.fmap = tree_like_map(rng, n)
        self.tree = None

    def run(self):
        return generalized.recognize(self.fmap)

    def check(self, report):
        if not report.tree_like:
            raise CheckFailed(f"tree-like map reported {report.reason.kind}")
        if self.tree is None:
            check_tree(report.tree, self.fmap)
            self.tree = report.tree
        elif report.tree != self.tree:
            raise CheckFailed("tree differs from the first run's")


class Reject:
    """In-memory ``recognize(fmap)`` on a map with one planted violation."""

    def __init__(self, rng, n, i, ctx):
        self.n = n
        self.triads = ctx.triads
        kind = REJECT_KINDS[i % len(REJECT_KINDS)]
        if kind == "T2":
            self.fmap, self.planted = plant_t2(rng, n, ctx.triads)
        elif kind == "T1":
            self.fmap, self.planted = plant_t1(rng, n)
        else:
            self.fmap, self.planted = plant_t3(rng, n)

    def run(self):
        return generalized.recognize(self.fmap)

    def check(self, report):
        check_witness(report, self.fmap, self.planted, self.triads)


@dataclass(frozen=True)
class Workload:
    make: Callable
    small: int
    big: int
    pool: int  # distinct headline maps; twice as many small ones
    top: str   # span of the timed call


WORKLOADS = {
    "recognize-file": Workload(RecognizeFile, 64, 256, 6, "cli.main"),
    "evaluate-file": Workload(EvaluateFile, 512, 2048, 3, "cli.main"),
    "recognize-mem": Workload(RecognizeMem, 512, 2048, 4, "generalized.recognize"),
    "reject": Workload(Reject, 64, 256, 6, "generalized.recognize"),
}


def schedule(name: str, seed: int, ctx: Context) -> list:
    """Generate the workload's maps from the seed and order them for a run:
    each headline map is followed by SMALL_PER_BIG small ones."""
    w = WORKLOADS[name]
    rng = random.Random(f"{name}:{seed}")
    bigs = [w.make(rng, w.big, i, ctx) for i in range(w.pool)]
    smalls = [w.make(rng, w.small, i, ctx) for i in range(w.pool * SMALL_PER_BIG)]
    out = []
    for i, item in enumerate(bigs):
        out.append(item)
        out.extend(smalls[i * SMALL_PER_BIG:(i + 1) * SMALL_PER_BIG])
    return out
