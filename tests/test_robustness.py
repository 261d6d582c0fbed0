"""Hostile-shape and fuzzing checks that sit outside the acceptance
criteria: deep chains past the interpreter recursion limit, parser
behavior on corrupted inputs, the cost of .fm reading and writing, the
cost of a negative verdict and the cost of building a deep class's tree."""

import random
import statistics
import sys
import time

from conftest import caterpillar_digraph
from fitchmap.core import NO_EVENT, FitchError, FitchMap, LabeledTree
from fitchmap.evaluate import evaluate
from fitchmap.generalized import check_conditions, compute_classes, recognize
from fitchmap.io import read_map, read_tree, write_map, write_tree
from fitchmap.oracle import random_tree_like_instance, witness_holds
from fitchmap.simple_fitch import Digraph, _decompose, derive_forbidden_table, least_resolved_simple
from fitchmap.triples import aho_build
from fitchmap.treeops import triples_of


def caterpillar(depth: int) -> LabeledTree:
    parents = [None]
    labels = [None]
    names = {}
    cur = 0
    for i in range(depth):
        leaf = len(parents)
        parents.append(cur)
        labels.append(NO_EVENT)
        names[leaf] = f"z{i:05d}"
        nxt = len(parents)
        parents.append(cur)
        labels.append("1")
        if i < depth - 1:
            cur = nxt
        else:
            names[nxt] = f"zz{i:05d}"
    return LabeledTree(parents, labels, names)


class TestDeepChains:
    def test_all_surfaces_survive_past_recursion_limit(self):
        depth = sys.getrecursionlimit() + 200
        tree = caterpillar(depth)
        assert max(tree.depth(v) for v in range(tree.n_vertices)) >= depth

        tree.topology_key()
        text = write_tree(tree)
        assert read_tree(text) == tree

        fmap = evaluate(tree)
        report = recognize(fmap)
        assert report.tree_like and report.tree == tree

        g = Digraph(tree.leaf_names, fmap.event_arcs())
        assert least_resolved_simple(g) == tree

    def test_aho_on_deep_caterpillar_triples(self):
        tree = caterpillar(40)
        small = triples_of(tree)
        built = aho_build(small, tree.leaf_names)
        assert built.same_topology(tree)


class TestFiveLeafOracleSweep:
    """One scale beyond the exhaustive acceptance criterion: forward
    enumeration of every tree-like map on 5 leaves over two symbols."""

    def test_recognizer_matches_bulk_oracle_on_five_leaves(self):
        from fitchmap.core import FitchMap
        from fitchmap.oracle import enumerate_consistent_labelings, enumerate_topologies
        from fitchmap.treeops import displays
        from fitchmap.triples import identifies, informative_triples
        from fitchmap.triples import aho_build as build

        leaves = ["a", "b", "c", "d", "e"]
        order = sorted(leaves)
        code = {NO_EVENT: 0, "1": 1, "2": 2}

        truth: dict[tuple, list] = {}
        for topo in enumerate_topologies(leaves):
            for tree in enumerate_consistent_labelings(topo, ("1", "2")):
                truth.setdefault(evaluate(tree).encoding(order), []).append(tree)

        def map_from_enc(enc):
            present = sorted(
                {code[l] for row in enc for l in row if l is not None and l is not NO_EVENT}
            )
            remap = {0: 0}
            alphabet = []
            for new, old in enumerate(present, start=1):
                remap[old] = new
                alphabet.append(str(old))
            rows = [
                [-1 if i == j else remap[code[enc[i][j]]] for j in range(5)]
                for i in range(5)
            ]
            return FitchMap(order, tuple(alphabet), rows)

        for k, (enc, explainers) in enumerate(truth.items()):
            fmap = map_from_enc(enc)
            report = recognize(fmap)
            assert report.tree_like
            assert all(displays(t, report.tree) for t in explainers)
            if k % 17 == 0:
                itr = informative_triples(fmap)
                assert build(itr, fmap.leaves).same_topology(report.tree)
                assert identifies(itr, report.tree)

        rng = random.Random(99)
        labels = [NO_EVENT, "1", "2"]
        for _ in range(20000):
            enc = tuple(
                tuple(None if i == j else labels[rng.randrange(3)] for j in range(5))
                for i in range(5)
            )
            fmap = map_from_enc(enc)
            report = recognize(fmap)
            assert report.tree_like == (enc in truth)
            if not report.tree_like:
                assert witness_holds(fmap, report.reason)


def _mutate(text: str, rng: random.Random) -> str:
    kind = rng.randrange(4)
    if not text:
        return text
    pos = rng.randrange(len(text))
    glyph = rng.choice("ab12-.;:(),\t\n #x")
    if kind == 0:
        return text[:pos] + glyph + text[pos:]
    if kind == 1:
        return text[:pos] + text[pos + 1:]
    if kind == 2:
        return text[:pos] + glyph + text[pos + 1:]
    cut = rng.randrange(len(text))
    return text[:cut]


class TestParserFuzz:
    def test_map_reader_raises_only_domain_errors(self):
        rng = random.Random(314)
        _, fmap = random_tree_like_instance(1, 6, 2)
        base = write_map(fmap)
        for _ in range(3000):
            text = _mutate(base, rng)
            try:
                read_map(text)
            except FitchError:
                pass

    def test_tree_reader_raises_only_domain_errors(self):
        rng = random.Random(315)
        tree, _ = random_tree_like_instance(2, 6, 2)
        base = write_tree(tree)
        for _ in range(3000):
            text = _mutate(base, rng)
            try:
                read_tree(text)
            except FitchError:
                pass


def _io_medians(texts: dict, repeats: int):
    """Median read_map and write_map seconds per size, sizes interleaved so
    that drift of the host hits every size alike."""
    reads = {n: [] for n in texts}
    writes = {n: [] for n in texts}
    for _ in range(repeats):
        for n, text in texts.items():
            t0 = time.perf_counter()
            fmap = read_map(text)
            t1 = time.perf_counter()
            out = write_map(fmap)
            writes[n].append(time.perf_counter() - t1)
            reads[n].append(t1 - t0)
            assert out == text
    return (
        {n: statistics.median(ts) for n, ts in reads.items()},
        {n: statistics.median(ts) for n, ts in writes.items()},
    )


def _distinct_symbol_map(n: int) -> str:
    # fixed-width tokens, so doubling n exactly quadruples the input
    names = "\t".join(f"v{i:03d}" for i in range(n))
    rows = ["\t".join("." if i == j else f"s{i:03d}_{j:03d}" for j in range(n)) for i in range(n)]
    return "".join(line + "\n" for line in ["#fitchmap v1", names, *rows])


class TestMapIOCost:
    def test_tree_like_map_io_is_quadratic(self):
        """Doubling n at most quintuples the median read and write time
        (|M| = 8, 5 repeats), and reading n=1024 takes under 5 s."""
        texts = {n: write_map(random_tree_like_instance(60_000, n, 8)[1]) for n in (512, 1024)}
        reads, writes = _io_medians(texts, 5)
        assert reads[1024] < 5.0
        assert reads[1024] / reads[512] <= 5.0
        assert writes[1024] / writes[512] <= 5.0

    def test_distinct_symbol_map_io_is_quadratic(self):
        """A map whose every off-diagonal cell is its own symbol: n^2 tokens
        to check and an alphabet of n^2 - n symbols to sort."""
        reads, writes = _io_medians({n: _distinct_symbol_map(n) for n in (128, 256)}, 7)
        assert reads[256] / reads[128] <= 5.0
        assert writes[256] / writes[128] <= 5.0


LATE = 16


def _late_flip_t2_map(seed: int, n: int):
    """A single-symbol map with one in-class arc flipped between two of the
    last eight class members, and the triad the index-order scan of the
    class digraph must name; None when a forbidden triad the flip creates
    lies outside the last LATE members.

    The tree hangs a random single-symbol subtree on k = n - n/16 leaves
    below one symbol edge and the other leaves below the root, so the class
    is exactly the subtree's leaves, first in leaf order.  Only triads
    through both flipped leaves change, so a loop over the third vertex
    finds every forbidden one; the first triad in index order is the
    smallest sorted index triple among them.
    """
    rng = random.Random(seed)
    k = n - n // 16
    _, sub = random_tree_like_instance(seed, k, 1)
    rows = [row + [0] * (n - k) for row in sub._rows]
    rows += [[1] * k + [-1 if x == y else 0 for y in range(k, n)] for x in range(k, n)]
    x, y = rng.sample(range(k - 8, k), 2)
    rows[x][y] = 1 - rows[x][y]
    forbids = derive_forbidden_table()._is_forbidden

    def arc(a, b):
        return int(rows[a][b] > 0)

    bad = []
    for z in range(k):
        if z in (x, y):
            continue
        a, b, c = sorted((x, y, z))
        # bit order of the table's slots: ab, ac, ba, bc, ca, cb
        code = (arc(a, b) | arc(a, c) << 1 | arc(b, a) << 2
                | arc(b, c) << 3 | arc(c, a) << 4 | arc(c, b) << 5)
        if forbids[code]:
            bad.append((a, b, c))
    if not bad or min(min(t) for t in bad) < k - LATE:
        return None
    leaves = sub.leaves + tuple(f"Z{i:04d}" for i in range(n - k))
    return FitchMap(leaves, ("1",), rows), tuple(leaves[v] for v in min(bad))


class TestNegativeVerdictCost:
    def test_late_t2_witness_is_quadratic(self):
        """Late-flip T2 maps: doubling n at most quintuples the median
        recognize() time (5 maps per size, each map's best of 3 runs, sizes
        interleaved), n=1024 stays under 5 s, and the witness is the first
        forbidden triad."""
        maps = {n: [] for n in (512, 1024)}
        seed = 70_000
        for n, found in maps.items():
            while len(found) < 5:
                planted = _late_flip_t2_map(seed, n)
                seed += 1
                if planted is not None:
                    found.append(planted)
        best = {n: [float("inf")] * 5 for n in maps}
        for _ in range(3):
            for r in range(5):
                for n in maps:
                    fmap, triad = maps[n][r]
                    t0 = time.perf_counter()
                    report = recognize(fmap)
                    best[n][r] = min(best[n][r], time.perf_counter() - t0)
                    assert not report.tree_like
                    assert report.reason.kind == "T2" and report.reason.triad == triad
        medians = {n: statistics.median(ts) for n, ts in best.items()}
        assert medians[1024] < 5.0
        assert medians[1024] / medians[512] <= 5.0


def _late_flip_t3_map(seed: int, n: int):
    """A random tree-like map with the symbol dropped from one arc that
    enters the last member of the last symbol class from outside; the
    member keeps its class through its other arcs from outside."""
    rng = random.Random(seed)
    _, fm = random_tree_like_instance(seed, n, 8)
    members = compute_classes(fm).members(fm.alphabet[-1])
    x = max(map(fm._index.__getitem__, members))
    code = len(fm.alphabet)
    rows = [list(row) for row in fm._rows]
    sources = [y for y in range(n) if rows[y][x] == code and fm.leaves[y] not in members]
    rows[rng.choice(sources)][x] = 0
    return FitchMap(fm.leaves, fm.alphabet, rows)


class TestNegativeVerdictT3Cost:
    def test_late_t3_witness_is_quadratic(self):
        """Late-flip T3 maps: doubling n at most quintuples the median
        recognize() time (5 maps per size, each map's best of 3 runs, sizes
        interleaved), n=1024 stays under 5 s, and the witness is the one
        check_conditions() names and holds on the map."""
        maps = {n: [_late_flip_t3_map(80_000 + r, n) for r in range(5)] for n in (512, 1024)}
        best = {n: [float("inf")] * 5 for n in maps}
        for _ in range(3):
            for r in range(5):
                for n in maps:
                    fmap = maps[n][r]
                    t0 = time.perf_counter()
                    report = recognize(fmap)
                    best[n][r] = min(best[n][r], time.perf_counter() - t0)
                    assert not report.tree_like and report.reason.kind == "T3"
        for fmap in maps[512] + maps[1024]:
            reason = recognize(fmap).reason
            assert reason == check_conditions(fmap, compute_classes(fmap))
            assert witness_holds(fmap, reason)
        medians = {n: statistics.median(ts) for n, ts in best.items()}
        assert medians[1024] < 5.0
        assert medians[1024] / medians[512] <= 5.0


class TestDeepClassCost:
    def test_caterpillar_class_is_not_worse_than_quadratic(self):
        """A single-symbol class nested k deep: doubling k at most
        quintuples the best of 3 _decompose runs (sizes interleaved)."""
        graphs = {k: caterpillar_digraph(k) for k in (2048, 4096)}
        best = dict.fromkeys(graphs, float("inf"))
        for _ in range(3):
            for k, g in graphs.items():
                t0 = time.perf_counter()
                tree = _decompose(g, "1")
                best[k] = min(best[k], time.perf_counter() - t0)
                assert tree.n_leaves == k
                assert max(map(tree.depth, range(tree.n_vertices))) == k - 1
        assert best[4096] / best[2048] <= 5.0
