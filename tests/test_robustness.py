"""Hostile-shape and fuzzing checks that sit outside the acceptance
criteria: deep chains past the interpreter recursion limit, parser
behavior on corrupted inputs, the cost of .fm reading and writing, the
memory of .fm reading and of .lnw writing, the cost of .lnw reading and
of locating its errors, the cost of a negative verdict, the cost of
building a deep class's tree, the cost of a column scan at a power-of-two
n, the cost of certifying a deep tree, the cost and memory of restriction
and display on a deep tree, the peak memory of the recognize and evaluate
commands, and the heap that the closure's topology cache keeps.

Every cost gate times its calls with conftest.median_seconds: one untimed
warm-up call per key, then the median of 5 interleaved samples, each
after a collection and each at least 20 ms long.  The checks on what
the calls return run once, outside the timed calls."""

import contextlib
import gc
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from conftest import caterpillar_digraph, code_rows, median_seconds
from fitchmap.cli import main
from fitchmap.core import NO_EVENT, FitchError, FitchMap, LabeledTree, RootedTriple, TripleSet
from fitchmap.evaluate import evaluate, explains
from fitchmap.generalized import check_conditions, compute_classes, recognize
from fitchmap.io import ParseError, read_map, read_tree, write_map, write_tree
from fitchmap.oracle import enumerate_consistent_labelings, random_tree_like_instance, witness_holds
from fitchmap.simple_fitch import Digraph, _decompose, derive_forbidden_table, least_resolved_simple
from fitchmap.triples import _indexed_triple_sets, aho_build, closure_small
from fitchmap.treeops import displays, restrict, triples_of


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
        assert tree.same_topology(read_tree(text))

        fmap = evaluate(tree)
        report = recognize(fmap)
        assert report.tree_like and report.tree == tree

        g = Digraph(tree.leaf_names, fmap.event_arcs())
        assert least_resolved_simple(g) == tree

    def test_build_survives_past_recursion_limit(self):
        depth = sys.getrecursionlimit() + 200
        spec = f"zz{depth - 1:05d}"
        for i in range(depth - 1, -1, -1):
            spec = ((f"z{i:05d}", NO_EVENT), (spec, "1"))
        assert LabeledTree.build(spec) == caterpillar(depth)

    def test_labelings_survive_past_recursion_limit(self):
        tree = caterpillar(sys.getrecursionlimit() + 200)
        labelings = enumerate_consistent_labelings(tree, ("1",))
        first = next(labelings)
        assert first.same_topology(tree)
        assert all(first.label(v) is NO_EVENT for v in range(1, first.n_vertices))
        # the last vertex varies fastest
        second = next(labelings)
        last = tree.n_vertices - 1
        assert [v for v in range(1, last + 1) if second.label(v) is not NO_EVENT] == [last]

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


def _map_io_medians(texts: dict) -> dict:
    """Median read_map and write_map seconds, keyed ("read", n) and
    ("write", n), once writing what was read gives each text back."""
    calls = {}
    for n, text in texts.items():
        fmap = read_map(text)
        assert write_map(fmap) == text
        calls["read", n] = lambda text=text: read_map(text)
        calls["write", n] = lambda fmap=fmap: write_map(fmap)
    return median_seconds(calls)


def _distinct_symbol_map(n: int) -> str:
    # fixed-width tokens, so doubling n exactly quadruples the input
    names = "\t".join(f"v{i:03d}" for i in range(n))
    rows = ["\t".join("." if i == j else f"s{i:03d}_{j:03d}" for j in range(n)) for i in range(n)]
    return "".join(line + "\n" for line in ["#fitchmap v1", names, *rows])


class TestMapIOCost:
    def test_tree_like_map_io_is_quadratic(self):
        """Doubling n at most quintuples the median read and write time
        (|M| = 8), and reading n=1024 takes under 5 s."""
        texts = {n: write_map(random_tree_like_instance(60_000, n, 8)[1]) for n in (512, 1024)}
        t = _map_io_medians(texts)
        assert t["read", 1024] < 5.0
        assert t["read", 1024] / t["read", 512] <= 5.0
        assert t["write", 1024] / t["write", 512] <= 5.0

    def test_distinct_symbol_map_io_is_quadratic(self):
        """A map whose every off-diagonal cell is its own symbol: n^2 tokens
        to check and an alphabet of n^2 - n symbols to sort."""
        t = _map_io_medians({n: _distinct_symbol_map(n) for n in (128, 256)})
        assert t["read", 256] / t["read", 128] <= 5.0
        assert t["write", 256] / t["write", 128] <= 5.0


class TestMapReaderMemory:
    def test_tree_like_map_read_is_compact(self):
        """Reading a tree-like n=1024, |M|=8 map keeps at most 1.5 MB, one
        byte per entry and the leaf names, and peaks at most 6 MB."""
        text = write_map(random_tree_like_instance(60_001, 1024, 8)[1])
        gc.collect()
        tracemalloc.start()
        try:
            fmap = read_map(text)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert fmap.n == 1024
        assert retained <= 1.5e6
        assert peak <= 6e6

    def test_missing_body_costs_no_code_array(self, tmp_path, capsys):
        """A header and 20,000 leaf names with no body raise ShapeError, from
        the library and from a command's file path, and peak at a few MB:
        far below the 400 MB code array such a map would need."""
        n = 20_000
        text = "#fitchmap v1\n" + "\t".join(f"x{i}" for i in range(n)) + "\n"
        path = tmp_path / "short.fm"
        path.write_text(text)
        gc.collect()
        tracemalloc.start()
        try:
            with pytest.raises(ParseError, match=f"expected {n} matrix rows, found 0"):
                read_map(text)
            assert main(["recognize", str(path)]) == 2
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert "expected 20000 matrix rows, found 0" in capsys.readouterr().err
        assert peak <= 8e6


class TestTreeWriterMemory:
    def test_deep_chain_text_peaks_linear(self):
        """Writing a 4096-deep caterpillar, 53 KB of text, peaks at most 1 MB:
        each subtree's text is dropped once its parent's text holds it."""
        tree = caterpillar(4096)
        gc.collect()
        tracemalloc.start()
        try:
            text = write_tree(tree)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(text) > 50_000
        assert peak <= 1e6



class TestTreeReaderCost:
    def test_read_and_error_location_are_linear(self):
        """Doubling n from 2048 to 4096 at most triples the median read of
        a caterpillar (a linear reader reads about 2, a quadratic one 4) and
        of a random tree (|M| = 8); a caterpillar whose only error is its
        last character, in place of the ';', raises in at most 1.5 times a
        valid read, so locating an error is linear too."""
        texts = {}
        for n in (2048, 4096):
            texts["caterpillar", n] = write_tree(caterpillar(n - 1))
            texts["random", n] = write_tree(random_tree_like_instance(60_002, n, 8)[0])
        error = texts["caterpillar", 4096][:-2] + "!\n"
        with pytest.raises(ParseError, match="expected ';', found '!'"):
            read_tree(error)

        def read_to_error():
            with contextlib.suppress(ParseError):
                read_tree(error)

        calls = {key: lambda text=text: read_tree(text) for key, text in texts.items()}
        calls["error"] = read_to_error
        medians = median_seconds(calls)
        for family in ("caterpillar", "random"):
            assert medians[family, 4096] / medians[family, 2048] <= 3.0
        assert medians["error"] <= 1.5 * medians["caterpillar", 4096]


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
    rows = [row + [0] * (n - k) for row in code_rows(sub)]
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
        """Late-flip T2 maps: doubling n at most quintuples the median time
        to recognize() 5 maps, those 5 at n=1024 take under 5 s, and each
        witness is the first forbidden triad."""
        maps = {n: [] for n in (512, 1024)}
        seed = 70_000
        for n, found in maps.items():
            while len(found) < 5:
                planted = _late_flip_t2_map(seed, n)
                seed += 1
                if planted is not None:
                    found.append(planted)
        for fmap, triad in maps[512] + maps[1024]:
            report = recognize(fmap)
            assert not report.tree_like
            assert report.reason.kind == "T2" and report.reason.triad == triad
        medians = median_seconds({
            n: lambda found=found: [recognize(fmap) for fmap, _ in found]
            for n, found in maps.items()
        })
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
    rows = code_rows(fm)
    sources = [y for y in range(n) if rows[y][x] == code and fm.leaves[y] not in members]
    rows[rng.choice(sources)][x] = 0
    return FitchMap(fm.leaves, fm.alphabet, rows)


class TestNegativeVerdictT3Cost:
    def test_late_t3_witness_is_quadratic(self):
        """Late-flip T3 maps: doubling n at most quintuples the median time
        to recognize() 5 maps, those 5 at n=1024 take under 5 s, and each
        witness is the one check_conditions() names and holds on the map."""
        maps = {n: [_late_flip_t3_map(80_000 + r, n) for r in range(5)] for n in (512, 1024)}
        for fmap in maps[512] + maps[1024]:
            report = recognize(fmap)
            assert not report.tree_like and report.reason.kind == "T3"
            assert report.reason == check_conditions(fmap, compute_classes(fmap))
            assert witness_holds(fmap, report.reason)
        medians = median_seconds({
            n: lambda found=found: [recognize(fmap) for fmap in found] for n, found in maps.items()
        })
        assert medians[1024] < 5.0
        assert medians[1024] / medians[512] <= 5.0


def _late_flip_t1_map(seed: int, n: int):
    """A random tree-like map with a second symbol on one arc into the last
    leaf, in map order, that has a class symbol, on a NO_EVENT arc if it has
    one: that leaf is the only T1 leaf, and the last column the class scan reads."""
    rng = random.Random(seed)
    _, fm = random_tree_like_instance(seed, n, 8)
    classes = compute_classes(fm)
    x = max(i for i, nm in enumerate(fm.leaves) if classes.class_of(nm) is not NO_EVENT)
    c = fm.alphabet.index(classes.class_of(fm.leaves[x])) + 1
    rows = code_rows(fm)
    others = [y for y in range(n) if y != x]
    y = rng.choice([y for y in others if rows[y][x] == 0] or others)
    rows[y][x] = rng.choice([d for d in range(1, len(fm.alphabet) + 1) if d != c])
    return FitchMap(fm.leaves, fm.alphabet, rows)


class TestNegativeVerdictT1Cost:
    def test_late_t1_witness_is_quadratic(self):
        """Late-flip T1 maps: doubling n at most quintuples the median time
        to recognize() 5 maps, those 5 at n=1024 take under 5 s, and each
        witness is the one compute_classes() names and holds on the map."""
        maps = {n: [_late_flip_t1_map(90_000 + r, n) for r in range(5)] for n in (512, 1024)}
        for fmap in maps[512] + maps[1024]:
            report = recognize(fmap)
            assert not report.tree_like and report.reason.kind == "T1"
            assert report.reason == compute_classes(fmap)
            assert witness_holds(fmap, report.reason)
        medians = median_seconds({
            n: lambda found=found: [recognize(fmap) for fmap in found] for n, found in maps.items()
        })
        assert medians[1024] < 5.0
        assert medians[1024] / medians[512] <= 5.0


class TestDeepClassCost:
    def test_caterpillar_class_is_not_worse_than_quadratic(self):
        """A single-symbol class nested k deep: doubling k at most
        quintuples the median _decompose time."""
        graphs = {k: caterpillar_digraph(k) for k in (2048, 4096)}
        for k, g in graphs.items():
            tree = _decompose(g, "1")
            assert tree.n_leaves == k
            assert max(map(tree.depth, range(tree.n_vertices))) == k - 1
        medians = median_seconds({k: lambda g=g: _decompose(g, "1") for k, g in graphs.items()})
        assert medians[4096] / medians[2048] <= 5.0


class TestPowerOfTwoColumnScan:
    def test_power_of_two_n_costs_what_its_neighbour_costs(self):
        """A row of 2048 bytes puts every entry of a column into the same
        few cache sets: _in_masks() on a tree-like n=2048 map costs at most
        1.4x per entry what it costs at n=2000."""
        maps = {n: random_tree_like_instance(7, n, 8)[1] for n in (2000, 2048)}
        medians = median_seconds({n: fmap._in_masks for n, fmap in maps.items()})
        per_entry = {n: t / (n * n) for n, t in medians.items()}
        assert per_entry[2048] / per_entry[2000] <= 1.4


class TestDepthIndependentCertificate:
    def test_caterpillar_costs_what_a_random_tree_costs(self):
        """The row template costs the same on any tree shape: explains() on a
        2048-leaf caterpillar takes at most 3x its time on a random tree of
        the same size, and doubling the caterpillar from 1024 to 2048 leaves
        at most quintuples the median evaluate() and explains()."""
        cases = {k: least_resolved_simple(caterpillar_digraph(k)) for k in (1024, 2048)}
        assert max(map(cases[2048].depth, range(cases[2048].n_vertices))) == 2047
        cases = {k: (tree, evaluate(tree)) for k, tree in cases.items()}
        cases["random"] = random_tree_like_instance(7, 2048, 8)
        calls = {}
        for case, (tree, fmap) in cases.items():
            assert explains(tree, fmap)
            calls[case, "explains"] = lambda tree=tree, fmap=fmap: explains(tree, fmap)
            calls[case, "evaluate"] = lambda tree=tree: evaluate(tree)
        medians = median_seconds(calls)
        assert medians[2048, "explains"] <= 3.0 * medians["random", "explains"]
        assert medians[2048, "evaluate"] / medians[1024, "evaluate"] <= 5.0
        assert medians[2048, "explains"] / medians[1024, "explains"] <= 5.0


class TestTreeOpsCost:
    def test_restrict_is_linear(self):
        """Restricting a caterpillar to all of its leaves: doubling n from
        2048 to 4096 at most triples the median (a linear walk reads about
        2, a quadratic one 4)."""
        trees = {n: caterpillar(n) for n in (2048, 4096)}
        for tree in trees.values():
            assert restrict(tree, tree.leaf_names) == tree
        medians = median_seconds({
            n: lambda tree=tree: restrict(tree, tree.leaf_names) for n, tree in trees.items()
        })
        assert medians[4096] / medians[2048] <= 3.0

    def test_displays_is_linear_and_compact(self):
        """displays(t, t) on a caterpillar: doubling n from 1024 to 2048 at
        most triples the median, and n = 2048 peaks at most 2 MB, as no
        cluster is built as a set."""
        trees = {n: caterpillar(n) for n in (1024, 2048)}
        medians = median_seconds({
            n: lambda tree=tree: displays(tree, tree) for n, tree in trees.items()
        })
        assert medians[2048] / medians[1024] <= 3.0
        gc.collect()
        tracemalloc.start()
        try:
            assert displays(trees[2048], trees[2048])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2e6


# spawns argv and prints its exit code and ru_maxrss (KiB on Linux) as the last line
_WAIT4 = ("import os, sys; pid = os.posix_spawn(sys.argv[1], sys.argv[1:], os.environ); "
          "_, status, usage = os.wait4(pid, 0); "
          "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)")


def _peak_rss(cwd: Path, *argv: str) -> int:
    """The peak RSS, in bytes, of `python -m fitchmap argv` in a fresh process.

    A small python process spawns and waits for it: a child's ru_maxrss is at
    least the RSS of the process it was spawned from, which in pytest
    exceeds the command's own peak."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    out = subprocess.run([sys.executable, "-c", _WAIT4, sys.executable, "-m", "fitchmap", *argv],
                         cwd=cwd, env=env, capture_output=True, text=True, check=True).stdout
    code, maxrss = map(int, out.splitlines()[-1].split())
    assert code == 0, argv
    return maxrss * 1024


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is read in KiB, as Linux gives it")
class TestCommandPeakMemory:
    def test_map_commands_peak_under_twice_the_code_array(self, tmp_path):
        """At n=2048, recognize and evaluate each peak at most 2 n^2 bytes,
        twice the one-byte code array, above `--version`: the .fm bytes
        stream between the file and the code array in blocks."""
        n = 2048
        assert main(["--quiet", "gen-random", "--seed", "11", "--leaves", str(n), "--symbols", "8",
                     "-o-prefix", str(tmp_path / "inst")]) == 0
        base = _peak_rss(tmp_path, "--version")
        for argv in (["recognize", "inst.fm", "-o", "out.lnw"], ["evaluate", "inst.lnw", "-o", "out.fm"]):
            assert _peak_rss(tmp_path, *argv) - base <= 2 * n * n, argv
        assert (tmp_path / "out.fm").read_bytes() == (tmp_path / "inst.fm").read_bytes()


class TestClosureHeap:
    def test_seven_leaf_closure_keeps_few_tracked_objects(self):
        """The closure's cache of the 39,208 topologies on 7 leaves holds one
        int of triples each, which the garbage collector does not track: one
        closure adds fewer than 1,000 objects to every full collection."""
        _indexed_triple_sets.cache_clear()
        gc.collect()
        before = len(gc.get_objects())
        triples = TripleSet([RootedTriple("a", "b", "c")])
        assert closure_small(triples, "abcdefg") == triples
        gc.collect()
        assert len(gc.get_objects()) - before < 1000
