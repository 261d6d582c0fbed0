"""Acceptance criteria, one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines; the full module is also part of the default suite.
"""

import random
import statistics
import time
from itertools import product

import pytest

from test_io import MALFORMED_MAPS, MALFORMED_TREES, random_map

from fitchmap.core import NO_EVENT, FitchMap, make_fitch_map
from fitchmap.evaluate import explains
from fitchmap.generalized import (
    is_least_resolved_general,
    recognize,
    recognize_no_otimes,
)
from fitchmap.io import ParseError, read_map, read_tree, write_map, write_tree
from fitchmap.oracle import (
    all_explainers,
    brute_force_tree_like,
    enumerate_consistent_labelings,
    random_tree_like_instance,
    witness_holds,
)
from fitchmap.simple_fitch import (
    Digraph,
    NotFitch,
    derive_forbidden_table,
    is_simple_fitch,
    least_resolved_simple,
)
from fitchmap.treeops import contract_edge, displays
from fitchmap.triples import (
    aho_build,
    derive_informative_patterns,
    identifies,
    informative_triples,
)

LEAVES4 = ["a", "b", "c", "d"]
PAIRS4 = [(x, y) for x in LEAVES4 for y in LEAVES4 if x != y]
CODE_OF = {NO_EVENT: 0, "1": 1, "2": 2}


def _map_from_codes(codes) -> FitchMap:
    """Lean FitchMap construction for the exhaustive sweep; the alphabet is
    normalized exactly as make_fitch_map would."""
    present = sorted(set(codes) - {0})
    remap = {0: 0}
    alphabet = []
    for new, old in enumerate(present, start=1):
        remap[old] = new
        alphabet.append(str(old))
    rows = [[-1] * 4 for _ in range(4)]
    it = iter(codes)
    for i in range(4):
        for j in range(4):
            if i != j:
                rows[i][j] = remap[next(it)]
    return FitchMap(LEAVES4, tuple(alphabet), rows)


def test_criterion_1_characterization_equivalence():
    """All 3^12 maps on 4 leaves, alphabet within {1, 2}: the recognizer
    verdict equals the exhaustive-search verdict on every single map.

    The search space (all topologies x consistent labelings) is enumerated
    once from the tree side; per-map brute_force_tree_like runs the same
    search map-by-map and is spot-checked against the bulk set here."""
    t0 = time.perf_counter()
    truth = all_explainers(LEAVES4, ["1", "2"])
    truth_codes = {
        tuple(
            CODE_OF[enc[i][j]]
            for i in range(4)
            for j in range(4)
            if i != j
        )
        for enc in truth
    }

    disagreements = 0
    tree_like = 0
    checked = 0
    for codes in product((0, 1, 2), repeat=12):
        fmap = _map_from_codes(codes)
        report = recognize(fmap)
        verdict = report.tree_like
        if verdict != (codes in truth_codes):
            disagreements += 1
        if not verdict:
            assert witness_holds(fmap, report.reason)
        tree_like += verdict
        checked += 1
    assert checked == 3**12 == 531_441

    # spot-check the bulk set against the per-map search
    rng = random.Random(1)
    for _ in range(300):
        codes = tuple(rng.randrange(3) for _ in range(12))
        fmap = _map_from_codes(codes)
        assert (brute_force_tree_like(fmap) is not None) == (codes in truth_codes)

    # every explainer of every tree-like map displays the recognizer tree
    order = sorted(LEAVES4)
    for enc, explainers in truth.items():
        fmap = _map_from_codes(
            tuple(CODE_OF[enc[i][j]] for i in range(4) for j in range(4) if i != j)
        )
        tstar = recognize(fmap).tree
        assert all(displays(t, tstar) for t in explainers)

    elapsed = time.perf_counter() - t0
    assert disagreements == 0
    assert elapsed < 600
    print(
        f"PASS criterion 1: 531441 maps, {tree_like} tree-like, "
        f"0 disagreements ({elapsed:.1f}s)"
    )


def test_criterion_2_round_trip_soundness():
    """1000 seeded instances, n in 2..64, symbols in 1..6: recognized
    tree-like, explains() passes, least-resolved, displayed by source."""
    t0 = time.perf_counter()
    for i in range(1000):
        n = 2 + (i * 7) % 63
        k = 1 + i % 6
        source, fmap = random_tree_like_instance(9000 + i, n, k)
        report = recognize(fmap)
        assert report.tree_like, (i, n, k)
        assert explains(report.tree, fmap)
        assert is_least_resolved_general(report.tree)
        assert displays(source, report.tree)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60
    print(f"PASS criterion 2: 1000/1000 instances sound ({elapsed:.1f}s)")


def test_criterion_3_uniqueness_via_triples():
    """200 seeded instances with n <= 7: BUILD on the informative triples
    reproduces the least-resolved topology, and the triples identify it."""
    t0 = time.perf_counter()
    for i in range(200):
        n = 2 + i % 6
        source, fmap = random_tree_like_instance(31000 + i, n, 1 + i % 3)
        tstar = recognize(fmap).tree
        itr = informative_triples(fmap)
        built = aho_build(itr, fmap.leaves)
        assert built.same_topology(tstar), (i, n)
        assert identifies(itr, tstar), (i, n)
    elapsed = time.perf_counter() - t0
    print(f"PASS criterion 3: 200/200 instances identified ({elapsed:.1f}s)")


def test_criterion_4_least_resolved_minimality():
    """500 sampled tree-like maps at n <= 5, |M| <= 2: no single inner-edge
    contraction admits any relabeling that still explains the map."""
    t0 = time.perf_counter()
    checked_maps = 0
    checked_contractions = 0
    for i in range(500):
        n = 4 + i % 2
        _, fmap = random_tree_like_instance(47000 + i, n, 1 + i % 2)
        tstar = recognize(fmap).tree
        checked_maps += 1
        for edge in tstar.inner_edges():
            contracted = contract_edge(tstar, edge)
            checked_contractions += 1
            for candidate in enumerate_consistent_labelings(contracted, fmap.alphabet):
                assert not explains(candidate, fmap), (i, edge)
    elapsed = time.perf_counter() - t0
    assert checked_maps >= 500
    print(
        f"PASS criterion 4: {checked_maps} maps, {checked_contractions} "
        f"contractions, none re-explainable ({elapsed:.1f}s)"
    )


def test_criterion_5_simple_fitch_consistency():
    """The derived tables have exactly 8 forbidden-triad classes and 6
    informative-pattern classes, and the two recognizers agree everywhere."""
    t0 = time.perf_counter()
    assert len(derive_forbidden_table()) == 8
    assert len(derive_informative_patterns()) == 6

    def constructive(g: Digraph) -> bool:
        try:
            least_resolved_simple(g)
            return True
        except NotFitch:
            return False

    slots4 = [(i, j) for i in range(4) for j in range(4) if i != j]
    for bits in range(1 << 12):
        arcs = [
            (LEAVES4[i], LEAVES4[j])
            for k, (i, j) in enumerate(slots4)
            if bits >> k & 1
        ]
        g = Digraph(LEAVES4, arcs)
        assert is_simple_fitch(g) == constructive(g)

    rng = random.Random(5)
    for _ in range(10_000):
        n = rng.randrange(2, 10)
        names = [f"v{i}" for i in range(n)]
        p = rng.random()
        arcs = [(x, y) for x in names for y in names if x != y and rng.random() < p]
        g = Digraph(names, arcs)
        assert is_simple_fitch(g) == constructive(g)
    elapsed = time.perf_counter() - t0
    print(
        "PASS criterion 5: tables 8/6, recognizers agree on 4096 exhaustive "
        f"+ 10000 random digraphs ({elapsed:.1f}s)"
    )


def test_criterion_6_quadratic_scaling():
    """Median recognize() time: ratio n=1024 vs n=512 at most 5.0, and the
    n=1024 median stays under 5 seconds (|M| = 8, 20 repeats)."""
    medians = {}
    for n in (512, 1024):
        times = []
        for r in range(20):
            _, fmap = random_tree_like_instance(60_000 + r, n, 8)
            t0 = time.perf_counter()
            report = recognize(fmap)
            times.append(time.perf_counter() - t0)
            assert report.tree_like
        medians[n] = statistics.median(times)
    ratio = medians[1024] / medians[512]
    assert medians[1024] < 5.0
    assert ratio <= 5.0
    print(
        f"PASS criterion 6: medians 512={medians[512]:.3f}s "
        f"1024={medians[1024]:.3f}s ratio={ratio:.2f}"
    )


def test_criterion_7_no_otimes_fast_path():
    """500 random maps without NO_EVENT entries (tree-like and mutated):
    the two recognizers give identical verdicts and topologies."""
    t0 = time.perf_counter()
    rng = random.Random(77)
    names = [f"x{i:02d}" for i in range(8)]
    agree = 0
    tree_like = 0
    for i in range(500):
        assignment = {nm: str(rng.randrange(1, 5)) for nm in names}
        entries = {
            (y, x): assignment[x] for x in names for y in names if x != y
        }
        if i % 2:
            for _ in range(rng.randrange(1, 4)):
                x = names[rng.randrange(len(names))]
                y = names[rng.randrange(len(names))]
                if x != y:
                    entries[(y, x)] = str(rng.randrange(1, 6))
        fmap = make_fitch_map(names, entries)
        fast = recognize_no_otimes(fmap)
        full = recognize(fmap)
        assert fast.tree_like == full.tree_like
        if fast.tree_like:
            assert fast.tree.same_topology(full.tree)
            tree_like += 1
        else:
            assert witness_holds(fmap, full.reason)
        agree += 1
    elapsed = time.perf_counter() - t0
    assert agree == 500
    print(
        f"PASS criterion 7: 500/500 agreements ({tree_like} tree-like, "
        f"{elapsed:.1f}s)"
    )


def test_criterion_8_io_fidelity():
    """Byte-exact round trips on 1000 random maps and trees, and the
    malformed corpus reports the documented positioned errors."""
    t0 = time.perf_counter()
    rng = random.Random(88)
    for i in range(500):
        fmap = random_map(rng, rng.randrange(2, 24), rng.randrange(0, 5))
        text = write_map(fmap)
        again = read_map(text)
        assert again == fmap and write_map(again) == text
    for i in range(500):
        tree, _ = random_tree_like_instance(70_000 + i, 2 + i % 30, 1 + i % 6)
        text = write_tree(tree)
        again = read_tree(text)
        assert again == tree and write_tree(again) == text

    corpus = len(MALFORMED_MAPS) + len(MALFORMED_TREES)
    assert corpus >= 20
    for text, exc, line, col in MALFORMED_MAPS:
        with pytest.raises(exc) as got:
            read_map(text)
        if line and isinstance(got.value, ParseError):
            assert (got.value.line, got.value.col) == (line, col)
    for text, exc, line, col in MALFORMED_TREES:
        with pytest.raises(exc) as got:
            read_tree(text)
        if line and isinstance(got.value, ParseError):
            assert (got.value.line, got.value.col) == (line, col)
    elapsed = time.perf_counter() - t0
    print(
        f"PASS criterion 8: 1000 round trips byte-exact, {corpus} malformed "
        f"inputs rejected with positions ({elapsed:.1f}s)"
    )
