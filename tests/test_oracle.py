from itertools import product

import pytest

from fitchmap.core import NO_EVENT, LabeledTree, QuasiPartition, TooFewLeaves, make_fitch_map
from fitchmap.evaluate import evaluate, label_consistent
from fitchmap.generalized import (
    AlphabetTooLarge,
    T1Violation,
    T2Violation,
    T3Violation,
    T4Violation,
    check_conditions,
    recognize,
)
from fitchmap.io import write_map, write_tree
from fitchmap.oracle import (
    BudgetExceeded,
    TooManyLeaves,
    all_explainers,
    brute_force_tree_like,
    count_topologies,
    enumerate_consistent_labelings,
    enumerate_topologies,
    random_tree_like_instance,
    witness_holds,
)


class TestTopologyEnumeration:
    @pytest.mark.parametrize("n,count", [(2, 1), (3, 4), (4, 26), (5, 236), (6, 2752)])
    def test_counts_match_recurrence(self, n, count):
        # the recurrence is independent of the enumerator; 4 and 26 were
        # also checked by hand enumeration of the shapes
        assert count_topologies(n) == count
        names = [f"t{i}" for i in range(n)]
        assert sum(1 for _ in enumerate_topologies(names)) == count

    def test_no_duplicates_and_valid(self):
        names = list("abcde")
        seen = set()
        for t in enumerate_topologies(names):
            assert t.is_phylogenetic
            assert sorted(t.leaf_names) == names
            key = t.topology_key()
            assert key not in seen
            seen.add(key)

    def test_leaf_bounds(self):
        with pytest.raises(TooFewLeaves):
            list(enumerate_topologies(["a"]))
        with pytest.raises(TooManyLeaves):
            list(enumerate_topologies(list("abcdefgh")))


class TestConsistentLabelings:
    def test_two_leaf_tree_single_symbol(self):
        topo = LabeledTree.build((("a", NO_EVENT), ("b", NO_EVENT)))
        got = list(enumerate_consistent_labelings(topo, ("1",)))
        assert len(got) == 4

    def test_star_on_three_leaves_two_symbols(self):
        topo = LabeledTree.build(tuple((nm, NO_EVENT) for nm in "abc"))
        got = list(enumerate_consistent_labelings(topo, ("1", "2")))
        assert len(got) == 27

    def test_matches_filter_based_enumeration(self):
        # generator output == all labelings filtered by label_consistent
        topo = LabeledTree.build(
            (((("a", NO_EVENT), ("b", NO_EVENT)), NO_EVENT), ("c", NO_EVENT))
        )
        labels = (NO_EVENT, "1", "2")
        wanted = set()
        for combo in product(labels, repeat=topo.n_vertices - 1):
            t = topo.with_labels([None, *combo])
            if label_consistent(t):
                wanted.add(t)
        got = set(enumerate_consistent_labelings(topo, ("1", "2")))
        assert got == wanted

    def test_never_emits_conflicts(self):
        topo = next(iter(enumerate_topologies(list("abcde"))))
        for t in enumerate_consistent_labelings(topo, ("1", "2")):
            assert label_consistent(t)


class TestBruteForce:
    def test_all_no_event_finds_star(self):
        m = make_fitch_map(
            ["a", "b", "c"],
            {(x, y): NO_EVENT for x in "abc" for y in "abc" if x != y},
        )
        t = brute_force_tree_like(m)
        assert t is not None and t.same_topology(
            LabeledTree.build(tuple((nm, NO_EVENT) for nm in "abc"))
        )

    def test_t1_violating_map_has_no_explainer(self):
        m = make_fitch_map(
            ["a", "b", "c"],
            {
                ("a", "c"): "1",
                ("b", "c"): "2",
                ("c", "a"): NO_EVENT,
                ("c", "b"): NO_EVENT,
                ("a", "b"): NO_EVENT,
                ("b", "a"): NO_EVENT,
            },
        )
        assert brute_force_tree_like(m) is None

    def test_evaluated_trees_are_found(self):
        for seed in range(10):
            tree, fm = random_tree_like_instance(seed, 5, 2)
            found = brute_force_tree_like(fm)
            assert found is not None
            assert evaluate(found) == fm

    def test_budget_guard(self):
        names = [f"x{i}" for i in range(6)]
        m = make_fitch_map(
            names, {(x, y): NO_EVENT for x in names for y in names if x != y}
        )
        with pytest.raises(BudgetExceeded):
            brute_force_tree_like(m)

    def test_bulk_enumeration_agrees_with_search(self, rng):
        leaves = ["a", "b", "c", "d"]
        truth = all_explainers(leaves, ["1", "2"])
        pairs = [(x, y) for x in leaves for y in leaves if x != y]
        labels = [NO_EVENT, "1", "2"]
        order = sorted(leaves)
        for _ in range(150):
            combo = [labels[rng.randrange(3)] for _ in pairs]
            m = make_fitch_map(leaves, dict(zip(pairs, combo)))
            found = brute_force_tree_like(m)
            assert (found is not None) == (m.encoding(order) in truth)


class TestMinimality:
    def test_no_smaller_explainer_than_recognizer_output(self):
        # enumeration is size-ascending, so the first brute-force hit is a
        # minimum-vertex explainer
        from fitchmap.generalized import recognize

        for seed in range(60):
            _, fm = random_tree_like_instance(seed, 3 + seed % 3, 1 + seed % 2)
            tstar = recognize(fm).tree
            found = brute_force_tree_like(fm)
            assert found is not None
            assert found.n_vertices == tstar.n_vertices


class TestRandomInstances:
    def test_same_seed_bit_identical(self):
        a_tree, a_map = random_tree_like_instance(42, 17, 4)
        b_tree, b_map = random_tree_like_instance(42, 17, 4)
        assert a_tree == b_tree and a_map == b_map
        assert write_tree(a_tree) == write_tree(b_tree)
        assert write_map(a_map) == write_map(b_map)

    def test_different_seeds_differ(self):
        a_tree, _ = random_tree_like_instance(1, 17, 4)
        b_tree, _ = random_tree_like_instance(2, 17, 4)
        assert a_tree != b_tree

    def test_generator_soundness_large(self):
        tree, fm = random_tree_like_instance(7, 64, 6)
        assert tree.n_leaves == 64
        assert label_consistent(tree)
        assert evaluate(tree) == fm

    def test_two_leaves(self):
        tree, fm = random_tree_like_instance(3, 2, 1)
        assert tree.n_leaves == 2 and fm.n == 2


def _map(names, events):
    """Map on the names with the given event entries, NO_EVENT elsewhere."""
    entries = {(x, y): NO_EVENT for x in names for y in names if x != y}
    entries.update(events)
    return make_fitch_map(names, entries)


# one map per refutable kind, with the witness recognize() names for it
T1_MAP = _map("abc", {("a", "c"): "1", ("b", "c"): "2"})
# class of m is {a, b, c}, whose only internal arc a->b is a forbidden triad
T2_MAP = _map("abcd", {("a", "b"): "m", ("d", "a"): "m", ("d", "b"): "m", ("d", "c"): "m"})
# x takes 1 from z only, and the arc from y (class 2) into x carries NO_EVENT
T3_MAP = _map("xyz", {("z", "x"): "1", ("x", "y"): "2", ("z", "y"): "2"})
TOO_LARGE_MAP = _map("abc", {(x, y): str(i) for i, (x, y) in enumerate(
    [(x, y) for x in "abc" for y in "abc" if x != y], start=1)})


class TestWitnessHolds:
    def test_recognizer_witnesses_hold(self):
        expected = [
            (TOO_LARGE_MAP, AlphabetTooLarge(size=6, limit=4)),
            (T1_MAP, T1Violation(leaf="c", symbols=("1", "2"))),
            (T2_MAP, T2Violation(symbol="m", triad=("a", "b", "c"))),
            (T3_MAP, T3Violation(x="x", y="y", expected="1", found=NO_EVENT)),
        ]
        for fmap, witness in expected:
            assert recognize(fmap).reason == witness
            assert witness_holds(fmap, witness)

    def test_forged_witnesses_fail(self):
        forged = [
            (TOO_LARGE_MAP, AlphabetTooLarge(size=6, limit=6)),
            (TOO_LARGE_MAP, AlphabetTooLarge(size=5, limit=4)),
            (T1_MAP, AlphabetTooLarge(size=2, limit=1)),
            (T1_MAP, T1Violation(leaf="b", symbols=("1", "2"))),
            (T1_MAP, T1Violation(leaf="c", symbols=("1",))),
            (T1_MAP, T1Violation(leaf="c", symbols=("1", "2", "3"))),
            (T1_MAP, T1Violation(leaf="c", symbols=("1", "1"))),
            (T1_MAP, T1Violation(leaf="q", symbols=("1", "2"))),
            # d is outside the class of m
            (T2_MAP, T2Violation(symbol="m", triad=("a", "b", "d"))),
            (T2_MAP, T2Violation(symbol="m", triad=("a", "b", "b"))),
            (T2_MAP, T2Violation(symbol="m", triad=None)),
            (T2_MAP, T2Violation(symbol="n", triad=("a", "b", "c"))),
            # all six arcs inside {a, b, c}: a realizable triad
            (_map("abcd", {(x, y): "m" for x in "abcd" for y in "abc" if x != y}),
             T2Violation(symbol="m", triad=("a", "b", "c"))),
            (T3_MAP, T3Violation(x="x", y="z", expected="1", found="1")),
            (T3_MAP, T3Violation(x="x", y="y", expected="1", found="2")),
            (T3_MAP, T3Violation(x="y", y="x", expected="2", found=NO_EVENT)),
            (T3_MAP, T3Violation(x="x", y="x", expected="1", found=NO_EVENT)),
            (T3_MAP, T3Violation(x="x", y="w", expected="1", found=NO_EVENT)),
        ]
        for fmap, witness in forged:
            assert not witness_holds(fmap, witness), witness

    def test_t4_witness_from_forged_classes_fails(self):
        # check_conditions() names T4 only for classes that disagree with
        # the map; the entries show b takes 1, so the witness is not borne out
        m = _map("ab", {("a", "b"): "1"})
        witness = check_conditions(m, QuasiPartition({NO_EVENT: {"a", "b"}, "1": set()}))
        assert witness == T4Violation(x="b", y="a", found="1")
        assert not witness_holds(m, witness)
        assert not witness_holds(m, T4Violation(x="a", y="b", found="1"))
