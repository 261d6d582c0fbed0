import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import code_rows, naive_evaluate, random_labeling, reference_evaluate
from fitchmap.core import (
    NO_EVENT,
    FitchMap,
    LabelConflict,
    LabeledTree,
    LeafSetMismatch,
    NonPhylogenetic,
    make_fitch_map,
)
from fitchmap.evaluate import evaluate, explains, label_consistent
from fitchmap.generalized import compute_classes
from fitchmap.oracle import enumerate_topologies, random_tree_like_instance

EXAMPLE = LabeledTree.build(
    (((("a", NO_EVENT), ("b", "2")), "2"), ("c", NO_EVENT))
)


class TestEvaluate:
    def test_all_no_event_star(self):
        star = LabeledTree.build(tuple((nm, NO_EVENT) for nm in "abcd"))
        fm = evaluate(star)
        assert fm.alphabet == ()
        assert all(lab is NO_EVENT for _, lab in fm.pairs())

    def test_worked_example(self):
        fm = evaluate(EXAMPLE)
        expected = {
            ("a", "b"): "2",
            ("b", "a"): NO_EVENT,
            ("c", "a"): "2",
            ("c", "b"): "2",
            ("a", "c"): NO_EVENT,
            ("b", "c"): NO_EVENT,
        }
        for pair, lab in expected.items():
            got = fm.label(*pair)
            assert got == lab or got is lab

    def test_conflict_reports_witness_pair(self):
        bad = LabeledTree.build(
            (((("a", NO_EVENT), ("b", "1")), "2"), ("c", NO_EVENT))
        )
        with pytest.raises(LabelConflict) as exc:
            evaluate(bad)
        assert exc.value.witness == ("c", "b")
        assert tuple(exc.value.symbols) == ("1", "2")

    def test_single_leaf_rejected(self):
        with pytest.raises(NonPhylogenetic):
            evaluate(LabeledTree.single_leaf("a"))

    def test_agrees_with_naive_path_scan(self):
        for seed in range(25):
            tree, fm = random_tree_like_instance(seed, 11, 3)
            assert naive_evaluate(tree) == fm

    def test_every_edge_symbol_is_witnessed(self):
        for seed in range(25):
            tree, fm = random_tree_like_instance(seed, 13, 4)
            assert set(fm.alphabet) == set(tree.event_symbols())


TOPOLOGIES_5 = list(enumerate_topologies("abcde"))


class TestLabelConsistency:
    @given(st.integers(0, 10_000))
    @settings(max_examples=120, deadline=None)
    def test_equivalent_to_evaluate_success(self, seed):
        rng = random.Random(seed)
        topo = TOPOLOGIES_5[rng.randrange(len(TOPOLOGIES_5))]
        tree = random_labeling(topo, ["1", "2", "3"], rng)
        ok = label_consistent(tree)
        try:
            evaluate(tree)
            assert ok
        except LabelConflict:
            assert not ok

    def test_consistent_instances_pass(self):
        for seed in range(20):
            tree, _ = random_tree_like_instance(seed, 10, 3)
            assert label_consistent(tree)


class TestEvaluateInvariants:
    def test_pigeonhole_alphabet_bound(self):
        for seed in range(30):
            tree, fm = random_tree_like_instance(seed, 9, 6)
            assert len(fm.alphabet) <= 2 * fm.n - 2

    def test_class_structure_of_evaluated_maps(self):
        for seed in range(30):
            _, fm = random_tree_like_instance(seed, 9, 3)
            qp = compute_classes(fm)
            for m in fm.alphabet:
                members = qp.members(m)
                assert members
                for x in members:
                    for y in fm.leaves:
                        if y != x and y not in members:
                            assert fm.label(y, x) == m


class TestExplains:
    def test_recognizer_output_explains(self):
        from fitchmap.generalized import recognize

        for seed in range(10):
            _, fm = random_tree_like_instance(seed, 12, 3)
            rep = recognize(fm)
            assert rep.tree_like and explains(rep.tree, fm)

    def test_star_with_event_edge_differs_from_all_no_event(self):
        all_no_event = make_fitch_map(
            ["a", "b", "c"],
            {(x, y): NO_EVENT for x in "abc" for y in "abc" if x != y},
        )
        star = LabeledTree.build((("a", "1"), ("b", NO_EVENT), ("c", NO_EVENT)))
        assert not explains(star, all_no_event)

    def test_leaf_set_mismatch(self):
        fm = make_fitch_map(["a", "z"], {("a", "z"): NO_EVENT, ("z", "a"): NO_EVENT})
        with pytest.raises(LeafSetMismatch):
            explains(EXAMPLE, fm)

    def test_conflicting_tree_explains_nothing(self):
        bad = LabeledTree.build(
            (((("a", NO_EVENT), ("b", "1")), "2"), ("c", NO_EVENT))
        )
        fm = evaluate(EXAMPLE)
        assert set(bad.leaf_names) == set(fm.leaves)
        assert not explains(bad, fm)

    def test_reversed_leaf_order_with_one_entry_changed(self):
        fm = evaluate(EXAMPLE)
        entries = dict(fm.pairs())
        order = list(reversed(fm.leaves))
        assert explains(EXAMPLE, make_fitch_map(order, entries))
        assert entries[("b", "a")] is NO_EVENT
        entries[("b", "a")] = "2"
        changed = make_fitch_map(order, entries)
        assert changed.alphabet == fm.alphabet
        assert not explains(EXAMPLE, changed)

    def test_unsorted_alphabet_compares_by_symbol(self):
        tree = LabeledTree.build((("a", "1"), ("b", "2")))
        # code 1 is "2" and code 2 is "1" here, the reverse of evaluate's
        assert explains(tree, FitchMap(["a", "b"], ("2", "1"), [[-1, 1], [2, -1]]))
        assert not explains(tree, FitchMap(["a", "b"], ("2", "1"), [[-1, 2], [1, -1]]))

    @pytest.mark.parametrize("n", [2, 63, 64, 65, 129])
    def test_each_block_of_columns_is_compared(self, n):
        # explains() compares each leaf's whole row, its template indexed
        # in the shuffled map's order; the sizes straddle the 64-column
        # blocks evaluate() once filled, kept as edge cases of the template
        rng = random.Random(n)
        tree, fm = random_tree_like_instance(n, n, 3)
        entries = dict(fm.pairs())
        order = list(fm.leaves)
        rng.shuffle(order)
        assert explains(tree, make_fitch_map(order, entries))
        for y in (tree.leaf_names[0], tree.leaf_names[-1]):
            x = rng.choice([nm for nm in fm.leaves if nm != y])
            changed = dict(entries)
            changed[(x, y)] = next(lab for lab in (NO_EVENT, "1", "2") if lab != entries[(x, y)])
            assert not explains(tree, make_fitch_map(order, changed))

    def test_symbol_missing_from_the_map(self):
        tree = LabeledTree.build((("a", "1"), ("b", "2")))
        assert not explains(tree, FitchMap(["a", "b"], ("1",), [[-1, 1], [1, -1]]))
        assert not explains(tree, FitchMap(["a", "b"], ("2",), [[-1, 1], [1, -1]]))


def _outcome(evaluator, tree):
    """The exact rows evaluator builds, or the exact LabelConflict it raises."""
    try:
        fm = evaluator(tree)
    except LabelConflict as e:
        return ("conflict", str(e), e.witness, e.symbols)
    return ("map", fm.leaves, fm.alphabet, code_rows(fm))


def _shuffled(fm, rng, flip):
    """fm with its leaves and its alphabet in random order; with flip, one
    off-diagonal entry changed to another code."""
    perm = list(range(fm.n))
    rng.shuffle(perm)
    alphabet = list(fm.alphabet)
    rng.shuffle(alphabet)
    recode = {-1: -1, 0: 0, **{c + 1: alphabet.index(s) + 1 for c, s in enumerate(fm.alphabet)}}
    rows = [[recode[fm._row(i)[j]] for j in perm] for i in perm]
    if flip:
        i, j = rng.sample(range(fm.n), 2)
        rows[i][j] = rng.choice([c for c in range(len(alphabet) + 1) if c != rows[i][j]])
    return FitchMap([fm.leaves[i] for i in perm], alphabet, rows)


def _reference_explains(tree, fm):
    try:
        return reference_evaluate(tree) == fm
    except LabelConflict:
        return False


class TestRowTemplate:
    """evaluate()'s row template against the per-leaf root-path walker it
    replaced: identical rows, or the identical LabelConflict."""

    @pytest.mark.parametrize(
        "nested",
        [("a", ("b", ("c", ("d", "e")))), (("a", "b"), ("c", ("d", "e")))],
        ids=["caterpillar", "balanced"],
    )
    def test_every_labeling_of_a_five_leaf_shape(self, nested):
        def spec(node):
            return node if isinstance(node, str) else tuple((spec(c), NO_EVENT) for c in node)

        shape = LabeledTree.build(spec(nested))
        assert shape.n_vertices == 9
        conflicts = 0
        for labels in itertools.product([NO_EVENT, "1", "2"], repeat=8):
            tree = shape.with_labels((None, *labels))
            expected = _outcome(reference_evaluate, tree)
            assert _outcome(evaluate, tree) == expected
            conflicts += expected[0] == "conflict"
        assert 0 < conflicts < 3 ** 8

    def test_random_labelings_of_five_leaf_topologies(self):
        rng = random.Random(8)
        conflicts = 0
        for _ in range(2000):
            topo = TOPOLOGIES_5[rng.randrange(len(TOPOLOGIES_5))]
            tree = random_labeling(topo, ["1", "2", "3"], rng)
            expected = _outcome(reference_evaluate, tree)
            assert _outcome(evaluate, tree) == expected
            conflicts += expected[0] == "conflict"
        assert 0 < conflicts < 2000

    def test_large_trees_with_one_edge_relabelled(self):
        rng = random.Random(64)
        conflicts = explained = 0
        for seed in range(50):
            base, fm = random_tree_like_instance(seed, rng.randint(64, 300), 3)
            labels = [base.label(v) for v in range(base.n_vertices)]
            labels[rng.randrange(1, base.n_vertices)] = rng.choice([NO_EVENT, "1", "2", "3", "4"])
            tree = base.with_labels(labels)
            expected = _outcome(reference_evaluate, tree)
            assert _outcome(evaluate, tree) == expected
            conflicts += expected[0] == "conflict"
            # explains() indexes its template in the map's own leaf order
            maps = [_shuffled(fm, rng, flip=seed % 2)]
            if expected[0] == "map":
                maps.append(_shuffled(evaluate(tree), rng, flip=False))
                maps.append(_shuffled(evaluate(tree), rng, flip=True))
            for m in maps:
                verdict = explains(tree, m)
                assert verdict == _reference_explains(tree, m)
                explained += verdict
        assert 0 < conflicts < 50
        assert explained >= 50 - conflicts
