import pickle
from array import array
import random
import re
from pathlib import Path

import pytest

import fitchmap.core
from conftest import code_rows, column_reference, random_code_map
from fitchmap.core import (
    NO_EVENT,
    DuplicateLeaf,
    DuplicateLeafName,
    FitchMap,
    InvalidToken,
    LabeledTree,
    MissingEntry,
    NoEvent,
    NonPhylogenetic,
    QuasiPartition,
    ReflexiveEntry,
    ReservedToken,
    RootedTriple,
    TooFewLeaves,
    TreeBuilder,
    TripleSet,
    UnknownLeaf,
    make_fitch_map,
)
from fitchmap.generalized import compute_classes


def test_no_event_is_a_singleton():
    assert NoEvent() is NO_EVENT
    assert pickle.loads(pickle.dumps(NO_EVENT)) is NO_EVENT
    assert NO_EVENT != "-"


class TestMakeFitchMap:
    def test_all_no_event_map_has_empty_alphabet(self):
        m = make_fitch_map(["a", "b"], {("a", "b"): NO_EVENT, ("b", "a"): NO_EVENT})
        assert m.alphabet == ()
        assert m.label("a", "b") is NO_EVENT

    def test_smallest_nontrivial_map(self):
        m = make_fitch_map(["a", "b"], {("a", "b"): "1", ("b", "a"): NO_EVENT})
        assert m.alphabet == ("1",)
        assert m.label("a", "b") == "1"
        assert m.label("b", "a") is NO_EVENT

    def test_missing_entry(self):
        with pytest.raises(MissingEntry):
            make_fitch_map(["a", "b"], {("a", "b"): NO_EVENT})

    def test_alphabet_is_normalized_to_witnessed_symbols(self):
        m = make_fitch_map(
            ["a", "b", "c"],
            {
                ("a", "b"): "7",
                ("b", "a"): NO_EVENT,
                ("a", "c"): "7",
                ("c", "a"): NO_EVENT,
                ("b", "c"): "7",
                ("c", "b"): NO_EVENT,
            },
        )
        assert m.alphabet == ("7",)

    def test_duplicate_leaf(self):
        with pytest.raises(DuplicateLeaf):
            make_fitch_map(["a", "a"], {})

    def test_reflexive_entry(self):
        with pytest.raises(ReflexiveEntry):
            make_fitch_map(
                ["a", "b"],
                {("a", "b"): NO_EVENT, ("b", "a"): NO_EVENT, ("a", "a"): "1"},
            )

    def test_single_leaf_rejected(self):
        with pytest.raises(TooFewLeaves):
            make_fitch_map(["a"], {})

    def test_unknown_leaf_in_entries(self):
        with pytest.raises(UnknownLeaf):
            make_fitch_map(["a", "b"], {("a", "z"): "1", ("a", "b"): "1", ("b", "a"): "1"})

    def test_reserved_symbol_rejected(self):
        with pytest.raises(ReservedToken):
            make_fitch_map(["a", "b"], {("a", "b"): "-", ("b", "a"): NO_EVENT})

    def test_whitespace_symbol_rejected(self):
        with pytest.raises(InvalidToken):
            make_fitch_map(["a", "b"], {("a", "b"): "x y", ("b", "a"): NO_EVENT})

    def test_equality_independent_of_leaf_order(self):
        entries = {("a", "b"): "1", ("b", "a"): NO_EVENT}
        m1 = make_fitch_map(["a", "b"], entries)
        m2 = make_fitch_map(["b", "a"], entries)
        assert m1 == m2
        m3 = make_fitch_map(["a", "b"], {("a", "b"): NO_EVENT, ("b", "a"): "1"})
        assert m1 != m3


class TestRootedTriple:
    def test_cherry_is_unordered(self):
        assert RootedTriple("a", "b", "c") == RootedTriple("b", "a", "c")
        assert hash(RootedTriple("a", "b", "c")) == hash(RootedTriple("b", "a", "c"))

    def test_outgroup_matters(self):
        assert RootedTriple("a", "b", "c") != RootedTriple("a", "c", "b")

    def test_distinctness_required(self):
        with pytest.raises(Exception):
            RootedTriple("a", "a", "b")

    def test_triple_set_universe(self):
        ts = TripleSet([RootedTriple("a", "b", "c"), RootedTriple("a", "d", "e")])
        assert ts.leaves == frozenset("abcde")
        assert len(TripleSet()) == 0


class TestLabeledTree:
    def test_build_and_repr(self):
        t = LabeledTree.build(
            (((("a", NO_EVENT), ("b", "2")), "2"), ("c", NO_EVENT))
        )
        assert t.leaf_names == ("a", "b", "c")
        assert t.n_vertices == 5
        assert repr(t) == "<LabeledTree ((a:-,b:2):2,c:-);>"

    def test_single_child_root_rejected(self):
        with pytest.raises(NonPhylogenetic):
            LabeledTree([None, 0, 1, 1], [None, NO_EVENT, NO_EVENT, NO_EVENT], {2: "a", 3: "b"})

    def test_degree_two_inner_vertex_rejected(self):
        # root -> u -> (a); root -> b
        with pytest.raises(NonPhylogenetic):
            LabeledTree(
                [None, 0, 1, 0],
                [None, NO_EVENT, NO_EVENT, NO_EVENT],
                {2: "a", 3: "b"},
            )

    @pytest.mark.parametrize(
        "parents, names",
        [
            ([None, 0, 0, 4, 3], {1: "a", 2: "b"}),  # 3 and 4 are each other's parent
            ([None, 0, 0, 3, 4, 4], {1: "a", 2: "b", 5: "c"}),  # 3 and 4 are their own
        ],
    )
    def test_parent_cycle_rejected(self, parents, names):
        labels = [None] + [NO_EVENT] * (len(parents) - 1)
        with pytest.raises(NonPhylogenetic, match="^tree is disconnected$"):
            LabeledTree(parents, labels, names)

    @pytest.mark.parametrize(
        "parents, labels, names, error, message",
        [
            ([None, 0, 0], [None, "1"], {1: "a", 2: "b"},
             ValueError, "parents and labels must have equal length"),
            ([2, 0, 0], [None] * 3, {1: "a", 2: "b"},
             NonPhylogenetic, "tree must have exactly one root, found 0"),
            ([None, None, 0, 0], [None] * 4, {1: "a", 2: "b", 3: "c"},
             NonPhylogenetic, "tree must have exactly one root, found 2"),
            ([None, 0, 5], [None] * 3, {1: "a", 2: "b"},
             NonPhylogenetic, "vertex 2 has out-of-range parent 5"),
            ([None, 0, 0], [None] * 3, {1: "a"},
             NonPhylogenetic, "leaf_name must be a bijection on the leaf vertices"),
            ([None, 0, 0], [None] * 3, {0: "r", 1: "a", 2: "b"},
             NonPhylogenetic, "leaf_name must be a bijection on the leaf vertices"),
        ],
    )
    def test_constructor_errors(self, parents, labels, names, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$") as info:
            LabeledTree(parents, labels, names)
        assert info.type is error

    def test_duplicate_leaf_names_rejected(self):
        with pytest.raises(DuplicateLeafName):
            LabeledTree.build((("a", NO_EVENT), ("a", "1")))

    def test_single_leaf_needs_explicit_constructor(self):
        with pytest.raises(NonPhylogenetic):
            LabeledTree([None], [None], {0: "a"})
        t = LabeledTree.single_leaf("a")
        assert not t.is_phylogenetic
        assert t.leaf_names == ("a",)

    def test_canonical_child_order(self):
        t1 = LabeledTree.build((("b", "1"), ("a", NO_EVENT), ("c", "1")))
        t2 = LabeledTree.build((("c", "1"), ("a", NO_EVENT), ("b", "1")))
        assert t1 == t2
        assert t1.leaf_names == ("a", "b", "c")

    def test_equality_covers_labels(self):
        t1 = LabeledTree.build((("a", "1"), ("b", NO_EVENT)))
        t2 = LabeledTree.build((("a", NO_EVENT), ("b", "1")))
        assert t1 != t2
        assert t1.same_topology(t2)

    def test_clusters_and_spans(self):
        t = LabeledTree.build(
            (((("a", NO_EVENT), ("b", "2")), "2"), ("c", NO_EVENT))
        )
        assert t.clusters() == frozenset(
            frozenset(x) for x in ({"a"}, {"b"}, {"c"}, {"a", "b"}, {"a", "b", "c"})
        )
        lo, hi = t.span(t.root)
        assert (lo, hi) == (0, t.n_leaves)

    def test_with_labels_keeps_topology(self):
        t = LabeledTree.build((("a", NO_EVENT), ("b", "1")))
        relabeled = t.with_labels([None, "1", "1"])
        assert relabeled.same_topology(t)
        assert relabeled.label(t.vertex_of("a")) == "1"

    @pytest.mark.parametrize("label", ["x y", 5, "", "-", None])
    def test_with_labels_validates_labels(self, label):
        # each would be written as a tree that read_tree rejects, or
        # evaluate to a map whose alphabet is not a set of symbols
        t = LabeledTree.build((("a", NO_EVENT), ("b", "1")))
        with pytest.raises(InvalidToken):
            t.with_labels([None, label, NO_EVENT])

    def test_unknown_leaf(self):
        t = LabeledTree.build((("a", NO_EVENT), ("b", "1")))
        with pytest.raises(UnknownLeaf):
            t.vertex_of("z")

    def test_builder_graft_children(self):
        sub = LabeledTree.build((("a", NO_EVENT), ("b", "1")))
        b = TreeBuilder()
        root = b.root()
        inner = b.child(root, "2")
        b.graft_children(inner, sub)
        b.child(root, NO_EVENT, name="c")
        t = b.freeze()
        assert repr(t) == "<LabeledTree ((a:-,b:1):2,c:-);>"


class TestFitchMapFromRows:
    """FitchMap(leaves, alphabet, rows) with list rows checks what
    make_fitch_map checks of its input."""

    def test_valid_rows_build(self):
        fm = FitchMap(["a", "b", "c"], ("1", "2"), [[-1, 1, 0], [2, -1, 0], [2, 1, -1]])
        assert fm == make_fitch_map(
            ["a", "b", "c"],
            {("a", "b"): "1", ("a", "c"): NO_EVENT, ("b", "a"): "2",
             ("b", "c"): NO_EVENT, ("c", "a"): "2", ("c", "b"): "1"},
        )

    def test_ragged_rows(self):
        # four codes in all, as two leaves need, but not two rows of two
        with pytest.raises(ValueError):
            FitchMap(["a", "b"], ("1",), [[-1, 1, 0], [0]])

    @pytest.mark.parametrize("leaves, error", [
        (["a", "a"], DuplicateLeaf),
        (["a"], TooFewLeaves),
        (["a", "b c"], InvalidToken),
    ])
    def test_leaves(self, leaves, error):
        n = len(leaves)
        rows = [[-1 if i == j else 0 for j in range(n)] for i in range(n)]
        with pytest.raises(error):
            FitchMap(leaves, (), rows)

    @pytest.mark.parametrize("rows", [
        [[-1, 2], [1, -1]],   # past the alphabet
        [[-1, -2], [1, -1]],  # below the diagonal's -1
        [[-1, -1], [1, -1]],  # -1 off the diagonal
        [[0, 1], [1, -1]],    # no -1 on the diagonal
    ])
    def test_codes(self, rows):
        with pytest.raises(ValueError):
            FitchMap(["a", "b"], ("1",), rows)

    @pytest.mark.parametrize("alphabet, codes, error", [
        (("1", "2"), (1, 1), ValueError),  # "2" occurs in no entry
        (("1", "1"), (1, 2), ValueError),  # a symbol twice
        (("x y", "2"), (1, 2), InvalidToken),
        ((5, "2"), (1, 2), InvalidToken),
    ])
    def test_alphabet(self, alphabet, codes, error):
        with pytest.raises(error):
            FitchMap(["a", "b"], alphabet, [[-1, codes[0]], [codes[1], -1]])

    @pytest.mark.parametrize("leaves, codes, error", [
        (["a", "a"], [5, 5, 5, 5], DuplicateLeaf),  # a duplicate leaf
        (["a", "b"], [-1, 5, 1, -1], ValueError),   # a code past the alphabet
        (["a", "b"], [0, 1, 1, 0], ValueError),     # a diagonal of 0s
        (["a", "b"], [-1, 1, 1, -1], ValueError),   # even a well-formed one
    ])
    def test_flat_array_is_rejected(self, leaves, codes, error):
        """Only the package's builders hand over a ready code array."""
        with pytest.raises(error):
            FitchMap(leaves, ("x",), array("b", codes))


class TestQuasiPartition:
    def test_requires_no_event_class(self):
        with pytest.raises(ValueError):
            QuasiPartition({"1": {"a"}})

    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            QuasiPartition({NO_EVENT: {"a"}, "1": {"a"}})

    def test_two_empty_classes_rejected(self):
        with pytest.raises(ValueError):
            QuasiPartition({NO_EVENT: set(), "1": set(), "2": {"a"}})

    def test_class_lookup(self):
        qp = QuasiPartition({NO_EVENT: {"c"}, "1": {"a", "b"}})
        assert qp.class_of("a") == "1"
        assert qp.class_of("c") is NO_EVENT
        assert qp.universe == frozenset("abc")
        assert qp.members("1") == frozenset("ab")


class TestCodeMatrixAccessors:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_rows_and_columns_read_the_map(self, seed):
        fmap = random_code_map(random.Random(seed), 140, 2 * 140 - 2)
        rows = code_rows(fmap)
        assert max(map(max, rows)) > 255
        for i, x in enumerate(fmap.leaves):
            assert fmap._row(i)[i] == -1
            for j, y in enumerate(fmap.leaves):
                if i != j:
                    assert fmap.decode(fmap._row(i)[j]) == fmap.label(x, y)
        # the column scans against the transposed rows
        columns = [list(col) for col in zip(*rows)]
        targets = [random.Random(seed + x).choice(col) for x, col in enumerate(columns)]
        ins, eqs, lowest, symbols = column_reference(rows, targets)
        assert fmap._in_masks() == ins
        assert fmap._eq_masks(targets) == eqs
        assert fmap._lowest_in_codes(ins) == lowest
        assert lowest[:len(symbols)] == symbols
        # the first column with two symbols is the T1 leaf
        assert len(symbols) < fmap.n
        assert compute_classes(fmap).leaf == fmap.leaves[len(symbols)]

    @pytest.mark.parametrize("n, n_symbols, width", [
        *[(n, min(3, n * n - n), w) for n, w in zip(range(2, 10), (2, 1, 4, 1, 2, 1, 8, 1))],
        (64, 8, 8), (66, 8, 2), (67, 8, 1), (68, 8, 4), (72, 8, 8),
        # two-byte codes
        (140, 278, 8), (138, 274, 4), (137, 272, 2),
    ])
    def test_column_scans_at_every_piece_width(self, n, n_symbols, width):
        # the scans gather `width` bytes of a row at a time: the largest of
        # 8, 4, 2 and 1 that divides the row's bytes
        fmap = random_code_map(random.Random(n), n, n_symbols)
        row_bytes = n * fmap._row(0).itemsize
        assert width == max(w for w in (1, 2, 4, 8) if row_bytes % w == 0)
        rows = code_rows(fmap)
        rng = random.Random(-n)
        targets = [rng.choice(col) for col in zip(*rows)]
        ins, eqs, _, _ = column_reference(rows, targets)
        assert fmap._in_masks() == ins
        assert fmap._eq_masks(targets) == eqs

    def test_only_core_reads_the_code_matrix(self):
        # the storage of the code matrix is FitchMap's alone
        package = Path(fitchmap.core.__file__).parent
        hits = [
            f"{path.name}:{lineno}"
            for path in sorted(package.glob("*.py")) if path.name != "core.py"
            for lineno, line in enumerate(path.read_text().splitlines(), 1)
            if re.search(r"\._codes\b", line)
        ]
        assert hits == []
