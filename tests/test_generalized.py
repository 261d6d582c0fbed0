import importlib
import random
from itertools import combinations, permutations, product

import pytest

import fitchmap.generalized
import fitchmap.simple_fitch
from fitchmap.core import (
    NO_EVENT,
    FitchMap,
    LabelConflict,
    LabeledTree,
    QuasiPartition,
    make_fitch_map,
)
from fitchmap.evaluate import evaluate, explains
from fitchmap.generalized import (
    AlphabetTooLarge,
    NotOtimesFree,
    T1Violation,
    T2Violation,
    T3Violation,
    T4Violation,
    assemble,
    check_conditions,
    compute_classes,
    is_least_resolved_general,
    recognize,
    recognize_no_otimes,
)
from fitchmap.oracle import random_tree_like_instance, witness_holds
from fitchmap.simple_fitch import Digraph, NotFitch

EXAMPLE_TREE = LabeledTree.build(
    (((("a", NO_EVENT), ("b", "2")), "2"), ("c", NO_EVENT))
)
EXAMPLE_MAP = evaluate(EXAMPLE_TREE)


def all_no_event_map(names):
    return make_fitch_map(
        names, {(x, y): NO_EVENT for x in names for y in names if x != y}
    )


def column_constant_map(assignment):
    names = sorted(assignment)
    return make_fitch_map(
        names,
        {(y, x): assignment[x] for x in names for y in names if x != y},
    )


def reference_class_digraph(fmap, member_idx):
    """The per-entry class digraph build that Digraph._from_code_rows
    replaced; the kernel must give exactly its vertices and masks."""
    rows = fmap._rows
    vs = tuple(fmap.leaves[i] for i in member_idx)
    rev = list(reversed(member_idx))
    out = []
    for gi in member_idx:
        row = rows[gi]
        out.append(int("".join("1" if row[gj] > 0 and gj != gi else "0" for gj in rev), 2))
    in_ = []
    for gj in member_idx:
        in_.append(int("".join("1" if rows[gi][gj] > 0 and gi != gj else "0" for gi in rev), 2))
    return Digraph._from_masks(vs, out, in_)


def random_code_map(rng, n, n_symbols):
    """Random code matrix over n leaves, every symbol code present."""
    codes = list(range(1, n_symbols + 1))
    p = rng.random()
    rows = [
        [-1 if i == j else (rng.choice(codes) if rng.random() < p else 0) for j in range(n)]
        for i in range(n)
    ]
    # surjectivity: each code once on the first off-diagonal cells
    cells = [(i, j) for i in range(n) for j in range(n) if i != j]
    for c, (i, j) in zip(codes, cells):
        rows[i][j] = c
    return FitchMap([f"L{i}" for i in range(n)], [f"s{c}" for c in codes], rows)


class TestClassDigraphKernel:
    """Digraph._from_code_rows, which builds every class digraph and the
    self-check's digraph, against the per-entry build it replaced."""

    @staticmethod
    def assert_matches(fmap, member_idx):
        got = Digraph._from_code_rows(fmap.leaves, fmap._rows, member_idx)
        want = reference_class_digraph(fmap, member_idx)
        assert (got.vertices, got._out, got._in) == (want.vertices, want._out, want._in)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_every_small_map_and_member_order(self, n):
        # every map on n leaves over one symbol; every member subset in
        # index order (as classes are) and the whole set in every order (as
        # the self-check may ask)
        names = [f"v{i}" for i in range(n)]
        cells = [(i, j) for i in range(n) for j in range(n) if i != j]
        orders = [list(c) for k in range(2, n) for c in combinations(range(n), k)]
        orders += [list(p) for p in permutations(range(n))]
        for bits in product((0, 1), repeat=len(cells)):
            rows = [[-1] * n for _ in range(n)]
            for (i, j), b in zip(cells, bits):
                rows[i][j] = b
            fmap = FitchMap(names, ("1",) if any(bits) else (), rows)
            for idx in orders:
                self.assert_matches(fmap, idx)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_interleaved_classes_around_word_sizes(self, seed):
        rng = random.Random(seed)
        sizes = (2, 63, 64, 65, 129)
        owner = [c for c, size in enumerate(sizes) for _ in range(size)]
        rng.shuffle(owner)
        fmap = random_code_map(rng, len(owner), 6)
        for c in range(len(sizes)):
            member_idx = [i for i, o in enumerate(owner) if o == c]
            self.assert_matches(fmap, member_idx)
            rng.shuffle(member_idx)
            self.assert_matches(fmap, member_idx)

    def test_codes_past_one_byte(self):
        rng = random.Random(7)
        n = 150
        fmap = random_code_map(rng, n, 2 * n - 2)
        assert max(map(max, fmap._rows)) > 255
        everyone = list(range(n))
        self.assert_matches(fmap, everyone)
        self.assert_matches(fmap, sorted(rng.sample(everyone, 70)))
        rng.shuffle(everyone)
        self.assert_matches(fmap, everyone)


class TestComputeClasses:
    def test_all_no_event(self):
        qp = compute_classes(all_no_event_map(["a", "b", "c"]))
        assert qp.members(NO_EVENT) == frozenset("abc")

    def test_worked_example(self):
        qp = compute_classes(EXAMPLE_MAP)
        assert qp.members("2") == frozenset("ab")
        assert qp.members(NO_EVENT) == frozenset("c")

    def test_two_incoming_symbols(self):
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
        got = compute_classes(m)
        assert got == T1Violation(leaf="c", symbols=("1", "2"))


class TestCheckConditions:
    def test_worked_example_passes(self):
        qp = compute_classes(EXAMPLE_MAP)
        assert check_conditions(EXAMPLE_MAP, qp) is None

    def test_t3_violation(self):
        # x gets 1 from z only, y gets 2, but y fails to point 1 at x
        m = make_fitch_map(
            ["x", "y", "z"],
            {
                ("z", "x"): "1",
                ("y", "x"): NO_EVENT,
                ("x", "y"): "2",
                ("z", "y"): "2",
                ("x", "z"): NO_EVENT,
                ("y", "z"): NO_EVENT,
            },
        )
        qp = compute_classes(m)
        assert isinstance(qp, QuasiPartition)
        got = check_conditions(m, qp)
        assert got == T3Violation(x="x", y="y", expected="1", found=NO_EVENT)

    def test_t2_violation_with_planted_triad(self):
        # class of 'm' is {a, b, c} with internal arcs {a->b}: forbidden
        names = ["a", "b", "c", "d"]
        entries = {(x, y): NO_EVENT for x in names for y in names if x != y}
        entries[("a", "b")] = "m"
        entries[("d", "a")] = entries[("d", "b")] = entries[("d", "c")] = "m"
        m = make_fitch_map(names, entries)
        qp = compute_classes(m)
        assert qp.members("m") == frozenset("abc")
        got = check_conditions(m, qp)
        assert isinstance(got, T2Violation)
        assert got.symbol == "m"
        assert got.triad == ("a", "b", "c")

    def test_t4_is_rechecked(self):
        # hand-built classes that disagree with the map exercise the T4 path
        m = make_fitch_map(
            ["a", "b"], {("a", "b"): "1", ("b", "a"): NO_EVENT}
        )
        forged = QuasiPartition({NO_EVENT: {"a", "b"}, "1": set()})
        got = check_conditions(m, forged)
        assert got == T4Violation(x="b", y="a", found="1")


class TestRecognize:
    def test_two_leaf_hand_trace(self):
        m = make_fitch_map(["a", "b"], {("a", "b"): "1", ("b", "a"): "2"})
        rep = recognize(m)
        assert rep.tree_like
        assert rep.tree == LabeledTree.build((("a", "2"), ("b", "1")))
        assert explains(rep.tree, m)

    def test_all_no_event_gives_star(self):
        rep = recognize(all_no_event_map(["a", "b", "c", "d"]))
        assert rep.tree_like
        assert rep.tree == LabeledTree.build(
            tuple((nm, NO_EVENT) for nm in "abcd")
        )

    def test_t1_violation_reported(self):
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
        rep = recognize(m)
        assert not rep.tree_like
        assert rep.reason == T1Violation(leaf="c", symbols=("1", "2"))
        assert rep.to_json()["reason"] == "T1"

    def test_alphabet_guard(self):
        # 6 distinct symbols on 3 leaves exceed 2n - 2 = 4
        names = ["a", "b", "c"]
        pairs = [(x, y) for x in names for y in names if x != y]
        m = make_fitch_map(names, {p: str(i + 1) for i, p in enumerate(pairs)})
        rep = recognize(m)
        assert rep.reason == AlphabetTooLarge(size=6, limit=4)

    def test_worked_example_round_trip(self):
        rep = recognize(EXAMPLE_MAP)
        assert rep.tree == EXAMPLE_TREE

    def test_arc_orientation_end_to_end(self):
        # ordered pair (a, b) carrying a symbol means the event lies on the
        # path toward b, so b hangs below the event edge
        m = make_fitch_map(["a", "b"], {("a", "b"): "1", ("b", "a"): NO_EVENT})
        rep = recognize(m)
        assert rep.tree == LabeledTree.build((("a", NO_EVENT), ("b", "1")))
        assert evaluate(rep.tree) == m


class TestAssemble:
    def test_worked_example_assembly(self):
        qp = compute_classes(EXAMPLE_MAP)
        assert assemble(EXAMPLE_MAP, qp) == EXAMPLE_TREE

    def test_single_complete_class_identifies_root(self):
        names = ["a", "b", "c"]
        m = make_fitch_map(
            names, {(x, y): "m" for x in names for y in names if x != y}
        )
        qp = compute_classes(m)
        t = assemble(m, qp)
        assert t == LabeledTree.build(tuple((nm, "m") for nm in names))

    def test_all_no_event_class(self):
        m = all_no_event_map(["a", "b", "c"])
        t = assemble(m, compute_classes(m))
        assert t == LabeledTree.build(tuple((nm, NO_EVENT) for nm in "abc"))

    def test_empty_class_hangs_nothing(self):
        # QuasiPartition allows one empty class; the class walk skips it
        m = make_fitch_map(["a", "b"], {("a", "b"): "1", ("b", "a"): NO_EVENT})
        forged = QuasiPartition({NO_EVENT: {"a", "b"}, "1": set()})
        t = assemble(m, forged)
        assert t == LabeledTree.build((("a", NO_EVENT), ("b", NO_EVENT)))
        assert not explains(t, m)
        assert check_conditions(m, forged) == T4Violation(x="b", y="a", found="1")

    def test_single_class_with_inner_structure(self):
        # X = X_1 with a non-star least-resolved tree: the class tree is
        # returned as-is (hanging it below an extra edge would leave a
        # single-child root)
        source = LabeledTree.build(
            (((("a", NO_EVENT), ("b", "1")), "1"), ("c", "1"))
        )
        m = evaluate(source)
        assert m.alphabet == ("1",)
        qp = compute_classes(m)
        assert qp.members(NO_EVENT) == frozenset()
        t = assemble(m, qp)
        assert explains(t, m)
        assert is_least_resolved_general(t)


class TestIsLeastResolvedGeneral:
    def test_star_is_least_resolved(self):
        assert is_least_resolved_general(
            LabeledTree.build((("a", "1"), ("b", "2"), ("c", NO_EVENT)))
        )

    def test_inner_no_event_edge_fails(self):
        t = LabeledTree.build(
            (((("a", NO_EVENT), ("b", "1")), NO_EVENT), ("c", NO_EVENT))
        )
        assert not is_least_resolved_general(t)

    def test_recognizer_outputs_pass(self):
        for seed in range(30):
            _, fm = random_tree_like_instance(seed, 10, 3)
            rep = recognize(fm)
            assert rep.tree_like
            assert is_least_resolved_general(rep.tree)

    def test_conflicting_tree_raises(self):
        bad = LabeledTree.build(
            (((("a", NO_EVENT), ("b", "1")), "2"), ("c", NO_EVENT))
        )
        with pytest.raises(LabelConflict):
            is_least_resolved_general(bad)


class TestRecognizeNoOtimes:
    def test_complete_single_symbol(self):
        names = ["a", "b", "c"]
        m = make_fitch_map(
            names, {(x, y): "m" for x in names for y in names if x != y}
        )
        rep = recognize_no_otimes(m)
        assert rep.tree_like
        assert rep.tree == LabeledTree.build(tuple((nm, "m") for nm in names))

    def test_rejects_maps_with_no_event(self):
        with pytest.raises(NotOtimesFree):
            recognize_no_otimes(EXAMPLE_MAP)

    def test_failing_t1(self):
        m = make_fitch_map(
            ["a", "b", "c"],
            {
                ("a", "c"): "1",
                ("b", "c"): "2",
                ("c", "a"): "1",
                ("c", "b"): "1",
                ("a", "b"): "1",
                ("b", "a"): "1",
            },
        )
        rep = recognize_no_otimes(m)
        assert not rep.tree_like
        assert isinstance(rep.reason, T1Violation)

    def test_agrees_with_recognize(self, rng):
        names = [f"x{i}" for i in range(6)]
        for trial in range(120):
            assignment = {nm: str(rng.randrange(1, 4)) for nm in names}
            m = column_constant_map(assignment)
            if trial % 2:
                # mutate one entry to another symbol; stays NO_EVENT-free
                entries = dict(m.pairs())
                pair = sorted(entries)[rng.randrange(len(entries))]
                entries[pair] = str(rng.randrange(1, 5))
                m = make_fitch_map(m.leaves, entries)
            fast = recognize_no_otimes(m)
            full = recognize(m)
            assert fast.tree_like == full.tree_like
            if fast.tree_like:
                assert fast.tree.same_topology(full.tree)


class TestSinglePipeline:
    def test_success_path_runs_no_diagnostics(self, monkeypatch):
        maps = [EXAMPLE_MAP] + [random_tree_like_instance(seed, 64, 4)[1] for seed in range(4)]
        maps.append(random_tree_like_instance(4, 130, 4)[1])
        expected = [recognize(m).tree for m in maps]
        assert expected[0] == EXAMPLE_TREE

        def diagnostic(*args, **kwargs):
            raise AssertionError("a diagnostic ran on a tree-like map")

        for name in ("check_conditions", "least_resolved_simple", "find_forbidden_triad"):
            monkeypatch.setattr(fitchmap.generalized, name, diagnostic)
        monkeypatch.setattr(fitchmap.simple_fitch, "evaluate", diagnostic)
        # the package re-exports evaluate(), which hides the module's name
        evaluate_module = importlib.import_module("fitchmap.evaluate")
        walked = []
        real_columns = evaluate_module._columns

        # evaluate() and explains() both walk the tree through _columns(),
        # one column per leaf position asked for
        def counting_columns(tree, alphabet, positions):
            positions = list(positions)
            walked.extend((tree, j) for j in positions)
            return real_columns(tree, alphabet, positions)

        monkeypatch.setattr(evaluate_module, "_columns", counting_columns)
        for m, tree in zip(maps, expected):
            walked.clear()
            assert recognize(m).tree == tree
            # the whole tree is evaluated exactly once, by the certificate
            assert sorted(walked) == [(tree, j) for j in range(tree.n_leaves)]

    def test_failure_witnesses_match_check_conditions(self, monkeypatch):
        rng = random.Random(311)
        dead_ends = uncertified = 0
        real_build = Digraph._from_code_rows
        real_decompose = fitchmap.generalized._decompose
        built, decomposed = [], []

        def counting_build(cls, names, rows, idx):
            built.append(tuple(idx))
            return real_build(names, rows, idx)

        def counting_decompose(g, symbol):
            decomposed.append(g.vertices)
            return real_decompose(g, symbol)

        def second_pipeline(*args, **kwargs):
            raise AssertionError("a negative verdict ran a second pipeline")

        # the triad scan derives its table once, through evaluate(); do that
        # before evaluate() is barred
        fitchmap.simple_fitch._pair_kernel()

        for seed in range(80):
            _, fm = random_tree_like_instance(seed, 3 + seed % 14, 3)
            entries = dict(fm.pairs())
            pair = sorted(entries)[rng.randrange(len(entries))]
            others = [lab for lab in (NO_EVENT, *fm.alphabet) if lab != entries[pair]]
            entries[pair] = others[rng.randrange(len(others))]
            m = make_fitch_map(fm.leaves, entries)
            classes = compute_classes(m)
            t1 = isinstance(classes, T1Violation)
            walked = 0 if t1 else sum(len(classes.members(s)) >= 2 for s in m.alphabet)
            built.clear()
            decomposed.clear()
            with monkeypatch.context() as mp:
                mp.setattr(Digraph, "_from_code_rows", classmethod(counting_build))
                mp.setattr(fitchmap.generalized, "_decompose", counting_decompose)
                for name in ("check_conditions", "least_resolved_simple"):
                    mp.setattr(fitchmap.generalized, name, second_pipeline)
                mp.setattr(fitchmap.simple_fitch, "evaluate", second_pipeline)
                report = recognize(m)
            # one walk over the classes: each digraph built and decomposed at most once
            assert len(set(built)) == len(built) <= walked
            assert len(set(decomposed)) == len(decomposed) <= walked
            if not report.tree_like:
                assert witness_holds(m, report.reason)
            if t1:
                continue
            assert report.reason == check_conditions(m, classes)
            try:
                if not explains(assemble(m, classes), m):
                    uncertified += 1
            except NotFitch:
                dead_ends += 1
        # both ways into the diagnostics are exercised
        assert dead_ends and uncertified
