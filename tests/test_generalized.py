import importlib
import random
from itertools import combinations, permutations, product

import pytest

import fitchmap.generalized
import fitchmap.simple_fitch
from conftest import code_rows, random_code_map
from fitchmap.core import (
    NO_EVENT,
    FitchMap,
    LabelConflict,
    LabeledTree,
    QuasiPartition,
    TreeBuilder,
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
    _class_codes,
    assemble,
    check_conditions,
    compute_classes,
    is_least_resolved_general,
    recognize,
    recognize_no_otimes,
)
from fitchmap.oracle import random_tree_like_instance, witness_holds
from fitchmap.simple_fitch import Digraph, NotFitch, _decompose, _gather

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
    """The class digraph built entry by entry; the mask gather
    simple_fitch._gather must give exactly its vertices and masks."""
    rows = code_rows(fmap)
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


def reference_assemble(fmap, classes):
    """The assembly that the one cluster walk replaced: a least-resolved
    tree per class, grafted under the root, below an extra symbol edge
    exactly when the class tree's root meets a NO_EVENT edge."""
    members = [[] for _ in range(len(fmap.alphabet) + 1)]
    for i, c in enumerate(_class_codes(fmap, classes)):
        members[c].append(i)
    builder = TreeBuilder()
    rho = builder.root()
    for m, idx in zip(fmap.alphabet, members[1:]):
        if len(idx) < 2:
            for i in idx:
                builder.child(rho, m, name=fmap.leaves[i])
            continue
        g = class_digraph(fmap, idx)
        try:
            t_m = _decompose(g, m)
        except NotFitch as exc:
            exc.symbol, exc.digraph = m, g
            raise
        if len(idx) == fmap.n:
            return t_m
        if any(t_m.label(c) is NO_EVENT for c in t_m.children(t_m.root)):
            builder.graft_children(builder.child(rho, m), t_m)
        else:
            builder.graft_children(rho, t_m)
    for i in members[0]:
        builder.child(rho, NO_EVENT, name=fmap.leaves[i])
    return builder.freeze()


def class_digraph(fmap, idx):
    """The digraph on the members idx as assemble() builds it, gathered
    from the map's in-masks."""
    return Digraph._from_masks(tuple(fmap.leaves[i] for i in idx), *_gather(fmap._in_masks(), fmap.n, idx))


def assembled(assemble_fn, fmap, classes):
    """The tree, or the failing class's (symbol, digraph) on NotFitch."""
    try:
        return assemble_fn(fmap, classes)
    except NotFitch as exc:
        return exc.symbol, exc.digraph


def reversed_alphabet(fmap):
    """The same map with its alphabet in reverse order, codes renumbered."""
    k = len(fmap.alphabet)
    recode = {-1: -1, 0: 0, **{c: k + 1 - c for c in range(1, k + 1)}}
    rows = [[recode[c] for c in row] for row in code_rows(fmap)]
    return FitchMap(fmap.leaves, fmap.alphabet[::-1], rows)


class TestClassDigraphKernel:
    """simple_fitch._gather, which builds every class digraph and the
    self-check's digraph from in-masks, against the per-entry build."""

    @staticmethod
    def assert_matches(fmap, member_idx):
        got = class_digraph(fmap, member_idx)
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
        assert max(map(max, code_rows(fmap))) > 255
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

    def test_forged_class_t4_text(self):
        # recognize() never names T4; only a forged partition reaches it
        m = make_fitch_map(["a", "b"], {("a", "b"): "1", ("b", "a"): NO_EVENT})
        forged = QuasiPartition({NO_EVENT: {"a", "b"}, "1": set()})
        assert check_conditions(m, forged).describe() == (
            "leaf 'b' is in the no-event class but arc ('a', 'b') carries '1'"
        )

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

    def test_class_symbol_missing_from_map(self):
        forged = QuasiPartition({NO_EVENT: {"c"}, "zz": {"a", "b"}})
        for fn in (assemble, check_conditions):
            with pytest.raises(ValueError, match="'zz'"):
                fn(EXAMPLE_MAP, forged)

    def test_class_leaf_missing_from_map(self):
        forged = QuasiPartition({NO_EVENT: {"c", "d"}, "2": {"a", "b"}})
        for fn in (assemble, check_conditions):
            with pytest.raises(ValueError, match="'d'"):
                fn(EXAMPLE_MAP, forged)


class TestAssembleMatchesReference:
    """assemble() builds the whole tree in one cluster walk; it must give
    the tree that the per-class assembly gave, or NotFitch naming the same
    class."""

    @staticmethod
    def check(fmap, classes=None):
        """Compare on fmap; returns the outcome, or None for a T1 map."""
        classes = compute_classes(fmap) if classes is None else classes
        if isinstance(classes, T1Violation):
            return None
        got = assembled(assemble, fmap, classes)
        assert got == assembled(reference_assemble, fmap, classes)
        return got

    def test_all_three_leaf_maps(self):
        names = ["a", "b", "c"]
        cells = [(x, y) for x in names for y in names if x != y]
        outcomes = []
        for labels in product((NO_EVENT, "1", "2"), repeat=len(cells)):
            m = make_fitch_map(names, dict(zip(cells, labels)))
            outcomes.append(self.check(m))
            for s in m.alphabet:
                # forged: one class holds every leaf
                outcomes.append(self.check(m, QuasiPartition({NO_EVENT: (), s: names})))
        assert sum(isinstance(o, LabeledTree) for o in outcomes) > 0
        assert sum(isinstance(o, tuple) for o in outcomes) > 0

    def test_random_and_mutated_maps(self):
        rng = random.Random(909)
        seen = {"tree": 0, "not-fitch": 0, "whole-map class": 0, "singleton class": 0}
        for seed in range(240):
            n_symbols = seed % 7
            _, fm = random_tree_like_instance(seed, rng.randrange(2, 25), n_symbols)
            maps = [fm]
            entries = dict(fm.pairs())
            for flips in (1, 2, 3):
                mutated = dict(entries)
                for pair in rng.sample(sorted(entries), min(flips, len(entries))):
                    mutated[pair] = rng.choice((NO_EVENT, *fm.alphabet))
                maps.append(make_fitch_map(fm.leaves, mutated))
            for m in maps + [reversed_alphabet(m) for m in maps]:
                classes = compute_classes(m)
                got = self.check(m, classes)
                if got is None:
                    continue
                seen["tree" if isinstance(got, LabeledTree) else "not-fitch"] += 1
                sizes = {len(members) for lab, members in classes.classes.items() if lab is not NO_EVENT}
                seen["whole-map class"] += m.n in sizes
                seen["singleton class"] += 1 in sizes
        assert min(seen.values()) >= 20, seen

    def test_whole_map_class(self):
        # one class holds every leaf of a tree-like map; forged classes can
        # also put a leaf without in-arcs into it, and that leaf owns X
        tree_like = evaluate(LabeledTree.build((((("a", NO_EVENT), ("b", "1")), "1"), ("c", "1"))))
        star = evaluate(LabeledTree.build((("a", NO_EVENT), ((("b", NO_EVENT), ("c", "1")), "1"))))
        assert isinstance(self.check(tree_like), LabeledTree)
        assert isinstance(self.check(star, QuasiPartition({NO_EVENT: (), "1": "abc"})), LabeledTree)

    def test_forged_empty_class(self):
        m = make_fitch_map(["a", "b"], {("a", "b"): "1", ("b", "a"): NO_EVENT})
        forged = QuasiPartition({NO_EVENT: {"a", "b"}, "1": set()})
        assert isinstance(self.check(m, forged), LabeledTree)

    def test_recognize_constructs_one_tree(self, monkeypatch):
        # several classes of two or more leaves, and NO_EVENT leaves
        _, m = random_tree_like_instance(5, 40, 4)
        sizes = [len(members) for members in compute_classes(m).classes.values()]
        assert sum(size >= 2 for size in sizes) >= 3
        real_init = LabeledTree.__init__
        made = []

        def counting_init(self, *args, **kwargs):
            made.append(1)
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(LabeledTree, "__init__", counting_init)
        assert recognize(m).tree_like
        assert len(made) == 1


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


def counting_column_scans(mp, calls):
    """Patch FitchMap's two column scans to append their names to calls.
    _in_masks runs its scan through _eq_masks; that inner call is not
    counted, so every "_eq_masks" in calls is a scan of its own."""
    real_in, real_eq = FitchMap._in_masks, FitchMap._eq_masks
    inside = []

    def counting_in(fmap):
        calls.append("_in_masks")
        inside.append(True)
        try:
            return real_in(fmap)
        finally:
            inside.pop()

    def counting_eq(fmap, targets):
        if not inside:
            calls.append("_eq_masks")
        return real_eq(fmap, targets)

    mp.setattr(FitchMap, "_in_masks", counting_in)
    mp.setattr(FitchMap, "_eq_masks", counting_eq)


class TestSinglePipeline:
    def test_success_path_runs_no_diagnostics(self, monkeypatch):
        maps = [EXAMPLE_MAP] + [random_tree_like_instance(seed, 64, 4)[1] for seed in range(4)]
        maps.append(random_tree_like_instance(4, 130, 4)[1])
        # 128 symbols: two bytes per code
        comb = "w"
        for i in range(128):
            comb = ((f"t{i:03d}", f"s{i:03d}"), (comb, NO_EVENT))
        maps.append(evaluate(LabeledTree.build(comb)))
        assert maps[-1]._row(0).typecode == "h"
        expected = [recognize(m).tree for m in maps]
        assert expected[0] == EXAMPLE_TREE

        def diagnostic(*args, **kwargs):
            raise AssertionError("a diagnostic ran on a tree-like map")

        for name in ("check_conditions", "least_resolved_simple", "find_forbidden_triad"):
            monkeypatch.setattr(fitchmap.generalized, name, diagnostic)
        monkeypatch.setattr(fitchmap.simple_fitch, "evaluate", diagnostic)
        # the walk reads classes and in-masks; no class digraph is gathered
        monkeypatch.setattr(fitchmap.generalized, "_gather", diagnostic)
        # the package re-exports evaluate(), which hides the module's name
        evaluate_module = importlib.import_module("fitchmap.evaluate")
        walked = []
        real_templates = evaluate_module._templates

        # evaluate() and explains() both build rows through _templates(),
        # one per leaf, in canonical order
        def counting_templates(tree, alphabet, pos):
            for j, row in enumerate(real_templates(tree, alphabet, pos)):
                walked.append((tree, j))
                yield row

        monkeypatch.setattr(evaluate_module, "_templates", counting_templates)
        scans = []
        counting_column_scans(monkeypatch, scans)
        for m, tree in zip(maps, expected):
            walked.clear()
            scans.clear()
            assert recognize(m).tree == tree
            # the whole tree is evaluated exactly once, by the certificate
            assert sorted(walked) == [(tree, j) for j in range(tree.n_leaves)]
            # one column pass, for the in-masks; no diagnostic scan
            assert scans == ["_in_masks"]

    def test_failure_witnesses_match_check_conditions(self, monkeypatch):
        rng = random.Random(311)
        dead_ends = uncertified = 0
        real_build = fitchmap.generalized._gather
        real_walk = fitchmap.generalized._cluster_tree
        built, walks, scans = [], [], []

        def counting_build(in_, n, idx):
            built.append(tuple(idx))
            return real_build(in_, n, idx)

        def counting_walk(names, classes, in_):
            walks.append(tuple(names))
            return real_walk(names, classes, in_)

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
            built.clear()
            walks.clear()
            scans.clear()
            with monkeypatch.context() as mp:
                mp.setattr(fitchmap.generalized, "_gather", counting_build)
                counting_column_scans(mp, scans)
                mp.setattr(fitchmap.generalized, "_cluster_tree", counting_walk)
                for name in ("check_conditions", "least_resolved_simple"):
                    mp.setattr(fitchmap.generalized, name, second_pipeline)
                mp.setattr(fitchmap.simple_fitch, "evaluate", second_pipeline)
                report = recognize(m)
            # one walk over the classes, on every map; only a T2 verdict
            # gathers a class digraph, the failing class's, once
            assert walks == [m.leaves]
            # a negative verdict scans the columns once more, to name it
            assert scans == ["_in_masks"] + ["_eq_masks"] * (not report.tree_like)
            t2 = not report.tree_like and report.reason.kind == "T2"
            assert len(built) == t2
            if t2:
                symbol = report.reason.symbol
                assert built == [tuple(i for i, x in enumerate(m.leaves) if classes.class_of(x) == symbol)]
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
