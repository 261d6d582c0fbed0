import random
import re
from itertools import combinations

import pytest

import fitchmap.simple_fitch
from conftest import caterpillar_digraph
from fitchmap.core import NO_EVENT, LabeledTree, TreeBuilder
from fitchmap.evaluate import evaluate
from fitchmap.oracle import (
    enumerate_consistent_labelings,
    enumerate_topologies,
    random_tree_like_instance,
)
from fitchmap.simple_fitch import (
    Digraph,
    NotFitch,
    SeveralSymbols,
    _bits,
    _decompose,
    derive_forbidden_table,
    find_forbidden_triad,
    is_least_resolved_simple,
    is_simple_fitch,
    least_resolved_simple,
)
from fitchmap.treeops import displays


def all_digraphs(names):
    slots = [(i, j) for i in range(len(names)) for j in range(len(names)) if i != j]
    for bits in range(1 << len(slots)):
        yield Digraph(
            names,
            [(names[i], names[j]) for k, (i, j) in enumerate(slots) if bits >> k & 1],
        )


def tree_oracle_explains(g: Digraph) -> bool:
    """Exhaustive small-tree search, fully independent of both recognizers."""
    for topo in enumerate_topologies(g.vertices):
        for tree in enumerate_consistent_labelings(topo, ("1",)):
            if evaluate(tree).event_arcs() == g.arcs:
                return True
    return False


def random_digraph(names, rng):
    arcs = [
        (x, y) for x in names for y in names if x != y and rng.random() < rng.random()
    ]
    return Digraph(names, arcs)


def reference_find_forbidden_triad(g: Digraph):
    """The plain scan over all 3-subsets in index order that the pair scan
    replaced; the pair scan must return exactly its triad, or None."""
    table = derive_forbidden_table()
    out = g._out
    forbids = table._is_forbidden
    for i, j, k in combinations(range(g.n), 3):
        oi, oj, ok = out[i], out[j], out[k]
        mask = (
            (oi >> j & 1)
            | (oi >> k & 1) << 1
            | (oj >> i & 1) << 2
            | (oj >> k & 1) << 3
            | (ok >> i & 1) << 4
            | (ok >> j & 1) << 5
        )
        if forbids[mask]:
            vs = g.vertices
            return (vs[i], vs[j], vs[k])
    return None


def shuffled_tree_digraph(seed: int, n: int, rng) -> Digraph:
    """The digraph of a random single-symbol tree-like map, vertices in
    shuffled order."""
    tree, fm = random_tree_like_instance(seed, n, 1)
    names = list(tree.leaf_names)
    rng.shuffle(names)
    return Digraph(names, fm.event_arcs())


def with_arc_flipped(g: Digraph, x: str, y: str) -> Digraph:
    return Digraph(g.vertices, g.arcs ^ {(x, y)})


def _reference_sim_components(g: Digraph, members: int) -> list[int]:
    """Connected components (as bitmasks) of the relation x ~ y defined by
    'not both arcs xy and yx present', restricted to the member set."""
    both = [g._out[v] & g._in[v] for v in range(g.n)]
    comps = []
    remaining = members
    while remaining:
        low = remaining & -remaining
        remaining ^= low
        comp = low
        frontier = low
        while frontier:
            vbit = frontier & -frontier
            frontier ^= vbit
            v = vbit.bit_length() - 1
            moved = remaining & ~both[v]
            if moved:
                remaining &= both[v]
                comp |= moved
                frontier |= moved
        comps.append(comp)
    return comps


def reference_decompose(g: Digraph, symbol: str) -> LabeledTree:
    """The level-by-level source/component peel that the cluster builder
    replaced.  It may return a wrong tree on a digraph that is not simple
    Fitch, so it is compared only through least_resolved_simple's
    self-check."""
    builder = TreeBuilder()
    vs = g.vertices
    stack: list[tuple[int, int, bool]] = [(builder.root(), (1 << g.n) - 1, True)]
    while stack:
        at, members, is_root = stack.pop()
        sources = [v for v in _bits(members) if g._in[v] & members == 0]
        if not is_root and not sources:
            raise NotFitch(
                "component {"
                + ", ".join(vs[v] for v in _bits(members))
                + "} has no vertex of in-degree 0"
            )
        zmask = 0
        for v in sources:
            zmask |= 1 << v
        rest = members ^ zmask
        comps = _reference_sim_components(g, rest)
        if is_root and not sources and len(comps) == 1 and rest.bit_count() >= 2:
            raise NotFitch("all vertices are pairwise linked into one root component")
        for v in sources:
            builder.child(at, NO_EVENT, name=vs[v])
        for comp in comps:
            if comp & (comp - 1) == 0:
                builder.child(at, symbol, name=vs[comp.bit_length() - 1])
            else:
                stack.append((builder.child(at, symbol), comp, False))
    return builder.freeze()


def self_checked(decompose, g: Digraph):
    """least_resolved_simple(g) with `decompose` as its builder: the tree,
    or None on NotFitch."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fitchmap.simple_fitch, "_decompose", decompose)
        try:
            return least_resolved_simple(g)
        except NotFitch:
            return None


def assert_decisive_and_matches_reference(g: Digraph) -> bool:
    """The cluster builder raises NotFitch exactly when g has a forbidden
    triad, and otherwise returns the tree that the reference peel passes
    through the self-check.  Returns whether g is simple Fitch."""
    expected = self_checked(reference_decompose, g)
    assert self_checked(_decompose, g) == expected
    if find_forbidden_triad(g) is None:
        assert expected is not None
        assert _decompose(g, "1") == expected
        return True
    assert expected is None
    with pytest.raises(NotFitch):
        _decompose(g, "1")
    return False


class TestDigraphErrors:
    @pytest.mark.parametrize(
        "vertices, arcs, message",
        [
            (("a", "b", "a"), [], "duplicate vertex 'a'"),
            (("a", "b"), [("a", "z")], "arc ('a', 'z') leaves the vertex set"),
            (("a", "b"), [("a", "b"), ("b", "b")], "reflexive arc on 'b'"),
        ],
    )
    def test_constructor_errors(self, vertices, arcs, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as info:
            Digraph(vertices, arcs)
        assert info.type is ValueError


class TestInduced:
    """Digraph.induced, gathered from the in-masks, against a per-entry
    build: arc a->b of the result exactly when names[a]->names[b] is an arc."""

    @staticmethod
    def reference(g, names):
        arcs = g.arcs
        out = [sum(1 << b for b, y in enumerate(names) if (x, y) in arcs) for x in names]
        in_ = [sum(1 << a for a, x in enumerate(names) if (x, y) in arcs) for y in names]
        return out, in_

    @pytest.mark.parametrize("k", [0, 1, 63, 64, 65, 129])
    def test_matches_per_entry_build(self, k):
        rng = random.Random(k)
        g = random_digraph([f"v{i:03d}" for i in range(150)], rng)
        shuffled = rng.sample(g.vertices, k)
        for names in (shuffled, sorted(shuffled)):
            h = g.induced(names)
            assert h.vertices == tuple(names)
            assert (h._out, h._in) == self.reference(g, names)


class TestForbiddenTable:
    def test_exactly_eight_classes(self):
        assert len(derive_forbidden_table()) == 8

    def test_empty_triad_is_realizable(self):
        g = Digraph(["a", "b", "c"], [])
        assert find_forbidden_triad(g) is None

    def test_complete_bidirectional_triad_is_realizable(self):
        # the all-symbol star explains it; confirmed by evaluation
        star = LabeledTree.build((("a", "1"), ("b", "1"), ("c", "1")))
        arcs = evaluate(star).event_arcs()
        assert arcs == frozenset((x, y) for x in "abc" for y in "abc" if x != y)
        assert find_forbidden_triad(Digraph(["a", "b", "c"], arcs)) is None


class TestPairScanMatchesReference:
    """find_forbidden_triad walks vertex pairs over bitmask rows; it must
    name the same triad as the index-order scan over all 3-subsets."""

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
    def test_all_small_digraphs(self, n):
        for g in all_digraphs([f"v{i}" for i in range(n)]):
            assert find_forbidden_triad(g) == reference_find_forbidden_triad(g)

    def test_random_digraphs(self):
        rng = random.Random(404)
        found = 0
        for _ in range(2000):
            n = rng.randrange(71)
            names = [f"v{i}" for i in range(n)]
            # densities near 0 and 1 give digraphs with few or no forbidden triads
            p = rng.random() ** 4
            if rng.random() < 0.5:
                p = 1 - p
            g = Digraph(names, [(x, y) for x in names for y in names if x != y and rng.random() < p])
            expected = reference_find_forbidden_triad(g)
            assert find_forbidden_triad(g) == expected
            found += expected is not None
        assert 1000 < found < 1900

    def test_shuffled_tree_like_digraphs(self):
        rng = random.Random(405)
        flipped_hits = 0
        for seed in range(60):
            g = shuffled_tree_digraph(seed, rng.randrange(3, 41), rng)
            assert find_forbidden_triad(g) is None
            assert reference_find_forbidden_triad(g) is None
            x, y = rng.sample(g.vertices, 2)
            h = with_arc_flipped(g, x, y)
            expected = reference_find_forbidden_triad(h)
            assert find_forbidden_triad(h) == expected
            flipped_hits += expected is not None
        assert flipped_hits >= 20

    @pytest.mark.parametrize("n", [63, 64, 65, 129])
    def test_only_triads_through_the_last_vertex(self, n):
        rng = random.Random(n)
        g = shuffled_tree_digraph(1000 + n, n, rng)
        last = g.vertices[-1]
        while True:
            h = with_arc_flipped(g, rng.choice(g.vertices[:-1]), last)
            expected = reference_find_forbidden_triad(h)
            if expected is not None:
                break
        assert reference_find_forbidden_triad(h.induced(h.vertices[:-1])) is None
        assert expected[-1] == last
        assert find_forbidden_triad(h) == expected


class TestDecomposeMatchesReference:
    """_decompose builds the tree from the in-neighbourhood clusters in one
    pass; it must agree with the level-by-level peel it replaced and be
    decisive on its own."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_all_small_digraphs(self, n):
        digraphs = all_digraphs([f"v{i}" for i in range(n)])
        fitch = sum(map(assert_decisive_and_matches_reference, digraphs))
        assert fitch == {2: 4, 3: 26, 4: 243}[n]

    def test_random_digraphs(self):
        rng = random.Random(407)
        fitch = 0
        for _ in range(2000):
            names = [f"v{i}" for i in range(rng.randrange(2, 13))]
            p = rng.uniform(0.05, 0.95)
            g = Digraph(names, [(x, y) for x in names for y in names if x != y and rng.random() < p])
            fitch += assert_decisive_and_matches_reference(g)
        assert 200 < fitch < 600

    def test_shuffled_tree_like_digraphs(self):
        rng = random.Random(408)
        flipped_fitch = 0
        for seed in range(600):
            g = shuffled_tree_digraph(seed, rng.randrange(2, 81), rng)
            assert assert_decisive_and_matches_reference(g)
            x, y = rng.sample(g.vertices, 2)
            flipped_fitch += assert_decisive_and_matches_reference(with_arc_flipped(g, x, y))
        assert 20 < flipped_fitch < 200

    @pytest.mark.parametrize("k", [2, 3, 17, 200])
    def test_caterpillars(self, k):
        g = caterpillar_digraph(k)
        assert assert_decisive_and_matches_reference(g)
        tree = _decompose(g, "1")
        assert max(map(tree.depth, range(tree.n_vertices))) == k - 1
        names = list(g.vertices)
        random.Random(k).shuffle(names)
        assert _decompose(g.induced(names), "1") == tree


class TestIsSimpleFitch:
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_complete_bidirectional(self, n):
        names = [f"v{i}" for i in range(n)]
        arcs = [(x, y) for x in names for y in names if x != y]
        assert is_simple_fitch(Digraph(names, arcs))

    def test_empty_digraph(self):
        assert is_simple_fitch(Digraph(["a", "b", "c", "d"], []))

    def test_single_arc_triad_is_forbidden(self):
        g = Digraph(["a", "b", "c"], [("a", "b")])
        assert not is_simple_fitch(g)
        assert not tree_oracle_explains(g)

    def test_tiny_digraphs_always_pass(self):
        assert is_simple_fitch(Digraph(["a"], []))
        assert is_simple_fitch(Digraph(["a", "b"], [("a", "b")]))


class TestLeastResolvedSimple:
    def test_empty_digraph_gives_no_event_star(self):
        t = least_resolved_simple(Digraph(["a", "b", "c"], []))
        assert t == LabeledTree.build(tuple((nm, NO_EVENT) for nm in "abc"))

    def test_complete_bidirectional_gives_symbol_star(self):
        names = ["a", "b", "c"]
        arcs = [(x, y) for x in names for y in names if x != y]
        t = least_resolved_simple(Digraph(names, arcs))
        assert t == LabeledTree.build(tuple((nm, "1") for nm in "abc"))

    def test_round_trip_of_worked_instance(self):
        source = LabeledTree.build(
            (("a", NO_EVENT), ((("b", NO_EVENT), ("c", "1")), "1"))
        )
        g = Digraph(source.leaf_names, evaluate(source).event_arcs())
        assert least_resolved_simple(g) == source

    def test_single_vertex_pseudo_tree(self):
        t = least_resolved_simple(Digraph(["a"], []))
        assert not t.is_phylogenetic
        assert t.leaf_names == ("a",)

    def test_custom_symbol(self):
        t = least_resolved_simple(Digraph(["a", "b"], [("a", "b")]), symbol="xfer")
        assert t.event_symbols() == ("xfer",)

    def test_not_fitch_raises(self):
        with pytest.raises(NotFitch):
            least_resolved_simple(Digraph(["a", "b", "c"], [("a", "b")]))

    def test_self_check_rejects_a_wrong_tree(self, monkeypatch):
        # a decomposition that returns the right tree with one edge label
        # flipped must be caught by re-evaluation
        rng = random.Random(406)
        decompose = fitchmap.simple_fitch._decompose
        for seed in range(12):
            g = shuffled_tree_digraph(seed, rng.randrange(3, 30), rng)
            right = decompose(g, "1")
            for v in range(1, right.n_vertices):
                labels = [right.label(u) for u in range(right.n_vertices)]
                labels[v] = NO_EVENT if labels[v] == "1" else "1"
                wrong = right.with_labels(labels)
                # the tree is least resolved, so every flip changes its digraph
                assert evaluate(wrong).event_arcs() != g.arcs
                monkeypatch.setattr(fitchmap.simple_fitch, "_decompose", lambda g, symbol: wrong)
                with pytest.raises(NotFitch):
                    least_resolved_simple(g)


class TestIsLeastResolvedSimple:
    def test_star_any_labels(self):
        assert is_least_resolved_simple(
            LabeledTree.build((("a", "1"), ("b", NO_EVENT), ("c", "1")))
        )

    def test_inner_no_event_edge(self):
        t = LabeledTree.build(
            (((("a", NO_EVENT), ("b", "1")), NO_EVENT), ("c", NO_EVENT))
        )
        assert not is_least_resolved_simple(t)

    def test_inner_vertex_without_outer_no_event_edge(self):
        t = LabeledTree.build(
            (((("a", "1"), ("b", "1")), "1"), ("c", NO_EVENT))
        )
        assert not is_least_resolved_simple(t)

    def test_two_symbols_rejected(self):
        t = LabeledTree.build((("a", "1"), ("b", "2")))
        with pytest.raises(SeveralSymbols):
            is_least_resolved_simple(t)


class TestOracleEquivalence:
    @pytest.mark.parametrize("names", [("a", "b", "c"), ("a", "b", "c", "d")])
    def test_exhaustive_small(self, names):
        # forward-enumerate the realizable arc sets once; that is the same
        # exhaustive oracle as tree_oracle_explains, spot-checked below
        realizable = set()
        for topo in enumerate_topologies(names):
            for tree in enumerate_consistent_labelings(topo, ("1",)):
                realizable.add(evaluate(tree).event_arcs())
        for g in all_digraphs(list(names)):
            scan = is_simple_fitch(g)
            try:
                tree = least_resolved_simple(g)
                constructive = True
            except NotFitch:
                constructive = False
                tree = None
            assert scan == constructive == (g.arcs in realizable)
            if tree is not None:
                assert is_least_resolved_simple(tree)

    def test_search_and_bulk_oracle_agree(self, rng):
        names = ["a", "b", "c", "d"]
        for _ in range(40):
            g = random_digraph(names, rng)
            assert tree_oracle_explains(g) == is_simple_fitch(g)

    def test_random_up_to_nine(self, rng):
        for trial in range(400):
            n = rng.randrange(5, 10)
            names = [f"v{i}" for i in range(n)]
            g = random_digraph(names, rng)
            scan = is_simple_fitch(g)
            try:
                least_resolved_simple(g)
                constructive = True
            except NotFitch:
                constructive = False
            assert scan == constructive


class TestRoundTripProperties:
    def test_single_symbol_instances(self):
        for seed in range(40):
            tree, fm = random_tree_like_instance(seed, 9, 1)
            g = Digraph(tree.leaf_names, fm.event_arcs())
            r = least_resolved_simple(g)
            assert is_least_resolved_simple(r)
            assert evaluate(r) == fm
            assert displays(tree, r)

    def test_uniqueness_all_explainers_refine(self):
        # on 4 leaves, every explainer of a simple Fitch graph displays
        # the constructed least-resolved tree
        names = ["a", "b", "c", "d"]
        by_arcs = {}
        for topo in enumerate_topologies(names):
            for tree in enumerate_consistent_labelings(topo, ("1",)):
                by_arcs.setdefault(evaluate(tree).event_arcs(), []).append(tree)
        for arcs, explainers in by_arcs.items():
            r = least_resolved_simple(Digraph(names, arcs))
            for t in explainers:
                assert displays(t, r)

    def test_hereditary(self, rng):
        for seed in range(25):
            tree, fm = random_tree_like_instance(seed, 8, 1)
            g = Digraph(tree.leaf_names, fm.event_arcs())
            assert is_simple_fitch(g)
            sub = rng.sample(g.vertices, 4)
            assert is_simple_fitch(g.induced(sub))
            for bad in (sub + ["absent"], sub + sub[:1]):
                with pytest.raises(ValueError):
                    g.induced(bad)
