import random
from itertools import combinations

import pytest

from fitchmap.core import (
    NO_EVENT,
    FitchError,
    LabelConflict,
    LabeledTree,
    LeafSetNotContained,
    OuterEdge,
    RootedTriple,
    SameLeaf,
    TooFewLeaves,
    TreeBuilder,
    TripleSet,
    UnknownEdge,
)
from fitchmap.oracle import random_tree_like_instance
from fitchmap.treeops import (
    contract_edge,
    displays,
    lca,
    path_lca_to,
    restrict,
    triples_of,
)

CHERRY = LabeledTree.build(
    (((("a", NO_EVENT), ("b", NO_EVENT)), NO_EVENT), ("c", NO_EVENT))
)
STAR3 = LabeledTree.build((("a", NO_EVENT), ("b", NO_EVENT), ("c", NO_EVENT)))
# the worked example: root --2-- v, v --(-)-- a, v --2-- b, root --(-)-- c
EXAMPLE = LabeledTree.build(
    (((("a", NO_EVENT), ("b", "2")), "2"), ("c", NO_EVENT))
)


class TestLca:
    def test_cherry_pair(self):
        v = lca(CHERRY, {"a", "b"})
        assert CHERRY.children(v) == tuple(
            CHERRY.vertex_of(x) for x in ("a", "b")
        )

    def test_all_three_meet_at_root(self):
        assert lca(CHERRY, {"a", "b", "c"}) == CHERRY.root

    def test_singleton(self):
        assert lca(CHERRY, {"a"}) == CHERRY.vertex_of("a")


class TestPathLcaTo:
    def test_across_the_root(self):
        p = path_lca_to(CHERRY, "c", "a")
        assert p.vertices == (CHERRY.root, lca(CHERRY, {"a", "b"}), CHERRY.vertex_of("a"))

    def test_within_the_cherry(self):
        p = path_lca_to(CHERRY, "a", "b")
        assert p.vertices == (lca(CHERRY, {"a", "b"}), CHERRY.vertex_of("b"))

    def test_star(self):
        p = path_lca_to(STAR3, "a", "c")
        assert p.vertices == (STAR3.root, STAR3.vertex_of("c"))

    def test_same_leaf_rejected(self):
        with pytest.raises(SameLeaf):
            path_lca_to(CHERRY, "a", "a")

    def test_endpoints_property(self):
        tree, _ = random_tree_like_instance(5, 12, 2)
        names = tree.leaf_names
        for x, y in [(names[0], names[-1]), (names[3], names[7])]:
            p = path_lca_to(tree, x, y)
            assert p.vertices[0] == lca(tree, {x, y})
            assert p.vertices[-1] == tree.vertex_of(y)


class TestRestrict:
    def test_label_inheritance_example(self):
        got = restrict(EXAMPLE, {"a", "b"})
        assert got == LabeledTree.build((("a", NO_EVENT), ("b", "2")))

    def test_identity_restriction(self):
        assert restrict(EXAMPLE, set(EXAMPLE.leaf_names)) == EXAMPLE

    def test_conflicting_suppressed_path(self):
        # root -> u(1) -> v(2); suppressing u and v mixes symbols 1 and 2
        tree = LabeledTree.build(
            (
                ((((("a", NO_EVENT), ("b", NO_EVENT)), "2"), ("c", NO_EVENT)), "1"),
                ("d", NO_EVENT),
            )
        )
        with pytest.raises(LabelConflict):
            restrict(tree, {"a", "d"})

    def test_too_few_leaves(self):
        with pytest.raises(TooFewLeaves):
            restrict(EXAMPLE, {"a"})

    def test_leaf_set_and_phylogenetic(self, rng):
        for seed in range(8):
            tree, _ = random_tree_like_instance(seed, 14, 3)
            keep = set(rng.sample(tree.leaf_names, 5))
            small = restrict(tree, keep)
            assert set(small.leaf_names) == keep
            assert small.is_phylogenetic

    def test_restriction_preserves_displayed_triples(self, rng):
        for seed in range(6):
            tree, _ = random_tree_like_instance(seed, 9, 2)
            keep = set(rng.sample(tree.leaf_names, 5))
            small = restrict(tree, keep)
            expected = {t for t in triples_of(tree) if t.leaves <= keep}
            assert set(triples_of(small)) == expected

    def test_labels_match_naive_path_scan(self, rng):
        # every restricted edge label equals the symbol set of the
        # corresponding original path
        from conftest import naive_evaluate

        for seed in range(6):
            tree, fmap = random_tree_like_instance(seed, 10, 3)
            keep = sorted(rng.sample(tree.leaf_names, 4))
            small = restrict(tree, keep)
            want = {
                (x, y): fmap.label(x, y) for x in keep for y in keep if x != y
            }
            got = naive_evaluate(small)
            for pair, lab in want.items():
                assert got.label(*pair) == lab or got.label(*pair) is lab


class TestDisplays:
    def test_reflexive(self):
        assert displays(CHERRY, CHERRY)

    def test_star_is_minimally_resolved(self):
        assert displays(CHERRY, STAR3)
        assert not displays(STAR3, CHERRY)

    def test_conflicting_triple(self):
        big = LabeledTree.build(
            (
                ((("a", NO_EVENT), ("b", NO_EVENT)), NO_EVENT),
                ((("c", NO_EVENT), ("d", NO_EVENT)), NO_EVENT),
            )
        )
        small = LabeledTree.build(
            (((("a", NO_EVENT), ("c", NO_EVENT)), NO_EVENT), ("b", NO_EVENT))
        )
        assert not displays(big, small)

    def test_leaf_set_not_contained(self):
        with pytest.raises(LeafSetNotContained):
            displays(STAR3, LabeledTree.build((("a", NO_EVENT), ("z", NO_EVENT))))

    def test_agrees_with_triple_containment(self, rng):
        # alternative displays() oracle: small <= big iff every triple of
        # small is displayed by big (restricted to small's leaves, which
        # triple containment covers automatically)
        for seed in range(10):
            big, _ = random_tree_like_instance(seed, 8, 2)
            keep = set(rng.sample(big.leaf_names, 5))
            small = restrict(big, keep)
            candidates = [small] + [
                contract_edge(small, e) for e in small.inner_edges()
            ]
            other, _ = random_tree_like_instance(seed + 100, 5, 1)
            renamed = LabeledTree(
                [None if other.parent(v) is None else other.parent(v)
                 for v in range(other.n_vertices)],
                [other.label(v) for v in range(other.n_vertices)],
                {v: sorted(keep)[i] for i, v in enumerate(other.leaf_vertices)},
            )
            candidates.append(renamed)
            big_triples = set(triples_of(big))
            for cand in candidates:
                by_triples = set(triples_of(cand)) <= big_triples
                assert displays(big, cand) == by_triples

    def test_restrict_then_contract_is_displayed(self, rng):
        for seed in range(6):
            tree, _ = random_tree_like_instance(seed, 12, 2)
            keep = set(rng.sample(tree.leaf_names, 6))
            small = restrict(tree, keep)
            assert displays(tree, small)
            inner = list(small.inner_edges())
            while inner:
                small = contract_edge(small, inner[rng.randrange(len(inner))])
                assert displays(tree, small)
                inner = list(small.inner_edges())


class TestTriplesOf:
    def test_star_has_none(self):
        assert len(triples_of(STAR3)) == 0

    def test_cherry(self):
        assert set(triples_of(CHERRY)) == {RootedTriple("a", "b", "c")}

    def test_balanced_four(self):
        t = LabeledTree.build(
            (
                ((("a", NO_EVENT), ("b", NO_EVENT)), NO_EVENT),
                ((("c", NO_EVENT), ("d", NO_EVENT)), NO_EVENT),
            )
        )
        assert set(triples_of(t)) == {
            RootedTriple("a", "b", "c"),
            RootedTriple("a", "b", "d"),
            RootedTriple("c", "d", "a"),
            RootedTriple("c", "d", "b"),
        }


class TestContractEdge:
    def test_cherry_to_star(self):
        (edge,) = CHERRY.inner_edges()
        assert contract_edge(CHERRY, edge).same_topology(STAR3)

    def test_star_has_no_inner_edges(self):
        with pytest.raises(OuterEdge):
            contract_edge(STAR3, (STAR3.root, STAR3.vertex_of("a")))

    def test_caterpillar(self):
        t = LabeledTree.build(
            (
                (
                    (
                        ((("a", NO_EVENT), ("b", NO_EVENT)), NO_EVENT),
                        ("c", NO_EVENT),
                    ),
                    NO_EVENT,
                ),
                ("d", NO_EVENT),
            )
        )
        lower = max(t.inner_edges(), key=lambda e: t.depth(e[1]))
        got = contract_edge(t, lower)
        want = LabeledTree.build(
            (
                ((("a", NO_EVENT), ("b", NO_EVENT), ("c", NO_EVENT)), NO_EVENT),
                ("d", NO_EVENT),
            )
        )
        assert got.same_topology(want)

    def test_not_an_edge(self):
        with pytest.raises(UnknownEdge):
            contract_edge(CHERRY, (0, 0))

    def test_counts_and_leaves(self, rng):
        for seed in range(6):
            tree, _ = random_tree_like_instance(seed, 10, 2)
            inner = list(tree.inner_edges())
            if not inner:
                continue
            got = contract_edge(tree, inner[rng.randrange(len(inner))])
            assert got.n_vertices == tree.n_vertices - 1
            assert set(got.leaf_names) == set(tree.leaf_names)
            assert displays(tree, got)


def _reference_lca_vertices(tree, u, v):
    while u != v:
        if tree.depth(u) >= tree.depth(v):
            u = tree.parent(u)
        else:
            v = tree.parent(v)
    return u


def reference_lca(tree, names):
    """The earlier lca, kept as the reference for the differential test: a
    pairwise fold of depth walks."""
    vs = [tree.vertex_of(nm) for nm in names]
    acc = vs[0]
    for v in vs[1:]:
        acc = _reference_lca_vertices(tree, acc, v)
    return acc


def reference_restrict(tree, names):
    """The earlier restrict: a stack walk down from the lca that builds the
    restriction through a TreeBuilder."""
    keep_names = set(names)
    vs = [tree.vertex_of(nm) for nm in keep_names]
    if len(vs) < 2:
        raise TooFewLeaves("restriction needs at least 2 leaves")
    bearing = [0] * tree.n_vertices
    selected = [False] * tree.n_vertices
    for v in vs:
        selected[v] = True
    for v in range(tree.n_vertices - 1, 0, -1):
        if selected[v] or bearing[v] > 0:
            bearing[tree.parent(v)] += 1
    builder = TreeBuilder()
    root = builder.root()
    stack = [(c, root, ()) for c in reversed(tree.children(reference_lca(tree, keep_names)))]
    while stack:
        v, at, events = stack.pop()
        if not selected[v] and bearing[v] == 0:
            continue
        lab = tree.label(v)
        if lab is not NO_EVENT and lab not in events:
            events = events + (lab,)
        if len(events) > 1:
            raise LabelConflict(
                "suppressed path into subtree at "
                f"{min(tree.subtree_leaves(v))!r} carries symbols "
                f"{sorted(events)}",
                witness=min(tree.subtree_leaves(v)),
                symbols=sorted(events),
            )
        if selected[v] or bearing[v] >= 2:
            nv = builder.child(at, events[0] if events else NO_EVENT, tree.name(v) if selected[v] else None)
            stack.extend((c, nv, ()) for c in reversed(tree.children(v)))
        else:
            stack.extend((c, at, events) for c in reversed(tree.children(v)))
    return builder.freeze()


def reference_displays(big, small):
    """The earlier displays: every cluster of small among the clusters of
    big cut down to small's leaves, as frozensets."""
    names = frozenset(small.leaf_names)
    if not names <= set(big.leaf_names):
        raise LeafSetNotContained("the small tree has leaves outside the big tree's leaf set")
    return small.clusters() <= {c & names for c in big.clusters() if c & names}


def reference_triples_of(tree):
    """The earlier triples_of: ab|c when lca(a, b) is strictly deeper than
    the shallowest of the three pairwise lcas."""
    names, leafv = tree.leaf_names, tree.leaf_vertices
    pair = {
        (i, j): tree.depth(_reference_lca_vertices(tree, leafv[i], leafv[j]))
        for i, j in combinations(range(len(names)), 2)
    }
    out = []
    for i, j, k in combinations(range(len(names)), 3):
        dij, dik, djk = pair[i, j], pair[i, k], pair[j, k]
        top = min(dij, dik, djk)
        if dij > top:
            out.append(RootedTriple(names[i], names[j], names[k]))
        elif dik > top:
            out.append(RootedTriple(names[i], names[k], names[j]))
        elif djk > top:
            out.append(RootedTriple(names[j], names[k], names[i]))
    return TripleSet(out)


def _outcome(f, *args):
    """A tree's arrays, or the class, message, witness and symbols of the
    domain error f raises."""
    try:
        got = f(*args)
    except FitchError as e:
        return type(e), str(e), getattr(e, "witness", None), getattr(e, "symbols", None)
    return got._parent, got._labels, got._names


def _renamed(tree, names):
    """tree's topology and labels with its leaves renamed to `names`."""
    return LabeledTree(
        [tree.parent(v) for v in range(tree.n_vertices)],
        [tree.label(v) for v in range(tree.n_vertices)],
        dict(zip(tree.leaf_vertices, names)),
    )


class TestSpanWalksAgainstReference:
    def test_random_trees_match_reference(self):
        """lca, restrict, triples_of and displays agree with the depth-walk
        references on 3,000 seeded trees of 2 to 25 leaves and 0 to 3
        symbols, 40% of them relabeled at random to provoke conflicts."""
        rng = random.Random(314)
        counts = dict.fromkeys(("conflict", "restricted", "displayed", "not displayed"), 0)
        for seed in range(3_000):
            n, k = rng.randint(2, 25), rng.randint(0, 3)
            tree, _ = random_tree_like_instance(90_000 + seed, n, k)
            if rng.random() < 0.4:
                pool = (NO_EVENT, "1", "2", "3")
                tree = tree.with_labels([None] + [rng.choice(pool) for _ in range(tree.n_vertices - 1)])
            names = tree.leaf_names

            some = rng.sample(names, rng.randint(1, n))
            assert lca(tree, some) == reference_lca(tree, some)
            assert triples_of(tree) == reference_triples_of(tree)

            keep = rng.sample(names, rng.randint(2, n))
            got = _outcome(restrict, tree, keep)
            assert got == _outcome(reference_restrict, tree, keep), (tree, keep)
            counts["conflict" if got[0] is LabelConflict else "restricted"] += 1

            # displays candidates: the label-free restriction, it contracted
            # at random inner edges, and random trees renamed onto its leaves
            small = restrict(tree.with_labels([None] + [NO_EVENT] * (tree.n_vertices - 1)), keep)
            candidates = [tree, small]
            inner = list(small.inner_edges())
            while inner:
                small = contract_edge(small, rng.choice(inner))
                candidates.append(small)
                inner = list(small.inner_edges())
            for size in (len(keep), n):
                if size >= 2:
                    other, _ = random_tree_like_instance(rng.randrange(10**6), size, 0)
                    candidates.append(_renamed(other, rng.sample(keep if size < n else names, size)))
            for cand in candidates:
                want = reference_displays(tree, cand)
                assert displays(tree, cand) == want, (tree, cand)
                counts["displayed" if want else "not displayed"] += 1
        assert all(counts.values()), counts
