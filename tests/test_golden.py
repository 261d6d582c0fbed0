"""Digests over seeded corpora, to pin outputs through refactors: one of
recognize()'s reports, to pin every verdict, witness and tree of the
recognition pipeline, one of LabeledTree's canonical form, to pin the
arrays every tree stores and the text and keys derived from them, and one
of the oracle's consistent labelings, to pin their order.

A change that moves a digest changed what some report or tree says; find
the input by comparing one by one against the last commit that matched."""

import hashlib
import json
import random
from collections import Counter

from fitchmap.core import NO_EVENT, LabeledTree, make_fitch_map
from fitchmap.generalized import recognize
from fitchmap.io import read_tree, write_tree
from fitchmap.oracle import enumerate_consistent_labelings, enumerate_topologies, random_tree_like_instance

# sha256 of the corpus's reports, as v1 JSON with sorted keys, each
# followed by the tree's text ("" for a not-tree-like map)
GOLDEN = "a838334361a4398d325d4d75840313c95c661165b2ceda4a8a9413d7bd972664"

# sha256 of the canonical-form corpus: per tree, the repr of each stored
# array, its text and the repr of its topology key
CANONICAL = "2929620191300a413a8f66457522df8245f00fad41c879faafdb5515bf627458"
# sha256 of every consistent labeling's text, in enumeration order, of
# every topology on 2 to 4 leaves over 0 to 3 symbols and on 5 leaves
# over 0 or 1 symbol
LABELINGS = "3d22f62abbd9486c3ad62fcb7fe27b3edfaf3035ed5a5b4ddb50014758b8b66d"
SLOTS = ("_parent", "_children", "_labels", "_names", "_name2v", "_depth", "_span", "_leafv")


def corpus():
    """400 tree-like maps, n from 3 to 32 and up to 1 to 4 symbols, each
    followed by a copy with one entry changed to another label, possibly a
    new symbol "x"."""
    rng = random.Random(1212)
    for seed in range(400):
        n, k = rng.randint(3, 32), rng.randint(1, 4)
        _, fm = random_tree_like_instance(seed, n, k)
        yield fm
        entries = dict(fm.pairs())
        pair = sorted(entries)[rng.randrange(len(entries))]
        others = [lab for lab in (NO_EVENT, *fm.alphabet, "x") if lab != entries[pair]]
        entries[pair] = rng.choice(others)
        yield make_fitch_map(fm.leaves, entries)


def test_report_digest():
    digest = hashlib.sha256()
    kinds = Counter()
    for m in corpus():
        report = recognize(m)
        kinds[report.reason.kind if report.reason else "tree-like"] += 1
        digest.update(json.dumps(report.to_json(), sort_keys=True).encode())
        digest.update((write_tree(report.tree) if report.tree_like else "").encode())
    for kind in ("tree-like", "T1", "T2", "T3"):
        assert kinds[kind] >= 20, kinds
    assert digest.hexdigest() == GOLDEN


def shuffled(tree: LabeledTree, rng: random.Random) -> LabeledTree:
    """The tree rebuilt from its own arrays, vertex v renamed perm[v]."""
    n = tree.n_vertices
    perm = list(range(n))
    rng.shuffle(perm)
    parents: list = [None] * n
    labels: list = [None] * n
    for v in range(n):
        p = tree.parent(v)
        parents[perm[v]] = None if p is None else perm[p]
        labels[perm[v]] = tree.label(v)
    names = {perm[v]: tree.name(v) for v in tree.leaf_vertices}
    return LabeledTree(parents, labels, names)


def tree_corpus():
    """300 random trees, n from 2 to 70 and 0 to 3 symbols, each followed
    by its rebuild from shuffled vertex ids, its round trip through the
    .lnw text and a copy relabeled at random through with_labels."""
    rng = random.Random(1313)
    for seed in range(300):
        n, k = rng.randint(2, 70), rng.randint(0, 3)
        tree, _ = random_tree_like_instance(seed, n, k)
        yield tree
        rebuilt = shuffled(tree, rng)
        assert rebuilt == tree
        yield rebuilt
        yield read_tree(write_tree(tree))
        symbols = (NO_EVENT, *tree.event_symbols(), "x")
        yield tree.with_labels([None] + [rng.choice(symbols) for _ in range(1, tree.n_vertices)])


def test_canonical_form_digest():
    digest = hashlib.sha256()
    for tree in tree_corpus():
        for slot in SLOTS:
            digest.update(repr(getattr(tree, slot)).encode())
        digest.update(tree._text().encode())
        digest.update(repr(tree.topology_key()).encode())
    assert digest.hexdigest() == CANONICAL


def test_labeling_order_digest():
    digest = hashlib.sha256()
    count = 0
    for leaves, most in (("ab", 3), ("abc", 3), ("abcd", 3), ("abcde", 1)):
        for topo in enumerate_topologies(leaves):
            for k in range(most + 1):
                for tree in enumerate_consistent_labelings(topo, ("1", "2", "3")[:k]):
                    digest.update(write_tree(tree).encode())
                    count += 1
    assert count == 63934
    assert digest.hexdigest() == LABELINGS
