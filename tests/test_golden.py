"""A digest of recognize()'s reports over a seeded corpus, to pin every
verdict, witness and tree through refactors of the recognition pipeline.

A change that moves the digest changed what some report says; find the map
by comparing report by report against the last commit that matched."""

import hashlib
import json
import random
from collections import Counter

from fitchmap.core import NO_EVENT, make_fitch_map
from fitchmap.generalized import recognize
from fitchmap.io import write_tree
from fitchmap.oracle import random_tree_like_instance

# sha256 of the corpus's reports, as v1 JSON with sorted keys, each
# followed by the tree's text ("" for a not-tree-like map)
GOLDEN = "a838334361a4398d325d4d75840313c95c661165b2ceda4a8a9413d7bd972664"


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
