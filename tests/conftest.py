"""Shared helpers for the test suite."""

import random

from branchpairs import (
    Digraph,
    GeneratorConfig,
    random_semicomplete,
    strong_decomposition,
    verify_good_pair,
)


def assert_good_pair(digraph, u, v, pair):
    """Fail with the verifier's reason if `pair` is not a good (u,v)-pair."""
    ok, reason = verify_good_pair(digraph, u, v, pair)
    assert ok, reason


def trans_back(n):
    """The transitive tournament 0 -> ... -> n-1 plus the back arc (n-1, 0)."""
    return Digraph.from_arcs(
        n, [(i, j) for i in range(n) for j in range(i + 1, n)] + [(n - 1, 0)]
    )


def two_blocks(n, rng):
    """Two random tournaments on [0, h) and [h, n), every cross pair pointing
    into the second, plus the back arc (n-1, 0); strong once both blocks are."""
    h = n // 2
    arcs = [(i, j) for i in range(h) for j in range(h, n)] + [(n - 1, 0)]
    for block in (range(h), range(h, n)):
        arcs += [(i, j) if rng.random() < 0.5 else (j, i)
                 for i in block for j in block if i < j]
    return Digraph.from_arcs(n, arcs)


def strong_instances():
    """Seeded strong digraphs of orders 2-30 with digon probability 0 / 0.1 /
    0.3, trans_back(2..30) and strong two-block digraphs; more than 60 of
    them have cut arcs."""
    rng = random.Random(9)
    instances = [
        random_semicomplete(GeneratorConfig(n=n, digon_prob=p, seed=seed, constraint="strong"))
        for n in range(2, 31) for p in (0.0, 0.1, 0.3) for seed in range(3)
        if n > 2 or p > 0  # a strong digraph of order two is a digon
    ]
    instances += [trans_back(n) for n in range(2, 31)]
    instances += [d for n in range(6, 31, 4) for d in [two_blocks(n, rng)]
                  if strong_decomposition(d).is_strong]
    return instances
