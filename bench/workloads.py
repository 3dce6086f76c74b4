"""Seeded instance families and the three workloads built from them.

The generators are the benchmark's own, so a change to the package cannot
change its inputs.  They produce arc lists; the program only ever sees the
edge-list text of an instance.  A workload is an endless sequence of rounds.
Every round has the same make-up (families, orders and root-pair roles), so
the cost of a round hardly depends on the seed, and a run always ends on a
whole round.  No instance repeats within a process: the package caches
per-digraph facts, and a repeated instance would time that cache.  The one
exception is the fixed tournament that shows a known fault (KNOWN_FAULT).
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field

from check import is_strong, strength

Arc = tuple[int, int]


@dataclass
class Instance:
    """One digraph and the root pairs asked of it.

    `expect` maps a pair to the answer kind its construction fixes ("yes" or
    a certificate kind).  `oracle` asks for a brute-force cross-check of every
    pair.  `known_fault` maps a pair to the error the package is known to
    raise on it; such an instance keeps its labels."""

    family: str
    n: int
    arcs: list[Arc]
    pairs: list[Arc]
    expect: dict[Arc, str] = field(default_factory=dict)
    oracle: bool = False
    known_fault: dict[Arc, str] = field(default_factory=dict)

    def edge_list(self) -> str:
        lines = [f"{self.n} {len(self.arcs)}"]
        lines.extend(f"{t} {h}" for t, h in self.arcs)
        return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# Families


def random_semicomplete(rng: random.Random, n: int, digon_prob: float, offset: int = 0) -> list[Arc]:
    """Each pair is a digon with probability `digon_prob`, else one arc of
    random direction."""
    arcs = []
    for i in range(offset, offset + n):
        for j in range(i + 1, offset + n):
            if rng.random() < digon_prob:
                arcs += [(i, j), (j, i)]
            elif rng.random() < 0.5:
                arcs.append((i, j))
            else:
                arcs.append((j, i))
    return arcs


def strong_block(rng: random.Random, n: int, digon_prob: float, offset: int = 0) -> list[Arc]:
    """A strong random semicomplete block on offset..offset+n-1 (n != 2
    when digon_prob is 0)."""
    while True:
        arcs = random_semicomplete(rng, n, digon_prob, offset)
        local = [(t - offset, h - offset) for t, h in arcs]
        if is_strong(n, local):
            return arcs


def trans_back(n: int) -> list[Arc]:
    """Transitive tournament 0 -> 1 -> ... -> n-1 plus the back arc (n-1, 0)."""
    return [(i, j) for i in range(n) for j in range(i + 1, n)] + [(n - 1, 0)]


def two_blocks(n: int) -> list[Arc]:
    """Two random blocks [0, h) and [h, n) with h = n // 2, every cross pair
    pointing into the second block, plus the back arc (n-1, 0).  Inner pairs
    are oriented by random.Random(3), drawn in lexicographic pair order."""
    h = n // 2
    rng = random.Random(3)
    arcs = []
    for block in (range(0, h), range(h, n)):
        for i in block:
            for j in block:
                if i < j:
                    arcs.append((i, j) if rng.random() < 0.5 else (j, i))
    arcs += [(i, j) for i in range(h) for j in range(h, n)]
    return arcs + [(n - 1, 0)]


def planted_chain(rng: random.Random, sizes) -> tuple[list[Arc], tuple[tuple[int, ...], ...]]:
    """An odd chain: strong random tournaments as parts, every arc between
    parts pointing forward, and one back arc from part i+2 to part i."""
    arcs: list[Arc] = []
    parts = []
    start = 0
    for size in sizes:
        arcs += strong_block(rng, size, 0.0, start)
        parts.append(tuple(range(start, start + size)))
        start += size
    for i, earlier in enumerate(parts):
        arcs += [(a, b) for later in parts[i + 1 :] for a in earlier for b in later]
    for i in range(len(parts) - 2):
        arcs.append((rng.choice(parts[i + 2]), rng.choice(parts[i])))
    return arcs, tuple(parts)


def relabel(rng: random.Random, inst: Instance) -> Instance:
    """The same instance under a seeded random permutation of its vertices."""
    perm = list(range(inst.n))
    rng.shuffle(perm)
    return Instance(
        family=inst.family,
        n=inst.n,
        arcs=sorted((perm[t], perm[h]) for t, h in inst.arcs),
        pairs=[(perm[u], perm[v]) for u, v in inst.pairs],
        expect={(perm[u], perm[v]): kind for (u, v), kind in inst.expect.items()},
        oracle=inst.oracle,
    )


# --------------------------------------------------------------------------
# Workloads.  A round is a fixed list of slots; a slot draws one instance.


def _plain(n: int, digon_prob: float, same_root: bool):
    def draw(rng: random.Random) -> Instance:
        family = "tournament" if digon_prob == 0 else "semicomplete"
        u = rng.randrange(n)
        v = u if same_root else rng.choice([q for q in range(n) if q != u])
        return Instance(family, n, random_semicomplete(rng, n, digon_prob), [(u, v)])
    return draw


def stacked(rng: random.Random, first: int, last: int, digon_prob: float) -> list[Arc]:
    """Two strong random blocks [0, first) and [first, n), every cross pair
    pointing into the last one.  A pair (u, v) is good exactly when u is in
    the first block and v in the last; otherwise a root is misplaced."""
    n = first + last
    arcs = strong_block(rng, first, digon_prob) + strong_block(rng, last, digon_prob, first)
    return arcs + [(a, b) for a in range(first) for b in range(first, n)]


def stacked_answer(first: int, u: int, v: int) -> str:
    return "yes" if u < first <= v else "root-misplaced"


def _stacked(first: int, last: int, well_placed: bool):
    def draw(rng: random.Random) -> Instance:
        n = first + last
        arcs = stacked(rng, first, last, 0.1)
        if well_placed:
            pair = (rng.randrange(first), rng.randrange(first, n))
        else:
            pair = (rng.randrange(first, n), rng.randrange(n))
        return Instance("stacked", n, arcs, [pair], {pair: stacked_answer(first, *pair)})
    return draw


def _fixed(family: str, arcs: list[Arc], pairs: list[Arc]):
    n = max(max(arc) for arc in arcs) + 1
    return lambda rng: Instance(family, n, arcs, pairs)


def _chain(sizes):
    """The planted pair (u in the second-to-last part, v in the second) has
    an odd-chain no; the reversed pair is asked too."""
    def draw(rng: random.Random) -> Instance:
        arcs, parts = planted_chain(rng, sizes)
        planted = (rng.choice(parts[-2]), rng.choice(parts[1]))
        return Instance(f"chain{len(sizes)}", sum(sizes), arcs, [planted, planted[::-1]],
                        {planted: "odd-chain"})
    return draw


def _small(n: int, digon_prob: float, wanted: str):
    """Every ordered root pair of one digraph of the wanted class; a "split"
    one is two stacked strong blocks of about n/3 and 2n/3 vertices, the
    others are drawn until they have the class."""
    pairs = [(u, v) for u in range(n) for v in range(n)]

    def draw(rng: random.Random) -> Instance:
        family = f"{wanted}/digon{digon_prob}"
        if wanted == "split":
            first = max(1, n // 3)
            expect = {(u, v): stacked_answer(first, u, v) for u, v in pairs}
            arcs = stacked(rng, first, n - first, digon_prob)
            return Instance(family, n, arcs, pairs, expect, oracle=n <= 8)
        arcs = random_semicomplete(rng, n, digon_prob)
        while strength(n, arcs) != wanted:
            arcs = random_semicomplete(rng, n, digon_prob)
        return Instance(family, n, arcs, pairs, oracle=n <= 8)
    return draw


def tournament_from_bits(n: int, bits: int) -> list[Arc]:
    """The tournament whose k-th pair i < j (lexicographic order) points
    i -> j when bit k of `bits` is set, and j -> i otherwise."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return [(i, j) if bits >> k & 1 else (j, i) for k, (i, j) in enumerate(pairs)]


# A strong, not 2-arc-strong tournament of order 12 (single cut arc (7, 4))
# on which construct_good_pair exhausts its search budget for the root pair
# (4, 7) although decide_good_pair says yes and a good pair exists.  It fails
# every time under these labels; relabelled, the fault shows for some
# permutations only, so it is never relabelled.
KNOWN_FAULT = Instance(
    "strong/fixed-fault",
    12,
    tournament_from_bits(12, 0x1C06E606EE6C9FEF1),
    [(u, v) for u in range(12) for v in range(12)],
    known_fault={(4, 7): "InternalInconsistency: pair search exhausted its budget"},
)


# Each small order gets one instance of each connectivity class.  The class
# decides most of an instance's cost (a strong digraph that is not
# 2-arc-strong runs odd-chain detection for most root pairs, the others
# hardly any) and its answer mix, so fixing the classes fixes both for a round.
SMALL_SWEEP_SLOTS = ((0.0, "strong"), (0.1, "split"), (0.4, "2-arc-strong"))

WORKLOADS = {
    "large_random": [
        _plain(300, 0.0, False),
        _plain(260, 0.1, False),
        _plain(220, 0.0, True),
        _plain(200, 0.1, True),
        _stacked(100, 140, True),
        _stacked(130, 110, False),
    ],
    # Five cheap cut-arc noes, the two two_blocks yes queries, and five
    # dearer queries per round: the median query and decide times fall
    # inside the two_blocks cluster, and the median construct time inside
    # the trans_back one, not in a gap between families (see README.md).
    "adversarial": [
        _fixed("trans_back", trans_back(22), [(0, 21), (21, 0), (21, 10), (11, 0)]),
        _fixed("two_blocks", two_blocks(22), [(0, 21), (10, 11), (21, 0), (21, 5)]),
        _chain([4, 5, 4, 5, 4]),
        _chain([3, 3, 3, 3, 3, 3, 3]),
    ],
    # Random strong tournaments stop at order 10: from order 11 on,
    # construct_good_pair exhausts its search budget on some of them, so a
    # random draw would make the failures depend on the seed.  Order 12 has
    # the fixed tournament that shows the fault in every round instead, and
    # order 11 has none (see README.md).
    "small_sweep": [
        _small(n, digon_prob, wanted)
        for n in range(4, 13)
        for digon_prob, wanted in SMALL_SWEEP_SLOTS
        if n <= 10 or wanted != "strong"
    ] + [lambda rng: KNOWN_FAULT],
}


def rounds(workload: str, seed: int):
    """Endless rounds of `workload` for `seed`, each a list of (instance,
    edge-list text); equal arguments give equal rounds.  Every instance but
    one with a known fault is relabelled, and redrawn until it differs from
    every earlier instance of the sequence (there are only 24 labelled strong
    tournaments of order 4, so small_sweep runs out after 24 rounds)."""
    rng = random.Random(f"{workload}:{seed}")
    seen: set[bytes] = set()
    while True:
        batch = []
        for draw in WORKLOADS[workload]:
            for _ in range(1000):
                inst = draw(rng)
                if not inst.known_fault:  # relabelling could hide the fault
                    inst = relabel(rng, inst)
                text = inst.edge_list()
                key = hashlib.sha1(text.encode()).digest()
                if inst.known_fault or key not in seen:
                    break
            else:
                raise RuntimeError(f"{workload}: no new instance after 1000 draws")
            seen.add(key)
            batch.append((inst, text))
        yield batch
