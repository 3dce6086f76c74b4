"""Brute-force ground truth and instance generators for differential testing.

`oracle_good_pair` and `oracle_path_pair` are exact by exhaustion and kept
deliberately independent of the decision/construction modules: they share only
the digraph substrate, so agreement between the two code paths is meaningful
evidence.  `enumerate_semicomplete` streams every labeled semicomplete digraph
of a given order in a documented index order, and `random_semicomplete` draws
seeded reproducible instances under a structural constraint.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .branchings import GoodPair, Tree, bfs_tree
from .digraph import (
    ArcPath,
    Digraph,
    _bits,
    _check_vertices,
    is_k_arc_strong,
    strong_decomposition,
)
from .errors import ConstraintUnsatisfiable, TooLarge

_ORACLE_MAX = 9
_REJECTION_CAP = 100_000

CONSTRAINTS = ("any", "tournament", "strong", "2-arc-strong", "non-strong")


@dataclass(frozen=True)
class GeneratorConfig:
    """Reproducible random-instance description.

    Each unordered pair independently becomes a digon with probability
    `digon_prob`, otherwise a single arc with a fair coin for direction.
    The `tournament` constraint forces digon_prob to be treated as zero.
    """

    n: int
    digon_prob: float = 0.0
    seed: int = 0
    constraint: str = "any"

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("vertex count must be non-negative")
        if not 0.0 <= self.digon_prob <= 1.0:
            raise ValueError("digon_prob must lie in [0, 1]")
        if self.constraint not in CONSTRAINTS:
            raise ValueError(
                f"unknown constraint {self.constraint!r}; pick one of {CONSTRAINTS}"
            )


def _check_order(digraph: Digraph) -> None:
    if digraph.n > _ORACLE_MAX:
        raise TooLarge(f"oracle is capped at {_ORACLE_MAX} vertices")


def oracle_good_pair(digraph: Digraph, u: int, v: int) -> GoodPair | None:
    """First out-branching rooted at u (in backtracking order) that leaves an
    in-branching rooted at v in the remaining arcs; None if no such pair.

    Parent assignments are explored in ascending vertex order with two prunes:
    partial assignments may not close a cycle, and v must stay reachable from
    every vertex in the digraph minus the arcs already claimed.
    """
    _check_order(digraph)
    _check_vertices(digraph, u, v)
    n = digraph.n
    if n == 1:
        return GoodPair(Tree("out", u), Tree("in", v))
    out_masks = digraph.out_masks()
    in_masks = digraph.in_masks()
    full = (1 << n) - 1
    used_out = [0] * n
    used_in = [0] * n
    parents: dict[int, int] = {}
    order = [q for q in range(n) if q != u]

    def all_reach_v() -> bool:
        reached = 1 << v
        frontier = reached
        while frontier:
            nxt = 0
            m = frontier
            while m:
                b = m & -m
                m ^= b
                q = b.bit_length() - 1
                nxt |= in_masks[q] & ~used_in[q]
            frontier = nxt & ~reached
            reached |= frontier
        return reached == full

    if not all_reach_v():
        return None

    def closes_cycle(child: int, par: int) -> bool:
        vertex = par
        while vertex in parents:
            vertex = parents[vertex]
            if vertex == child:
                return True
        return vertex == child

    def rec(i: int) -> GoodPair | None:
        if i == len(order):
            residual = Digraph(n, [out_masks[q] & ~used_out[q] for q in range(n)])
            in_branching = bfs_tree(residual, v, "in")
            if in_branching.covered() != frozenset(range(n)):
                return None  # pruning should prevent this; stay safe anyway
            return GoodPair(Tree("out", u, dict(parents)), in_branching)
        child = order[i]
        for par in _bits(in_masks[child]):
            if closes_cycle(child, par):
                continue
            parents[child] = par
            used_out[par] |= 1 << child
            used_in[child] |= 1 << par
            if all_reach_v():
                found = rec(i + 1)
                if found is not None:
                    return found
            del parents[child]
            used_out[par] &= ~(1 << child)
            used_in[child] &= ~(1 << par)
        return None

    return rec(0)


def oracle_good_pair_targets(digraph: Digraph, u: int) -> tuple[int, ...]:
    """All v for which a good (u,v)-pair exists, by enumerating every
    out-branching rooted at u and collecting the in-roots its residual digraph
    supports.  Used by the exhaustive sweeps; one enumeration serves all v."""
    _check_order(digraph)
    _check_vertices(digraph, u)
    n = digraph.n
    if n == 1:
        return (0,)
    out_masks = digraph.out_masks()
    in_masks = digraph.in_masks()
    # v must be reachable from everywhere even before any arc is removed.
    upper = 0
    for v in range(n):
        reached = 1 << v
        frontier = reached
        while frontier:
            nxt = 0
            m = frontier
            while m:
                b = m & -m
                m ^= b
                nxt |= in_masks[b.bit_length() - 1]
            frontier = nxt & ~reached
            reached |= frontier
        if reached == (1 << n) - 1:
            upper |= 1 << v
    if not upper:
        return ()
    used_out = [0] * n
    used_in = [0] * n
    parents: dict[int, int] = {}
    order = [q for q in range(n) if q != u]
    valid = 0

    def sink_targets() -> int:
        residual = [out_masks[q] & ~used_out[q] for q in range(n)]
        dec = strong_decomposition(Digraph(n, residual))
        sinks = []
        for index in range(len(dec.components)):
            mask = dec.mask_of(index)
            if all(residual[q] & ~mask == 0 for q in dec.components[index]):
                sinks.append(mask)
        if len(sinks) != 1:
            return 0
        # every vertex must reach the unique sink component
        reached = sinks[0]
        frontier = reached
        while frontier:
            nxt = 0
            m = frontier
            while m:
                b = m & -m
                m ^= b
                q = b.bit_length() - 1
                nxt |= in_masks[q] & ~used_in[q]
            frontier = nxt & ~reached
            reached |= frontier
        return sinks[0] if reached == (1 << n) - 1 else 0

    def rec(i: int) -> bool:
        nonlocal valid
        if i == len(order):
            valid |= sink_targets()
            return valid == upper
        child = order[i]
        for par in _bits(in_masks[child]):
            vertex = par
            while vertex in parents:
                vertex = parents[vertex]
            if vertex == child:
                continue
            parents[child] = par
            used_out[par] |= 1 << child
            used_in[child] |= 1 << par
            if rec(i + 1):
                return True
            del parents[child]
            used_out[par] &= ~(1 << child)
            used_in[child] &= ~(1 << par)
        return False

    rec(0)
    return tuple(_bits(valid))


def oracle_path_pair(
    digraph: Digraph, x1: int, y1: int, x2: int, y2: int
) -> tuple[ArcPath, ArcPath] | None:
    """Exhaustive search for arc-disjoint (x1,y1)- and (x2,y2)-paths: depth
    first over the first path's vertex sequence, reachability for the second."""
    _check_order(digraph)
    _check_vertices(digraph, x1, y1, x2, y2)
    out_masks = digraph.out_masks()
    n = digraph.n

    def bfs_path(masks, s, t) -> ArcPath | None:
        if s == t:
            return ArcPath((s,))
        parent = {s: s}
        frontier = [s]
        seen = 1 << s
        while frontier:
            nxt = []
            for q in frontier:
                for r in _bits(masks[q] & ~seen):
                    seen |= 1 << r
                    parent[r] = q
                    if r == t:
                        seq = [t]
                        while seq[-1] != s:
                            seq.append(parent[seq[-1]])
                        seq.reverse()
                        return ArcPath(tuple(seq))
                    nxt.append(r)
            frontier = nxt
        return None

    if x1 == y1:
        second = bfs_path(out_masks, x2, y2)
        return (ArcPath((x1,)), second) if second else None
    if x2 == y2:
        first = bfs_path(out_masks, x1, y1)
        return (first, ArcPath((x2,))) if first else None

    used = [0] * n
    prefix = [x1]
    on_prefix = 1 << x1

    def rec() -> tuple[ArcPath, ArcPath] | None:
        vertex = prefix[-1]
        if vertex == y1:
            residual = [out_masks[q] & ~used[q] for q in range(n)]
            second = bfs_path(residual, x2, y2)
            if second is not None:
                return ArcPath(tuple(prefix)), second
            return None
        nonlocal on_prefix
        for nxt in _bits(out_masks[vertex] & ~on_prefix):
            prefix.append(nxt)
            on_prefix |= 1 << nxt
            used[vertex] |= 1 << nxt
            found = rec()
            if found is not None:
                return found
            used[vertex] &= ~(1 << nxt)
            on_prefix &= ~(1 << nxt)
            prefix.pop()
        return None

    return rec()


def semicomplete_count(n: int) -> int:
    return 3 ** (n * (n - 1) // 2)


def _pairs(n: int) -> list[tuple[int, int]]:
    return [(a, b) for a in range(n) for b in range(a + 1, n)]


def semicomplete_from_index(n: int, index: int) -> Digraph:
    """Decode an instance index: pair k (in lexicographic pair order) holds
    trit (index // 3**k) % 3 with 0 ↦ a→b, 1 ↦ b→a, 2 ↦ digon."""
    if n > 6:
        raise TooLarge("exhaustive enumeration is capped at 6 vertices")
    total = semicomplete_count(n)
    if not 0 <= index < total:
        raise ValueError(f"index {index} out of range for n={n} (total {total})")
    masks = [0] * n
    for a, b in _pairs(n):
        state = index % 3
        index //= 3
        if state == 0:
            masks[a] |= 1 << b
        elif state == 1:
            masks[b] |= 1 << a
        else:
            masks[a] |= 1 << b
            masks[b] |= 1 << a
    return Digraph(n, masks)


def enumerate_semicomplete(n: int, start: int = 0, stop: int | None = None):
    """All labeled semicomplete digraphs on n vertices in index order
    (optionally an index sub-range for work partitioning)."""
    if n > 6:
        raise TooLarge("exhaustive enumeration is capped at 6 vertices")
    total = semicomplete_count(n)
    if stop is None:
        stop = total
    if not (0 <= start <= stop <= total):
        raise ValueError("bad enumeration range")
    pairs = _pairs(n)
    for index in range(start, stop):
        masks = [0] * n
        rem = index
        for a, b in pairs:
            state = rem % 3
            rem //= 3
            if state == 0:
                masks[a] |= 1 << b
            elif state == 1:
                masks[b] |= 1 << a
            else:
                masks[a] |= 1 << b
                masks[b] |= 1 << a
        yield Digraph(n, masks)


def random_semicomplete(config: GeneratorConfig) -> Digraph:
    """Seeded random semicomplete digraph honouring the config constraint,
    by rejection sampling with a fixed attempt cap."""
    rng = random.Random(config.seed)
    digon_prob = 0.0 if config.constraint == "tournament" else config.digon_prob
    n = config.n
    for _ in range(_REJECTION_CAP):
        masks = [0] * n
        for a, b in _pairs(n):
            if digon_prob > 0.0 and rng.random() < digon_prob:
                masks[a] |= 1 << b
                masks[b] |= 1 << a
            elif rng.random() < 0.5:
                masks[a] |= 1 << b
            else:
                masks[b] |= 1 << a
        digraph = Digraph(n, masks)
        if config.constraint in ("any", "tournament"):
            return digraph
        if config.constraint == "strong":
            if strong_decomposition(digraph).is_strong:
                return digraph
        elif config.constraint == "non-strong":
            if not strong_decomposition(digraph).is_strong:
                return digraph
        elif config.constraint == "2-arc-strong":
            if n >= 2 and is_k_arc_strong(digraph, 2):
                return digraph
    raise ConstraintUnsatisfiable(
        f"no {config.constraint} instance with n={config.n} found in "
        f"{_REJECTION_CAP} attempts"
    )
