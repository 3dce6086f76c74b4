"""Core digraph machinery: bitmask adjacency, strong components, unit-capacity
flows, cut arcs, and small-order isomorphism.

Vertices are always ``0..n-1``.  Vertex sets travel as Python ints used as
bitmasks internally and as sorted tuples at public boundaries.  All iteration
is in ascending vertex order, so every operation in this package is
deterministic for a given input.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import BadEndpoints, NotSemicomplete, NotStrong, SizeMismatch, TooLarge


def _bits(mask: int):
    """Yield set-bit positions of `mask` in ascending order."""
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


def _mask(vertices) -> int:
    """Bitmask of the vertices in `vertices`; the inverse of `_bits`."""
    mask = 0
    for v in vertices:
        mask |= 1 << v
    return mask


def _transpose(n: int, masks) -> list[int]:
    """The transpose of an n×n bit matrix given as row masks below 2**n: bit
    v of result[w] is bit w of masks[v].

    Rows become n-digit binary strings (last row first, so that row v lands
    on bit v of a column), `zip` reads the columns, and column j is the mask
    of vertex n-1-j.  Those strings take n² bytes, so a matrix with fewer
    than n²/8 set bits is transposed bit by bit instead.
    """
    if 8 * sum(map(int.bit_count, masks)) < n * n:
        result = [0] * n
        for v, mask in enumerate(masks):
            for w in _bits(mask):
                result[w] |= 1 << v
        return result
    rows = [format(mask, f"0{n}b") for mask in reversed(masks)]
    return [int("".join(column), 2) for column in zip(*rows)][::-1]


def _reach(out_masks: list[int], start_mask: int) -> int:
    """Bitmask of vertices reachable from `start_mask` (inclusive)."""
    reached = start_mask
    frontier = start_mask
    while frontier:
        nxt = 0
        m = frontier
        while m:
            b = m & -m
            m ^= b
            nxt |= out_masks[b.bit_length() - 1]
        frontier = nxt & ~reached
        reached |= frontier
    return reached


def _bfs_parents(masks, root: int, allowed: int) -> dict[int, int]:
    """Breadth-first parent map from `root` along the rows `masks` (out- or
    in-masks), visiting only vertices of the mask `allowed`.  Keys come in
    discovery order, smaller ids first within each vertex's fresh set."""
    parent: dict[int, int] = {}
    visited = 1 << root
    queue = [root]
    for vertex in queue:
        fresh = masks[vertex] & allowed & ~visited
        visited |= fresh
        for q in _bits(fresh):
            parent[q] = vertex
            queue.append(q)
    return parent


def _entering_arcs(digraph: Digraph, part: int, host: int) -> list[tuple[int, int]]:
    """The arcs from `host` minus `part` into `part`, ordered by head, then
    tail; the arcs leaving `part` are those entering it in the reverse."""
    return [
        (tail, head)
        for head in _bits(part)
        for tail in _bits(digraph._in[head] & host & ~part)
    ]


class Digraph:
    """Immutable simple digraph on vertices 0..n-1 (no loops, no parallel arcs;
    the two arcs of a digon are distinct).

    `out_masks[v]` holds the heads of v's out-arcs as bits.  The in-masks are
    its bit-matrix transpose, built once here; the derived digraphs of
    `reverse`, `without_arc` and the like carry both lists over instead.
    """

    __slots__ = ("n", "_out", "_in", "_m", "_hash", "_profile")

    def __init__(self, n: int, out_masks: list[int]):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        if len(out_masks) != n:
            raise ValueError("adjacency length does not match vertex count")
        full = (1 << n) - 1
        for v, mask in enumerate(out_masks):
            if mask & ~full:
                raise ValueError(f"arc head out of range at vertex {v}")
            if mask >> v & 1:
                raise ValueError(f"self-loop at vertex {v}")
        self._fill(n, out_masks, _transpose(n, out_masks))

    @classmethod
    def _with_in_masks(cls, n: int, out_masks, in_masks) -> "Digraph":
        """The digraph with these out-masks, whose transpose the caller already
        holds in `in_masks`; nothing is checked."""
        digraph = cls.__new__(cls)
        digraph._fill(n, out_masks, in_masks)
        return digraph

    def _fill(self, n: int, out_masks, in_masks) -> None:
        self.n = n
        self._out = tuple(out_masks)
        self._in = tuple(in_masks)
        self._m = sum(map(int.bit_count, self._out))
        self._hash = hash((n, self._out))
        self._profile = None  # filled by goodpair._strong_profile on first use

    @classmethod
    def from_arcs(cls, n: int, arcs) -> "Digraph":
        out_masks = [0] * n
        for tail, head in arcs:
            if not (0 <= tail < n and 0 <= head < n):
                raise ValueError(f"arc ({tail},{head}) out of range for n={n}")
            if tail == head:
                raise ValueError(f"self-loop ({tail},{head}) not allowed")
            if out_masks[tail] >> head & 1:
                raise ValueError(f"duplicate arc ({tail},{head})")
            out_masks[tail] |= 1 << head
        return cls(n, out_masks)

    # -- basic queries ----------------------------------------------------

    @property
    def m(self) -> int:
        return self._m

    def has_arc(self, tail: int, head: int) -> bool:
        return bool(self._out[tail] >> head & 1)

    def out_mask(self, v: int) -> int:
        return self._out[v]

    def in_mask(self, v: int) -> int:
        return self._in[v]

    def out_masks(self) -> list[int]:
        return list(self._out)

    def in_masks(self) -> list[int]:
        return list(self._in)

    def out_neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(_bits(self._out[v]))

    def in_neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(_bits(self._in[v]))

    def out_degree(self, v: int) -> int:
        return self._out[v].bit_count()

    def in_degree(self, v: int) -> int:
        return self._in[v].bit_count()

    def arcs(self) -> list[tuple[int, int]]:
        return [(v, w) for v in range(self.n) for w in _bits(self._out[v])]

    def vertices(self) -> range:
        return range(self.n)

    # -- derived digraphs --------------------------------------------------

    def reverse(self) -> "Digraph":
        return Digraph._with_in_masks(self.n, self._in, self._out)

    def without_arc(self, tail: int, head: int) -> "Digraph":
        if not self.has_arc(tail, head):
            raise ValueError(f"arc ({tail},{head}) not present")
        return self._without_arcs([(tail, head)])

    def _without_arcs(self, arcs) -> "Digraph":
        """This digraph minus `arcs`; pairs that are not arcs are ignored."""
        outs = list(self._out)
        ins = list(self._in)
        for tail, head in arcs:
            outs[tail] &= ~(1 << head)
            ins[head] &= ~(1 << tail)
        return Digraph._with_in_masks(self.n, outs, ins)

    def with_arcs(self, arcs) -> "Digraph":
        masks = list(self._out)
        for tail, head in arcs:
            if tail == head or not (0 <= tail < self.n and 0 <= head < self.n):
                raise ValueError(f"bad arc ({tail},{head})")
            masks[tail] |= 1 << head
        return Digraph(self.n, masks)

    def induced(self, vertices) -> tuple["Digraph", tuple[int, ...]]:
        """Subdigraph induced by `vertices`, relabelled to 0..k-1.

        Returns the subdigraph and the sorted original-id tuple; position i of
        the tuple is the original id of new vertex i.
        """
        verts = sorted(set(vertices))
        if verts and not (0 <= verts[0] and verts[-1] < self.n):
            raise ValueError("induced vertex out of range")
        pos = {v: i for i, v in enumerate(verts)}
        masks = [_mask(pos[w] for w in _bits(self._out[v]) if w in pos) for v in verts]
        return Digraph(len(verts), masks), tuple(verts)

    # -- protocol ----------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Digraph)
            and self.n == other.n
            and self._out == other._out
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Digraph(n={self.n}, arcs={self.arcs()})"


@dataclass(frozen=True)
class ArcPath:
    """A directed path given by its vertex sequence (a single vertex is a
    path with no arcs)."""

    vertices: tuple[int, ...]

    def __post_init__(self):
        if not self.vertices:
            raise ValueError("path must contain at least one vertex")
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("path revisits a vertex")

    @property
    def start(self) -> int:
        return self.vertices[0]

    @property
    def end(self) -> int:
        return self.vertices[-1]

    def arcs(self) -> tuple[tuple[int, int], ...]:
        vs = self.vertices
        return tuple((vs[i], vs[i + 1]) for i in range(len(vs) - 1))

    def in_digraph(self, digraph: Digraph) -> bool:
        return all(digraph.has_arc(a, b) for a, b in self.arcs())


@dataclass(frozen=True)
class StrongDecomposition:
    """Strong components in the unique acyclic order (initial first).

    For semicomplete digraphs every arc between different components goes from
    the lower-indexed to the higher-indexed one.
    """

    components: tuple[tuple[int, ...], ...]
    component_of: tuple[int, ...]

    @property
    def is_strong(self) -> bool:
        return len(self.components) <= 1

    @property
    def initial(self) -> tuple[int, ...]:
        return self.components[0]

    @property
    def terminal(self) -> tuple[int, ...]:
        return self.components[-1]

    def mask_of(self, index: int) -> int:
        return _mask(self.components[index])


def validate_semicomplete(digraph: Digraph) -> tuple[int, int] | None:
    """Return None if every vertex pair is adjacent, otherwise the
    lexicographically first non-adjacent pair."""
    return _non_adjacent_pair(digraph, (1 << digraph.n) - 1)


def _non_adjacent_pair(digraph: Digraph, vmask: int) -> tuple[int, int] | None:
    """`validate_semicomplete` of the sub-digraph induced by `vmask`."""
    for a in range(digraph.n):
        if vmask >> a & 1:
            missing = vmask & ~(digraph._out[a] | digraph._in[a]) & ~((2 << a) - 1)
            if missing:
                return (a, (missing & -missing).bit_length() - 1)
    return None


def _check_instance(digraph: Digraph, *vertices: int | None) -> None:
    """The input check of every public entry point: NotSemicomplete for the
    first non-adjacent pair, then BadEndpoints for the first vertex out of
    range.  `None` stands for a role the caller leaves open."""
    bad = validate_semicomplete(digraph)
    if bad is not None:
        raise NotSemicomplete(bad)
    _check_vertices(digraph, *vertices)


def _check_vertices(digraph: Digraph, *vertices: int | None) -> None:
    """BadEndpoints for the first vertex out of range, with no semicomplete
    scan, for the entry points that also take other digraphs.  `None`
    stands for a role the caller leaves open."""
    for vertex in vertices:
        if vertex is not None and not 0 <= vertex < digraph.n:
            raise BadEndpoints(f"vertex {vertex} out of range")


def is_tournament(digraph: Digraph) -> bool:
    if validate_semicomplete(digraph) is not None:
        return False
    return all(
        not (digraph.has_arc(a, b) and digraph.has_arc(b, a))
        for a in range(digraph.n)
        for b in range(a + 1, digraph.n)
    )


def _masked_components(n: int, out_masks, vmask: int) -> list[int]:
    """Strong components of the sub-digraph induced by `vmask`, as vertex
    masks in topological (initial-first) order."""
    index = [0] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    comps: list[int] = []
    counter = 1
    for s in _bits(vmask):
        if index[s]:
            continue
        index[s] = low[s] = counter
        counter += 1
        stack.append(s)
        on_stack[s] = True
        frames = [[s, out_masks[s] & vmask]]
        while frames:
            frame = frames[-1]
            v, rem = frame[0], frame[1]
            if rem:
                b = rem & -rem
                frame[1] = rem ^ b
                w = b.bit_length() - 1
                if not index[w]:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    frames.append([w, out_masks[w] & vmask])
                elif on_stack[w] and index[w] < low[v]:
                    low[v] = index[w]
            else:
                frames.pop()
                if frames and low[v] < low[frames[-1][0]]:
                    low[frames[-1][0]] = low[v]
                if low[v] == index[v]:
                    comp = 0
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        comp |= 1 << w
                        if w == v:
                            break
                    comps.append(comp)
    comps.reverse()
    return comps


def strong_decomposition(digraph: Digraph) -> StrongDecomposition:
    """The strong components in their acyclic order.  A strong digraph is
    recognised by two reachability sweeps from vertex 0, forward and
    backward, before Tarjan's algorithm runs."""
    n = digraph.n
    full = (1 << n) - 1
    if n and _reach(digraph._out, 1) == full and _reach(digraph._in, 1) == full:
        comps = [full]
    else:
        comps = _masked_components(n, digraph._out, full)
    components = tuple(tuple(_bits(c)) for c in comps)
    component_of = [0] * n
    for i, comp in enumerate(components):
        for v in comp:
            component_of[v] = i
    return StrongDecomposition(components, tuple(component_of))


def terminal_initial_sets(digraph: Digraph) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(Out, In): the vertices that reach every vertex and the vertices that
    every vertex reaches.  In a semicomplete digraph these are exactly the
    initial and the terminal strong component; any other input raises
    NotSemicomplete, like every public entry point."""
    _check_instance(digraph)
    if digraph.n == 0:
        return (), ()
    decomposition = strong_decomposition(digraph)
    return decomposition.initial, decomposition.terminal


# -- unit-capacity flow ----------------------------------------------------


def _max_flow(out_masks: list[int], n: int, source_mask: int, sink: int,
              cap: int) -> tuple[int, list[int], list[int]]:
    """Max flow from the vertex set `source_mask` to `sink` with unit arc
    capacities, stopping once `cap` is reached.

    Returns (value, fwd, back): `fwd[v]` holds the unused arcs out of v and
    `back[v]` the reversed used arcs, so `fwd | back` is the residual graph.
    """
    fwd = list(out_masks)
    back = [0] * n
    value = 0
    while value < cap:
        parent = [-1] * n
        visited = source_mask
        frontier = source_mask
        found = False
        while frontier and not found:
            nxt = 0
            m = frontier
            while m and not found:
                b = m & -m
                m ^= b
                v = b.bit_length() - 1
                fresh = (fwd[v] | back[v]) & ~visited
                if fresh:
                    visited |= fresh
                    nxt |= fresh
                    rem = fresh
                    while rem:
                        bb = rem & -rem
                        rem ^= bb
                        parent[bb.bit_length() - 1] = v
                    if fresh >> sink & 1:
                        found = True
            frontier = nxt
        if not found:
            return value, fwd, back
        w = sink
        while not (source_mask >> w & 1):
            v = parent[w]
            bw = 1 << w
            bv = 1 << v
            if fwd[v] & bw:
                fwd[v] &= ~bw
                back[w] |= bv
            else:
                back[v] &= ~bw
                fwd[w] |= bv
            w = v
        value += 1
    return value, fwd, back


def local_arc_connectivity(digraph: Digraph, s: int, t: int, cap: int) -> int:
    """min(cap, λ(s,t)): maximum number of pairwise arc-disjoint (s,t)-paths."""
    _check_vertices(digraph, s, t)
    if s == t:
        raise BadEndpoints("endpoints must differ")
    value, _, _ = _max_flow(list(digraph._out), digraph.n, 1 << s, t, cap)
    return value


def arc_disjoint_paths(digraph: Digraph, s: int, t: int, k: int) -> list[ArcPath]:
    """Up to k pairwise arc-disjoint (s,t)-paths (as many as exist, capped),
    read from one max-flow by `_flow_paths`."""
    _check_vertices(digraph, s, t)
    if s == t:
        raise BadEndpoints("endpoints must differ")
    if k < 0:
        raise ValueError("k must be non-negative")
    value, fwd, _ = _max_flow(list(digraph._out), digraph.n, 1 << s, t, k)
    return _flow_paths([mask & ~rest for mask, rest in zip(digraph._out, fwd)], s, t, value)


def _flow_paths(used: list[int], s: int, t: int, value: int) -> list[ArcPath]:
    """The `value` arc-disjoint (s,t)-paths of a flow of that value whose
    used arcs are the rows `used` (which the walk consumes).

    Each walk leaves s along the smallest available used arc; any cycle met
    during a walk is spliced out, which keeps every path simple without
    breaking arc-disjointness.
    """
    paths = []
    for _ in range(value):
        seq = [s]
        seen = {s: 0}
        v = s
        while v != t:
            mask = used[v]
            b = mask & -mask
            w = b.bit_length() - 1
            used[v] ^= b
            if w in seen:
                for dropped in seq[seen[w] + 1:]:
                    del seen[dropped]
                seq = seq[: seen[w] + 1]
            else:
                seen[w] = len(seq)
                seq.append(w)
            v = w
        paths.append(ArcPath(tuple(seq)))
    return paths


def is_k_arc_strong(digraph: Digraph, k: int) -> bool:
    """Whether λ(D) ≥ k.  Uses λ(0,v) ≥ k and λ(v,0) ≥ k for all v, which is
    equivalent by Menger plus transitivity of the connectivity bound."""
    if digraph.n < 2:
        raise BadEndpoints("arc-strong connectivity needs at least two vertices")
    if k <= 0:
        return True
    out = list(digraph._out)
    rev = list(digraph._in)
    n = digraph.n
    for t in range(1, n):
        value, _, _ = _max_flow(out, n, 1, t, k)
        if value < k:
            return False
        value, _, _ = _max_flow(rev, n, 1, t, k)
        if value < k:
            return False
    return True


def cut_arcs(digraph: Digraph) -> list[tuple[int, int]]:
    """All arcs whose removal destroys strong connectivity, ascending.

    Requires a strong input.  For a strong D, removing arc (x,y) leaves D
    strong iff y is still reachable from x, so one BFS per arc decides it.
    """
    if digraph.n == 0:
        raise NotStrong("empty digraph")
    decomposition = strong_decomposition(digraph)
    if not decomposition.is_strong:
        raise NotStrong("input digraph is not strong")
    return _breaking_arcs(digraph, digraph.arcs())


def _breaking_arcs(digraph: Digraph, arcs) -> list[tuple[int, int]]:
    """The arcs among `arcs` (in their order) whose removal leaves the head
    unreachable from the tail.  An arc (x, y) with a 2-path x -> z -> y
    (z != y, as there are no loops) needs no search."""
    result = []
    masks = list(digraph._out)
    ins = digraph._in
    for x, y in arcs:
        if masks[x] & ins[y]:
            continue
        b = 1 << y
        masks[x] &= ~b
        if not (_reach(masks, 1 << x) >> y & 1):
            result.append((x, y))
        masks[x] |= b
    return result


def small_isomorphism(
    digraph: Digraph,
    other: Digraph,
    role_map: dict[int, int] | None = None,
) -> tuple[int, ...] | None:
    """Search for an arc-preserving bijection digraph→other honouring
    `role_map` (a partial vertex pinning).  Brute force, capped at order 6.

    Returns the image tuple (position v holds the image of v) for the first
    bijection in lexicographic order, or None.
    """
    if digraph.n != other.n:
        raise SizeMismatch(f"orders differ: {digraph.n} vs {other.n}")
    if digraph.n > 6:
        raise TooLarge("isomorphism search is capped at 6 vertices")
    if digraph.m != other.m:
        return None
    n = digraph.n
    pins = dict(role_map or {})
    for v, w in pins.items():
        if not (0 <= v < n and 0 <= w < n):
            raise BadEndpoints(f"role map entry {v}->{w} out of range")
    if len(set(pins.values())) != len(pins):
        return None
    if sorted((digraph.out_degree(v), digraph.in_degree(v)) for v in range(n)) != sorted(
        (other.out_degree(v), other.in_degree(v)) for v in range(n)
    ):
        return None
    free_src = [v for v in range(n) if v not in pins]
    free_dst = [w for w in range(n) if w not in set(pins.values())]
    for perm in itertools.permutations(free_dst):
        sigma = [0] * n
        for v, w in pins.items():
            sigma[v] = w
        for v, w in zip(free_src, perm):
            sigma[v] = w
        if all(
            _mask(sigma[w] for w in _bits(digraph._out[v])) == other._out[sigma[v]]
            for v in range(n)
        ):
            return tuple(sigma)
    return None
