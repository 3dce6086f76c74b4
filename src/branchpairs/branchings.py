"""Rooted trees (out-/in-branchings), Edmonds-condition checks, two
arc-disjoint out-branchings from one root, and the out-branching-versus-path
construction.

A `Tree` stores a parent map: for an out-tree the parent of a covered vertex
is its unique in-neighbour on the tree, for an in-tree its unique
out-neighbour.  A branching is a spanning tree in this sense.  Reversing a
tree's kind while keeping the parent map turns a valid out-tree of D into a
valid in-tree of the reverse of D, which the construction code uses to handle
mirror cases once instead of twice.
"""

from __future__ import annotations

from dataclasses import dataclass

from .digraph import (
    ArcPath,
    Digraph,
    _bfs_parents,
    _bits,
    _check_instance,
    _check_vertices,
    _entering_arcs,
    _flow_paths,
    _mask,
    _max_flow,
    _reach,
    _transpose,
    terminal_initial_sets,
)
from .errors import InternalInconsistency, PreconditionViolated


class Tree:
    """Rooted out- or in-tree over a subset of a digraph's vertices."""

    __slots__ = ("kind", "root", "parent")

    def __init__(self, kind: str, root: int, parent: dict[int, int] | None = None):
        if kind not in ("out", "in"):
            raise ValueError("kind must be 'out' or 'in'")
        parent = dict(parent or {})
        if root in parent:
            raise ValueError("the root cannot have a parent")
        self.kind = kind
        self.root = root
        self.parent = parent

    # A tree arc is stored child->parent; as an arc of the digraph it is
    # (parent, child) for out-trees and (child, parent) for in-trees.

    def covered(self) -> frozenset[int]:
        return frozenset(self.parent) | {self.root}

    def arcs(self) -> list[tuple[int, int]]:
        if self.kind == "out":
            return sorted((p, c) for c, p in self.parent.items())
        return sorted((c, p) for c, p in self.parent.items())

    def arc_set(self) -> frozenset[tuple[int, int]]:
        return frozenset(self.arcs())

    def add(self, vertex: int, neighbor: int) -> "Tree":
        """New tree with `vertex` attached below/above `neighbor`."""
        if vertex in self.parent or vertex == self.root:
            raise ValueError(f"vertex {vertex} already covered")
        parent = dict(self.parent)
        parent[vertex] = neighbor
        return Tree(self.kind, self.root, parent)

    def with_arcs(self, arcs) -> "Tree":
        """New tree extended by digraph arcs (tail, head); each arc must
        attach exactly one new vertex (the head for out-trees, the tail for
        in-trees)."""
        parent = dict(self.parent)
        for tail, head in arcs:
            child, par = (head, tail) if self.kind == "out" else (tail, head)
            if child in parent or child == self.root:
                raise ValueError(f"vertex {child} already covered")
            parent[child] = par
        return Tree(self.kind, self.root, parent)

    def spine(self, v: int) -> ArcPath:
        """Tree path root→v (out-tree) or v→root (in-tree)."""
        if v != self.root and v not in self.parent:
            raise ValueError(f"vertex {v} not covered by the tree")
        seq = [v]
        while seq[-1] != self.root:
            seq.append(self.parent[seq[-1]])
        if self.kind == "out":
            seq.reverse()
        return ArcPath(tuple(seq))

    def reversed_kind(self) -> "Tree":
        """Same parent map with the kind flipped; valid in the reverse digraph."""
        return Tree("in" if self.kind == "out" else "out", self.root, self.parent)

    def validate(self, digraph: Digraph, within=None) -> tuple[bool, str | None]:
        """Check arc membership, orientation, acyclicity, and (when `within`
        is given) that the covered set is exactly `within`."""
        n = digraph.n
        if not 0 <= self.root < n:
            return False, f"root {self.root} out of range"
        for child, par in sorted(self.parent.items()):
            if not (0 <= child < n and 0 <= par < n):
                return False, f"tree entry ({child},{par}) out of range"
            tail, head = (par, child) if self.kind == "out" else (child, par)
            if not digraph.has_arc(tail, head):
                return False, f"tree arc ({tail},{head}) missing from digraph"
        state: dict[int, int] = {self.root: 2}  # 1 = in progress, 2 = done
        for start in sorted(self.parent):
            chain = []
            vertex = start
            while state.get(vertex, 0) == 0:
                state[vertex] = 1
                chain.append(vertex)
                if vertex not in self.parent:
                    return False, f"vertex {vertex} detached from the root"
                vertex = self.parent[vertex]
            if state[vertex] == 1:
                return False, f"cycle through vertex {vertex}"
            for seen in chain:
                state[seen] = 2
        if within is not None:
            expected = frozenset(within)
            got = self.covered()
            if got != expected:
                missing = sorted(expected - got)
                extra = sorted(got - expected)
                return False, f"coverage mismatch: missing {missing}, extra {extra}"
        return True, None

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Tree)
            and self.kind == other.kind
            and self.root == other.root
            and self.parent == other.parent
        )

    def __repr__(self) -> str:
        return f"Tree(kind={self.kind!r}, root={self.root}, arcs={self.arcs()})"


@dataclass(frozen=True)
class GoodPair:
    """An out-branching and an in-branching sharing no arc."""

    out_branching: Tree
    in_branching: Tree


@dataclass(frozen=True)
class DeficientSet:
    """A vertex set X with root ∉ X whose in-degree is below the requested
    number of branchings — the Edmonds-condition counterexample."""

    vertices: tuple[int, ...]
    indegree: int


def bfs_tree(digraph: Digraph, root: int, kind: str, within=None) -> Tree:
    """Breadth-first out-/in-tree from `root`, restricted to `within` when
    given.  Covers exactly the vertices reachable (for 'out') or reaching
    (for 'in') inside the restriction; callers check coverage."""
    _check_vertices(digraph, root)
    allowed = (1 << digraph.n) - 1 if within is None else _mask(within)
    masks = digraph.out_masks() if kind == "out" else digraph.in_masks()
    return Tree(kind, root, _bfs_parents(masks, root, allowed))


def _spanning_tree(digraph: Digraph, root: int, kind: str, within) -> Tree:
    """`bfs_tree` inside `within`, which the caller knows it spans."""
    tree = bfs_tree(digraph, root, kind, within)
    if tree.covered() != frozenset(within):
        raise InternalInconsistency(f"{kind}-tree from {root} does not span its side")
    return tree


def edmonds_deficiency(digraph: Digraph, s: int, k: int) -> DeficientSet | None:
    """None iff λ(s,t) ≥ k for every t (Edmonds' condition for k arc-disjoint
    out-branchings rooted at s); otherwise a minimal violated cut, taken from
    the sink side of a failed flow."""
    _check_vertices(digraph, s)
    if k <= 0:
        return None
    deficient = _deficient_sink(digraph, 1 << s, k)
    if deficient is None:
        return None
    t, value, fwd, back = deficient
    side = _reach(_transpose(digraph.n, [f | b for f, b in zip(fwd, back)]), 1 << t)
    return DeficientSet(tuple(_bits(side)), value)


def _deficient_sink(digraph: Digraph, source_mask: int, k: int):
    """The first vertex t outside `source_mask` with fewer than k arc-disjoint
    paths from that set, as (t, value, fwd, back) of `_max_flow`, or None.
    A set source stands for the set contracted into one vertex, parallel
    arcs kept."""
    out = digraph.out_masks()
    n = digraph.n
    for t in _bits(((1 << n) - 1) & ~source_mask):
        value, fwd, back = _max_flow(out, n, source_mask, t, k)
        if value < k:
            return t, value, fwd, back
    return None


def two_arc_disjoint_out_branchings(
    digraph: Digraph, s: int
) -> tuple[Tree, Tree] | DeficientSet:
    """Two arc-disjoint out-branchings rooted at s, or the deficient set.

    Greedy growth of the first branching, one arc at a time.  A candidate arc
    (x, y) is kept only if (1) s still reaches every vertex once the tree arcs
    and the candidate are removed — so a second branching remains available —
    and (2) the contracted connectivity from the enlarged covered set stays at
    two, so the first branching itself can still be completed.  A tree with no
    acceptable candidate would contradict the branching theorem, so that case
    raises instead of returning.
    """
    deficiency = edmonds_deficiency(digraph, s, 2)
    if deficiency is not None:
        return deficiency
    n = digraph.n
    full = (1 << n) - 1
    out = digraph.out_masks()
    tree = Tree("out", s)
    tree_mask = 1 << s
    used = [0] * n  # arcs consumed by the first branching
    while tree_mask != full:
        chosen = None
        for y in _bits(full & ~tree_mask):
            if _deficient_sink(digraph, tree_mask | (1 << y), 2) is not None:
                continue
            tails = digraph.in_mask(y) & tree_mask
            for x in _bits(tails):
                avail = [out[q] & ~used[q] for q in range(n)]
                avail[x] &= ~(1 << y)
                if _reach(avail, 1 << s) == full:
                    chosen = (x, y)
                    break
            if chosen:
                break
        if chosen is None:
            raise InternalInconsistency(
                "branching growth stalled although Edmonds' condition holds"
            )
        x, y = chosen
        tree = tree.add(y, x)
        tree_mask |= 1 << y
        used[x] |= 1 << y
    second = _bfs_parents([out[q] & ~used[q] for q in range(n)], s, full)
    if len(second) != n - 1:
        raise InternalInconsistency("second branching incomplete despite invariant")
    return tree, Tree("out", s, second)


def out_branching_vs_path(digraph: Digraph, u: int, w: int, v: int):
    """Out-branching rooted at u arc-disjoint from some (w,v)-path, or a
    structural certificate that none exists.

    Returns (Tree, ArcPath) on success and a TypeCertificate on failure; the
    certificate's parts cover the whole vertex set when u = w, and the initial
    strong component when u ≠ w.
    """
    from .structures import (  # deferred: structures imports this module
        ConsecutiveSingletons,
        TypeCertificate,
        TypedObstruction,
        _verify_type_certificate,
        arc_disjoint_path_pair,
    )

    _check_instance(digraph, u, w, v)
    n = digraph.n
    out_set, _ = terminal_initial_sets(digraph)
    if u not in out_set:
        raise PreconditionViolated(f"no out-branching can be rooted at {u}")
    if not (_reach(digraph.out_masks(), 1 << w) >> v & 1):
        raise PreconditionViolated(f"no ({w},{v})-path exists")
    full = (1 << n) - 1

    def _type_a(part1, part2) -> TypeCertificate:
        """The two-part certificate for (u, w, v) on D⟨part1 ∪ part2⟩."""
        host = _mask(part1) | _mask(part2)
        arc = _unique_entering_arc(digraph, _mask(part1), host)
        cert = TypeCertificate(
            kind="A",
            parts=(tuple(sorted(part1)), tuple(sorted(part2))),
            back_arcs=(arc,),
            u=u,
            w=w,
            v=v,
        )
        ok, reason = _verify_type_certificate(digraph, cert, host)
        if not ok:
            raise InternalInconsistency(f"built an invalid certificate: {reason}")
        return cert

    if w == v:
        return _spanning_tree(digraph, u, "out", range(n)), ArcPath((v,))

    if u == w:
        result = two_arc_disjoint_out_branchings(digraph, u)
        if isinstance(result, tuple):
            first, second = result
            return first, second.spine(v)
        x_set = result.vertices
        x_mask = _mask(x_set)
        if result.indegree != 1:
            # u reaches every vertex, so every set avoiding u has an entering arc.
            raise InternalInconsistency("deficient set with in-degree 0 despite u∈Out")
        if v in x_set:
            return _type_a(x_set, [q for q in range(n) if q not in x_set])
        x_tail, y_head = _unique_entering_arc(digraph, x_mask, full)
        # Two arc-disjoint paths from u to {x_tail, v} inside D minus X.  A
        # super-sink at n absorbs one unit from each target; when the targets
        # coincide we ask for two arc-disjoint (u, x_tail)-paths directly.
        flow = [0 if x_mask >> q & 1 else mask & ~x_mask
                for q, mask in enumerate(digraph.out_masks())]
        if v == x_tail:
            sink = v
        else:
            sink = n
            flow.append(0)
            flow[x_tail] |= 1 << n
            flow[v] |= 1 << n
        value, fwd, back = _max_flow(flow, len(flow), 1 << u, sink, 2)
        if value == 2:
            used = [mask & ~rest for mask, rest in zip(flow, fwd)]
            paths = [p.vertices for p in _flow_paths(used, u, sink, 2)]
            if sink == n:
                paths = [p[:-1] for p in paths]
            path_ux = next((p for p in paths if p[-1] == x_tail), None)
            path_uv = next((p for p in paths if p[-1] == v and p is not path_ux), None)
            if path_ux is None or path_uv is None:
                raise InternalInconsistency("flow decomposition lost a target")
            return _branching_into(digraph, path_ux + (y_head,), x_set), ArcPath(path_uv)
        residual = [f | b for f, b in zip(fwd, back)]
        sink_side = _reach(_transpose(len(flow), residual), 1 << sink)
        u_side = [q for q in _bits(full & ~x_mask) if not (sink_side >> q & 1)]
        if u not in u_side or v in u_side:
            raise InternalInconsistency("flow cut does not separate u from v")
        return _type_a([q for q in range(n) if q not in u_side], u_side)

    # u ≠ w: auxiliary root s with arcs to u and w reduces the question to
    # two arc-disjoint out-branchings rooted at s.
    aux_masks = digraph.out_masks() + [(1 << u) | (1 << w)]
    aux = Digraph(n + 1, aux_masks)
    result = two_arc_disjoint_out_branchings(aux, n)
    if isinstance(result, tuple):
        if result[0].parent.get(u) == n:
            b_u, b_w = result
        else:
            b_w, b_u = result
        if b_u.parent.get(u) != n or b_w.parent.get(w) != n:
            raise InternalInconsistency("auxiliary arcs split across branchings")
        branching = Tree("out", u, {c: p for c, p in b_u.parent.items() if c != u})
        other = Tree("out", w, {c: p for c, p in b_w.parent.items() if c != w})
        return branching, other.spine(v)
    x_set = result.vertices
    x_mask = _mask(x_set)
    u_in = bool(x_mask >> u & 1)
    w_in = bool(x_mask >> w & 1)
    if u_in and w_in:
        raise InternalInconsistency("deficient set containing both roots")
    if w_in:
        raise InternalInconsistency("deficient set cut off from u despite u∈Out")
    if u_in:
        # Both auxiliary arc su and nothing else enter X, so X gets no arc of
        # D itself: X dominates the rest, and (w,v)-paths stay outside X.
        if v in x_set:
            raise InternalInconsistency("(w,v)-path exists but v sits in a closed set")
        branching = _branching_into(digraph, (u,), x_set)
        inner = bfs_tree(digraph, w, "out", within=_bits(full & ~x_mask))
        if v not in inner.covered():
            raise InternalInconsistency("(w,v)-path vanished outside the closed set")
        return branching, inner.spine(v)
    x_tail, y_head = _unique_entering_arc(aux, x_mask, (1 << aux.n) - 1)  # aux root ∉ X
    outcome = arc_disjoint_path_pair(digraph, u, y_head, w, v)
    if isinstance(outcome, tuple):
        path_uy, path_wv = outcome
        if path_uy.arcs()[-1] != (x_tail, y_head):
            raise InternalInconsistency("(u,y)-path enters the tight set irregularly")
        if _mask(path_wv.vertices) & x_mask:
            raise InternalInconsistency("(w,v)-path crosses the tight set")
        return _branching_into(digraph, path_uy.vertices, x_set), path_wv
    if isinstance(outcome, ConsecutiveSingletons):
        raise InternalInconsistency("singleton obstruction requires equal sources")
    assert isinstance(outcome, TypedObstruction)
    cert = outcome.certificate
    if (cert.u, cert.w, cert.v) == (u, w, v) and outcome.offending_target == y_head:
        return cert
    if (cert.u, cert.w, cert.v) != (w, u, y_head) or outcome.offending_target != v:
        raise InternalInconsistency("path-pair obstruction with unexpected roles")
    # Mirrored roles: v lands in the receiving part V1, whose in-degree is one
    # for every kind, so the partition collapses to a type-A certificate for
    # (u, w, v) on the same strong component.
    return _type_a(cert.parts[0], [q for part in cert.parts[1:] for q in part])


def _branching_into(digraph: Digraph, path, x_set) -> Tree:
    """Out-branching rooted at the start of `path`: the path, a breadth-first
    tree of `x_set` from the path's end, and an arc from that end to every
    vertex still uncovered.  The end is the only vertex of `x_set` on the
    path, and the path's last arc is the only arc entering `x_set` (or, for
    a one-vertex path, no arc enters it), so in a semicomplete digraph the
    end dominates every vertex outside `x_set`."""
    head = path[-1]
    parent = dict(zip(path[1:], path))
    parent.update(_spanning_tree(digraph, head, "out", x_set).parent)
    for q in range(digraph.n):
        if q != path[0]:
            parent.setdefault(q, head)
    branching = Tree("out", path[0], parent)
    ok, reason = branching.validate(digraph, within=range(digraph.n))
    if not ok:
        raise InternalInconsistency(f"assembled branching invalid: {reason}")
    return branching


def _unique_entering_arc(
    digraph: Digraph, part_mask: int, host_mask: int
) -> tuple[int, int]:
    """The single arc from host_mask∖part_mask into part_mask (asserts
    uniqueness)."""
    entering = _entering_arcs(digraph, part_mask, host_mask)
    if len(entering) != 1:
        raise InternalInconsistency(
            f"expected exactly one entering arc, found {sorted(entering)}"
        )
    return entering[0]
