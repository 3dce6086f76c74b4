"""Layered obstruction structures for arc-disjoint path pairs.

A TypeCertificate partitions the vertex set into ordered parts with every
cross-part arc pointing forward except a short list of exceptional back arcs.
Whenever such a structure places the roles (u, w, v) correctly, no pair of
arc-disjoint (u,z)- and (w,v)-paths exists for any z in the first part — so a
verified certificate is a machine-checkable NO answer.  This module verifies
certificates, detects them (scan for the two-part kind, bottom-up peeling for
the layered kinds), and implements the exact path-pair dichotomy on top of the
detector.
"""

from __future__ import annotations

from dataclasses import dataclass

from .branchings import Tree
from .digraph import (
    ArcPath,
    Digraph,
    _bfs_parents,
    _bits,
    _check_instance,
    _mask,
    _masked_components,
    _non_adjacent_pair,
    _reach,
    _semicomplete_components,
    strong_decomposition,
)
from .errors import InternalInconsistency, NoBasePath

# Node budget of every backtracking search in the package (here and in
# `goodpair._search_pair`).  Running out of it raises InternalInconsistency:
# it bounds the time a search may take and never turns into an answer.
_SEARCH_BUDGET = 1_000_000


@dataclass(frozen=True)
class TypeCertificate:
    """Ordered-partition obstruction structure.

    kind "A": two parts, v in part 1, u and w in part 2, and exactly one arc
    from part 2 back to part 1 (the single entry in back_arcs).
    kind "B": three parts, u and v in part 2, w in part 3, one back arc from
    part 3 to part 1.
    kind "chain": L >= 4 parts with one back arc from part i+2 to part i for
    each i <= L-2; v in part 2; for even L the roles w, u sit in parts L-1, L,
    for odd L they swap.  Back arcs of kinds B/chain run from the terminal
    component of their source part to the initial component of their target.
    """

    kind: str
    parts: tuple[tuple[int, ...], ...]
    back_arcs: tuple[tuple[int, int], ...]
    u: int
    w: int
    v: int

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "parts": [list(part) for part in self.parts],
            "back_arcs": [list(arc) for arc in self.back_arcs],
            "roles": {"u": self.u, "w": self.w, "v": self.v},
        }


@dataclass(frozen=True)
class ConsecutiveSingletons:
    """Both path requests share endpoints x, y whose strong components are
    consecutive singletons: the only (x,y)-path is the arc xy itself."""

    x: int
    y: int


@dataclass(frozen=True)
class TypedObstruction:
    """A TypeCertificate whose first part contains `offending_target` (= the
    target y_i of one request, with the certificate roles taken from the
    other request), proving the two paths cannot be made arc-disjoint."""

    certificate: TypeCertificate
    offending_target: int


def relabel_type_certificate(cert: TypeCertificate, mapping) -> TypeCertificate:
    """Certificate with every vertex pushed through `mapping` (dict or
    sequence indexed by old vertex id)."""
    return TypeCertificate(
        kind=cert.kind,
        parts=tuple(tuple(sorted(mapping[q] for q in part)) for part in cert.parts),
        back_arcs=tuple((mapping[t], mapping[h]) for t, h in cert.back_arcs),
        u=mapping[cert.u],
        w=mapping[cert.w],
        v=mapping[cert.v],
    )


def verify_type_certificate(
    digraph: Digraph, cert: TypeCertificate
) -> tuple[bool, str | None]:
    """True iff the certificate's every clause holds in `digraph`; otherwise
    False with the first violated clause spelled out."""
    return _verify_type_certificate(digraph, cert, (1 << digraph.n) - 1)


def _verify_type_certificate(
    digraph: Digraph, cert: TypeCertificate, host: int
) -> tuple[bool, str | None]:
    """`verify_type_certificate` on D⟨host⟩, the sub-digraph induced by the
    vertex mask `host`, in the digraph's own vertex ids: a vertex outside
    `host` counts as out of range and arcs leaving `host` are ignored."""

    def inside(q: int) -> bool:
        return 0 <= q and bool(host >> q & 1)

    bad = _non_adjacent_pair(digraph, host)
    if bad is not None:
        return False, f"digraph is not semicomplete: {bad[0]} and {bad[1]} non-adjacent"
    if cert.kind not in ("A", "B", "chain"):
        return False, f"unknown kind {cert.kind!r}"
    parts = cert.parts
    length = len(parts)
    expected = {"A": (2, 2), "B": (3, 3), "chain": (4, host.bit_count())}[cert.kind]
    if not expected[0] <= length <= expected[1]:
        return False, f"kind {cert.kind} cannot have {length} parts"
    seen = 0
    for i, part in enumerate(parts):
        if not part:
            return False, f"part {i + 1} is empty"
        if len(set(part)) != len(part):
            return False, f"part {i + 1} repeats a vertex"
        if not all(map(inside, part)):
            return False, f"part {i + 1} contains an out-of-range vertex"
        pm = _mask(part)
        if pm & seen:
            return False, f"part {i + 1} overlaps an earlier part"
        seen |= pm
    if seen != host:
        return False, "parts do not cover the vertex set"
    for name, role in (("u", cert.u), ("w", cert.w), ("v", cert.v)):
        if not inside(role):
            return False, f"role {name} out of range"
    part_index = [0] * digraph.n
    for i, part in enumerate(parts):
        for q in part:
            part_index[q] = i

    def placed(role: int, part: int) -> bool:
        return part_index[role] == part

    if cert.kind == "A":
        if not placed(cert.v, 0):
            return False, "role v must lie in part 1"
        if not (placed(cert.u, 1) and placed(cert.w, 1)):
            return False, "roles u and w must lie in part 2"
    elif cert.kind == "B":
        if not (placed(cert.u, 1) and placed(cert.v, 1)):
            return False, "roles u and v must lie in part 2"
        if not placed(cert.w, 2):
            return False, "role w must lie in part 3"
    else:
        if not placed(cert.v, 1):
            return False, "role v must lie in part 2"
        if length % 2 == 0:
            if not placed(cert.w, length - 2):
                return False, "role w must lie in the next-to-last part"
            if not placed(cert.u, length - 1):
                return False, "role u must lie in the last part"
        else:
            if not placed(cert.u, length - 2):
                return False, "role u must lie in the next-to-last part"
            if not placed(cert.w, length - 1):
                return False, "role w must lie in the last part"

    want_backs = 1 if cert.kind == "A" else length - 2
    if len(cert.back_arcs) != want_backs:
        return False, f"expected {want_backs} back arcs, got {len(cert.back_arcs)}"
    if len(set(cert.back_arcs)) != len(cert.back_arcs):
        return False, "back arcs repeat"
    for k, (tail, head) in enumerate(cert.back_arcs):
        if not (inside(tail) and inside(head)):
            return False, f"back arc {k + 1} out of range"
        if not digraph.has_arc(tail, head):
            return False, f"listed back arc ({tail},{head}) is not an arc"
        src = 1 if cert.kind == "A" else k + 2
        dst = 0 if cert.kind == "A" else k
        if part_index[tail] != src or part_index[head] != dst:
            return False, (
                f"back arc ({tail},{head}) must run from part {src + 1} "
                f"to part {dst + 1}"
            )
        if cert.kind != "A":
            out = digraph.out_masks()
            src_comps = _semicomplete_components(out, _mask(parts[src]))
            if not src_comps[-1] >> tail & 1:
                return False, (
                    f"tail of back arc ({tail},{head}) must lie in the "
                    f"terminal component of part {src + 1}"
                )
            dst_comps = _semicomplete_components(out, _mask(parts[dst]))
            if not dst_comps[0] >> head & 1:
                return False, (
                    f"head of back arc ({tail},{head}) must lie in the "
                    f"initial component of part {dst + 1}"
                )
    listed = set(cert.back_arcs)
    for tail in _bits(host):
        for head in _bits(digraph.out_mask(tail) & host):
            if part_index[tail] > part_index[head] and (tail, head) not in listed:
                return False, f"unlisted backward arc ({tail},{head})"
    return True, None


def verify_path_pair_obstruction(
    digraph: Digraph, x1: int, y1: int, x2: int, y2: int, obstruction
) -> tuple[bool, str | None]:
    """Re-check an arc_disjoint_path_pair NO answer from scratch."""
    _check_instance(digraph, x1, y1, x2, y2)
    if isinstance(obstruction, ConsecutiveSingletons):
        if x1 != x2 or y1 != y2:
            return False, "singleton obstruction needs equal sources and targets"
        if (obstruction.x, obstruction.y) != (x1, y1):
            return False, "obstruction names different endpoints"
        dec = strong_decomposition(digraph)
        cx, cy = dec.component_of[x1], dec.component_of[y1]
        if dec.components[cx] != (x1,):
            return False, "source component is not a singleton"
        if dec.components[cy] != (y1,):
            return False, "target component is not a singleton"
        if cy != cx + 1:
            return False, "endpoint components are not consecutive"
        return True, None
    if isinstance(obstruction, TypedObstruction):
        cert = obstruction.certificate
        dec = strong_decomposition(digraph)
        home = dec.component_of[x1]
        if any(dec.component_of[q] != home for q in (y1, x2, y2)):
            return False, "endpoints are spread over several strong components"
        covered = tuple(sorted(q for part in cert.parts for q in part))
        if covered != dec.components[home]:
            return False, "certificate does not cover the endpoints' component"
        ok, reason = _verify_type_certificate(digraph, cert, dec.mask_of(home))
        if not ok:
            return False, reason
        target = obstruction.offending_target
        if target not in cert.parts[0]:
            return False, "offending target is outside the first part"
        roles = (cert.u, cert.w, cert.v)
        if roles == (x1, x2, y2) and target == y1:
            return True, None
        if roles == (x2, x1, y1) and target == y2:
            return True, None
        return False, "certificate roles do not match the endpoints"
    return False, f"unrecognized obstruction {obstruction!r}"


# --------------------------------------------------------------------------
# Detection


def detect_obstruction_type(
    digraph: Digraph, u: int, w: int, v: int
) -> TypeCertificate | None:
    """Some Definition-style structure placing (u, w, v), or None.

    Soundness is unconditional (every candidate is verified before return);
    completeness comes from the peeling argument.
    """
    _check_instance(digraph, u, w, v)
    full = (1 << digraph.n) - 1
    return _detect(digraph, u, w, v, required=None, odd_only=False, host=full)


def detect_odd_chain(digraph: Digraph, u: int, v: int) -> TypeCertificate | None:
    """A structure with an odd number of parts beyond the minimum (five or
    more parts in total) placing v in the second part and u in the
    second-to-last part, with the third role unconstrained, or None.

    This is the placement whose presence rules out an arc-disjoint
    out-branching rooted at u and in-branching rooted at v.
    """
    _check_instance(digraph, u, v)
    full = (1 << digraph.n) - 1
    return _detect(digraph, u, None, v, required=None, odd_only=True, host=full)


def _detect(
    digraph: Digraph,
    u: int,
    w: int | None,
    v: int,
    required: int | None,
    odd_only: bool,
    host: int,
) -> TypeCertificate | None:
    """Detection inside D⟨host⟩, the sub-digraph induced by the vertex mask
    `host`, which holds every role; certificates come in the digraph's own
    vertex ids and partition `host`."""
    if host.bit_count() < 2:
        return None
    if not odd_only:
        cert = _scan_type_a(digraph, u, w, v, required, host)
        if cert is not None:
            return cert
    return _layer_search(digraph, u, w, v, required, odd_only, host)


def _scan_type_a(
    digraph: Digraph, u: int, w: int | None, v: int, required: int | None, host: int
) -> TypeCertificate | None:
    """Two-part structures of D⟨host⟩: part 2 must contain u, w and the back
    arc's tail and be closed once that arc is removed, with v (and the
    required vertex) left outside.  The reachability closure of {u, w, tail}
    is the minimal candidate, and any valid part 2 contains it, so testing
    the closure per arc is a complete scan."""
    out = [mask & host for mask in digraph.out_masks()]
    seeds = (1 << u) | (0 if w is None else 1 << w)
    forbidden_base = 1 << v
    if required is not None:
        forbidden_base |= 1 << required
    for tail, head in [(t, h) for t in _bits(host) for h in _bits(out[t])]:
        saved = out[tail]
        out[tail] = saved & ~(1 << head)
        closure = _reach(out, seeds | (1 << tail))
        out[tail] = saved
        if closure & (forbidden_base | (1 << head)):
            continue
        part2 = tuple(_bits(closure))
        part1 = tuple(_bits(host & ~closure))
        cert = TypeCertificate(
            kind="A",
            parts=(part1, part2),
            back_arcs=((tail, head),),
            u=u,
            w=u if w is None else w,
            v=v,
        )
        ok, reason = _verify_type_certificate(digraph, cert, host)
        if not ok:
            raise InternalInconsistency(f"two-part scan built a bad certificate: {reason}")
        return cert
    return None


def _interior_candidates(n: int, out, hmask: int, spend) -> list[tuple[int, int, int, int]]:
    """Every interior part X of D⟨hmask⟩ as (X, t, h, terminal): (t, h) is
    the one arc of D⟨hmask⟩ entering X, h lies in the initial component of
    D⟨X⟩, and `terminal` is the terminal component of D⟨X⟩.  Sorted on
    (X, t, h).  Each arc is taken out of the rows `out` and put back;
    `spend` is called once per arc.

    For each arc (t, h), D⟨hmask⟩ minus that arc is semicomplete except for
    the pair {t, h}, so its strong components, in topological order, form a
    chain, except that {t} and {h} may be two incomparable singletons.  Only
    (t, h) enters X, so X is a down-set of that order; h is initial in the
    semicomplete D⟨X⟩, so h's component is a source.  Hence X is a prefix of
    the chain that starts at h's component and stops before t's, once a
    leading {t}, {h} is swapped, and every such prefix qualifies.  The
    terminal component of D⟨X⟩ is the prefix's last component."""
    found = []
    for tail in _bits(hmask):
        for head in _bits(out[tail] & hmask):
            spend()
            out[tail] ^= 1 << head
            comps = _masked_components(n, out, hmask)
            out[tail] ^= 1 << head
            if len(comps) > 1 and comps[:2] == [1 << tail, 1 << head]:
                comps[:2] = comps[1::-1]
            if not comps[0] >> head & 1:
                continue
            xmask = 0
            for cmask in comps:
                if cmask >> tail & 1:
                    break
                xmask |= cmask
                found.append((xmask, tail, head, cmask))
    found.sort()
    return found


def _layer_search(
    digraph: Digraph,
    u: int,
    w: int | None,
    v: int,
    required: int | None,
    odd_only: bool,
    host: int,
) -> TypeCertificate | None:
    """Bottom-up search for B/chain structures of D⟨host⟩.

    Levels are peeled lowest-first.  An interior part X of the remainder H
    has exactly one entering arc (t, h) inside D⟨H⟩ (its back arc), with h in
    the initial component of D⟨X⟩; `_interior_candidates` reads them off one
    strong decomposition of D⟨H⟩ minus (t, h) per arc.  t is owed to the
    terminal component of the part two levels up — tracked as pend_next, then
    pend_here, and finally discharged by the terminal/last-part placement
    when the remainder splits into the top two parts (a prefix of the
    condensation of D⟨H⟩, which carries no backward arcs; the terminal
    component of each side is its last component).  Roles decide which split
    parities are acceptable."""
    n = digraph.n
    out = list(digraph.out_masks())
    ubit = 1 << u
    wbit = 0 if w is None else 1 << w
    vbit = 1 << v
    budget = [_SEARCH_BUDGET]
    failed: set[tuple[int, int | None, int, int]] = set()

    def spend() -> None:
        budget[0] -= 1
        if budget[0] < 0:
            raise InternalInconsistency("structure search budget exhausted")

    def split_candidates(hmask: int) -> list[tuple[int, int, int, int]]:
        comps = _semicomplete_components(out, hmask)
        found = []
        prefix = 0
        for cmask in comps[:-1]:
            prefix |= cmask
            found.append((prefix, cmask, hmask & ~prefix, comps[-1]))
        return found

    def rec(
        hmask: int,
        level: int,
        pend_here: int | None,
        pend_next: int | None,
        parts: list[int],
        backs: list[tuple[int, int]],
    ) -> TypeCertificate | None:
        spend()
        level_class = level if level <= 2 else (4 if level % 2 == 0 else 3)
        key = (hmask, pend_here, pend_next, level_class)
        if key in failed:
            return None
        if level >= 2:
            for pmask, pterm, smask, sterm in split_candidates(hmask):
                if pend_here is not None and not pterm >> pend_here & 1:
                    continue
                if not sterm >> pend_next & 1:
                    continue
                if level == 2:
                    if odd_only or w is None:
                        continue
                    if not (pmask >> u & 1 and pmask >> v & 1 and smask >> w & 1):
                        continue
                    kind = "B"
                    w_final = w
                elif level % 2 == 1:
                    if odd_only or w is None:
                        continue
                    if not (pmask >> w & 1 and smask >> u & 1):
                        continue
                    kind = "chain"
                    w_final = w
                else:
                    if not pmask >> u & 1:
                        continue
                    if w is not None:
                        if not smask >> w & 1:
                            continue
                        w_final = w
                    else:
                        w_final = (smask & -smask).bit_length() - 1
                    kind = "chain"
                cert = TypeCertificate(
                    kind=kind,
                    parts=tuple(
                        tuple(_bits(m)) for m in parts + [pmask, smask]
                    ),
                    back_arcs=tuple(backs),
                    u=u,
                    w=w_final,
                    v=v,
                )
                ok, reason = _verify_type_certificate(digraph, cert, host)
                if not ok:
                    raise InternalInconsistency(
                        f"layer search built a bad certificate: {reason}"
                    )
                return cert
        for xmask, tail, head, xterm in _interior_candidates(n, out, hmask, spend):
            if level == 1:
                if xmask & (ubit | wbit | vbit):
                    continue
                if required is not None and not xmask >> required & 1:
                    continue
            elif level == 2:
                if not xmask >> v & 1:
                    continue
                if xmask & (ubit | wbit):
                    continue
            else:
                if xmask & (ubit | wbit):
                    continue
            if pend_here is not None and not xterm >> pend_here & 1:
                continue
            if pend_next is not None and xmask >> pend_next & 1:
                continue
            found = rec(
                hmask & ~xmask,
                level + 1,
                pend_next,
                tail,
                parts + [xmask],
                backs + [(tail, head)],
            )
            if found is not None:
                return found
        failed.add(key)
        return None

    # Level 1 starts with the whole host and no pending tails.
    return rec(host, 1, None, None, [], [])


# --------------------------------------------------------------------------
# Path pairs


def _verified_paths(
    digraph: Digraph, requests, paths: tuple[ArcPath, ArcPath]
) -> tuple[ArcPath, ArcPath]:
    arcs_seen: set[tuple[int, int]] = set()
    for (s, t), path in zip(requests, paths):
        if path.start != s or path.end != t:
            raise InternalInconsistency("path endpoints drifted")
        if not path.in_digraph(digraph):
            raise InternalInconsistency("path uses a non-arc")
        for arc in path.arcs():
            if arc in arcs_seen:
                raise InternalInconsistency("paths share an arc")
            arcs_seen.add(arc)
    return paths


def arc_disjoint_path_pair(
    digraph: Digraph, x1: int, y1: int, x2: int, y2: int
):
    """Two arc-disjoint paths (x1→y1, x2→y2), or a verified obstruction.

    The dichotomy is exact for semicomplete digraphs: when neither an
    obstruction nor a pair is found the implementation is broken, and that
    surfaces as InternalInconsistency rather than a quiet wrong answer.
    """
    _check_instance(digraph, x1, y1, x2, y2)
    out = digraph.out_masks()
    for s, t in ((x1, y1), (x2, y2)):
        if not _reach(out, 1 << s) >> t & 1:
            raise NoBasePath(f"no ({s},{t})-path exists")
    if x1 == y1 or x2 == y2:
        # A single-vertex path consumes nothing, so the other request just
        # needs any path, which the precondition guarantees.
        first = ArcPath((x1,)) if x1 == y1 else _bfs_path(out, x1, y1)
        second = _bfs_path(out, x2, y2) if x2 != y2 else ArcPath((x2,))
        return _verified_paths(digraph, ((x1, y1), (x2, y2)), (first, second))
    dec = strong_decomposition(digraph)
    if x1 == x2 and y1 == y2:
        cx, cy = dec.component_of[x1], dec.component_of[y1]
        if (
            dec.components[cx] == (x1,)
            and dec.components[cy] == (y1,)
            and cy == cx + 1
        ):
            return ConsecutiveSingletons(x1, y1)
    home = dec.component_of[x1]
    if all(dec.component_of[q] == home for q in (y1, x2, y2)):
        # A typed structure can only block the pair when all four endpoints
        # share one strong component, and the structure lives on that
        # component's induced subdigraph, not on the whole digraph.
        for xa, ya, xb, yb in ((x1, y1, x2, y2), (x2, y2, x1, y1)):
            cert = _detect(
                digraph, xa, xb, yb, required=ya, odd_only=False, host=dec.mask_of(home)
            )
            if cert is not None:
                return TypedObstruction(cert, ya)
    pair = _search_paths(digraph, x1, y1, x2, y2)
    if pair is None:
        raise InternalInconsistency(
            "path-pair dichotomy violated: no obstruction and no paths found"
        )
    return _verified_paths(digraph, ((x1, y1), (x2, y2)), pair)


def _bfs_path(out_masks, s: int, t: int) -> ArcPath | None:
    """A shortest (s,t)-path along the rows `out_masks`, or None."""
    parent = _bfs_parents(out_masks, s, (1 << len(out_masks)) - 1)
    if t != s and t not in parent:
        return None
    return Tree("out", s, parent).spine(t)


def _search_paths(
    digraph: Digraph, x1: int, y1: int, x2: int, y2: int
) -> tuple[ArcPath, ArcPath] | None:
    """Depth-first over the first path's vertex sequence (successors ordered
    by distance to the target, so short paths come first), with a residual
    reachability check for the second path at every completion."""
    n = digraph.n
    out = digraph.out_masks()
    ins = digraph.in_masks()
    # distance-to-y1 for ordering and for pruning unreachable successors
    dist = [None] * n
    dist[y1] = 0
    for p, q in _bfs_parents(ins, y1, (1 << n) - 1).items():
        dist[p] = dist[q] + 1
    used = [0] * n
    prefix = [x1]
    on_prefix = 1 << x1
    budget = [_SEARCH_BUDGET]

    def rec() -> tuple[ArcPath, ArcPath] | None:
        nonlocal on_prefix
        budget[0] -= 1
        if budget[0] < 0:
            raise InternalInconsistency(
                "path search budget exhausted before the dichotomy resolved"
            )
        vertex = prefix[-1]
        if vertex == y1:
            residual = [out[q] & ~used[q] for q in range(n)]
            second = _bfs_path(residual, x2, y2)
            if second is not None:
                return ArcPath(tuple(prefix)), second
            return None
        successors = sorted(
            (q for q in _bits(out[vertex] & ~on_prefix) if dist[q] is not None),
            key=lambda q: (dist[q], q),
        )
        for nxt in successors:
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
