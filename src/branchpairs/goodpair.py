"""Deciding and building arc-disjoint out-/in-branching pairs.

`decide_good_pair` answers whether a semicomplete digraph carries an
out-branching rooted at u and an in-branching rooted at v that share no arc,
returning None for yes and a structural certificate for no.  The no answers
come in four shapes: isomorphism to one of six catalogued small digraphs with
the roots pinned, a root outside the initial/terminal component of a
non-strong digraph, a single arc whose removal strands both roots at once,
and an odd-length layered partition.  `construct_good_pair` produces a
verified pair whenever the answer is yes, growing one tree on each side of a
cut arc and stitching them together with `extend_trees_across_cut`; a bounded
parent-choice search backs up the closed-form moves.  `same_root_pair`
handles the shared-root case, and `verify_good_pair` / `verify_certificate`
re-check both kinds of answer independently of how they were produced.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import structures
from .branchings import GoodPair, Tree, _spanning_tree, bfs_tree, out_branching_vs_path
from .digraph import (
    ArcPath,
    Digraph,
    StrongDecomposition,
    _bits,
    _breaking_arcs,
    _check_instance,
    _entering_arcs,
    _masked_components,
    _reach,
    small_isomorphism,
    strong_decomposition,
)
from .errors import InternalInconsistency, NotStrong, PreconditionViolated
from .fixtures import exception_catalog
from .hamilton import _chain_components, _hamiltonian_cycle, _rotate
from .structures import TypeCertificate, detect_odd_chain, verify_type_certificate


# --------------------------------------------------------------------------
# Certificates


@dataclass(frozen=True)
class SmallException:
    """The digraph is one of the six catalogued exceptions with the roots in
    the forbidden position.  `iso` maps each catalog vertex to the digraph
    vertex holding its place."""

    catalog_id: str
    iso: tuple[int, ...]


@dataclass(frozen=True)
class RootMisplaced:
    """The digraph is not strong and the named root sits outside the
    component every branching of its kind must start from."""

    decomposition: StrongDecomposition
    which: str  # "u-not-initial" or "v-not-terminal"


@dataclass(frozen=True)
class CutArcObstruction:
    """Removing `arc` leaves u outside the initial component and v outside
    the terminal component.  Any pair leaves `arc` unused in at least one
    tree, and that tree could not have spanned without it."""

    arc: tuple[int, int]
    decomposition: StrongDecomposition


@dataclass(frozen=True)
class ChainObstruction:
    """An odd-length layered partition (five or more parts) placing v in the
    second part and u in the second-to-last part."""

    certificate: TypeCertificate


NoPairCertificate = SmallException | RootMisplaced | CutArcObstruction | ChainObstruction


@dataclass(frozen=True)
class SameRootStructure:
    """Witness that no pair can share its root u.

    A holds the vertices only dominated by u, B those only dominating u, C
    the rest.  `arc` is simultaneously the unique arc leaving the terminal
    component of D<A> and the unique arc entering the initial component of
    D<B>, so every out-branching and every in-branching rooted at u must both
    use it."""

    a_set: tuple[int, ...]
    b_set: tuple[int, ...]
    c_set: tuple[int, ...]
    arc: tuple[int, int]


# --------------------------------------------------------------------------
# Strong profile


@dataclass(frozen=True)
class _Profile:
    """Facts shared by every root choice on one digraph.

    `cycle` is a hamiltonian cycle for a strong digraph of order two or more,
    else None.  Removing an arc off that cycle keeps the cycle, so only cycle
    arcs can be cut arcs: `cut_entries` holds each cycle arc whose removal
    breaks strong connectivity, ascending, with the decomposition that removal
    leaves.  `chains` keeps the odd-chain detection result per root pair, so
    that construction after a decision does not detect again.
    """

    decomposition: StrongDecomposition
    cycle: ArcPath | None
    cut_entries: tuple[tuple[tuple[int, int], StrongDecomposition], ...]
    chains: dict[tuple[int, int], TypeCertificate | None] = field(default_factory=dict)

    @property
    def two_arc_strong(self) -> bool:
        """λ(D) ≥ 2: strong, of order two or more, and without a cut arc."""
        return self.cycle is not None and not self.cut_entries


def _strong_profile(digraph: Digraph) -> _Profile:
    """The profile of a semicomplete `digraph`, computed on first use and kept
    on the instance, so that it lives exactly as long as the digraph."""
    profile = digraph._profile
    if profile is None:
        dec = strong_decomposition(digraph)
        cycle, entries = None, ()
        if dec.is_strong and digraph.n >= 2:
            cycle = _hamiltonian_cycle(digraph)
            vs = cycle.vertices
            cycle_arcs = sorted(zip(vs, vs[1:] + vs[:1]))
            entries = tuple(
                (arc, strong_decomposition(digraph.without_arc(*arc)))
                for arc in _breaking_arcs(digraph, cycle_arcs)
            )
        profile = digraph._profile = _Profile(dec, cycle, entries)
    return profile


# --------------------------------------------------------------------------
# Decision


def decide_good_pair(digraph: Digraph, u: int, v: int) -> NoPairCertificate | None:
    """None when an arc-disjoint out-branching rooted at u and in-branching
    rooted at v exist, otherwise a certificate of impossibility.

    The certificate shapes are tried in a fixed order: catalogued small
    exception, misplaced root in a non-strong digraph, single arc stranding
    both roots, odd-length layered partition.  A 2-arc-strong digraph always
    has a pair: the last two shapes need an arc whose removal matters, and no
    catalog member is 2-arc-strong.

    Everything that does not depend on the roots is computed once per
    digraph and kept on it: the strong decomposition and, for a strong
    digraph, one hamiltonian cycle whose arcs are the only candidates for
    cut arcs (one reachability test each), with the decomposition each cut
    arc leaves behind.  Odd-chain results are kept per root pair, so that
    `construct_good_pair` on the same digraph does not detect again.
    """
    return _decide(digraph, u, v)[0]


def _decide(digraph: Digraph, u: int, v: int):
    """The decision together with the digraph's strong profile (None when
    the answer needed none), so that construction can reuse it."""
    _check_instance(digraph, u, v)
    n = digraph.n
    if n == 1:
        return None, None
    if u != v and 2 <= n <= 4:
        for catalog_id, member, member_u, member_v in exception_catalog():
            if member.n != n:
                continue
            image = small_isomorphism(member, digraph, role_map={member_u: u, member_v: v})
            if image is not None:
                return SmallException(catalog_id, tuple(image)), None
    profile = _strong_profile(digraph)
    dec = profile.decomposition
    if not dec.is_strong:
        if u not in dec.initial:
            return RootMisplaced(dec, "u-not-initial"), profile
        if v not in dec.terminal:
            return RootMisplaced(dec, "v-not-terminal"), profile
        return None, profile
    if profile.two_arc_strong:
        return None, profile
    for arc, reduced_dec in profile.cut_entries:
        if u not in reduced_dec.initial and v not in reduced_dec.terminal:
            return CutArcObstruction(arc, reduced_dec), profile
    if u != v and n >= 5:
        if (u, v) not in profile.chains:
            profile.chains[u, v] = detect_odd_chain(digraph, u, v)
        cert = profile.chains[u, v]
        if cert is not None:
            return ChainObstruction(cert), profile
    return None, profile


# --------------------------------------------------------------------------
# Verification


def verify_good_pair(
    digraph: Digraph, u: int, v: int, pair: GoodPair
) -> tuple[bool, str | None]:
    """True iff the pair is a spanning out-branching rooted at u and a
    spanning in-branching rooted at v without a common arc."""
    _check_instance(digraph, u, v)
    reason = _pair_problem(digraph, u, v, pair)
    return reason is None, reason


def _pair_problem(digraph: Digraph, u: int, v: int, pair: GoodPair) -> str | None:
    """The first reason why `pair` is not a good (u, v)-pair, or None."""
    out_tree = pair.out_branching
    in_tree = pair.in_branching
    if out_tree.kind != "out":
        return "first tree is not an out-tree"
    if in_tree.kind != "in":
        return "second tree is not an in-tree"
    if out_tree.root != u:
        return f"out-branching is rooted at {out_tree.root}, not {u}"
    if in_tree.root != v:
        return f"in-branching is rooted at {in_tree.root}, not {v}"
    everything = range(digraph.n)
    ok, reason = out_tree.validate(digraph, within=everything)
    if not ok:
        return f"out-branching: {reason}"
    ok, reason = in_tree.validate(digraph, within=everything)
    if not ok:
        return f"in-branching: {reason}"
    shared = out_tree.arc_set() & in_tree.arc_set()
    if shared:
        return f"trees share the arc {min(shared)}"
    return None


def verify_certificate(
    digraph: Digraph, u: int, v: int, certificate
) -> tuple[bool, str | None]:
    """Re-check a no-pair certificate against the digraph from scratch."""
    _check_instance(digraph, u, v)
    if isinstance(certificate, SmallException):
        return _verify_small_exception(digraph, u, v, certificate)
    if isinstance(certificate, RootMisplaced):
        dec = strong_decomposition(digraph)
        if dec != certificate.decomposition:
            return False, "stored decomposition does not match the digraph"
        if dec.is_strong:
            return False, "digraph is strong, so no root can be misplaced"
        if certificate.which == "u-not-initial":
            if u in dec.initial:
                return False, "u does lie in the initial component"
            return True, None
        if certificate.which == "v-not-terminal":
            if v in dec.terminal:
                return False, "v does lie in the terminal component"
            return True, None
        return False, f"unknown reason {certificate.which!r}"
    if isinstance(certificate, CutArcObstruction):
        tail, head = certificate.arc
        if not (0 <= tail < digraph.n and 0 <= head < digraph.n):
            return False, "stored arc out of range"
        if not digraph.has_arc(tail, head):
            return False, f"({tail},{head}) is not an arc of the digraph"
        reduced_dec = strong_decomposition(digraph.without_arc(tail, head))
        if reduced_dec != certificate.decomposition:
            return False, "stored decomposition does not match the reduced digraph"
        if u in reduced_dec.initial:
            return False, "u still reaches every vertex without the arc"
        if v in reduced_dec.terminal:
            return False, "v is still reached from every vertex without the arc"
        return True, None
    if isinstance(certificate, ChainObstruction):
        cert = certificate.certificate
        ok, reason = verify_type_certificate(digraph, cert)
        if not ok:
            return False, reason
        if cert.kind != "chain":
            return False, f"certificate kind {cert.kind!r} does not rule the pair out"
        if len(cert.parts) % 2 == 0 or len(cert.parts) < 5:
            return False, "only odd partitions of five or more parts apply"
        if cert.u != u or cert.v != v:
            return False, "certificate roles do not match the requested roots"
        return True, None
    if isinstance(certificate, SameRootStructure):
        return _verify_same_root_structure(digraph, u, v, certificate)
    return False, f"unrecognized certificate {certificate!r}"


def _verify_small_exception(
    digraph: Digraph, u: int, v: int, certificate: SmallException
) -> tuple[bool, str | None]:
    entry = None
    for catalog_id, member, member_u, member_v in exception_catalog():
        if catalog_id == certificate.catalog_id:
            entry = (member, member_u, member_v)
    if entry is None:
        return False, f"unknown catalog id {certificate.catalog_id!r}"
    member, member_u, member_v = entry
    iso = certificate.iso
    if member.n != digraph.n:
        return False, "catalog member and digraph have different orders"
    if len(iso) != member.n or sorted(iso) != list(range(member.n)):
        return False, "stored mapping is not a bijection"
    for p in range(member.n):
        for q in range(member.n):
            if p != q and member.has_arc(p, q) != digraph.has_arc(iso[p], iso[q]):
                return False, f"mapping does not preserve the pair ({p},{q})"
    if iso[member_u] != u or iso[member_v] != v:
        return False, "mapping does not pin the roots"
    return True, None


def _verify_same_root_structure(
    digraph: Digraph, u: int, v: int, certificate: SameRootStructure
) -> tuple[bool, str | None]:
    if u != v:
        return False, "a shared-root structure needs u == v"
    structure = _same_root_structure(digraph, u)
    if structure is None:
        return False, "the digraph does not carry the structure at this root"
    if structure != certificate:
        return False, "stored structure does not match the digraph"
    return True, None


# --------------------------------------------------------------------------
# Shared root


def same_root_pair(digraph: Digraph, u: int) -> GoodPair | SameRootStructure:
    """A good pair rooted twice at u, or the structure forbidding one.

    The structure partitions the other vertices by their adjacency with u:
    A (only dominated by u), B (only dominating u), C (joined both ways).
    When one single arc is both the only way out of the terminal component of
    D<A> and the only way into the initial component of D<B>, every
    out-branching rooted at u needs it to reach B and every in-branching
    rooted at u needs it to drain A, so no arc-disjoint pair exists.
    """
    _check_instance(digraph, u)
    if digraph.n == 1:
        return GoodPair(Tree("out", u), Tree("in", u))
    profile = _strong_profile(digraph)
    if not profile.decomposition.is_strong:
        raise NotStrong("a shared-root pair needs a strong digraph")
    structure = _same_root_structure(digraph, u)
    if structure is not None:
        return structure
    return _cycle_pair(digraph, u, u, profile.cycle)


def _same_root_structure(digraph: Digraph, u: int) -> SameRootStructure | None:
    n = digraph.n
    out_mask = digraph.out_mask(u)
    in_mask = digraph.in_mask(u)
    a_mask = out_mask & ~in_mask
    b_mask = in_mask & ~out_mask
    if not a_mask or not b_mask:
        return None
    full = (1 << n) - 1
    masks = list(digraph.out_masks())
    terminal = _masked_components(n, masks, a_mask)[-1]
    leaving = _entering_arcs(digraph.reverse(), terminal, full)
    if len(leaving) != 1:
        return None
    initial = _masked_components(n, masks, b_mask)[0]
    entering = _entering_arcs(digraph, initial, full)
    if entering != [leaving[0][::-1]]:
        return None
    return SameRootStructure(
        tuple(_bits(a_mask)),
        tuple(_bits(b_mask)),
        tuple(_bits(out_mask & in_mask)),
        entering[0],
    )


# --------------------------------------------------------------------------
# Tree extension across a side boundary

_EXTENSION_MODES = ("no-arc", "in-tree-arc", "back-arc")


@dataclass(frozen=True)
class ExtensionObstruction:
    """Leftover configuration when no closed-form augmentation move applies.

    `case` names the verified shape: "small" - every arc inside the relevant
    sides already sits in the trees, bounding them to three vertices in
    total; "saturated-target" - the out side is the single vertex b and every
    arc into a is already used by the in-tree; "two-two" - both sides are
    single used arcs pointing away from the boundary; "singleton-target" /
    "singleton-source" - one side is a single vertex and the unused arcs of
    the other side all touch its boundary vertex with no usable combination.

    An obstruction means the move table gives up, not that no extension
    exists; `_cut_arc_pair` falls back to a search.
    """

    mode: str
    case: str
    x_set: tuple[int, ...]
    y_set: tuple[int, ...]


def extend_trees_across_cut(
    digraph: Digraph,
    out_tree: Tree,
    in_tree: Tree,
    x_set,
    y_set,
    mode: str,
    arc: tuple[int, int] | None = None,
) -> tuple[Tree, Tree] | ExtensionObstruction:
    """Grow an out-tree covering side X and an in-tree covering side Y into
    two spanning branchings, using only arcs between the sides plus the few
    inner arcs the move formulas name.

    The sides must partition the vertex set, every cross pair must carry the
    forward arc from X to Y unused by both trees, and the backward direction
    must be empty - except for the designated `arc` from Y to X, whose
    handling the mode selects: "no-arc" (no designated arc; backward arcs may
    exist but must be unused), "in-tree-arc" (the arc already sits in the
    in-tree), "back-arc" (the arc is present and unused, and each tree covers
    exactly its own side).  Returns the two extended trees, or an
    ExtensionObstruction when no move applies.
    """
    _check_instance(digraph)
    x = frozenset(x_set)
    y = frozenset(y_set)
    n = digraph.n
    if not x or not y:
        raise PreconditionViolated("both sides must be nonempty")
    if x & y:
        raise PreconditionViolated("the sides overlap")
    if x | y != set(range(n)):
        raise PreconditionViolated("the sides must partition the vertex set")
    if mode not in _EXTENSION_MODES:
        raise PreconditionViolated(f"unknown mode {mode!r}")
    if mode == "no-arc":
        if arc is not None:
            raise PreconditionViolated("mode 'no-arc' takes no designated arc")
        a = b = None
    else:
        if arc is None:
            raise PreconditionViolated(f"mode {mode!r} needs a designated arc")
        a, b = arc
        if a not in y or b not in x:
            raise PreconditionViolated(
                "the designated arc must run from the in side to the out side"
            )
    if out_tree.kind != "out" or in_tree.kind != "in":
        raise PreconditionViolated("tree kinds must be 'out' and 'in'")
    ok, reason = out_tree.validate(digraph)
    if not ok:
        raise PreconditionViolated(f"out-tree invalid: {reason}")
    ok, reason = in_tree.validate(digraph)
    if not ok:
        raise PreconditionViolated(f"in-tree invalid: {reason}")
    if not x <= out_tree.covered():
        raise PreconditionViolated("the out-tree must cover its whole side")
    if not y <= in_tree.covered():
        raise PreconditionViolated("the in-tree must cover its whole side")
    if out_tree.arc_set() & in_tree.arc_set():
        raise PreconditionViolated("the trees share an arc")
    used = out_tree.arc_set() | in_tree.arc_set()
    for p in sorted(x):
        for q in sorted(y):
            if mode != "no-arc" and p == b and q == a:
                continue
            if not digraph.has_arc(p, q):
                raise PreconditionViolated(f"missing forward arc ({p},{q})")
            if (p, q) in used:
                raise PreconditionViolated(f"cross arc ({p},{q}) is already used")
            if digraph.has_arc(q, p):
                if mode != "no-arc":
                    raise PreconditionViolated(f"unexpected backward arc ({q},{p})")
                if (q, p) in used:
                    raise PreconditionViolated(f"cross arc ({q},{p}) is already used")
    if mode == "in-tree-arc":
        pair_used = [
            e for e in ((a, b), (b, a)) if digraph.has_arc(*e) and e in used
        ]
        if len(pair_used) != 1 or pair_used[0] not in in_tree.arc_set():
            raise PreconditionViolated(
                "exactly one arc between the designated pair may be used, "
                "and by the in-tree"
            )
    elif mode == "back-arc":
        if not digraph.has_arc(a, b):
            raise PreconditionViolated(f"designated arc ({a},{b}) is missing")
        if (a, b) in used or (digraph.has_arc(b, a) and (b, a) in used):
            raise PreconditionViolated("arcs between the designated pair must be unused")
        if y & out_tree.covered() or x & in_tree.covered():
            raise PreconditionViolated(
                "back-arc mode needs each tree confined to its own side"
            )

    if mode == "no-arc":
        moved = _moves_no_arc(digraph, out_tree, in_tree, x, y)
    elif mode == "in-tree-arc":
        moved = _moves_in_tree_arc(digraph, out_tree, in_tree, x, y, a, b)
    else:
        moved = _mirrored(_back_arc_primal, digraph, out_tree, in_tree, x, y, a, b)
    if moved is not None:
        reason = _pair_problem(digraph, out_tree.root, in_tree.root, GoodPair(*moved))
        if reason is not None:
            raise InternalInconsistency(f"extension built a bad pair: {reason}")
        return moved

    if mode == "no-arc":
        case = "small"
    elif mode == "in-tree-arc":
        case = "saturated-target" if x == {b} else "small"
    elif len(y) == 1:
        case = "singleton-target"
    elif len(x) == 1:
        case = "singleton-source"
    else:
        case = "two-two"
    ok, reason = _obstruction_shape(digraph, out_tree, in_tree, x, y, a, b, mode, case)
    if not ok:
        raise InternalInconsistency(
            f"no extension move applies but the leftover shape fails: {reason}"
        )
    return ExtensionObstruction(mode, case, tuple(sorted(x)), tuple(sorted(y)))


def _mirrored(primal, digraph, out_tree, in_tree, x, y, *arc):
    """The move of the table `primal`, else its move on the reverse digraph
    with the trees, the sides and the designated arc (if any) swapped, turned
    back; None when neither applies."""
    moved = primal(digraph, out_tree, in_tree, x, y, *arc)
    if moved is not None:
        return moved
    moved = primal(
        digraph.reverse(), in_tree.reversed_kind(), out_tree.reversed_kind(), y, x,
        *arc[::-1],
    )
    if moved is not None:
        rev_out, rev_in = moved
        return rev_in.reversed_kind(), rev_out.reversed_kind()
    return None


def _moves_no_arc(digraph, out_tree, in_tree, x, y):
    moved = _mirrored(_no_arc_primal, digraph, out_tree, in_tree, x, y)
    if moved is not None:
        return moved
    return _crossing_move(out_tree, in_tree, x, y)


def _crossing_move(out_tree, in_tree, xs, ys):
    """The 2×2 crossing move: with sides xs = {x1, x2} and ys = {y1, y2}
    (sorted), the out-tree takes (x1, y1), (x2, y2) and the in-tree the
    crossing arcs (x1, y2), (x2, y1).  None unless both sides have two
    vertices."""
    if len(xs) != 2 or len(ys) != 2:
        return None
    x1, x2 = sorted(xs)
    y1, y2 = sorted(ys)
    out2 = out_tree.with_arcs([(x1, y1), (x2, y2)])
    in2 = in_tree.with_arcs([(x1, y2), (x2, y1)])
    return out2, in2


def _no_arc_primal(digraph, out_tree, in_tree, x, y):
    """Extend through a vertex of X the in-tree already covers, or through an
    unused arc inside X; mirrored by the caller for the Y side."""
    xp = x & in_tree.covered()
    yp = y & out_tree.covered()
    used = out_tree.arc_set() | in_tree.arc_set()
    if xp:
        x1 = min(xp)
        out2 = out_tree.with_arcs((x1, r) for r in sorted(y - yp))
        y0 = min(y)
        in2 = in_tree.with_arcs((r, y0) for r in sorted(x - xp))
        return out2, in2
    for alpha in sorted(x):
        for beta in sorted(x):
            if alpha == beta or not digraph.has_arc(alpha, beta):
                continue
            if (alpha, beta) in used:
                continue
            out2 = out_tree.with_arcs((alpha, r) for r in sorted(y - yp))
            y0 = min(y)
            in2 = in_tree.with_arcs(
                [(r, y0) for r in sorted(x - {alpha})] + [(alpha, beta)]
            )
            return out2, in2
    return None


def _moves_in_tree_arc(digraph, out_tree, in_tree, x, y, a, b):
    """Move table for the mode where the boundary arc (a, b) already belongs
    to the in-tree, so b is the one X vertex the in-tree covers."""
    used = out_tree.arc_set() | in_tree.arc_set()
    xp = x & in_tree.covered()
    yp = y & out_tree.covered()
    if xp - {b}:
        x1 = min(xp - {b})
        out2 = out_tree.with_arcs((x1, r) for r in sorted(y - yp))
        in2 = in_tree.with_arcs((r, a) for r in sorted(x - xp))
        return out2, in2
    if x == {b}:
        if a in yp:
            return out_tree.with_arcs((b, r) for r in sorted(y - yp)), in_tree
        for t in sorted((x | y) - {a}):
            if digraph.has_arc(t, a) and (t, a) not in used:
                out2 = out_tree.with_arcs(
                    [(b, r) for r in sorted(y - yp - {a})] + [(t, a)]
                )
                return out2, in_tree
        return None
    for w in sorted(x - {b}):
        for z in sorted(x - {w}):
            if digraph.has_arc(w, z) and (w, z) not in used:
                out2 = out_tree.with_arcs((w, r) for r in sorted(y - yp))
                in2 = in_tree.with_arcs(
                    [(w, z)] + [(r, a) for r in sorted(x - {b, w})]
                )
                return out2, in2
    if yp:
        y1 = min(yp)
        x0 = min(x - {b})
        out2 = out_tree.with_arcs((x0, r) for r in sorted(y - yp))
        in2 = in_tree.with_arcs((r, y1) for r in sorted(x - {b}))
        return out2, in2
    for g in sorted(y):
        for d in sorted(y - {g}):
            if digraph.has_arc(g, d) and (g, d) not in used:
                x0 = min(x - {b})
                out2 = out_tree.with_arcs(
                    [(g, d)] + [(x0, r) for r in sorted(y - {d})]
                )
                in2 = in_tree.with_arcs((r, d) for r in sorted(x - {b}))
                return out2, in2
    return _crossing_move(out_tree, in_tree, x - {b}, y)


def _back_arc_primal(digraph, out_tree, in_tree, x, y, a, b):
    """Move table for the mode with an unused arc (a, b) against the grain;
    the caller mirrors it to cover the symmetric cases."""
    used = out_tree.arc_set() | in_tree.arc_set()
    if len(x) >= 3 and len(y) >= 2:
        x1, x2 = sorted(x - {b})[:2]
        y1 = min(y - {a})
        out2 = out_tree.with_arcs(
            [(x1, y1), (x2, a)] + [(b, r) for r in sorted(y - {a, y1})]
        )
        in2 = in_tree.with_arcs([(x1, a)] + [(r, y1) for r in sorted(x - {x1})])
        return out2, in2
    if len(y) >= 2:
        y1 = min(y - {a})
        for w in sorted(x - {b}):
            for z in sorted(x - {w}):
                if digraph.has_arc(w, z) and (w, z) not in used:
                    out2 = out_tree.with_arcs((w, r) for r in sorted(y))
                    in2 = in_tree.with_arcs(
                        [(w, z)] + [(r, y1) for r in sorted(x - {w})]
                    )
                    return out2, in2
    if len(x) == 2 and len(y) == 2:
        x_other = min(x - {b})
        y_other = min(y - {a})
        if digraph.has_arc(x_other, b) and out_tree.parent.get(b) == x_other:
            # Reroute the out-tree through the boundary: b hangs below a, a
            # below its old parent, freeing (x_other, b) for the in-tree.
            parent = dict(out_tree.parent)
            parent[b] = a
            parent[a] = x_other
            parent[y_other] = x_other
            out2 = Tree("out", out_tree.root, parent)
            in2 = in_tree.with_arcs([(x_other, b), (b, y_other)])
            return out2, in2
        if (
            digraph.has_arc(b, x_other)
            and (b, x_other) not in used
            and digraph.has_arc(y_other, a)
            and (y_other, a) not in used
        ):
            out2 = out_tree.with_arcs([(b, y_other), (y_other, a)])
            in2 = in_tree.with_arcs([(b, x_other), (x_other, a)])
            return out2, in2
    if len(y) == 1:
        inner_unused = sorted(_inner_arcs(digraph, x) - used)
        b_outs = [e for e in inner_unused if e[0] == b]
        others = [e for e in inner_unused if e[0] != b]
        for _, bo in b_outs:
            for w, z in others:
                if z == b and bo == w:
                    continue  # the two arcs would close a 2-cycle below
                out2 = out_tree.with_arcs([(w, a)])
                in2 = in_tree.with_arcs(
                    [(r, a) for r in sorted(x - {b, w})] + [(w, z), (b, bo)]
                )
                return out2, in2
        parent_b = out_tree.parent.get(b)
        if parent_b is not None:
            for _, w in b_outs:
                if w == parent_b:
                    continue
                # Reroute: b hangs below a through the boundary arc, and the
                # freed tree arc lets its old parent drain through b.
                parent = dict(out_tree.parent)
                parent[b] = a
                parent[a] = parent_b
                out2 = Tree("out", out_tree.root, parent)
                in2 = in_tree.with_arcs(
                    [(parent_b, b), (b, w), (w, a)]
                    + [(r, a) for r in sorted(x - {b, w, parent_b})]
                )
                return out2, in2
        if digraph.has_arc(b, a) and (b, a) not in used:
            for w0, z in others:
                if z != b:
                    continue
                out2 = out_tree.with_arcs([(w0, a)])
                in2 = in_tree.with_arcs(
                    [(w0, b), (b, a)] + [(r, a) for r in sorted(x - {b, w0})]
                )
                return out2, in2
    return None


def _inner_arcs(digraph, vertices) -> frozenset[tuple[int, int]]:
    return frozenset(
        (p, q)
        for p in vertices
        for q in vertices
        if p != q and digraph.has_arc(p, q)
    )


def _side_exhausted(digraph, side, tree) -> bool:
    if len(side) == 1:
        return True
    return len(side) == 2 and _inner_arcs(digraph, side) <= tree.arc_set()


def _obstruction_shape(digraph, out_tree, in_tree, x, y, a, b, mode, case):
    """Re-derive the shape an exhausted move table guarantees; a failure here
    means the move table or its caller is broken, not the input."""
    used = out_tree.arc_set() | in_tree.arc_set()
    xp = x & in_tree.covered()
    yp = y & out_tree.covered()
    if mode == "no-arc":
        if xp or yp:
            return False, "a side vertex is covered by the partner tree"
        if len(x) + len(y) > 3:
            return False, "sides too large for an exhausted move table"
        if not _side_exhausted(digraph, x, out_tree):
            return False, "unused arc left inside the out side"
        if not _side_exhausted(digraph, y, in_tree):
            return False, "unused arc left inside the in side"
        return True, None
    if mode == "in-tree-arc":
        if xp != {b}:
            return False, "in-tree coverage of the out side is not exactly b"
        if case == "saturated-target":
            if x != {b}:
                return False, "out side is more than the designated vertex"
            if a in yp:
                return False, "the target is already covered by the out-tree"
            for t in sorted((x | y) - {a}):
                if digraph.has_arc(t, a) and (t, a) not in in_tree.arc_set():
                    return False, f"arc ({t},{a}) is still available"
            return True, None
        if yp:
            return False, "the out-tree still covers part of the in side"
        if len(x - {b}) + len(y) > 3:
            return False, "sides too large for an exhausted move table"
        for p, q in sorted(_inner_arcs(digraph, x) - out_tree.arc_set()):
            if p != b:
                return False, f"unused arc ({p},{q}) does not leave b"
        if not _inner_arcs(digraph, y) <= in_tree.arc_set():
            return False, "unused arc left inside the in side"
        return True, None
    if case == "two-two":
        if len(x) != 2 or len(y) != 2:
            return False, "move table cannot exhaust on sides this large"
        x_other = min(x - {b})
        y_other = min(y - {a})
        if _inner_arcs(digraph, x) != {(b, x_other)} or (b, x_other) not in out_tree.arc_set():
            return False, "out side is not a single used arc leaving b"
        if _inner_arcs(digraph, y) != {(y_other, a)} or (y_other, a) not in in_tree.arc_set():
            return False, "in side is not a single used arc entering a"
        return True, None
    if case == "singleton-target":
        if y != {a}:
            return False, "in side is more than the designated vertex"
        unused = _inner_arcs(digraph, x) - used
        from_b = {e for e in unused if e[0] == b}
        others = unused - from_b
        if not from_b or not others:
            return True, None
        if len(unused) == 2:
            (p1, q1), (p2, q2) = sorted(unused)
            mutual = p1 == q2 and q1 == p2 and b in (p1, p2)
            if mutual and out_tree.root == b and not digraph.has_arc(b, a):
                return True, None
        return False, "a usable pair of arcs remains on the out side"
    if case == "singleton-source":
        if x != {b}:
            return False, "out side is more than the designated vertex"
        unused = _inner_arcs(digraph, y) - used
        into_a = {e for e in unused if e[1] == a}
        others = unused - into_a
        if not into_a or not others:
            return True, None
        if len(unused) == 2:
            (p1, q1), (p2, q2) = sorted(unused)
            mutual = p1 == q2 and q1 == p2 and a in (q1, q2)
            if mutual and in_tree.root == a and not digraph.has_arc(b, a):
                return True, None
        return False, "a usable pair of arcs remains on the in side"
    return False, f"unknown case {case!r}"


# --------------------------------------------------------------------------
# Construction


def construct_good_pair(
    digraph: Digraph, u: int, v: int
) -> GoodPair | NoPairCertificate:
    """A verified good pair when one exists, else the decision certificate."""
    certificate, profile = _decide(digraph, u, v)
    if certificate is not None:
        return certificate
    pair = _build_pair(digraph, u, v, profile)
    reason = _pair_problem(digraph, u, v, pair)
    if reason is not None:
        raise InternalInconsistency(f"constructed pair fails verification: {reason}")
    return pair


def _build_pair(digraph: Digraph, u: int, v: int, profile) -> GoodPair:
    n = digraph.n
    if n == 1:
        return GoodPair(Tree("out", u), Tree("in", v))
    if u == v:
        outcome = same_root_pair(digraph, u)
        if isinstance(outcome, SameRootStructure):
            raise InternalInconsistency("decision and shared-root structure disagree")
        return outcome
    if not profile.decomposition.is_strong:
        return _nonstrong_pair(digraph, u, v, profile.decomposition)
    if not profile.cut_entries:
        return _cycle_pair(digraph, u, v, profile.cycle)
    if n == 3:
        return _search_pair(digraph, u, v)
    return _cut_arc_pair(digraph, u, v, *profile.cut_entries[0])


def _nonstrong_pair(
    digraph: Digraph, u: int, v: int, dec: StrongDecomposition
) -> GoodPair:
    """Split off the terminal component Y: ahead of it, in X, every vertex
    dominates every vertex of Y and nothing points back, which is exactly the
    no-designated-arc extension shape.

    A yes puts u in the initial component, so u's breadth-first tree spans
    D⟨X⟩, and v in Y, which is strong, so v's spans D⟨Y⟩.  With each tree
    inside its own side, the no-arc move table always has a move at order
    four and up (no yes instance of order two or three is non-strong): when
    |X| ≥ 3, D⟨X⟩ is semicomplete with more than |X| − 1 arcs, so the
    out-tree leaves one unused; |Y| ≥ 3 is the mirror case; and |X| = |Y| = 2
    is the 2×2 move.  So an obstruction here is a bug, not a fallback case.
    """
    y_side = dec.terminal
    x_side = tuple(q for comp in dec.components[:-1] for q in comp)
    t_out = _spanning_tree(digraph, u, "out", x_side)
    t_in = _spanning_tree(digraph, v, "in", y_side)
    result = extend_trees_across_cut(digraph, t_out, t_in, x_side, y_side, "no-arc")
    if isinstance(result, ExtensionObstruction):
        raise InternalInconsistency(f"no-arc move table exhausted: {result.case}")
    return GoodPair(*result)


def _cycle_pair(digraph: Digraph, u: int, v: int, cycle: ArcPath) -> GoodPair:
    """Spanning-cycle spine for strong digraphs without a usable cut arc."""
    vs = cycle.vertices
    attempt = _residual_attempt(digraph, u, v, ArcPath(_rotate(vs, first=u)), "out")
    if attempt is None:
        attempt = _residual_attempt(digraph, u, v, ArcPath(_rotate(vs, last=v)), "in")
    if attempt is None:
        attempt = _search_pair(digraph, u, v)
    return attempt


def _cut_arc_pair(
    digraph: Digraph, u: int, v: int, arc: tuple[int, int], reduced: StrongDecomposition
) -> GoodPair:
    """Split the digraph along a cut arc (x, y) and grow one tree per side.

    `reduced` is the strong decomposition of the digraph minus the arc (the
    profile holds it).  With its components ordered initial-first, u must sit
    in the first one or v in the last one (the decision already said yes).
    When v sits last, both sides get breadth-first trees and the
    boundary is bridged in back-arc mode.  When v sits strictly earlier, the
    u side gets an out-branching arc-disjoint from a (y, v)-path, the v side
    contributes a spanning path feeding the cut arc, and the boundary is
    bridged in in-tree-arc mode.  The mirrored case reduces to the first two
    by reversing every arc and swapping the roles.

    In the second case the cut arc is the only arc from Y into X, so every
    in-branching rooted at v uses it and no out-branching rooted at u can
    leave X and come back: a good pair of D holds an out-branching of D⟨X⟩
    arc-disjoint from a (y, v)-path of D⟨X⟩.  `out_branching_vs_path` is
    exact, so a certificate from it is a bug, not a fallback case.  Only the
    two ExtensionObstruction outcomes fall back to `_search_pair`.
    """
    tail, head = arc
    last = len(reduced.components) - 1
    if reduced.component_of[head] != 0 or reduced.component_of[tail] != last:
        raise InternalInconsistency("cut arc does not span the reduced ordering")
    if reduced.component_of[u] != 0:
        # Reversing every arc reverses the acyclic order of the components.
        mirrored_reduced = StrongDecomposition(
            reduced.components[::-1], tuple(last - i for i in reduced.component_of)
        )
        mirrored = _cut_arc_pair(digraph.reverse(), v, u, (head, tail), mirrored_reduced)
        return GoodPair(
            mirrored.in_branching.reversed_kind(),
            mirrored.out_branching.reversed_kind(),
        )
    split = reduced.component_of[v] + 1 if reduced.component_of[v] != last else last
    x_side = tuple(q for comp in reduced.components[:split] for q in comp)
    y_side = tuple(q for comp in reduced.components[split:] for q in comp)
    if reduced.component_of[v] == last:
        t_out = _spanning_tree(digraph, u, "out", x_side)
        t_in = _spanning_tree(digraph, v, "in", y_side)
        result = extend_trees_across_cut(
            digraph, t_out, t_in, x_side, y_side, "back-arc", arc=(tail, head)
        )
        if isinstance(result, ExtensionObstruction):
            return _search_pair(digraph, u, v)
        return GoodPair(*result)
    sub, ids = digraph.induced(x_side)
    pos = {orig: local for local, orig in enumerate(ids)}
    outcome = out_branching_vs_path(sub, pos[u], pos[head], pos[v])
    if not isinstance(outcome, tuple):
        raise InternalInconsistency("a good pair exists but D⟨X⟩ has no tree and path")
    local_tree, local_path = outcome
    t_out = Tree("out", u, {ids[c]: ids[p] for c, p in local_tree.parent.items()})
    # The components of D⟨Y⟩ are the reduced ones from `split` on; chained
    # in the reverse digraph from `tail`, they give a spanning path of D⟨Y⟩
    # that ends at `tail`.
    feed = _chain_components(
        digraph.reverse(), reduced.components[: split - 1 : -1], tail
    ).vertices[::-1]
    parent = dict(zip(feed, feed[1:]))
    parent[tail] = head
    for c, p in local_path.arcs():
        parent[ids[c]] = ids[p]
    t_in = Tree("in", v, parent)
    result = extend_trees_across_cut(
        digraph, t_out, t_in, x_side, y_side, "in-tree-arc", arc=(tail, head)
    )
    if isinstance(result, ExtensionObstruction):
        return _search_pair(digraph, u, v)
    return GoodPair(*result)


def _path_tree(path: ArcPath, kind: str) -> Tree:
    if kind == "out":
        return Tree("out", path.start, {h: t for t, h in path.arcs()})
    return Tree("in", path.end, {t: h for t, h in path.arcs()})


def _residual_attempt(digraph, u, v, path, kind) -> GoodPair | None:
    """Spanning path as one branching, breadth-first tree on the leftover
    arcs as the other; None when the leftovers cannot span."""
    spine = _path_tree(path, kind)
    residual = digraph._without_arcs(path.arcs())
    if kind == "out":
        partner = bfs_tree(residual, v, "in")
        pair = GoodPair(spine, partner)
    else:
        partner = bfs_tree(residual, u, "out")
        pair = GoodPair(partner, spine)
    if len(partner.covered()) != digraph.n:
        return None
    return pair


def _search_pair(digraph: Digraph, u: int, v: int) -> GoodPair:
    """Backtracking over the out-branching's parent map, lowest parents
    first, pruning as soon as some vertex can no longer reach v in the
    digraph minus the chosen tree arcs.  The decision layer has already said
    yes, so exhaustion means a bug, not a no.  Three routes still reach it:
    order three with a cut arc, a cycle whose residual attempts both fail,
    and an ExtensionObstruction in `_cut_arc_pair`."""
    n = digraph.n
    full = (1 << n) - 1
    order = list(bfs_tree(digraph, u, "out").parent)
    if len(order) != n - 1:
        raise InternalInconsistency("the out root does not reach every vertex")
    ins = digraph.in_masks()
    rev_residual = list(ins)
    parent: dict[int, int] = {}
    budget = [structures._SEARCH_BUDGET]

    def place(i: int) -> GoodPair | None:
        budget[0] -= 1
        if budget[0] < 0:
            raise InternalInconsistency("pair search exhausted its budget")
        if i == len(order):
            t_out = Tree("out", u, dict(parent))
            residual = digraph._without_arcs((p, c) for c, p in parent.items())
            t_in = bfs_tree(residual, v, "in")
            if len(t_in.covered()) != n:
                return None
            return GoodPair(t_out, t_in)
        child = order[i]
        for cand in _bits(ins[child]):
            walk = cand
            while walk in parent and walk != child:
                walk = parent[walk]
            if walk == child:
                continue  # the chain of chosen parents loops back
            parent[child] = cand
            rev_residual[child] &= ~(1 << cand)
            if _reach(rev_residual, 1 << v) == full:
                found = place(i + 1)
            else:
                found = None
            rev_residual[child] |= 1 << cand
            del parent[child]
            if found is not None:
                return found
        return None

    if _reach(rev_residual, 1 << v) != full:
        raise InternalInconsistency("the in root is not reachable from every vertex")
    found = place(0)
    if found is None:
        raise InternalInconsistency("pair search exhausted all parent choices")
    return found
