"""Hamiltonian cycles and prescribed-endpoint hamiltonian paths in
semicomplete digraphs.

Every strong semicomplete digraph has a hamiltonian cycle; we build one by
incremental insertion, which doubles as a constructive proof at desk scale.
The path variants (start at x / end at x / from the initial to the terminal
component) are assembled from per-component cycles chained along the
domination order.  All outputs are verified before being returned.
"""

from __future__ import annotations

from .digraph import (
    ArcPath,
    Digraph,
    _bits,
    _check_instance,
    _mask,
    strong_decomposition,
)
from .errors import BadEndpoints, InternalInconsistency, NoPath, NotStrong


def _rotate(cycle, first: int | None = None, last: int | None = None):
    """The cycle's vertex sequence rotated to start at `first`, or else to
    end at `last`."""
    i = cycle.index(first) if first is not None else cycle.index(last) + 1
    return cycle[i:] + cycle[:i]


def hamiltonian_cycle(digraph: Digraph) -> ArcPath:
    """Hamiltonian cycle of a strong semicomplete digraph with at least two
    vertices, as an ArcPath whose last vertex has an arc back to the first.

    Incremental insertion: keep a cycle, repeatedly splice in an outside
    vertex between two consecutive cycle vertices.  When no single vertex is
    insertable, every outside vertex either dominates the whole cycle or is
    dominated by it (a mixed vertex always admits an insertion point), both
    classes are non-empty by strongness, and any arc from the dominated class
    to the dominating class lets us splice in two vertices at once.
    """
    _check_instance(digraph)
    if digraph.n < 2:
        raise ValueError("a hamiltonian cycle needs at least two vertices")
    if not strong_decomposition(digraph).is_strong:
        raise NotStrong("hamiltonian cycle requires a strong digraph")
    return _hamiltonian_cycle(digraph)


def _hamiltonian_cycle(digraph: Digraph, within: int | None = None) -> ArcPath:
    """`hamiltonian_cycle` of D⟨within⟩ (the whole digraph when `within` is
    None) without the input checks, for callers that already know that
    subdigraph to be strong, semicomplete and of order two or more.  The
    result is still verified."""
    if within is None:  # a range, as a bit scan of a wide mask is slow
        within, vertices = (1 << digraph.n) - 1, range(digraph.n)
    else:
        vertices = list(_bits(within))
    cycle = _initial_cycle(digraph, vertices, within)
    outside = [q for q in vertices if q not in cycle]
    while outside:
        inserted = False
        for w in outside:
            k = len(cycle)
            for i in range(k):
                if digraph.has_arc(cycle[i], w) and digraph.has_arc(w, cycle[(i + 1) % k]):
                    cycle = cycle[: i + 1] + [w] + cycle[i + 1 :]
                    outside.remove(w)
                    inserted = True
                    break
            if inserted:
                break
        if inserted:
            continue
        # No single vertex fits, so each outside vertex relates to the cycle
        # uniformly: dominated by all of it, or dominating all of it.
        dominated = [w for w in outside if all(digraph.has_arc(c, w) for c in cycle)]
        dominating = [w for w in outside if all(digraph.has_arc(w, c) for c in cycle)]
        pair = next(
            ((a, b) for a in dominated for b in dominating if digraph.has_arc(a, b)),
            None,
        )
        if pair is None:
            raise InternalInconsistency("cycle insertion stalled on a strong digraph")
        a, b = pair
        cycle = [cycle[0], a, b] + cycle[1:]
        outside.remove(a)
        outside.remove(b)

    cycle = _rotate(cycle, min(cycle))
    result = ArcPath(tuple(cycle))
    if not result.in_digraph(digraph) or not digraph.has_arc(cycle[-1], cycle[0]):
        raise InternalInconsistency("constructed cycle failed verification")
    if len(cycle) != within.bit_count():
        raise InternalInconsistency("constructed cycle is not spanning")
    return result


def _initial_cycle(digraph: Digraph, vertices, within: int) -> list[int]:
    """A 2-cycle of D⟨within⟩ (first digon in ascending pair order) or a
    triangle through its lowest vertex (which exists in a strong digon-free
    semicomplete digraph); `vertices` lists `within` in ascending order."""
    out, ins = digraph.out_masks(), digraph.in_masks()
    for a in vertices:
        later = (out[a] & ins[a] & within) >> (a + 1)
        if later:
            return [a, a + (later & -later).bit_length()]
    low = vertices[0]
    for x in _bits(out[low] & within):
        for y in _bits(ins[low] & within):
            if digraph.has_arc(x, y):
                return [low, x, y]
    raise InternalInconsistency("no starting cycle in a strong semicomplete digraph")


def _component_path(digraph: Digraph, component: tuple[int, ...], first=None, last=None):
    """Hamiltonian path of one strong component, optionally starting at
    `first` or ending at `last` (not both)."""
    if len(component) == 1:
        return list(component)
    cycle = list(_hamiltonian_cycle(digraph, _mask(component)).vertices)
    if first is None and last is None:
        return cycle
    return _rotate(cycle, first, last)


def _chain_components(
    digraph: Digraph, components, first: int, last: int | None = None
) -> ArcPath:
    """Spanning path of the subdigraph induced by `components`, strong
    components listed in their acyclic order, starting at `first` in the
    initial one and, when given, ending at `last` in the terminal one;
    verified before it is returned."""
    final = len(components) - 1
    sequence: list[int] = []
    for index, component in enumerate(components):
        sequence.extend(
            _component_path(
                digraph,
                component,
                first=first if index == 0 else None,
                last=last if index == final else None,
            )
        )
    path = ArcPath(tuple(sequence))
    if len(sequence) != sum(map(len, components)) or not path.in_digraph(digraph):
        raise NoPath("assembled spanning path failed verification")
    return path


def hamiltonian_path_from(digraph: Digraph, x: int, direction: str = "start") -> ArcPath:
    """Hamiltonian path starting (direction='start') or ending ('end') at x.

    Works whenever x lies in the initial (for 'start') / terminal (for 'end')
    strong component: per-component cycles are chained along the domination
    order.  Raises NotStrong when x's component makes the path impossible.
    """
    if direction not in ("start", "end"):
        raise ValueError("direction must be 'start' or 'end'")
    if direction == "end":
        mirrored = hamiltonian_path_from(digraph.reverse(), x, "start")
        return ArcPath(tuple(reversed(mirrored.vertices)))
    _check_instance(digraph, x)
    dec = strong_decomposition(digraph)
    if x not in dec.components[0]:
        raise NotStrong(
            "a spanning path from x needs x in the initial strong component"
        )
    return _chain_components(digraph, dec.components, x)


def hamiltonian_path_between(digraph: Digraph, x: int, y: int) -> ArcPath:
    """Hamiltonian (x,y)-path in a non-strong semicomplete digraph, for x in
    the initial and y in the terminal strong component."""
    _check_instance(digraph, x, y)
    dec = strong_decomposition(digraph)
    if dec.is_strong:
        raise BadEndpoints("digraph is strong; use hamiltonian_path_from instead")
    if x not in dec.components[0]:
        raise BadEndpoints("x must lie in the initial strong component")
    if y not in dec.components[-1]:
        raise BadEndpoints("y must lie in the terminal strong component")
    return _chain_components(digraph, dec.components, x, y)
