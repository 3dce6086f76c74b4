"""Core digraph type, strong components, connectivity, and isomorphism."""

import itertools
import random

import pytest

from branchpairs import (
    ArcPath,
    BadEndpoints,
    ConsecutiveSingletons,
    Digraph,
    GoodPair,
    NotSemicomplete,
    NotStrong,
    PreconditionViolated,
    SizeMismatch,
    Tree,
    arc_disjoint_path_pair,
    arc_disjoint_paths,
    bfs_tree,
    construct_good_pair,
    cut_arcs,
    decide_good_pair,
    detect_obstruction_type,
    detect_odd_chain,
    edmonds_deficiency,
    enumerate_semicomplete,
    extend_trees_across_cut,
    fixture,
    hamiltonian_path_between,
    hamiltonian_path_from,
    is_k_arc_strong,
    local_arc_connectivity,
    out_branching_vs_path,
    same_root_pair,
    small_isomorphism,
    strong_decomposition,
    terminal_initial_sets,
    validate_semicomplete,
    verify_certificate,
    verify_good_pair,
)
from branchpairs.digraph import _bits, _breaking_arcs, _masked_components, _reach, is_tournament
from branchpairs.structures import verify_path_pair_obstruction
from conftest import strong_instances

C3 = fixture("C3").digraph
K3 = fixture("K3").digraph
S4 = fixture("S4").digraph
FIG_A = fixture("FIG_A").digraph
FIG_B = fixture("FIG_B").digraph
FIG_E = fixture("FIG_E").digraph
FIG_F = fixture("FIG_F").digraph
CHAIN4 = fixture("CHAIN4").digraph


def test_basic_accessors():
    d = Digraph.from_arcs(3, [(0, 1), (1, 2), (0, 2)])
    assert d.n == 3
    assert d.m == 3
    assert d.has_arc(0, 1) and not d.has_arc(1, 0)
    assert d.out_neighbors(0) == (1, 2)
    assert d.in_neighbors(2) == (0, 1)
    assert d.out_degree(0) == 2 and d.in_degree(0) == 0
    assert sorted(d.arcs()) == [(0, 1), (0, 2), (1, 2)]
    assert list(d.vertices()) == [0, 1, 2]


def test_reverse_and_without_arc():
    rev = C3.reverse()
    assert sorted(rev.arcs()) == [(0, 2), (1, 0), (2, 1)]
    assert rev.reverse() == C3
    cut = C3.without_arc(1, 2)
    assert sorted(cut.arcs()) == [(0, 1), (2, 0)]


def test_induced_keeps_local_labels():
    sub, ids = CHAIN4.induced((1, 2, 3))
    assert ids == (1, 2, 3)
    # local labels hold positions in `ids`: global (1,2) becomes local (0,1)
    assert sub.has_arc(0, 1)
    assert sub.n == 3


def test_digraph_hashable_and_equal():
    again = Digraph.from_arcs(3, [(2, 0), (0, 1), (1, 2)])
    assert again == C3
    assert hash(again) == hash(C3)
    assert len({again, C3}) == 1


def test_arc_path_accessors():
    path = ArcPath((0, 1, 2))
    assert path.start == 0
    assert path.end == 2
    assert path.arcs() == ((0, 1), (1, 2))
    assert path.in_digraph(C3)
    assert not path.in_digraph(Digraph.from_arcs(3, [(0, 1), (2, 1), (0, 2)]))


def test_validate_semicomplete():
    assert validate_semicomplete(C3) is None
    assert validate_semicomplete(K3) is None
    missing = Digraph.from_arcs(3, [(0, 1), (1, 2)])
    assert validate_semicomplete(missing) == (0, 2)


def test_is_tournament():
    assert is_tournament(C3)
    assert not is_tournament(K3)


def test_strong_decomposition_examples():
    dec = strong_decomposition(FIG_B)
    assert dec.components == ((0,), (1,), (2,))
    assert not dec.is_strong
    assert dec.initial == (0,)
    assert dec.terminal == (2,)
    assert strong_decomposition(C3).is_strong
    out_set, in_set = terminal_initial_sets(FIG_B)
    assert (out_set, in_set) == ((0,), (2,))


def test_terminal_initial_sets_rejects_non_semicomplete_input():
    with pytest.raises(NotSemicomplete):
        terminal_initial_sets(Digraph.from_arcs(3, [(0, 1), (1, 2)]))


def test_component_order_is_forward_exhaustive():
    # Between any two strong components, every arc leaves the earlier one.
    for n in range(2, 5):
        for d in enumerate_semicomplete(n):
            dec = strong_decomposition(d)
            for i, earlier in enumerate(dec.components):
                for later in dec.components[i + 1:]:
                    for p in earlier:
                        for q in later:
                            assert d.has_arc(p, q)
                            assert not d.has_arc(q, p)


def test_initial_and_terminal_induce_strong_subgraphs():
    for n in range(2, 5):
        for d in enumerate_semicomplete(n):
            dec = strong_decomposition(d)
            for part in (dec.initial, dec.terminal):
                sub, _ = d.induced(part)
                assert strong_decomposition(sub).is_strong


def test_cut_arcs_examples():
    assert cut_arcs(C3) == [(0, 1), (1, 2), (2, 0)]
    assert cut_arcs(S4) == []
    assert cut_arcs(CHAIN4) == [(1, 2), (2, 0), (3, 1)]
    with pytest.raises(NotStrong):
        cut_arcs(FIG_B)


def test_cut_arc_iff_removal_disconnects():
    for d in enumerate_semicomplete(4):
        if not strong_decomposition(d).is_strong:
            continue
        cuts = set(cut_arcs(d))
        for arc in d.arcs():
            removed = d.without_arc(*arc)
            is_cut = not strong_decomposition(removed).is_strong
            assert (arc in cuts) == is_cut


def test_local_arc_connectivity_examples():
    assert local_arc_connectivity(C3, 0, 2, 3) == 1
    assert local_arc_connectivity(K3, 0, 1, 3) == 2
    assert local_arc_connectivity(FIG_B, 2, 0, 3) == 0


def _max_disjoint_path_count(digraph, s, t):
    """Brute force: enumerate all simple (s,t)-paths, then pack a maximum
    arc-disjoint subset by backtracking."""
    paths = []

    def walk(vertex, seen, trail):
        if vertex == t:
            paths.append(tuple(zip(trail, trail[1:])))
            return
        for nxt in digraph.out_neighbors(vertex):
            if nxt not in seen:
                walk(nxt, seen | {nxt}, trail + [nxt])

    walk(s, {s}, [s])

    best = 0

    def pack(index, used, count):
        nonlocal best
        best = max(best, count)
        for i in range(index, len(paths)):
            arcs = set(paths[i])
            if not arcs & used:
                pack(i + 1, used | arcs, count + 1)

    pack(0, set(), 0)
    return best


def test_arc_disjoint_paths_match_brute_force():
    for d in enumerate_semicomplete(4):
        for s in range(4):
            for t in range(4):
                if s == t:
                    continue
                want = _max_disjoint_path_count(d, s, t)
                got = arc_disjoint_paths(d, s, t, 4)
                assert len(got) == min(want, 4)
                used = set()
                for path in got:
                    assert path.start == s and path.end == t
                    assert path.in_digraph(d)
                    arcs = set(path.arcs())
                    assert not arcs & used
                    used |= arcs


def test_is_k_arc_strong():
    assert is_k_arc_strong(S4, 2)
    assert not is_k_arc_strong(C3, 2)
    for d in enumerate_semicomplete(4):
        assert is_k_arc_strong(d, 1) == strong_decomposition(d).is_strong


def test_small_isomorphism_unpinned():
    iso = small_isomorphism(FIG_E, FIG_F)
    assert iso == (1, 0, 2, 3)
    # the bijection must preserve arcs in both directions
    for p in range(4):
        for q in range(4):
            if p != q:
                assert FIG_E.has_arc(p, q) == FIG_F.has_arc(iso[p], iso[q])


def test_small_isomorphism_pinned_and_negative():
    fig_a = FIG_A
    assert small_isomorphism(fig_a, fig_a, {0: 0, 1: 1}) == (0, 1)
    assert small_isomorphism(C3, FIG_B) is None
    # FIG_E and FIG_F are isomorphic, but not with the roles held fixed
    assert small_isomorphism(FIG_E, FIG_F, {0: 0, 3: 3}) is None
    with pytest.raises(SizeMismatch):
        small_isomorphism(C3, S4)


# --------------------------------------------------------------------------
# in-masks, derived digraphs and the shortcuts of the strong tests


def _in_masks_bit_by_bit(n, out_masks):
    in_masks = [0] * n
    for v, mask in enumerate(out_masks):
        for w in _bits(mask):
            in_masks[w] |= 1 << v
    return in_masks


def _random_masks(n, density, rng):
    return [sum(1 << w for w in range(n) if w != v and rng.random() < density)
            for v in range(n)]


@pytest.mark.parametrize("n", [0, 1, 2, 12, 63, 64, 65, 70])
def test_in_masks_are_the_transpose(n):
    rng = random.Random(n)
    for density in (0.0, 0.05, 0.3, 0.5, 0.9, 1.0):
        masks = _random_masks(n, density, rng)
        d = Digraph(n, masks)
        assert d.in_masks() == _in_masks_bit_by_bit(n, masks)
        assert d.m == sum(mask.bit_count() for mask in masks)


def _assert_same_digraph(derived, fresh):
    assert derived == fresh
    assert hash(derived) == hash(fresh)
    assert derived.in_masks() == fresh.in_masks()
    assert derived.m == fresh.m


def test_derived_digraphs_equal_fresh_ones():
    rng = random.Random(4)
    for n in (1, 2, 5, 12, 40, 70):
        for density in (0.1, 0.5, 1.0):
            d = Digraph(n, _random_masks(n, density, rng))
            _assert_same_digraph(d.reverse(), Digraph(n, _in_masks_bit_by_bit(n, d.out_masks())))
            arcs = d.arcs()
            if not arcs:
                continue
            tail, head = rng.choice(arcs)
            masks = d.out_masks()
            masks[tail] &= ~(1 << head)
            _assert_same_digraph(d.without_arc(tail, head), Digraph(n, masks))
            dropped = rng.sample(arcs, len(arcs) // 3) + [(head, tail)]  # may be no arc
            masks = d.out_masks()
            for p, q in dropped:
                masks[p] &= ~(1 << q)
            _assert_same_digraph(d._without_arcs(dropped), Digraph(n, masks))


def test_strong_decomposition_equals_tarjan():
    rng = random.Random(6)
    instances = [d for n in range(1, 6) for d in itertools.islice(enumerate_semicomplete(n), 40)]
    instances += [Digraph(n, _random_masks(n, density, rng))  # mostly not semicomplete
                  for n in (1, 3, 8, 20, 50) for density in (0.05, 0.2, 0.5, 0.9)]
    instances += strong_instances()
    strong = 0
    for d in instances:
        comps = _masked_components(d.n, d.out_masks(), (1 << d.n) - 1)
        dec = strong_decomposition(d)
        assert dec.components == tuple(tuple(_bits(c)) for c in comps)
        assert all(dec.component_of[v] == i for i, comp in enumerate(dec.components) for v in comp)
        strong += dec.is_strong
    assert 0 < strong < len(instances)


def _breaking_arcs_by_search(d, arcs):
    masks = d.out_masks()
    result = []
    for x, y in arcs:
        masks[x] &= ~(1 << y)
        if not (_reach(masks, 1 << x) >> y & 1):
            result.append((x, y))
        masks[x] |= 1 << y
    return result


def test_breaking_arcs_skip_only_arcs_with_a_two_path():
    found = 0
    for d in strong_instances():
        arcs = d.arcs()
        expected = _breaking_arcs_by_search(d, arcs)
        assert _breaking_arcs(d, arcs) == expected
        found += len(expected)
    assert found > 0


# Every public entry point checks its input the same way, in this order: a
# non-adjacent pair first, then each vertex argument in turn.
ENTRY_POINTS = {
    "decide_good_pair": lambda d, x: decide_good_pair(d, 0, x),
    "construct_good_pair": lambda d, x: construct_good_pair(d, 0, x),
    "verify_good_pair": lambda d, x: verify_good_pair(
        d, x, 1, GoodPair(Tree("out", 0), Tree("in", 1))
    ),
    "verify_certificate": lambda d, x: verify_certificate(d, 0, x, None),
    "same_root_pair": lambda d, x: same_root_pair(d, x),
    "extend_trees_across_cut": lambda d, x: extend_trees_across_cut(
        d, Tree("out", 0), Tree("in", 1), {0}, {1, x}, "no-arc"
    ),
    "hamiltonian_path_from": lambda d, x: hamiltonian_path_from(d, x),
    "detect_obstruction_type": lambda d, x: detect_obstruction_type(d, 0, x, 1),
    "detect_odd_chain": lambda d, x: detect_odd_chain(d, 0, x),
    "arc_disjoint_path_pair": lambda d, x: arc_disjoint_path_pair(d, 0, 1, 2, x),
    "verify_path_pair_obstruction": lambda d, x: verify_path_pair_obstruction(
        d, 0, 1, 2, x, ConsecutiveSingletons(0, 1)
    ),
    "hamiltonian_path_between": lambda d, x: hamiltonian_path_between(d, 0, x),
    "out_branching_vs_path": lambda d, x: out_branching_vs_path(d, 0, x, 1),
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_entry_points_share_one_input_check(entry):
    call = ENTRY_POINTS[entry]
    with pytest.raises(NotSemicomplete, match=r"^vertices 0 and 2 are not adjacent$"):
        call(Digraph.from_arcs(3, [(0, 1), (1, 2)]), 2)
    for x in (-1, K3.n):
        if entry == "extend_trees_across_cut":  # sides are checked, not vertex ids
            expected = PreconditionViolated, r"^the sides must partition the vertex set$"
        else:
            expected = BadEndpoints, rf"^vertex {x} out of range$"
        with pytest.raises(expected[0], match=expected[1]):
            call(K3, x)


# The flow and tree entry points also run on residual digraphs that are not
# semicomplete, so they check only the range of their vertex arguments.
RANGE_CHECKED = {
    "local_arc_connectivity source": lambda d, x: local_arc_connectivity(d, x, 0, 2),
    "local_arc_connectivity sink": lambda d, x: local_arc_connectivity(d, 0, x, 2),
    "arc_disjoint_paths": lambda d, x: arc_disjoint_paths(d, 0, x, 2),
    "bfs_tree out": lambda d, x: bfs_tree(d, x, "out"),
    "bfs_tree in": lambda d, x: bfs_tree(d, x, "in"),
    "edmonds_deficiency": lambda d, x: edmonds_deficiency(d, x, 2),
}


@pytest.mark.parametrize("entry", sorted(RANGE_CHECKED))
def test_flow_and_tree_entry_points_check_the_vertex_range(entry):
    path = Digraph.from_arcs(3, [(0, 1), (1, 2)])  # not semicomplete
    for x in (-1, path.n, path.n + 5):
        with pytest.raises(BadEndpoints, match=rf"^vertex {x} out of range$"):
            RANGE_CHECKED[entry](path, x)
    RANGE_CHECKED[entry](path, 2)
