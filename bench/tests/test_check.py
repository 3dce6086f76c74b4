"""The benchmark's own answer checks accept good answers and reject
tampered ones."""

import itertools

from check import certificate_problem, is_semicomplete, is_strong, pair_problem
from workloads import trans_back

COMPLETE4 = [(a, b) for a, b in itertools.permutations(range(4), 2)]


def doc(u, v, out_arcs, in_arcs):
    return {"u": u, "v": v, "out": [list(a) for a in out_arcs], "in": [list(a) for a in in_arcs]}


GOOD = doc(0, 1, [(0, 2), (2, 1), (1, 3)], [(0, 1), (2, 0), (3, 1)])


def test_good_pair_passes():
    assert pair_problem(4, COMPLETE4, 0, 1, GOOD) is None


def test_shared_arc_is_rejected():
    data = doc(0, 1, [(0, 2), (2, 1), (1, 3)], [(0, 1), (2, 1), (3, 1)])
    assert "share" in pair_problem(4, COMPLETE4, 0, 1, data)


def test_wrong_roots_are_rejected():
    assert "roots" in pair_problem(4, COMPLETE4, 2, 1, GOOD)
    rooted_at_2 = doc(0, 1, [(2, 0), (2, 1), (2, 3)], [(0, 1), (2, 0), (3, 1)])
    assert "root 0" in pair_problem(4, COMPLETE4, 0, 1, rooted_at_2)


def test_cycle_is_rejected():
    data = doc(0, 1, [(0, 1), (2, 3), (3, 2)], [(0, 1), (2, 0), (3, 1)])
    assert "cycle" in pair_problem(4, COMPLETE4, 0, 1, data)


def test_missing_vertex_is_rejected():
    data = doc(0, 1, [(0, 2), (2, 1)], [(0, 1), (2, 0), (3, 1)])
    assert "misses vertex 3" in pair_problem(4, COMPLETE4, 0, 1, data)


def test_two_parents_and_absent_arcs_are_rejected():
    two_parents = doc(0, 1, [(0, 2), (2, 1), (1, 3), (0, 3)], [(0, 1), (2, 0), (3, 1)])
    assert "two parents" in pair_problem(4, COMPLETE4, 0, 1, two_parents)
    tournament = [(a, b) for a, b in COMPLETE4 if a < b]
    assert "not an arc" in pair_problem(4, tournament, 0, 1, GOOD)


def test_cut_arc_certificates():
    arcs = trans_back(5)
    assert certificate_problem(5, arcs, 4, 0, {"kind": "cut-arc", "arc": [4, 0]}) is None
    assert "u still reaches" in certificate_problem(
        5, arcs, 4, 0, {"kind": "cut-arc", "arc": [1, 2]}
    )
    assert "not an arc" in certificate_problem(5, arcs, 4, 0, {"kind": "cut-arc", "arc": [2, 1]})
    # Removing (0,1) strands u = 4 but still lets every vertex reach v = 4.
    assert "reaches v" in certificate_problem(5, arcs, 4, 4, {"kind": "cut-arc", "arc": [0, 1]})


def test_root_misplaced_certificates():
    # Two 3-cycles, every cross pair pointing from {0,1,2} to {3,4,5}.
    arcs = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]
    arcs += [(a, b) for a in range(3) for b in range(3, 6)]
    assert is_semicomplete(6, arcs) and not is_strong(6, arcs)
    u_late = {"kind": "root-misplaced", "which": "u-not-initial"}
    v_early = {"kind": "root-misplaced", "which": "v-not-terminal"}
    assert certificate_problem(6, arcs, 4, 5, u_late) is None
    assert certificate_problem(6, arcs, 0, 1, v_early) is None
    assert certificate_problem(6, arcs, 0, 4, u_late) is not None
    assert certificate_problem(6, arcs, 0, 4, v_early) is not None
    assert certificate_problem(6, arcs, 4, 5, {"kind": "root-misplaced", "which": "?"})
