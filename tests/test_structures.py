"""Layered-partition certificates and arc-disjoint path pairs."""

import dataclasses
import itertools

import pytest

from branchpairs import (
    ChainObstruction,
    ConsecutiveSingletons,
    Digraph,
    GeneratorConfig,
    NoBasePath,
    TypeCertificate,
    TypedObstruction,
    arc_disjoint_path_pair,
    detect_obstruction_type,
    detect_odd_chain,
    enumerate_semicomplete,
    fixture,
    oracle_path_pair,
    random_semicomplete,
    relabel_type_certificate,
    verify_certificate,
    verify_type_certificate,
)
from branchpairs import structures
from branchpairs.digraph import _bits, _mask, _reach
from branchpairs.structures import _interior_candidates, verify_path_pair_obstruction
from conftest import trans_back

C3 = fixture("C3").digraph
K3 = fixture("K3").digraph
FIG_A = fixture("FIG_A").digraph
FIG_B = fixture("FIG_B").digraph
CHAIN4 = fixture("CHAIN4").digraph

# Five singleton layers; the only arcs against the layering are the three
# listed back arcs, which is exactly the odd-chain shape.
CHAIN5 = Digraph.from_arcs(
    5,
    [(0, 1), (0, 2), (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 0), (3, 4), (4, 0)],
)


def test_detect_two_part_structure():
    cert = detect_obstruction_type(C3, 0, 1, 2)
    assert cert is not None
    assert cert.kind == "A"
    assert cert.parts == ((2,), (0, 1))
    assert cert.back_arcs == ((1, 2),)
    assert (cert.u, cert.w, cert.v) == (0, 1, 2)
    ok, reason = verify_type_certificate(C3, cert)
    assert ok, reason


def test_detect_single_in_neighbor_case():
    cert = detect_obstruction_type(FIG_A, 0, 0, 1)
    assert cert is not None
    assert cert.parts[0] == (1,)


def test_detect_none_when_paths_exist():
    assert detect_obstruction_type(K3, 0, 2, 1) is None


def test_detect_odd_chain():
    cert = detect_odd_chain(CHAIN5, 2, 3)
    assert cert is not None
    assert cert.kind == "chain"
    assert cert.parts == ((1,), (3,), (0,), (2,), (4,))
    assert cert.back_arcs == ((0, 1), (2, 3), (4, 0))
    ok, reason = verify_type_certificate(CHAIN5, cert)
    assert ok, reason
    # four layers is even, so the same roles in CHAIN4 give nothing
    assert detect_odd_chain(CHAIN4, 3, 1) is None


def test_verify_rejects_tampered_certificates():
    cert = detect_obstruction_type(C3, 0, 1, 2)
    swapped = relabel_type_certificate(cert, {0: 1, 1: 0, 2: 2})
    ok, reason = verify_type_certificate(C3, swapped)
    assert not ok and isinstance(reason, str)


@pytest.mark.parametrize("vertex", [-1, CHAIN4.n])
def test_verify_rejects_out_of_range_part_vertices(vertex):
    # the range is checked before any vertex id becomes a shift count
    cert = TypeCertificate(
        kind="chain", parts=((0,), (1,), (2,), (vertex,)), back_arcs=((2, 0), (3, 1)),
        u=3, w=2, v=1,
    )
    reason = "part 4 contains an out-of-range vertex"
    assert verify_type_certificate(CHAIN4, cert) == (False, reason)
    assert verify_certificate(CHAIN4, 3, 1, ChainObstruction(cert)) == (False, reason)


def test_relabel_round_trip():
    cert = detect_obstruction_type(C3, 0, 1, 2)
    mapping = {0: 2, 1: 0, 2: 1}
    inverse = {2: 0, 0: 1, 1: 2}
    back = relabel_type_certificate(relabel_type_certificate(cert, mapping), inverse)
    assert back == cert


def test_path_pair_examples():
    outcome = arc_disjoint_path_pair(FIG_A, 0, 1, 0, 1)
    assert isinstance(outcome, ConsecutiveSingletons)
    assert (outcome.x, outcome.y) == (0, 1)

    first, second = arc_disjoint_path_pair(K3, 0, 1, 1, 0)
    assert first.start == 0 and first.end == 1
    assert second.start == 1 and second.end == 0
    assert not set(first.arcs()) & set(second.arcs())

    typed = arc_disjoint_path_pair(CHAIN4, 3, 0, 2, 1)
    assert isinstance(typed, TypedObstruction)
    assert typed.offending_target == 0
    ok, reason = verify_path_pair_obstruction(CHAIN4, 3, 0, 2, 1, typed)
    assert ok, reason


def test_obstruction_verifier_names_the_callers_vertices():
    # The obstruction lives on the strong component {1, 2, 3}; a reason must
    # name the arc as the caller wrote it, not as a copy of that component
    # relabelled from 0 would.
    d = Digraph.from_arcs(4, [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3), (3, 1)])
    typed = arc_disjoint_path_pair(d, 1, 2, 1, 2)
    assert isinstance(typed, TypedObstruction)
    assert typed.certificate.kind == "A"
    assert typed.certificate.back_arcs == ((1, 2),)
    swapped = TypedObstruction(
        dataclasses.replace(typed.certificate, back_arcs=((2, 1),)), typed.offending_target
    )
    assert verify_path_pair_obstruction(d, 1, 2, 1, 2, swapped) == (
        False, "listed back arc (2,1) is not an arc"
    )


def test_obstruction_verifier_rejects_vertices_outside_the_component():
    d = Digraph.from_arcs(4, [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3), (3, 1)])
    typed = arc_disjoint_path_pair(d, 1, 2, 1, 2)
    cert = typed.certificate
    for changed, reason in (
        (dataclasses.replace(cert, u=0), "role u out of range"),
        (dataclasses.replace(cert, back_arcs=((0, 2),)), "back arc 1 out of range"),
    ):
        got = verify_path_pair_obstruction(d, 1, 2, 1, 2, TypedObstruction(changed, 2))
        assert got == (False, reason)


def test_path_pair_requires_base_paths():
    with pytest.raises(NoBasePath):
        arc_disjoint_path_pair(FIG_B, 2, 0, 0, 2)


def test_obstruction_verifier_rejects_wrong_endpoints():
    typed = arc_disjoint_path_pair(CHAIN4, 3, 0, 2, 1)
    ok, _ = verify_path_pair_obstruction(CHAIN4, 3, 0, 2, 3, typed)
    assert not ok
    singleton = arc_disjoint_path_pair(FIG_A, 0, 1, 0, 1)
    ok, _ = verify_path_pair_obstruction(FIG_A, 0, 1, 1, 0, singleton)
    assert not ok


def test_detector_soundness_exhaustive():
    # A certificate with roles (u, w, v) promises: no z in the first part
    # admits arc-disjoint (u,z)- and (w,v)-paths.  The oracle re-checks that
    # promise for every placement on every digraph with up to four vertices.
    for n in range(3, 5):
        for d in enumerate_semicomplete(n):
            for u, w, v in itertools.product(range(n), repeat=3):
                if v in (u, w):
                    continue
                cert = detect_obstruction_type(d, u, w, v)
                if cert is None:
                    continue
                ok, reason = verify_type_certificate(d, cert)
                assert ok, reason
                for z in cert.parts[0]:
                    assert oracle_path_pair(d, u, z, w, v) is None


def test_any_arc_criterion_matches_path_pair():
    # For roles (x, y, z): arc-disjoint (x,y)- and (y,z)-paths exist exactly
    # when the direct oracle finds them — the quantifier-free restatement.
    for n in range(3, 5):
        for d in enumerate_semicomplete(n):
            for x, y, z in itertools.permutations(range(n), 3):
                try:
                    got = arc_disjoint_path_pair(d, x, y, y, z)
                except NoBasePath:
                    continue
                want = oracle_path_pair(d, x, y, y, z)
                assert isinstance(got, tuple) == (want is not None)


def _closed_form_digraphs():
    """Every semicomplete digraph of order at most four, and seeded random
    ones of orders five to seven (digons included)."""
    for n in range(1, 5):
        yield from enumerate_semicomplete(n)
    for seed in range(12):
        yield random_semicomplete(
            GeneratorConfig(n=5 + seed % 3, digon_prob=0.1 * (seed % 4), seed=seed)
        )


def _interior_parts_by_brute_force(d, hmask):
    """Every X ⊊ H whose one entering arc (t, h) in D⟨H⟩ has h in the
    initial component of D⟨X⟩, with the terminal component of D⟨X⟩; the
    components are read off reachability inside X."""
    out = d.out_masks()
    found = []
    for xmask in range(1, hmask):
        if xmask & ~hmask:
            continue
        entering = [(t, h) for t in _bits(hmask & ~xmask) for h in _bits(out[t] & xmask)]
        if len(entering) != 1:
            continue
        tail, head = entering[0]
        inside = [m & xmask for m in out]
        reaches = {q: _reach(inside, 1 << q) for q in _bits(xmask)}
        if reaches[head] != xmask:
            continue  # head is not in the initial component
        terminal = _mask(q for q in _bits(xmask) if all(r >> q & 1 for r in reaches.values()))
        found.append((xmask, tail, head, terminal))
    return sorted(found)


def test_interior_candidates_match_brute_force():
    checked = 0
    for d in _closed_form_digraphs():
        for hmask in range(1, 1 << d.n):
            got = _interior_candidates(d.n, list(d.out_masks()), hmask, lambda: None)
            assert got == _interior_parts_by_brute_force(d, hmask), (d, hmask)
            checked += len(got)
    assert checked > 1000


def test_layer_search_decomposes_once_per_arc_and_split(monkeypatch):
    # One strong decomposition per arc of each remainder the interior parts
    # are read from, and at most one more per remainder for its splits; none
    # per candidate.  No root pair of trans_back(10) has an odd chain, so no
    # certificate is verified.
    d = trans_back(10)
    calls = {"tarjan": 0, "arcs": 0, "remainders": 0}
    tarjan = structures._masked_components
    interior = structures._interior_candidates

    def counted_tarjan(*args):
        calls["tarjan"] += 1
        return tarjan(*args)

    def counted_interior(n, out, hmask, spend):
        calls["remainders"] += 1
        calls["arcs"] += sum((out[q] & hmask).bit_count() for q in _bits(hmask))
        return interior(n, out, hmask, spend)

    monkeypatch.setattr(structures, "_masked_components", counted_tarjan)
    monkeypatch.setattr(structures, "_interior_candidates", counted_interior)
    for u, v in itertools.product(range(d.n), repeat=2):
        calls.update(tarjan=0, arcs=0, remainders=0)
        assert detect_odd_chain(d, u, v) is None
        assert calls["remainders"] > 0
        assert calls["arcs"] <= calls["tarjan"] <= calls["arcs"] + calls["remainders"], (u, v)
