"""Decision, construction, and verification of good (u,v)-pairs, plus the
tree-extension move table they are built on."""

import ast
import pathlib
import random
import sys

import pytest

import branchpairs.goodpair
import branchpairs.hamilton
import branchpairs.structures
from branchpairs import (
    BadEndpoints,
    ChainObstruction,
    CutArcObstruction,
    Digraph,
    ExtensionObstruction,
    GeneratorConfig,
    GoodPair,
    InternalInconsistency,
    NotSemicomplete,
    PreconditionViolated,
    RootMisplaced,
    SameRootStructure,
    SmallException,
    Tree,
    construct_good_pair,
    cut_arcs,
    decide_good_pair,
    enumerate_semicomplete,
    exception_catalog,
    extend_trees_across_cut,
    fixture,
    hamiltonian_cycle,
    is_k_arc_strong,
    oracle_good_pair,
    oracle_good_pair_targets,
    random_semicomplete,
    same_root_pair,
    strong_decomposition,
    verify_certificate,
    verify_good_pair,
)
from branchpairs.digraph import _masked_components
from branchpairs.goodpair import _same_root_structure, _strong_profile
from conftest import assert_good_pair, strong_instances, trans_back

C3 = fixture("C3").digraph
K3 = fixture("K3").digraph
S4 = fixture("S4").digraph
FIG_B = fixture("FIG_B").digraph
FIG_D = fixture("FIG_D").digraph
CHAIN4 = fixture("CHAIN4").digraph
DIGON = Digraph.from_arcs(2, [(0, 1), (1, 0)])

# Five singleton layers whose only counter-arcs are the chain back arcs.
CHAIN5 = Digraph.from_arcs(
    5,
    [(0, 1), (0, 2), (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 0), (3, 4), (4, 0)],
)


# --------------------------------------------------------------------------
# decide


def test_catalog_members_are_refused_with_their_own_id():
    for catalog_id, digraph, u, v in exception_catalog():
        cert = decide_good_pair(digraph, u, v)
        assert isinstance(cert, SmallException)
        assert cert.catalog_id == catalog_id
        ok, reason = verify_certificate(digraph, u, v, cert)
        assert ok, reason


def test_catalog_roles_are_pinned():
    # FIG_D refuses only its designated roles; the same digraph with the
    # roots moved admits a pair.
    assert decide_good_pair(FIG_D, 1, 3) is None
    assert_good_pair(FIG_D, 1, 3, construct_good_pair(FIG_D, 1, 3))


def test_s4_accepts_every_role_choice():
    for u in range(4):
        for v in range(4):
            assert decide_good_pair(S4, u, v) is None


def test_root_misplaced_certificates():
    cert = decide_good_pair(FIG_B, 1, 2)
    assert isinstance(cert, RootMisplaced)
    assert cert.which == "u-not-initial"
    assert cert.decomposition.components == ((0,), (1,), (2,))
    ok, reason = verify_certificate(FIG_B, 1, 2, cert)
    assert ok, reason
    assert decide_good_pair(FIG_B, 0, 1).which == "v-not-terminal"


def test_cut_arc_certificate_on_chain4():
    cert = decide_good_pair(CHAIN4, 3, 1)
    assert isinstance(cert, CutArcObstruction)
    assert cert.arc == (3, 1)
    assert cert.decomposition.components == ((0, 1, 2), (3,))
    ok, reason = verify_certificate(CHAIN4, 3, 1, cert)
    assert ok, reason


def test_cut_arc_certificate_on_digon():
    cert = decide_good_pair(DIGON, 0, 1)
    assert isinstance(cert, CutArcObstruction)
    assert cert.arc == (0, 1)
    ok, reason = verify_certificate(DIGON, 0, 1, cert)
    assert ok, reason


def test_odd_chain_certificate():
    cert = decide_good_pair(CHAIN5, 2, 3)
    assert isinstance(cert, ChainObstruction)
    assert cert.certificate.parts == ((1,), (3,), (0,), (2,), (4,))
    assert cert.certificate.back_arcs == ((0, 1), (2, 3), (4, 0))
    ok, reason = verify_certificate(CHAIN5, 2, 3, cert)
    assert ok, reason
    # construct routes the same verdict through
    assert isinstance(construct_good_pair(CHAIN5, 2, 3), ChainObstruction)


def test_decide_same_root_via_cut_arc():
    cert = decide_good_pair(C3, 0, 0)
    assert isinstance(cert, CutArcObstruction)
    ok, reason = verify_certificate(C3, 0, 0, cert)
    assert ok, reason


def test_decide_input_errors():
    with pytest.raises(BadEndpoints):
        decide_good_pair(C3, 0, 3)
    with pytest.raises(NotSemicomplete):
        decide_good_pair(Digraph.from_arcs(3, [(0, 1), (1, 2)]), 0, 2)


# --------------------------------------------------------------------------
# construct + verify


def test_construct_s4_everywhere():
    for u in range(4):
        for v in range(4):
            assert_good_pair(S4, u, v, construct_good_pair(S4, u, v))


def test_construct_k3_everywhere():
    for u in range(3):
        for v in range(3):
            assert_good_pair(K3, u, v, construct_good_pair(K3, u, v))


def test_construct_on_a_digon():
    pair = construct_good_pair(DIGON, 0, 0)
    assert isinstance(pair, GoodPair)
    assert pair.out_branching.arc_set() == frozenset({(0, 1)})
    assert pair.in_branching.arc_set() == frozenset({(1, 0)})


def test_same_root_pair_on_k3():
    pair = same_root_pair(K3, 0)
    assert isinstance(pair, GoodPair)
    assert_good_pair(K3, 0, 0, pair)


def test_same_root_structure_on_c3():
    structure = same_root_pair(C3, 0)
    assert structure == SameRootStructure(a_set=(1,), b_set=(2,), c_set=(), arc=(1, 2))
    ok, reason = verify_certificate(C3, 0, 0, structure)
    assert ok, reason


def test_search_budget_exhaustion_is_loud(monkeypatch):
    d = Digraph.from_arcs(3, [(0, 1), (0, 2), (1, 0), (1, 2), (2, 0)])
    assert_good_pair(d, 0, 2, construct_good_pair(d, 0, 2))
    monkeypatch.setattr(branchpairs.structures, "_SEARCH_BUDGET", 1)
    with pytest.raises(InternalInconsistency):
        construct_good_pair(d, 0, 2)


def _tournament_from_bits(n, bits):
    """The tournament whose k-th pair i < j (lexicographic order) points
    i -> j when bit k of `bits` is set, and j -> i otherwise."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return Digraph.from_arcs(
        n, [(i, j) if bits >> k & 1 else (j, i) for k, (i, j) in enumerate(pairs)]
    )


# A strong tournament of order 12 with the single cut arc (7, 4).
KNOWN_FAULT = _tournament_from_bits(12, 0x1C06E606EE6C9FEF1)


def _chain22():
    """A planted 5-part odd chain of order 22: parts {0..3}, {4..8}, {9..12},
    {13..17}, {18..21}, every cross pair pointing forward, and the back arcs
    (11, 1), (14, 6), (18, 12)."""
    parts = [range(0, 4), range(4, 9), range(9, 13), range(13, 18), range(18, 22)]
    inner = [(0, 1), (2, 0), (0, 3), (1, 2), (1, 3), (3, 2),
             (4, 5), (4, 6), (4, 7), (8, 4), (5, 6), (5, 7), (8, 5), (6, 7), (6, 8), (7, 8),
             (10, 9), (9, 11), (9, 12), (11, 10), (10, 12), (12, 11),
             (14, 13), (15, 13), (16, 13), (13, 17), (15, 14), (16, 14), (17, 14), (16, 15),
             (15, 17), (17, 16),
             (19, 18), (18, 20), (21, 18), (19, 20), (21, 19), (20, 21)]
    cross = [(p, q) for i, first in enumerate(parts) for later in parts[i + 1:]
             for p in first for q in later]
    return Digraph.from_arcs(22, inner + cross + [(11, 1), (14, 6), (18, 12)])


def test_chain22_has_a_shared_root_pair_at_13():
    d = _chain22()
    assert decide_good_pair(d, 13, 13) is None
    out_parent = {17: 13, 14: 17, 6: 14, 7: 6, 8: 6, 4: 8, 5: 8, 9: 6, 10: 6, 11: 6,
                  12: 6, 1: 11, 2: 1, 3: 1, 0: 2, 16: 17, 15: 16,
                  18: 13, 19: 13, 20: 13, 21: 13}
    in_parent = {q: 13 for q in (*range(13), 14, 15, 16)}
    in_parent.update({17: 18, 19: 18, 21: 18, 20: 21, 18: 12})
    assert_good_pair(d, 13, 13, GoodPair(Tree("out", 13, out_parent), Tree("in", 13, in_parent)))


# Known faults: decide says yes, but the construction falls back to the
# parent-choice search, which runs out of its budget (after seconds at the
# default one).  A lowered budget keeps the tests fast.

@pytest.mark.xfail(strict=True, raises=InternalInconsistency,
                   reason="the construction search exhausts its budget")
def test_construct_on_chain22_with_shared_root(monkeypatch):
    monkeypatch.setattr(branchpairs.structures, "_SEARCH_BUDGET", 20000)
    assert_good_pair(_chain22(), 13, 13, construct_good_pair(_chain22(), 13, 13))


@pytest.mark.xfail(strict=True, raises=InternalInconsistency,
                   reason="the construction search exhausts its budget")
def test_construct_on_known_fault(monkeypatch):
    monkeypatch.setattr(branchpairs.structures, "_SEARCH_BUDGET", 20000)
    assert decide_good_pair(KNOWN_FAULT, 4, 7) is None
    try:
        pair = construct_good_pair(KNOWN_FAULT, 4, 7)
    except InternalInconsistency as exc:
        # The benchmark counts this query as its known fault only by this text.
        assert f"{type(exc).__name__}: {exc}" == (
            "InternalInconsistency: pair search exhausted its budget"
        )
        raise
    assert_good_pair(KNOWN_FAULT, 4, 7, pair)


def test_search_pair_is_called_only_from_its_known_routes():
    # The parent-choice search is the fallback that construction should
    # lose: it may run on the order-3 cut-arc route, after the residual
    # attempts on a spanning cycle, and when `_cut_arc_pair` meets an
    # ExtensionObstruction.  Every other route has a closed form.  Each call
    # must be a statement right under an `if`, so that its guard is named.
    path = pathlib.Path(branchpairs.goodpair.__file__)
    tree = ast.parse(path.read_text(encoding="utf-8"))
    sites = sorted(
        (function.name, ast.unparse(node.test))
        for function in ast.walk(tree)
        if isinstance(function, ast.FunctionDef)
        for node in ast.walk(function)
        if isinstance(node, ast.If)
        for statement in node.body
        if _calls_search_pair(getattr(statement, "value", None))
    )
    calls = [node for node in ast.walk(tree) if _calls_search_pair(node)]
    assert len(calls) == len(sites)
    assert sites == [
        ("_build_pair", "n == 3"),
        ("_cut_arc_pair", "isinstance(result, ExtensionObstruction)"),
        ("_cut_arc_pair", "isinstance(result, ExtensionObstruction)"),
        ("_cycle_pair", "attempt is None"),
    ]


def _calls_search_pair(node) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "_search_pair"
    )


def test_verify_good_pair_rejections():
    pair = construct_good_pair(S4, 0, 3)
    shared = GoodPair(pair.out_branching, pair.out_branching.reversed_kind())
    ok, reason = verify_good_pair(S4, 0, 3, shared)
    assert not ok and isinstance(reason, str)
    ok, _ = verify_good_pair(S4, 1, 3, pair)  # wrong out root
    assert not ok
    partial = GoodPair(Tree("out", 0, {1: 0}), pair.in_branching)
    ok, _ = verify_good_pair(S4, 0, 3, partial)  # out side does not span
    assert not ok
    # a pair built for S4 leans on arcs FIG_D does not have
    ok, _ = verify_good_pair(FIG_D, 0, 3, pair)
    assert not ok


def test_verify_certificate_rejections():
    small = decide_good_pair(*exception_catalog()[0][1:])
    wrong_small = SmallException("b", small.iso)
    ok, _ = verify_certificate(exception_catalog()[0][1], 0, 1, wrong_small)
    assert not ok

    cut = decide_good_pair(CHAIN4, 3, 1)
    not_a_cut = CutArcObstruction((0, 1), cut.decomposition)
    ok, _ = verify_certificate(CHAIN4, 3, 1, not_a_cut)
    assert not ok

    misplaced = decide_good_pair(FIG_B, 1, 2)
    ok, _ = verify_certificate(FIG_B, 0, 2, misplaced)  # u actually fine here
    assert not ok

    chain = decide_good_pair(CHAIN5, 2, 3)
    ok, _ = verify_certificate(CHAIN5, 3, 2, chain)  # roles swapped
    assert not ok

    structure = same_root_pair(C3, 0)
    tampered = SameRootStructure(structure.a_set, structure.b_set, structure.c_set, (2, 0))
    ok, _ = verify_certificate(C3, 0, 0, tampered)
    assert not ok


# --------------------------------------------------------------------------
# differential sweeps


def test_decide_matches_oracle_exhaustively_to_order_four():
    for n in range(1, 5):
        for d in enumerate_semicomplete(n):
            for u in range(n):
                targets = set(oracle_good_pair_targets(d, u))
                for v in range(n):
                    cert = decide_good_pair(d, u, v)
                    assert (cert is None) == (v in targets)
                    if cert is None:
                        assert_good_pair(d, u, v, construct_good_pair(d, u, v))
                    else:
                        ok, reason = verify_certificate(d, u, v, cert)
                        assert ok, reason


def _strong_not_two_arc_strong(n, count):
    """The first `count` seeded strong digraphs of order n that have a cut
    arc, so that decisions reach the cut-arc and odd-chain stages."""
    found = []
    seed = 0
    while len(found) < count:
        config = GeneratorConfig(n=n, digon_prob=(0.0, 0.15, 0.3)[seed % 3],
                                 seed=seed, constraint="strong")
        seed += 1
        d = random_semicomplete(config)
        if not is_k_arc_strong(d, 2):
            found.append(d)
    return found


def _planted_chain(sizes, rng):
    """Strong parts (a vertex, a digon or a 3-cycle, some pairs doubled),
    every cross pair pointing forward, plus one back arc from each part to
    the part two before it, vertices shuffled.  With v in the second part and
    u in the next-to-last one this is an odd-chain no when len(sizes) is odd."""
    label = list(range(sum(sizes)))
    rng.shuffle(label)
    parts, start = [], 0
    for size in sizes:
        parts.append([label[i] for i in range(start, start + size)])
        start += size
    arcs = set()
    for part in parts:
        if len(part) > 1:
            arcs.update(zip(part, part[1:] + part[:1]))
            arcs.update((q, p) for p, q in zip(part, part[1:]) if rng.random() < 0.3)
    for i, part in enumerate(parts):
        arcs.update((p, q) for later in parts[i + 1:] for p in part for q in later)
    for i in range(len(parts) - 2):
        arcs.add((rng.choice(parts[i + 2]), rng.choice(parts[i])))
    u, v = rng.choice(parts[-2]), rng.choice(parts[1])
    return Digraph.from_arcs(sum(sizes), sorted(arcs)), u, v


def test_decide_matches_oracle_on_cut_arc_instances():
    # Strong digraphs with cut arcs are where the cut-arc scan and the
    # layered odd-chain detector decide the answer; the brute-force oracle
    # checks every root pair.
    rng = random.Random(5)
    shapes = [(1, 1, 1, 1, 1), (2, 1, 1, 1, 1), (1, 1, 2, 1, 1), (1, 1, 1, 1, 3),
              (3, 1, 1, 1, 1), (1, 2, 1, 2, 1), (1, 1, 3, 1, 2), (1,) * 7,
              (1, 1, 1, 2, 1, 1, 1)]
    instances = [(d, None) for n, count in ((6, 40), (7, 40), (8, 25))
                 for d in _strong_not_two_arc_strong(n, count)]
    instances += [(d, (u, v)) for sizes in shapes for _ in range(2)
                  for d, u, v in [_planted_chain(sizes, rng)]]
    for d, planted in instances:
        for u in range(d.n):
            targets = set(oracle_good_pair_targets(d, u))
            for v in range(d.n):
                assert (decide_good_pair(d, u, v) is None) == (v in targets), (d, u, v)
        if planted is not None:
            u, v = planted
            assert v not in oracle_good_pair_targets(d, u), d


def _count_calls(monkeypatch, home, name):
    """Count calls of the function `name` of module `home` wherever the
    package binds it."""
    original = getattr(home, name)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("branchpairs") and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counting)
    return calls


def test_strong_profile_lives_on_the_digraph(monkeypatch):
    cycles = _count_calls(monkeypatch, branchpairs.hamilton, "_hamiltonian_cycle")
    d = Digraph(S4.n, S4.out_masks())
    assert decide_good_pair(d, 0, 3) is None
    assert_good_pair(d, 0, 3, construct_good_pair(d, 0, 3))
    assert decide_good_pair(d, 1, 2) is None
    assert_good_pair(d, 1, 1, same_root_pair(d, 1))
    assert_good_pair(d, 2, 2, construct_good_pair(d, 2, 2))
    # one cycle serves decide, construct and the shared-root pair
    assert len(cycles) == 1
    # nothing is kept across instances, so an equal digraph starts afresh
    assert decide_good_pair(Digraph(S4.n, S4.out_masks()), 0, 3) is None
    assert len(cycles) == 2


def test_construct_after_decide_does_not_detect_again(monkeypatch):
    detections = _count_calls(monkeypatch, branchpairs.structures, "detect_odd_chain")
    d = trans_back(8)
    assert decide_good_pair(d, 0, 7) is None
    assert_good_pair(d, 0, 7, construct_good_pair(d, 0, 7))
    assert len(detections) == 1
    chain = Digraph(CHAIN5.n, CHAIN5.out_masks())
    cert = decide_good_pair(chain, 2, 3)
    assert isinstance(cert, ChainObstruction)
    assert construct_good_pair(chain, 2, 3) == cert
    assert len(detections) == 2


def test_profile_matches_cut_arcs_and_flows():
    # The profile finds cut arcs among the arcs of one hamiltonian cycle;
    # the public functions test every arc and run max-flows.
    instances = strong_instances()
    assert sum(not is_k_arc_strong(d, 2) for d in instances) > 60
    for d in instances:
        profile = _strong_profile(d)
        assert profile.decomposition == strong_decomposition(d)
        assert profile.cycle == hamiltonian_cycle(d)
        assert [arc for arc, _ in profile.cut_entries] == cut_arcs(d)
        assert profile.two_arc_strong == is_k_arc_strong(d, 2)
        for (tail, head), reduced in profile.cut_entries:
            assert reduced == strong_decomposition(d.without_arc(tail, head))


def test_same_root_pair_matches_oracle_exhaustively():
    for n in range(1, 5):
        for d in enumerate_semicomplete(n):
            strong = strong_decomposition(d).is_strong
            for u in range(n):
                if not strong and n > 1:
                    # u cannot sit in the initial and terminal component at
                    # once, so the shared-root question needs a strong input
                    assert oracle_good_pair(d, u, u) is None
                    continue
                outcome = same_root_pair(d, u)
                if isinstance(outcome, GoodPair):
                    assert_good_pair(d, u, u, outcome)
                    assert oracle_good_pair(d, u, u) is not None
                else:
                    assert oracle_good_pair(d, u, u) is None


def _list_based_same_root_structure(d, u):
    """The shared-root rule with Tarjan's components and the full lists of
    arcs leaving the terminal component of D<A> and entering the initial
    component of D<B>."""
    n = d.n
    a = [q for q in range(n) if d.has_arc(u, q) and not d.has_arc(q, u)]
    b = [q for q in range(n) if d.has_arc(q, u) and not d.has_arc(u, q)]
    if not a or not b:
        return None
    terminal = _masked_components(n, d.out_masks(), sum(1 << q for q in a))[-1]
    leaving = [(p, q) for p in range(n) if terminal >> p & 1
               for q in range(n) if not terminal >> q & 1 and d.has_arc(p, q)]
    if len(leaving) != 1:
        return None
    initial = _masked_components(n, d.out_masks(), sum(1 << q for q in b))[0]
    entering = [(p, q) for q in range(n) if initial >> q & 1
                for p in range(n) if not initial >> p & 1 and d.has_arc(p, q)]
    if entering != leaving:
        return None
    shared = [q for q in range(n) if q != u and d.has_arc(u, q) and d.has_arc(q, u)]
    return SameRootStructure(tuple(a), tuple(b), tuple(shared), leaving[0])


def _with_same_root_structure(rng, n):
    """A strong digraph of order n >= 3 that holds a SameRootStructure at
    some root: u dominates block A, block B dominates u, block C is joined
    to u both ways; the one arc (t, h) from the terminal component of D<A>
    into the initial component of D<B> is the only arc leaving the one or
    entering the other.  Vertex ids are shuffled."""
    a_size = rng.randrange(1, n - 1)
    b_size = rng.randrange(1, n - a_size)
    blocks = [range(1, 1 + a_size), range(1 + a_size, 1 + a_size + b_size),
              range(1 + a_size + b_size, n)]
    out = [0] * n
    for block in blocks:
        for p in block:
            for q in block:
                if p < q:
                    roll = rng.random()
                    out[p] |= (roll < 0.6) << q
                    out[q] |= (roll > 0.4) << p
    a_block, b_block, c_block = blocks
    a_mask = sum(1 << p for p in a_block)
    b_mask = sum(1 << q for q in b_block)
    terminal = _masked_components(n, out, a_mask)[-1]
    initial = _masked_components(n, out, b_mask)[0]
    t = rng.choice([p for p in a_block if terminal >> p & 1])
    h = rng.choice([q for q in b_block if initial >> q & 1])
    out[0] |= a_mask | sum(1 << c for c in c_block)
    for q in b_block:
        out[q] |= 1
        for p in a_block:
            out[q] |= 1 << p
    out[h] &= ~(1 << t)
    out[t] |= 1 << h
    for c in c_block:
        out[c] |= 1 | terminal
        for q in b_block:
            out[q] |= 1 << c
            if not initial >> q & 1 and rng.random() < 0.3:
                out[c] |= 1 << q
        for p in a_block:
            if not terminal >> p & 1:
                roll = rng.random()
                out[c] |= (roll < 0.6) << p
                out[p] |= (roll > 0.4) << c
    perm = list(range(n))
    rng.shuffle(perm)
    arcs = [(perm[p], perm[q]) for p in range(n) for q in range(n) if out[p] >> q & 1]
    return Digraph.from_arcs(n, arcs)


def test_same_root_pair_matches_the_list_based_rule():
    # Where the rule finds no structure, same_root_pair goes on to build a
    # pair (`_cycle_pair`), which the exhaustive oracle test covers; here the
    # rule itself is compared at every root.
    rng = random.Random(23)
    instances = strong_instances()
    instances += [
        random_semicomplete(GeneratorConfig(n=n, digon_prob=p, seed=seed, constraint="strong"))
        for n in range(5, 31, 5) for p in (0.0, 0.2) for seed in range(2)
    ]
    instances += [_with_same_root_structure(rng, n) for n in range(5, 31)]
    structures = 0
    for d in instances:
        assert strong_decomposition(d).is_strong
        for u in range(d.n):
            expected = _list_based_same_root_structure(d, u)
            assert _same_root_structure(d, u) == expected
            if expected is not None:
                assert same_root_pair(d, u) == expected
                structures += 1
    assert structures >= 26


@pytest.mark.xfail(strict=True, raises=InternalInconsistency,
                   reason="the construction search exhausts its budget")
def test_same_root_pair_on_two_blocks_of_order_ten(monkeypatch):
    monkeypatch.setattr(branchpairs.structures, "_SEARCH_BUDGET", 20000)
    d = Digraph.from_arcs(10, [
        (0, 2), (0, 5), (0, 6), (0, 7), (0, 8), (0, 9), (1, 0), (1, 2), (1, 3), (1, 5),
        (1, 6), (1, 7), (1, 8), (1, 9), (2, 3), (2, 5), (2, 6), (2, 7), (2, 8), (2, 9),
        (3, 0), (3, 4), (3, 5), (3, 6), (3, 7), (3, 8), (3, 9), (4, 0), (4, 1), (4, 2),
        (4, 5), (4, 6), (4, 7), (4, 8), (4, 9), (5, 6), (5, 7), (6, 9), (7, 6), (7, 9),
        (8, 5), (8, 6), (8, 7), (8, 9), (9, 0), (9, 5),
    ])
    assert decide_good_pair(d, 2, 2) is None
    assert_good_pair(d, 2, 2, same_root_pair(d, 2))


# --------------------------------------------------------------------------
# the extension move table, one frozen vector per move


def _assert_extended(digraph, result, out_tree, in_tree):
    assert isinstance(result, tuple), result
    out2, in2 = result
    for tree in (out2, in2):
        ok, reason = tree.validate(digraph, within=range(digraph.n))
        assert ok, reason
    assert not out2.arc_set() & in2.arc_set()
    assert out_tree.arc_set() <= out2.arc_set()
    assert in_tree.arc_set() <= in2.arc_set()
    assert (out2.root, in2.root) == (out_tree.root, in_tree.root)


def test_no_arc_extension_through_an_unused_arc_in_x():
    d = Digraph.from_arcs(4, [(0, 1), (1, 0), (2, 3), (0, 2), (0, 3), (1, 2), (1, 3)])
    out_tree, in_tree = Tree("out", 0, {1: 0}), Tree("in", 3, {2: 3})
    result = extend_trees_across_cut(d, out_tree, in_tree, (0, 1), (2, 3), "no-arc")
    _assert_extended(d, result, out_tree, in_tree)


def test_no_arc_extension_through_an_unused_arc_in_y():
    d = Digraph.from_arcs(4, [(0, 1), (2, 3), (3, 2), (0, 2), (0, 3), (1, 2), (1, 3)])
    out_tree, in_tree = Tree("out", 0, {1: 0}), Tree("in", 3, {2: 3})
    result = extend_trees_across_cut(d, out_tree, in_tree, (0, 1), (2, 3), "no-arc")
    _assert_extended(d, result, out_tree, in_tree)


def test_no_arc_crosswise_completion():
    d = Digraph.from_arcs(4, [(0, 1), (2, 3), (0, 2), (0, 3), (1, 2), (1, 3)])
    out_tree, in_tree = Tree("out", 0, {1: 0}), Tree("in", 3, {2: 3})
    result = extend_trees_across_cut(d, out_tree, in_tree, (0, 1), (2, 3), "no-arc")
    _assert_extended(d, result, out_tree, in_tree)


def test_no_arc_small_obstruction():
    d = Digraph.from_arcs(2, [(0, 1)])
    result = extend_trees_across_cut(
        d, Tree("out", 0), Tree("in", 1), (0,), (1,), "no-arc"
    )
    assert result == ExtensionObstruction("no-arc", "small", (0,), (1,))


def test_in_tree_arc_extension_with_extra_coverage():
    d = Digraph.from_arcs(
        5,
        [(0, 1), (2, 0), (2, 1), (4, 3), (3, 0), (0, 4), (1, 3), (1, 4), (2, 3), (2, 4)],
    )
    out_tree = Tree("out", 2, {0: 2, 1: 2})
    in_tree = Tree("in", 1, {0: 1, 3: 0, 4: 3})
    result = extend_trees_across_cut(
        d, out_tree, in_tree, (0, 1, 2), (3, 4), "in-tree-arc", arc=(3, 0)
    )
    _assert_extended(d, result, out_tree, in_tree)


def test_in_tree_arc_extension_through_an_unused_arc_in_x():
    d = Digraph.from_arcs(4, [(0, 1), (1, 0), (3, 0), (2, 3), (0, 2), (1, 2), (1, 3)])
    out_tree = Tree("out", 0, {1: 0})
    in_tree = Tree("in", 0, {3: 0, 2: 3})
    result = extend_trees_across_cut(
        d, out_tree, in_tree, (0, 1), (2, 3), "in-tree-arc", arc=(3, 0)
    )
    _assert_extended(d, result, out_tree, in_tree)


def test_in_tree_arc_saturated_target_obstruction():
    d = Digraph.from_arcs(2, [(1, 0)])
    result = extend_trees_across_cut(
        d, Tree("out", 0), Tree("in", 0, {1: 0}), (0,), (1,), "in-tree-arc", arc=(1, 0)
    )
    assert result == ExtensionObstruction("in-tree-arc", "saturated-target", (0,), (1,))


def test_back_arc_extension_with_large_sides():
    d = Digraph.from_arcs(
        5,
        [(0, 1), (0, 2), (1, 2), (4, 3), (3, 0), (0, 4), (1, 3), (1, 4), (2, 3), (2, 4)],
    )
    out_tree = Tree("out", 0, {1: 0, 2: 0})
    in_tree = Tree("in", 3, {4: 3})
    result = extend_trees_across_cut(
        d, out_tree, in_tree, (0, 1, 2), (3, 4), "back-arc", arc=(3, 0)
    )
    _assert_extended(d, result, out_tree, in_tree)


def test_back_arc_extension_through_an_unused_arc_in_x():
    d = Digraph.from_arcs(4, [(0, 1), (1, 0), (3, 2), (2, 0), (0, 3), (1, 2), (1, 3)])
    out_tree = Tree("out", 0, {1: 0})
    in_tree = Tree("in", 2, {3: 2})
    result = extend_trees_across_cut(
        d, out_tree, in_tree, (0, 1), (2, 3), "back-arc", arc=(2, 0)
    )
    _assert_extended(d, result, out_tree, in_tree)


def test_back_arc_reroute_on_two_by_two_sides():
    d = Digraph.from_arcs(
        4, [(1, 0), (0, 1), (2, 3), (3, 2), (2, 0), (1, 2), (1, 3), (0, 3)]
    )
    out_tree = Tree("out", 1, {0: 1})
    in_tree = Tree("in", 3, {2: 3})
    result = extend_trees_across_cut(
        d, out_tree, in_tree, (0, 1), (2, 3), "back-arc", arc=(2, 0)
    )
    # the reroute move rebuilds the out-tree, so only roots are preserved
    assert isinstance(result, tuple)
    out2, in2 = result
    for tree in (out2, in2):
        ok, reason = tree.validate(d, within=range(4))
        assert ok, reason
    assert not out2.arc_set() & in2.arc_set()
    assert (out2.root, in2.root) == (1, 3)


def test_back_arc_rescue_when_all_unused_arcs_leave_the_boundary():
    d = Digraph.from_arcs(4, [(0, 1), (0, 2), (1, 2), (0, 3), (2, 3), (3, 1)])
    out_tree = Tree("out", 0, {1: 0, 2: 0})
    in_tree = Tree("in", 3)
    result = extend_trees_across_cut(
        d, out_tree, in_tree, (0, 1, 2), (3,), "back-arc", arc=(3, 1)
    )
    assert isinstance(result, tuple)
    out2, in2 = result
    for tree in (out2, in2):
        ok, reason = tree.validate(d, within=range(4))
        assert ok, reason
    assert not out2.arc_set() & in2.arc_set()
    assert (out2.root, in2.root) == (0, 3)


def test_back_arc_rescue_through_the_digon_partner():
    d = Digraph.from_arcs(
        4, [(0, 1), (1, 2), (0, 2), (2, 0), (3, 0), (1, 3), (2, 3), (0, 3)]
    )
    out_tree = Tree("out", 0, {1: 0, 2: 1})
    in_tree = Tree("in", 3)
    result = extend_trees_across_cut(
        d, out_tree, in_tree, (0, 1, 2), (3,), "back-arc", arc=(3, 0)
    )
    _assert_extended(d, result, out_tree, in_tree)


def test_back_arc_singleton_target_obstruction():
    # Same shape as the digon rescue but with no (0,3) arc: the one unused
    # digon inside X cannot be split between the trees.
    d = Digraph.from_arcs(4, [(0, 1), (1, 2), (0, 2), (2, 0), (3, 0), (1, 3), (2, 3)])
    result = extend_trees_across_cut(
        d,
        Tree("out", 0, {1: 0, 2: 1}),
        Tree("in", 3),
        (0, 1, 2),
        (3,),
        "back-arc",
        arc=(3, 0),
    )
    assert result == ExtensionObstruction("back-arc", "singleton-target", (0, 1, 2), (3,))


def test_back_arc_singleton_source_obstruction():
    d = Digraph.from_arcs(
        4, [(0, 1), (1, 2), (0, 2), (2, 0), (3, 0), (1, 3), (2, 3)]
    ).reverse()
    result = extend_trees_across_cut(
        d,
        Tree("out", 3),
        Tree("in", 0, {1: 0, 2: 1}),
        (3,),
        (0, 1, 2),
        "back-arc",
        arc=(0, 3),
    )
    assert result == ExtensionObstruction("back-arc", "singleton-source", (3,), (0, 1, 2))


def test_back_arc_two_two_obstruction():
    d = Digraph.from_arcs(4, [(0, 1), (3, 2), (2, 0), (0, 3), (1, 2), (1, 3)])
    result = extend_trees_across_cut(
        d, Tree("out", 0, {1: 0}), Tree("in", 2, {3: 2}), (0, 1), (2, 3), "back-arc", arc=(2, 0)
    )
    assert result == ExtensionObstruction("back-arc", "two-two", (0, 1), (2, 3))


# --------------------------------------------------------------------------
# extension preconditions


def test_extension_rejects_bad_side_partitions():
    with pytest.raises(PreconditionViolated):
        extend_trees_across_cut(K3, Tree("out", 0), Tree("in", 2), (0, 1), (1, 2), "no-arc")
    with pytest.raises(PreconditionViolated):
        extend_trees_across_cut(K3, Tree("out", 0), Tree("in", 2), (0,), (2,), "no-arc")
    with pytest.raises(PreconditionViolated):
        extend_trees_across_cut(K3, Tree("out", 0), Tree("in", 2), (), (0, 1, 2), "no-arc")


def test_extension_rejects_unknown_modes_and_misplaced_arcs():
    d = Digraph.from_arcs(4, [(0, 1), (2, 3), (0, 2), (0, 3), (1, 2), (1, 3)])
    out_tree, in_tree = Tree("out", 0, {1: 0}), Tree("in", 3, {2: 3})
    with pytest.raises(PreconditionViolated):
        extend_trees_across_cut(d, out_tree, in_tree, (0, 1), (2, 3), "sideways")
    with pytest.raises(PreconditionViolated):
        extend_trees_across_cut(d, out_tree, in_tree, (0, 1), (2, 3), "no-arc", arc=(2, 0))
    with pytest.raises(PreconditionViolated):
        extend_trees_across_cut(d, out_tree, in_tree, (0, 1), (2, 3), "back-arc")
    with pytest.raises(PreconditionViolated):
        # designated arc must run from the in side to the out side
        extend_trees_across_cut(d, out_tree, in_tree, (0, 1), (2, 3), "back-arc", arc=(0, 2))


def test_extension_rejects_missing_or_used_cross_arcs():
    gap = Digraph.from_arcs(4, [(0, 1), (2, 3), (0, 2), (0, 3), (1, 2), (3, 1)])
    with pytest.raises(PreconditionViolated):
        extend_trees_across_cut(
            gap, Tree("out", 0, {1: 0}), Tree("in", 3, {2: 3}), (0, 1), (2, 3), "no-arc"
        )
    d = Digraph.from_arcs(4, [(0, 1), (2, 3), (0, 2), (0, 3), (1, 2), (1, 3)])
    straddling = Tree("out", 0, {1: 0, 2: 0})  # uses cross arc (0, 2)
    with pytest.raises(PreconditionViolated):
        extend_trees_across_cut(
            d, straddling, Tree("in", 3, {2: 3}), (0, 1), (2, 3), "no-arc"
        )


def _two_sides(flipped=(), added=()):
    """Sides X = {0, 1, 2} and Y = {3, 4, 5}, each transitive, every cross
    pair pointing from X into Y; then each arc of `flipped` is reversed and
    each arc of `added` joins."""
    arcs = {(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)}
    arcs |= {(p, q) for p in range(3) for q in range(3, 6)}
    arcs -= set(flipped)
    arcs |= {(q, p) for p, q in flipped} | set(added)
    return Digraph.from_arcs(6, sorted(arcs))


_OUT_X = Tree("out", 0, {1: 0, 2: 0})
_IN_Y = Tree("in", 5, {3: 5, 4: 5})


@pytest.mark.parametrize("digraph, out_tree, in_tree, mode, arc, message", [
    # (1, 4) and the later (2, 3) are reversed
    (_two_sides(flipped=[(1, 4), (2, 3)]), _OUT_X, _IN_Y, "no-arc", None,
     "missing forward arc (1,4)"),
    # the out-tree reaches 4 along the cross arc (1, 4)
    (_two_sides(), Tree("out", 0, {1: 0, 2: 0, 4: 1}), _IN_Y, "no-arc", None,
     "cross arc (1,4) is already used"),
    # the in-tree drains 4 along the backward arc (4, 1), then 1 along (1, 5)
    (_two_sides(added=[(4, 1)]), _OUT_X, Tree("in", 5, {3: 5, 4: 1, 1: 5}), "no-arc", None,
     "cross arc (4,1) is already used"),
    # the designated arc (5, 0) may run backward, (4, 1) may not
    (_two_sides(added=[(5, 0), (4, 1)]), _OUT_X, _IN_Y, "back-arc", (5, 0),
     "unexpected backward arc (4,1)"),
])
def test_extension_names_the_first_offending_cross_pair(
    digraph, out_tree, in_tree, mode, arc, message
):
    with pytest.raises(PreconditionViolated) as raised:
        extend_trees_across_cut(digraph, out_tree, in_tree, (0, 1, 2), (3, 4, 5), mode, arc)
    assert str(raised.value) == message


def test_extension_rejects_wrong_tree_kinds_and_coverage():
    d = Digraph.from_arcs(4, [(0, 1), (2, 3), (0, 2), (0, 3), (1, 2), (1, 3)])
    with pytest.raises(PreconditionViolated):
        extend_trees_across_cut(
            d, Tree("in", 0, {}), Tree("in", 3, {2: 3}), (0, 1), (2, 3), "no-arc"
        )
    with pytest.raises(PreconditionViolated):
        extend_trees_across_cut(
            d, Tree("out", 0), Tree("in", 3, {2: 3}), (0, 1), (2, 3), "no-arc"
        )


def test_back_arc_mode_requires_confined_trees():
    d = Digraph.from_arcs(
        4, [(0, 1), (3, 2), (2, 0), (0, 3), (1, 2), (1, 3), (2, 1)]
    )
    # in-tree reaches across via (2,1): not allowed in back-arc mode
    in_tree = Tree("in", 2, {3: 2, 1: 2})
    with pytest.raises(PreconditionViolated):
        extend_trees_across_cut(
            d, Tree("out", 0, {1: 0}), in_tree, (0, 1), (2, 3), "back-arc", arc=(2, 0)
        )
