"""The generators give semicomplete, pairwise-distinct instances with the
properties each family declares."""

import itertools
import random

from branchpairs import Digraph, TypeCertificate, verify_type_certificate
from check import is_semicomplete, is_strong, strength
from workloads import WORKLOADS, planted_chain, rounds, trans_back, two_blocks


def first_rounds(workload, seed, count):
    return [inst for batch in itertools.islice(rounds(workload, seed), count) for inst in batch]


def test_instances_are_semicomplete_distinct_and_reproducible():
    for workload in WORKLOADS:
        count = 2 if workload == "large_random" else 4
        batch = first_rounds(workload, 7, count)
        texts = [text for _, text in batch]
        relabelled = [text for inst, text in batch if not inst.known_fault]
        assert len(set(relabelled)) == len(relabelled), workload
        assert texts == [text for _, text in first_rounds(workload, 7, count)]
        assert texts != [text for _, text in first_rounds(workload, 8, count)]
        for inst, text in batch:
            assert is_semicomplete(inst.n, inst.arcs), (workload, inst.family)
            assert text.startswith(f"{inst.n} {len(inst.arcs)}\n")
            assert all(0 <= q < inst.n for pair in inst.pairs for q in pair)


def test_adversarial_families_are_strong_but_not_two_arc_strong():
    for n in (5, 12, 30):
        assert strength(n, trans_back(n)) == "strong"
    # Random(3) orients the blocks, so strength holds per order, not for all.
    for n in (22, 30, 40):
        assert strength(n, two_blocks(n)) == "strong"
    for inst, _ in first_rounds("adversarial", 3, 2):
        assert strength(inst.n, inst.arcs) == "strong", inst.family


def test_planted_chains_verify_as_odd_chains():
    rng = random.Random(5)
    for sizes in ([5, 6, 5, 6, 5], [3, 4, 4, 4, 4, 4, 3], [1, 3, 1, 3, 1]):
        arcs, parts = planted_chain(rng, sizes)
        back = tuple(arcs[len(arcs) - len(parts) + 2 :])
        cert = TypeCertificate("chain", parts, back, u=parts[-2][0], w=parts[-1][0], v=parts[1][0])
        ok, reason = verify_type_certificate(Digraph.from_arcs(sum(sizes), arcs), cert)
        assert ok, reason


def test_stacked_instances_are_split_with_strong_blocks():
    stacked = [inst for inst, _ in first_rounds("large_random", 2, 1) if inst.family == "stacked"]
    assert {kind for inst in stacked for kind in inst.expect.values()} == {"yes", "root-misplaced"}
    for inst in stacked:
        assert not is_strong(inst.n, inst.arcs)


def test_small_sweep_classes_follow_the_slots():
    batch = first_rounds("small_sweep", 4, 1)
    assert sum(len(inst.pairs) for inst, _ in batch) == 1643 + 144
    for inst, _ in batch:
        wanted = inst.family.split("/")[0]
        assert strength(inst.n, inst.arcs) == wanted
        assert len(inst.pairs) == inst.n * inst.n
        assert inst.oracle == (inst.n <= 8)
