"""Private helpers that work on a vertex mask of the parent digraph give the
answers of the same helpers on the relabelled copy `Digraph.induced` builds,
mapped back to the parent's vertex ids."""

import dataclasses
import itertools
import re

from branchpairs import (
    GeneratorConfig,
    cut_arcs,
    random_semicomplete,
    relabel_type_certificate,
    strong_decomposition,
    verify_type_certificate,
)
from branchpairs.digraph import _mask
from branchpairs.hamilton import _hamiltonian_cycle
from branchpairs.structures import _detect, _verify_type_certificate
from conftest import strong_instances


def _components():
    """(digraph, component) for every strong component of order two or more
    of the strong instances, of each of them minus one cut arc, and of some
    non-strong digraphs."""
    digraphs = []
    for d in strong_instances():
        digraphs.append(d)
        digraphs += [d.without_arc(*arc) for arc in cut_arcs(d)]
    digraphs += [
        random_semicomplete(GeneratorConfig(n=n, digon_prob=p, seed=seed, constraint="non-strong"))
        for n in range(4, 10) for p in (0.0, 0.3) for seed in range(2)
    ]
    for d in digraphs:
        for component in strong_decomposition(d).components:
            if len(component) >= 2:
                yield d, component


def _local_reason(reason, ids):
    """A reason of the relabelled copy with its arcs named in parent ids."""
    if reason is None:
        return None
    return re.sub(r"\((\d+),(\d+)\)", lambda m: f"({ids[int(m[1])]},{ids[int(m[2])]})", reason)


def _tampered(cert):
    """The certificate and a few broken variants of it, all inside its parts."""
    yield cert
    for k, (tail, head) in enumerate(cert.back_arcs):
        backs = list(cert.back_arcs)
        backs[k] = (head, tail)
        yield dataclasses.replace(cert, back_arcs=tuple(backs))
    moved = cert.parts[-1][0]
    parts = [tuple(q for q in part if q != moved) for part in cert.parts]
    parts[0] = tuple(sorted(parts[0] + (moved,)))
    yield dataclasses.replace(cert, parts=tuple(parts))
    yield dataclasses.replace(cert, u=cert.v, v=cert.u)


def test_masked_helpers_match_relabelled_copies():
    checked = {"cycle": 0, "detect": 0, "found": 0, "verify": 0, "rejected": 0}
    for d, component in _components():
        host = _mask(component)
        sub, ids = d.induced(component)
        pos = {orig: local for local, orig in enumerate(ids)}
        expected = tuple(ids[q] for q in _hamiltonian_cycle(sub).vertices)
        assert _hamiltonian_cycle(d, host).vertices == expected
        checked["cycle"] += 1
        if d.n > 7 or len(component) == d.n:
            continue
        # Every role triple, each odd-chain placement, and the path-pair
        # search's shape with a required vertex.
        pairs = list(itertools.product(component, repeat=2))
        requests = [(u, w, v, None, False) for u, w, v in itertools.product(component, repeat=3)]
        requests += [(u, None, v, None, True) for u, v in pairs]
        requests += [(u, u, component[-1], z, False) for u, z in pairs]
        for u, w, v, required, odd_only in requests:
            local = _detect(
                sub, pos[u], None if w is None else pos[w], pos[v],
                None if required is None else pos[required], odd_only, (1 << sub.n) - 1,
            )
            got = _detect(d, u, w, v, required, odd_only, host)
            assert got == (None if local is None else relabel_type_certificate(local, ids))
            checked["detect"] += 1
            if got is None:
                continue
            checked["found"] += 1
            for cert in _tampered(got):
                ok, reason = verify_type_certificate(sub, relabel_type_certificate(cert, pos))
                assert _verify_type_certificate(d, cert, host) == (ok, _local_reason(reason, ids))
                checked["verify"] += 1
                checked["rejected"] += not ok
    assert min(checked.values()) > 0, checked
