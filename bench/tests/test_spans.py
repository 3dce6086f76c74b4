"""The tracer wraps every listed function wherever the package binds it,
counts what it should, and puts every original back."""

import sys

import branchpairs
import branchpairs.io
from spans import LAYERS, Tracer


def package_namespaces():
    return {
        name: dict(vars(module))
        for name, module in sys.modules.items()
        if module is not None and (name == "branchpairs" or name.startswith("branchpairs."))
    }


def test_wrappers_reach_every_namespace_and_are_removed_each_time():
    before = package_namespaces()
    tracer = Tracer()
    for _ in range(2):  # a traced run enters the same tracer once per round
        with tracer:
            for layer, names in LAYERS.items():
                module = sys.modules[f"branchpairs.{layer}"]
                for name in names:
                    assert getattr(module, name) is not before[f"branchpairs.{layer}"][name]
            assert branchpairs.decide_good_pair is not before["branchpairs"]["decide_good_pair"]
            goodpair = sys.modules["branchpairs.goodpair"]
            assert goodpair.detect_odd_chain is not before["branchpairs.goodpair"]["detect_odd_chain"]
        after = package_namespaces()
        for name, namespace in before.items():
            for attr, value in namespace.items():
                assert after[name][attr] is value, f"{name}.{attr} not restored"


def test_originals_are_restored_after_an_error():
    original = branchpairs.decide_good_pair
    try:
        with Tracer():
            raise KeyError("boom")
    except KeyError:
        pass
    assert branchpairs.decide_good_pair is original


def test_calls_self_time_and_outcomes_are_recorded():
    text = "5 11\n0 1\n0 2\n0 3\n0 4\n1 2\n1 3\n1 4\n2 3\n2 4\n3 4\n4 0\n"
    with Tracer() as tracer:
        digraph = branchpairs.io.parse_digraph(text)
        answer = branchpairs.decide_good_pair(digraph, 4, 0)
    metrics = tracer.metrics()
    assert answer is not None
    assert metrics["io.parse_digraph.calls"] == 1
    assert metrics["goodpair.decide_good_pair.calls"] == 1
    assert metrics["digraph.validate_semicomplete.calls"] >= 1
    assert metrics["goodpair.decide_good_pair.self_ms"] >= 0
    assert metrics["goodpair.decide_good_pair.self_ms"] < sum(
        value for name, value in metrics.items() if name.endswith(".self_ms")
    )


def test_paused_tracer_counts_nothing():
    digraph = branchpairs.Digraph.from_arcs(3, [(0, 1), (1, 2), (2, 0)])
    with Tracer() as tracer, tracer.paused():
        branchpairs.decide_good_pair(digraph, 0, 1)
    assert sum(tracer.calls.values()) == 0
