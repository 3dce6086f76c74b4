"""A one-round smoke run of every workload answers every query but the known
fault correctly, and a query that raises or is answered wrongly makes the
run incorrect."""

import itertools
import json
import subprocess
import sys
import types
from pathlib import Path

import pytest

import branchpairs
import branchpairs.io
from run import END_TO_END, Run, result_line, run_round
from spans import metric_units
from workloads import KNOWN_FAULT, WORKLOADS, rounds

RUN = Path(__file__).resolve().parent.parent / "run.py"


def run_bench(*args):
    done = subprocess.run([sys.executable, str(RUN), *args], capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["large_random", "adversarial", "small_sweep"])
def test_one_round_fails_only_on_known_faults(workload):
    result = run_bench("--workload", workload, "--seed", "3", "--rounds", "1", "--trace", "0")
    known = sum(len(inst.known_fault) for inst, _ in next(rounds(workload, 3)))
    assert result["correct"] and result["failed"] == known and result["attempted"] > 0
    assert set(result["metrics"]) == set(END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_small_sweep_shows_the_known_fault_in_every_round():
    for batch in itertools.islice(rounds("small_sweep", 5), 3):
        assert sum(inst is KNOWN_FAULT for inst, _ in batch) == 1
    assert all(not inst.known_fault for workload in WORKLOADS if workload != "small_sweep"
               for inst, _ in next(rounds(workload, 5)))


def patched(**functions):
    """The package's namespace with some functions replaced."""
    return types.SimpleNamespace(**{**vars(branchpairs), **functions})


def raising(*args):
    raise branchpairs.InternalInconsistency("construct broke")


def exhausted(*args):
    raise branchpairs.InternalInconsistency("pair search exhausted its budget")


def one_adversarial_round():
    batch = next(rounds("adversarial", 3))
    return batch, sum(len(inst.pairs) for inst, _ in batch)


def test_an_exception_makes_the_run_incorrect_and_keeps_its_time():
    batch, queries = one_adversarial_round()
    run = Run()
    run_round(patched(construct_good_pair=raising), branchpairs.io, batch, run, None)
    assert 0 < run.failed == run.wrong < queries
    assert len(run.query) == queries
    assert not json.loads(result_line([run], {}, {}))["correct"]


def test_a_rejected_answer_makes_the_run_incorrect():
    batch, _ = one_adversarial_round()
    run = Run()
    never = patched(verify_good_pair=lambda *args: (False, "tampered"))
    run_round(never, branchpairs.io, batch, run, None)
    assert run.wrong > 0 and not json.loads(result_line([run], {}, {}))["correct"]


def test_a_known_fault_fails_the_query_but_not_the_run():
    inst = types.SimpleNamespace(**{**vars(KNOWN_FAULT), "pairs": [(4, 7)], "oracle": False})
    run = Run()
    run_round(patched(construct_good_pair=exhausted), branchpairs.io,
              [(inst, KNOWN_FAULT.edge_list())], run, None)
    assert (run.attempted, run.failed, run.wrong) == (1, 1, 0)
    assert json.loads(result_line([run], {}, {}))["correct"]


def test_traced_counts_repeat_exactly():
    args = ("--workload", "adversarial", "--seed", "3", "--rounds", "1", "--trace", "1")
    first, second = run_bench(*args), run_bench(*args)
    assert first["correct"] and first["failed"] == 0
    assert set(first["metrics"]) == set(metric_units())
    counts = [
        {k: m["value"] for k, m in r["metrics"].items() if m["unit"] == "count"}
        for r in (first, second)
    ]
    assert counts[0] == counts[1]
    assert counts[0]["structures.detect_odd_chain.calls"] > 0


def test_missing_package_source_is_an_error(tmp_path):
    copy = tmp_path / "bench"
    copy.mkdir()
    for path in RUN.parent.glob("*.py"):
        (copy / path.name).write_text(path.read_text())
    done = subprocess.run(
        [sys.executable, str(copy / "run.py"), "--workload", "adversarial", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
    )
    assert done.returncode != 0 and done.stdout == ""
