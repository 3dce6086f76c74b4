"""Command-line interface: subcommands, exit codes, and output stability."""

import ast
import contextlib
import io
import json
import pathlib
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import branchpairs.structures
from branchpairs import GoodPair, construct_good_pair, fixture, fixture_names
from branchpairs.cli import main
from branchpairs.io import (
    certificate_to_dict,
    pair_to_dict,
    parse_edge_list,
    serialize_edge_list,
)

S4_TEXT = serialize_edge_list(fixture("S4").digraph)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_decide_yes(capsys):
    code, out, _ = run(capsys, "decide", "--fixture", "S4", "-u", "0", "-v", "3")
    assert code == 0
    assert out.strip() == "yes"


def test_decide_no_with_certificate_text(capsys):
    code, out, _ = run(capsys, "decide", "--fixture", "FIG_A", "-u", "0", "-v", "1")
    assert code == 1
    assert "no" in out
    assert "catalog" in out


def test_decide_json(capsys):
    code, out, _ = run(capsys, "decide", "--fixture", "FIG_A", "-u", "0", "-v", "1", "--json")
    assert code == 1
    data = json.loads(out)
    assert data["schema"] == 1
    assert data["result"] == "no"
    assert data["certificate"]["kind"] == "small-exception"
    assert data["certificate"]["catalog"] == "a"


def test_construct_verify_round_trip_via_files(capsys, tmp_path):
    instance = tmp_path / "s4.txt"
    instance.write_text(S4_TEXT)
    result = tmp_path / "pair.json"

    code, out, _ = run(capsys, "construct", "--input", str(instance), "-u", "1", "-v", "2", "--json")
    assert code == 0
    result.write_text(out)

    code, out, _ = run(
        capsys, "verify", "--input", str(instance), "--result", str(result)
    )
    assert code == 0
    assert "valid" in out


def test_construct_verify_round_trip_via_stdin(capsys, monkeypatch):
    code, pair_json, _ = run(capsys, "construct", "--fixture", "S4", "-u", "0", "-v", "0", "--json")
    assert code == 0
    monkeypatch.setattr("sys.stdin", io.StringIO(pair_json))
    code, out, _ = run(capsys, "verify", "--fixture", "S4", "--result", "-")
    assert code == 0
    assert "valid" in out


def test_verify_flags_contradicting_stored_roots(capsys, tmp_path):
    code, pair_json, _ = run(capsys, "construct", "--fixture", "S4", "-u", "0", "-v", "3", "--json")
    result = tmp_path / "pair.json"
    result.write_text(pair_json)
    code, _, err = run(
        capsys, "verify", "--fixture", "S4", "--result", str(result), "-u", "1", "-v", "3"
    )
    assert code == 2
    assert "error" in err


def test_verify_reports_invalid_pairs(capsys, tmp_path):
    code, pair_json, _ = run(capsys, "construct", "--fixture", "S4", "-u", "0", "-v", "3", "--json")
    result = tmp_path / "pair.json"
    result.write_text(pair_json)
    # same order, different digraph: the stored pair leans on missing arcs
    code, out, _ = run(capsys, "verify", "--fixture", "FIG_D", "--result", str(result))
    assert code == 1
    assert "invalid" in out


def test_verify_certificate_round_trip(capsys, tmp_path):
    code, cert_json, _ = run(capsys, "decide", "--fixture", "CHAIN4", "-u", "3", "-v", "1", "--json")
    assert code == 1
    result = tmp_path / "cert.json"
    result.write_text(cert_json)
    code, out, _ = run(
        capsys,
        "verify", "--fixture", "CHAIN4", "--result", str(result), "-u", "3", "-v", "1",
    )
    assert code == 0
    assert "valid" in out


@pytest.mark.parametrize("vertex", [-1, 4])
def test_verify_reports_out_of_range_certificate_vertices(capsys, tmp_path, vertex):
    partition = {
        "kind": "chain", "parts": [[0], [1], [2], [vertex]], "back_arcs": [[2, 0], [3, 1]],
        "roles": {"u": 3, "w": 2, "v": 1},
    }
    result = tmp_path / "cert.json"
    result.write_text(json.dumps(
        {"schema": 1, "result": "no", "certificate": {"kind": "odd-chain", "partition": partition}}
    ))
    code, out, _ = run(
        capsys,
        "verify", "--fixture", "CHAIN4", "--result", str(result), "-u", "3", "-v", "1",
    )
    assert code == 1
    assert out.strip() == "invalid: part 4 contains an out-of-range vertex"


def test_verify_certificate_needs_roots(capsys, tmp_path):
    code, cert_json, _ = run(capsys, "decide", "--fixture", "FIG_A", "-u", "0", "-v", "1", "--json")
    result = tmp_path / "cert.json"
    result.write_text(cert_json)
    code, _, err = run(capsys, "verify", "--fixture", "FIG_A", "--result", str(result))
    assert code == 2
    assert "error" in err


def test_validate(capsys, tmp_path):
    code, out, _ = run(capsys, "validate", "--fixture", "K3", "--json")
    assert code == 0
    assert json.loads(out)["result"] == "valid"

    gap = tmp_path / "gap.txt"
    gap.write_text("3 2\n0 1\n1 2\n")
    code, out, _ = run(capsys, "validate", "--input", str(gap))
    assert code == 1
    assert "0" in out and "2" in out


def test_paths_found_and_obstructed(capsys):
    code, out, _ = run(
        capsys, "paths", "--fixture", "K3", "--x1", "0", "--y1", "1", "--x2", "1", "--y2", "0"
    )
    assert code == 0
    code, out, _ = run(
        capsys, "paths", "--fixture", "FIG_A", "--x1", "0", "--y1", "1", "--x2", "0", "--y2", "1", "--json"
    )
    assert code == 1
    assert json.loads(out)["obstruction"]["kind"] == "consecutive-singletons"


def test_paths_without_base_path_is_an_input_error(capsys):
    code, _, err = run(
        capsys, "paths", "--fixture", "FIG_B", "--x1", "2", "--y1", "0", "--x2", "0", "--y2", "2"
    )
    assert code == 2
    assert "error" in err


def test_detect(capsys):
    code, out, _ = run(capsys, "detect", "--fixture", "TYPEA3", "-u", "0", "-w", "1", "-v", "2", "--json")
    assert code == 0
    assert json.loads(out)["result"] == "found"
    code, out, _ = run(capsys, "detect", "--fixture", "K3", "-u", "0", "-w", "2", "-v", "1")
    assert code == 1
    assert "none" in out


def test_sweep_matches_oracle(capsys):
    code, out, _ = run(capsys, "sweep", "--n", "3")
    assert code == 0
    assert out.strip() == "pass: 27 digraphs, 243 decisions match the oracle"


def test_sweep_with_construction(capsys):
    code, out, _ = run(capsys, "sweep", "--n", "2", "--construct")
    assert code == 0
    assert "12 decisions" in out


def test_random_is_reproducible_and_honors_constraints(capsys):
    code, first, _ = run(capsys, "random", "--n", "6", "--seed", "11", "--constraint", "tournament")
    assert code == 0
    _, second, _ = run(capsys, "random", "--n", "6", "--seed", "11", "--constraint", "tournament")
    assert first == second  # byte-identical on identical invocations
    d = parse_edge_list(first)
    assert d.n == 6 and d.m == 15


def test_fixture_listing_and_content(capsys):
    code, out, _ = run(capsys, "fixtures")
    assert code == 0
    for name in ("FIG_A", "FIG_F", "S4", "CHAIN4", "TYPEA3"):
        assert name in out

    code, out, _ = run(capsys, "fixtures", "--name", "FIG_A")
    assert code == 0
    assert "u=0" in out and "v=1" in out
    header, _, body = out.partition("\n")
    assert parse_edge_list(body) == fixture("FIG_A").digraph


def test_fixture_directory_export(capsys, tmp_path):
    code, _, _ = run(capsys, "fixtures", "--dir", str(tmp_path))
    assert code == 0
    written = sorted(p.name for p in tmp_path.iterdir())
    assert "S4.edges" in written and "FIG_E.edges" in written
    assert parse_edge_list((tmp_path / "S4.edges").read_text()) == fixture("S4").digraph


def test_decide_output_is_byte_identical_across_runs(capsys):
    _, first, _ = run(capsys, "decide", "--fixture", "CHAIN4", "-u", "3", "-v", "1", "--json")
    _, second, _ = run(capsys, "decide", "--fixture", "CHAIN4", "-u", "3", "-v", "1", "--json")
    assert first == second


def test_input_errors_exit_two(capsys, tmp_path):
    code, _, err = run(capsys, "decide", "--input", str(tmp_path / "missing.txt"), "-u", "0", "-v", "1")
    assert code == 2 and "error" in err

    garbage = tmp_path / "garbage.txt"
    garbage.write_text("definitely not a digraph\n")
    code, _, err = run(capsys, "decide", "--input", str(garbage), "-u", "0", "-v", "1")
    assert code == 2 and "error" in err

    code, _, err = run(capsys, "decide", "--fixture", "K3", "-u", "9", "-v", "0")
    assert code == 2 and "error" in err

    code, _, err = run(capsys, "random", "--n", "2", "--constraint", "2-arc-strong")
    assert code == 2 and "error" in err


def test_exhausted_search_exits_three(capsys, tmp_path, monkeypatch):
    instance = tmp_path / "tight.txt"
    instance.write_text("3 5\n0 1\n0 2\n1 0\n1 2\n2 0\n")
    code, _, _ = run(capsys, "construct", "--input", str(instance), "-u", "0", "-v", "2")
    assert code == 0
    monkeypatch.setattr(branchpairs.structures, "_SEARCH_BUDGET", 1)
    code, _, err = run(capsys, "construct", "--input", str(instance), "-u", "0", "-v", "2")
    assert code == 3
    assert err.strip() != ""


def test_unexpected_errors_exit_three_not_one(capsys, monkeypatch):
    def broken(*args):
        raise RuntimeError("boom")

    monkeypatch.setattr("branchpairs.cli.decide_good_pair", broken)
    code, out, err = run(capsys, "decide", "--fixture", "S4", "-u", "0", "-v", "3")
    assert code == 3
    assert out == ""
    assert "RuntimeError: boom" in err


def test_package_reads_no_environment():
    # Every setting is an argument: a module that reads the environment would
    # bring back a knob that tests and benchmarks never see.
    forbidden = {"environ", "environb", "getenv", "getenvb", "putenv"}
    package = pathlib.Path(branchpairs.structures.__file__).parent
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute):
                names = {node.attr}
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                names = {alias.name for alias in node.names}
            else:
                continue
            assert not names & forbidden, f"{path.name}:{node.lineno} reads the environment"


# --------------------------------------------------------------------------
# Exit codes under random input: 0 and 1 are answers, 2 is bad input, and 3
# is a bug, so random text and JSON must never give 3.

_INT = st.integers(-1, 8)
_ROOT = st.integers(-1, 4)
_JUNK = st.none() | st.booleans() | st.text(max_size=2) | _ROOT | st.lists(_ROOT, max_size=3)
_VERTICES = st.lists(_ROOT, max_size=4)
_ARCS = st.lists(st.lists(_ROOT, min_size=2, max_size=2), max_size=5)
_CERTIFICATE_KINDS = (
    "small-exception", "root-misplaced", "cut-arc", "odd-chain", "same-root-structure",
)


def _spoiled(draw, document: dict) -> dict:
    """`document` with at most one of its fields replaced by junk."""
    key = draw(st.sampled_from([None, *document]))
    if key is not None:
        document[key] = draw(_JUNK)
    return document


@st.composite
def _verify_calls(draw):
    """A fixture, a stored answer (the fixture's own, or random fields)
    with at most one field of each object spoiled, and the roots the
    command line gives with it."""
    name = draw(st.sampled_from(fixture_names()))
    digraph = fixture(name).digraph
    u, v = draw(_ROOT), draw(_ROOT)
    if 0 <= u < digraph.n and 0 <= v < digraph.n and draw(st.booleans()):
        answer = construct_good_pair(digraph, u, v)
        if isinstance(answer, GoodPair):
            document = pair_to_dict(u, v, answer)
        else:
            document = certificate_to_dict(answer)
    elif draw(st.booleans()):
        document = {"schema": 1, "result": "yes", "u": u, "v": v,
                    "out": draw(_ARCS), "in": draw(_ARCS)}
    else:
        partition = _spoiled(draw, {
            "kind": draw(st.sampled_from(("A", "B", "chain"))),
            "parts": draw(st.lists(_VERTICES | _JUNK, min_size=1, max_size=6)),
            "back_arcs": draw(_ARCS),
            "roles": {"u": u, "w": draw(_ROOT), "v": v},
        })
        document = {"schema": 1, "result": "no", "certificate": _spoiled(draw, {
            "kind": draw(st.sampled_from(_CERTIFICATE_KINDS)),
            "catalog": draw(st.sampled_from("abcdefg")),
            "iso": draw(st.permutations(range(digraph.n))),
            "which": draw(st.sampled_from(("u-not-initial", "v-not-terminal"))),
            "components": draw(st.lists(_VERTICES, max_size=4)),
            "arc": draw(st.lists(_ROOT, min_size=2, max_size=2)),
            "partition": partition,
            "a": draw(_VERTICES),
            "b": draw(_VERTICES),
            "c": draw(_VERTICES),
        })}
    document = _spoiled(draw, document)
    if document.get("result") == "yes" and draw(st.booleans()):
        return name, document, None, None  # a stored pair names its roots
    return name, document, u, v


@st.composite
def _short_edge_lists(draw):
    """Edge lists of order at most 8: a random semicomplete digraph, then
    perhaps a wrong header count and some stray lines."""
    n = draw(st.integers(0, 8))
    rng = draw(st.randoms(use_true_random=False))
    arcs = []
    for i in range(n):
        for j in range(i + 1, n):
            arcs += [[(i, j)], [(j, i)], [(i, j), (j, i)]][rng.randrange(3)]
    lines = [f"{t} {h}" for t, h in arcs]
    lines += draw(st.lists(st.sampled_from(("0 0", "0 9", "-1 2", "x", "1 2 3", "# c")),
                           max_size=2))
    m = draw(st.sampled_from((len(arcs), len(lines))) | st.integers(0, 30))
    return "\n".join([f"{n} {m}"] + lines) + "\n"


def _exit_code(argv, stdin):
    with mock.patch("sys.stdin", io.StringIO(stdin)), \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


def _roots(u, v):
    return [f"-u={u}"] * (u is not None) + [f"-v={v}"] * (v is not None)


@settings(max_examples=200, deadline=None)
@given(_verify_calls())
def test_verify_exits_with_an_answer_or_an_input_error(call):
    name, document, u, v = call
    argv = ["verify", "--fixture", name, "--result", "-", *_roots(u, v)]
    assert _exit_code(argv, json.dumps(document)) in (0, 1, 2)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(("decide", "construct")), _short_edge_lists(), _INT, _INT)
def test_decide_exits_with_an_answer_or_an_input_error(command, text, u, v):
    assert _exit_code([command, "--input", "-", *_roots(u, v)], text) in (0, 1, 2)
