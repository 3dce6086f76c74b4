"""Command-line interface: subcommands, exit codes, and output stability."""

import ast
import io
import json
import pathlib

import pytest

import branchpairs.structures
from branchpairs import fixture
from branchpairs.cli import main
from branchpairs.io import parse_edge_list, serialize_edge_list

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
