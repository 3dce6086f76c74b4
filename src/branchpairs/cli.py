"""Command-line front end.

Subcommands: validate, decide, construct, verify, paths, detect, sweep,
random, fixtures.  Instances come from a file (``--input``, ``-`` for stdin)
or a named fixture (``--fixture``); results go to stdout as human-oriented
text or, with ``--json``, as the stable structured form with ``"schema": 1``.

Exit codes: 0 = yes / valid / pass / found, 1 = no (with certificate or
obstruction) / invalid / none found, 2 = input error, 3 = internal
inconsistency or any other unexpected error (always a bug, never a property
of the input).  A backtracking search that runs out of its fixed node budget
is such an inconsistency.  The arguments are the whole interface: no
environment variable changes what a command does.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import io as formats
from .branchings import GoodPair
from .digraph import Digraph, validate_semicomplete
from .errors import (
    BranchpairsError,
    InternalInconsistency,
    ParseError,
)
from .fixtures import fixture, fixture_names
from .goodpair import (
    construct_good_pair,
    decide_good_pair,
    verify_certificate,
    verify_good_pair,
)
from .oracle import (
    CONSTRAINTS,
    GeneratorConfig,
    enumerate_semicomplete,
    oracle_good_pair,
    random_semicomplete,
    semicomplete_count,
)
from .structures import arc_disjoint_path_pair, detect_obstruction_type

_EXIT_YES = 0
_EXIT_NO = 1
_EXIT_INPUT = 2
_EXIT_BUG = 3


def _instance_options(parser: argparse.ArgumentParser) -> None:
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--input", metavar="PATH", help="instance file; '-' reads stdin")
    source.add_argument(
        "--fixture", metavar="NAME", choices=fixture_names(), help="built-in instance"
    )


def _read_text(path: str) -> str:
    """The text of the file at `path`, or of stdin for '-'."""
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}") from exc


def _load_instance(args: argparse.Namespace) -> Digraph:
    if args.fixture is not None:
        return fixture(args.fixture).digraph
    return formats.parse_digraph(_read_text(args.input))


def _certificate_text(certificate) -> str:
    body = formats.certificate_to_dict(certificate)["certificate"]
    kind = body["kind"]
    if kind == "small-exception":
        return (
            f"no: isomorphic to catalog entry '{body['catalog']}' with the roots "
            f"pinned (vertex map {body['iso']})"
        )
    if kind == "root-misplaced":
        side = (
            "u is outside the initial strong component"
            if body["which"] == "u-not-initial"
            else "v is outside the terminal strong component"
        )
        return f"no: the digraph is not strong and {side}"
    if kind == "cut-arc":
        tail, head = body["arc"]
        return (
            f"no: removing the arc ({tail},{head}) leaves u outside the initial "
            f"and v outside the terminal strong component"
        )
    if kind == "odd-chain":
        parts = body["partition"]["parts"]
        return (
            f"no: layered partition into {len(parts)} parts places v in the second "
            f"part and u in the second-to-last part"
        )
    if kind == "same-root-structure":
        tail, head = body["arc"]
        return (
            f"no: every out-branching and every in-branching at the shared root "
            f"must use the arc ({tail},{head})"
        )
    return f"no: {body}"


def _emit(args: argparse.Namespace, data: dict, text: str) -> None:
    print(json.dumps(data) if args.json else text)


# --------------------------------------------------------------------------
# Subcommand bodies


def _cmd_validate(args: argparse.Namespace) -> int:
    digraph = _load_instance(args)
    bad = validate_semicomplete(digraph)
    if bad is None:
        _emit(args, {"schema": formats.SCHEMA, "result": "valid", "n": digraph.n}, "semicomplete")
        return _EXIT_YES
    _emit(
        args,
        {"schema": formats.SCHEMA, "result": "invalid", "pair": list(bad)},
        f"not semicomplete: vertices {bad[0]} and {bad[1]} are not adjacent",
    )
    return _EXIT_NO


def _cmd_decide(args: argparse.Namespace) -> int:
    digraph = _load_instance(args)
    certificate = decide_good_pair(digraph, args.u, args.v)
    if certificate is None:
        _emit(args, {"schema": formats.SCHEMA, "result": "yes"}, "yes")
        return _EXIT_YES
    _emit(args, formats.certificate_to_dict(certificate), _certificate_text(certificate))
    return _EXIT_NO


def _cmd_construct(args: argparse.Namespace) -> int:
    digraph = _load_instance(args)
    outcome = construct_good_pair(digraph, args.u, args.v)
    if isinstance(outcome, GoodPair):
        data = formats.pair_to_dict(args.u, args.v, outcome)
        text = "yes\nout {}: {}\nin {}: {}".format(
            args.u,
            " ".join(f"({t},{h})" for t, h in outcome.out_branching.arcs()),
            args.v,
            " ".join(f"({t},{h})" for t, h in outcome.in_branching.arcs()),
        )
        _emit(args, data, text)
        return _EXIT_YES
    _emit(args, formats.certificate_to_dict(outcome), _certificate_text(outcome))
    return _EXIT_NO


def _cmd_verify(args: argparse.Namespace) -> int:
    digraph = _load_instance(args)
    try:
        data = json.loads(_read_text(args.result))
    except json.JSONDecodeError as exc:
        raise ParseError(f"result file is not JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ParseError("result file must hold a JSON object")
    if data.get("result") == "yes":
        u, v, pair = formats.pair_from_dict(data)
        if args.u is not None and args.u != u:
            raise ParseError(f"-u {args.u} contradicts the stored root {u}")
        if args.v is not None and args.v != v:
            raise ParseError(f"-v {args.v} contradicts the stored root {v}")
        ok, reason = verify_good_pair(digraph, u, v, pair)
    else:
        if args.u is None or args.v is None:
            raise ParseError("verifying a certificate needs -u and -v")
        certificate = formats.certificate_from_dict(data)
        ok, reason = verify_certificate(digraph, args.u, args.v, certificate)
    if ok:
        _emit(args, {"schema": formats.SCHEMA, "result": "valid"}, "valid")
        return _EXIT_YES
    _emit(
        args,
        {"schema": formats.SCHEMA, "result": "invalid", "reason": reason},
        f"invalid: {reason}",
    )
    return _EXIT_NO


def _cmd_paths(args: argparse.Namespace) -> int:
    digraph = _load_instance(args)
    outcome = arc_disjoint_path_pair(digraph, args.x1, args.y1, args.x2, args.y2)
    data = formats.paths_to_dict(outcome)
    if isinstance(outcome, tuple):
        first, second = outcome
        _emit(
            args,
            data,
            "paths\nfirst: {}\nsecond: {}".format(
                " ".join(map(str, first.vertices)),
                " ".join(map(str, second.vertices)),
            ),
        )
        return _EXIT_YES
    kind = data["obstruction"]["kind"]
    _emit(args, data, f"obstruction: {kind}")
    return _EXIT_NO


def _cmd_detect(args: argparse.Namespace) -> int:
    digraph = _load_instance(args)
    certificate = detect_obstruction_type(digraph, args.u, args.w, args.v)
    data = formats.detection_to_dict(certificate)
    if certificate is None:
        _emit(args, data, "none")
        return _EXIT_NO
    _emit(
        args,
        data,
        "found: kind {} with {} parts".format(
            certificate.kind, len(certificate.parts)
        ),
    )
    return _EXIT_YES


def _cmd_sweep(args: argparse.Namespace) -> int:
    n = args.n
    total = semicomplete_count(n)
    start = args.start
    stop = args.stop if args.stop is not None else total
    if not 0 <= start <= stop <= total:
        raise ParseError(f"slice [{start},{stop}) out of range for {total} digraphs")
    decisions = 0
    for index, digraph in enumerate(enumerate_semicomplete(n, start, stop), start=start):
        for u in range(n):
            for v in range(n):
                certificate = decide_good_pair(digraph, u, v)
                expected = oracle_good_pair(digraph, u, v) is not None
                if (certificate is None) != expected:
                    print(
                        f"fail: instance {index} u={u} v={v} "
                        f"(oracle says {'yes' if expected else 'no'})"
                    )
                    return _EXIT_BUG
                if certificate is not None:
                    ok, reason = verify_certificate(digraph, u, v, certificate)
                    if not ok:
                        print(f"fail: instance {index} u={u} v={v} bad certificate: {reason}")
                        return _EXIT_BUG
                elif args.construct:
                    pair = construct_good_pair(digraph, u, v)
                    if not isinstance(pair, GoodPair):
                        print(f"fail: instance {index} u={u} v={v} construction refused")
                        return _EXIT_BUG
                decisions += 1
    print(f"pass: {stop - start} digraphs, {decisions} decisions match the oracle")
    return _EXIT_YES


def _cmd_random(args: argparse.Namespace) -> int:
    config = GeneratorConfig(
        n=args.n,
        digon_prob=args.digon_prob,
        seed=args.seed,
        constraint=args.constraint,
    )
    digraph = random_semicomplete(config)
    sys.stdout.write(formats.serialize_edge_list(digraph))
    return _EXIT_YES


def _cmd_fixtures(args: argparse.Namespace) -> int:
    if args.name is not None:
        entry = fixture(args.name)
        sys.stdout.write(_fixture_text(entry))
        return _EXIT_YES
    if args.dir is not None:
        os.makedirs(args.dir, exist_ok=True)
        for name in fixture_names():
            path = os.path.join(args.dir, f"{name}.edges")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(_fixture_text(fixture(name)))
            print(path)
        return _EXIT_YES
    for name in fixture_names():
        print(name)
    return _EXIT_YES


def _fixture_text(entry) -> str:
    roles = " ".join(f"{key}={value}" for key, value in sorted(entry.roles.items()))
    header = f"# {entry.name}" + (f" ({roles})" if roles else "")
    return header + "\n" + formats.serialize_edge_list(entry.digraph)


# --------------------------------------------------------------------------
# Argument wiring


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="branchpairs",
        description=(
            "Decide and construct arc-disjoint out-/in-branching pairs in "
            "semicomplete digraphs, with machine-checkable certificates."
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    sub = commands.add_parser("validate", help="check that the input is semicomplete")
    _instance_options(sub)
    sub.add_argument("--json", action="store_true", help="structured output")
    sub.set_defaults(run=_cmd_validate)

    sub = commands.add_parser("decide", help="decide whether a good (u,v)-pair exists")
    _instance_options(sub)
    sub.add_argument("-u", type=int, required=True, help="out-branching root")
    sub.add_argument("-v", type=int, required=True, help="in-branching root")
    sub.add_argument("--json", action="store_true", help="structured output")
    sub.set_defaults(run=_cmd_decide)

    sub = commands.add_parser(
        "construct", help="build a verified good (u,v)-pair or print the certificate"
    )
    _instance_options(sub)
    sub.add_argument("-u", type=int, required=True, help="out-branching root")
    sub.add_argument("-v", type=int, required=True, help="in-branching root")
    sub.add_argument("--json", action="store_true", help="structured output")
    sub.set_defaults(run=_cmd_construct)

    sub = commands.add_parser(
        "verify",
        help="re-check a stored pair or certificate (structured form) against the instance",
    )
    _instance_options(sub)
    sub.add_argument(
        "--result", metavar="PATH", required=True, help="JSON result; '-' reads stdin"
    )
    sub.add_argument("-u", type=int, help="out root (required for certificates)")
    sub.add_argument("-v", type=int, help="in root (required for certificates)")
    sub.add_argument("--json", action="store_true", help="structured output")
    sub.set_defaults(run=_cmd_verify)

    sub = commands.add_parser(
        "paths", help="two arc-disjoint paths (x1→y1, x2→y2) or an obstruction"
    )
    _instance_options(sub)
    sub.add_argument("--x1", type=int, required=True)
    sub.add_argument("--y1", type=int, required=True)
    sub.add_argument("--x2", type=int, required=True)
    sub.add_argument("--y2", type=int, required=True)
    sub.add_argument("--json", action="store_true", help="structured output")
    sub.set_defaults(run=_cmd_paths)

    sub = commands.add_parser(
        "detect", help="find a layered partition placing roles (u, w, v)"
    )
    _instance_options(sub)
    sub.add_argument("-u", type=int, required=True)
    sub.add_argument("-w", type=int, required=True)
    sub.add_argument("-v", type=int, required=True)
    sub.add_argument("--json", action="store_true", help="structured output")
    sub.set_defaults(run=_cmd_detect)

    sub = commands.add_parser(
        "sweep",
        help="exhaustively compare decide against the brute-force oracle at order n",
    )
    sub.add_argument("--n", type=int, required=True, help="vertex count to enumerate")
    sub.add_argument("--start", type=int, default=0, help="first enumeration index")
    sub.add_argument("--stop", type=int, help="one past the last enumeration index")
    sub.add_argument(
        "--construct",
        action="store_true",
        help="also build and verify a pair for every yes decision",
    )
    sub.set_defaults(run=_cmd_sweep)

    sub = commands.add_parser("random", help="print a seeded random instance")
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--digon-prob", type=float, default=0.0)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--constraint", choices=CONSTRAINTS, default="any")
    sub.set_defaults(run=_cmd_random)

    sub = commands.add_parser(
        "fixtures", help="list built-in instances, print one, or write them to files"
    )
    sub.add_argument("--name", choices=fixture_names(), help="print this fixture")
    sub.add_argument("--dir", metavar="DIR", help="write every fixture into DIR")
    sub.set_defaults(run=_cmd_fixtures)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except InternalInconsistency as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return _EXIT_BUG
    except (BranchpairsError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_INPUT
    except Exception as exc:  # anything else is a bug, and status 1 means "no"
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return _EXIT_BUG


if __name__ == "__main__":
    sys.exit(main())
