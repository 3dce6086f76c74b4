"""Text formats: edge lists, the DOT subset, and structured JSON results."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from branchpairs import (
    Digraph,
    ParseError,
    TooLarge,
    arc_disjoint_path_pair,
    construct_good_pair,
    decide_good_pair,
    detect_obstruction_type,
    enumerate_semicomplete,
    exception_catalog,
    fixture,
    same_root_pair,
    verify_certificate,
)
from branchpairs import io as formats

C3 = fixture("C3").digraph
S4 = fixture("S4").digraph
FIG_A = fixture("FIG_A").digraph
FIG_B = fixture("FIG_B").digraph
CHAIN4 = fixture("CHAIN4").digraph
CHAIN5 = Digraph.from_arcs(
    5,
    [(0, 1), (0, 2), (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 0), (3, 4), (4, 0)],
)


# --------------------------------------------------------------------------
# edge lists


def test_edge_list_round_trip_exhaustive_small():
    for n in range(1, 4):
        for d in enumerate_semicomplete(n):
            assert formats.parse_edge_list(formats.serialize_edge_list(d)) == d


def test_edge_list_ignores_comments_and_blank_lines():
    text = "# three-cycle\n3 3\n\n0 1\n# middle\n1 2\n2 0\n"
    assert formats.parse_edge_list(text) == C3


MALFORMED_EDGE_LISTS = [
    "",  # no header
    "3\n0 1\n",  # header missing the arc count
    "3 2\n0 1\n",  # fewer arcs than announced
    "3 1\n0 1\n1 2\n",  # more arcs than announced
    "0 0\n",  # empty vertex set
    "3 1\n0 3\n",  # head out of range
    "3 1\n1 1\n",  # self-loop
    "3 2\n0 1\n0 1\n",  # duplicate arc
    "3 1\nzero one\n",  # not integers
    "x y\n",  # garbage header
]


@pytest.mark.parametrize("text", MALFORMED_EDGE_LISTS)
def test_edge_list_rejects_malformed_text(text):
    with pytest.raises(ParseError):
        formats.parse_edge_list(text)


# --------------------------------------------------------------------------
# the whole-text reader against the line reader


def _outcome(read, text):
    """A digraph with its in-masks and arc count, or the ParseError message."""
    try:
        d = read(text)
    except ParseError as exc:
        return str(exc)
    return d, d.in_masks(), d.m


def assert_reads_like_the_line_reader(text):
    reference = _outcome(lambda t: formats._parse_edge_lines(t.splitlines()), text)
    assert _outcome(formats.parse_digraph, text) == reference
    assert _outcome(formats.parse_edge_list, text) == reference
    fast = formats._read_canonical(text)
    assert fast is None or _outcome(lambda t: fast, text) == reference


@pytest.mark.parametrize(
    "text",
    MALFORMED_EDGE_LISTS
    + [
        "3 3\n0 1\n1 1\n2 0\n",  # canonical but for a self-loop
        "3 3\n0 1\n1 2\n1 2\n",  # canonical but for a duplicate arc
        "3 3\n0 1\n1 2\n2 3\n",  # canonical but for an id out of range
        "3 3\n0 1\n1 2\n20 0\n",
        "3 0\n",
        "3 0",
        "3 3\n0\t1\n1 2\n2 0\n",  # a tab
        "3 3\r\n0 1\r\n1 2\r\n2 0\r\n",  # CRLF
        "3 3\n0 1 \n1 2\n2 0\n",  # a trailing space
        "3 3\n0 1\n1 2\n2 0",  # no final newline
        "# c3\n3 3\n0 1\n1 2\n2 0\n",  # a comment
        "3 3\n0 1\n\n1 2\n2 0\n",  # a blank line
        "3 3\n0 1\n1 2\n2 0\n\n",
        "3 3\n007 1\n1 2\n2 0\n",  # a leading zero
        "03 3\n0 1\n1 2\n2 0\n",
        "3 3\n+1 2\n0 1\n2 0\n",  # a sign
        "3 3\n0  1\n1 2\n2 0\n",  # two spaces
        " 3 3\n0 1\n1 2\n2 0\n",  # a leading space
        "3 3\n0 1 1\n2\n2 0\n",  # three numbers on a line, one on the next
        "3 3\n0 \u0661\n1 2\n2 0\n",  # a non-ASCII digit
        "3 99999999999999\n0 1\n",  # a huge arc count
        "2 1\n0 1\n",
        "1 0\n",
    ],
)
def test_whole_text_reader_matches_the_line_reader(text):
    assert_reads_like_the_line_reader(text)


def test_whole_text_reader_takes_serialized_text():
    for d in (C3, S4, CHAIN4, CHAIN5, Digraph.from_arcs(1, [])):
        assert formats._read_canonical(formats.serialize_edge_list(d)) == d


_NOISE = (
    lambda line: line,
    lambda line: line.replace(" ", "\t"),
    lambda line: line.replace(" ", "  "),
    lambda line: line + " ",
    lambda line: " " + line,
    lambda line: "0" + line,
    lambda line: "+" + line,
    lambda line: line + "\r",
    lambda line: "# note\n" + line,
    lambda line: "\n" + line,
)


@st.composite
def edge_list_texts(draw):
    """Edge lists of random digraphs (not necessarily semicomplete) of order
    1-40, serialized canonically or with noise on some lines, sometimes with
    an extra line that repeats an arc, loops or leaves the vertex range."""
    n = draw(st.integers(1, 40))
    density = draw(st.sampled_from((0.05, 0.5, 0.95)))
    rng = draw(st.randoms(use_true_random=False))
    masks = [
        sum(1 << w for w in range(n) if w != v and rng.random() < density)
        for v in range(n)
    ]
    lines = formats.serialize_edge_list(Digraph(n, masks)).splitlines()
    fault = draw(st.sampled_from((None, "duplicate", "loop", "range")))
    if fault is not None and (fault != "duplicate" or len(lines) > 1):
        extra = {"duplicate": lines[-1], "loop": f"{n - 1} {n - 1}", "range": f"0 {n}"}
        lines.append(extra[fault])
        lines[0] = f"{n} {len(lines) - 1}"
    if draw(st.booleans()):
        noise = draw(st.lists(st.integers(0, len(_NOISE) - 1),
                              min_size=len(lines), max_size=len(lines)))
        lines = [_NOISE[k](line) for k, line in zip(noise, lines)]
    body = lines[1:]
    if draw(st.booleans()):
        rng.shuffle(body)
    return "\n".join(lines[:1] + body) + ("\n" if draw(st.booleans()) else "")


@settings(max_examples=300, deadline=None)
@given(edge_list_texts())
def test_whole_text_reader_matches_the_line_reader_on_random_texts(text):
    assert_reads_like_the_line_reader(text)


# --------------------------------------------------------------------------
# DOT subset


def test_dot_round_trip():
    for d in (C3, S4, CHAIN4, Digraph.from_arcs(3, [(0, 1)])):
        assert formats.parse_dot(formats.serialize_dot(d)) == d


def test_dot_accepts_bare_statements():
    text = "digraph sample { 0 -> 1; 1 -> 2; 2 -> 0; }"
    assert formats.parse_dot(text) == C3
    lonely = formats.parse_dot("digraph { 0; 2 -> 1; }")
    assert lonely.n == 3 and lonely.arcs() == [(2, 1)]


@pytest.mark.parametrize(
    "text",
    [
        "graph { 0 -- 1; }",  # undirected
        "digraph { 0 -> 1 }",  # missing semicolon
        "digraph { 0 -> 1 -> 2; }",  # chained edges
        'digraph { 0 -> 1 [label="x"]; }',  # attributes
        "digraph { a -> b; }",  # non-numeric ids
        "digraph { 0 -> 1; } trailing",  # text after the block
        "digraph { subgraph { 0 -> 1; } }",  # nested blocks
        "digraph { 0 -> 0; }",  # self-loop
        "digraph { 0 -> 1; 1 -> 0; 0 -> 1; }",  # duplicate arc
    ],
)
def test_dot_rejects_unsupported_features(text):
    with pytest.raises(ParseError):
        formats.parse_dot(text)


@pytest.mark.parametrize(
    "text", ["100001 0\n", "digraph { 100000; }\n"]
)
def test_orders_above_the_cap_are_refused_before_allocating(text):
    with pytest.raises(TooLarge):
        formats.parse_digraph(text)


def test_parse_digraph_sniffs_the_format():
    assert formats.parse_digraph(formats.serialize_dot(C3)) == C3
    assert formats.parse_digraph(formats.serialize_edge_list(C3)) == C3


# --------------------------------------------------------------------------
# structured results


def test_pair_round_trip_through_json():
    pair = construct_good_pair(S4, 0, 3)
    data = formats.pair_to_dict(0, 3, pair)
    assert list(data) == ["schema", "result", "u", "v", "out", "in"]
    u, v, back = formats.pair_from_dict(json.loads(json.dumps(data)))
    assert (u, v) == (0, 3)
    assert back == pair


def test_pair_parsing_rejects_broken_trees():
    pair = construct_good_pair(S4, 0, 3)
    data = formats.pair_to_dict(0, 3, pair)
    rooted = dict(data, out=data["out"] + [[2, 0]])  # gives the root a parent
    with pytest.raises(ParseError):
        formats.pair_from_dict(rooted)
    doubled = dict(data, out=data["out"] + data["out"][:1])
    with pytest.raises(ParseError):
        formats.pair_from_dict(doubled)
    with pytest.raises(ParseError):
        formats.pair_from_dict(dict(data, result="no"))
    with pytest.raises(ParseError):
        formats.pair_from_dict(dict(data, u=True))  # bools are not vertex ids


def certificate_cases():
    # one certificate of each kind, with the instance and roles it belongs to
    catalog_id, digraph, u, v = exception_catalog()[0]
    yield digraph, u, v, decide_good_pair(digraph, u, v)
    yield FIG_B, 1, 2, decide_good_pair(FIG_B, 1, 2)
    yield CHAIN4, 3, 1, decide_good_pair(CHAIN4, 3, 1)
    yield CHAIN5, 2, 3, decide_good_pair(CHAIN5, 2, 3)
    yield C3, 0, 0, same_root_pair(C3, 0)


def test_certificate_round_trips_for_every_kind():
    for digraph, u, v, cert in certificate_cases():
        data = formats.certificate_to_dict(cert)
        assert data["schema"] == 1
        assert data["result"] == "no"
        back = formats.certificate_from_dict(json.loads(json.dumps(data)))
        assert back == cert
        ok, reason = verify_certificate(digraph, u, v, back)
        assert ok, reason


def test_certificate_kind_labels():
    kinds = [
        formats.certificate_to_dict(cert)["certificate"]["kind"]
        for _, _, _, cert in certificate_cases()
    ]
    assert kinds == [
        "small-exception",
        "root-misplaced",
        "cut-arc",
        "odd-chain",
        "same-root-structure",
    ]


def test_certificate_parsing_rejects_malformed_dicts():
    data = formats.certificate_to_dict(decide_good_pair(CHAIN4, 3, 1))
    with pytest.raises(ParseError):
        formats.certificate_from_dict(dict(data, result="yes"))
    broken = json.loads(json.dumps(data))
    broken["certificate"]["kind"] = "mystery"
    with pytest.raises(ParseError):
        formats.certificate_from_dict(broken)
    broken = json.loads(json.dumps(data))
    broken["certificate"]["arc"] = [1]
    with pytest.raises(ParseError):
        formats.certificate_from_dict(broken)
    broken = json.loads(json.dumps(data))
    broken["certificate"]["components"] = [[0, 1], [1, 3]]  # not a partition
    with pytest.raises(ParseError):
        formats.certificate_from_dict(broken)
    partition = {"kind": "chain", "parts": [[0], None], "back_arcs": [],
                 "roles": {"u": 0, "w": 0, "v": 0}}
    with pytest.raises(ParseError):
        formats.certificate_from_dict(
            dict(data, certificate={"kind": "odd-chain", "partition": partition})
        )


def test_paths_serialization_shapes():
    found = formats.paths_to_dict(arc_disjoint_path_pair(fixture("K3").digraph, 0, 1, 1, 0))
    assert found["result"] == "paths"
    assert found["first"][0] == 0 and found["second"][0] == 1

    singleton = formats.paths_to_dict(arc_disjoint_path_pair(FIG_A, 0, 1, 0, 1))
    assert singleton["result"] == "obstruction"
    assert singleton["obstruction"] == {"kind": "consecutive-singletons", "x": 0, "y": 1}

    typed = formats.paths_to_dict(arc_disjoint_path_pair(CHAIN4, 3, 0, 2, 1))
    assert typed["obstruction"]["kind"] == "typed"
    assert typed["obstruction"]["offending_target"] == 0
    assert typed["obstruction"]["partition"]["kind"] in ("A", "B", "chain")


def test_detection_serialization_shapes():
    cert = detect_obstruction_type(C3, 0, 1, 2)
    found = formats.detection_to_dict(cert)
    assert found["result"] == "found"
    assert found["partition"]["roles"] == {"u": 0, "w": 1, "v": 2}
    assert formats.detection_to_dict(None) == {"schema": 1, "result": "none"}


def test_paths_to_dict_rejects_foreign_objects():
    with pytest.raises(ParseError):
        formats.paths_to_dict("not an outcome")
