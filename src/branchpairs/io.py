"""Reading and writing instances, pairs, and certificates.

Two instance formats are supported.  The canonical one is a plain edge list:
a header line ``n m`` followed by ``m`` lines ``tail head`` with 0-based
vertex ids; blank lines and lines starting with ``#`` are ignored.  For
convenience a small DOT subset is also read: ``digraph [name] { ... }``
containing only bare edges ``0 -> 1;`` and bare node statements ``2;`` with
numeric ids.  Any other DOT construct (attributes, subgraphs, strings,
``strict``, undirected edges, edge chains) is a hard error rather than being
silently ignored.

Structured results are plain dicts with a fixed key order and a ``schema``
field set to 1, so their JSON dumps are stable across runs and usable as
golden files.  `pair_from_dict` / `certificate_from_dict` invert the
serializations so separately stored results can be re-checked against an
instance.
"""

from __future__ import annotations

from .branchings import GoodPair, Tree
from .digraph import Digraph, StrongDecomposition
from .errors import ParseError, TooLarge
from .goodpair import (
    ChainObstruction,
    CutArcObstruction,
    RootMisplaced,
    SameRootStructure,
    SmallException,
)
from .structures import ConsecutiveSingletons, TypeCertificate, TypedObstruction

SCHEMA = 1

# The largest order read.  A semicomplete digraph of a larger order needs at
# least 5·10⁹ arc lines, and a header alone must not make the reader allocate
# per-vertex storage before anything is checked.
_MAX_ORDER = 100_000


# --------------------------------------------------------------------------
# Instance text formats


def parse_digraph(text: str) -> Digraph:
    """Dispatch on the first token: ``digraph`` means the DOT subset,
    anything else the edge-list format.

    Text in exactly the form `serialize_edge_list` writes is read as a whole
    (`_read_canonical`); any other text, and any text with a fault, goes
    through the line reader, which words every `ParseError`.
    """
    digraph = _read_canonical(text)
    if digraph is not None:
        return digraph
    lines = text.splitlines()
    for raw in lines:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.split()[0] == "digraph":
            return parse_dot(text)
        return _parse_edge_lines(lines)
    raise ParseError("empty input")


def parse_edge_list(text: str) -> Digraph:
    digraph = _read_canonical(text)
    if digraph is not None:
        return digraph
    return _parse_edge_lines(text.splitlines())


_DIGITS = b"0123456789"


def _read_canonical(text: str) -> Digraph | None:
    """The digraph of an edge list in exactly the form `serialize_edge_list`
    writes, or None for any other text or any fault.

    The form is a header ``n m`` and m lines ``tail head``, each ending in a
    newline, with single spaces and ids without sign or leading zero.  After
    the header the text is checked as a whole: deleting its digits must leave
    m copies of ``" \n"``, and one `split` must give 2m tokens.  A
    semicomplete digraph has m >= n(n-1)/2 >= n-1 arcs, so a header with
    n > m + 1 (or above `_MAX_ORDER`) goes to the line reader, and nothing
    built here outgrows the text.  Tokens map to ids and bits through two
    dicts over the canonical spellings of 0..n-1 (a leading zero or an id out
    of range is a missing key), and one loop over the arcs fills the
    out-masks; a duplicate arc shows as fewer than m bits, a self-loop as a
    bit on the diagonal.
    """
    head, newline, body = text.partition("\n")
    n_token, _, m_token = head.partition(" ")
    n, m = _canonical_int(n_token), _canonical_int(m_token)
    if not newline or not n or m is None or n > min(m + 1, _MAX_ORDER) or not body.isascii():
        return None
    separators = body.encode().translate(None, _DIGITS)
    if len(separators) != 2 * m or separators != b" \n" * m:
        return None
    tokens = body.split()
    if len(tokens) != 2 * m:
        return None
    ids = {str(q): q for q in range(n)}
    bits = {spelling: 1 << q for spelling, q in ids.items()}
    out_masks = [0] * n
    try:
        tails = map(ids.__getitem__, tokens[::2])
        for tail, head_bit in zip(tails, map(bits.__getitem__, tokens[1::2])):
            out_masks[tail] |= head_bit
    except KeyError:
        return None
    if sum(map(int.bit_count, out_masks)) != m:
        return None
    if any(mask >> v & 1 for v, mask in enumerate(out_masks)):
        return None
    return Digraph(n, out_masks)


def _canonical_int(token: str) -> int | None:
    """The value of a decimal integer written without sign or leading zero,
    else None."""
    if not (token.isascii() and token.isdigit()) or (token[0] == "0" and len(token) > 1):
        return None
    return int(token)


def _parse_edge_lines(lines: list[str]) -> Digraph:
    header: tuple[int, int] | None = None
    arcs: list[tuple[int, int]] = []
    for number, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 2:
            raise ParseError(f"line {number}: expected two integers, got {line!r}")
        try:
            first, second = int(fields[0]), int(fields[1])
        except ValueError:
            raise ParseError(f"line {number}: expected two integers, got {line!r}")
        if header is None:
            header = (first, second)
            if first < 0 or second < 0:
                raise ParseError(f"line {number}: negative count in header")
            continue
        arcs.append((first, second))
    if header is None:
        raise ParseError("empty input")
    n, m = header
    if len(arcs) != m:
        raise ParseError(f"header promises {m} arcs but {len(arcs)} lines follow")
    return _digraph_from_arc_list(n, arcs)


def serialize_edge_list(digraph: Digraph) -> str:
    arcs = digraph.arcs()
    lines = [f"{digraph.n} {len(arcs)}"]
    lines.extend(f"{tail} {head}" for tail, head in arcs)
    return "\n".join(lines) + "\n"


def _dot_tokens(text: str):
    for piece in text.replace("{", " { ").replace("}", " } ").replace(
        ";", " ; "
    ).replace("->", " -> ").split():
        yield piece


def parse_dot(text: str) -> Digraph:
    tokens = list(_dot_tokens(text))
    position = 0

    def take(expected: str | None = None) -> str:
        nonlocal position
        if position >= len(tokens):
            raise ParseError("unexpected end of DOT input")
        token = tokens[position]
        position += 1
        if expected is not None and token != expected:
            raise ParseError(f"expected {expected!r}, got {token!r}")
        return token

    take("digraph")
    name = take()
    if name != "{":
        take("{")
        if not (name.isidentifier() or name.isdigit()):
            raise ParseError(f"unsupported graph name {name!r}")
    arcs: list[tuple[int, int]] = []
    nodes: list[int] = []
    while True:
        token = take()
        if token == "}":
            break
        if not token.isdigit():
            raise ParseError(f"unsupported DOT construct at {token!r}")
        tail = int(token)
        token = take()
        if token == ";":
            nodes.append(tail)
            continue
        if token != "->":
            raise ParseError(f"unsupported DOT construct at {token!r}")
        head_token = take()
        if not head_token.isdigit():
            raise ParseError(f"unsupported DOT construct at {head_token!r}")
        arcs.append((tail, int(head_token)))
        token = take()
        if token == "->":
            raise ParseError("edge chains are not supported")
        if token != ";":
            raise ParseError(f"unsupported DOT construct at {token!r}")
    if position != len(tokens):
        raise ParseError(f"trailing input after closing brace: {tokens[position]!r}")
    mentioned = nodes + [q for arc in arcs for q in arc]
    if not mentioned:
        raise ParseError("DOT input mentions no vertices")
    return _digraph_from_arc_list(max(mentioned) + 1, arcs)


def serialize_dot(digraph: Digraph, name: str = "D") -> str:
    arcs = digraph.arcs()
    mentioned = {q for arc in arcs for q in arc}
    lines = [f"digraph {name} {{"]
    lines.extend(f"  {q};" for q in range(digraph.n) if q not in mentioned)
    lines.extend(f"  {tail} -> {head};" for tail, head in arcs)
    lines.append("}")
    return "\n".join(lines) + "\n"


def _digraph_from_arc_list(n: int, arcs) -> Digraph:
    if n <= 0:
        raise ParseError("vertex count must be positive")
    if n > _MAX_ORDER:
        raise TooLarge(f"vertex count {n} exceeds the maximum order {_MAX_ORDER}")
    try:
        return Digraph.from_arcs(n, arcs)
    except ValueError as exc:  # range, self-loops and duplicates
        raise ParseError(str(exc)) from exc


# --------------------------------------------------------------------------
# Pairs


def pair_to_dict(u: int, v: int, pair: GoodPair) -> dict:
    return {
        "schema": SCHEMA,
        "result": "yes",
        "u": u,
        "v": v,
        "out": [list(arc) for arc in pair.out_branching.arcs()],
        "in": [list(arc) for arc in pair.in_branching.arcs()],
    }


def pair_from_dict(data: dict) -> tuple[int, int, GoodPair]:
    _expect_result(data, "yes")
    u = _expect_int(data, "u")
    v = _expect_int(data, "v")
    out_tree = _tree_from_arcs("out", u, _expect_arcs(data, "out"))
    in_tree = _tree_from_arcs("in", v, _expect_arcs(data, "in"))
    return u, v, GoodPair(out_tree, in_tree)


def _tree_from_arcs(kind: str, root: int, arcs) -> Tree:
    parent: dict[int, int] = {}
    for tail, head in arcs:
        child, par = (head, tail) if kind == "out" else (tail, head)
        if child == root:
            raise ParseError(f"the {kind}-tree gives its root {root} a parent")
        if child in parent:
            raise ParseError(f"two {kind}-tree arcs attach vertex {child}")
        parent[child] = par
    return Tree(kind, root, parent)


# --------------------------------------------------------------------------
# Certificates


def certificate_to_dict(certificate) -> dict:
    return {"schema": SCHEMA, "result": "no", "certificate": _body(certificate)}


def _body(certificate) -> dict:
    if isinstance(certificate, SmallException):
        return {
            "kind": "small-exception",
            "catalog": certificate.catalog_id,
            "iso": list(certificate.iso),
        }
    if isinstance(certificate, RootMisplaced):
        return {
            "kind": "root-misplaced",
            "which": certificate.which,
            "components": _components(certificate.decomposition),
        }
    if isinstance(certificate, CutArcObstruction):
        return {
            "kind": "cut-arc",
            "arc": list(certificate.arc),
            "components": _components(certificate.decomposition),
        }
    if isinstance(certificate, ChainObstruction):
        return {"kind": "odd-chain", "partition": certificate.certificate.as_dict()}
    if isinstance(certificate, SameRootStructure):
        return {
            "kind": "same-root-structure",
            "a": list(certificate.a_set),
            "b": list(certificate.b_set),
            "c": list(certificate.c_set),
            "arc": list(certificate.arc),
        }
    raise ParseError(f"unserializable certificate {certificate!r}")


def _components(decomposition: StrongDecomposition) -> list[list[int]]:
    return [list(component) for component in decomposition.components]


def certificate_from_dict(data: dict):
    _expect_result(data, "no")
    body = data.get("certificate")
    if not isinstance(body, dict):
        raise ParseError("'certificate' must be an object")
    kind = body.get("kind")
    if kind == "small-exception":
        catalog = body.get("catalog")
        if not isinstance(catalog, str):
            raise ParseError("'catalog' must be a string")
        return SmallException(catalog, tuple(_expect_ints(body, "iso")))
    if kind == "root-misplaced":
        which = body.get("which")
        if not isinstance(which, str):
            raise ParseError("'which' must be a string")
        return RootMisplaced(_decomposition_from(body), which)
    if kind == "cut-arc":
        return CutArcObstruction(_expect_arc(body, "arc"), _decomposition_from(body))
    if kind == "odd-chain":
        return ChainObstruction(_type_certificate_from(body.get("partition")))
    if kind == "same-root-structure":
        return SameRootStructure(
            tuple(_expect_ints(body, "a")),
            tuple(_expect_ints(body, "b")),
            tuple(_expect_ints(body, "c")),
            _expect_arc(body, "arc"),
        )
    raise ParseError(f"unknown certificate kind {kind!r}")


def _decomposition_from(body: dict) -> StrongDecomposition:
    raw = body.get("components")
    if not isinstance(raw, list) or not raw:
        raise ParseError("'components' must be a non-empty list")
    components = []
    for part in raw:
        if not isinstance(part, list) or not part:
            raise ParseError("every component must be a non-empty list")
        components.append(tuple(_int_only(q) for q in part))
    flat = sorted(q for part in components for q in part)
    if flat != list(range(len(flat))):
        raise ParseError("components must partition 0..n-1")
    component_of = [0] * len(flat)
    for index, part in enumerate(components):
        for q in part:
            component_of[q] = index
    return StrongDecomposition(tuple(components), tuple(component_of))


def _type_certificate_from(data) -> TypeCertificate:
    if not isinstance(data, dict):
        raise ParseError("'partition' must be an object")
    kind = data.get("kind")
    if kind not in ("A", "chain"):
        raise ParseError(f"unknown partition kind {kind!r}")
    raw_parts = data.get("parts")
    if not isinstance(raw_parts, list) or not all(isinstance(p, list) for p in raw_parts):
        raise ParseError("'parts' must be a list of lists")
    parts = tuple(tuple(_int_only(q) for q in part) for part in raw_parts)
    raw_backs = data.get("back_arcs")
    if not isinstance(raw_backs, list):
        raise ParseError("'back_arcs' must be a list")
    back_arcs = tuple(_arc_only(arc) for arc in raw_backs)
    roles = data.get("roles")
    if not isinstance(roles, dict):
        raise ParseError("'roles' must be an object")
    return TypeCertificate(
        kind=kind,
        parts=parts,
        back_arcs=back_arcs,
        u=_expect_int(roles, "u"),
        w=_expect_int(roles, "w"),
        v=_expect_int(roles, "v"),
    )


# --------------------------------------------------------------------------
# Path-pair and detector results (output only; `verify` re-checks pairs and
# no-pair certificates, the path dichotomy re-runs from the instance)


def paths_to_dict(outcome) -> dict:
    if isinstance(outcome, tuple):
        first, second = outcome
        return {
            "schema": SCHEMA,
            "result": "paths",
            "first": list(first.vertices),
            "second": list(second.vertices),
        }
    if isinstance(outcome, ConsecutiveSingletons):
        return {
            "schema": SCHEMA,
            "result": "obstruction",
            "obstruction": {
                "kind": "consecutive-singletons",
                "x": outcome.x,
                "y": outcome.y,
            },
        }
    if isinstance(outcome, TypedObstruction):
        return {
            "schema": SCHEMA,
            "result": "obstruction",
            "obstruction": {
                "kind": "typed",
                "offending_target": outcome.offending_target,
                "partition": outcome.certificate.as_dict(),
            },
        }
    raise ParseError(f"unserializable path outcome {outcome!r}")


def detection_to_dict(certificate: TypeCertificate | None) -> dict:
    if certificate is None:
        return {"schema": SCHEMA, "result": "none"}
    return {"schema": SCHEMA, "result": "found", "partition": certificate.as_dict()}


# --------------------------------------------------------------------------
# Field helpers


def _expect_result(data: dict, wanted: str) -> None:
    if not isinstance(data, dict):
        raise ParseError("expected a JSON object")
    if data.get("schema") != SCHEMA:
        raise ParseError(f"unsupported schema {data.get('schema')!r}")
    if data.get("result") != wanted:
        raise ParseError(f"expected result {wanted!r}, got {data.get('result')!r}")


def _int_only(value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"expected an integer, got {value!r}")
    return value


def _arc_only(value) -> tuple[int, int]:
    if not isinstance(value, list) or len(value) != 2:
        raise ParseError(f"expected an arc [tail, head], got {value!r}")
    return _int_only(value[0]), _int_only(value[1])


def _expect_int(data: dict, key: str) -> int:
    if key not in data:
        raise ParseError(f"missing field {key!r}")
    return _int_only(data[key])


def _expect_ints(data: dict, key: str) -> list[int]:
    value = data.get(key)
    if not isinstance(value, list):
        raise ParseError(f"field {key!r} must be a list of integers")
    return [_int_only(q) for q in value]


def _expect_arc(data: dict, key: str) -> tuple[int, int]:
    if key not in data:
        raise ParseError(f"missing field {key!r}")
    return _arc_only(data[key])


def _expect_arcs(data: dict, key: str) -> list[tuple[int, int]]:
    value = data.get(key)
    if not isinstance(value, list):
        raise ParseError(f"field {key!r} must be a list of arcs")
    return [_arc_only(arc) for arc in value]
