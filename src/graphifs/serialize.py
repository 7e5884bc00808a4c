"""Exact-rational JSON serialization for systems and certificates.

Rationals are persisted as canonical "p/q" strings (plain "p" when the
denominator is 1), never as floats.  A system document looks like

    {
      "vertices": ["u", "v"],
      "edges": [
        {"id": "e1", "from": "u", "to": "u",
         "ratio": "1/4", "offset": "0", "reflect": false},
        ...
      ],
      "metadata": {"name": "..."}        // optional
    }

Edge direction follows the graph: "from" is the edge's initial vertex and
"to" its terminal vertex.  The attached map runs the *opposite* way — it
sends the unit-interval copy at "to" into the copy at "from".

A certificate is written from its dataclass fields, one key per field
name, and reading checks the type of every field.  A `Path` is written as
its edge-id list, and each (target_vertex, SubsetRefutation) pair as the
refutation's object plus a "target_vertex" key.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import json
import typing
from dataclasses import MISSING
from fractions import Fraction

from mpmath import mpf

from .attractor import SubsetRefutation
from .classify import Certificate, _num
from .errors import SpecValidationError
from .model import (
    Edge,
    GraphIFS,
    Similarity,
    format_rational,
    parse_rational,
    validate_graph,
)


# ---------------------------------------------------------------------------
# system documents

def _flag(d: dict, key: str) -> bool:
    """A JSON boolean field, false when missing."""
    if not isinstance(flag := d.get(key, False), bool):
        raise ValueError(f"{key!r} must be true or false, got {flag!r}")
    return flag


def load_spec(text: str) -> GraphIFS:
    """Parse and validate a system document; raises SpecValidationError
    listing every problem found."""
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise SpecValidationError(f"invalid JSON: {exc}") from exc
    issues: list[str] = []
    if not isinstance(doc, dict):
        raise SpecValidationError("document must be a JSON object")
    vertices = doc.get("vertices")
    edges_doc = doc.get("edges")
    if not isinstance(vertices, list) or not all(
            isinstance(v, str) for v in vertices):
        raise SpecValidationError("'vertices' must be a list of strings")
    if not isinstance(edges_doc, list):
        raise SpecValidationError("'edges' must be a list")
    edges = []
    for i, e in enumerate(edges_doc):
        where = f"edges[{i}]"
        if not isinstance(e, dict):
            issues.append(f"{where}: not an object")
            continue
        try:
            eid = e["id"]
            src, dst = e["from"], e["to"]
            ratio = parse_rational(str(e["ratio"]))
            offset = parse_rational(str(e["offset"]))
        except KeyError as exc:
            issues.append(f"{where}: missing field {exc}")
            continue
        except ValueError as exc:
            issues.append(f"{where}: bad rational: {exc}")
            continue
        if not isinstance(eid, str):
            issues.append(f"{where}: 'id' must be a string")
            continue
        try:
            reflect = _flag(e, "reflect")
            edges.append(Edge(eid, src, dst, Similarity(ratio, offset, reflect)))
        except ValueError as exc:
            issues.append(f"{where} (id {eid!r}): {exc}")
    if issues:
        raise SpecValidationError("document has malformed edges", issues)
    try:
        ifs = GraphIFS(tuple(vertices), tuple(edges))
    except Exception as exc:
        raise SpecValidationError(str(exc)) from exc
    report = validate_graph(ifs)
    if not report.ok:
        raise SpecValidationError("system fails structural validation",
                                  report.issues)
    return ifs


def dump_spec(ifs: GraphIFS) -> str:
    """Render a system back to its canonical document form."""
    doc = {
        "vertices": list(ifs.vertices),
        "edges": [
            {
                "id": e.id,
                "from": e.src,
                "to": e.dst,
                "ratio": format_rational(e.map.ratio),
                "offset": format_rational(e.map.offset),
                "reflect": e.map.reflect,
            }
            for e in ifs.edges
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# certificates

def _only(kind: type, what: str, then):
    """A decoder that hands x to `then` when its type is exactly kind and
    raises TypeError otherwise."""
    def decode(x):
        if type(x) is not kind:
            raise TypeError(f"must be {what}, got {x!r}")
        return then(x)
    return decode


def _object(plan: list, build):
    """A decoder of a JSON object into build(*values), one value per
    (key, decode, default) of plan.  A missing key gives its default, or a
    KeyError when it has none.  A type error inside becomes a ValueError
    naming the innermost key."""
    def decode(d):
        args = []
        for key, dec, default in plan:
            try:
                args.append(dec(d[key]) if key in d or default is MISSING
                            else default)
            except TypeError as exc:
                raise ValueError(f"{key!r} {exc}") from None
        return build(*args)
    return _only(dict, "an object", decode)


_SCALARS = {
    Fraction: (format_rational,
               _only(str, "a rational string", parse_rational)),
    mpf: (_num, _only(str, "a decimal string", mpf)),
    str: (str, _only(str, "a string", str)),
    int: (int, _only(int, "an integer", int)),
    bool: (bool, _only(bool, "true or false", bool)),
}


@functools.cache
def _codec(hint) -> tuple:
    """(encode, decode) between values of type `hint` and their JSON form,
    built once per type from dataclass fields and their type hints."""
    if hint in _SCALARS:
        return _SCALARS[hint]
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is typing.Union:  # Optional[X]
        enc, dec = _codec(args[0])
        return (lambda x: None if x is None else enc(x),
                lambda x: None if x is None else dec(x))
    if hint == tuple[str, SubsetRefutation]:
        enc, dec = _codec(SubsetRefutation)
        target = _object([("target_vertex", _codec(str)[1], MISSING)], str)
        return (lambda pair: {"target_vertex": pair[0], **enc(pair[1])},
                lambda d: (target(d), dec(d)))
    if origin is tuple and args[-1] is Ellipsis:
        enc, dec = _codec(args[0])
        return (lambda xs: [enc(x) for x in xs],
                _only(list, "a list", lambda xs: tuple(map(dec, xs))))
    if origin is tuple:
        encs, decs = zip(*map(_codec, args))

        def decode_fixed(xs):
            if len(xs) != len(decs):
                raise TypeError(
                    f"must be a list of {len(decs)} entries, got {xs!r}")
            return tuple([dec(x) for dec, x in zip(decs, xs)])
        return (lambda xs: [enc(x) for enc, x in zip(encs, xs)],
                _only(list, f"a list of {len(decs)} entries", decode_fixed))
    if issubclass(hint, enum.Enum):
        return lambda x: x.value, hint
    hints = typing.get_type_hints(hint)
    plan = []
    for f in dataclasses.fields(hint):
        default = f.default
        if typing.get_origin(hints[f.name]) is typing.Union:  # Optional
            default = None if default is MISSING else default
        plan.append((f.name, *_codec(hints[f.name]), default))
    if len(plan) == 1:  # written as its one field
        ((name, enc, dec, _),) = plan
        return lambda x: enc(getattr(x, name)), lambda x: hint(dec(x))
    return (lambda x: {name: enc(getattr(x, name))
                       for name, enc, _, _ in plan},
            _object([(name, dec, default)
                     for name, _, dec, default in plan], hint))


def certificate_to_json(cert: Certificate) -> str:
    """Canonical JSON form of a certificate (sorted keys, rational strings,
    path edge-id lists)."""
    return json.dumps(_codec(Certificate)[0](cert), indent=2,
                      sort_keys=True) + "\n"


def certificate_from_json(text: str) -> Certificate:
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise SpecValidationError(f"invalid certificate JSON: {exc}") from exc
    try:
        return _codec(Certificate)[1](doc)
    except (KeyError, ValueError, TypeError) as exc:
        raise SpecValidationError(f"malformed certificate: {exc}") from exc
