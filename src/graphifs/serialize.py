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
"""

from __future__ import annotations

import json

from mpmath import mp, mpf

from .attractor import SubsetRefutation
from .classify import Certificate, DetachedCycleWitness, Verdict
from .errors import SpecValidationError
from .gaps import Condition2Report
from .measure import ConditionCheck, ConditionStatus, MeasureResult
from .model import (
    Edge,
    GraphIFS,
    Path,
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
    except json.JSONDecodeError as exc:
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

def _similarity_to_doc(s: Similarity) -> dict:
    return {"ratio": format_rational(s.ratio),
            "offset": format_rational(s.offset),
            "reflect": s.reflect}


def _similarity_from_doc(d: dict) -> Similarity:
    return Similarity(parse_rational(d["ratio"]), parse_rational(d["offset"]),
                      _flag(d, "reflect"))


def _refutation_to_doc(v: str, r: SubsetRefutation) -> dict:
    return {
        "target_vertex": v,
        "witness_point": format_rational(r.witness_point),
        "witness_path": list(r.witness_path.edges),
        "endpoint": format_rational(r.endpoint),
        "gap": [format_rational(r.gap[0]), format_rational(r.gap[1])],
        "depths": list(r.depths),
        "reflected": r.reflected,
    }


def _pair(d: dict, key: str, parse) -> tuple:
    items = d[key]
    if not isinstance(items, list) or len(items) != 2:
        raise ValueError(f"{key!r} must be a list of 2 entries, got {items!r}")
    return parse(items[0]), parse(items[1])


def _refutation_from_doc(d: dict) -> tuple[str, SubsetRefutation]:
    return d["target_vertex"], SubsetRefutation(
        parse_rational(d["witness_point"]),
        Path(tuple(d["witness_path"])),
        parse_rational(d["endpoint"]),
        _pair(d, "gap", parse_rational),
        _pair(d, "depths", int),
        _flag(d, "reflected"),
    )


def _num(x: mpf) -> str:
    return mp.nstr(mpf(x), 30)


def _measure_to_doc(m: MeasureResult) -> dict:
    def cond(c: ConditionCheck) -> dict:
        return {"status": c.status.value, "value": _num(c.value),
                "warning": c.warning}

    return {
        "s": _num(m.s),
        "cond1": cond(m.cond1),
        "cond2": cond(m.cond2),
        "h_u": None if m.h_u is None else _num(m.h_u),
        "h_v": None if m.h_v is None else _num(m.h_v),
    }


def _measure_from_doc(d: dict) -> MeasureResult:
    def cond(c: dict) -> ConditionCheck:
        return ConditionCheck(ConditionStatus(c["status"]), mpf(c["value"]),
                              bool(c.get("warning", False)))

    return MeasureResult(
        mpf(d["s"]), cond(d["cond1"]), cond(d["cond2"]),
        None if d["h_u"] is None else mpf(d["h_u"]),
        None if d["h_v"] is None else mpf(d["h_v"]),
    )


def _condition2_to_doc(r: Condition2Report) -> dict:
    return {
        "u": r.u,
        "max_gap_u": format_rational(r.max_gap_u),
        "comparisons": [[v, format_rational(m), ok]
                        for v, m, ok in r.comparisons],
        "level1_gaps_uniform": r.level1_gaps_uniform,
    }


def _condition2_from_doc(d: dict) -> Condition2Report:
    return Condition2Report(
        d["u"], parse_rational(d["max_gap_u"]),
        tuple((v, parse_rational(m), bool(ok))
              for v, m, ok in d["comparisons"]),
        d.get("level1_gaps_uniform"),
    )


def _witness_to_doc(w: DetachedCycleWitness) -> dict:
    return {"w": w.w, "cycle": list(w.cycle.edges),
            "path": list(w.path.edges), "vprime": list(w.vprime)}


def _witness_from_doc(d: dict) -> DetachedCycleWitness:
    return DetachedCycleWitness(d["w"], Path(tuple(d["cycle"])),
                                Path(tuple(d["path"])), tuple(d["vprime"]))


def certificate_to_json(cert: Certificate) -> str:
    """Canonical JSON form of a certificate (sorted keys, rational strings,
    path edge-id lists)."""
    doc = {
        "subject_digest": cert.subject_digest,
        "vertex": cert.vertex,
        "verdict": cert.verdict.value,
        "theorem": cert.theorem,
        "cycle_witness": (None if cert.cycle_witness is None
                          else _witness_to_doc(cert.cycle_witness)),
        "condition2": (None if cert.condition2 is None
                       else _condition2_to_doc(cert.condition2)),
        "refutations": [_refutation_to_doc(v, r)
                        for v, r in cert.refutations],
        "measure": (None if cert.measure is None
                    else _measure_to_doc(cert.measure)),
        "maps": (None if cert.maps is None
                 else [_similarity_to_doc(s) for s in cert.maps]),
        "reflected": cert.reflected,
        "minimal_edges_asserted": cert.minimal_edges_asserted,
        "unknown_reason": cert.unknown_reason,
        "notes": list(cert.notes),
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def certificate_from_json(text: str) -> Certificate:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecValidationError(f"invalid certificate JSON: {exc}") from exc
    try:
        return Certificate(
            subject_digest=doc["subject_digest"],
            vertex=doc["vertex"],
            verdict=Verdict(doc["verdict"]),
            theorem=doc["theorem"],
            cycle_witness=(None if doc.get("cycle_witness") is None
                           else _witness_from_doc(doc["cycle_witness"])),
            condition2=(None if doc.get("condition2") is None
                        else _condition2_from_doc(doc["condition2"])),
            refutations=tuple(_refutation_from_doc(d)
                              for d in doc.get("refutations", [])),
            measure=(None if doc.get("measure") is None
                     else _measure_from_doc(doc["measure"])),
            maps=(None if doc.get("maps") is None
                  else tuple(_similarity_from_doc(d) for d in doc["maps"])),
            reflected=_flag(doc, "reflected"),
            minimal_edges_asserted=doc.get("minimal_edges_asserted"),
            unknown_reason=doc.get("unknown_reason"),
            notes=tuple(doc.get("notes", ())),
        )
    except (KeyError, ValueError, TypeError, AttributeError) as exc:
        raise SpecValidationError(f"malformed certificate: {exc}") from exc
