"""JSON documents, certificates, SVG rendering."""

import json
import re
from fractions import Fraction

import pytest

from graphifs import (
    SpecValidationError,
    Verdict,
    certificate_from_json,
    certificate_to_json,
    classify_gap_condition,
    classify_measure_condition,
    dump_spec,
    load_spec,
    render_svg,
    replay_certificate,
)
from conftest import SPEC_DIR

F = Fraction


class TestSpecDocuments:
    def test_golden_document_loads(self, golden_ifs):
        text = (SPEC_DIR / "golden_ratio.json").read_text()
        assert load_spec(text) == golden_ifs

    def test_round_trip(self, golden_ifs, nested_ifs, spanning_pair):
        for ifs in (golden_ifs, nested_ifs, spanning_pair[0]):
            text = dump_spec(ifs)
            again = load_spec(text)
            assert again == ifs
            assert dump_spec(again) == text

    def test_ratio_normalization(self):
        doc = {
            "vertices": ["u"],
            "edges": [
                {"id": "e1", "from": "u", "to": "u",
                 "ratio": "2/4", "offset": "0"},
                {"id": "e2", "from": "u", "to": "u",
                 "ratio": "1/4", "offset": "3/4"},
            ],
        }
        ifs = load_spec(json.dumps(doc))
        assert ifs.edge("e1").map.ratio == F(1, 2)

    def test_zero_ratio_rejected(self):
        doc = {
            "vertices": ["u"],
            "edges": [
                {"id": "e1", "from": "u", "to": "u",
                 "ratio": "0/1", "offset": "0"},
                {"id": "e2", "from": "u", "to": "u",
                 "ratio": "1/4", "offset": "3/4"},
            ],
        }
        with pytest.raises(SpecValidationError):
            load_spec(json.dumps(doc))

    def test_zero_denominator_named(self):
        doc = {
            "vertices": ["u"],
            "edges": [
                {"id": "e1", "from": "u", "to": "u",
                 "ratio": "1/0", "offset": "0"},
                {"id": "e2", "from": "u", "to": "u",
                 "ratio": "1/4", "offset": "3/4"},
            ],
        }
        with pytest.raises(SpecValidationError) as exc:
            load_spec(json.dumps(doc))
        assert exc.value.issues == (
            "edges[0]: bad rational: zero denominator in '1/0'",)

    def test_invalid_json_rejected(self):
        with pytest.raises(SpecValidationError):
            load_spec("{not json")

    def test_deeply_nested_json_rejected(self):
        with pytest.raises(SpecValidationError, match="^invalid JSON: "):
            load_spec("[" * 100000)

    def test_structural_failure_reported(self):
        doc = {
            "vertices": ["u", "v"],
            "edges": [
                {"id": "e1", "from": "u", "to": "v",
                 "ratio": "1/4", "offset": "0"},
                {"id": "e2", "from": "u", "to": "v",
                 "ratio": "1/4", "offset": "3/4"},
                {"id": "e3", "from": "v", "to": "v",
                 "ratio": "1/4", "offset": "0"},
                {"id": "e4", "from": "v", "to": "v",
                 "ratio": "1/4", "offset": "3/4"},
            ],
        }
        with pytest.raises(SpecValidationError) as exc:
            load_spec(json.dumps(doc))
        assert any("strongly connected" in i for i in exc.value.issues)

    def test_reflect_must_be_a_boolean(self):
        doc = {
            "vertices": ["u"],
            "edges": [
                {"id": "e1", "from": "u", "to": "u",
                 "ratio": "1/3", "offset": "1/3", "reflect": "false"},
                {"id": "e2", "from": "u", "to": "u",
                 "ratio": "1/3", "offset": "2/3", "reflect": False},
            ],
        }
        for value in ("false", 1, None):
            doc["edges"][0]["reflect"] = value
            with pytest.raises(SpecValidationError) as exc:
                load_spec(json.dumps(doc))
            assert exc.value.issues == (
                f"edges[0] (id 'e1'): 'reflect' must be true or false, "
                f"got {value!r}",)
        del doc["edges"][0]["reflect"]
        assert not load_spec(json.dumps(doc)).edge("e1").map.reflect

    def test_all_sample_documents_load(self):
        for path in sorted(SPEC_DIR.glob("*.json")):
            load_spec(path.read_text())


class TestCertificates:
    def test_round_trip_not_standard(self, golden_ifs):
        cert = classify_gap_condition(golden_ifs, "u")
        text = certificate_to_json(cert)
        again = certificate_from_json(text)
        assert again == cert
        assert replay_certificate(golden_ifs, again)
        assert certificate_to_json(again) == text

    def test_round_trip_standard(self, golden_params):
        from graphifs import no_loop_ifs
        ifs = no_loop_ifs(golden_params)
        cert = classify_gap_condition(ifs, "u")
        assert cert.verdict is Verdict.STANDARD
        again = certificate_from_json(certificate_to_json(cert))
        assert again == cert and replay_certificate(ifs, again)

    def test_round_trip_with_measure(self, golden_ifs):
        cert = classify_measure_condition(golden_ifs, "u",
                                          minimal_edges_asserted=True)
        again = certificate_from_json(certificate_to_json(cert))
        assert replay_certificate(golden_ifs, again)

    def test_malformed_rejected(self):
        with pytest.raises(SpecValidationError):
            certificate_from_json("{}")
        with pytest.raises(SpecValidationError):
            certificate_from_json("{nope")

    def test_deeply_nested_json_rejected(self):
        with pytest.raises(SpecValidationError,
                           match="^invalid certificate JSON: "):
            certificate_from_json("[" * 100000)

    @pytest.mark.parametrize("key, value", [
        ("gap", ["1/2"]),
        ("gap", ["1/2", "3/4", "1"]),
        ("depths", [8]),
        ("depths", [8, 1, 1]),
        ("depths", [8, "one"]),
        ("endpoint", 1),
        ("witness_point", "1/0"),
    ])
    def test_malformed_refutation_rejected(self, golden_ifs, key, value):
        doc = json.loads(certificate_to_json(
            classify_gap_condition(golden_ifs, "u")))
        doc["refutations"][0][key] = value
        with pytest.raises(SpecValidationError,
                           match="malformed certificate"):
            certificate_from_json(json.dumps(doc))

    @pytest.mark.parametrize("field", ["reflected", "refutation reflected",
                                       "map reflect"])
    def test_flags_must_be_booleans(self, golden_ifs, golden_params, field):
        from graphifs import no_loop_ifs
        if field == "map reflect":
            doc = json.loads(certificate_to_json(
                classify_gap_condition(no_loop_ifs(golden_params), "u")))
            holder, key = doc["maps"][0], "reflect"
        else:
            doc = json.loads(certificate_to_json(
                classify_gap_condition(golden_ifs, "u")))
            holder = doc if field == "reflected" else doc["refutations"][0]
            key = "reflected"
        holder[key] = "false"
        with pytest.raises(SpecValidationError,
                           match=f"'{key}' must be true or false"):
            certificate_from_json(json.dumps(doc))

    @pytest.mark.parametrize("theorem, path, value", [
        ("p2q", "condition2/comparisons/0/2", "false"),
        ("p2q", "condition2/level1_gaps_uniform", "no"),
        ("p2q", "refutations/0/depths", ["8", 1]),
        ("p2q", "notes", "abc"),
        ("p2q", "unknown_reason", 7),
        ("p2t", "measure/cond1/warning", "false"),
        ("p2t", "minimal_edges_asserted", "yes"),
        ("p2t", "minimal_edges_asserted", 1),
    ])
    def test_fields_are_type_checked(self, golden_ifs, theorem, path, value):
        cert = (classify_gap_condition(golden_ifs, "u") if theorem == "p2q"
                else classify_measure_condition(golden_ifs, "u",
                                                minimal_edges_asserted=True))
        doc = json.loads(certificate_to_json(cert))
        *parents, last = [int(k) if k.isdigit() else k
                          for k in path.split("/")]
        holder = doc
        for key in parents:
            holder = holder[key]
        holder[last] = value
        with pytest.raises(SpecValidationError,
                           match="malformed certificate"):
            certificate_from_json(json.dumps(doc))


class TestRendering:
    def test_rect_counts(self, golden_ifs):
        svg = render_svg(golden_ifs, 5)
        for vertex in golden_ifs.vertices:
            for k, expected in enumerate((1, 2, 4, 8, 16, 32)):
                block = re.search(
                    rf'<g id="row-{vertex}-{k}">(.*?)</g>', svg, re.S)
                assert block.group(1).count("<rect") == expected

    def test_negative_levels_rejected(self, golden_ifs):
        with pytest.raises(ValueError, match="levels must be >= 0"):
            render_svg(golden_ifs, -1)

    def test_level0_single_rect(self, nested_ifs):
        svg = render_svg(nested_ifs, 0)
        assert svg.count("<rect") == len(nested_ifs.vertices)

    def test_deterministic(self, golden_ifs):
        a = render_svg(golden_ifs, 4)
        b = render_svg(golden_ifs, 4)
        assert a == b

    def test_level1_coordinates(self, golden_ifs):
        svg = render_svg(golden_ifs, 1)
        row = re.search(r'<g id="row-u-1">(.*?)</g>', svg, re.S).group(1)
        xs = re.findall(r'x="([\d.]+)"', row)
        widths = re.findall(r'width="([\d.]+)"', row)
        # margin 30; intervals [0,1/4] and [1/2,1] over width 600
        assert xs[1:] == ["30.000", "330.000"]  # xs[0] is the text label
        assert widths == ["150.000", "300.000"]

    def test_exact_ties_round_half_even(self):
        # Level-1 ends at 1, 3, 5 and 7 over 1200000 fall at 0.5, 1.5,
        # 2.5 and 3.5 thousandths of WIDTH: even n stays, odd n goes up.
        maps = (("1/600000", "1/1200000"), ("1/600000", "5/1200000"),
                ("1/2", "1/2"))
        spec = {"vertices": ["u"], "edges": [
            {"id": f"e{i}", "from": "u", "to": "u", "ratio": r, "offset": o}
            for i, (r, o) in enumerate(maps, 1)]}
        svg = render_svg(load_spec(json.dumps(spec)), 1)
        row = re.search(r'<g id="row-u-1">(.*?)</g>', svg, re.S).group(1)
        rects = re.findall(r'<rect x="([\d.]+)" y="\d+" width="([\d.]+)"', row)
        assert rects == [("30.000", "0.002"), ("30.002", "0.002"),
                         ("330.000", "300.000")]

    def test_is_well_formed_xml(self, golden_ifs):
        import xml.etree.ElementTree as ET
        ET.fromstring(render_svg(golden_ifs, 3))
