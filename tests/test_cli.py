"""End-to-end command-line interface and exit codes."""

import argparse
import itertools
import json
import signal
from contextlib import contextmanager
from fractions import Fraction

import pytest

from graphifs import __version__, certificate_from_json, dimension, load_spec
from graphifs.classify import Verdict
from graphifs.cli import build_parser, main
from conftest import SPEC_DIR

GOLDEN = str(SPEC_DIR / "golden_ratio.json")
NESTED = str(SPEC_DIR / "nested_components.json")
ONE_LOOP = str(SPEC_DIR / "one_loop.json")
SPANNING = str(SPEC_DIR / "gap_spanning.json")


@contextmanager
def deadline(seconds):
    """Raise TimeoutError in the block once `seconds` of wall time pass,
    so that a hang fails the test instead of stalling the suite."""
    def expire(_signum, _frame):
        raise TimeoutError(f"still running after {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def bisection_steps_bounded(monkeypatch):
    """Let every Illinois loop, the float steps of hausdorff_dimension's
    estimate as well as the mpf steps, evaluate its predicate at most
    1,000 times."""
    bracket = dimension._bracket

    def bounded(decide, *args):
        calls = itertools.count(1)

        def counted(x):
            assert next(calls) <= 1000, "bracketing does not terminate"
            return decide(x)
        return bracket(counted, *args)
    monkeypatch.setattr(dimension, "_bracket", bounded)


class TestValidate:
    def test_valid_document(self, capsys):
        assert main(["validate", GOLDEN]) == 0
        assert "valid" in capsys.readouterr().out

    def test_missing_file(self, capsys):
        assert main(["validate", "/nonexistent.json"]) == 1

    def test_invalid_document(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "vertices": ["u"],
            "edges": [{"id": "e1", "from": "u", "to": "u",
                       "ratio": "1/2", "offset": "0"}],
        }))
        assert main(["validate", str(bad)]) == 1
        assert "error" in capsys.readouterr().err

    def test_non_string_edge_id(self, tmp_path, capsys):
        # ids 1-4 passed validate, but a certificate records them as the
        # strings "1"-"4", which its replay then could not find
        doc = json.loads((SPEC_DIR / "golden_ratio.json").read_text())
        for i, edge in enumerate(doc["edges"], 1):
            edge["id"] = i
        spec = tmp_path / "int_ids.json"
        spec.write_text(json.dumps(doc))
        assert main(["validate", str(spec)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "edges[0]: 'id' must be a string" in err
        assert "edges[3]: 'id' must be a string" in err

    @pytest.mark.parametrize("command", ["validate", "verify-certificate"])
    def test_deeply_nested_document(self, tmp_path, capsys, command):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100000)
        argv = ([command, str(deep)] if command == "validate"
                else [command, GOLDEN, str(deep)])
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and "JSON" in err
        assert "Traceback" not in err

    _E1 = {"id": "e1", "from": "u", "to": "u", "ratio": "1/4", "offset": "0"}
    _E2 = {"id": "e2", "from": "u", "to": "u", "ratio": "1/4",
           "offset": "3/4"}

    @pytest.mark.parametrize("doc, err", [
        ([], "error: document must be a JSON object"),
        ({"vertices": [1], "edges": [_E1, _E2]},
         "error: 'vertices' must be a list of strings"),
        ({"vertices": ["u"], "edges": {}}, "error: 'edges' must be a list"),
        ({"vertices": ["u"], "edges": [_E1, "e2"]},
         "  - edges[1]: not an object"),
        ({"vertices": ["u"],
          "edges": [_E1, {k: v for k, v in _E2.items() if k != "offset"}]},
         "  - edges[1]: missing field 'offset'"),
        ({"vertices": ["u", "u"], "edges": [_E1, _E2]},
         "error: duplicate vertex ids"),
        ({"vertices": ["u"], "edges": [_E1, dict(_E2, to="z")]},
         "error: edge 'e2' enters undeclared vertex 'z'"),
    ], ids=["not-object", "vertex-not-string", "edges-not-list",
            "edge-not-object", "missing-field", "duplicate-vertex",
            "undeclared-vertex"])
    def test_malformed_document(self, tmp_path, capsys, doc, err):
        spec = tmp_path / "bad.json"
        spec.write_text(json.dumps(doc))
        assert main(["validate", str(spec)]) == 1
        assert err in capsys.readouterr().err


class TestDim:
    def test_golden(self, capsys):
        assert main(["dim", GOLDEN]) == 0
        out = capsys.readouterr().out
        assert "s = 0.694241913630" in out
        assert "bracket" in out and "iterations" in out

    def test_zero_tol_is_usage_error(self, capsys, monkeypatch):
        def unreachable(*_args):
            raise AssertionError("bisection started with tol 0")
        monkeypatch.setattr(dimension, "_moran", unreachable)
        assert main(["dim", GOLDEN, "--tol", "0"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "tol must be positive" in err

    def test_nan_tol_is_usage_error(self, capsys):
        assert main(["dim", GOLDEN, "--tol", "nan"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "tol must be positive" in err

    @pytest.mark.parametrize("tol", ["inf", "2", "1"])
    def test_tol_from_one_is_usage_error(self, capsys, tol):
        # no step was taken, and s = 0.5 was printed with exit 0
        assert main(["dim", GOLDEN, "--tol", tol]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "tol must be below 1" in err

    @pytest.mark.parametrize("command", ["dim", "measure"])
    def test_tol_below_working_precision_is_usage_error(
            self, capsys, bisection_steps_bounded, command):
        assert main([command, GOLDEN, "--tol", "1e-41"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "tol is below the working precision" in err

    def test_tol_near_working_precision_still_answers(
            self, capsys, bisection_steps_bounded):
        assert main(["dim", GOLDEN, "--tol", "1e-39"]) == 0
        out = capsys.readouterr().out
        assert "s = 0.694241913630" in out
        iterations = int(out.split("iterations = ")[1])
        assert 0 < iterations <= 12

    def test_measure_tol_near_working_precision_still_answers(
            self, capsys, bisection_steps_bounded):
        # the char root's Illinois steps at their deepest tol
        assert main(["measure", GOLDEN, "--tol", "1e-39"]) == 0
        out = capsys.readouterr().out
        assert "s = 0.694241913630" in out
        assert "H^s(F_u) = 1.0" in out


class TestGaps:
    def test_golden_u(self, capsys):
        assert main(["gaps", GOLDEN, "--vertex", "u", "--depth", "2"]) == 0
        out = capsys.readouterr().out
        assert "level 1: (1/4, 1/2) len 1/4" in out
        assert "max gap = 1/4" in out

    def test_unknown_vertex(self, capsys):
        assert main(["gaps", GOLDEN, "--vertex", "z"]) == 1

    def test_negative_depth_is_usage_error(self, capsys):
        assert main(["gaps", GOLDEN, "--vertex", "u", "--depth", "-2"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "depth must be >= 0" in err

    def test_resource_cap(self, tmp_path, capsys):
        # 128 out-edges: 128^3 > 10^6 paths, so depth 3 trips the cap
        dense = tmp_path / "dense.json"
        dense.write_text(json.dumps({
            "vertices": ["u"],
            "edges": [{"id": f"e{i}", "from": "u", "to": "u",
                       "ratio": "1/256", "offset": f"{i}/128"}
                      for i in range(128)],
        }))
        assert main(["gaps", str(dense), "--vertex", "u", "--depth", "3"]) == 4
        out, err = capsys.readouterr()
        assert out == ""
        assert "resource cap" in err
        # golden has 2^k paths of length k: levels 1-19 fit, depth 40 does not
        assert main(["gaps", GOLDEN, "--vertex", "u", "--depth", "40"]) == 4
        out, err = capsys.readouterr()
        assert out == ""
        assert "paths of length 20 from 'u' exceed cap" in err

    def test_touching_hulls_fail_before_output(self, tmp_path, capsys):
        touching = tmp_path / "touching.json"
        touching.write_text(json.dumps({
            "vertices": ["u"],
            "edges": [{"id": "e1", "from": "u", "to": "u",
                       "ratio": "1/2", "offset": "0"},
                      {"id": "e2", "from": "u", "to": "u",
                       "ratio": "1/2", "offset": "1/2"}],
        }))
        assert main(["gaps", str(touching), "--vertex", "u"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "'e1' and 'e2'" in captured.err


class TestMeasure:
    def test_negative_tol_is_usage_error(self, capsys, monkeypatch):
        # the family parameters are Fractions: reading one means the
        # tolerance check was skipped and the bisection is about to start
        convert = dimension._to_mpf

        def guarded(x):
            assert not isinstance(x, Fraction), "tol checked too late"
            return convert(x)
        monkeypatch.setattr(dimension, "_to_mpf", guarded)
        assert main(["measure", GOLDEN, "--tol", "-1"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "tol must be positive" in err

    @pytest.mark.parametrize("option", ["--tol", "--eps"])
    def test_nan_tolerance_is_usage_error(self, capsys, option):
        assert main(["measure", GOLDEN, option, "nan"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"{option[2:]} must be positive" in err

    @pytest.mark.parametrize("tol", ["inf", "2", "1e-9"])
    def test_tol_not_below_eps_is_usage_error(self, capsys, tol):
        # at tol inf or 2 no step was taken, and s = 1/2 was reported
        assert main(["measure", GOLDEN, "--tol", tol]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "tol must be below eps" in err

    @pytest.mark.parametrize("tol", ["1", "2", "4.5"])
    def test_tol_from_one_is_usage_error(self, capsys, tol):
        # below an eps of 5, but a solve from [0, 1] would take no step
        assert main(["measure", GOLDEN, "--tol", tol, "--eps", "5"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "tol must be below 1" in err

    def test_infinite_eps_is_usage_error(self, capsys):
        # every condition read HoldsAtBoundary, and a measure was printed
        assert main(["measure", GOLDEN, "--eps", "inf"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "eps must be finite" in err

    def test_golden(self, capsys):
        assert main(["measure", GOLDEN]) == 0
        out = capsys.readouterr().out
        assert "cond1 = HoldsAtBoundary" in out
        assert "cond2 = Holds" in out
        assert "H^s(F_u) = 1.0" in out

    def test_non_family_rejected(self, capsys):
        assert main(["measure", SPANNING]) == 1
        assert "double-loop" in capsys.readouterr().err

    def test_undetermined_exits_unknown(self, tmp_path, capsys):
        from fractions import Fraction as F
        from graphifs import DoubleLoopParams, double_loop_ifs, dump_spec
        params = DoubleLoopParams(F(2, 5), F(1, 10), F(1, 2),
                                  F(1, 20), F(9, 10), F(1, 20))
        doc = tmp_path / "failing.json"
        doc.write_text(dump_spec(double_loop_ifs(params)))
        assert main(["measure", str(doc)]) == 3
        assert "not determined" in capsys.readouterr().out


class TestClassify:
    def test_golden_not_standard(self, capsys):
        assert main(["classify", GOLDEN, "--vertex", "u"]) == 0
        cert = certificate_from_json(capsys.readouterr().out)
        assert cert.verdict is Verdict.NOT_STANDARD
        assert cert.theorem == "p2q"

    def test_unknown_exits_3(self, capsys):
        assert main(["classify", NESTED, "--vertex", "u"]) == 3
        cert = certificate_from_json(capsys.readouterr().out)
        assert cert.verdict is Verdict.UNKNOWN

    def test_theorem_p2m(self, capsys):
        assert main(["classify", GOLDEN, "--vertex", "v",
                     "--theorem", "p2m"]) == 0
        cert = certificate_from_json(capsys.readouterr().out)
        assert cert.theorem == "p2m" and cert.vertex == "v"

    def test_theorem_p2t_requires_assertion(self, capsys):
        assert main(["classify", GOLDEN, "--vertex", "u",
                     "--theorem", "p2t"]) == 3
        assert main(["classify", GOLDEN, "--vertex", "u",
                     "--theorem", "p2t", "--assert-minimal-edges"]) == 0

    def test_p2m_outside_family_rejected(self, capsys):
        assert main(["classify", NESTED, "--vertex", "u",
                     "--theorem", "p2m"]) == 1
        assert ("error: p2m applies only to the two-vertex double-loop "
                "family") in capsys.readouterr().err

    def test_bad_theorem_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["classify", GOLDEN, "--vertex", "u", "--theorem", "bogus"])
        assert exc.value.code == 2


class TestVerifyCertificate:
    def test_round_trip(self, tmp_path, capsys):
        assert main(["classify", GOLDEN, "--vertex", "u"]) == 0
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(capsys.readouterr().out)
        assert main(["verify-certificate", GOLDEN, str(cert_path)]) == 0
        assert "replays successfully" in capsys.readouterr().out

    def test_wrong_system_fails(self, tmp_path, capsys):
        assert main(["classify", GOLDEN, "--vertex", "u"]) == 0
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(capsys.readouterr().out)
        assert main(["verify-certificate", NESTED, str(cert_path)]) == 1

    @pytest.mark.parametrize("part, key, value, err", [
        # not consecutive
        ("cycle_witness", "cycle", ["e3", "e1"], "FAILED to replay"),
        # consecutive and ending where they should, but repeating a vertex
        ("cycle_witness", "cycle", ["e3", "e3"], "FAILED to replay"),
        ("cycle_witness", "path", ["e1", "e2"], "FAILED to replay"),
        # unknown edge ids
        ("cycle_witness", "cycle", ["e9"], "FAILED to replay"),
        ("cycle_witness", "path", ["e9"], "FAILED to replay"),
        ("refutation", "witness_path", ["e9"], "FAILED to replay"),
        # the witness path has 8 edges
        ("refutation", "depths", [3, 1], "FAILED to replay"),
        # target levels start at 1
        ("refutation", "depths", [8, -1], "FAILED to replay"),
        ("refutation", "depths", [8, 0], "FAILED to replay"),
        ("refutation", "target_vertex", "zz", "FAILED to replay"),
        ("refutation", "gap", ["1/2"], "error: malformed certificate"),
        ("refutation", "witness_point", "1/0",
         "error: malformed certificate: zero denominator in '1/0'"),
        # condition (2) evidence that the system does not give
        ("condition2", "u", "v", "FAILED to replay"),
        ("condition2", "level1_gaps_uniform", False, "FAILED to replay"),
    ])
    def test_tampered_certificate_fails(self, tmp_path, capsys,
                                        part, key, value, err):
        assert main(["classify", GOLDEN, "--vertex", "u"]) == 0
        doc = json.loads(capsys.readouterr().out)
        target = (doc["refutations"][0] if part == "refutation"
                  else doc[part])
        target[key] = value
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(json.dumps(doc))
        assert main(["verify-certificate", GOLDEN, str(cert_path)]) == 1
        assert err in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("vertex", "zz"),  # not a vertex of the system
        ("theorem", "p9"),  # no theorem of that name
    ])
    def test_forged_claim_fails(self, tmp_path, capsys, key, value):
        assert main(["classify", GOLDEN, "--vertex", "u"]) == 0
        doc = json.loads(capsys.readouterr().out)
        doc[key] = value
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(json.dumps(doc))
        assert main(["verify-certificate", GOLDEN, str(cert_path)]) == 1
        assert "FAILED to replay" in capsys.readouterr().err

    def test_forged_standard_certificate_fails(self, tmp_path, capsys):
        # one_loop v's standard rewrite, recorded against golden u, which
        # has none: the replay's own rewrite raises and is refused
        assert main(["classify", GOLDEN, "--vertex", "u"]) == 0
        digest = json.loads(capsys.readouterr().out)["subject_digest"]
        assert main(["classify", ONE_LOOP, "--vertex", "v"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["theorem"] == "p2nv1"
        doc.update(subject_digest=digest, vertex="u")
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(json.dumps(doc))
        assert main(["verify-certificate", GOLDEN, str(cert_path)]) == 1
        assert "FAILED to replay" in capsys.readouterr().err

    @pytest.mark.parametrize("edits", [
        # the minimal-edge-count hypothesis is no longer asserted
        {"minimal_edges_asserted": False},
        {"minimal_edges_asserted": None},
        # measure evidence that the system does not give
        {"measure/s": "0.1"},
        {"measure/cond1/status": "Fails", "measure/h_v": "0.5"},
    ], ids=["asserted-false", "asserted-null", "measure-s", "measure-cond1"])
    def test_tampered_p2t_certificate_fails(self, tmp_path, capsys, edits):
        assert main(["classify", GOLDEN, "--vertex", "u", "--theorem", "p2t",
                     "--assert-minimal-edges"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] == Verdict.NOT_STANDARD.value
        for path, value in edits.items():
            *parents, key = path.split("/")
            target = doc
            for part in parents:
                target = target[part]
            target[key] = value
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(json.dumps(doc))
        assert main(["verify-certificate", GOLDEN, str(cert_path)]) == 1
        assert "FAILED to replay" in capsys.readouterr().err

    def test_deep_target_level_hits_the_cap_at_once(self, tmp_path, capsys):
        assert main(["classify", GOLDEN, "--vertex", "u"]) == 0
        doc = json.loads(capsys.readouterr().out)
        doc["refutations"][0]["depths"][1] = 10**9
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(json.dumps(doc))
        with deadline(10):
            assert main(["verify-certificate", GOLDEN, str(cert_path)]) == 4
        # 2^20 paths: length 20 is the first over the cap of 10^6
        assert ("1048576 paths of length 20 from 'v' exceed cap 1000000"
                in capsys.readouterr().err)


class TestRewrite:
    def test_nested_u(self, capsys):
        assert main(["rewrite", NESTED, "--vertex", "u"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == ["x -> 1/4*x + 0",
                       "x -> 1/4*x + 3/4",
                       "x -> 1/16*x + 27/32"]

    def test_one_loop_v(self, capsys):
        assert main(["rewrite", ONE_LOOP, "--vertex", "v"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 3

    def test_not_rewritable_exits_3(self, capsys):
        assert main(["rewrite", GOLDEN, "--vertex", "u"]) == 3
        assert "no standard rewrite" in capsys.readouterr().err


class TestRender:
    def test_stdout(self, capsys):
        assert main(["render", GOLDEN, "--levels", "2"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("<?xml") and out.rstrip().endswith("</svg>")

    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "out.svg"
        assert main(["render", GOLDEN, "--levels", "3",
                     "-o", str(target)]) == 0
        assert target.read_text().startswith("<?xml")


class TestCounterexample:
    def test_solve_reference(self, capsys):
        assert main(["counterexample", "solve", "--g1", "1/20",
                     "--g2", "10/20", "--g3", "1/20", "--g4", "1/20"]) == 0
        out = capsys.readouterr().out
        assert "r_e1 = 1/10" in out and "r = 1/10" in out

    def test_solve_infeasible(self, capsys):
        assert main(["counterexample", "solve", "--g1", "1/2",
                     "--g2", "1/2", "--g3", "1/2", "--g4", "1/2"]) == 1
        assert "infeasible" in capsys.readouterr().out

    def test_quadratic_rational(self, capsys):
        assert main(["counterexample", "quadratic", "--alpha", "1/20"]) == 0
        out = capsys.readouterr().out
        assert "2/5" in out and "1/2" in out

    def test_quadratic_none(self, capsys):
        assert main(["counterexample", "quadratic", "--alpha", "1/10"]) == 0
        assert "no real roots" in capsys.readouterr().out

    def test_quadratic_surd(self, capsys):
        assert main(["counterexample", "quadratic", "--alpha", "1/25"]) == 0
        assert "sqrt" in capsys.readouterr().out

    def test_quadratic_bad_alpha_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["counterexample", "quadratic", "--alpha", "zebra"])
        assert exc.value.code == 2

    def test_quadratic_zero_denominator_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["counterexample", "quadratic", "--alpha", "1/0"])
        assert exc.value.code == 2
        assert ("argument --alpha: zero denominator in '1/0'"
                in capsys.readouterr().err)

    def test_build_emits_loadable_spec(self, capsys):
        assert main(["counterexample", "build"]) == 0
        out = capsys.readouterr().out
        body, _, tail = out.rpartition("S: ")
        assert tail.startswith("x -> 1/10*x + 3/40")
        load_spec(body)

    def test_verify(self, capsys):
        assert main(["counterexample", "verify"]) == 0
        assert "all identities hold" in capsys.readouterr().out


class TestSpanSearch:
    def test_reference_hit(self, capsys):
        assert main(["span-search", SPANNING, "--from", "u", "--to", "u",
                     "--max-j", "1", "--max-k", "2"]) == 0
        out = capsys.readouterr().out
        assert "hit: x -> 1/10*x + 3/40" in out

    def test_golden_no_hits(self, capsys):
        assert main(["span-search", GOLDEN, "--from", "u", "--to", "v",
                     "--max-j", "3", "--max-k", "3"]) == 0
        assert "no gap-spanning similarity" in capsys.readouterr().out


COMMANDS = ("validate", "dim", "gaps", "measure", "classify", "rewrite",
            "render", "counterexample", "span-search", "verify-certificate")
TOP_USAGE = """\
usage: graphifs [-h] [--version]
                {validate,dim,gaps,measure,classify,rewrite,render,counterexample,span-search,verify-certificate}
                ...
"""
TOP_HELP = TOP_USAGE + """
Exact directed-graph IFS attractors on [0,1]: gaps, dimension, measure, and
standardness certificates.

positional arguments:
  {validate,dim,gaps,measure,classify,rewrite,render,counterexample,span-search,verify-certificate}
    validate            validate a system document
    dim                 Hausdorff dimension via the Moran matrix
    gaps                gap intervals and maximum gap length
    measure             Hausdorff measure (double-loop family only)
    classify            standardness certificate for one component
    rewrite             explicit standard IFS for one component
    render              SVG diagram of level-k intervals
    counterexample      gap-spanning construction kit
    span-search         bounded search for gap-spanning similarities
    verify-certificate  replay a certificate against its system

options:
  -h, --help            show this help message and exit
  --version             show program's version number and exit
"""


def run_exit(capsys, argv):
    """(exit code, stdout, stderr) of a `main` call that exits."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    return exc.value.code, out, err


@pytest.fixture
def columns_80(monkeypatch):
    """Fix the width argparse wraps help and usage text to."""
    monkeypatch.setenv("COLUMNS", "80")


@pytest.mark.usefixtures("columns_80")
class TestUsage:
    def test_no_command(self, capsys):
        assert run_exit(capsys, []) == (2, "", TOP_USAGE + (
            "graphifs: error: the following arguments are required: "
            "command\n"))

    def test_unknown_command(self, capsys):
        assert run_exit(capsys, ["frobnicate"]) == (2, "", TOP_USAGE + (
            "graphifs: error: argument command: invalid choice: "
            "'frobnicate' (choose from 'validate', 'dim', 'gaps', 'measure', "
            "'classify', 'rewrite', 'render', 'counterexample', "
            "'span-search', 'verify-certificate')\n"))

    def test_version(self, capsys):
        assert run_exit(capsys, ["--version"]) == (0, f"{__version__}\n", "")

    def test_top_level_help(self, capsys):
        assert run_exit(capsys, ["--help"]) == (0, TOP_HELP, "")

    @pytest.mark.parametrize("argv, err", [
        (["gaps"], "usage: graphifs gaps [-h] --vertex VERTEX "
                   "[--depth DEPTH] spec\n"
                   "graphifs gaps: error: the following arguments are "
                   "required: spec, --vertex\n"),
        (["counterexample"], "usage: graphifs counterexample [-h] "
                             "{solve,quadratic,build,verify} ...\n"
                             "graphifs counterexample: error: the following "
                             "arguments are required: action\n"),
        # left over by the subcommand, so reported by the top-level parser
        (["validate", GOLDEN, "extra"],
         TOP_USAGE + "graphifs: error: unrecognized arguments: extra\n"),
    ], ids=["missing-argument", "missing-action", "extra-argument"])
    def test_usage_error_text(self, capsys, argv, err):
        assert run_exit(capsys, argv) == (2, "", err)

    @pytest.mark.parametrize("argv", [
        *([name] for name in COMMANDS),
        *(["counterexample", action]
          for action in ("solve", "quadratic", "build", "verify")),
    ], ids=" ".join)
    def test_subcommand_help_matches_full_tree(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([*argv, "--help"])
        assert exc.value.code == 0
        full = capsys.readouterr()
        assert full.out.startswith(f"usage: graphifs {' '.join(argv)} ")
        assert run_exit(capsys, [*argv, "--help"]) == (0, full.out, full.err)

    def test_builds_only_the_named_subparser(self, monkeypatch, capsys):
        built = []
        init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)
        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        assert main(["validate", GOLDEN]) == 0
        assert built == ["graphifs", "graphifs validate"]

    @pytest.mark.parametrize("argv, message", [
        (["validate", "DIR"], "Is a directory"),
        (["verify-certificate", GOLDEN, "DIR"], "Is a directory"),
        (["render", GOLDEN, "-o", "DIR"], "Is a directory"),
        (["validate", "UTF16"], "{UTF16}: 'utf-8' codec can't decode"),
        (["verify-certificate", "UTF16", GOLDEN],
         "{UTF16}: 'utf-8' codec can't decode"),
        (["verify-certificate", GOLDEN, "UTF16"],
         "{UTF16}: 'utf-8' codec can't decode"),
    ], ids=["validate-dir", "certificate-dir", "render-output-dir",
            "spec-not-utf8", "certificate-command-spec-not-utf8",
            "certificate-not-utf8"])
    def test_unreadable_input_file_fails(self, tmp_path, capsys,
                                         argv, message):
        utf16 = tmp_path / "utf16.json"
        utf16.write_bytes(b"\xff\xfe{}")
        paths = {"DIR": str(tmp_path), "UTF16": str(utf16)}
        assert main([paths.get(arg, arg) for arg in argv]) == 1
        out, err = capsys.readouterr()
        assert err.startswith("error: ") and message.format(**paths) in err

    def test_installed_entry_point(self):
        """The console script declared in pyproject.toml, run as its own
        process, reports success and failure through its exit code.

        With `graphifs` on PATH, that executable is run once its installed
        entry point is shown to match the declaration. From an uninstalled
        checkout, the declared `module:func` is run the way the generated
        wrapper runs it, against the `graphifs` this process imported."""
        import importlib.metadata
        import os
        import shutil
        import subprocess
        import sys
        from pathlib import Path

        import graphifs

        tomllib = pytest.importorskip("tomllib")
        pyproject = tomllib.loads(
            (SPEC_DIR.parent / "pyproject.toml").read_text())
        declared = pyproject["project"]["scripts"]["graphifs"]

        exe = shutil.which("graphifs")
        if exe is not None:
            installed = importlib.metadata.entry_points(
                group="console_scripts", name="graphifs")
            assert [ep.value for ep in installed] == [declared]
            command, env = [exe], None
        else:
            module, func = declared.split(":")
            command = [sys.executable, "-c",
                       f"import sys; from {module} import {func}; "
                       f"sys.exit({func}())"]
            package_root = str(Path(graphifs.__file__).resolve().parents[1])
            env = dict(os.environ, PYTHONPATH=os.pathsep.join(
                filter(None, [package_root, os.environ.get("PYTHONPATH")])))

        def run(*argv):
            return subprocess.run(command + list(argv), env=env,
                                  capture_output=True, text=True)

        proc = run("validate", GOLDEN)
        assert proc.returncode == 0 and "valid" in proc.stdout, proc.stderr
        assert run("validate", "/nonexistent.json").returncode == 1
