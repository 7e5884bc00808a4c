"""The library's working precision is its own.

graphifs computes in a private 40-digit mpmath context: importing it
leaves `mpmath.mp` alone, and certificates, `dim` and `measure` output and
certificate replay come out the same whatever precision the caller has
set in `mpmath.mp` afterwards.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import pytest

import graphifs
from graphifs import (
    certificate_from_json,
    certificate_to_json,
    classify_measure_condition,
    load_spec,
    replay_certificate,
)
from graphifs.cli import main
from conftest import SPEC_DIR
from test_certificate_digests import CASES as CERTIFICATE_CASES
from test_output_digests import CASES as OUTPUT_CASES

CALLER_DPS = [15, 40, 60]
GOLDEN_P2T = next(case[-1] for case in CERTIFICATE_CASES
                  if case[0] == "t-proof-golden-u")
NUMERIC_OUTPUTS = [case for case in OUTPUT_CASES
                   if case[0].startswith(("dim-", "measure-"))]


def _golden():
    return load_spec((SPEC_DIR / "golden_ratio.json").read_text())


def _golden_p2t_json() -> str:
    cert = classify_measure_condition(_golden(), "u", depth=8,
                                      minimal_edges_asserted=True)
    return certificate_to_json(cert)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _tamper_s(text: str, digit: int) -> str:
    """The certificate with the given significant digit of the recorded s
    changed."""
    doc = json.loads(text)
    s = doc["measure"]["s"]
    assert s.startswith("0.") and s[2] != "0"
    i = 1 + digit  # "0." and then the significant digits
    doc["measure"]["s"] = s[:i] + str((int(s[i]) + 1) % 10) + s[i + 1:]
    return json.dumps(doc)


def test_import_leaves_caller_precision_alone():
    package_root = str(Path(graphifs.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import mpmath; import graphifs, graphifs.cli, graphifs.serialize; "
         "print(mpmath.mp.dps, mpmath.iv.dps)"],
        env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["15", "15"]


@pytest.mark.parametrize("dps", CALLER_DPS)
def test_golden_p2t_certificate_pinned(dps):
    mpmath.mp.dps = dps
    assert _sha256(_golden_p2t_json()) == GOLDEN_P2T


@pytest.mark.parametrize("dps", CALLER_DPS)
@pytest.mark.parametrize("argv,code,digest",
                         [case[1:] for case in NUMERIC_OUTPUTS],
                         ids=[case[0] for case in NUMERIC_OUTPUTS])
def test_numeric_output_pinned(argv, code, digest, dps, capsys):
    mpmath.mp.dps = dps
    assert main(argv) == code
    assert _sha256(capsys.readouterr().out) == digest


@pytest.mark.parametrize("dps", CALLER_DPS)
def test_tampered_s_fails_replay(dps):
    # the 21st significant digit of s is beyond what 15-digit mpf keeps,
    # so a decode at the caller's precision would lose the change
    text = _golden_p2t_json()
    mpmath.mp.dps = dps
    ifs = _golden()
    assert replay_certificate(ifs, certificate_from_json(text))
    tampered = certificate_from_json(_tamper_s(text, 21))
    assert not replay_certificate(ifs, tampered)


def test_codec_round_trip_at_low_caller_precision():
    text = _golden_p2t_json()
    mpmath.mp.dps = 15
    assert certificate_to_json(certificate_from_json(text)) == text
