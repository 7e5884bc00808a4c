"""Pinned certificate bytes for every reachable decider branch.

Each case names the branch it reaches and the sha256 of its canonical
certificate JSON, so a change to either decider that alters any field of
any certificate (including flags such as `reflected` and
`minimal_edges_asserted`) fails here.  Each case also reads its JSON back
and writes it again, so the decoder meets every branch's layout too.

Not reachable from `specs/` or `graphifs.families`, hence not pinned: the
"condition (1) unmet and rewrite failed" branch of p2q and of p2t.  When
every simple cycle passes through u, every u-avoiding path is shorter than
|V|, so the rewrite ends within its |V|+1 rounds.
"""

import hashlib
from fractions import Fraction

import pytest

from graphifs import (
    DoubleLoopParams,
    Verdict,
    certificate_from_json,
    certificate_to_json,
    classify_gap_condition,
    classify_measure_condition,
    double_loop_ifs,
    load_spec,
    no_loop_ifs,
)
from conftest import SPEC_DIR

F = Fraction

GOLDEN = DoubleLoopParams(F(1, 4), F(1, 4), F(1, 2), F(1, 2), F(1, 4), F(1, 4))
# both measure-formula conditions fail
MEASURE_FAILS = DoubleLoopParams(F(1, 6), F(1, 2), F(1, 3),
                                 F(2, 5), F(2, 5), F(1, 5))
# the formula applies, but H^s(F_v) != 1
OFF_UNIT = DoubleLoopParams(F(7, 11), F(1, 11), F(3, 11),
                            F(2, 5), F(1, 5), F(2, 5))


def _system(name):
    if name.endswith(".json"):
        return load_spec((SPEC_DIR / name).read_text(encoding="utf-8"))
    builder, params = name.split(":")
    return {"double": double_loop_ifs, "noloop": no_loop_ifs}[builder](
        {"golden": GOLDEN, "measure-fails": MEASURE_FAILS,
         "off-unit": OFF_UNIT}[params])


# (case id, theorem option, system, vertex, depth, reflected, asserted,
#  expected (theorem, verdict, reason prefix), sha256 of the JSON)
CASES = [
    ("q-proof-golden-u", "p2q", "golden_ratio.json", "u", 8, False, None,
     ("p2q", Verdict.NOT_STANDARD, None),
     "5797907e198461ac3e98b5294c45c9909f9471738f46a98093bfd3888f7d7060"),
    ("q-proof-golden-v-refl", "p2q", "golden_ratio.json", "v", 8, True, None,
     ("p2q", Verdict.NOT_STANDARD, None),
     "a7b4d627504457cb2a91f8b4c5dc3554034f62247c21cbd146692dda18aefc22"),
    ("q-cond2-spanning-u-refl", "p2q", "gap_spanning.json", "u", 8, True, None,
     ("p2q", Verdict.UNKNOWN, "condition (2)"),
     "9268fc498b83e1c0cd7adb3da0e4414e105fe7ea2b3b9661d1861cebb5c77ce7"),
    ("q-cond2-nested-u", "p2q", "nested_components.json", "u", 8, False, None,
     ("p2q", Verdict.UNKNOWN, "condition (2)"),
     "7bf970a9a5e39b2ee1a49729d4857313cb6a003fac973ee17b6d2e82f6ee9c78"),
    ("q-cond3-golden-u-d2-refl", "p2q", "double:golden", "u", 2, True, None,
     ("p2q", Verdict.UNKNOWN, "condition (3)"),
     "c52b47011e9e74c462a4dc62826485af2b3a10a9728c35d4150102296595a95f"),
    ("q-cond3-golden-v-d1", "p2q", "double:golden", "v", 1, False, None,
     ("p2q", Verdict.UNKNOWN, "condition (3)"),
     "ffcece4ae7370638eaff9bdcc1e04a81b4111d7254b80a56af59d22828badf33"),
    ("q-rewrite-noloop-u-refl", "p2q", "noloop:golden", "u", 8, True, None,
     ("p2nv1", Verdict.STANDARD, None),
     "be5fa4c06dc8fa382cce1f09c09db7c566acbbcec19a130675ed6c3a7d2cded6"),
    ("q-rewrite-oneloop-v", "p2q", "one_loop.json", "v", 8, False, None,
     ("p2nv1", Verdict.STANDARD, None),
     "61f6bef8c869560140a15bf6ea6285bce4f6de3dbaa97d4848ddad851451d674"),
    ("t-unasserted-golden-u-refl", "p2t", "double:golden", "u", 8, True, False,
     ("p2t", Verdict.UNKNOWN, "minimal edge count"),
     "f6c5a0f02617d960df0089a57b5b86d192da8052b8eb9b626554d133c469630f"),
    ("t-unasserted-noloop-u", "p2t", "noloop:golden", "u", 8, False, False,
     ("p2t", Verdict.UNKNOWN, "minimal edge count"),
     "44917d965fa2e2ce4b878d850edb0ac7fa8a1fe9af3eaf048b4d4f7e85a7fcfb"),
    ("t-nonfamily-spanning-u-refl", "p2t", "gap_spanning.json", "u", 8, True,
     True, ("p2t", Verdict.UNKNOWN, "Hausdorff measure only"),
     "9b45e0f32c64eef5310f34c07325f125520ad07a9adabe7c6a9c008ee2fa2143"),
    ("t-measure-fails-u", "p2t", "double:measure-fails", "u", 8, False, True,
     ("p2t", Verdict.UNKNOWN, "measure-formula conditions fail"),
     "b38556c54310fba152c1716f2b5a1e19fbec37afec76f5d6d475fbe7a5795047"),
    ("t-off-unit-u-refl", "p2t", "double:off-unit", "u", 8, True, True,
     ("p2t", Verdict.UNKNOWN, "unit measure required"),
     "810889d4e8e5c91148ef81c74cfbbb2d78df4218a0a93a2fa406e7007ea73326"),
    ("t-cond3-golden-u-d2-refl", "p2t", "double:golden", "u", 2, True, True,
     ("p2t", Verdict.UNKNOWN, "condition (3)"),
     "064ee01d8cb3f3f303a46b8d435a754076dbc5afd6a7c0d0158a985e348749b2"),
    ("t-proof-golden-u", "p2t", "golden_ratio.json", "u", 8, False, True,
     ("p2t", Verdict.NOT_STANDARD, None),
     "d7c8c87d683248af59be3b9dfbc2227f1f0475a34522af1c3784514901016b65"),
    ("t-proof-golden-v-refl", "p2t", "golden_ratio.json", "v", 8, True, True,
     ("p2t", Verdict.NOT_STANDARD, None),
     "f8025cff29725fcb9261d6df4c2f8b9c6822c62855ac65e0b53b4ef403083164"),
    ("t-rewrite-noloop-u-refl", "p2t", "noloop:golden", "u", 8, True, True,
     ("p2nv1", Verdict.STANDARD, None),
     "e9e7ba7bef082a52891f0958d549e6a4cb6e81172e6810996fed55b35e34eb0b"),
]


@pytest.mark.parametrize(
    "option, system, vertex, depth, reflected, asserted, branch, digest",
    [case[1:] for case in CASES], ids=[case[0] for case in CASES])
def test_certificate_bytes_pinned(option, system, vertex, depth, reflected,
                                  asserted, branch, digest):
    ifs = _system(system)
    if option == "p2q":
        cert = classify_gap_condition(ifs, vertex, depth=depth,
                                      reflected=reflected)
    else:
        cert = classify_measure_condition(ifs, vertex, depth=depth,
                                          minimal_edges_asserted=asserted,
                                          reflected=reflected)
    theorem, verdict, reason = branch
    assert (cert.theorem, cert.verdict) == (theorem, verdict)
    if reason is None:
        assert cert.unknown_reason is None
    else:
        assert cert.unknown_reason.startswith(reason)
    text = certificate_to_json(cert)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest
    assert certificate_to_json(certificate_from_json(text)) == text
