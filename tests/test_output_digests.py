"""Pinned CLI output bytes for the level-set consumers and the numerics.

Each case runs one `graphifs` subcommand in process and pins its exit code
and the sha256 of everything it wrote to stdout, so any change to the
level sets, gap lists, SVG coordinates, span hits, certificates,
dimension brackets or measure values that these commands print fails here.
"""

import hashlib

import pytest

from graphifs.cli import main
from conftest import SPEC_DIR


def _spec(name):
    return str(SPEC_DIR / f"{name}.json")


# (case id, argv, exit code, sha256 of stdout)
CASES = [
    ("render-gap-spanning",
     ["render", _spec("gap_spanning"), "--levels", "8"], 0,
     "3630eef600b560d67e4fbe06fadac05f8edf975416d693451d2c5c1c69c9ceea"),
    ("render-golden",
     ["render", _spec("golden_ratio"), "--levels", "8"], 0,
     "a56f99a0f000074bc26cc86fd752596e701e606612ada43a01e4716389a79d3c"),
    ("render-nested",
     ["render", _spec("nested_components"), "--levels", "8"], 0,
     "c45a7851c298021dce4311b9e2e236bf400f98be0227ae9577928e349b4cd671"),
    ("render-golden-10",
     ["render", _spec("golden_ratio"), "--levels", "10"], 0,
     "d0bb36b48bef575416db6f5058ee6dcc3d8b5389667cf6d2ef33b43ba5439bc8"),
    ("render-nested-10",
     ["render", _spec("nested_components"), "--levels", "10"], 0,
     "06cd9197a39715e962277cf9dffedc8d2165fcfafaf6cf47cb763de4d83aaf51"),
    ("render-one-loop",
     ["render", _spec("one_loop"), "--levels", "8"], 0,
     "619e38857ec7ab6531bd0048a650232ed64c88e1217016e3ab7c34f6f520eab8"),
    ("gaps-golden-u",
     ["gaps", _spec("golden_ratio"), "--vertex", "u", "--depth", "10"], 0,
     "240254186cdaff3c1da3aa3bb3b4660d60e753598c7327997e6baa5945b05537"),
    ("gaps-one-loop-v",
     ["gaps", _spec("one_loop"), "--vertex", "v", "--depth", "10"], 0,
     "29945ad97e7a10c0a3a67bd50091145411219e701ddae4a6a2b5e9e06764259b"),
    ("gaps-nested-v",
     ["gaps", _spec("nested_components"), "--vertex", "v", "--depth", "10"],
     0, "53ed1d2a81e758cfb1bba1007cdd2316a0a2a4ec1f26f1190ad44e51429104f8"),
    ("gaps-gap-spanning-u",
     ["gaps", _spec("gap_spanning"), "--vertex", "u", "--depth", "8"], 0,
     "a7dcf51594b3fb71daa5f7277837e686f900f015c1c0aae1a40213f036c40a6c"),
    ("span-search-u-u",
     ["span-search", _spec("gap_spanning"), "--from", "u", "--to", "u"], 0,
     "9f7db05441a415ddf877345a98896fffaba515e460c1131704570bc92a4d79b8"),
    ("span-search-u-v",
     ["span-search", _spec("gap_spanning"), "--from", "u", "--to", "v"], 0,
     "2b6b92ab0375afbe5e02553405200e3608b17f428ef0ac56e6aa49ff210fe099"),
    ("span-search-v-u",
     ["span-search", _spec("gap_spanning"), "--from", "v", "--to", "u"], 0,
     "7310c091e973e77e917d9b45281b2f173459bcdc977dcef745ca80baec1f33ea"),
    ("span-search-u-u-deep",
     ["span-search", _spec("gap_spanning"), "--from", "u", "--to", "u",
      "--max-j", "3", "--max-k", "4", "--verify-depth", "2"], 0,
     "3545813a66230725607110cfc2b117e1cb8a525b7f7304ea8d8e4060c55aee6c"),
    ("span-search-v-v-deep",
     ["span-search", _spec("gap_spanning"), "--from", "v", "--to", "v",
      "--max-j", "3", "--max-k", "4", "--verify-depth", "2"], 0,
     "100b754ddc739f1e991036533fa0e4c4afcb766caa421f0f37052e7eb088ccca"),
    ("span-search-golden-u-v",
     ["span-search", _spec("golden_ratio"), "--from", "u", "--to", "v",
      "--max-j", "4", "--max-k", "4"], 0,
     "5fdb01cadcaf5baf78543e6d91066b132c712aa803dde52366d109489b7d5238"),
    ("dim-gap-spanning", ["dim", _spec("gap_spanning")], 0,
     "ebef6f033867d06998c22bbe5245ec77afd98e9ebd95a8c35cfd57c073736004"),
    ("dim-golden", ["dim", _spec("golden_ratio")], 0,
     "8b606bc7da2376484ffbcdead20c0c27072a1d8760ea0d6c48f8745cf51c2b74"),
    ("dim-nested", ["dim", _spec("nested_components")], 0,
     "54eeb48398ef1e7d8e50995fda5f962d260473f5d35b4741739a9a15c3196960"),
    ("dim-one-loop", ["dim", _spec("one_loop")], 0,
     "8b606bc7da2376484ffbcdead20c0c27072a1d8760ea0d6c48f8745cf51c2b74"),
    ("measure-golden", ["measure", _spec("golden_ratio")], 0,
     "eb1f07827082a1cc92ab926ff1c2381a30db519ea1cca984726d4da74ac0fb1e"),
    ("classify-golden-u",
     ["classify", _spec("golden_ratio"), "--vertex", "u", "--depth", "10"], 0,
     "f1a2692347dd59f19bb418d17412c600ff21c15fd664b7e9c75702a90712bb53"),
]


@pytest.mark.parametrize("argv,code,digest",
                         [case[1:] for case in CASES],
                         ids=[case[0] for case in CASES])
def test_output_digest(argv, code, digest, capsys):
    assert main(argv) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
