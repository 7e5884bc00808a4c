"""Independent oracles for benchmark outputs.

These checks read the system document with `json` and recompute what
they need with their own exact or mpmath arithmetic, so a fault in the
library's level sets, path counts or gap code cannot hide itself.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

import mpmath


class Mismatch(Exception):
    """An output disagrees with its oracle."""


def expect(condition: bool, message: str):
    if not condition:
        raise Mismatch(message)


def read_doc(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _edges(doc):
    return [(e["from"], e["to"], Fraction(e["ratio"])) for e in doc["edges"]]


def level_counts(doc: dict, k: int) -> dict[str, tuple[int, Fraction]]:
    """Per vertex: (number of level-k intervals, their exact total length).

    Under strong separation every length-k path gives its own interval,
    so the count is the row sum of the k-th power of the edge-count
    matrix and the length is the row sum of A(1)^k, A(1)_uv = sum of r_e."""
    state = {v: (1, Fraction(1)) for v in doc["vertices"]}
    for _ in range(k):
        nxt = {v: (0, Fraction(0)) for v in doc["vertices"]}
        for src, dst, ratio in _edges(doc):
            count, length = nxt[src]
            nxt[src] = (count + state[dst][0], length + ratio * state[dst][1])
        state = nxt
    return state


def perron_modulus(doc: dict, s) -> mpmath.mpf:
    """Largest eigenvalue modulus of A(s), A(s)_uv = sum of r_e**s, from
    `mpmath.eig` at a local precision (the caller's mpmath state is kept)."""
    with mpmath.workdps(30):
        index = {v: i for i, v in enumerate(doc["vertices"])}
        n = len(index)
        a = mpmath.matrix(n, n)
        for src, dst, ratio in _edges(doc):
            a[index[src], index[dst]] += (
                mpmath.mpf(ratio.numerator) / ratio.denominator) ** s
        eigenvalues = mpmath.eig(a, left=False, right=False)
        return max(abs(x) for x in eigenvalues)


_GAP = re.compile(r"\(([0-9/]+), ([0-9/]+)\) len ([0-9/]+)")


def parse_gaps_output(text: str) -> tuple[list[list[tuple]], Fraction]:
    """Parse `graphifs gaps` output into per-level gap lists and the max gap."""
    levels, max_gap = [], None
    for line in text.splitlines():
        if line.startswith("level "):
            levels.append([tuple(map(Fraction, m))
                           for m in _GAP.findall(line)])
        elif line.startswith("max gap = "):
            max_gap = Fraction(line[len("max gap = "):])
    expect(max_gap is not None, "gaps output lacks the max gap line")
    return levels, max_gap


def parse_fields(text: str) -> dict[str, str]:
    """`name = value ...` lines of `dim`/`measure` output."""
    out = {}
    for line in text.splitlines():
        name, sep, value = line.partition(" = ")
        if sep:
            out[name] = value
    return out
