"""Deterministic SVG rendering of level-k interval diagrams.

One horizontal row per (vertex, level) pair, levels 0..K top to bottom per
vertex; each level-k interval becomes one rectangle.  All x-coordinates
are width*lo and width*hi rounded half-even to 3 decimals, so identical
inputs always produce byte-identical output.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import ROUND_HALF_EVEN, Decimal
from fractions import Fraction

from .attractor import LevelLadder
from .model import GraphIFS

_Q3 = Decimal("0.001")


def _coord(x: Fraction, scale: int) -> str:
    value = (Decimal(x.numerator) * scale / Decimal(x.denominator))
    return str(value.quantize(_Q3, rounding=ROUND_HALF_EVEN))


@dataclass(frozen=True)
class RenderSpec:
    """Layout parameters for the interval diagram."""

    levels: int = 5
    width: int = 600
    row_height: int = 14
    row_gap: int = 4
    margin: int = 30
    vertex_gap: int = 16


def render_svg(ifs: GraphIFS, spec: RenderSpec = RenderSpec()) -> str:
    """Render level-0..K approximations of every component as SVG 1.1."""
    if spec.levels < 0:
        raise ValueError("levels must be >= 0")
    rows_per_vertex = spec.levels + 1
    row_stride = spec.row_height + spec.row_gap
    block = rows_per_vertex * row_stride
    total_h = (2 * spec.margin + len(ifs.vertices) * block
               + max(0, len(ifs.vertices) - 1) * spec.vertex_gap)
    total_w = 2 * spec.margin + spec.width
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{total_w}" height="{total_h}" '
        f'viewBox="0 0 {total_w} {total_h}">',
    ]
    ladder = LevelLadder(ifs)
    for vi, vertex in enumerate(ifs.vertices):
        block_y = spec.margin + vi * (block + spec.vertex_gap)
        for k in range(rows_per_vertex):
            y = block_y + k * row_stride
            lines.append(f'<g id="row-{vertex}-{k}">')
            lines.append(
                f'<text x="4" y="{y + spec.row_height - 3}" '
                f'font-size="10" font-family="monospace">'
                f'{vertex} k={k}</text>')
            for lo, hi in ladder.level_set(vertex, k).intervals:
                x1 = _coord(lo, spec.width)
                x2 = _coord(hi, spec.width)
                w = str((Decimal(x2) - Decimal(x1)).quantize(
                    _Q3, rounding=ROUND_HALF_EVEN))
                lines.append(
                    f'<rect x="{Decimal(x1) + spec.margin}" y="{y}" '
                    f'width="{w}" height="{spec.row_height}" '
                    f'fill="#336699"/>')
            lines.append('</g>')
    lines.append('</svg>')
    return "\n".join(lines) + "\n"
