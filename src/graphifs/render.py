"""Deterministic SVG rendering of level-k interval diagrams.

One horizontal row per (vertex, level) pair, levels 0..K top to bottom per
vertex; each level-k interval becomes one rectangle.  All x-coordinates
are WIDTH*lo and WIDTH*hi rounded half-even to thousandths in integer
arithmetic, so identical inputs always produce byte-identical output.
"""

from __future__ import annotations

from .model import GraphIFS

#: Layout of the diagram, in SVG user units.
WIDTH = 600
ROW_HEIGHT = 14
ROW_GAP = 4
MARGIN = 30
VERTEX_GAP = 16


def _thousandths(p: int, den: int) -> int:
    """1000 * WIDTH * p / den rounded half-even to an integer."""
    q, r = divmod(1000 * WIDTH * p, den)
    if 2 * r > den or (2 * r == den and q % 2):
        q += 1
    return q


def _fixed3(q: int) -> str:
    """A nonnegative number of thousandths written as units.thousandths."""
    return f"{q // 1000}.{q % 1000:03d}"


def render_svg(ifs: GraphIFS, levels: int = 5) -> str:
    """Render level-0..levels approximations of every component as SVG 1.1."""
    if levels < 0:
        raise ValueError("levels must be >= 0")
    row_stride = ROW_HEIGHT + ROW_GAP
    block = (levels + 1) * row_stride
    total_h = (2 * MARGIN + len(ifs.vertices) * block
               + max(0, len(ifs.vertices) - 1) * VERTEX_GAP)
    total_w = 2 * MARGIN + WIDTH
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{total_w}" height="{total_h}" '
        f'viewBox="0 0 {total_w} {total_h}">',
    ]
    for vi, vertex in enumerate(ifs.vertices):
        block_y = MARGIN + vi * (block + VERTEX_GAP)
        for k in range(levels + 1):
            y = block_y + k * row_stride
            lines.append(f'<g id="row-{vertex}-{k}">')
            lines.append(
                f'<text x="4" y="{y + ROW_HEIGHT - 3}" '
                f'font-size="10" font-family="monospace">'
                f'{vertex} k={k}</text>')
            den = ifs.ladder.scale ** k
            xs = [_thousandths(p, den) for p in ifs.ladder.endpoints(vertex, k)]
            for x1, x2 in zip(xs[::2], xs[1::2]):
                lines.append(
                    f'<rect x="{_fixed3(x1 + 1000 * MARGIN)}" y="{y}" '
                    f'width="{_fixed3(x2 - x1)}" height="{ROW_HEIGHT}" '
                    f'fill="#336699"/>')
            lines.append('</g>')
    lines.append('</svg>')
    return "\n".join(lines) + "\n"
