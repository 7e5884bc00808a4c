"""Deterministic SVG rendering of level-k interval diagrams.

One horizontal row per (vertex, level) pair, levels 0..K top to bottom per
vertex; each level-k interval becomes one rectangle.  All x-coordinates
are WIDTH*lo and WIDTH*hi rounded half-even to thousandths in integer
arithmetic, so identical inputs always produce byte-identical output.
A row is rounded in one pass over the ladder's integer endpoints and
written from one rect template, each distinct width formatted once.
"""

from __future__ import annotations

from .model import GraphIFS

#: Layout of the diagram, in SVG user units.
WIDTH = 600
ROW_HEIGHT = 14
ROW_GAP = 4
MARGIN = 30
VERTEX_GAP = 16


def render_svg(ifs: GraphIFS, levels: int = 5) -> str:
    """Render level-0..levels approximations of every component as SVG 1.1."""
    if levels < 0:
        raise ValueError("levels must be >= 0")
    row_stride = ROW_HEIGHT + ROW_GAP
    block = (levels + 1) * row_stride
    total_h = (2 * MARGIN + len(ifs.vertices) * block
               + max(0, len(ifs.vertices) - 1) * VERTEX_GAP)
    total_w = 2 * MARGIN + WIDTH
    margin = 1000 * MARGIN  # in thousandths
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{total_w}" height="{total_h}" '
        f'viewBox="0 0 {total_w} {total_h}">',
    ]
    for vi, vertex in enumerate(ifs.vertices):
        # escaped for the row id and the label; xml.sax.saxutils would pull
        # urllib.request into every `import graphifs`
        name = (vertex.replace("&", "&amp;").replace("<", "&lt;")
                .replace(">", "&gt;").replace('"', "&quot;"))
        block_y = MARGIN + vi * (block + VERTEX_GAP)
        for k in range(levels + 1):
            y = block_y + k * row_stride
            lines.append(f'<g id="row-{name}-{k}">')
            lines.append(
                f'<text x="4" y="{y + ROW_HEIGHT - 3}" '
                f'font-size="10" font-family="monospace">'
                f'{name} k={k}</text>')
            den = ifs.ladder.scale ** k
            num, twice = 2000 * WIDTH, 2 * den
            xs = [q - (not r and q & 1)  # half up, exact ties back to even
                  for q, r in [divmod(num * p + den, twice)
                               for p in ifs.ladder.endpoints(vertex, k)]]
            rect = (f'<rect x="%d.%03d" y="{y}" width="%s" '
                    f'height="{ROW_HEIGHT}" fill="#336699"/>')
            widths: dict[int, str] = {}
            for x1, x2 in zip(xs[::2], xs[1::2]):
                w = x2 - x1
                width = widths.get(w)
                if width is None:
                    width = widths[w] = "%d.%03d" % divmod(w, 1000)
                x1 += margin
                lines.append(rect % (x1 // 1000, x1 % 1000, width))
            lines.append('</g>')
    lines.append('</svg>')
    return "\n".join(lines) + "\n"
