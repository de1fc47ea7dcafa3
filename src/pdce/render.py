"""SVG drawing of an embedding: hull outline, labeled edges, numbered vertices."""

from __future__ import annotations

import math

from .errors import InvalidEmbedding
from .geometry import ConvexPointSet
from .paths import DirPath, Embedding
from .validator import require_same_size, require_well_formed, validate_embedding

CANVAS = 720
MARGIN = 40.0
NODE_RADIUS = 9.0

EDGE_COLORS = {
    "U": "#1f77b4",
    "D": "#d62728",
    "L": "#2ca02c",
    "R": "#9467bd",
}


def _screen_transform(s: ConvexPointSet):
    minx, maxx = min(s.xs), max(s.xs)
    miny, maxy = min(s.ys), max(s.ys)
    span = max(maxx - minx, maxy - miny, 1)
    scale = (CANVAS - 2.0 * MARGIN) / span

    def to_screen(x, y):
        # SVG y grows downward; flip so an Up edge points up on screen.
        return MARGIN + (x - minx) * scale, MARGIN + (maxy - y) * scale

    return to_screen


def _edge_element(x1, y1, x2, y2, label: str) -> str:
    # Pull both ends back so the arrowhead meets the node circle's rim
    # instead of vanishing underneath it.
    dx, dy = x2 - x1, y2 - y1
    dist = math.hypot(dx, dy)
    if dist > 3.0 * NODE_RADIUS:
        ux, uy = dx / dist, dy / dist
        x1, y1 = x1 + ux * NODE_RADIUS, y1 + uy * NODE_RADIUS
        x2, y2 = x2 - ux * (NODE_RADIUS + 3.0), y2 - uy * (NODE_RADIUS + 3.0)
    return (
        f'<line class="edge edge-{label}" x1="{x1:.2f}" y1="{y1:.2f}" '
        f'x2="{x2:.2f}" y2="{y2:.2f}" stroke="{EDGE_COLORS[label]}" '
        f'stroke-width="2.5" marker-end="url(#arrow-{label})"/>'
    )


def render_svg(p: DirPath, s: ConvexPointSet, e: Embedding, force: bool = False) -> str:
    """Draw the embedding as an SVG document string.

    The output is a pure function of the arguments, byte for byte. Unless
    force is given the embedding must validate as a PDCE. With force any
    assignment of in-range plain-int indices is drawn, crossings, wrong
    directions and repeated indices all.
    """
    if force:
        require_same_size(p, s)
        require_well_formed(s, e, distinct=False)
    else:
        report = validate_embedding(p, s, e)
        if not report.is_pdce:
            raise InvalidEmbedding(
                f"embedding fails validation (first violation: "
                f"{report.first_violation}); use force to draw it anyway"
            )

    to_screen = _screen_transform(s)
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{CANVAS}" '
        f'height="{CANVAS}" viewBox="0 0 {CANVAS} {CANVAS}">',
        "<defs>",
    ]
    for label in "UDLR":
        out.append(
            f'<marker id="arrow-{label}" viewBox="0 0 10 10" refX="9" refY="5" '
            f'markerWidth="6" markerHeight="6" orient="auto">'
            f'<path d="M 0 0 L 10 5 L 0 10 z" fill="{EDGE_COLORS[label]}"/>'
            f"</marker>"
        )
    out.append("</defs>")
    out.append(f'<rect width="{CANVAS}" height="{CANVAS}" fill="#ffffff"/>')
    hull = " ".join(f"{x:.2f},{y:.2f}" for x, y in map(to_screen, s.xs, s.ys))
    out.append(
        f'<polygon class="hull" points="{hull}" fill="none" stroke="#bbbbbb" '
        f'stroke-width="1" stroke-dasharray="5 4"/>'
    )
    screen = [to_screen(s.xs[idx], s.ys[idx]) for idx in e.assignment]
    for k, label in enumerate(p.labels):
        out.append(_edge_element(*screen[k], *screen[k + 1], label))
    for k, (x, y) in enumerate(screen):
        out.append(
            f'<circle class="node" cx="{x:.2f}" cy="{y:.2f}" r="{NODE_RADIUS:.0f}" '
            f'fill="#ffffff" stroke="#333333" stroke-width="1.5"/>'
        )
        out.append(
            f'<text class="node-label" x="{x + 12.0:.2f}" y="{y - 10.0:.2f}" '
            f'font-family="monospace" font-size="13">v{k + 1}</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"
