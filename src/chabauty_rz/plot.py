"""Schematic SVG rendering of the model space.

The picture is qualitative: the earring on the left, a row of cone
silhouettes shrinking toward the accumulation axis on the right, and
dashed guides suggesting how cone boundaries wrap onto earring circles.
A faithful planar embedding of the glued space does not exist, so no
metric meaning is attached to the figure.  Floating point is fine here.
"""

from __future__ import annotations

from typing import List

from .earring import MAX_CIRCLES, MAX_CONES
from .rationals import InvalidParameter, as_int

_WIDTH = 880.0
_HEIGHT = 420.0


def render_model_svg(circles: int = 6, cones: int = 4) -> str:
    circles, cones = as_int(circles, "circles"), as_int(cones, "cones")
    if circles < 1 or cones < 1:
        raise InvalidParameter("circles and cones must be >= 1")
    if circles > MAX_CIRCLES or cones > MAX_CONES:
        raise InvalidParameter(
            f"circles must be <= {MAX_CIRCLES} and cones <= {MAX_CONES}"
        )
    parts: List[str] = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_WIDTH:g}" height="{_HEIGHT:g}" '
        f'viewBox="0 0 {_WIDTH:g} {_HEIGHT:g}">',
        '<rect width="100%" height="100%" fill="white"/>',
    ]

    # Hawaiian earring: circles A_n of centre (1/n, 0), radius 1/n,
    # all tangent at the basepoint.  Drawn in a left-hand panel.
    base_x, base_y = 70.0, _HEIGHT / 2
    scale = 280.0
    for n in range(1, circles + 1):
        r = scale / (2 * n)
        parts.append(
            f'<circle cx="{base_x + r:.2f}" cy="{base_y:.2f}" r="{r:.2f}" '
            'fill="none" stroke="black" stroke-width="1.2"/>'
        )
    parts.append(
        f'<circle cx="{base_x:.2f}" cy="{base_y:.2f}" r="3" fill="black"/>'
    )
    parts.append(
        f'<text x="{base_x - 10:.2f}" y="{base_y + 22:.2f}" '
        'font-family="serif" font-size="14">e</text>'
    )

    # Accumulation axis with cone silhouettes.  Cone k sits above the
    # axis; widths shrink so the row accumulates on the segment's end.
    axis_y = _HEIGHT - 70.0
    axis_x0, axis_x1 = 430.0, _WIDTH - 40.0
    parts.append(
        f'<line x1="{axis_x0:.2f}" y1="{axis_y:.2f}" '
        f'x2="{axis_x1:.2f}" y2="{axis_y:.2f}" '
        'stroke="black" stroke-width="1.5"/>'
    )
    parts.append(
        f'<text x="{axis_x1 - 14:.2f}" y="{axis_y + 20:.2f}" '
        'font-family="serif" font-size="14">[0,&#8734;]</text>'
    )

    span = axis_x1 - axis_x0 - 30.0
    x = axis_x0 + 10.0
    for k in range(1, cones + 1):
        w = span / (2**k)
        h = 180.0 / k**0.5
        apex_x = x + w / 2
        parts.append(
            f'<path d="M {x:.2f} {axis_y:.2f} L {apex_x:.2f} {axis_y - h:.2f} '
            f'L {x + w:.2f} {axis_y:.2f}" fill="none" stroke="black" '
            'stroke-width="1.2"/>'
        )
        # boundary arc along the axis side of the cone
        parts.append(
            f'<path d="M {x:.2f} {axis_y:.2f} Q {apex_x:.2f} {axis_y + 16:.2f} '
            f'{x + w:.2f} {axis_y:.2f}" fill="none" stroke="black" '
            'stroke-width="1.0"/>'
        )
        parts.append(
            f'<text x="{apex_x - 8:.2f}" y="{axis_y - h - 6:.2f}" '
            f'font-family="serif" font-size="13">C{k}</text>'
        )
        # dashed guide: the wrapping of this cone's boundary onto a circle
        target = min(k, circles)
        r = scale / (2 * target)
        parts.append(
            f'<path d="M {apex_x:.2f} {axis_y + 14:.2f} '
            f'C {apex_x - 120:.2f} {axis_y + 60:.2f} '
            f'{base_x + 2 * r + 80:.2f} {base_y + 60:.2f} '
            f'{base_x + 2 * r:.2f} {base_y:.2f}" '
            'fill="none" stroke="gray" stroke-width="1" '
            'stroke-dasharray="5,4"/>'
        )
        x += w + 14.0

    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_model_svg(path: str, circles: int = 6, cones: int = 4) -> None:
    svg = render_model_svg(circles, cones)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(svg)
