"""Deterministic SVG rendering of instances, colourings and lattices."""

from __future__ import annotations

from typing import Optional

from .geometry import Point
from .lattice import Lattice
from .selector import Assignment
from .union_area import DiskSet

PALETTE = ("#e41a1c", "#377eb8", "#4daf4a", "#984ea3", "#ff7f00", "#a65628",
           "#f781bf", "#17becf", "#bcbd22", "#66c2a5", "#fc8d62", "#8da0cb")
UNSELECTED = "#bbbbbb"
SCALE = 40.0


def _f(x: float) -> str:
    return f"{x:.6f}"


def render_svg(disks: DiskSet, assignment: Optional[Assignment] = None,
               lattice: Lattice | None = None,
               show_cells: bool = False) -> str:
    """SVG document: grey unselected disks, one fill per colour, optional
    lattice-point and Voronoi-cell layers.  Byte-identical for equal inputs."""
    if len(disks) == 0:
        return ('<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 1 1">'
                '<g class="disks"/></svg>\n')
    xmin, ymin, xmax, ymax = disks.bbox(pad=0.5)
    w = (xmax - xmin) * SCALE
    h = (ymax - ymin) * SCALE

    def tx(p: Point) -> tuple[float, float]:
        return (p[0] - xmin) * SCALE, (ymax - p[1]) * SCALE

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" '
             f'viewBox="0 0 {_f(w)} {_f(h)}">']
    parts.append('<g class="disks" stroke="#333333" stroke-width="1">')
    labels = assignment.labels if assignment is not None else (None,) * len(disks)
    for p, colour in zip(disks.centers, labels):
        cx, cy = tx(p)
        fill = UNSELECTED if colour is None else PALETTE[colour % len(PALETTE)]
        parts.append(f'<circle cx="{_f(cx)}" cy="{_f(cy)}" '
                     f'r="{_f(disks.radius * SCALE)}" fill="{fill}" '
                     f'fill-opacity="0.55"/>')
    parts.append('</g>')
    if lattice is not None:
        pts = lattice.points_in_box((xmin, ymin, xmax, ymax))
        if show_cells:
            parts.append('<g class="cells" fill="none" stroke="#888888" '
                         'stroke-width="0.7">')
            for lp in pts:
                verts = lattice.cell_polygon(lp.i, lp.j)
                coords = " ".join("%s,%s" % tuple(map(_f, tx(v))) for v in verts)
                parts.append(f'<polygon points="{coords}"/>')
            parts.append('</g>')
        parts.append('<g class="lattice" fill="#000000">')
        for lp in pts:
            cx, cy = tx(lp.position)
            parts.append(f'<circle cx="{_f(cx)}" cy="{_f(cy)}" r="2.5"/>')
        parts.append('</g>')
    parts.append('</svg>')
    return "\n".join(parts) + "\n"
