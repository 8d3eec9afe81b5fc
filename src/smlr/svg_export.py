"""Scalable-vector figures and text export of roadmaps.

The graph text format is two files: an edge list (``u_id v_id length`` per
line) and a vertex table (``id coord_0 ... coord_{n-1}`` per line).  SVG
rendering supports 2D levels; tori are drawn as a square with edges that
cross the seam split into two strokes.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .geometry import Box, Disc, Polygon
from .spaces import StateSpace

TWO_PI = 2.0 * math.pi
# the drawing's longer side, in SVG user units (pixels)
SIZE = 640


def write_graph_files(roadmap, out_prefix) -> tuple[Path, Path]:
    """Write ``<prefix>_edges.txt`` and ``<prefix>_vertices.txt``."""
    out_prefix = Path(out_prefix)
    out_prefix.parent.mkdir(parents=True, exist_ok=True)
    edge_path = out_prefix.with_name(out_prefix.name + "_edges.txt")
    vert_path = out_prefix.with_name(out_prefix.name + "_vertices.txt")
    with open(edge_path, "w") as f:
        for u, v, length in roadmap.edges:
            f.write(f"{u} {v} {length:.12g}\n")
    with open(vert_path, "w") as f:
        for i in range(roadmap.num_guards):
            coords = " ".join(f"{c:.12g}" for c in roadmap.guard_state(i))
            f.write(f"{i} {coords}\n")
    return edge_path, vert_path


class UnsupportedDimensionError(ValueError):
    pass


def _plane_of(space: StateSpace):
    """Drawing plane for a 2D level: coordinate ranges and wrap flags."""
    if space.dim != 2:
        raise UnsupportedDimensionError(
            f"svg export needs a 2D level, got dimension {space.dim}")
    lo = np.where(space.circular, 0.0, space.lo)
    hi = np.where(space.circular, TWO_PI, space.hi)
    return lo, hi, space.circular.copy()


def export_svg(space: StateSpace, out_path, roadmap=None, obstacles=(),
               start=None, goal=None, solution=None):
    """Render obstacles, guards, edges, start/goal and solution path."""
    lo, hi, wrap = _plane_of(space)
    span = hi - lo
    scale = SIZE / max(span)

    def pt(p):
        return ((p[0] - lo[0]) * scale,
                (hi[1] - p[1]) * scale)  # y up

    w, h = span[0] * scale, span[1] * scale
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{w:.0f}" '
             f'height="{h:.0f}" viewBox="0 0 {w:.2f} {h:.2f}">',
             f'<rect width="{w:.2f}" height="{h:.2f}" fill="white" '
             'stroke="black"/>']
    if wrap.any():
        parts.append(f'<rect width="{w:.2f}" height="{h:.2f}" fill="none" '
                     'stroke="gray" stroke-dasharray="6 4"/>')

    for obs in obstacles:
        if isinstance(obs, Disc):
            cx, cy = pt(obs.center)
            parts.append(f'<circle cx="{cx:.2f}" cy="{cy:.2f}" '
                         f'r="{obs.radius * scale:.2f}" fill="#888"/>')
        elif isinstance(obs, Box) and len(obs.lo) == 2:
            x, y = pt((obs.lo[0], obs.hi[1]))
            bw = (obs.hi[0] - obs.lo[0]) * scale
            bh = (obs.hi[1] - obs.lo[1]) * scale
            parts.append(f'<rect x="{x:.2f}" y="{y:.2f}" width="{bw:.2f}" '
                         f'height="{bh:.2f}" fill="#888"/>')
        elif isinstance(obs, Polygon):
            pts = " ".join(f"{x:.2f},{y:.2f}"
                           for x, y in (pt(v) for v in obs.vertices))
            parts.append(f'<polygon points="{pts}" fill="#888"/>')

    def seam_segments(a, b):
        """Split an edge at the torus seam into drawable sub-segments."""
        segs = []
        run = []
        for p in space.interpolate_many(a, b, np.linspace(0, 1, 25)):
            if run and np.any(np.abs(p - run[-1]) > span / 2):
                segs.append(run)
                run = []
            run.append(p)
        segs.append(run)
        return segs

    if roadmap is not None:
        for u, v, _ in roadmap.edges:
            a = roadmap.guard_state(u)
            b = roadmap.guard_state(v)
            for run in seam_segments(a, b):
                d = " ".join(f"{x:.2f},{y:.2f}"
                             for x, y in (pt(p) for p in run))
                parts.append(f'<polyline points="{d}" fill="none" '
                             'stroke="#36c" stroke-width="1"/>')
        for i in range(roadmap.num_guards):
            cx, cy = pt(roadmap.guard_state(i))
            parts.append(f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="2.5" '
                         'fill="#36c"/>')

    if solution is not None:
        for a, b in zip(solution[:-1], solution[1:]):
            for run in seam_segments(a, b):
                d = " ".join(f"{x:.2f},{y:.2f}"
                             for x, y in (pt(p) for p in run))
                parts.append(f'<polyline points="{d}" fill="none" '
                             'stroke="#d22" stroke-width="2.5"/>')

    for state, color in ((start, "#2a2"), (goal, "#d22")):
        if state is not None:
            cx, cy = pt(state)
            parts.append(f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="5" '
                         f'fill="{color}" stroke="black"/>')

    parts.append("</svg>")
    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text("\n".join(parts))
    return out_path
