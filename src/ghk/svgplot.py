"""Deterministic SVG pictures of cone, ideal region, and gap region.

The picture lives in the ambient plane scaled by det_abs times the
drawn power, which makes every coordinate an exact integer: det_abs
times the point with corner (s, t) is s * ray2 + t * ray1, so no
rounding ever happens and rendering the same input twice gives
byte-identical output.

Drawn layers, back to front: the ideal region of the shown bracket
power (gray, class region-w), the part of the threshold quadrant
missing from the ordinary power (red, class region-red), the strip the
ordinary power covers beyond the bracket power (green rectangles, class
region-green), the two cone edges, circles at the generator corners
(class gen-dot) and at the lattice points counted by the gap function
(class gap-dot).
"""

from fractions import Fraction
from typing import Callable, Optional

from .errors import BadParameters
from .fmt import exact_decimal
from .geometry import Staircase, _count_under, _rectangles
from .ideals import MonomialIdeal, ordinary_power

_MAX_GAP_DOTS = 100_000  # each gap dot is one circle element of about 70 bytes

_STYLE = {
    "region-w": "#d9d9d9",
    "region-red": "#d94545",
    "region-green": "#3fa34d",
}


def _corner_to_svg(cone) -> Callable[[int, int], tuple[int, int]]:
    # ray2 and ray1 have corners (det_abs, 0) and (0, det_abs), so det_abs
    # times the point with corner (s, t) is s * ray2 + t * ray1
    (x1, y1), (x2, y2) = cone.ray1, cone.ray2

    def to_svg(s: int, t: int) -> tuple[int, int]:
        return s * x2 + t * x1, -(s * y2 + t * y1)

    return to_svg


def _polygon(points: list[tuple[int, int]], cls: str) -> str:
    coords = " ".join(f"{x},{y}" for x, y in points)
    return f'<polygon class="{cls}" fill="{_STYLE[cls]}" points="{coords}"/>'


def _staircase_boundary(stair: Staircase) -> list[tuple[int, int]]:
    pts = [stair.corners[0]]
    for prev, cur in zip(stair.corners, stair.corners[1:]):
        pts.append((cur[0], prev[1]))
        pts.append(cur)
    return pts


def _gap_dots(rect: tuple[int, int, int, int], tau: int, step: int) -> list[tuple[int, int]]:
    """The lattice corners (s, t) in [a, b) x [lo, hi), s ascending, then t ascending.

    Column s holds the t == tau * s (mod step).  A rectangle with fewer
    rows than columns is walked row by row instead, row t holding the
    s == tau^-1 * t (mod step), and its dots are sorted back into
    column order.
    """
    a, b, lo, hi = rect
    if hi - lo < b - a:
        inv = pow(tau, -1, step)
        return sorted(
            (s, t) for t in range(lo, hi) for s in range(a + (inv * t - a) % step, b, step)
        )
    return [(s, t) for s in range(a, b) for t in range(lo + (tau * s - lo) % step, hi, step)]


def render_region_svg(ideal: MonomialIdeal, q_mark: Optional[int] = None) -> str:
    """Render the region picture, optionally at the q-th bracket power.

    With q_mark the whole figure is the q-scaled one: gray shows the
    bracket power's region, red the points of the threshold quadrant
    outside the q-th ordinary power, green the band between the two
    staircases, and the dots mark the exact lattice points behind the
    gap count.  Without q_mark it is the base picture (q = 1).  Raises
    BadParameters when there would be more than _MAX_GAP_DOTS dots, or
    more than _MAX_GAP_DOTS lines to walk to place them (each gap
    rectangle is walked along its shorter side).  Both caps read the
    base staircase scaled by q, before the far costlier q-th ordinary
    power is built; the ideal then keeps that power.
    """
    if q_mark is not None and q_mark < 1:
        raise BadParameters("q_mark must be a positive integer")
    q = q_mark or 1
    cone = ideal.cone
    coarse = ideal.stair.scale(q)
    threshold = (coarse.min_s, coarse.min_t)
    # the gap dots lie in the cells between the threshold quadrant and the staircase
    cells = _rectangles(Staircase((threshold,)), coarse)
    dots = _count_under(cone, coarse.runs)
    if dots > _MAX_GAP_DOTS:
        raise BadParameters(f"q_mark {q} would draw {dots} gap dots, over {_MAX_GAP_DOTS}")
    lines = sum(min(b - a, hi - lo) for a, b, lo, hi in cells)
    if lines > _MAX_GAP_DOTS:
        raise BadParameters(
            f"q_mark {q} would walk {lines} lines to place its gap dots, over {_MAX_GAP_DOTS}"
        )
    fine = ordinary_power(ideal, q).stair
    step = cone.det_abs
    to_svg = _corner_to_svg(cone)

    pad = 2 * q + step
    s_end = coarse.max_s + pad
    t_end = coarse.max_t + pad

    parts: list[str] = []

    w_points = [(coarse.min_s, t_end)]
    w_points += _staircase_boundary(coarse)
    w_points += [(s_end, coarse.min_t), (s_end, t_end)]
    parts.append(_polygon([to_svg(*c) for c in w_points], "region-w"))

    if len(fine.corners) > 1 or fine.corners[0] != threshold:
        red_points = [threshold] + _staircase_boundary(fine)
        parts.append(_polygon([to_svg(*c) for c in red_points], "region-red"))

    for a, b, low, high in _rectangles(fine, coarse):
        rect = [(a, low), (b, low), (b, high), (a, high)]
        parts.append(_polygon([to_svg(*c) for c in rect], "region-green"))

    stroke = exact_decimal(Fraction(step * q, 6))
    for corner_end in ((0, t_end), (s_end, 0)):
        x, y = to_svg(*corner_end)
        parts.append(
            f'<line class="ray-line" x1="0" y1="0" x2="{x}" y2="{y}" '
            f'stroke="#202020" stroke-width="{stroke}"/>'
        )

    radius = exact_decimal(Fraction(step * q, 4))
    for c in coarse.corners:
        x, y = to_svg(*c)
        parts.append(
            f'<circle class="gen-dot" cx="{x}" cy="{y}" r="{radius}" '
            f'fill="none" stroke="#1d4ed8" stroke-width="{stroke}"/>'
        )

    tau = cone.tau
    for rect in cells:
        for s, t in _gap_dots(rect, tau, step):
            x, y = to_svg(s, t)
            parts.append(
                f'<circle class="gap-dot" cx="{x}" cy="{y}" r="{radius}" fill="#111111"/>'
            )

    span_pts = [to_svg(0, 0), to_svg(s_end, 0), to_svg(0, t_end), to_svg(s_end, t_end)]
    margin = 2 * step * q
    min_x = min(p[0] for p in span_pts) - margin
    max_x = max(p[0] for p in span_pts) + margin
    min_y = min(p[1] for p in span_pts) - margin
    max_y = max(p[1] for p in span_pts) + margin
    vb_w = max_x - min_x
    vb_h = max_y - min_y
    width = 560
    height = max(1, (vb_h * width + vb_w // 2) // vb_w)

    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="{min_x} {min_y} {vb_w} {vb_h}" '
        f'width="{width}" height="{height}" '
        f'data-lattice-scale="{step}" data-power-scale="{q}">'
    )
    return head + "".join(parts) + "</svg>"
