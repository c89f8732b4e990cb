"""Exact arc arithmetic on the projective line.

A point of RP^1 is an angle theta in [0, pi) for the direction
(cos theta, sin theta). Arcs are (center, radius) pairs in this angle
metric, which coincides with the Fubini-Study metric in dimension 2.
Projective 2x2 matrices act by Mobius maps; images of arcs are arcs and
are computed from endpoint images, so containment tests and margins on
RP^1 are exact up to roundoff (no sampling).

The two primitives: ``arc_between`` (an arc from its endpoints, with
the choice of side) and ``uncovered`` (the circular sweep for gaps,
also behind ``cover_circle``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

HALF_TURN = math.pi


def angle_of(vec) -> float:
    """Angle in [0, pi) of a projective point [v0 : v1]."""
    v = np.asarray(vec, dtype=float)
    theta = math.atan2(v[1], v[0])
    return theta % HALF_TURN


def vec_of(theta: float) -> np.ndarray:
    return np.array([math.cos(theta), math.sin(theta)])


def angle_dist(a: float, b: float) -> float:
    """Distance on RP^1 = circle of circumference pi."""
    d = abs(a - b) % HALF_TURN
    return min(d, HALF_TURN - d)


def mobius_angle(m, theta: float) -> float:
    """Image angle of a projective point under a 2x2 matrix."""
    v = m @ vec_of(theta)
    return angle_of(v)


@dataclass(frozen=True)
class Arc:
    """Closed arc of RP^1: points within ``radius`` of ``center`` (angles)."""

    center: float
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", self.center % HALF_TURN)
        if not 0 <= self.radius < HALF_TURN / 2:
            raise ValueError(f"arc radius {self.radius} out of (0, pi/2)")

    def contains_angle(self, theta: float, slack: float = 0.0) -> bool:
        return angle_dist(theta, self.center) <= self.radius + slack

    def endpoints(self):
        return (self.center - self.radius) % HALF_TURN, (
            self.center + self.radius
        ) % HALF_TURN

    def complement(self) -> "Arc":
        """Closure of the complementary arc (same endpoints, other side)."""
        return Arc(self.center + HALF_TURN / 2, HALF_TURN / 2 - self.radius)

    def expand(self, eps: float) -> "Arc":
        r = self.radius + eps
        if r >= HALF_TURN / 2:
            raise ValueError("expanded arc covers RP^1")
        return Arc(self.center, r)

    def margin_of_arc(self, other: "Arc") -> float:
        """min over points of ``other`` of this arc's containment margin."""
        return self.radius - (angle_dist(self.center, other.center) + other.radius)

    def intersects(self, other: "Arc") -> bool:
        return angle_dist(self.center, other.center) <= self.radius + other.radius

    def gap_to(self, other: "Arc") -> float:
        """FS gap between the closed arcs (0 if they meet)."""
        return max(0.0, angle_dist(self.center, other.center) - self.radius - other.radius)


def arc_between(a: float, b: float, through: float | None = None) -> Arc:
    """The shorter closed arc with endpoints a, b, or with ``through``
    given, the one of the two containing it (within 1e-12)."""
    d = (b - a) % HALF_TURN
    if d > HALF_TURN / 2:
        a, d = b, HALF_TURN - d
    arc = Arc(a + d / 2, d / 2)
    if through is None or arc.contains_angle(through, slack=1e-12):
        return arc
    return arc.complement()


def mobius_arc(m, arc: Arc) -> Arc:
    """Image arc under a projective 2x2 matrix.

    Mobius maps send arcs to arcs; the image is reconstructed from the
    images of the endpoints and of the center (the center image selects
    which of the two complementary arcs is the image).
    """
    lo, hi = arc.endpoints()
    return arc_between(mobius_angle(m, lo), mobius_angle(m, hi),
                       through=mobius_angle(m, arc.center))


def uncovered(arcs, tol: float = 1e-12):
    """Uncovered intervals (lo, hi) of RP^1 left by closed arcs, in sweep order.

    Pieces ((c - r) mod pi, 2r) are swept from the first left endpoint
    ``start`` to ``start + pi`` (so hi may exceed pi); pieces running past
    pi also cover the start. Gaps no wider than ``tol`` count as covered;
    no arcs leave the gap (0, pi).
    """
    pieces = sorted(((a.center - a.radius) % HALF_TURN, 2 * a.radius) for a in arcs)
    if not pieces:
        return [(0.0, HALF_TURN)]
    start = pieces[0][0]
    pos = max(start, max(lo + length for lo, length in pieces) - HALF_TURN)
    gaps = []
    for lo, length in pieces + [(start + HALF_TURN, 0.0)]:
        if lo > pos + tol:
            gaps.append((pos, lo))
        pos = max(pos, lo + length)
    return gaps


def cover_circle(arcs):
    """Greedy minimal subcover of RP^1 by closed arcs (Lee and Lee, IPL 1984).

    Returns distinct indices of a covering subfamily, or None if the family
    leaves a gap. Starts on the arc reaching farthest past angle 0 (or past
    the first left endpoint if no arc wraps), then repeatedly takes the arc
    extending coverage farthest.
    """
    if uncovered(arcs):
        return None
    tol = 1e-12  # the default gap tolerance of uncovered()
    pieces = sorted(
        ((a.center - a.radius) % HALF_TURN, 2 * a.radius, i) for i, a in enumerate(arcs)
    )
    wrapping = [(lo + length - HALF_TURN, i, lo) for lo, length, i in pieces
                if lo + length >= HALF_TURN]
    if wrapping:
        # coverage is closed when it comes back to the start arc's left end
        covered_to, first, end = max(wrapping)
    else:
        start = pieces[0][0]
        covered_to, first = max((lo + length, i) for lo, length, i in pieces
                                if lo <= start + tol)
        end = start + HALF_TURN
    chosen = [first]
    best = (covered_to, first)
    j = 0
    # the family covers, so each step strictly extends coverage
    while covered_to + tol < end:
        while j < len(pieces) and pieces[j][0] <= covered_to + tol:
            lo, length, i = pieces[j]
            best = max(best, (lo + length, i))
            j += 1
        covered_to, i = best
        chosen.append(i)
    return chosen
