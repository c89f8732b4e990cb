"""Exact arc arithmetic on the projective line.

A point of RP^1 is an angle theta in [0, pi) for the direction
(cos theta, sin theta). Arcs are (center, radius) pairs in this angle
metric, which coincides with the Fubini-Study metric in dimension 2.
Projective 2x2 matrices act by Mobius maps; images of arcs are arcs and
are computed from endpoint images, so containment tests and margins on
RP^1 are exact up to roundoff (no sampling).

The array primitives: ``angles``, ``angle_dists``, ``arcs_between``
(arcs from endpoints, with the one rule for the side) and ``mobius_arcs``
(image arcs); and ``sweep``, the one circular gap scan, over the sorted
pieces of ``arc_pieces`` (kept sorted across insertions by
``insert_piece``), which ``cover_circle`` runs on (centers, radii) arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

HALF_TURN = math.pi


def angle_of(vec) -> float:
    """Angle in [0, pi) of a projective point [v0 : v1]."""
    return math.atan2(vec[1], vec[0]) % HALF_TURN


def vec_of(theta: float) -> np.ndarray:
    return np.array([math.cos(theta), math.sin(theta)])


def angle_dist(a: float, b: float) -> float:
    """Distance on RP^1 = circle of circumference pi."""
    d = abs(a - b) % HALF_TURN
    return min(d, HALF_TURN - d)


def mobius_angle(m, theta: float) -> float:
    """Image angle of a projective point under a 2x2 matrix."""
    return angle_of(m @ vec_of(theta))


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


def check_radii(radii):
    """Raise ``Arc``'s error for the first of ``radii`` that no arc has."""
    bad = np.flatnonzero(~((radii >= 0) & (radii < HALF_TURN / 2)))
    if bad.size:
        Arc(0.0, float(radii[bad[0]]))


def angles(vecs) -> np.ndarray:
    """Angles in [0, pi) of the projective points in the last axis of ``vecs``."""
    return np.arctan2(vecs[..., 1], vecs[..., 0]) % HALF_TURN


def angle_dists(a, b) -> np.ndarray:
    """Elementwise distance on RP^1 of broadcast angle arrays."""
    d = np.abs(a - b) % HALF_TURN
    return np.minimum(d, HALF_TURN - d)


def arcs_between(a, b, through=None):
    """Closed arcs (centers, radii) with endpoints a_i, b_i: the shorter, or
    with ``through`` given, the one containing through_i (within 1e-12)."""
    d = (b - a) % HALF_TURN
    wide = d > HALF_TURN / 2
    d = np.where(wide, HALF_TURN - d, d)
    centers = (np.where(wide, b, a) + d / 2) % HALF_TURN
    radii = d / 2
    if through is None:
        return centers, radii
    other = angle_dists(through, centers) > radii + 1e-12
    return (np.where(other, (centers + HALF_TURN / 2) % HALF_TURN, centers),
            np.where(other, HALF_TURN / 2 - radii, radii))


def mobius_arcs(mats, centers, radii):
    """Image arcs (centers, radii) of B(centers_i, radii_i) under the 2x2
    mats_i: the endpoint images bound it, the center image picks the side."""
    centers = np.broadcast_to(centers, mats.shape[:1])
    ends = [angles(np.einsum("nij,nj->ni", mats, np.stack([np.cos(t), np.sin(t)], axis=1)))
            for t in (centers - radii, centers + radii, centers)]
    return arcs_between(*ends)


def arc_pieces(centers, radii):
    """Pieces (lo, length) = ((c - r) mod pi, 2r) of the closed arcs B(c_i, r_i),
    sorted in (lo, length, i) order: the two arrays and the sort order."""
    centers, radii = np.asarray(centers, dtype=float), np.asarray(radii, dtype=float)
    lo, length = (centers - radii) % HALF_TURN, 2 * radii
    order = np.lexsort((length, lo))
    return lo[order], length[order], order


def insert_piece(lo, length, arc: Arc):
    """Sorted pieces ``lo``, ``length`` with ``arc``'s piece inserted at its
    searchsorted position, so they stay in (lo, length) order."""
    a, n = (arc.center - arc.radius) % HALF_TURN, 2 * arc.radius
    i, j = np.searchsorted(lo, a, "left"), np.searchsorted(lo, a, "right")
    k = i + np.searchsorted(length[i:j], n)
    return np.insert(lo, k, a), np.insert(length, k, n)


def sweep(lo, length, tol: float = 1e-12):
    """Uncovered intervals (lo, hi) of RP^1 left by sorted pieces, as two
    arrays in sweep order.

    The pieces are swept from the first left endpoint ``start`` to ``start
    + pi`` (so hi may exceed pi); pieces running past pi also cover the
    start. Gaps no wider than ``tol`` count as covered; no pieces leave
    the gap (0, pi).
    """
    if not len(lo):
        return np.array([0.0]), np.array([HALF_TURN])
    # the sweep position before each piece, and before the end start + pi:
    # the farthest end of the pieces before it, or of the pieces past pi
    reach = np.maximum.accumulate(lo + length)
    start = lo[0]
    pos = np.maximum(max(start, reach[-1] - HALF_TURN), np.concatenate(([start], reach)))
    ahead = np.append(lo, start + HALF_TURN)
    gap = ahead > pos + tol
    return pos[gap], ahead[gap]


def cover_circle(centers, radii):
    """Greedy minimal subcover of RP^1 by the closed arcs B(centers_i,
    radii_i) (Lee and Lee, IPL 1984).

    Returns distinct indices of a covering subfamily, or None if the family
    leaves a gap. Starts on the arc reaching farthest past angle 0 (or past
    the first left endpoint if no arc wraps), then repeatedly takes the arc
    extending coverage farthest.
    """
    lo, length, order = arc_pieces(centers, radii)
    tol = 1e-12  # the default gap tolerance of sweep()
    if len(sweep(lo, length, tol)[0]):
        return None
    pieces = list(zip(lo.tolist(), length.tolist(), order.tolist()))
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
