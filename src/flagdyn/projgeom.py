"""Projective points, hyperplanes, affine charts, and the cross-ratio.

Points and hyperplanes are unit vectors / covectors, sign-canonicalized so
equal projective classes have equal coordinates. The cross-ratio follows
the convention [0, inf; 1, z] = z on the projective line under the
kernel identification of covectors with points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegenerateImage, InfiniteCrossRatio, NotInChart
from .linalg import rowdot

CHART_TOL = 1e-12


def _canonical_unit(vec):
    v = np.asarray(vec, dtype=float)
    n = np.linalg.norm(v)
    if n < 1e-300:
        raise DegenerateImage("vector norm underflow")
    v = v / n
    idx = int(np.argmax(np.abs(v)))
    if v[idx] < 0:
        v = -v
    v.setflags(write=False)
    return v


def unit_rows(rows) -> np.ndarray:
    """Rows of a (..., d) array divided by their norms, each row as
    ``ProjPoint`` scales it, so row i is ``ProjPoint(rows[i]).coords`` up to
    sign."""
    rows = np.asarray(rows, dtype=float)
    return rows / np.sqrt(rowdot(rows, rows))[..., None]


@dataclass(frozen=True, eq=False)
class ProjPoint:
    coords: np.ndarray

    def __init__(self, coords):
        object.__setattr__(self, "coords", _canonical_unit(coords))

    @property
    def dim(self):
        return len(self.coords)

    def __eq__(self, other):
        return isinstance(other, ProjPoint) and np.array_equal(self.coords, other.coords)

    def __hash__(self):
        return hash(self.coords.tobytes())

    def __repr__(self):
        return f"ProjPoint({np.round(self.coords, 6).tolist()})"


@dataclass(frozen=True, eq=False)
class ProjHyperplane:
    covector: np.ndarray

    def __init__(self, covector):
        object.__setattr__(self, "covector", _canonical_unit(covector))

    @property
    def dim(self):
        return len(self.covector)

    def __eq__(self, other):
        return isinstance(other, ProjHyperplane) and np.array_equal(
            self.covector, other.covector
        )

    def __hash__(self):
        return hash(self.covector.tobytes())

    def __repr__(self):
        return f"ProjHyperplane({np.round(self.covector, 6).tolist()})"

    @cached_property
    def basis(self) -> np.ndarray:
        """``chart_basis`` of this hyperplane, computed on first use and kept."""
        b = chart_basis(self)
        b.setflags(write=False)
        return b


def act(m, p: ProjPoint) -> ProjPoint:
    img = m.arr @ p.coords
    if np.linalg.norm(img) < 1e-300:
        raise DegenerateImage("projective image underflow")
    return ProjPoint(img)


def act_many(m, coords):
    """Vectorized action on an (n, d) array of unit rows; returns unit rows.

    ``m`` is a Matrix, giving (n, d), or a (k, d, d) stack of matrix
    arrays, giving the (k, n, d) stack of each one's images: one BLAS
    product per matrix either way, so a stacked image has the bits of its
    one-matrix call.
    """
    img = np.matmul(coords, np.swapaxes(getattr(m, "arr", m), -1, -2))
    norms = np.linalg.norm(img, axis=-1, keepdims=True)
    if np.any(norms < 1e-300):
        raise DegenerateImage("projective image underflow")
    return img / norms


def chart_basis(h: ProjHyperplane) -> np.ndarray:
    """Orthonormal completion of the chart covector, deterministic.

    Gram-Schmidt over the standard basis in index order, skipping the
    basis vector most aligned with the covector. Rows are the d-1
    completion vectors. Charts read it through ``ProjHyperplane.basis``,
    which runs this once per hyperplane.
    """
    d = h.dim
    skip = int(np.argmax(np.abs(h.covector)))
    rows = [h.covector]
    for i in range(d):
        if i == skip:
            continue
        v = np.zeros(d)
        v[i] = 1.0
        for r in rows:
            v = v - (r @ v) * r
        n = np.linalg.norm(v)
        v = v / n
        rows.append(v)
    return np.array(rows[1:])


def in_chart(h: ProjHyperplane, rows) -> np.ndarray:
    """Mask of the rows of a (d,) or (n, d) array that lie in the chart of h.

    A row is incident to h, and so outside the chart, when |h . p| <=
    CHART_TOL for its unit representative p.
    """
    rows = np.asarray(rows, dtype=float)
    return np.abs(rows @ h.covector) > CHART_TOL * np.linalg.norm(rows, axis=-1)


def affine_chart(h: ProjHyperplane, p) -> np.ndarray:
    """Coordinates of points in the chart of points off h.

    ``p`` is a ProjPoint or a (d,) row, giving d-1 coordinates, or an
    (n, d) array of rows, giving an (n, d-1) array. Each lift is scaled so
    its covector component is 1; the coefficients are taken against the
    orthonormal completion ``h.basis``. Raises NotInChart if any point is
    incident to h (see ``in_chart``).
    """
    rows = np.asarray(p.coords if isinstance(p, ProjPoint) else p, dtype=float)
    if not np.all(in_chart(h, rows)):
        raise NotInChart("point incident to the chart hyperplane")
    lifts = rows / (rows @ h.covector)[..., None]
    return lifts @ h.basis.T


def chart_rows(h: ProjHyperplane, rows) -> np.ndarray:
    """``affine_chart`` of an (n, d) array, row by row: each row takes the
    kernels of a one-point call, so its coordinates do not depend on the
    rows beside it. Rows must lie in the chart."""
    rows = np.asarray(rows, dtype=float)
    lifts = rows / rowdot(rows, h.covector)[:, None]
    return np.matmul(lifts[:, None, :], h.basis.T)[:, 0, :]


def chart_point(h: ProjHyperplane, coords):
    """Inverse of ``affine_chart``.

    A (d-1,) coordinate vector gives a ProjPoint; an (n, d-1) array gives
    the (n, d) array of unit rows.
    """
    coords = np.asarray(coords, dtype=float)
    lifts = h.covector + coords @ h.basis
    if coords.ndim == 1:
        return ProjPoint(lifts)
    return lifts / np.linalg.norm(lifts, axis=1, keepdims=True)


def cross_ratio(
    w1: ProjHyperplane, w2: ProjHyperplane, z1: ProjPoint, z2: ProjPoint
) -> float:
    """[w1, w2; z1, z2] = w1(z2) w2(z1) / (w1(z1) w2(z2)), lift-independent."""
    a = float(w1.covector @ z2.coords)
    b = float(w2.covector @ z1.coords)
    c = float(w1.covector @ z1.coords)
    d = float(w2.covector @ z2.coords)
    if abs(c) <= 1e-14 or abs(d) <= 1e-14:
        raise InfiniteCrossRatio("z1 or z2 lies on a reference hyperplane")
    return (a * b) / (c * d)


def fubini_study(p: ProjPoint, q: ProjPoint) -> float:
    """Angle metric on projective space, stable at both small and right angles."""
    c = abs(float(p.coords @ q.coords))
    rej = q.coords - (p.coords @ q.coords) * p.coords
    s = float(np.linalg.norm(rej))
    return math.atan2(s, c)


def fubini_study_many(pts_a, pts_b, *, farthest=False, axis=None):
    """Smallest FS distance (largest with ``farthest``) between the rows of
    (n, d) and (m, d) unit-row arrays: over all pairs, or per row of
    ``pts_a`` with ``axis=1``.

    The float kernel atan2(sqrt(max(1 - c^2, 0)), c) is non-increasing in
    c = |dot|, so it runs on the reduced |dot| and gives the bits of the
    same reduction over all pairwise distances. The largest |dot| is
    max(max dot, -min dot), read without an |dot| table. A per-row
    reduction runs down the columns of the transposed table ``pts_b @
    pts_a.T``, which numpy reduces much faster than along short rows; that
    BLAS product can round a dot 1 or 2 ulp away from ``pts_a @ pts_b.T``
    on some row counts.
    """
    if axis == 1:
        dots, axis = pts_b @ pts_a.T, 0
    else:
        dots = pts_a @ pts_b.T
    if farthest:
        c = np.abs(dots).min(axis=axis)
    else:
        c = np.maximum(dots.max(axis=axis), -dots.min(axis=axis))
    c = np.clip(c, 0.0, 1.0)
    return np.arctan2(np.sqrt(np.clip(1.0 - c * c, 0.0, None)), c)
