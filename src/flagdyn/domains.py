"""Proper domains, their dual covectors, and the cross-ratio metric.

A proper domain is an open set whose closure lies in one affine chart.
For balls and convex polytopes in a chart the metric is computed exactly
from the two boundary points of the line section through the argument
pair (the supremum over dual hyperplane pairs is attained at supporting
hyperplanes of the section). For sampled unions only a lower bound over
sampled dual pairs is available and is flagged as such; one code path
computes it, over the pairs of ``DUAL_BUDGET`` dual covectors drawn at
seed 0.

The metric works on arrays: ``zimmer_metrics`` takes two (n, d) arrays of
points and the domains' ``chords`` take stacked lines, each row with the
kernels of a one-row call; ``zimmer_metric`` is the one-row call.
``contraction_factor`` rates its sampled pairs and its descent steps
with one batched inner/outer ratio kernel. On the projective line the
contraction constant of nested intervals is closed-form
(``rp1_contraction_lambda``).
"""

from __future__ import annotations

import math

import numpy as np

from . import sampling
from .circle import HALF_TURN, Arc, arcs_between, vec_of
from .errors import BadOrder, NotInDomain, NotStrictlyNested
from .linalg import mathmap, rowdot
from .projgeom import (
    ProjHyperplane,
    ProjPoint,
    affine_chart,
    chart_point,
    chart_rows,
    fubini_study_many,
    in_chart,
)

NESTING_MARGIN_DEFAULT = 1e-3
# dual covectors drawn for the sampled metric of a union
DUAL_BUDGET = 4096


class ProperDomain:
    """What every domain kind provides: a ``chart`` and ``center``, containment,
    samplers (the counts asked for are requests), outward normals, dual
    covectors, and line sections where ``exact_metric`` is set."""

    exact_metric = False
    # an exact arc of RP^1, with ``arc()``: a chart ball of dimension 2
    is_arc = False

    @property
    def dim(self):
        return self.chart.dim

    def contains_coords(self, coords, slack=0.0):
        """Vectorized chart-coordinate containment for an (n, k) array."""
        raise NotImplementedError

    def contains_points(self, pts, slack=0.0) -> np.ndarray:
        """Containment mask of an (..., d) array of ambient rows, one test
        over all of them.

        Rows incident to the chart hyperplane lie outside every domain; the
        others are mapped as ``affine_chart`` maps them.
        """
        h = self.chart
        rows = pts.reshape(-1, pts.shape[-1])
        inside = in_chart(h, rows)
        kept = rows[inside]
        inside[inside] = self.contains_coords((kept / (kept @ h.covector)[:, None]) @ h.basis.T,
                                              slack)
        return inside.reshape(pts.shape[:-1])

    def boundary_coords(self, n, seed=0):
        raise NotImplementedError

    def interior_coords(self, n, seed=0):
        raise NotImplementedError

    def boundary_points(self, n, seed=0):
        return chart_point(self.chart, self.boundary_coords(n, seed))

    def interior_points(self, n, seed=0):
        return chart_point(self.chart, self.interior_coords(n, seed))

    def dual_covectors(self, n, seed=0):
        """Up to n unit covectors of hyperplanes missing the closure."""
        raise NotImplementedError

    def center_point(self) -> ProjPoint:
        return chart_point(self.chart, self.center)

    def outward_normals(self, coords):
        """Unit outward chart normals at an (n, k) array of boundary coordinates."""
        raise NotImplementedError

    def chords(self, coords, directions):
        """Chord parameters (s_lo, s_hi) of the lines p + s*dir, one per row of
        two (n, k) arrays; NaN for a row without a chord."""
        raise NotImplementedError


class ChartBall(ProperDomain):
    """Open metric ball in affine chart coordinates."""

    exact_metric = True

    def __init__(self, chart: ProjHyperplane, center, radius: float):
        if radius <= 0:
            raise ValueError("radius must be positive")
        self.chart = chart
        self.center = np.asarray(center, dtype=float)
        if self.center.shape != (chart.dim - 1,):
            raise ValueError("center has wrong chart dimension")
        self.radius = float(radius)
        self.is_arc = chart.dim == 2
        self._arc = None

    def contains_coords(self, coords, slack=0.0):
        d = np.linalg.norm(coords - self.center[None, :], axis=1)
        return d < self.radius + slack

    def boundary_coords(self, n, seed=0):
        k = self.dim - 1
        if k == 1:
            return self.center[None, :] + self.radius * np.array([[-1.0], [1.0]])
        dirs = sampling.sphere_points(n, k, seed)
        return self.center[None, :] + self.radius * dirs

    def interior_coords(self, n, seed=0):
        k = self.dim - 1
        pts = sampling.ball_points(n, k, seed + 1)
        return self.center[None, :] + 0.999 * self.radius * pts

    def chords(self, coords, directions):
        # roots of |p + s d - center|^2 = radius^2; NaN for a degenerate section
        p = coords - self.center
        a = rowdot(directions, directions)
        b = 2.0 * rowdot(p, directions)
        disc = b * b - 4 * a * (rowdot(p, p) - self.radius**2)
        disc[(a == 0.0) | ~(disc > 0.0)] = np.nan
        rt = np.sqrt(disc)
        return (-b - rt) / (2 * a), (-b + rt) / (2 * a)

    def outward_normals(self, coords):
        n = coords - self.center[None, :]
        return n / np.linalg.norm(n, axis=1, keepdims=True)

    def arc(self) -> Arc:
        """Exact arc representation (projective line domains only), built
        once: the one-ball call of ``chart_ball_arcs``."""
        return chart_ball_arcs([self])[0]

    def dual_covectors(self, n, seed=0):
        h = self.chart
        dirs = sampling.sphere_points(max(4, n // 12), self.dim - 1, seed + 3)
        offsets = self.radius * np.concatenate(
            [2.0 ** (-3 * np.arange(1, 9)), np.array([0.5, 1.0, 4.0])]
        )
        # supporting hyperplane in each direction, pushed out by each offset
        covs = [u @ h.basis - (float(u @ self.center) + self.radius + s) * h.covector
                for u in dirs for s in offsets]
        arr = np.array(([h.covector] + covs)[:n])
        return arr / np.linalg.norm(arr, axis=1, keepdims=True)


def chart_ball_arcs(balls):
    """Exact arc of each d = 2 ball, formed together and kept on the balls
    that had none.

    The arc runs between the angles of the chart points center -+ radius,
    on the side holding the center's. The chart bases, these points and
    their angles are stacked rows over all balls, each row formed with
    one-row kernels (``rowdot`` for the dots of ``chart_basis`` and
    ``chart_point``, ``math.atan2`` as in ``angle_of``), so a ball's arc
    does not depend on the other balls of the call.
    """
    todo = [b for b in balls if b._arc is None]
    if todo:
        if any(b.dim != 2 for b in todo):
            raise ValueError("arc() requires dimension 2")
        cov = np.array([b.chart.covector for b in todo])
        # chart_basis: e_i minus its projection on the covector, normalized,
        # i the index other than the covector's largest entry
        basis = np.eye(2)[1 - np.argmax(np.abs(cov), axis=1)]
        basis -= rowdot(cov, basis)[:, None] * cov
        basis /= np.sqrt(rowdot(basis, basis))[:, None]
        center, radius = np.array([(b.center[0], b.radius) for b in todo]).T
        # chart_point of each ball's lo, hi, mid: unit lifts, sign-canonical
        lifts = cov + np.array([center - radius, center + radius, center])[..., None] * basis
        lifts /= np.sqrt(rowdot(lifts, lifts))[..., None]
        x, y = lifts[..., 0], lifts[..., 1]
        flip = np.where(np.abs(x) >= np.abs(y), x, y) < 0
        lifts[flip] *= -1
        lo, hi, mid = (np.array([math.atan2(v, u) % HALF_TURN for u, v in rows])
                       for rows in lifts.tolist())
        for b, c, r in zip(todo, *(a.tolist() for a in arcs_between(lo, hi, mid))):
            b._arc = Arc(c, r)
    return [b._arc for b in balls]


def arc_ball(center_angle: float, radius_angle: float) -> ChartBall:
    """FS ball on the projective line as an exact chart ball.

    The chart covector is the center direction itself (its kernel is the
    antipodal point), so the chart coordinate of a point at angle offset
    phi from the center is tan(phi).
    """
    if not 0 < radius_angle < math.pi / 2:
        raise ValueError("radius_angle must lie in (0, pi/2)")
    return ChartBall(ProjHyperplane(vec_of(center_angle)), [0.0], math.tan(radius_angle))


class ConvexPolytope(ProperDomain):
    """Full-dimensional convex polytope in chart coordinates (vertex list)."""

    exact_metric = True

    def __init__(self, chart: ProjHyperplane, vertices):
        self.chart = chart
        verts = np.asarray(vertices, dtype=float)
        k = chart.dim - 1
        if verts.ndim != 2 or verts.shape[1] != k:
            raise ValueError("vertex array has wrong chart dimension")
        if verts.shape[0] < chart.dim:
            raise ValueError("a full-dimensional polytope needs at least d vertices")
        if k == 1:
            lo, hi = float(np.min(verts)), float(np.max(verts))
            if hi - lo <= 0:
                raise ValueError("degenerate interval")
            self.vertices = np.array([[lo], [hi]])
            self.normals = np.array([[-1.0], [1.0]])
            self.offsets = np.array([-lo, hi])
            self._facets = [np.array([[lo]]), np.array([[hi]])]
        else:
            from scipy.spatial import ConvexHull, QhullError

            try:
                hull = ConvexHull(verts)
            except QhullError as exc:  # vertices that lie in a hyperplane
                raise ValueError("polytope vertices span no full-dimensional hull") from exc
            self.vertices = verts[hull.vertices]
            # hull equations: A x + b <= 0 inside
            self.normals = hull.equations[:, :-1]
            self.offsets = -hull.equations[:, -1]
            self._facets = [verts[s] for s in hull.simplices]
        self.center = np.mean(self.vertices, axis=0)

    def contains_coords(self, coords, slack=0.0):
        vals = coords @ self.normals.T - self.offsets[None, :]
        return np.all(vals < slack, axis=1)

    def boundary_coords(self, n, seed=0):
        measures = []
        for f in self._facets:
            if f.shape[0] == 1:
                measures.append(1.0)
            else:
                diffs = f[1:] - f[0]
                g = diffs @ diffs.T
                measures.append(math.sqrt(max(np.linalg.det(g), 0.0)))
        measures = np.array(measures)
        weights = measures / np.sum(measures)
        counts = np.maximum(1, np.round(weights * n).astype(int))
        out = []
        for i, f in enumerate(self._facets):
            if f.shape[0] == 1:
                out.append(f)
                continue
            w = sampling.simplex_weights(counts[i], f.shape[0], seed + i)
            out.append(w @ f)
        return np.vstack(out)

    def interior_coords(self, n, seed=0):
        m = self.vertices.shape[0]
        w = sampling.simplex_weights(n, m, seed + 101)
        pts = w @ self.vertices
        # mix toward the centroid so samples stay strictly interior
        return 0.999 * pts + 0.001 * self.center[None, :]

    def chords(self, coords, directions):
        # facet scan: each facet not parallel to the line bounds s on one
        # side; NaN when the line misses a parallel facet's slab or the base
        # point is not inside the chord
        num = self.offsets - rowdot(coords[:, None, :], self.normals)
        den = rowdot(directions[:, None, :], self.normals)
        parallel = abs(den) < 1e-15
        s = num / np.where(parallel, 1.0, den)
        hi = np.where(den >= 1e-15, s, math.inf).min(axis=1)
        lo = np.where(den <= -1e-15, s, -math.inf).max(axis=1)
        bad = (parallel & (num <= 0)).any(axis=1) | ~((lo < 0.0) & (0.0 < hi))
        lo[bad] = hi[bad] = np.nan
        return lo, hi

    def outward_normals(self, coords):
        vals = coords @ self.normals.T - self.offsets[None, :]
        idx = np.argmax(vals, axis=1)
        nrm = self.normals[idx]
        return nrm / np.linalg.norm(nrm, axis=1, keepdims=True)

    def facet_functionals(self):
        """Homogeneous covectors of facet hyperplanes, negative on the interior."""
        h = self.chart
        covs = self.normals @ h.basis - self.offsets[:, None] * h.covector[None, :]
        return covs / np.linalg.norm(covs, axis=1, keepdims=True)

    def dual_covectors(self, n, seed=0):
        # dual polytope V-representation: facet functionals normalized against
        # an interior point span the separating hyperplanes by positive combos
        covs = self.facet_functionals()
        x0 = self.center_point().coords
        vals = covs @ x0
        covs = covs * np.where(vals > 0, -1.0, 1.0)[:, None]
        covs = covs / np.abs(covs @ x0)[:, None]
        m = covs.shape[0]
        mean = np.mean(covs, axis=0)
        out = [self.chart.covector]
        # near-extreme schedule: approach each facet geometrically
        for j in range(1, 9):
            t = 2.0 ** (-3 * j)
            for f in range(m):
                out.append((1 - t) * covs[f] + t * mean)
        k = max(0, n - len(out))
        if k:
            w = sampling.simplex_weights(k, m, seed + 7)
            out.extend(list(w @ covs))
        arr = np.array(out[:n])
        return arr / np.linalg.norm(arr, axis=1, keepdims=True)


class SampledSet(ProperDomain):
    """Finite union of domains of any kind sharing one chart; sampled metric."""

    def __init__(self, members):
        if not members:
            raise ValueError("empty union")
        self.members = list(members)
        self.chart = members[0].chart
        if any(m.chart != self.chart for m in members):
            raise ValueError("members must share one chart")
        self._duals = {}  # (n, seed) -> dual covectors, read-only

    def contains_coords(self, coords, slack=0.0):
        out = np.zeros(coords.shape[0], dtype=bool)
        for m in self.members:
            out |= m.contains_coords(coords, slack)
        return out

    def boundary_coords(self, n, seed=0):
        per = max(2, n // len(self.members))
        chunks = []
        for i, m in enumerate(self.members):
            pts = m.boundary_coords(per, seed + i)
            keep = np.ones(pts.shape[0], dtype=bool)
            for j, other in enumerate(self.members):
                if j != i:
                    keep &= ~other.contains_coords(pts, slack=-1e-12)
            chunks.append(pts[keep])
        return np.vstack(chunks)

    def interior_coords(self, n, seed=0):
        per = max(2, n // len(self.members))
        return np.vstack([m.interior_coords(per, seed + i) for i, m in enumerate(self.members)])

    @property
    def center(self):
        return self.members[0].center

    def outward_normals(self, coords):
        """Each row's normal in the first member on whose boundary it lies
        (within 1e-9), else in the first member."""
        owner = np.argmax([m.contains_coords(coords, 1e-9) & ~m.contains_coords(coords, -1e-9)
                           for m in self.members], axis=0)
        out = np.empty(coords.shape)
        for i, m in enumerate(self.members):
            out[owner == i] = m.outward_normals(coords[owner == i])
        return out

    def dual_covectors(self, n, seed=0):
        """Drawn once per (n, seed): the draw depends on nothing else, and
        the metric asks for the same covectors at every call."""
        if (n, seed) in self._duals:
            return self._duals[n, seed]
        cands = np.vstack([m.dual_covectors(n, seed + 13 * i) for i, m in enumerate(self.members)])
        closure = np.vstack(
            [self.boundary_points(max(64, 8 * len(self.members)), seed),
             self.interior_points(64, seed)]
        )
        vals = cands @ closure.T
        sep = np.all(vals > 1e-9, axis=1) | np.all(vals < -1e-9, axis=1)
        kept = cands[sep][:n]
        if kept.shape[0] == 0:
            raise NotInDomain("no separating hyperplane found for the union")
        kept.flags.writeable = False
        self._duals[n, seed] = kept
        return kept


# ---------------------------------------------------------------------------
# metric evaluation


def _log_cr_from_section(s_lo, s_hi):
    """|log cross-ratio| of (s_lo, s_hi; 0, 1) for s_lo < 0 < 1 < s_hi,
    elementwise on arrays.

    Stable when the chord is huge compared to the pair separation: uses
    the exact identity CR = 1 + (a-b)(y-x)/((x-a)(y-b)).
    """
    t = (s_lo - s_hi) * (1.0 - 0.0) / ((0.0 - s_lo) * (1.0 - s_hi))
    return abs(mathmap(math.log1p, t))


def zimmer_metric(omega: ProperDomain, x: ProjPoint, y: ProjPoint) -> float:
    """Cross-ratio metric on a proper domain: ``zimmer_metrics`` of one pair.

    Raises NotInDomain where that gives inf.
    """
    val = float(zimmer_metrics(omega, x.coords[None, :], y.coords[None, :])[0])
    if val == math.inf:
        raise NotInDomain("zimmer_metric arguments must lie in the domain")
    return val


def zimmer_metrics(omega: ProperDomain, xs, ys) -> np.ndarray:
    """Cross-ratio metric of each row pair of two (n, d) arrays of unit rows.

    Exact (line-section) values for balls and polytopes; sampled lower
    bounds over the pairs of ``DUAL_BUDGET`` dual covectors for sampled
    unions (``omega.exact_metric`` distinguishes the two). A pair with a
    point outside the domain, or without a line section through it, gives
    inf; a coincident pair gives 0. Each row is computed with the kernels
    of a one-row call, so its value does not depend on the rows beside it.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    h = omega.chart
    out = np.full(len(xs), math.inf)
    rows = np.flatnonzero(in_chart(h, xs) & in_chart(h, ys))
    xc, yc = chart_rows(h, xs[rows]), chart_rows(h, ys[rows])
    inside = omega.contains_coords(xc, 1e-12) & omega.contains_coords(yc, 1e-12)
    rows, xc, yc = rows[inside], xc[inside], yc[inside]
    same = np.linalg.norm(xc - yc, axis=1) < 1e-12
    out[rows[same]] = 0.0
    rows, xc, yc = rows[~same], xc[~same], yc[~same]
    if not len(rows):
        return out
    if omega.exact_metric:
        # s = 0 and s = 1 are the two points; the pair must lie inside the chord
        s_lo, s_hi = omega.chords(xc, yc - xc)
        ok = (s_lo < 0.0) & (1.0 < s_hi)
        out[rows[ok]] = _log_cr_from_section(s_lo[ok], s_hi[ok])
        return out
    try:
        covs = omega.dual_covectors(DUAL_BUDGET)
    except NotInDomain:  # no separating hyperplane: no finite lower bound
        return out
    out[rows] = _sampled_metrics(covs, xs[rows], ys[rows])
    return out


def _sampled_metrics(covs, xs, ys):
    """sup over the covectors' pairs of |log cross-ratio|, per row pair.

    The supremum over pairs decomposes as sup_w log|w(y)/w(x)| plus
    sup_w log|w(x)/w(y)|. Rows go in blocks of about 2^18 covector values.
    """
    step = max(1, 2**18 // len(covs))
    out = []
    for i in range(0, len(xs), step):
        vx = np.matmul(covs, xs[i:i + step, :, None])[..., 0]
        vy = np.matmul(covs, ys[i:i + step, :, None])[..., 0]
        ok = (np.abs(vx) > 1e-300) & (np.abs(vy) > 1e-300)
        with np.errstate(divide="ignore"):
            ratios = np.log(np.abs(vy)) - np.log(np.abs(vx))
        out.append(np.max(np.where(ok, ratios, -math.inf), axis=1)
                   + np.max(np.where(ok, -ratios, -math.inf), axis=1))
    return np.concatenate(out)


def finsler_factors(omega: ProperDomain, coords, directions) -> np.ndarray:
    """Infinitesimal metric factor at each row of ``coords`` along the unit
    direction of the matching row; NaN for a row without a chord."""
    d = directions / np.sqrt(rowdot(directions, directions))[:, None]
    s_lo, s_hi = omega.chords(coords, d)
    return 1.0 / (-s_lo) + 1.0 / s_hi


def nesting_margin(inner: ProperDomain, outer: ProperDomain, n: int = 128, seed: int = 0) -> float:
    """min FS distance from sampled closure of inner to sampled boundary of outer.

    Also requires every inner closure sample to satisfy the outer oracle.
    """
    ib = inner.boundary_points(n, seed)
    if not np.all(outer.contains_points(ib)):
        return -1.0
    ob = outer.boundary_points(max(n, 256), seed + 1)
    return float(fubini_study_many(ib, ob))


def contraction_factor(inner: ProperDomain, outer: ProperDomain, budget: int = 512,
                       seed: int = 0) -> float:
    """Estimated lower contraction ratio inf C_inner(x,y) / C_outer(x,y) > 1.

    Requires the closure of ``inner`` strictly inside ``outer``. Finite
    pairs are sampled in the inner domain; coincident limits contribute
    their Finsler ratio, minimized over an anchor/direction grid with
    local refinement around the incumbent. Both domains need line sections
    (``exact_metric``): a sampled union raises NotInDomain.
    """
    if not (inner.exact_metric and outer.exact_metric):
        raise NotInDomain("contraction_factor needs the line sections of both domains; "
                          "a sampled union has none")
    if nesting_margin(inner, outer, seed=seed) < NESTING_MARGIN_DEFAULT:
        raise NotStrictlyNested("inner closure not inside outer with required margin")
    pts = np.vstack(
        [inner.interior_coords(budget // 2, seed), inner.boundary_coords(budget // 4, seed)]
    )
    # pull boundary-adjacent samples strictly inside
    pts = 0.995 * pts + 0.005 * np.asarray(inner.center)[None, :]
    m = pts.shape[0]
    idx = sampling.kronecker(budget, 2, seed + 17)

    def to_outer(coords):
        """Outer chart coordinates of an (n, k) array of inner chart coordinates."""
        return affine_chart(outer.chart, chart_point(inner.chart, coords))

    def ratios(a, b):
        """C_inner / C_outer of each row pair of two (n, k) arrays of inner
        chart coordinates: the Finsler ratio where C_outer < 1e-9, NaN where
        the pair is not inside both chords."""
        o = to_outer(np.vstack([a, b]))
        oa, ob = o[:len(a)], o[len(a):]
        (s_lo, s_hi), (o_lo, o_hi) = inner.chords(a, b - a), outer.chords(oa, ob - oa)
        ok = np.flatnonzero((s_lo < 0.0) & (1.0 < s_hi) & (o_lo < 0.0) & (1.0 < o_hi))
        ci = _log_cr_from_section(s_lo[ok], s_hi[ok])
        co = _log_cr_from_section(o_lo[ok], o_hi[ok])
        out = np.full(len(a), np.nan)
        out[ok] = ci / np.where(co < 1e-9, 1.0, co)
        near = ok[co < 1e-9]
        if len(near):
            out[near] = _finsler_ratios(inner, outer, a[near], oa[near], (b - a)[near],
                                        (ob - oa)[near])
        return out

    i, j = (idx * m).astype(int).T
    i, j = i[i != j], j[i != j]
    grid = ratios(pts[i], pts[j])
    if np.isnan(grid).any():
        raise NotInDomain("argument pair not inside the section")
    # Finsler field scan over anchors x directions; rows without a chord are skipped
    k = inner.dim - 1
    n_dirs = max(8, budget // 32)
    dirs = sampling.sphere_points(n_dirs, k, seed + 23)
    anchors = np.vstack(
        [np.asarray(inner.center)[None, :], inner.interior_coords(max(16, budget // 8), seed + 29)]
    )
    q_in = (anchors[:, None, :] + 1e-6 * dirs[None, :, :]).reshape(-1, k)
    p_in = np.repeat(anchors, n_dirs, axis=0)
    p_out = np.repeat(to_outer(anchors), n_dirs, axis=0)
    scan = _finsler_ratios(inner, outer, p_in, p_out, q_in - p_in, to_outer(q_in) - p_out)
    scan[np.isnan(scan)] = math.inf
    # the incumbent is the first minimum over the pairs, then the scan
    ratio = np.concatenate([grid, scan])
    first = int(np.argmin(ratio))
    best = float(ratio[first])
    if best == math.inf:
        return best
    # seeded stochastic pair descent around the incumbent
    rng = np.random.default_rng(seed + 41)
    a, b = np.concatenate([pts[i], p_in])[first], np.concatenate([pts[j], q_in])[first]
    spread = float(np.max(np.linalg.norm(pts - np.asarray(inner.center)[None, :], axis=1)))
    step = 0.2 * max(spread, 1e-6)
    while step > 1e-5 * spread:
        improved = False
        for _ in range(24):
            a2 = a + step * rng.normal(size=a.shape)
            b2 = b + step * rng.normal(size=b.shape)
            if not (
                inner.contains_coords(a2[None, :], slack=-1e-12)[0]
                and inner.contains_coords(b2[None, :], slack=-1e-12)[0]
            ):
                continue
            if np.linalg.norm(a2 - b2) < 1e-12:
                continue
            r = float(ratios(a2[None, :], b2[None, :])[0])
            if r < best:  # False for NaN: no chord
                best, a, b = r, a2, b2
                improved = True
        if not improved:
            step *= 0.5
    return best


def _finsler_ratios(inner, outer, p_in, p_out, d_in, d_out):
    """Limiting metric ratio for each row's displacement d, transported between charts.

    d_in and d_out must be the same small ambient displacement expressed in
    the two charts; the infinitesimal lengths are F(p; d/|d|) * |d|. A
    vanishing displacement gives inf, a missing chord NaN.
    """
    nd_in = np.sqrt(rowdot(d_in, d_in))
    nd_out = np.sqrt(rowdot(d_out, d_out))
    tiny = (nd_out < 1e-300) | (nd_in < 1e-300)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = ((finsler_factors(inner, p_in, d_in) * nd_in)
               / (finsler_factors(outer, p_out, d_out) * nd_out))
    out[tiny] = math.inf
    return out


def det2(u, v):
    """Determinants of the 2x2 matrices with rows u and v, over leading axes."""
    return u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]


def rp1_contraction_lambda(a, b, c, d) -> float:
    """Contraction constant of nested projective intervals (b,c) in (a,d).

    Arguments are affine coordinates on the projective line (math.inf
    allowed). Returns the infimum over pairs x != y in (b, c) of
    |log[b,c;x,y]| / |log[a,d;x,y]|. By the Birkhoff-Hopf theorem this is
    coth(D/4), where D = |log cr| is the outer cross-ratio diameter of
    the inner interval, cr = [b,d][c,a] / ([b,a][c,d]) in 2x2
    determinants of the lifts. The degenerate case a == d gives +inf
    (outer metric identically 0); coincident neighbouring endpoints, or
    {b, c} separating {a, d} (cr <= 0), raise BadOrder.
    """

    def lift(t):
        if math.isinf(t):
            return np.array([0.0, 1.0])
        return np.array([1.0, float(t)]) / math.hypot(1.0, float(t))

    va, vb, vc, vd = lift(a), lift(b), lift(c), lift(d)
    if abs(det2(va, vd)) < 1e-14:
        return math.inf
    for u, v, names in [(va, vb, "a,b"), (vb, vc, "b,c"), (vc, vd, "c,d")]:
        if abs(det2(u, v)) < 1e-14:
            raise BadOrder(f"coincident boundary points {names}")
    cr = det2(vb, vd) * det2(vc, va) / (det2(vb, va) * det2(vc, vd))
    if cr <= 0:
        raise BadOrder("{b, c} separates {a, d}")
    return 1.0 / math.tanh(abs(math.log(cr)) / 4.0)
