"""Contracting-path engine: nested-image limits, shrink rates, limit sets.

Prefix products (``linalg.PrefixProduct``) are renormalized by sup norm
with the log determinant tracked separately, so on the projective line
the image intervals and their metric diameters stay accurate at
contraction scales far below machine epsilon (via determinant identities
instead of subtractive cancellation). Singular value gaps come from the
renormalized exterior powers the prefix product carries, in any
dimension. Reported radius bounds are floored at the numerical
resolution; the engine never claims sub-roundoff precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import circle
from .automaton import CompatibleSystem, GammaGraph, GPath, enumerate_paths
from .domains import ChartBall, ProperDomain, zimmer_metric
from .errors import GapTooSmall, InsufficientData, NotCertified, NotInDomain, PathNotFound
from .linalg import Matrix, PrefixProduct, exterior_power, gap_trace, minors, svd
from .projgeom import (
    ProjHyperplane,
    ProjPoint,
    act,
    act_many,
    fubini_study,
    fubini_study_many,
)
from .words import GroupPresentation, invert_word, normalize_word, word_str

RADIUS_FLOOR_PER_DIM = 1e-15


def radius_floor(dim: int) -> float:
    return RADIUS_FLOOR_PER_DIM * dim


@dataclass
class PathResult:
    path: GPath
    limit: ProjPoint
    diameters: list
    gaps: list
    radius_bound: float
    converged: bool = False

    @property
    def depth(self):
        return len(self.diameters)


@dataclass
class RateReport:
    lambda1: float
    lambda2: float
    r_squared: float
    depth_range: tuple
    n_paths: int

    def bound(self, n):
        return self.lambda1 * math.exp(-self.lambda2 * n)


@dataclass
class LimitSetCloud:
    points: list  # (ProjPoint, path code, radius bound)
    depth: int
    seed: int
    metadata: dict = field(default_factory=dict)


def _check_certified(path: GPath, certificate):
    if certificate is None:
        return
    if not certificate.ok:
        raise NotCertified("certificate does not pass")
    certified_edges = {r.edge for r in certificate.records}
    for e in zip(path.vertices, path.vertices[1:]):
        if e not in certified_edges:
            raise NotCertified(f"path edge {e} not covered by the certificate")


def contracting_limit(path: GPath, rho: GroupPresentation, system: CompatibleSystem,
                      depth: int | None = None, certificate=None, k: int = 1,
                      sample_budget: int = 32, seed: int = 0,
                      convergence_tol: float = 1e-9) -> PathResult:
    """Nested-image limit of a certified path with per-depth diagnostics.

    The limit is approximated by the prefix image of the next vertex
    domain's center (guaranteed interior). Diameters are measured in the
    metric of the first vertex domain; gaps are the top singular gaps of
    the prefix products.
    """
    _check_certified(path, certificate)
    depth = path.depth if depth is None else min(depth, path.depth)
    if depth < 2:
        raise ValueError("depth must be >= 2")
    dim = rho.dim
    U1 = system.domain(path.vertices[0])
    prefix = PrefixProduct(dim, k)
    diameters, gaps = [], []

    rp1 = isinstance(U1, ChartBall) and dim == 2 and all(
        isinstance(system.domain(v), ChartBall) for v in path.vertices
    )
    if rp1:
        arcs = {v: system.domain(v).arc() for v in set(path.vertices[:depth + 1])}
        home = arcs[path.vertices[0]]
        A = circle.vec_of(home.center - home.radius)
        B = circle.vec_of(home.center + home.radius)
        detAB = _det2(A, B)
        last_pair = None
        for n in range(1, depth + 1):
            prefix.push(rho.evaluate(path.words[n - 1]))
            target = arcs[path.vertices[n]]
            x = circle.vec_of(target.center - target.radius)
            y = circle.vec_of(target.center + target.radius)
            (X, Y), (nx, ny) = prefix.apply(np.array([x, y]))
            det_xy = prefix.det_sign * math.exp(prefix.logdet) * _det2(x, y) / (nx * ny)
            # Pluecker: [XY][AB] = [XA][YB] - [XB][YA], so the cross ratio
            # [XB][YA] / ([XA][YB]) is 1 - t
            t = det_xy * detAB / (_det2(X, A) * _det2(Y, B))
            diameters.append(abs(math.log1p(-t)) if t < 1 else math.inf)
            gaps.append(prefix.gap())
            last_pair = (X, Y, det_xy)
        X, Y, det_xy = last_pair
        rbound = 0.5 * math.asin(min(1.0, abs(det_xy))) + radius_floor(dim)
        center = system.domain(path.vertices[depth]).center_point()
        limit_img, _ = prefix.apply(center.coords[None, :])
        limit = ProjPoint(limit_img[0])
    else:
        pts_cache = {}
        limit = None
        for n in range(1, depth + 1):
            prefix.push(rho.evaluate(path.words[n - 1]))
            U_next = system.domain(path.vertices[n])
            key = path.vertices[n]
            if key not in pts_cache:
                pts_cache[key] = np.vstack(
                    [
                        U_next.boundary_points(sample_budget, seed),
                        U_next.interior_points(sample_budget // 2, seed),
                        U_next.center_point().coords[None, :],
                    ]
                )
            img, _ = prefix.apply(pts_cache[key])
            limit = ProjPoint(img[-1])
            dmax = 0.0
            for i in range(0, img.shape[0] - 1, 3):
                try:
                    dmax = max(
                        dmax, zimmer_metric(U1, ProjPoint(img[i]), ProjPoint(img[-1]))
                    )
                except NotInDomain:  # the image leaves U1: no finite diameter
                    dmax = math.inf
            diameters.append(2.0 * dmax)
            gaps.append(prefix.gap())
            last_img = img
        rbound = float(np.max(fubini_study_many(last_img, last_img[-1:]))) + radius_floor(dim)

    return PathResult(path=path, limit=limit, diameters=diameters, gaps=gaps,
                      radius_bound=rbound, converged=rbound < convergence_tol)


def _det2(u, v):
    return float(u[0] * v[1] - u[1] * v[0])


def shrink_rates(results, depth_range=None, r2_threshold: float = 0.98,
                 min_depths: int = 5) -> RateReport:
    """Least-squares exponential envelope of the recorded diameters.

    lambda2 is minus the fitted slope of log diameter versus depth;
    lambda1 is inflated so the bound dominates every data point.
    """
    xs, ys = [], []
    for r in results:
        for n, d in enumerate(r.diameters, start=1):
            if depth_range and not (depth_range[0] <= n <= depth_range[1]):
                continue
            if 0.0 < d < math.inf:
                xs.append(float(n))
                ys.append(math.log(d))
    if len(set(xs)) < min_depths:
        raise InsufficientData(f"need at least {min_depths} depths, got {len(set(xs))}")
    x = np.array(xs)
    y = np.array(ys)
    slope, intercept = np.polyfit(x, y, 1)
    pred = slope * x + intercept
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0
    if r2 < r2_threshold:
        raise InsufficientData(
            f"exponential fit rejected: R^2 = {r2:.4f} < {r2_threshold}"
        )
    lambda2 = -float(slope)
    # inflate the prefactor so the envelope dominates every recorded point
    shift = float(np.max(y - pred))
    lambda1 = math.exp(float(intercept) + shift + 1e-12)
    rng = (int(np.min(x)), int(np.max(x)))
    return RateReport(lambda1=lambda1, lambda2=lambda2, r_squared=r2,
                      depth_range=rng, n_paths=len(results))


def limit_set_sample(graph: GammaGraph, rho: GroupPresentation,
                     system: CompatibleSystem, depth: int, count: int,
                     seed: int = 0, certificate=None,
                     convergence_tol: float = 1e-9) -> LimitSetCloud:
    """Cloud of path limits, deterministic per seed."""
    paths, _ = enumerate_paths(graph, depth, "random", rho, seed=seed, cap=count)
    pts = []
    n_converged = 0
    for p in paths:
        res = contracting_limit(p, rho, system, certificate=certificate,
                                convergence_tol=convergence_tol)
        n_converged += res.converged
        pts.append((res.limit, p.code(), res.radius_bound))
    return LimitSetCloud(points=pts, depth=depth, seed=seed,
                         metadata={"count": len(pts), "converged": n_converged})


def attracting_data(m: Matrix, k: int = 1, gap_threshold: float = 0.1):
    """Attracting k-plane (as a point behind the exterior power) and the
    repelling hyperplane (bottom right-singular span, as a dual point)."""
    dec = svd(m)
    gap = math.log(dec.sigma[k - 1] / dec.sigma[k])
    if gap <= gap_threshold:
        raise GapTooSmall(f"gap {gap:.3e} below threshold {gap_threshold}")
    att = _pluecker(dec.u[:, :k])
    rep = _pluecker(dec.v[:, :k])
    return ProjPoint(att), ProjHyperplane(rep)


def _pluecker(cols: np.ndarray) -> np.ndarray:
    """Plucker coordinates of a k-column frame, k-subsets in lex order."""
    return minors(cols, cols.shape[1])[:, 0]


@dataclass
class LocalGlobalReport:
    fs_diameters: list
    gap_trace: list
    contraction_observed: bool
    divergence_observed: bool
    gaps_confirm_contraction: bool | None
    contraction_confirms_gaps: bool | None
    limit_consistent: bool | None
    verdict: str


def local_to_global_check(seq, U: ProperDomain, k: int = 1, *,
                          diam_tol: float = 1e-3, gap_threshold: float = 5.0,
                          n_samples: int = 64, seed: int = 0,
                          limit_tol: float = 1e-2) -> LocalGlobalReport:
    """Check both directions of the contraction/divergence equivalence.

    Shrinking sampled images of U must come with exploding top singular
    gaps and a consistent limit; exploding gaps with stable attracting
    data must shrink U when U avoids the limiting repelling hyperplane.
    Inconclusive verdicts are allowed and labeled.
    """
    if k != 1:
        seq = [exterior_power(m, k) for m in seq]
    pts = np.vstack([U.boundary_points(n_samples, seed), U.interior_points(n_samples, seed)])
    diams, limits = [], []
    for m in seq:
        img = act_many(m, pts)
        diams.append(float(np.max(fubini_study_many(img, img))))
        limits.append(ProjPoint(np.mean(img * np.sign(img @ img[0])[:, None], axis=0)))
    gaps = [gap_trace([m], 1)[0] for m in seq]

    contraction = diams[-1] < diam_tol
    divergence = gaps[-1] > gap_threshold

    gaps_confirm = None
    limit_ok = None
    if contraction:
        gaps_confirm = divergence
        tail = limits[-max(2, len(limits) // 4):]
        limit_ok = all(fubini_study(p, tail[-1]) < limit_tol for p in tail)

    contraction_confirms = None
    if divergence:
        try:
            att, rep = attracting_data(Matrix(seq[-1].arr, _trusted=True), 1,
                                       gap_threshold=0.5)
            margins = np.abs(pts @ rep.covector)
            if float(np.min(margins)) > 1e-3:
                contraction_confirms = contraction
            else:
                contraction_confirms = None  # U meets the repelling hyperplane
        except GapTooSmall:
            contraction_confirms = None

    if contraction and divergence:
        verdict = "P-divergent"
    elif not contraction and not divergence:
        verdict = "not P-divergent"
    else:
        verdict = "inconclusive"
    return LocalGlobalReport(
        fs_diameters=diams,
        gap_trace=gaps,
        contraction_observed=contraction,
        divergence_observed=divergence,
        gaps_confirm_contraction=gaps_confirm,
        contraction_confirms_gaps=contraction_confirms,
        limit_consistent=limit_ok,
        verdict=verdict,
    )


def equivariance_check(graph: GammaGraph, rho: GroupPresentation,
                       system: CompatibleSystem, s_word, results,
                       certificate=None) -> dict:
    """Compare limit(s . z) against rho(s) . limit(z) over sampled paths.

    Paths limiting to s . z are produced by prefix surgery on the path
    word sequence: either the leading syllable cancels against s, or s is
    prepended through a matching automaton vertex.
    """
    s_word = normalize_word(s_word)
    s_mat = rho.evaluate(s_word)
    word_vertex = {}
    for vid, label in graph.vertices.items():
        if hasattr(label, "word"):
            word_vertex[label.word] = vid
    defects, bounds = [], []
    checked = 0
    for res in results:
        path = res.path
        if s_word == invert_word(path.words[0]):
            surgered = GPath(path.vertices[1:], path.words[1:])
        else:
            v_s = word_vertex.get(s_word)
            if v_s is None or (v_s, path.vertices[0]) not in set(graph.edges):
                continue
            surgered = GPath([v_s] + path.vertices, [s_word] + path.words)
        res2 = contracting_limit(surgered, rho, system, certificate=certificate)
        target = act(s_mat, res.limit)
        defects.append(fubini_study(res2.limit, target))
        bounds.append(res.radius_bound + res2.radius_bound)
        checked += 1
    if checked == 0:
        raise PathNotFound(f"no path admits surgery by {word_str(s_word)}")
    defects = np.array(defects)
    bounds = np.array(bounds)
    return {
        "checked": checked,
        "max_defect": float(np.max(defects)),
        "max_bound": float(np.max(bounds)),
        "pass": bool(np.all(defects <= bounds)),
    }
