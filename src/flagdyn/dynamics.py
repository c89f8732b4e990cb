"""Contracting-path engine: nested-image limits, shrink rates, limit sets.

Prefix products (``linalg.PrefixProduct``) are renormalized by sup norm
with the log determinant tracked separately, so on the projective line
the image intervals and their metric diameters stay accurate at
contraction scales far below machine epsilon (via determinant identities
instead of subtractive cancellation). Singular value gaps come from the
renormalized exterior powers the prefix product carries, in any
dimension. Reported radius bounds are floored at the numerical
resolution; the engine never claims sub-roundoff precision.

``contracting_limits`` pushes a batch of paths together: one
(P, d, d) prefix stack, depth n of every path in one step, diameters
from one cross-ratio array on RP^1 or one ``domains.zimmer_metrics``
call per (home, target) vertex pair otherwise. ``contracting_limit`` is
its one-path call, and every path's result is bit-identical to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import circle
from .automaton import CompatibleSystem, GammaGraph, GPath, enumerate_paths
from .domains import ChartBall, ProperDomain, det2, zimmer_metrics
from .errors import GapTooSmall, InsufficientData, NotCertified, PathNotFound
from .linalg import Matrix, PrefixProduct, exterior_power, mathmap, minors, rowdot, svd
from .projgeom import (
    ProjHyperplane,
    ProjPoint,
    act,
    act_many,
    fubini_study,
    fubini_study_many,
    unit_rows,
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


def _check_certified(paths, certificate):
    if certificate is None:
        return
    if not certificate.ok:
        raise NotCertified("certificate does not pass")
    certified_edges = {r.edge for r in certificate.records}
    for path in paths:
        for e in zip(path.vertices, path.vertices[1:]):
            if e not in certified_edges:
                raise NotCertified(f"path edge {e} not covered by the certificate")


def contracting_limit(path: GPath, rho: GroupPresentation, system: CompatibleSystem,
                      certificate=None) -> PathResult:
    """``contracting_limits`` of one path."""
    return contracting_limits([path], rho, system, certificate=certificate)[0]


def contracting_limits(paths, rho: GroupPresentation, system: CompatibleSystem,
                       certificate=None) -> list:
    """Nested-image limits of certified paths with per-depth diagnostics.

    Each path runs to its own depth. The limit is approximated by the
    prefix image of the next vertex domain's center (guaranteed
    interior). Diameters are measured in the metric of the path's first
    vertex domain; gaps are the top singular gaps sigma1/sigma2 of the
    prefix products, since the limit is a point of P(R^d).

    Paths of one depth and one branch (exact arcs on RP^1, or sampled
    images) are pushed together, depth n of every path in one step, with
    each distinct word evaluated once. A path's result does not depend on
    the paths batched with it.
    """
    _check_certified(paths, certificate)
    if min((path.depth for path in paths), default=2) < 2:
        raise ValueError("depth must be >= 2")
    mats = {}
    for path in paths:
        for w in path.words:
            if w not in mats:
                mats[w] = rho.evaluate(w)
    groups = {}
    for i, path in enumerate(paths):
        rp1 = rho.dim == 2 and all(isinstance(system.domain(v), ChartBall)
                                   for v in path.vertices)
        groups.setdefault((path.depth, rp1), []).append(i)
    results = [None] * len(paths)
    for (n, rp1), idx in groups.items():
        batch = [paths[i] for i in idx]
        prefix = PrefixProduct(rho.dim, 1, len(batch))
        factors = [[mats[p.words[j]] for p in batch] for j in range(n)]
        verts = [p.vertices[:n + 1] for p in batch]
        if rp1:
            out = _rp1_limits(prefix, factors, verts, system)
        else:
            out = _sampled_limits(prefix, factors, verts, system)
        for i, p, (limit, diams, gaps, rbound) in zip(idx, batch, out):
            results[i] = PathResult(path=p, limit=limit, diameters=diams, gaps=gaps,
                                    radius_bound=rbound)
    return results


def _rp1_limits(prefix, factors, verts, system):
    """Exact branch: image arcs of the target arcs, diameters from a cross ratio.

    Returns (limit, diameters, gaps, radius bound) per path.
    """
    depth = len(factors)
    names = sorted(set(v for vs in verts for v in vs))
    col = {v: i for i, v in enumerate(names)}
    V = np.array([[col[v] for v in vs] for vs in verts])
    arcs = [system.domain(v).arc() for v in names]
    ends = np.array([[circle.vec_of(a.center - a.radius), circle.vec_of(a.center + a.radius)]
                     for a in arcs])  # (vertex, endpoint, xy)
    A, B = ends[V[:, 0], 0], ends[V[:, 0], 1]
    detAB = det2(A, B)
    diameters, gaps = [], []
    for n in range(1, depth + 1):
        prefix.push(factors[n - 1])
        xy = ends[V[:, n]]
        img, norms = prefix.apply(xy)
        X, Y = img[:, 0], img[:, 1]
        det_xy = (prefix.det_sign * mathmap(math.exp, prefix.logdet) * det2(xy[:, 0], xy[:, 1])
                  / (norms[:, 0] * norms[:, 1]))
        # Pluecker: [XY][AB] = [XA][YB] - [XB][YA], so the cross ratio
        # [XB][YA] / ([XA][YB]) is 1 - t
        t = det_xy * detAB / (det2(X, A) * det2(Y, B))
        near = t < 1
        diam = np.full(len(t), math.inf)
        diam[near] = np.abs(mathmap(math.log1p, -t[near]))
        diameters.append(diam)
        gaps.append(prefix.gap())
    rbound = 0.5 * mathmap(math.asin, np.fmin(1.0, np.abs(det_xy))) + radius_floor(prefix.dim)
    centers = np.array([system.domain(v).center_point().coords for v in names])
    limit_img, _ = prefix.apply(centers[V[:, depth]][:, None, :])
    return _per_path(limit_img[:, 0], diameters, gaps, rbound)


def _sampled_limits(prefix, factors, verts, system):
    """Sampled branch: images of each target domain's samples (32 boundary,
    16 interior and the center, seed 0), drawn once per vertex; diameters
    from ``zimmer_metrics`` of every third sample against the center image.

    Returns (limit, diameters, gaps, radius bound) per path.
    """
    depth, dim = len(factors), prefix.dim
    P = len(verts)
    samples, diameters, gaps = {}, [], []
    last = [None] * P
    for n in range(1, depth + 1):
        prefix.push(factors[n - 1])
        pairs = {}
        for i, vs in enumerate(verts):
            pairs.setdefault((vs[0], vs[n]), []).append(i)
        diam = np.empty(P)
        for (home, target), rows in pairs.items():
            if target not in samples:
                U = system.domain(target)
                samples[target] = np.vstack([
                    U.boundary_points(32, 0),
                    U.interior_points(16, 0),
                    U.center_point().coords[None, :],
                ])
            img, _ = prefix.apply(samples[target], rows)
            for r, block in zip(rows, img):
                last[r] = block
            # each image point scaled as ProjPoint scales it
            xs = unit_rows(img[:, :-1:3])
            ys = np.broadcast_to(unit_rows(img[:, -1:]), xs.shape)
            d = zimmer_metrics(system.domain(home), xs.reshape(-1, dim), ys.reshape(-1, dim))
            diam[rows] = 2.0 * np.max(d.reshape(len(rows), -1), axis=1)
        diameters.append(diam)
        gaps.append(prefix.gap())
    # the farthest sample image from the limit, in the rejection form of
    # fubini_study: atan2(|x - (x.c) c|, |x.c|) keeps angles below 1e-8
    imgs = np.stack(last)
    c = imgs[:, -1:]
    dots = rowdot(imgs, c)
    rej = np.linalg.norm(imgs - dots[..., None] * c, axis=-1)
    rbound = np.max(np.arctan2(rej, np.abs(dots)), axis=1) + radius_floor(dim)
    return _per_path([img[-1] for img in last], diameters, gaps, rbound)


def _per_path(limits, diameters, gaps, rbound):
    diameters = np.array(diameters).T.tolist()
    gaps = np.array(gaps).T.tolist()
    return [(ProjPoint(x), d, g, float(r))
            for x, d, g, r in zip(limits, diameters, gaps, rbound)]


def shrink_rates(results, depth_range=None, r2_threshold: float = 0.98) -> RateReport:
    """Least-squares exponential envelope of the recorded diameters.

    lambda2 is minus the fitted slope of log diameter versus depth;
    lambda1 is inflated so the bound dominates every data point. The fit
    needs at least 5 distinct depths.
    """
    xs, ys = [], []
    for r in results:
        for n, d in enumerate(r.diameters, start=1):
            if depth_range and not (depth_range[0] <= n <= depth_range[1]):
                continue
            if 0.0 < d < math.inf:
                xs.append(float(n))
                ys.append(math.log(d))
    if len(set(xs)) < 5:
        raise InsufficientData(f"need at least 5 depths, got {len(set(xs))}")
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
                     seed: int = 0, certificate=None) -> list:
    """``contracting_limits`` of ``count`` seeded random paths of the given
    depth: one ``PathResult`` per path, deterministic per seed."""
    paths, _ = enumerate_paths(graph, depth, "random", rho, seed=seed, cap=count)
    return contracting_limits(paths, rho, system, certificate=certificate)


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
        diams.append(float(fubini_study_many(img, img, farthest=True)))
        limits.append(ProjPoint(np.mean(img * np.sign(img @ img[0])[:, None], axis=0)))
    prefix = PrefixProduct(seq[0].dim, 1, len(seq))
    prefix.push(seq)
    gaps = prefix.gap().tolist()

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
    edges = set(graph.edges)
    kept, surgered = [], []
    for res in results:
        path = res.path
        if s_word == invert_word(path.words[0]):
            surgered.append(GPath(path.vertices[1:], path.words[1:]))
        else:
            v_s = word_vertex.get(s_word)
            if v_s is None or (v_s, path.vertices[0]) not in edges:
                continue
            surgered.append(GPath([v_s] + path.vertices, [s_word] + path.words))
        kept.append(res)
    if not kept:
        raise PathNotFound(f"no path admits surgery by {word_str(s_word)}")
    pairs = list(zip(kept, contracting_limits(surgered, rho, system, certificate=certificate)))
    defects = np.array([fubini_study(res2.limit, act(s_mat, res.limit)) for res, res2 in pairs])
    bounds = np.array([res.radius_bound + res2.radius_bound for res, res2 in pairs])
    return {
        "checked": len(kept),
        "max_defect": float(np.max(defects)),
        "max_bound": float(np.max(bounds)),
        "pass": bool(np.all(defects <= bounds)),
    }
