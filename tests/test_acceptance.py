"""Acceptance suite: one criterion per test, one pass/fail line each.

Every tolerance is pinned here, oracles are computed independently of the
code paths they check, and each criterion asserts its runtime cap.
Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import json
import math
import time
from pathlib import Path

import numpy as np

from flagdyn.automaton import ParabolicFamily, enumerate_paths, verify_compatibility
from flagdyn.circle import angle_dist, angle_of
from flagdyn.cli import main as cli_main
from flagdyn.conedoff import ConedGraph, Presentation, quasigeodesic_check
from flagdyn.domains import (
    ChartBall,
    ConvexPolytope,
    contraction_factor,
    rp1_contraction_lambda,
    zimmer_metric,
    zimmer_metric_sampled,
)
from flagdyn.dynamics import (
    contracting_limit,
    equivariance_check,
    local_to_global_check,
    shrink_rates,
)
from flagdyn.linalg import Matrix, cartan_projection, exterior_power, simple_root_gaps, svd
from flagdyn.projgeom import ProjHyperplane, ProjPoint, chart_point, cross_ratio
from flagdyn.synth import synthesize_rp1
from flagdyn.words import concat, parse_word

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# pinned regression values (recorded on the first successful runs)
PINNED_PGL2Z_VERTICES = 279
PINNED_PGL2Z_EDGES = 2845
PINNED_PGL2Z_PARABOLIC = 4
PINNED_PGL2Z_QG_DEPTH = 4
PINNED_PGL2Z_QG_D = 3


def _rotation2(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def _parts(cfg):
    """The presentation, graph and system of a config, as ``certify`` builds them."""
    return cfg.presentation(), cfg.graph(), cfg.system()


def _report(num, name, ok, elapsed, cap):
    print(f"\nCRITERION {num:2d} [{name}]: {'PASS' if ok else 'FAIL'} "
          f"({elapsed:.1f}s, cap {cap}s)")
    assert ok, f"criterion {num} ({name}) failed"
    assert elapsed < cap, f"criterion {num} exceeded its {cap}s runtime cap"


def test_criterion_01_cross_ratio_convention():
    t0 = time.time()
    w0 = ProjHyperplane([1.0, 0.0])
    winf = ProjHyperplane([0.0, 1.0])
    one = ProjPoint([1.0, 1.0])
    ok = all(
        abs(cross_ratio(w0, winf, one, ProjPoint([z, 1.0])) - z) <= 1e-12
        for z in (-3.0, -1.0, 0.5, 2.0, 10.0)
    )
    _report(1, "cross-ratio convention", ok, time.time() - t0, 1)


def test_criterion_02_zimmer_metric_vs_oracle():
    t0 = time.time()
    h2 = ProjHyperplane([0.0, 1.0])
    omega = ChartBall(h2, [0.0], 1.0)
    x = chart_point(h2, [0.0])
    ok = True
    for t in np.linspace(0.015, 0.985, 50):
        got = zimmer_metric(omega, x, chart_point(h2, [t]))
        ok &= abs(got - math.log((1 + t) / (1 - t))) <= 1e-9

    h3 = ProjHyperplane([0.0, 0.0, 1.0])
    rng = np.random.default_rng(2024)
    pairs_checked = 0
    for _ in range(20):
        poly = ConvexPolytope(h3, rng.uniform(-0.7, 0.7, (9, 2)))
        for _ in range(5):
            w = rng.dirichlet(np.ones(len(poly.vertices)), 2)
            a, b = 0.999 * (w @ poly.vertices) + 0.001 * poly.center
            if np.linalg.norm(a - b) < 1e-5:
                continue
            pa, pb = chart_point(h3, a), chart_point(h3, b)
            exact = zimmer_metric(poly, pa, pb)
            sampled = zimmer_metric_sampled(poly, pa, pb, budget=10000)
            if exact > 1e-9:
                ok &= abs(sampled - exact) <= 0.02 * exact
            pairs_checked += 1
    ok &= pairs_checked >= 90
    _report(2, "cross-ratio metric vs line-section oracle", ok, time.time() - t0, 30)


def _ball_chords(center, radius, p, d):
    """Roots of |p + s d - center|^2 = radius^2, one line per row of p and d."""
    q = p - center
    a, b = np.sum(d * d, axis=1), 2.0 * np.sum(q * d, axis=1)
    rt = np.sqrt(b * b - 4 * a * (np.sum(q * q, axis=1) - radius**2))
    return (-b - rt) / (2 * a), (-b + rt) / (2 * a)


def _facet_chords(equations, p, d):
    """Nearest crossing each way of the hull facets n.x + b <= 0, one line
    per row of p and d."""
    normals, offsets = equations[:, :-1], equations[:, -1]
    den = d @ normals.T
    with np.errstate(divide="ignore", invalid="ignore"):
        s = -(p @ normals.T + offsets) / den
    return (np.where(den < 0, s, -math.inf).max(axis=1),
            np.where(den > 0, s, math.inf).min(axis=1))


def _chord_kernels(domain):
    """(chords, contains) of a test domain: quadratic roots from a ball's
    center and radius, or the facets of a ConvexHull of a polygon's vertices."""
    from scipy.spatial import ConvexHull

    if hasattr(domain, "vertices"):
        eqs = ConvexHull(domain.vertices).equations
        return (lambda p, d: _facet_chords(eqs, p, d),
                lambda q: bool(np.all(eqs[:, :-1] @ q + eqs[:, -1] < 0)))
    return (lambda p, d: _ball_chords(domain.center, domain.radius, p, d),
            lambda q: bool(np.linalg.norm(q - domain.center) < domain.radius))


def _grid_contraction_oracle(inner, outer, rng, n_pairs=20000, n_diag=400):
    (inner_chords, inside), (outer_chords, _) = _chord_kernels(inner), _chord_kernels(outer)

    def ratios(a, b):
        # inner over outer |log (s_lo, s_hi; 0, 1)| of the lines a + s (b - a), per row
        ci, co = (np.abs(np.log((1.0 - lo) * hi / (-lo * (hi - 1.0))))
                  for lo, hi in (inner_chords(a, b - a), outer_chords(a, b - a)))
        return ci / co

    m = len(inner.vertices) if hasattr(inner, "vertices") else 0

    def sample_points(n, pull=0.999):
        if m:
            return pull * (rng.dirichlet(np.ones(m), n) @ inner.vertices) + (1 - pull) * inner.center
        return inner.center + pull * inner.radius * np.array([_in_ball(rng) for _ in range(n)])

    pts = sample_points(2 * n_pairs)
    a, b = pts[0::2], pts[1::2]
    keep = np.linalg.norm(a - b, axis=1) >= 1e-9
    xs, ys = [a[keep]], [b[keep]]
    # finite-difference probe of the coincident-pair limit
    for _ in range(n_diag):
        p = sample_points(1, 0.99)
        theta = rng.uniform(0, 2 * math.pi)
        q = p + 1e-5 * np.array([math.cos(theta), math.sin(theta)])
        if inside(q[0]):
            xs.append(p)
            ys.append(q)
    xs, ys = np.vstack(xs), np.vstack(ys)
    # the first minimum over the pairs, then the probe
    r = ratios(xs, ys)
    first = int(np.argmin(r))
    best, a, b = r[first], xs[first], ys[first]
    # local descent around the incumbent (independent of the estimator)
    step = 0.1
    for _ in range(60):
        improved = False
        for _ in range(20):
            a2 = a + step * rng.normal(size=a.shape) * 0.05
            b2 = b + step * rng.normal(size=b.shape) * 0.05
            if not (inside(a2) and inside(b2)):
                continue
            if np.linalg.norm(a2 - b2) < 1e-10:
                continue
            r = ratios(a2[None, :], b2[None, :])[0]
            if r < best:
                best, a, b = r, a2, b2
                improved = True
        if not improved:
            step *= 0.5
            if step < 1e-4:
                break
    return best


def _in_ball(rng):
    while True:
        v = rng.uniform(-1, 1, 2)
        if np.linalg.norm(v) < 0.95:
            return v


def test_criterion_03_contraction_factor():
    t0 = time.time()
    h3 = ProjHyperplane([0.0, 0.0, 1.0])
    rng = np.random.default_rng(99)
    ok = True

    inner = ChartBall(h3, [0.0, 0.0], 0.3)
    outer = ChartBall(h3, [0.0, 0.0], 0.5)
    lam = contraction_factor(inner, outer, budget=512)
    oracle = _grid_contraction_oracle(inner, outer, rng)
    ok &= lam > 1 + 1e-3 and abs(lam - oracle) <= 0.02 * oracle

    for _ in range(10):
        po = ConvexPolytope(h3, rng.uniform(-0.7, 0.7, (8, 2)))
        shrink = rng.uniform(0.4, 0.6)
        pi = ConvexPolytope(h3, shrink * po.vertices + (1 - shrink) * po.center)
        lam = contraction_factor(pi, po, budget=512)
        oracle = _grid_contraction_oracle(pi, po, rng, n_pairs=8000, n_diag=300)
        ok &= lam > 1 + 1e-3 and abs(lam - oracle) <= 0.02 * oracle

    base = rp1_contraction_lambda(-2, -1, 1, 2)
    rngm = np.random.default_rng(5)
    for _ in range(10):
        mat = rngm.uniform(-2, 2, (2, 2))
        if abs(np.linalg.det(mat)) < 0.3:
            continue

        def mob(x):
            den = mat[1, 0] * x + mat[1, 1]
            return math.inf if abs(den) < 1e-14 else (mat[0, 0] * x + mat[0, 1]) / den

        lam_m = rp1_contraction_lambda(*(mob(v) for v in (-2, -1, 1, 2)))
        ok &= abs(lam_m - base) <= 1e-3
    _report(3, "contraction factors vs dense-grid oracle", ok, time.time() - t0, 120)


def _mobius_interval_margin_oracle():
    """Closed-form margin of the bundled Schottky system, computed from raw
    endpoint Mobius arithmetic on tangent angles (independent code path)."""
    mult = 4.0
    eps, radius = 0.02, 0.3
    gens = {}
    gens["a"] = np.diag([mult, 1 / mult])
    r = _rotation2(math.pi / 4)
    gens["b"] = r @ gens["a"] @ r.T
    gens["a^-1"] = np.linalg.inv(gens["a"])
    gens["b^-1"] = np.linalg.inv(gens["b"])
    centers = {"a+": 0.0, "a-": math.pi / 2, "b+": math.pi / 4, "b-": 3 * math.pi / 4}
    words = {"a+": "a", "a-": "a^-1", "b+": "b", "b-": "b^-1"}
    inverse = {"a+": "a-", "a-": "a+", "b+": "b-", "b-": "b+"}

    def img_angle(m, theta):
        v = m @ np.array([math.cos(theta), math.sin(theta)])
        return math.atan2(v[1], v[0]) % math.pi

    def adist(a, b):
        d = abs(a - b) % math.pi
        return min(d, math.pi - d)

    worst = math.inf
    for v in centers:
        for w in centers:
            if w == inverse[v]:
                continue
            m = gens[words[v]]
            lo = img_angle(m, centers[w] - radius - eps)
            hi = img_angle(m, centers[w] + radius + eps)
            mid = img_angle(m, centers[w])
            # image arc of the expanded target under the Mobius map
            dd = (hi - lo) % math.pi
            c, rr = (lo + dd / 2) % math.pi, dd / 2
            if adist(mid, c) > rr:
                c, rr = (c + math.pi / 2) % math.pi, math.pi / 2 - rr
            worst = min(worst, radius - (adist(centers[v], c) + rr))
    return worst


def test_criterion_04_ping_pong_certification(tmp_path):
    t0 = time.time()
    code_pass = cli_main(["certify", "--config", str(CONFIGS / "schottky.json"),
                          "--out", str(tmp_path / "pos")])
    code_fail = cli_main(["certify", "--config", str(CONFIGS / "schottky_repelling.json"),
                          "--out", str(tmp_path / "neg")])
    cert = json.loads((tmp_path / "pos" / "certificate.json").read_text())
    oracle = _mobius_interval_margin_oracle()
    ok = (
        code_pass == 0
        and code_fail == 1
        and cert["min_margin"] > 0
        and abs(cert["min_margin"] - oracle) <= 1e-6
    )
    _report(4, "ping-pong certificates and negative control", ok, time.time() - t0, 10)


def test_criterion_05_exponential_shrinking(schottky_cfg, single_loop_cfg):
    t0 = time.time()
    rho, graph, system = _parts(schottky_cfg)
    cert = verify_compatibility(graph, system, rho)
    paths, _ = enumerate_paths(graph, 25, "random", rho, seed=3, cap=12)
    results = [contracting_limit(p, rho, system, certificate=cert) for p in paths]
    rep = shrink_rates(results, depth_range=(2, 25), r2_threshold=0.98)
    ok = rep.r_squared >= 0.98 and -rep.lambda2 <= -0.1

    rho1, graph1, system1 = _parts(single_loop_cfg)
    cert1 = verify_compatibility(graph1, system1, rho1)
    loop_paths, _ = enumerate_paths(graph1, 25, "random", rho1, cap=1)
    res1 = contracting_limit(loop_paths[0], rho1, system1, certificate=cert1)
    rep1 = shrink_rates([res1], depth_range=(15, 25), r2_threshold=0.98)
    # rate oracle: the Mobius derivative of x -> x/16 at the fixed point
    ok &= abs(rep1.lambda2 - 2 * math.log(4)) <= 0.1 * 2 * math.log(4)
    _report(5, "exponential shrink rates", ok, time.time() - t0, 60)


def test_criterion_06_local_to_global(jordan_diag_cfg):
    t0 = time.time()
    A = jordan_diag_cfg.presentation(0.0).generators["A"].arr
    seq = [Matrix(np.linalg.matrix_power(A, n), _trusted=True) for n in range(1, 201)]
    ball = ChartBall(ProjHyperplane([0.0, 1.0, 0.0, 0.0]), [2.0, 0.6, 0.6], 0.05)
    rep = local_to_global_check(seq, ball, 1, n_samples=32, gap_threshold=5.0)
    ok = (
        rep.verdict == "P-divergent"
        and rep.fs_diameters[-1] < 1e-3
        and rep.gap_trace[-1] > 5.0
    )

    rot = np.eye(4)
    rot[:2, :2] = _rotation2(0.7)
    rot[2:, 2:] = _rotation2(1.3)
    seq_r = [Matrix(np.linalg.matrix_power(rot, n), _trusted=True) for n in range(1, 60)]
    ball_r = ChartBall(ProjHyperplane([1.0, 0, 0, 0]), [0.2, 0.2, 0.2], 0.1)
    rep_r = local_to_global_check(seq_r, ball_r, 1)
    ok &= rep_r.verdict == "not P-divergent"
    _report(6, "local-to-global contraction test", ok, time.time() - t0, 60)


def test_criterion_07_jordan_peripheral_stability(jordan_diag_cfg, jordan_split_cfg):
    t0 = time.time()
    from flagdyn.automaton import peripheral_stability_probe

    rho, graph, system = _parts(jordan_diag_cfg)
    kwargs = dict(element_cap=32, n_boundary=64, n_interior=24)

    cert0 = verify_compatibility(graph, system, rho, **kwargs)
    ok = cert0.ok

    _, fail_d = peripheral_stability_probe(jordan_diag_cfg.presentation, graph, system,
                                           jordan_diag_cfg.probe, **kwargs)
    ok &= fail_d is None

    _, fail_s = peripheral_stability_probe(jordan_split_cfg.presentation, graph, system,
                                           jordan_split_cfg.probe, **kwargs)
    ok &= fail_s == 0.01
    _report(7, "unipotent-block peripheral stability probe", ok, time.time() - t0, 120)


def test_criterion_08_modular_synthesis(pgl2z_cfg):
    t0 = time.time()
    rho = pgl2z_cfg.presentation()
    res = synthesize_rp1(rho, pgl2z_cfg.synthesis)
    cert = verify_compatibility(res.graph, res.system, rho, element_cap=60)
    n_par = sum(1 for l in res.graph.vertices.values() if isinstance(l, ParabolicFamily))
    ok = cert.ok and n_par >= 1
    ok &= (len(res.graph.vertices), len(res.graph.edges), n_par) == (
        PINNED_PGL2Z_VERTICES, PINNED_PGL2Z_EDGES, PINNED_PGL2Z_PARABOLIC,
    )

    # quasigeodesic tracking of automaton paths in the truncated coned graph
    paths, _ = enumerate_paths(res.graph, PINNED_PGL2Z_QG_DEPTH, "random", rho,
                               seed=1, cap=40, elements_per_vertex=1)
    def max_power(p):
        return max((abs(e) for w in p.words for _, e in w), default=0)
    usable = [p for p in paths if max_power(p) <= 24][:2]
    ok &= len(usable) == 2
    pres = Presentation(generators=["t", "s", "r"], peripherals=[("pt", "t")],
                        kind="matrix", rho=rho)
    cg = ConedGraph(pres, truncation=28, max_nodes=2500000)
    for p in usable:
        prefixes, acc = [], ()
        for w in p.words:
            acc = concat(acc, w)
            prefixes.append(acc)
        rep = quasigeodesic_check(cg, prefixes, radius=16, d_max=PINNED_PGL2Z_QG_D)
        ok &= rep.measured_d <= PINNED_PGL2Z_QG_D
    _report(8, "modular-group automaton synthesis", ok, time.time() - t0, 300)


def test_criterion_09_equivariance(schottky_cfg):
    t0 = time.time()
    rho, graph, system = _parts(schottky_cfg)
    cert = verify_compatibility(graph, system, rho)
    paths, _ = enumerate_paths(graph, 20, "random", rho, seed=11, cap=100)
    results = [contracting_limit(p, rho, system, certificate=cert) for p in paths]
    out = equivariance_check(graph, rho, system, parse_word("a"), results,
                             certificate=cert)
    ok = out["pass"] and out["checked"] == 100
    _report(9, "equivariance of path limits", ok, time.time() - t0, 60)


def test_criterion_10_exterior_gap_transfer():
    t0 = time.time()
    rng = np.random.default_rng(314)
    ok = True
    for d in (4, 5):
        for _ in range(100):
            while True:
                a = rng.uniform(-10, 10, (d, d))
                if abs(np.linalg.det(a)) > 1e-3:
                    break
            g = Matrix(a)
            sig = svd(g).sigma
            for k in range(1, d):
                got = simple_root_gaps(cartan_projection(exterior_power(g, k)))[0]
                want = math.log(sig[k - 1] / sig[k])
                ok &= abs(got - want) <= 1e-8 * max(1.0, abs(want))
    _report(10, "exterior-power gap transfer", ok, time.time() - t0, 30)
