import inspect
import math

import numpy as np
import pytest

from flagdyn.domains import (
    ChartBall,
    ConvexPolytope,
    ProperDomain,
    SampledSet,
    contraction_factor,
    finsler_factors,
    nesting_margin,
    rp1_contraction_lambda,
    zimmer_metric,
    zimmer_metrics,
)
import flagdyn.projgeom as projgeom
from flagdyn.errors import BadOrder, NotInChart, NotInDomain, NotStrictlyNested
from flagdyn.projgeom import (
    ProjHyperplane,
    ProjPoint,
    affine_chart,
    chart_point,
    in_chart,
)

H2 = ProjHyperplane([0.0, 1.0])
H3 = ProjHyperplane([0.0, 0.0, 1.0])


def interval(a, b):
    return ChartBall(H2, [(a + b) / 2], (b - a) / 2)


def rand_polygon(rng, n=8, scale=0.7):
    return ConvexPolytope(H3, rng.uniform(-scale, scale, (n, 2)))


def pair_in(domain, rng):
    w = rng.dirichlet(np.ones(len(domain.vertices)))
    a = 0.999 * (w @ domain.vertices) + 0.001 * domain.center
    w = rng.dirichlet(np.ones(len(domain.vertices)))
    b = 0.999 * (w @ domain.vertices) + 0.001 * domain.center
    return a, b


# --- metric on the model interval -------------------------------------------


def test_interval_metric_closed_form():
    omega = interval(-1.0, 1.0)
    x = chart_point(H2, [0.0])
    for t in np.linspace(0.02, 0.98, 50):
        y = chart_point(H2, [t])
        got = zimmer_metric(omega, x, y)
        assert got == pytest.approx(math.log((1 + t) / (1 - t)), abs=1e-9)


def test_metric_zero_iff_equal():
    omega = interval(-1.0, 1.0)
    x = chart_point(H2, [0.3])
    assert zimmer_metric(omega, x, x) == 0.0
    y = chart_point(H2, [0.3 + 1e-5])
    assert zimmer_metric(omega, x, y) > 0


def test_metric_symmetry_and_triangle():
    rng = np.random.default_rng(0)
    omega = ChartBall(H3, [0.1, -0.1], 0.6)
    pts = [chart_point(H3, omega.center + 0.5 * omega.radius * rng.uniform(-1, 1, 2))
           for _ in range(12)]
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            dij = zimmer_metric(omega, pts[i], pts[j])
            dji = zimmer_metric(omega, pts[j], pts[i])
            assert dij == pytest.approx(dji, abs=1e-10)
    for a, b, c in [(0, 1, 2), (3, 4, 5), (6, 7, 8)]:
        ab = zimmer_metric(omega, pts[a], pts[b])
        bc = zimmer_metric(omega, pts[b], pts[c])
        ac = zimmer_metric(omega, pts[a], pts[c])
        assert ac <= ab + bc + 1e-8


def test_metric_projective_invariance_interval():
    # an affine map of the chart sends interval domains to interval domains
    from flagdyn.linalg import Matrix
    from flagdyn.projgeom import act

    omega = interval(-1.0, 1.0)
    g = Matrix(np.array([[1.3, 0.4], [0.0, 1.0]]))  # x -> 1.3 x + 0.4 on the chart
    img = interval(1.3 * (-1) + 0.4, 1.3 * 1 + 0.4)
    x = chart_point(H2, [0.2])
    y = chart_point(H2, [-0.5])
    lhs = zimmer_metric(omega, x, y)
    rhs = zimmer_metric(img, act(g, x), act(g, y))
    assert lhs == pytest.approx(rhs, rel=1e-9)


def test_inclusion_reverses_metric():
    inner = interval(-0.5, 0.5)
    outer = interval(-1.0, 1.0)
    rng = np.random.default_rng(1)
    for _ in range(50):
        a, b = rng.uniform(-0.45, 0.45, 2)
        x, y = chart_point(H2, [a]), chart_point(H2, [b])
        assert zimmer_metric(inner, x, y) >= zimmer_metric(outer, x, y) - 1e-9


def test_not_in_domain():
    omega = interval(-1.0, 1.0)
    with pytest.raises(NotInDomain):
        zimmer_metric(omega, chart_point(H2, [2.0]), chart_point(H2, [0.0]))


# --- sampled estimator vs exact ----------------------------------------------


def test_sampled_sup_is_lower_bound_and_close():
    rng = np.random.default_rng(2)
    worst = 0.0
    for trial in range(20):
        poly = rand_polygon(rng)
        for _ in range(5):
            a, b = pair_in(poly, rng)
            if np.linalg.norm(a - b) < 1e-6:
                continue
            pa, pb = chart_point(H3, a), chart_point(H3, b)
            exact = zimmer_metric(poly, pa, pb)
            sampled = zimmer_metric(SampledSet([poly]), pa, pb)
            assert sampled <= exact + 1e-9
            if exact > 1e-6:
                worst = max(worst, (exact - sampled) / exact)
    assert worst < 0.02


def test_dual_domain_separating():
    rng = np.random.default_rng(3)
    poly = rand_polygon(rng)
    closure = np.vstack([poly.boundary_points(128, 0), poly.interior_points(64, 0)])
    for h in map(ProjHyperplane, poly.dual_covectors(512, seed=1)):
        margins = [abs(h.covector @ ProjPoint(row).coords) for row in closure]
        assert min(margins) > 0

    ball = ChartBall(H3, [0.2, 0.1], 0.4)
    closure_b = np.vstack([ball.boundary_points(128, 0), ball.interior_points(64, 0)])
    for h in map(ProjHyperplane, ball.dual_covectors(256, seed=2)):
        vals = closure_b @ h.covector
        assert np.all(vals > 0) or np.all(vals < 0)


def test_union_metric_is_sampled_flagged():
    union = SampledSet([ChartBall(H3, [-0.3, 0.0], 0.2), ChartBall(H3, [0.3, 0.0], 0.2)])
    assert not union.exact_metric
    x = chart_point(H3, [-0.3, 0.0])
    y = chart_point(H3, [-0.25, 0.05])
    val = zimmer_metric(union, x, y)
    assert val > 0


def test_finsler_factors_rows_match_one_row_calls():
    rng = np.random.default_rng(8)
    po = rand_polygon(rng)
    for omega in (po, ChartBall(H3, [0.1, -0.1], 0.5)):
        coords = 0.5 * omega.interior_coords(20, 1)
        dirs = rng.normal(size=(20, 2))
        rows = finsler_factors(omega, coords, dirs)
        one_row = [finsler_factors(omega, c[None, :], d[None, :])[0] for c, d in zip(coords, dirs)]
        assert one_row == rows.tolist()
    outside = finsler_factors(ChartBall(H3, [0.0, 0.0], 0.5), np.array([[2.0, 0.0]]),
                              np.array([[0.0, 1.0]]))
    assert np.isnan(outside[0])


# --- contraction factor --------------------------------------------------------


def test_contraction_concentric_balls():
    inner = ChartBall(H3, [0.0, 0.0], 0.3)
    outer = ChartBall(H3, [0.0, 0.0], 0.5)
    lam = contraction_factor(inner, outer, budget=512)
    assert lam > 1 + 1e-3
    # the minimum is the center Finsler ratio r_out / r_in
    assert lam == pytest.approx(5.0 / 3.0, rel=1e-6)
    assert lam == 1.6666666666666663  # pinned bits


def test_contraction_polygons_vs_grid_oracle():
    from scipy.spatial import ConvexHull

    rng = np.random.default_rng(5)
    for n in range(3):
        po = rand_polygon(rng)
        pi = ConvexPolytope(H3, 0.5 * po.vertices + 0.5 * po.center)
        lam = contraction_factor(pi, po, budget=512)
        assert lam > 1 + 1e-3
        if n == 0:
            assert lam == 1.869964403099163  # pinned bits
        # 20000 pairs, drawn as pair_in draws them, through the hulls' own facets
        w = rng.dirichlet(np.ones(len(pi.vertices)), 2 * 20000)
        pts = 0.999 * (w @ pi.vertices) + 0.001 * pi.center
        a, b = pts[0::2], pts[1::2]
        keep = np.linalg.norm(a - b, axis=1) >= 1e-9
        a, b = a[keep], b[keep]
        ci, co = (_cross_ratio_metric(*_facet_chord(ConvexHull(dom.vertices).equations, a, b - a))
                  for dom in (pi, po))
        assert lam == pytest.approx(np.min(ci / co), rel=0.02)


def test_contraction_requires_strict_nesting():
    inner = ChartBall(H3, [0.0, 0.0], 0.5)
    outer = ChartBall(H3, [0.0, 0.0], 0.5000001)
    with pytest.raises(NotStrictlyNested):
        contraction_factor(inner, outer)


def test_union_dual_covectors_are_drawn_once_and_read_only():
    def union():
        return SampledSet([ChartBall(H3, [-0.3, 0.0], 0.2), ChartBall(H3, [0.3, 0.0], 0.2)])

    u = union()
    covs = u.dual_covectors(256, seed=3)
    assert u.dual_covectors(256, seed=3) is covs and not covs.flags.writeable
    assert np.array_equal(covs, union().dual_covectors(256, seed=3))
    assert not np.array_equal(u.dual_covectors(256, seed=4), covs)


@pytest.mark.parametrize("union_is", ["inner", "outer"])
def test_contraction_factor_on_a_union_names_the_missing_sections(union_is, monkeypatch):
    inner, outer = ChartBall(H3, [0.0, 0.0], 0.3), ChartBall(H3, [0.0, 0.0], 0.5)
    if union_is == "inner":
        inner = SampledSet([inner])
    else:
        outer = SampledSet([outer])

    def sampled(*args, **kwargs):
        raise AssertionError("sampled before the domains were checked")

    monkeypatch.setattr(SampledSet, "boundary_coords", sampled)
    monkeypatch.setattr(SampledSet, "interior_coords", sampled)
    with pytest.raises(NotInDomain, match="line sections of both domains"):
        contraction_factor(inner, outer)


def test_nesting_margin_sign():
    inner = ChartBall(H3, [0.0, 0.0], 0.3)
    outer = ChartBall(H3, [0.0, 0.0], 0.5)
    assert nesting_margin(inner, outer) > 0
    assert nesting_margin(outer, inner) < 0


def _touching_outer_chart():
    # the inner boundary point [1 : 0] lies on the outer chart's hyperplane
    inner = ChartBall(ProjHyperplane([1.0, 0.0]), [0.5], 0.5)
    outer = ChartBall(ProjHyperplane([0.0, 1.0]), [0.0], 1.0)
    return inner, outer


def test_nesting_margin_point_on_outer_chart_hyperplane():
    assert nesting_margin(*_touching_outer_chart()) < 0


def test_contraction_factor_point_on_outer_chart_hyperplane():
    with pytest.raises(NotStrictlyNested):
        contraction_factor(*_touching_outer_chart())


def _contains_points_by_affine_chart(dom, pts, slack=0.0):
    """Containment as ``in_chart`` then ``affine_chart`` of the kept rows."""
    rows = pts.reshape(-1, pts.shape[-1])
    inside = in_chart(dom.chart, rows)
    inside[inside] = dom.contains_coords(affine_chart(dom.chart, rows[inside]), slack)
    return inside.reshape(pts.shape[:-1])


@pytest.mark.parametrize("kind", ["ball", "polytope", "union"])
def test_contains_points_equals_the_affine_chart_composition(kind):
    rng = np.random.default_rng(7)
    h = ProjHyperplane([1.0, 0.5, -0.25, 0.3])
    ball = ChartBall(h, [0.1, 0.0, -0.1], 0.6)
    dom = {"ball": ball,
           "polytope": ConvexPolytope(h, rng.uniform(-0.7, 0.7, (12, 3))),
           "union": SampledSet([ball, ChartBall(h, [0.5, 0.2, 0.0], 0.4)])}[kind]
    pts = chart_point(h, rng.uniform(-1.2, 1.2, (119, 3)))
    pts = np.vstack([pts, h.basis[0], rng.normal(size=(8, 4))]).reshape(4, 32, 4)
    for slack in (0.0, 1e-3):
        got = dom.contains_points(pts, slack)
        want = _contains_points_by_affine_chart(dom, pts, slack)
        assert got.dtype == bool and np.array_equal(got, want)
        assert 0 < got.sum() < got.size
    # the row on the chart hyperplane stays outside
    assert not in_chart(h, h.basis[0]) and not got[3, 23]


# --- the projective line contraction constant ---------------------------------


def test_rp1_lambda_symmetric_quadruple():
    lam = rp1_contraction_lambda(-2, -1, 1, 2)
    # center Finsler ratio of (-1,1) in (-2,2) is exactly 2
    assert lam == pytest.approx(2.0, abs=1e-3)


def test_rp1_lambda_projective_invariance():
    rng = np.random.default_rng(7)
    base = rp1_contraction_lambda(-2, -1, 1, 2)
    for _ in range(10):
        m = rng.uniform(-2, 2, (2, 2))
        if abs(np.linalg.det(m)) < 0.3:
            continue

        def mob(x):
            num = m[0, 0] * x + m[0, 1]
            den = m[1, 0] * x + m[1, 1]
            return math.inf if abs(den) < 1e-14 else num / den

        vals = [mob(v) for v in (-2, -1, 1, 2)]
        lam = rp1_contraction_lambda(*vals)
        assert lam == pytest.approx(base, abs=1e-3)


def test_rp1_lambda_tight_nesting_grows():
    lams = [rp1_contraction_lambda(-d, -1, 1, d) for d in (1.5, 2.0, 4.0, 10.0)]
    assert all(b > a for a, b in zip(lams, lams[1:]))
    # coth(D/4) with D = 2 log((d+1)/(d-1)) is d
    assert lams == pytest.approx([1.5, 2.0, 4.0, 10.0], rel=1e-12)


def test_rp1_lambda_loose_nesting_approaches_one():
    lams = [rp1_contraction_lambda(-1 - e, -1, 1, 1 + e) for e in (0.5, 0.1, 0.01)]
    assert all(b < a for a, b in zip(lams, lams[1:]))
    assert lams[-1] < 1.05
    assert all(l > 1 for l in lams)


def test_rp1_lambda_degenerate_outer():
    assert rp1_contraction_lambda(5, -1, 1, 5) == math.inf


def test_rp1_lambda_with_infinity():
    lam = rp1_contraction_lambda(-2, -1, 1, math.inf)
    assert lam > 1


def test_rp1_lambda_bad_order():
    with pytest.raises(BadOrder):
        rp1_contraction_lambda(-1, -1, 1, 2)
    with pytest.raises(BadOrder):  # {b, c} = {-2, 1} separates {a, d} = {-1, 2}
        rp1_contraction_lambda(-1, -2, 1, 2)


def _interval_metric(p, q, x, y):
    """|log cross-ratio| of x, y in the interval with ends p, q: rows of
    lifts, from 2x2 determinants (lift-independent)."""
    def det(u, v):
        return u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]
    return np.abs(np.log(det(x, p) * det(y, q) / (det(x, q) * det(y, p))))


def test_rp1_lambda_matches_a_dense_pair_scan():
    # four increasing angles on RP^1 = [0, pi) taken cyclically from a seeded
    # shift: the inner arc runs from the second to the third, the outer arc
    # from the first to the fourth; every third quadruple puts an endpoint at
    # pi/2, which is the affine coordinate inf
    rng = np.random.default_rng(12)
    n_inf = 0
    for trial in range(24):
        phis = np.sort(rng.uniform(0.0, math.pi, 4))
        k = int(rng.integers(4))
        if trial % 3 == 0:
            phis = (phis + math.pi / 2 - phis[k]) % math.pi
            phis[k] = math.pi / 2
            phis.sort()
        order = [(k + i) % 4 for i in range(4)]  # a, b, c, d
        coords = [math.inf if phis[i] == math.pi / 2 else math.tan(phis[i]) for i in order]
        n_inf += math.inf in coords
        phis = phis[order] + math.pi * (np.array(order) < k)
        lam = rp1_contraction_lambda(*coords)

        def lift(angle):
            return np.stack([np.cos(angle), np.sin(angle)], axis=-1)

        a, b, c, d = (lift(p) for p in phis)
        grid = lift(np.linspace(phis[1], phis[2], 402)[1:-1])
        i, j = np.triu_indices(len(grid), 1)
        x, y = grid[i], grid[j]
        scan = np.min(_interval_metric(b, c, x, y) / _interval_metric(a, d, x, y))
        assert lam <= scan <= lam * (1 + 1e-3), (coords, lam, scan)
    assert n_inf >= 8


# --- plumbing ------------------------------------------------------------------


def test_polytope_needs_enough_vertices():
    with pytest.raises(ValueError):
        ConvexPolytope(H3, [[0.0, 0.0], [1.0, 0.0]])


def test_ball_requires_positive_radius():
    with pytest.raises(ValueError):
        ChartBall(H2, [0.0], -1.0)


def test_proper_domain_closure_in_chart():
    omega = ChartBall(H3, [0.1, 0.2], 0.5)
    for row in omega.boundary_points(64, 0):
        assert abs(H3.covector @ ProjPoint(row).coords) > 1e-6


def test_finsler_factor_interval():
    omega = interval(-1, 1)
    f = finsler_factors(omega, np.array([[0.0], [0.5]]), np.array([[1.0], [1.0]]))
    assert f.tolist() == pytest.approx([2.0, 1 / 1.5 + 1 / 0.5])


# --- array chart map and containment oracle ------------------------------------


def _gram_schmidt_basis(h):
    """Chart basis rebuilt from its definition: Gram-Schmidt over e_0..e_{d-1}
    in index order, skipping the index of the largest |h_i|."""
    d = len(h)
    skip = int(np.argmax(np.abs(h)))
    done = [h]
    for i in range(d):
        if i != skip:
            v = np.eye(d)[i] - sum(float(r @ np.eye(d)[i]) * r for r in done)
            done.append(v / math.sqrt(float(v @ v)))
    return np.array(done[1:])


def _chart_rows(d, seed):
    """Seeded rows: random ones, ones near a unit chart ball, ones on the hyperplane."""
    rng = np.random.default_rng(seed)
    h = ProjHyperplane(rng.normal(size=d))
    free = rng.normal(size=(64, d))
    near = chart_point(h, rng.uniform(-1.2, 1.2, (64, d - 1)))
    on = rng.normal(size=(8, d))
    on -= np.outer(on @ h.covector, h.covector)
    rows = np.vstack([free, near, on])
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    incident = np.arange(len(rows)) >= 128
    return h, rows, incident


@pytest.mark.parametrize("d", [2, 3, 4])
def test_array_chart_matches_formula_and_flags_incident_rows(d):
    h, rows, incident = _chart_rows(d, seed=10 + d)
    assert np.array_equal(in_chart(h, rows), ~incident)
    B = _gram_schmidt_basis(h.covector)
    off = rows[~incident]
    want = np.array([B @ (p / float(h.covector @ p)) for p in off])
    np.testing.assert_allclose(affine_chart(h, off), want, rtol=1e-12, atol=1e-12)
    with pytest.raises(NotInChart):
        affine_chart(h, rows)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_containment_oracle_matches_per_row_contains_coords(d):
    h, rows, incident = _chart_rows(d, seed=20 + d)
    rng = np.random.default_rng(30 + d)
    k = d - 1
    ball = ChartBall(h, rng.uniform(-0.2, 0.2, k), 0.7)
    poly = ConvexPolytope(h, rng.uniform(-0.8, 0.8, (2 * d + 2, k)))
    union = SampledSet([ChartBall(h, np.full(k, -0.3), 0.4), ChartBall(h, np.full(k, 0.3), 0.4)])
    B = _gram_schmidt_basis(h.covector)
    for dom in (ball, poly, union):
        for slack in (0.0, 1e-9):
            got = dom.contains_points(rows, slack=slack)
            want = [
                not inc and bool(dom.contains_coords((B @ (p / float(h.covector @ p)))[None, :],
                                                     slack)[0])
                for p, inc in zip(rows, incident)
            ]
            assert got.tolist() == want
            assert 0 < np.sum(got) < np.sum(~incident)


def test_chart_basis_runs_once_per_hyperplane(monkeypatch):
    calls = []
    real = projgeom.chart_basis
    monkeypatch.setattr(projgeom, "chart_basis", lambda h: calls.append(h) or real(h))
    h, rows, incident = _chart_rows(4, seed=40)
    ball = ChartBall(h, [0.0, 0.0, 0.0], 0.5)
    for _ in range(3):
        ball.contains_points(rows)
        affine_chart(h, rows[~incident])
        ball.boundary_points(16)
    assert calls == [h]


# --- zimmer_metrics: the array form ---------------------------------------------


def _lift(h, coords, rng):
    """Unit rows, random sign, with chart coordinates ``coords``: the lift
    covector + sum_i c_i basis_i of a chart with an orthonormal basis."""
    rows = h.covector + coords @ h.basis
    rows *= rng.choice([-1.0, 1.0], size=(len(coords), 1))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def _ball_chord(center, radius, p, d):
    # roots of |p + s d - center|^2 = radius^2, one line per row of p and d
    q = p - center
    a, b = np.sum(d * d, axis=1), 2.0 * np.sum(q * d, axis=1)
    rt = np.sqrt(b * b - 4 * a * (np.sum(q * q, axis=1) - radius**2))
    return (-b - rt) / (2 * a), (-b + rt) / (2 * a)


def _facet_chord(equations, p, d):
    # scan the facets n.x + b <= 0 of the hull for the nearest crossing each
    # way, one line per row of p and d
    normals, offsets = equations[:, :-1], equations[:, -1]
    den = d @ normals.T
    with np.errstate(divide="ignore", invalid="ignore"):
        s = -(p @ normals.T + offsets) / den
    return (np.where(den < 0, s, -math.inf).max(axis=1),
            np.where(den > 0, s, math.inf).min(axis=1))


def _cross_ratio_metric(s_lo, s_hi):
    # |log (s_lo, s_hi; 0, 1)| for the chord of x = line(0), y = line(1)
    return np.abs(np.log((1.0 - s_lo) * s_hi / ((0.0 - s_lo) * (s_hi - 1.0))))


@pytest.mark.parametrize("d", [3, 4])
@pytest.mark.parametrize("kind", ["ball", "polytope"])
def test_zimmer_metrics_match_independent_chords(d, kind):
    from scipy.spatial import ConvexHull

    rng = np.random.default_rng(40 + d)
    k = d - 1
    h = ProjHyperplane(rng.normal(size=d))
    if kind == "ball":
        center, radius = rng.uniform(-0.2, 0.2, k), 0.6
        omega = ChartBall(h, center, radius)
        inside = center + radius * 0.9 * rng.uniform(-1, 1, (60, k)) / math.sqrt(k)

        def chord(p, q):
            return _ball_chord(center, radius, p, q - p)
    else:
        verts = rng.uniform(-0.7, 0.7, (12, k))
        omega = ConvexPolytope(h, verts)
        eqs = ConvexHull(verts).equations
        w = rng.dirichlet(np.ones(len(omega.vertices)), 60)
        inside = 0.95 * (w @ omega.vertices) + 0.05 * omega.center

        def chord(p, q):
            return _facet_chord(eqs, p, q - p)
    xc, yc = inside[:30], inside[30:]
    want = _cross_ratio_metric(*chord(xc, yc))
    xs, ys = _lift(h, xc, rng), _lift(h, yc, rng)
    got = zimmer_metrics(omega, xs, ys)
    assert got == pytest.approx(want, rel=1e-9)
    # each row is the one-pair call, bit for bit
    pts = [(ProjPoint(x), ProjPoint(y)) for x, y in zip(xs, ys)]
    got = zimmer_metrics(omega, [p.coords for p, _ in pts], [q.coords for _, q in pts])
    assert got.tolist() == [zimmer_metric(omega, p, q) for p, q in pts]


@pytest.mark.parametrize("omega", [
    ChartBall(ProjHyperplane([1.0, 0.0, 0.0]), [0.1, 0.0], 0.5),
    ConvexPolytope(ProjHyperplane([1.0, 0.0, 0.0, 0.0]),
                   [[-0.5, -0.5, -0.5], [0.6, -0.4, -0.5], [-0.4, 0.6, -0.5], [0.0, 0.0, 0.7]]),
    SampledSet([ChartBall(H3, [-0.3, 0.0], 0.2), ChartBall(H3, [0.3, 0.0], 0.2)]),
], ids=["ball", "polytope", "union"])
def test_zimmer_metrics_rows_outside_or_coincident(omega):
    rng = np.random.default_rng(3)
    k = omega.dim - 1
    c = np.asarray(omega.center)
    near = chart_point(omega.chart, c + 0.05 * rng.uniform(-1, 1, (3, k)))
    far = chart_point(omega.chart, c + 5.0).coords
    on_chart = np.linalg.svd(omega.chart.covector[None, :])[2][-1]  # in the chart hyperplane
    xs = [ProjPoint(x) for x in (near[0], near[1], far, near[2], on_chart)]
    ys = [ProjPoint(y) for y in (near[1], near[1], near[0], far, near[0])]
    got = zimmer_metrics(omega, [p.coords for p in xs], [q.coords for q in ys])
    assert 0.0 < got[0] < math.inf
    assert got[1] == 0.0
    assert got[2:].tolist() == [math.inf] * 3
    for p, q, val in zip(xs, ys, got):
        if val == math.inf:
            with pytest.raises(NotInDomain):
                zimmer_metric(omega, p, q)
        else:
            assert zimmer_metric(omega, p, q) == val


# the members ProperDomain declares and leaves to each kind; chords only
# where exact_metric is set
CONTRACT = {"contains_coords", "boundary_coords", "interior_coords", "outward_normals",
            "dual_covectors", "chords"}


def _kinds(cls=ProperDomain):
    for sub in cls.__subclasses__():
        yield sub
        yield from _kinds(sub)


def test_every_domain_kind_implements_the_contract():
    kinds = list(_kinds())
    assert {k.__name__ for k in kinds} == {"ChartBall", "ConvexPolytope", "SampledSet"}
    for kind in kinds:
        needed = CONTRACT if kind.exact_metric else CONTRACT - {"chords"}
        missing = sorted(m for m in needed
                         if getattr(kind, m, None) in (None, getattr(ProperDomain, m, None)))
        assert missing == [], kind.__name__
    stubs = {name for name, f in vars(ProperDomain).items()
             if inspect.isfunction(f) and "raise NotImplementedError" in inspect.getsource(f)}
    assert stubs == CONTRACT


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_union_outward_normals_point_out_of_the_union(dim):
    # a ball and a polytope that overlap: each boundary row takes the normal of
    # the member it lies on, and a step along it leaves the union
    k = dim - 1
    h = ProjHyperplane(np.eye(dim)[-1])
    box = np.array(np.meshgrid(*[[0.0, 0.6]] * k)).reshape(k, -1).T
    union = SampledSet([ChartBall(h, np.full(k, -0.2), 0.4), ConvexPolytope(h, box)])
    rows = union.boundary_coords(64, 3)
    normals = union.outward_normals(rows)
    assert np.allclose(np.linalg.norm(normals, axis=1), 1.0)
    assert not union.contains_coords(rows + 1e-6 * normals).any()
    assert union.contains_coords(rows - 1e-6 * normals).all()
    on_ball = np.abs(np.linalg.norm(rows + 0.2, axis=1) - 0.4) < 1e-9
    assert 0 < on_ball.sum() < len(rows)
    assert np.allclose(normals[on_ball], (rows[on_ball] + 0.2) / 0.4)
