import functools
import json
import math
from pathlib import Path

import numpy as np
import pytest

from flagdyn.automaton import CompatibleSystem, GPath, enumerate_paths, verify_compatibility
from flagdyn.circle import Arc, angle_dist, angle_of, mobius_arcs
from flagdyn.config import RunConfig
from flagdyn.domains import ChartBall, arc_ball, zimmer_metric
from flagdyn.dynamics import (
    _pluecker,
    attracting_data,
    contracting_limits,
    equivariance_check,
    limit_set_sample,
    local_to_global_check,
    radius_floor,
    shrink_rates,
)
from flagdyn.errors import GapTooSmall, InsufficientData, NotCertified
from flagdyn.linalg import Matrix, gap_trace
from flagdyn.projgeom import ProjHyperplane, ProjPoint, fubini_study
from flagdyn.words import GroupPresentation, parse_word


def _certified(cfg):
    """The presentation, graph, system and passing certificate of a config."""
    rho, graph, system = cfg.presentation(), cfg.graph(), cfg.system()
    cert = verify_compatibility(graph, system, rho)
    assert cert.ok
    return rho, graph, system, cert


@pytest.fixture(scope="module")
def certified_schottky(schottky_cfg):
    return _certified(schottky_cfg)


@pytest.fixture(scope="module")
def certified_loop(single_loop_cfg):
    return _certified(single_loop_cfg)


def _rotation2(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


# --- contracting limits -----------------------------------------------------


def test_loop_limit_is_attracting_point(certified_loop):
    rho, graph, system, cert = certified_loop
    paths, _ = enumerate_paths(graph, 15, "random", rho, cap=1)
    res = contracting_limits([paths[0]], rho, system, certificate=cert)[0]
    assert fubini_study(res.limit, ProjPoint([1.0, 0.0])) < 1e-9
    assert all(b <= a * (1 + 1e-9) for a, b in zip(res.diameters[1:], res.diameters[2:]))


def test_loop_rate_matches_mobius_derivative(certified_loop):
    # contraction of x -> x/16 at the fixed point is 1/16 per step
    rho, graph, system, cert = certified_loop
    paths, _ = enumerate_paths(graph, 20, "random", rho, cap=1)
    res = contracting_limits([paths[0]], rho, system, certificate=cert)[0]
    rep = shrink_rates([res], depth_range=(5, 20))
    assert rep.lambda2 == pytest.approx(2 * math.log(4), rel=0.1)
    assert rep.r_squared >= 0.98


def test_rate_bound_dominates(certified_loop):
    rho, graph, system, cert = certified_loop
    paths, _ = enumerate_paths(graph, 18, "random", rho, cap=1)
    res = contracting_limits([paths[0]], rho, system, certificate=cert)[0]
    rep = shrink_rates([res], depth_range=(3, 18))
    for n, d in enumerate(res.diameters, start=1):
        if rep.depth_range[0] <= n <= rep.depth_range[1]:
            assert d <= rep.lambda1 * math.exp(-rep.lambda2 * n) * (1 + 1e-9)


def test_schottky_limits_match_interval_ifs(certified_schottky):
    # oracle: iterated Mobius images of the target interval
    rho, graph, system, cert = certified_schottky
    paths, _ = enumerate_paths(graph, 12, "random", rho, seed=9, cap=10)
    for p in paths:
        res = contracting_limits([p], rho, system, certificate=cert)[0]
        arc = system.domain(p.vertices[-1]).arc()
        m = Matrix(np.eye(2))
        for w in p.words:
            m = m @ rho.evaluate(w)
        c, r = mobius_arcs(m.arr[None], arc.center, arc.radius)
        assert angle_dist(angle_of(res.limit.coords), c[0]) <= r[0] + 1e-9


def test_prefix_shift_identity(certified_schottky):
    from flagdyn.automaton import GPath
    from flagdyn.projgeom import act

    rho, graph, system, cert = certified_schottky
    paths, _ = enumerate_paths(graph, 14, "random", rho, seed=5, cap=8)
    for p in paths:
        res = contracting_limits([p], rho, system, certificate=cert)[0]
        rest = GPath(p.vertices[1:], p.words[1:])
        res_rest = contracting_limits([rest], rho, system, certificate=cert)[0]
        lhs = res.limit
        rhs = act(rho.evaluate(p.words[0]), res_rest.limit)
        assert fubini_study(lhs, rhs) <= 2 * (res.radius_bound + res_rest.radius_bound)


def test_monotone_nesting_along_paths(certified_schottky):
    rho, graph, system, cert = certified_schottky
    paths, _ = enumerate_paths(graph, 10, "random", rho, seed=3, cap=6)
    for p in paths:
        m = Matrix(np.eye(2))
        prev = None
        for n, w in enumerate(p.words):
            m = m @ rho.evaluate(w)
            arc = system.domain(p.vertices[n + 1]).arc()
            c, r = mobius_arcs(m.arr[None], arc.center, arc.radius)
            img = Arc(float(c[0]), float(r[0]))
            if prev is not None:
                assert prev.margin_of_arc(img) >= -1e-12
            prev = img


def test_limit_stability_depth_refinement(certified_schottky):
    rho, graph, system, cert = certified_schottky
    paths, _ = enumerate_paths(graph, 20, "random", rho, seed=13, cap=5)
    for p in paths:
        r15 = contracting_limits([GPath(p.vertices[:16], p.words[:15])], rho, system,
                                 certificate=cert)[0]
        r20 = contracting_limits([p], rho, system, certificate=cert)[0]
        assert fubini_study(r15.limit, r20.limit) <= r15.radius_bound + 1e-15


def test_gap_growth_along_paths(certified_schottky):
    rho, graph, _, _ = certified_schottky
    paths, _ = enumerate_paths(graph, 25, "random", rho, seed=21, cap=4)
    for p in paths:
        tail = gap_trace([rho.evaluate(w) for w in p.words], 1)[2:]
        assert all(b >= a - 1e-9 for a, b in zip(tail, tail[1:]))


def test_uncertified_path_rejected(certified_schottky, schottky_repelling_cfg):
    rho, graph, system, cert = certified_schottky
    bad = verify_compatibility(graph, schottky_repelling_cfg.system(), rho)
    paths, _ = enumerate_paths(graph, 5, "random", rho, seed=1, cap=1)
    with pytest.raises(NotCertified):
        contracting_limits([paths[0]], rho, system, certificate=bad)[0]


def test_flat_diameters_rejected():
    class Fake:
        diameters = [0.5] * 10

    with pytest.raises(InsufficientData):
        shrink_rates([Fake()], depth_range=(1, 10))


# --- limit set sampling -------------------------------------------------------


def test_limit_set_cantor_gaps(certified_schottky):
    # no sampled limit point may fall in the four declared gap intervals
    rho, graph, system, cert = certified_schottky
    results = limit_set_sample(graph, rho, system, depth=20, count=500, seed=4,
                               certificate=cert)
    centers = [0.0, math.pi / 4, math.pi / 2, 3 * math.pi / 4]
    for r in results:
        a = angle_of(r.limit.coords)
        assert min(angle_dist(a, c) for c in centers) <= 0.3
    assert len(results) == 500


def test_limit_set_single_cluster(certified_loop):
    rho, graph, system, cert = certified_loop
    results = limit_set_sample(graph, rho, system, depth=15, count=20, seed=2,
                               certificate=cert)
    for r in results:
        assert fubini_study(r.limit, ProjPoint([1.0, 0.0])) < 1e-6


def test_limit_set_deterministic(certified_schottky):
    rho, graph, system, cert = certified_schottky
    c1 = limit_set_sample(graph, rho, system, 10, 50, seed=8, certificate=cert)
    c2 = limit_set_sample(graph, rho, system, 10, 50, seed=8, certificate=cert)
    assert [r.path.code() for r in c1] == [r.path.code() for r in c2]
    assert all(np.array_equal(r.limit.coords, q.limit.coords) for r, q in zip(c1, c2))


def test_limit_set_invariance(certified_schottky):
    # generator images of limit points stay inside the vertex domains
    from flagdyn.projgeom import act

    rho, graph, system, cert = certified_schottky
    results = limit_set_sample(graph, rho, system, 18, 100, seed=6, certificate=cert)
    doms = [system.domain(v).arc() for v in graph.vertices]
    for r in results:
        q = act(rho.generators["a"], r.limit)
        assert any(d.contains_angle(angle_of(q.coords), slack=1e-9) for d in doms)


# --- attracting data -----------------------------------------------------------


def test_attracting_data_diagonal():
    att, rep = attracting_data(Matrix(np.diag([4.0, 2.0, 1.0])), 1)
    assert fubini_study(att, ProjPoint([1, 0, 0])) < 1e-12
    assert np.allclose(np.abs(rep.covector), [1, 0, 0])


def test_attracting_data_inverse_swaps():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(3, 3)) + np.diag([6.0, 1.0, 0.1])
    m = Matrix(a)
    att, rep = attracting_data(m, 1)
    att_i, rep_i = attracting_data(m.inv(), 1)
    # the attracting point of the inverse lies on the repelling hyperplane
    # of the element and vice versa (exact svd symmetry)
    assert abs(float(att_i.coords @ rep.covector)) < 1e-9
    assert abs(float(att.coords @ rep_i.covector)) < 1e-9


def test_attracting_data_inverse_swap_2d():
    # on the projective line the repelling point of the inverse IS the
    # attracting point
    m = Matrix(np.array([[3.0, 1.0], [0.5, 1.0]]))
    att, rep = attracting_data(m, 1)
    att_i, rep_i = attracting_data(m.inv(), 1)
    ker_rep_i = ProjPoint([rep_i.covector[1], -rep_i.covector[0]])
    assert fubini_study(att, ker_rep_i) < 1e-10


def test_attracting_data_transpose_duality():
    rng = np.random.default_rng(4)
    a = rng.normal(size=(4, 4)) + np.diag([8.0, 1.0, 0.5, 0.1])
    m = Matrix(a)
    att, rep = attracting_data(m, 1)
    att_t, rep_t = attracting_data(Matrix(m.arr.T), 1)
    assert abs(float(att.coords @ rep_t.covector)) > 1 - 1e-10
    assert abs(float(att_t.coords @ rep.covector)) > 1 - 1e-10


def test_attracting_data_ignores_column_signs():
    # attracting_data takes LAPACK's singular vectors as they are: flipping
    # any columns of a frame gives the same ProjPoint bits
    rng = np.random.default_rng(8)
    for d in range(2, 6):
        for _ in range(20):
            u = np.linalg.svd(rng.normal(size=(d, d)))[0]
            for k in range(1, d):
                want = ProjPoint(_pluecker(u[:, :k])).coords
                for _ in range(4):
                    s = rng.choice([-1.0, 1.0], size=k)
                    assert ProjPoint(_pluecker(u[:, :k] * s)).coords.tobytes() == want.tobytes()


def test_attracting_data_gap_threshold():
    with pytest.raises(GapTooSmall):
        attracting_data(Matrix(_rotation2(0.3)), 1)


def test_attracting_data_contraction_bound():
    rng = np.random.default_rng(5)
    m = Matrix(np.diag([200.0, 1.0, 0.7]) @ systems_rotation3(rng))
    att, rep = attracting_data(m, 1)
    s = np.linalg.svd(m.arr, compute_uv=False)
    for _ in range(100):
        v = rng.normal(size=3)
        p = ProjPoint(v)
        if abs(float(p.coords @ rep.covector)) < 0.1:
            continue
        from flagdyn.projgeom import act

        assert fubini_study(act(m, p), att) < 2 * s[1] / s[0] / 0.1


def systems_rotation3(rng):
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    return q


# --- local to global ------------------------------------------------------------


def test_local_global_diagonal_sequence():
    seq = [Matrix._of_floats(np.diag([2.0**n, 1.0, 2.0**-n])) for n in range(1, 30)]
    U = ChartBall(ProjHyperplane([1.0, 0, 0]), [0.3, 0.3], 0.2)
    rep = local_to_global_check(seq, U)
    assert rep.verdict == "P-divergent"
    assert rep.gaps_confirm_contraction and rep.contraction_confirms_gaps


def test_local_global_rotation_sequence():
    seq = [Matrix._of_floats(np.linalg.matrix_power(_rotation2(0.9), n))
           for n in range(1, 40)]
    rep = local_to_global_check(seq, arc_ball(0.3, 0.2))
    assert rep.verdict == "not P-divergent"


def test_local_global_jordan_sequence(jordan_diag_cfg):
    A = jordan_diag_cfg.presentation(0.0).generators["A"].arr
    seq = [Matrix._of_floats(np.linalg.matrix_power(A, n)) for n in range(1, 201)]
    U = ChartBall(ProjHyperplane([0.0, 1.0, 0, 0]), [2.0, 0.6, 0.6], 0.05)
    rep = local_to_global_check(seq, U, n_samples=32)
    assert rep.verdict == "P-divergent"
    assert rep.fs_diameters[-1] < 1e-3
    assert rep.gap_trace[-1] > 5.0
    assert rep.limit_consistent


# --- equivariance -----------------------------------------------------------------


def test_equivariance_schottky(certified_schottky):
    rho, graph, system, cert = certified_schottky
    paths, _ = enumerate_paths(graph, 20, "random", rho, seed=11, cap=100)
    results = contracting_limits(paths, rho, system, certificate=cert)
    out = equivariance_check(graph, rho, system, parse_word("a"), results,
                             certificate=cert)
    assert out["pass"]
    assert out["checked"] == 100
    assert out["max_defect"] <= out["max_bound"]


def test_equivariance_corrupted_rep_fails(certified_schottky):
    from flagdyn.words import GroupPresentation

    rho, graph, system, cert = certified_schottky
    paths, _ = enumerate_paths(graph, 15, "random", rho, seed=12, cap=30)
    results = contracting_limits(paths, rho, system, certificate=cert)
    bad = GroupPresentation(
        dim=2,
        generators={"a": Matrix([[1.0, 0.4], [0.2, 1.0]]), "b": rho.generators["b"]},
    )
    out = equivariance_check(graph, bad, system, parse_word("a"), results)
    assert not out["pass"]
    assert out["max_defect"] > 1e-3


def test_radius_floor_positive():
    assert radius_floor(2) == pytest.approx(2e-15)


@pytest.mark.parametrize("diag", [(4.0, 0.25), (-4.0, 0.25)])
def test_rp1_diameters_match_zimmer_metric_of_image_endpoints(diag):
    # the engine's cross-ratio identity against the line-section metric of
    # the image arc's endpoints; the det -1 generator checks the tracked sign
    rho = GroupPresentation(dim=2, generators={"g": Matrix(np.diag(diag))})
    dom = arc_ball(0.0, 0.3)
    system = CompatibleSystem(domains={"v": dom})
    path = GPath(["v"] * 4, [parse_word("g")] * 3)
    res = contracting_limits([path], rho, system)[0]
    ends = np.array([[math.cos(0.3), -math.sin(0.3)], [math.cos(0.3), math.sin(0.3)]])
    for n, diam in enumerate(res.diameters, start=1):
        x, y = ends @ np.linalg.matrix_power(np.diag(diag), n).T
        assert diam == pytest.approx(zimmer_metric(dom, ProjPoint(x), ProjPoint(y)), rel=1e-9)


def test_off_domain_image_has_infinite_diameter():
    # identity words map the far domain W to itself, outside U1 = U
    chart = ProjHyperplane([1.0, 0.0, 0.0])
    system = CompatibleSystem(
        domains={"u": ChartBall(chart, [0.0, 0.0], 0.1), "w": ChartBall(chart, [5.0, 5.0], 0.1)},
    )
    rho = GroupPresentation(dim=3, generators={"g": Matrix(np.eye(3))})
    path = GPath(["u", "w", "w"], [parse_word("g")] * 2)
    res = contracting_limits([path], rho, system)[0]
    assert res.diameters == [math.inf, math.inf]
    # in one batch with it: h translates the smaller V at W's center into U,
    # so this path's depth 1 images lie inside U and only its depth 2 image
    # (h g U = h U) leaves U
    system.domains["v"] = ChartBall(chart, [5.0, 5.0], 0.05)
    h = Matrix(np.array([[1.0, 0.0, 0.0], [-5.0, 1.0, 0.0], [-5.0, 0.0, 1.0]]))
    rho = GroupPresentation(dim=3, generators={"g": Matrix(np.eye(3)), "h": h})
    mixed = GPath(["u", "v", "u"], [parse_word("h"), parse_word("g")])
    res_path, res_mixed = contracting_limits([path, mixed], rho, system)
    assert res_path.diameters == [math.inf, math.inf]
    assert 0.0 < res_mixed.diameters[0] < math.inf
    assert res_mixed.diameters[1] == math.inf


# --- batched paths ------------------------------------------------------------

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _mul2(m, n):
    return ((m[0][0] * n[0][0] + m[0][1] * n[1][0], m[0][0] * n[0][1] + m[0][1] * n[1][1]),
            (m[1][0] * n[0][0] + m[1][1] * n[1][0], m[1][0] * n[0][1] + m[1][1] * n[1][1]))


def _image_angle(m, phi):
    x, y = math.cos(phi), math.sin(phi)
    return math.atan2(m[1][0] * x + m[1][1] * y, m[0][0] * x + m[0][1] * y)


def test_rp1_diameters_match_a_sine_cross_ratio_of_explicit_products():
    # oracle from the config JSON alone: float 2x2 products letter by letter,
    # inverses by adjugate, arc endpoints at center -+ radius; for unit
    # vectors at angles u, v the bracket [u v] is sin(v - u)
    raw = json.loads((CONFIGS / "schottky.json").read_text())
    letters = {}
    for g in raw["generators"]:
        (a, b), (c, d) = [[float(x) for x in row] for row in g["matrix"]]
        letters[g["name"], 1] = ((a, b), (c, d))
        letters[g["name"], -1] = ((d, -b), (-c, a))
    ends = {v: (d["center_angle"] - d["radius_angle"], d["center_angle"] + d["radius_angle"])
            for v, d in raw["domains"].items()}

    cfg = RunConfig.load(CONFIGS / "schottky.json")
    rho, graph = cfg.presentation(), cfg.graph()
    paths, _ = enumerate_paths(graph, 6, "random", rho, seed=4, cap=24)
    results = contracting_limits(paths, rho, cfg.system())
    for path, res in zip(paths, results):
        A, B = ends[path.vertices[0]]
        m = ((1.0, 0.0), (0.0, 1.0))
        for n, word in enumerate(path.words, start=1):
            for name, e in word:
                for _ in range(abs(e)):
                    m = _mul2(m, letters[name, 1 if e > 0 else -1])
            X, Y = (_image_angle(m, phi) for phi in ends[path.vertices[n]])
            cross = (math.sin(B - X) * math.sin(A - Y)) / (math.sin(A - X) * math.sin(B - Y))
            assert res.diameters[n - 1] == pytest.approx(abs(math.log(cross)), rel=1e-6)


def _jordan_d4():
    # the benchmark's d = 4 config: jordan_diag.json at depth 8, 32 paths
    raw = json.loads((CONFIGS / "jordan_diag.json").read_text())
    raw["budgets"].update({"depth": 8, "path_count": 32})
    return RunConfig.from_dict(raw)


def test_sampled_radius_bound_is_the_farthest_fs_distance():
    # the bound is the largest FS distance from the limit to the images of the
    # target's samples, plus radius_floor; at depth 8 these distances are
    # about 1e-9, below the angles sqrt(1 - c^2) resolves from c = |x.c|
    cfg = _jordan_d4()
    rho, graph = cfg.presentation(), cfg.graph()
    system = cfg.system()
    paths, _ = enumerate_paths(graph, 8, "random", rho, seed=7, cap=6)
    for path, res in zip(paths, contracting_limits(paths, rho, system)):
        n = len(res.diameters)
        prod = functools.reduce(np.matmul, [rho.evaluate(w).arr for w in path.words[:n]])
        U = system.domain(path.vertices[n])
        samples = np.vstack([U.boundary_points(32, 0), U.interior_points(16, 0),
                             U.center_point().coords])
        far = max(fubini_study(res.limit, ProjPoint(prod @ x)) for x in samples)
        assert 1e-10 < far < 1e-8
        assert res.radius_bound == pytest.approx(far + radius_floor(4), rel=1e-6)


@pytest.mark.parametrize("name", ["schottky", "jordan-d4"])
def test_batched_paths_match_one_path_calls(name):
    cfg = _jordan_d4() if name == "jordan-d4" else RunConfig.load(CONFIGS / "schottky.json")
    rho, graph = cfg.presentation(), cfg.graph()
    system = cfg.system()
    paths, _ = enumerate_paths(graph, cfg.budgets["depth"], "random", rho, seed=7, cap=32)
    # mixed start vertices, and two shorter paths that run to their own depth
    assert len({p.vertices[0] for p in paths}) > 1
    paths += [GPath(p.vertices[:5], p.words[:4]) for p in paths[:2]]
    batch = contracting_limits(paths, rho, system)
    for path, res in zip(paths, batch):
        one = contracting_limits([path], rho, system)[0]
        assert res == one
        assert len(res.diameters) == path.depth
