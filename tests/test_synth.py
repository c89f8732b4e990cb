import math
from pathlib import Path

import numpy as np
import pytest

from flagdyn import circle
from flagdyn.automaton import ParabolicFamily, Singleton, verify_compatibility
from flagdyn.circle import Arc, angle_dist, mobius_arc
from flagdyn.config import RunConfig
from flagdyn.errors import SynthesisFailed
from flagdyn.linalg import Matrix
from flagdyn.synth import (
    _WINDOW_SLACK,
    SynthesisParams,
    _ConicalSearcher,
    _expansion_windows,
    _fundamental_interval,
    synthesize_rp1,
)
from flagdyn.systems import schottky_presentation
from flagdyn.words import GroupPresentation, Peripheral

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


@pytest.fixture(scope="module")
def modular_presentation():
    return GroupPresentation(
        dim=2,
        generators={
            "t": Matrix([[1, 1], [0, 1]]),
            "s": Matrix([[0, -1], [1, 0]]),
            "r": Matrix([[0, 1], [1, 0]]),
        },
        peripherals=[Peripheral("pt", ["t"], truncation=80, parabolic_point=[1, 0])],
    )


@pytest.fixture(scope="module")
def modular_synthesis(modular_presentation):
    return synthesize_rp1(modular_presentation, SynthesisParams(word_radius=10))


def test_fundamental_interval_translation():
    rho = GroupPresentation(dim=2, generators={"t": Matrix([[1, 1], [0, 1]])})
    K = _fundamental_interval(rho, "t", 0.0)
    # the arc [pi/4, pi/2] between the antipode of the fixed point and its
    # translate, avoiding the fixed point at angle 0
    assert K.contains_angle(math.pi / 4 + 1e-9)
    assert K.contains_angle(math.pi / 2 - 1e-9)
    assert not K.contains_angle(0.0)
    assert K.radius == pytest.approx(math.pi / 8)


def test_modular_synthesis_certifies(modular_presentation, modular_synthesis):
    res = modular_synthesis
    cert = verify_compatibility(res.graph, res.system, modular_presentation,
                                element_cap=60)
    assert cert.ok
    assert cert.min_margin > 0


def test_modular_synthesis_has_parabolic_vertices(modular_synthesis):
    labels = modular_synthesis.graph.vertices.values()
    assert any(isinstance(l, ParabolicFamily) for l in labels)
    assert any(isinstance(l, Singleton) for l in labels)


def test_modular_synthesis_inner_sets_cover(modular_synthesis):
    res = modular_synthesis
    arcs = list(res.inner_sets.values())
    for z in np.linspace(0, math.pi, 1000, endpoint=False):
        assert any(a.contains_angle(z, slack=1e-9) for a in arcs)


def test_modular_synthesis_self_consistent(modular_synthesis):
    # every W has diameter below delta; V inside W; U centered at the point
    res = modular_synthesis
    for vid in res.graph.vertices:
        v, w = res.inner_sets[vid], res.outer_sets[vid]
        assert 2 * w.radius < 0.05 + 1e-12
        assert angle_dist(v.center, w.center) + v.radius <= w.radius + 1e-9


def test_modular_vertex_edge_counts_regression(modular_synthesis):
    # pinned on first successful run; synthesis is deterministic
    res = modular_synthesis
    n_par = sum(1 for l in res.graph.vertices.values() if isinstance(l, ParabolicFamily))
    assert (len(res.graph.vertices), len(res.graph.edges), n_par) == (279, 2845, 4)


def test_schottky_synthesis_parabolic_free():
    rho = schottky_presentation()
    res = synthesize_rp1(rho, SynthesisParams(epsilon=0.05, delta=0.05,
                                              word_radius=6, grid=720))
    assert all(isinstance(l, Singleton) for l in res.graph.vertices.values())
    cert = verify_compatibility(res.graph, res.system, rho)
    assert cert.ok
    # recurrent structure concentrates near the four classical intervals
    centers = [0.0, math.pi / 4, math.pi / 2, 3 * math.pi / 4]
    for angle in res.boundary_points.values():
        assert min(angle_dist(angle, c) for c in centers) < 0.45


def test_schottky_synthesis_limits_match_hand_built():
    # limits computed through the synthesized automaton must land inside
    # the hand-built ping-pong intervals
    from flagdyn.automaton import enumerate_paths
    from flagdyn.circle import angle_of
    from flagdyn.dynamics import contracting_limit
    from flagdyn.systems import schottky_domains

    rho = schottky_presentation()
    res = synthesize_rp1(rho, SynthesisParams(epsilon=0.05, delta=0.05,
                                              word_radius=6, grid=720))
    paths, _ = enumerate_paths(res.graph, 10, "random", rho, seed=3, cap=20)
    hand = [d.arc().expand(0.05) for d in schottky_domains().values()]
    for p in paths:
        r = contracting_limit(p, rho, res.system)
        a = angle_of(r.limit.coords)
        assert any(arc.contains_angle(a, slack=1e-9) for arc in hand)


def test_empty_generator_set_fails():
    with pytest.raises(SynthesisFailed):
        synthesize_rp1(GroupPresentation(dim=2, generators={}), SynthesisParams())


def test_wrong_dimension_fails():
    rho = GroupPresentation(dim=3, generators={"g": Matrix(np.diag([2.0, 1.0, 0.5]))})
    with pytest.raises(SynthesisFailed):
        synthesize_rp1(rho, SynthesisParams())


def test_non_parabolic_declaration_fails():
    rho = GroupPresentation(
        dim=2,
        generators={"t": Matrix([[1, 1], [0, 1]])},
        peripherals=[Peripheral("pt", ["t"], parabolic_point=[1, 1])],
    )
    with pytest.raises(SynthesisFailed):
        synthesize_rp1(rho, SynthesisParams())


def _full_pool_candidate(searcher, z):
    """First hit of the whole pool's mask: the search without windows."""
    p = searcher.params
    vz = np.array([math.cos(z), math.sin(z)])
    pulls = circle.angles(searcher.invs @ vz)
    cw, rw = circle.mobius_arcs(searcher.mats, pulls, 2 * p.delta)
    cwe, rwe = circle.mobius_arcs(searcher.mats, pulls, 2 * p.delta + 2 * p.epsilon)
    ok = (2 * rw < p.delta) & (circle.angle_dists(cwe, z) + rwe < p.epsilon)
    if not ok.any():
        return None
    i = int(np.argmax(ok))
    v = mobius_arc(searcher.mats[i], Arc(float(pulls[i]), p.delta))
    return (i, searcher.words[i], float(pulls[i]), (v.center, v.radius),
            (float(cw[i]), float(rw[i])))


def _assert_search_matches_the_oracle(searcher, zs):
    """``candidates`` on all zs at once, and ``candidate`` per z, equal the
    full-pool oracle field for field; returns the oracle's hit indices."""
    hit_at = []
    for z, batched in zip(zs, searcher.candidates(zs)):
        ref = _full_pool_candidate(searcher, z)
        for got in (batched, searcher.candidate(z)):
            if ref is None:
                assert got is None
                continue
            i, word, pull, v, w = ref
            assert got is not None
            assert (got.word, got.z_angle, got.pullback) == (word, z, pull)
            assert (got.v.center, got.v.radius) == v
            assert (got.w.center, got.w.radius) == w
        if ref is not None:
            hit_at.append(ref[0])
    return hit_at


def _in_window(searcher, zs):
    """(z, word) membership of the expansion windows, shape (len(zs), pool)."""
    centers, radii = _expansion_windows(searcher.mats, searcher.params.delta)
    return circle.angle_dists(np.asarray(zs)[:, None], centers[None, :]) <= radii[None, :]


def _first_test(searcher, z):
    """Mask of the pool rows that pass the first test at z, over the whole pool."""
    p = searcher.params
    pulls = circle.angles(searcher.invs @ np.array([math.cos(z), math.sin(z)]))
    _, rw = circle.mobius_arcs(searcher.mats, pulls, 2 * p.delta)
    return 2 * rw < p.delta


def test_windowed_search_returns_the_first_hit_of_the_whole_pool(modular_presentation):
    searcher = _ConicalSearcher(modular_presentation,
                                SynthesisParams(word_radius=4, coset_ball=1, lead_powers=6))
    zs = [float(z) for z in np.random.default_rng(0).uniform(0.0, math.pi, 300)]
    hit_at = _assert_search_matches_the_oracle(searcher, zs)
    assert 0 < len(hit_at) < 300
    assert max(hit_at) > 64
    assert _in_window(searcher, zs).mean() < 0.5


@pytest.fixture(scope="module")
def pgl2z_searcher():
    cfg = RunConfig.load(str(CONFIGS / "pgl2z.json"))
    return _ConicalSearcher(cfg.presentation(), SynthesisParams(**cfg.raw["synthesis"]))


def test_windows_keep_every_passing_row_at_the_pgl2z_parameters(pgl2z_searcher):
    searcher = pgl2z_searcher
    grid = np.linspace(0.0, math.pi, searcher.params.grid, endpoint=False)
    zs = [float(z) for z in np.random.default_rng(11).choice(grid, 256, replace=False)]
    inside = _in_window(searcher, zs)
    for z, row in zip(zs, inside):
        assert not (_first_test(searcher, z) & ~row).any()
    assert inside.mean() < 0.05
    assert len(_assert_search_matches_the_oracle(searcher, zs)) > 200


@pytest.mark.parametrize("params", [
    SynthesisParams(word_radius=6, grid=720),
    # 4 delta >= pi: every window is the whole circle
    SynthesisParams(word_radius=4, delta=0.9, epsilon=0.3),
])
def test_windows_keep_every_passing_row_without_peripherals(params):
    searcher = _ConicalSearcher(schottky_presentation(), params)
    zs = [float(z) for z in np.random.default_rng(12).uniform(0.0, math.pi, 256)]
    for z, row in zip(zs, _in_window(searcher, zs)):
        assert not (_first_test(searcher, z) & ~row).any()
    assert _assert_search_matches_the_oracle(searcher, zs)


def test_search_at_window_edges(pgl2z_searcher):
    # z within 1e-9 of the edges of the exact pass regions, which lie
    # _WINDOW_SLACK inside the window edges
    searcher = pgl2z_searcher
    centers, radii = _expansion_windows(searcher.mats, searcher.params.delta)
    rows = np.flatnonzero(radii > 0)[::40]
    edge = radii[rows] - _WINDOW_SLACK
    offsets = np.random.default_rng(13).uniform(-1e-9, 1e-9, (2, len(rows)))
    zs = [float(z) % math.pi for z in np.concatenate(
        [centers[rows] + edge + offsets[0], centers[rows] - edge + offsets[1]])]
    for z, row in zip(zs, _in_window(searcher, zs)):
        assert not (_first_test(searcher, z) & ~row).any()
    assert _assert_search_matches_the_oracle(searcher, zs)
