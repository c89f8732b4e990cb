import math

import numpy as np
import pytest

from flagdyn import circle
from flagdyn.automaton import ParabolicFamily, Singleton, verify_compatibility
from flagdyn.circle import Arc, angle_dist, mobius_arc
from flagdyn.errors import SynthesisFailed
from flagdyn.linalg import Matrix
from flagdyn.synth import (
    _SEARCH_STAGES,
    SynthesisParams,
    _ConicalSearcher,
    _fundamental_interval,
    synthesize_rp1,
)
from flagdyn.systems import schottky_presentation
from flagdyn.words import GroupPresentation, Peripheral


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
    """First hit of the whole pool's mask: the search without stages."""
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


def test_staged_search_returns_the_first_hit_of_the_whole_pool(modular_presentation):
    searcher = _ConicalSearcher(modular_presentation,
                                SynthesisParams(word_radius=4, coset_ball=1, lead_powers=6))
    assert len(searcher.words) > _SEARCH_STAGES[0]
    hit_at = []
    for z in np.random.default_rng(0).uniform(0.0, math.pi, 300):
        ref = _full_pool_candidate(searcher, float(z))
        got = searcher.candidate(float(z))
        if ref is None:
            assert got is None
            continue
        i, word, pull, v, w = ref
        assert got is not None
        assert (got.word, got.pullback) == (word, pull)
        assert (got.v.center, got.v.radius) == v
        assert (got.w.center, got.w.radius) == w
        hit_at.append(i)
    assert len(hit_at) < 300
    assert min(hit_at) < _SEARCH_STAGES[0] <= max(hit_at)
