import math

import numpy as np
import pytest

import flagdyn.automaton as automaton
import flagdyn.systems as systems
from flagdyn.automaton import (
    Certificate,
    CompatibleSystem,
    GammaGraph,
    ParabolicFamily,
    Singleton,
    TailDisclosure,
    check_divergence,
    elements_of,
    enumerate_paths,
    peripheral_stability_probe,
    verify_compatibility,
)
from flagdyn.circle import Arc, mobius_arc
from flagdyn.errors import BaseFails, EvaluationError, MissingDomain
from flagdyn.linalg import Matrix
from flagdyn.systems import (
    arc_ball,
    jordan_graph,
    jordan_presentation,
    jordan_system,
    schottky_graph,
    schottky_presentation,
    schottky_repelling_system,
    schottky_system,
    single_loop_system,
)
from flagdyn.words import GroupPresentation, Peripheral, parse_word


@pytest.fixture(scope="module")
def schottky():
    return schottky_presentation(), schottky_graph(), schottky_system()


def test_one_vertex_attracting_interval():
    rho, graph, system = single_loop_system()
    cert = verify_compatibility(graph, system, rho)
    assert cert.ok
    # closed-form oracle: the interval image under x -> x/16 in the chart
    target = system.domain("v").arc().expand(graph.epsilon)
    g = rho.generators["g"].arr
    img = mobius_arc(g, target)
    home = system.domain("v").arc()
    oracle_margin = home.margin_of_arc(img)
    assert cert.min_margin == pytest.approx(oracle_margin, abs=1e-12)


def test_one_vertex_repelling_interval_fails():
    rho, graph, _ = single_loop_system()
    bad = CompatibleSystem(domains={"v": arc_ball(math.pi / 2, 0.3)}, epsilon=0.05)
    cert = verify_compatibility(graph, bad, rho)
    assert not cert.ok
    assert cert.min_margin < 0


def test_schottky_certifies_with_oracle_margin(schottky):
    rho, graph, system = schottky
    cert = verify_compatibility(graph, system, rho)
    assert cert.ok
    oracle = math.inf
    for v, w in graph.edges:
        m = rho.evaluate(graph.vertices[v].word)
        img = mobius_arc(m.arr, system.domain(w).arc().expand(graph.epsilon))
        oracle = min(oracle, system.domain(v).arc().margin_of_arc(img))
    assert cert.min_margin == pytest.approx(oracle, abs=1e-6)


def test_schottky_repelling_fails(schottky):
    rho, graph, _ = schottky
    cert = verify_compatibility(graph, schottky_repelling_system(), rho)
    assert not cert.ok


def test_certificate_soundness_finer_sampling():
    # higher-dimensional sampled route: refining the boundary budget must
    # keep at least half of every recorded margin
    rho = jordan_presentation()
    graph = jordan_graph()
    system = jordan_system()
    coarse = verify_compatibility(graph, system, rho, n_boundary=32, n_interior=16,
                                  element_cap=12)
    fine = verify_compatibility(graph, system, rho, n_boundary=128, n_interior=64,
                                element_cap=12)
    assert coarse.ok and fine.ok
    coarse_by_key = {(r.edge, r.word): r.margin for r in coarse.records}
    for r in fine.records:
        old = coarse_by_key[(r.edge, r.word)]
        assert r.margin >= old / 2


def test_identity_label_rejected():
    rho, _, system = single_loop_system()
    graph = GammaGraph(
        vertices={"v": Singleton(parse_word("g g^-1"))}, edges=[("v", "v")], epsilon=0.05
    )
    with pytest.raises(EvaluationError):
        verify_compatibility(graph, system, rho)


def test_missing_domain():
    rho, graph, _ = single_loop_system()
    system = CompatibleSystem(domains={}, epsilon=0.05)
    with pytest.raises(MissingDomain):
        verify_compatibility(graph, system, rho)


def test_vertices_need_outgoing_edges():
    with pytest.raises(ValueError):
        GammaGraph(vertices={"v": Singleton(parse_word("g"))}, edges=[], epsilon=0.1)


def test_nesting_transitivity(schottky):
    # composed certified inclusions stay certified at the sampled level
    rho, graph, system = schottky
    eps = graph.epsilon
    for (u, v) in [("a+", "b+"), ("b+", "a-")]:
        for (v2, w) in [(v, x) for (y, x) in graph.edges if y == v]:
            m = rho.evaluate(graph.vertices[u].word) @ rho.evaluate(graph.vertices[v].word)
            img = mobius_arc(m.arr, system.domain(w).arc().expand(eps))
            assert system.domain(u).arc().margin_of_arc(img) > 0


def test_divergence_witnesses(schottky):
    rho, graph, system = schottky
    out = check_divergence(graph, system, rho)
    assert out and all(d.conclusive for d in out)


def test_divergence_rotation_inconclusive():
    theta = 0.9
    rho = GroupPresentation(
        dim=2, generators={"r": Matrix(systems.rotation2(theta))}
    )
    graph = GammaGraph(
        vertices={"v": Singleton(parse_word("r"))}, edges=[("v", "v")], epsilon=0.01
    )
    system = CompatibleSystem(domains={"v": arc_ball(0.0, 0.4)}, epsilon=0.01)
    out = check_divergence(graph, system, rho)
    assert all(not d.conclusive for d in out)


# --- peripheral stability -------------------------------------------------------


@pytest.fixture(scope="module")
def jordan_setup():
    graph = jordan_graph()
    system = jordan_system()
    kwargs = dict(element_cap=32, n_boundary=64, n_interior=24)
    return graph, system, kwargs


def test_jordan_base_certifies(jordan_setup):
    graph, system, kwargs = jordan_setup
    cert = verify_compatibility(graph, system, jordan_presentation(), **kwargs)
    assert cert.ok
    assert cert.min_margin > 0.05
    assert all(t.ok for t in cert.tails)


def test_tail_failure_describes_itself():
    cert = Certificate(records=[], tails=[TailDisclosure("p", True, False, 8)],
                       epsilon=0.1, budgets={})
    assert not cert.ok
    assert cert.first_failure().describe() == "tail p"


def _count_verify_calls(monkeypatch):
    """Record every certificate the probe computes."""
    certs = []
    verify = automaton.verify_compatibility

    def counted(*args, **kwargs):
        certs.append(verify(*args, **kwargs))
        return certs[-1]

    monkeypatch.setattr(automaton, "verify_compatibility", counted)
    return certs


def test_probe_diagonalizable_path_stays_stable(jordan_setup, monkeypatch):
    graph, system, kwargs = jordan_setup
    fam = lambda t: jordan_presentation(t, "diagonalizable")
    certs = _count_verify_calls(monkeypatch)
    grid = systems.JORDAN_STABLE_GRID
    results, first_fail = peripheral_stability_probe(fam, graph, system, grid, **kwargs)
    assert first_fail is None
    assert all(cert.ok for _, cert in results)
    # the grid value 0.0 reuses the base certificate
    assert grid[0] == 0.0 and len(certs) == len(grid)
    assert results[0][1] is certs[0]
    # a grid without 0.0 still certifies the base first
    del certs[:]
    results, _ = peripheral_stability_probe(fam, graph, system, [0.01], **kwargs)
    assert len(certs) == 2 and results[0][1] is certs[1]


def test_probe_split_path_fails(jordan_setup):
    graph, system, kwargs = jordan_setup
    fam = lambda t: jordan_presentation(t, "split")
    results, first_fail = peripheral_stability_probe(
        fam, graph, system, systems.JORDAN_SPLIT_GRID, **kwargs
    )
    assert first_fail == systems.JORDAN_SPLIT_FIRST_FAIL
    assert results[0][1].ok  # t = 0 passes


def test_probe_base_fails_raises(jordan_setup, monkeypatch):
    graph, system, kwargs = jordan_setup
    fam = lambda t: jordan_presentation(t, "split", k=1)  # power 1 cannot certify
    certs = _count_verify_calls(monkeypatch)
    for grid in ([0.0, 0.1], [0.1]):
        with pytest.raises(BaseFails):
            peripheral_stability_probe(fam, graph, system, grid, **kwargs)
    assert len(certs) == 2


def test_parabolic_enumeration_order():
    rho = jordan_presentation()
    label = ParabolicFamily(coset_word=(), peripheral="pa", exclude_below=2)
    words = elements_of(label, rho, cap=6)
    assert words == [
        (("alpha", 2),), (("alpha", -2),),
        (("alpha", 3),), (("alpha", -3),),
        (("alpha", 4),), (("alpha", -4),),
    ]


# --- path enumeration -----------------------------------------------------------


def test_exhaustive_path_count(schottky):
    rho, graph, _ = schottky
    for n in (1, 2, 3, 6):
        paths, truncated = enumerate_paths(graph, n, "exhaustive", rho)
        assert not truncated
        assert len(paths) == 4 * 3 ** (n - 1)


def test_single_loop_depth_one():
    rho, graph, _ = single_loop_system()
    paths, _ = enumerate_paths(graph, 1, "exhaustive", rho)
    assert len(paths) == 1
    assert paths[0].words == [parse_word("g")]


def test_random_paths_reproducible(schottky):
    rho, graph, _ = schottky
    a, _ = enumerate_paths(graph, 5, "random", rho, seed=42, cap=20)
    b, _ = enumerate_paths(graph, 5, "random", rho, seed=42, cap=20)
    assert [p.code() for p in a] == [p.code() for p in b]
    c, _ = enumerate_paths(graph, 5, "random", rho, seed=43, cap=20)
    assert [p.code() for p in a] != [p.code() for p in c]


def test_exhaustive_cap_reports_truncation(schottky):
    rho, graph, _ = schottky
    paths, truncated = enumerate_paths(graph, 8, "exhaustive", rho, cap=100)
    assert truncated
    assert len(paths) == 100


# --- certificate serialization ---------------------------------------------------


def test_certificate_to_dict(schottky):
    rho, graph, system = schottky
    cert = verify_compatibility(graph, system, rho)
    d = cert.to_dict()
    assert d["verdict"] == "pass"
    assert len(d["records"]) == len(graph.edges)
    assert all("margin" in r for r in d["records"])
