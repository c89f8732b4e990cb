import math

import numpy as np
import pytest

import flagdyn.automaton as automaton
import flagdyn.circle as circle
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
from flagdyn.circle import Arc, mobius_arc, vec_of
from flagdyn.domains import ConvexPolytope
from flagdyn.errors import BaseFails, EvaluationError, MissingDomain
from flagdyn.linalg import Matrix
from flagdyn.projgeom import ProjHyperplane, act_many, fubini_study_many
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


# --- one label enumeration per vertex ----------------------------------------------


def _reference_certificate(graph, system, rho, *, n_boundary, n_interior, element_cap,
                           seed=0):
    """Records and tails from a per-edge loop: each edge enumerates and
    evaluates its source label itself and folds every element into
    per-index worst cases, shell by shell."""
    eps = system.epsilon
    records, worst_margin, worst_size = [], {}, {}
    for v, w in graph.edges:
        home, target = system.domain(v), system.domain(w)
        for i, word in enumerate(elements_of(graph.vertices[v], rho, cap=element_cap)):
            m = rho.evaluate(word)
            if automaton._is_arc(home) and automaton._is_arc(target):
                t, h = target.arc().expand(eps), home.arc()
                img = mobius_arc(m.arr, t)
                margin = h.radius - (circle.angle_dist(h.center, img.center) + img.radius)
                size, n_samples, exact = img.radius, 2, True
            else:
                pts = automaton._neighborhood_samples(target, eps, n_boundary, n_interior,
                                                      seed)
                bnd = home.boundary_points(max(n_boundary, 128), seed + 1)
                img = act_many(m, pts)
                margin = automaton._containment_margin(home, img, bnd)
                size = float(fubini_study_many(img, img, farthest=True))
                n_samples, exact = pts.shape[0], False
            records.append((v, w, word, margin, margin > 0, n_samples, exact))
            key = (v, i)
            worst_margin[key] = min(worst_margin.get(key, math.inf), margin)
            worst_size[key] = max(worst_size.get(key, -math.inf), size)
    tails = []
    for v, label in graph.vertices.items():
        if isinstance(label, Singleton):
            continue
        group = 2 if len(rho.peripheral(label.peripheral).generators) == 1 else 1
        n = sum(1 for u, _ in worst_margin if u == v)
        shells = [range(s, min(s + group, n)) for s in range(0, n, group)]
        margins = [min(worst_margin[v, i] for i in s) for s in shells]
        sizes = [max(worst_size[v, i] for i in s) for s in shells]
        q = max(2, len(margins) // 4)
        tm, td = margins[-q:], sizes[-q:]
        tails.append((
            v,
            all(b >= a - 1e-6 - 0.01 * abs(a) for a, b in zip(tm, tm[1:])),
            all(b <= a + 1e-6 + 0.01 * abs(a) for a, b in zip(td, td[1:])),
            n,
        ))
    return records, tails


def _modular_family():
    """RP^1: a parabolic family with an exact and a sampled out-edge."""
    rho = GroupPresentation(
        dim=2, generators={"t": Matrix([[1, 1], [0, 1]]), "s": Matrix([[0, -1], [1, 0]])},
        peripherals=[Peripheral("pt", ["t"], truncation=12)],
    )
    vertices = {"p": ParabolicFamily((), "pt"), "x": Singleton(parse_word("s")),
                "y": Singleton(parse_word("s t"))}
    edges = [("p", "x"), ("p", "y"), ("x", "p"), ("y", "p")]
    domains = {"p": arc_ball(0.0, 0.4), "x": arc_ball(1.2, 0.3),
               "y": ConvexPolytope(ProjHyperplane(vec_of(2.2)), [[-0.3], [0.3]])}
    return rho, GammaGraph(vertices, edges, 0.02), CompatibleSystem(domains, 0.02)


def _jordan_case(edges):
    graph = jordan_graph()
    graph = GammaGraph(graph.vertices, edges, graph.epsilon)
    return jordan_presentation(), graph, jordan_system()


@pytest.mark.parametrize("case, element_cap", [
    # odd cap: the last +n/-n shell holds one element
    (lambda: _jordan_case([("va", "vb"), ("vb", "va")]), 7),
    (lambda: _jordan_case([("va", "vb"), ("va", "vb"), ("vb", "va")]), 6),
    (_modular_family, 9),
], ids=["odd-cap", "duplicated-edge", "family-with-two-out-edges"])
def test_records_and_tails_match_per_edge_reference(case, element_cap):
    rho, graph, system = case()
    budgets = dict(n_boundary=16, n_interior=8, element_cap=element_cap)
    cert = verify_compatibility(graph, system, rho, **budgets)
    records, tails = _reference_certificate(graph, system, rho, **budgets)
    assert [(*r.edge, r.word, r.margin, r.ok, r.n_samples, r.exact)
            for r in cert.records] == records
    assert [(t.vertex, t.margins_nondecreasing, t.diameters_nonincreasing, t.checked)
            for t in cert.tails] == tails
    assert all(type(r.margin) is float and type(r.ok) is bool for r in cert.records)
    assert all(type(t.margins_nondecreasing) is bool for t in cert.tails)


def test_each_label_enumerated_once_per_vertex(schottky, monkeypatch):
    rho, graph, system = schottky
    caps = []

    def counted(label, rho, cap=None):
        caps.append(cap)
        return elements_of(label, rho, cap=cap)

    monkeypatch.setattr(automaton, "elements_of", counted)
    verify_compatibility(graph, system, rho, element_cap=5)
    assert len(graph.edges) > len(graph.vertices)
    assert caps.count(5) == len(graph.vertices)


def test_order_two_peripheral_generator_is_a_duplicate():
    # t = t^-1 in PGL(2), so the enumeration t, t^-1 repeats an element
    rho = GroupPresentation(dim=2, generators={"t": Matrix([[0, 1], [1, 0]])},
                            peripherals=[Peripheral("pt", ["t"], truncation=3)])
    graph = GammaGraph({"p": ParabolicFamily((), "pt")}, [("p", "p")], 0.02)
    system = CompatibleSystem({"p": arc_ball(0.0, 0.3)}, 0.02)
    with pytest.raises(EvaluationError, match="duplicate element in enumeration of p"):
        verify_compatibility(graph, system, rho)


@pytest.mark.parametrize("label", [
    ParabolicFamily((), "pa", exclude_below=17),
    ParabolicFamily((), "pa", exclude_below=16,
                    excluded=(parse_word("alpha^16"), parse_word("alpha^-16"))),
], ids=["min-power-above-truncation", "all-excluded"])
def test_empty_label_is_an_error(label):
    rho = jordan_presentation(truncation=16)
    graph = jordan_graph()
    graph = GammaGraph({**graph.vertices, "va": label}, graph.edges, graph.epsilon)
    with pytest.raises(EvaluationError, match="vertex va is labeled by no element"):
        verify_compatibility(graph, jordan_system(), rho)
