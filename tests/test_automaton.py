import contextlib
import copy
import io
import math
from pathlib import Path

import numpy as np
import pytest

import flagdyn.automaton as automaton
import flagdyn.circle as circle
from flagdyn.automaton import (
    Certificate,
    CompatibleSystem,
    GammaGraph,
    ParabolicFamily,
    Singleton,
    TailDisclosure,
    elements_of,
    enumerate_paths,
    peripheral_stability_probe,
    seeded_picker,
    verify_compatibility,
)
from flagdyn.circle import Arc, mobius_arcs, vec_of
from flagdyn.cli import main
from flagdyn.config import RunConfig
from flagdyn.domains import ChartBall, ConvexPolytope, arc_ball
from flagdyn.errors import BaseFails, EvaluationError, MissingDomain
from flagdyn.linalg import Matrix
from flagdyn.projgeom import (
    ProjHyperplane,
    act_many,
    affine_chart,
    fubini_study_many,
    in_chart,
)
from flagdyn.words import GroupPresentation, Peripheral, parse_word

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _parts(cfg):
    """The presentation, graph and system of a config, as ``certify`` builds them."""
    return cfg.presentation(), cfg.graph(), cfg.system()


@pytest.fixture(scope="module")
def schottky(schottky_cfg):
    return _parts(schottky_cfg)


def test_one_vertex_attracting_interval(single_loop_cfg):
    rho, graph, system = _parts(single_loop_cfg)
    cert = verify_compatibility(graph, system, rho)
    assert cert.ok
    # closed-form oracle: the interval image under x -> x/16 in the chart
    target = system.domain("v").arc().expand(graph.epsilon)
    g = rho.generators["g"].arr
    c, r = mobius_arcs(g[None], target.center, target.radius)
    img = Arc(float(c[0]), float(r[0]))
    home = system.domain("v").arc()
    oracle_margin = home.margin_of_arc(img)
    assert cert.min_margin == pytest.approx(oracle_margin, abs=1e-12)


def test_one_vertex_repelling_interval_fails(single_loop_cfg):
    rho, graph, _ = _parts(single_loop_cfg)
    bad = CompatibleSystem(domains={"v": arc_ball(math.pi / 2, 0.3)})
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
        target = system.domain(w).arc().expand(graph.epsilon)
        c, r = mobius_arcs(m.arr[None], target.center, target.radius)
        img = Arc(float(c[0]), float(r[0]))
        oracle = min(oracle, system.domain(v).arc().margin_of_arc(img))
    assert cert.min_margin == pytest.approx(oracle, abs=1e-6)


def test_schottky_repelling_fails(schottky, schottky_repelling_cfg):
    rho, graph, _ = schottky
    cert = verify_compatibility(graph, schottky_repelling_cfg.system(), rho)
    assert not cert.ok


def test_certificate_soundness_finer_sampling(jordan_diag_cfg):
    # higher-dimensional sampled route: refining the boundary budget must
    # keep at least half of every recorded margin
    rho, graph, system = _parts(jordan_diag_cfg)
    coarse = verify_compatibility(graph, system, rho, n_boundary=32, n_interior=16,
                                  element_cap=12)
    fine = verify_compatibility(graph, system, rho, n_boundary=128, n_interior=64,
                                element_cap=12)
    assert coarse.ok and fine.ok
    coarse_by_key = {(r.edge, r.word): r.margin for r in coarse.records}
    for r in fine.records:
        old = coarse_by_key[(r.edge, r.word)]
        assert r.margin >= old / 2


def test_identity_label_rejected(single_loop_cfg):
    rho, _, system = _parts(single_loop_cfg)
    graph = GammaGraph(
        vertices={"v": Singleton(parse_word("g g^-1"))}, edges=[("v", "v")], epsilon=0.05
    )
    with pytest.raises(EvaluationError):
        verify_compatibility(graph, system, rho)


def test_missing_domain(single_loop_cfg):
    rho, graph, _ = _parts(single_loop_cfg)
    system = CompatibleSystem(domains={})
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
            target = system.domain(w).arc().expand(eps)
            c, r = mobius_arcs(m.arr[None], target.center, target.radius)
            img = Arc(float(c[0]), float(r[0]))
            assert system.domain(u).arc().margin_of_arc(img) > 0


def test_rotation_label_fails_its_margin():
    # an isometry maps the ball onto a ball of the same size, so its image
    # of the neighborhood is never inside: the record's margin is negative
    c, s = math.cos(0.9), math.sin(0.9)
    rho = GroupPresentation(dim=2, generators={"r": Matrix([[c, -s], [s, c]])})
    graph = GammaGraph(
        vertices={"v": Singleton(parse_word("r"))}, edges=[("v", "v")], epsilon=0.01
    )
    system = CompatibleSystem(domains={"v": arc_ball(0.0, 0.4)})
    cert = verify_compatibility(graph, system, rho)
    assert not cert.ok and cert.min_margin < 0
    first = cert.first_failure()
    assert (first.edge, first.word) == (("v", "v"), parse_word("r"))


# --- peripheral stability -------------------------------------------------------


@pytest.fixture(scope="module")
def jordan_setup(jordan_diag_cfg):
    _, graph, system = _parts(jordan_diag_cfg)
    kwargs = dict(element_cap=32, n_boundary=64, n_interior=24)
    return graph, system, kwargs


def test_jordan_base_certifies(jordan_setup, jordan_diag_cfg):
    graph, system, kwargs = jordan_setup
    cert = verify_compatibility(graph, system, jordan_diag_cfg.presentation(), **kwargs)
    assert cert.ok
    assert cert.min_margin > 0.05
    assert all(t.ok for t in cert.tails)


def test_tail_failure_describes_itself():
    cert = Certificate(edges=[], words=[], margins=np.zeros(0), n_samples=[], exact=[],
                       tails=[TailDisclosure("p", True, False, 8)], epsilon=0.1, budgets={})
    assert not cert.ok
    assert cert.first_failure().describe() == "tail p"


def test_a_zero_margin_fails():
    cert = Certificate(edges=[("a", "b"), ("b", "a")], words=[[(("s", 1),)], [(("t", 1),)]],
                       margins=np.array([0.3, 0.0]), n_samples=[2, 2], exact=[True, True],
                       tails=[], epsilon=0.1, budgets={})
    assert not cert.ok and cert.min_margin == 0.0
    assert (cert.first_failure().edge, cert.first_failure().margin) == (("b", "a"), 0.0)
    empty = Certificate(edges=[], words=[], margins=np.zeros(0), n_samples=[], exact=[],
                        tails=[], epsilon=0.1, budgets={})
    assert empty.ok and empty.min_margin == math.inf and empty.records == []


def _count_verify_calls(monkeypatch):
    """Record every certificate the probe computes."""
    certs = []
    verify = automaton.verify_compatibility

    def counted(*args, **kwargs):
        certs.append(verify(*args, **kwargs))
        return certs[-1]

    monkeypatch.setattr(automaton, "verify_compatibility", counted)
    return certs


def test_probe_diagonalizable_path_stays_stable(jordan_setup, jordan_diag_cfg, monkeypatch):
    graph, system, kwargs = jordan_setup
    fam = jordan_diag_cfg.presentation
    certs = _count_verify_calls(monkeypatch)
    grid = jordan_diag_cfg.probe
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


def test_probe_split_path_fails(jordan_setup, jordan_split_cfg):
    graph, system, kwargs = jordan_setup
    results, first_fail = peripheral_stability_probe(
        jordan_split_cfg.presentation, graph, system, jordan_split_cfg.probe, **kwargs
    )
    assert first_fail == 0.01
    assert results[0][1].ok  # t = 0 passes


def test_probe_base_fails_raises(jordan_setup, jordan_split_cfg, monkeypatch):
    graph, system, kwargs = jordan_setup
    raw = copy.deepcopy(jordan_split_cfg.raw)
    raw["derived"] = [{"name": "alpha", "word": "A^1"}, {"name": "beta", "word": "M A M^-1"}]
    fam = RunConfig.from_dict(raw).presentation  # power 1 cannot certify
    certs = _count_verify_calls(monkeypatch)
    for grid in ([0.0, 0.1], [0.1]):
        with pytest.raises(BaseFails):
            peripheral_stability_probe(fam, graph, system, grid, **kwargs)
    assert len(certs) == 2


def test_parabolic_enumeration_order(jordan_diag_cfg):
    rho = jordan_diag_cfg.presentation()
    label = ParabolicFamily(coset_word=(), peripheral="pa", exclude_below=2)
    words = elements_of(label, rho, cap=6)
    assert words == [
        (("alpha", 2),), (("alpha", -2),),
        (("alpha", 3),), (("alpha", -3),),
        (("alpha", 4),), (("alpha", -4),),
    ]


# --- path enumeration -----------------------------------------------------------


def test_single_loop_depth_one(single_loop_cfg):
    rho, graph, _ = _parts(single_loop_cfg)
    paths, _ = enumerate_paths(graph, 1, "random", rho, cap=1)
    assert len(paths) == 1
    assert paths[0].words == [parse_word("g")]


def test_random_paths_reproducible(schottky):
    rho, graph, _ = schottky
    a, _ = enumerate_paths(graph, 5, "random", rho, seed=42, cap=20)
    b, _ = enumerate_paths(graph, 5, "random", rho, seed=42, cap=20)
    assert [p.code() for p in a] == [p.code() for p in b]
    c, _ = enumerate_paths(graph, 5, "random", rho, seed=43, cap=20)
    assert [p.code() for p in a] != [p.code() for p in c]


def test_exhaustive_strategy_is_unknown(schottky):
    rho, graph, _ = schottky
    with pytest.raises(ValueError, match="unknown strategy 'exhaustive'"):
        enumerate_paths(graph, 3, "exhaustive", rho)


def _every_step_paths(graph, depth, rho, seed, cap, elements_per_vertex=2):
    """The sampler as it was before lone options skipped their draw: one
    ``rng.integers`` call per choice."""
    elems = {v: elements_of(label, rho, cap=elements_per_vertex)
             for v, label in graph.vertices.items()}
    adj = {v: sorted(w for x, w in graph.edges if x == v) for v in graph.vertices}
    rng = np.random.default_rng(seed)
    starts, paths = sorted(graph.vertices), []
    for _ in range(cap):
        vpath, wpath = [starts[int(rng.integers(len(starts)))]], []
        for step in range(depth):
            cur = vpath[-1]
            wpath.append(elems[cur][int(rng.integers(len(elems[cur])))])
            if step < depth - 1:
                vpath.append(adj[cur][int(rng.integers(len(adj[cur])))])
        vpath.append(adj[vpath[-1]][0])
        paths.append((vpath, wpath))
    return paths


@pytest.fixture(scope="module")
def pgl2z_automaton_cfg(tmp_path_factory):
    """The automaton.json that ``synthesize configs/pgl2z.json`` writes: its
    out-degrees vary, and each parabolic vertex offers 2 elements."""
    out = tmp_path_factory.mktemp("pgl2z")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["synthesize", "--config", str(CONFIGS / "pgl2z.json"),
                     "--out", str(out)]) == 0
    return RunConfig.load(out / "automaton.json")


@pytest.mark.parametrize("stem, depth, cap", [
    *(pytest.param(stem, 6, 25, id=stem)
      for stem in ["schottky", "single_loop", "jordan_diag", "jordan_split"]),
    pytest.param("pgl2z_automaton", 20, 200, id="pgl2z_automaton"),
])
def test_paths_equal_the_every_step_sampler(request, stem, depth, cap):
    rho, graph, _ = _parts(request.getfixturevalue(f"{stem}_cfg"))
    for seed in range(5):
        paths, _ = enumerate_paths(graph, depth, "random", rho, seed=seed, cap=cap)
        assert [(p.vertices, p.words) for p in paths] == _every_step_paths(
            graph, depth, rho, seed, cap)


def test_pgl2z_automaton_is_irregular(pgl2z_automaton_cfg):
    graph = pgl2z_automaton_cfg.graph()
    assert len({sum(x == v for x, _ in graph.edges) for v in graph.vertices}) > 1
    parabolic = [label for label in graph.vertices.values() if isinstance(label, ParabolicFamily)]
    rho = pgl2z_automaton_cfg.presentation()
    assert parabolic and all(len(elements_of(label, rho, cap=2)) == 2 for label in parabolic)


def _mixed_bounds(seed, size=600):
    """One option, a few options, within 10 of 2**32 - 1 (the rejection test
    runs on nearly every draw), and just above 2**31 (about half the draws
    are redrawn)."""
    r = np.random.default_rng(1000 + seed)
    return [[1, int(r.integers(2, 40)), (1 << 32) - 1 - int(r.integers(11)),
             (1 << 31) + int(r.integers(1, 11))][k] for k in r.integers(4, size=size)]


@pytest.mark.parametrize("block", [1, 7, 64])
def test_seeded_picker_equals_scalar_integers(block):
    redrawn = 0
    for seed in range(100):
        bounds = _mixed_bounds(seed)
        pick = seeded_picker(np.random.default_rng(seed), block)
        rng = np.random.default_rng(seed)
        assert [pick(range(n)) for n in bounds] == [int(rng.integers(n)) for n in bounds]
        # one raw value per pick from more than one option leaves the stream
        # where the picks left it only if no pick was redrawn
        raw = np.random.default_rng(seed)
        raw.integers(0, 1 << 32, size=sum(n > 1 for n in bounds), dtype=np.uint32)
        redrawn += raw.bit_generator.state != rng.bit_generator.state
    assert redrawn == 100


@pytest.mark.parametrize("n", [0, 1 << 32, 1 << 40])
def test_seeded_picker_bounds(n):
    with pytest.raises(ValueError):
        seeded_picker(np.random.default_rng(0))(range(n))


def test_a_draw_from_one_option_leaves_the_stream_alone():
    rng = np.random.default_rng(3)
    state = rng.bit_generator.state
    assert int(rng.integers(1)) == 0
    assert rng.bit_generator.state == state
    assert rng.integers(1000, size=4).tolist() == np.random.default_rng(3).integers(
        1000, size=4).tolist()


# --- certificate serialization ---------------------------------------------------


def test_certificate_to_dict(schottky):
    rho, graph, system = schottky
    cert = verify_compatibility(graph, system, rho)
    d = cert.to_dict()
    assert d["verdict"] == "pass"
    assert len(d["records"]) == len(graph.edges)
    assert all("margin" in r for r in d["records"])


# --- one label enumeration per vertex ----------------------------------------------


def _reference_margin_and_size(home, img, bnd):
    """The per-element kernel that ``automaton._containment_margin`` stacks:
    the worst signed FS margin of one image point cloud in ``home``, and its
    FS diameter from the full farthest-pair Gram, both as atan2 of the
    reduced |dot| (nearest boundary sample, farthest image pair)."""
    def fs(c):
        c = np.clip(c, 0.0, 1.0)
        return np.arctan2(np.sqrt(np.clip(1.0 - c * c, 0.0, None)), c)

    inside = home.contains_points(img)
    dists = fs(np.max(np.abs(img @ bnd.T), axis=1))
    margin = float(np.min(np.where(inside, dists, -dists)))
    return margin, float(fs(np.min(np.abs(img @ img.T))))


def test_jordan_edge_kernels_keep_the_bits_of_their_former_forms(jordan_diag_cfg):
    # the stacked tables of each jordan edge, as ``_sampled_edge`` forms them:
    # the per-row FS distances equal those read along the rows of the
    # untransposed table, and containment equals in_chart then affine_chart
    rho, graph, system = _parts(jordan_diag_cfg)
    step = automaton._CHUNK // (152 * 128)
    for v, w in graph.edges:
        home = system.domain(v)
        pts = automaton._neighborhood_samples(system.domain(w), graph.epsilon, 64, 24, 7)
        bnd = home.boundary_points(128, 8)
        mats = [rho.evaluate(word) for word in elements_of(graph.vertices[v], rho, cap=32)]
        arrs = np.stack([m.arr for m in mats])
        for lo in range(0, len(mats), step):
            imgs = act_many(arrs[lo:lo + step], pts)
            rows = imgs.reshape(-1, 4)
            dots = rows @ bnd.T
            c = np.clip(np.maximum(dots.max(1), -dots.min(1)), 0.0, 1.0)
            want = np.arctan2(np.sqrt(np.clip(1.0 - c * c, 0.0, None)), c)
            assert fubini_study_many(rows, bnd, axis=1).tobytes() == want.tobytes()
            inside = in_chart(home.chart, rows)
            inside[inside] = home.contains_coords(affine_chart(home.chart, rows[inside]))
            assert np.array_equal(home.contains_points(imgs), inside.reshape(imgs.shape[:-1]))


def _reference_certificate(graph, system, rho, *, n_boundary, n_interior, element_cap,
                           seed=0):
    """Records and tails from a per-edge loop: each edge enumerates and
    evaluates its source label itself and folds every element into
    per-index worst cases, shell by shell."""
    eps = graph.epsilon
    records, worst_margin, worst_size = [], {}, {}
    for v, w in graph.edges:
        home, target = system.domain(v), system.domain(w)
        for i, word in enumerate(elements_of(graph.vertices[v], rho, cap=element_cap)):
            m = rho.evaluate(word)
            if home.is_arc and target.is_arc:
                t, h = target.arc().expand(eps), home.arc()
                c, r = mobius_arcs(m.arr[None], t.center, t.radius)
                img = Arc(float(c[0]), float(r[0]))
                margin = h.radius - (circle.angle_dist(h.center, img.center) + img.radius)
                size, n_samples, exact = img.radius, 2, True
            else:
                pts = automaton._neighborhood_samples(target, eps, n_boundary, n_interior,
                                                      seed)
                bnd = home.boundary_points(max(n_boundary, 128), seed + 1)
                margin, size = _reference_margin_and_size(home, act_many(m, pts), bnd)
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
    return rho, GammaGraph(vertices, edges, 0.02), CompatibleSystem(domains)


def _jordan_case(edges):
    rho, graph, system = _parts(RunConfig.load(CONFIGS / "jordan_diag.json"))
    return rho, GammaGraph(graph.vertices, edges, graph.epsilon), system


def _random_arc_case(seed):
    """RP^1: singletons on random integer and float words, a parabolic
    family, random arcs plus one polytope domain, and random edges, so
    exact and sampled edges interleave."""
    rng = np.random.default_rng(seed)
    gens = {"t": Matrix([[1, 1], [0, 1]])}
    for i in range(3):
        m = [[0, 0], [0, 0]]
        while m[0][0] * m[1][1] == m[0][1] * m[1][0]:
            m = rng.integers(-4, 5, size=(2, 2)).tolist()
        gens[f"a{i}"] = Matrix(m)
        gens[f"f{i}"] = Matrix(rng.normal(size=(2, 2)))
    rho = GroupPresentation(dim=2, generators=gens,
                            peripherals=[Peripheral("pt", ["t"], truncation=10)])
    letters = sorted(set(gens) - {"t"})
    vertices = {"p": ParabolicFamily(parse_word(letters[int(rng.integers(6))]), "pt")}
    while len(vertices) < 8:
        word = parse_word(" ".join(f"{letters[i]}^{rng.choice([-1, 1])}"
                                   for i in rng.integers(6, size=int(rng.integers(1, 4)))))
        if word and not rho.evaluate(word).is_identity():
            vertices[f"x{len(vertices)}"] = Singleton(word)
    ids = list(vertices)
    domains = {v: arc_ball(float(rng.uniform(0, math.pi)), float(rng.uniform(0.05, 0.6)))
               for v in ids}
    domains["x3"] = ConvexPolytope(ProjHyperplane(vec_of(float(rng.uniform(0, math.pi)))),
                                   [[-0.3], [0.3]])
    edges = [(v, ids[int(rng.integers(len(ids)))]) for v in ids]
    edges += [(ids[int(i)], ids[int(j)]) for i, j in rng.integers(len(ids), size=(16, 2))]
    edges = [edges[i] for i in rng.permutation(len(edges))]
    return rho, GammaGraph(vertices, edges, 0.02), CompatibleSystem(domains)


@pytest.mark.parametrize("case, element_cap", [
    # odd cap: the last +n/-n shell holds one element
    (lambda: _jordan_case([("va", "vb"), ("vb", "va")]), 7),
    (lambda: _jordan_case([("va", "vb"), ("va", "vb"), ("vb", "va")]), 6),
    (_modular_family, 9),
    *((lambda seed=seed: _random_arc_case(seed), 5 + seed) for seed in range(6)),
], ids=["odd-cap", "duplicated-edge", "family-with-two-out-edges",
        *(f"random-arcs-{seed}" for seed in range(6))])
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


@pytest.mark.parametrize("stem, t", [(stem, t) for stem in ("jordan_split", "jordan_diag")
                                     for t in (0.0, 0.01, 0.02, 0.05)])
@pytest.mark.parametrize("element_cap", [32, 7, 1])
def test_stacked_kernel_matches_the_per_element_kernel(stem, t, element_cap):
    # the config's budgets stack 3 elements a chunk: caps 32 and 7 end on a
    # partial chunk, cap 1 is one; t = 0.05 fails on jordan_split
    cfg = RunConfig.load(CONFIGS / f"{stem}.json")
    rho, graph, system = cfg.presentation(t), cfg.graph(), cfg.system()
    budgets = cfg.budgets
    for v, w in graph.edges:
        home = system.domain(v)
        pts = automaton._neighborhood_samples(system.domain(w), graph.epsilon,
                                              budgets["boundary_samples"],
                                              budgets["interior_samples"], 7)
        bnd = home.boundary_points(128, 8)
        assert automaton._CHUNK // (len(pts) * len(bnd)) == 3
        mats = [rho.evaluate(word) for word in elements_of(graph.vertices[v], rho,
                                                           cap=element_cap)]
        margins, sizes = automaton._sampled_edge(home, pts, bnd, mats, 0)
        want = [_reference_margin_and_size(home, act_many(m, pts), bnd) for m in mats]
        assert margins.tolist() == [m for m, _ in want]
        assert sizes.tolist() == [d for _, d in want]


def _diagonal_rank2_case():
    """d = 4: a rank-2 abelian family (shells of one element) with an
    out-edge to itself and to a Singleton, and the Singleton's edge back."""
    rho = GroupPresentation(
        dim=4, generators={"a": Matrix(np.diag([2.0, 1.0, 1.0, 0.5])),
                           "b": Matrix(np.diag([1.0, 3.0, 1.0, 1.0 / 3.0]))},
        peripherals=[Peripheral("p", ["a", "b"], truncation=4)])
    vertices = {"p": ParabolicFamily((), "p"), "s": Singleton(parse_word("a b^-1"))}
    domains = {"p": ChartBall(ProjHyperplane([1.0, 1.0, 1.0, 1.0]), [0.0, 0.0, 0.0], 0.4),
               "s": ChartBall(ProjHyperplane([1.0, 0.0, 0.0, 0.0]), [0.0, 0.0, 0.0], 0.3)}
    graph = GammaGraph(vertices, [("p", "p"), ("p", "s"), ("s", "p")], 0.02)
    return rho, graph, CompatibleSystem(domains)


def _jordan_with_singleton():
    """jordan_diag at d = 4 plus a Singleton source and its edges."""
    rho, graph, system = _parts(RunConfig.load(CONFIGS / "jordan_diag.json"))
    vertices = {**graph.vertices, "s": Singleton(parse_word("M"))}
    edges = graph.edges + [("s", "va"), ("va", "s")]
    system = CompatibleSystem({**system.domains, "s": system.domain("vb")})
    return rho, GammaGraph(vertices, edges, graph.epsilon), system


@pytest.mark.parametrize("case", [_jordan_with_singleton, _diagonal_rank2_case],
                         ids=["jordan-singleton", "rank-2-family"])
@pytest.mark.parametrize("element_cap", [1, 6, 13])
def test_diameters_only_where_the_tail_reads_them(case, element_cap, monkeypatch):
    rho, graph, system = case()
    budgets = dict(n_boundary=16, n_interior=8, element_cap=element_cap)
    records, tails = _reference_certificate(graph, system, rho, **budgets)
    diameters = []
    fs = automaton.fubini_study_many

    def counted(a, b, **kwargs):
        if kwargs.get("farthest"):
            diameters.append(len(a))
        return fs(a, b, **kwargs)

    monkeypatch.setattr(automaton, "fubini_study_many", counted)
    cert = verify_compatibility(graph, system, rho, **budgets)
    assert [(*r.edge, r.word, r.margin, r.ok, r.n_samples, r.exact)
            for r in cert.records] == records
    assert [(t.vertex, t.margins_nondecreasing, t.diameters_nonincreasing, t.checked)
            for t in cert.tails] == tails
    # one diameter per tail element of each family out-edge, none for a Singleton
    want = 0
    for v, _ in graph.edges:
        n = len(elements_of(graph.vertices[v], rho, cap=element_cap))
        want += n - automaton._tail_window(graph.vertices[v], n, rho)[1]
    assert len(diameters) == want > 0


@pytest.mark.parametrize("case, n, window", [
    # cyclic: +m, -m shells of two elements
    *((_jordan_with_singleton, n, (2, start)) for n, start in [(32, 24), (7, 4), (2, 0), (1, 0)]),
    # rank 2: shells of one element
    *((_diagonal_rank2_case, n, (1, start)) for n, start in [(12, 9), (10, 8), (2, 0), (1, 0)]),
])
def test_tail_window_is_the_last_quarter_of_shells(case, n, window):
    rho, graph, _ = case()
    family = next(lab for lab in graph.vertices.values() if isinstance(lab, ParabolicFamily))
    assert automaton._tail_window(family, n, rho) == window
    assert automaton._tail_window(graph.vertices["s"], n, rho) == (1, n)


def test_one_mobius_arcs_call_certifies_every_arc_edge(monkeypatch):
    rho, graph, system = _random_arc_case(0)
    rows = []
    real = circle.mobius_arcs

    def counted(mats, centers, radii):
        rows.append(len(mats))
        return real(mats, centers, radii)

    monkeypatch.setattr(circle, "mobius_arcs", counted)
    cert = verify_compatibility(graph, system, rho, element_cap=6)
    assert rows == [sum(r.exact for r in cert.records)]
    assert 0 < rows[0] < len(cert.records)  # exact and sampled edges interleave


def test_each_label_enumerated_once_per_vertex(schottky, monkeypatch):
    rho, graph, system = schottky
    caps = []

    def counted(label, rho, cap=None):
        caps.append(cap)
        return elements_of(label, rho, cap=cap)

    monkeypatch.setattr(automaton, "elements_of", counted)
    verify_compatibility(graph, system, rho, element_cap=5)
    assert len(graph.edges) > len(graph.vertices)
    # one enumeration per vertex, long enough for the label check's 12 elements
    assert caps == [12] * len(graph.vertices)


def test_order_two_peripheral_generator_is_a_duplicate():
    # t = t^-1 in PGL(2), so the enumeration t, t^-1 repeats an element; the
    # label check reads 12 elements even when fewer are certified
    rho = GroupPresentation(dim=2, generators={"t": Matrix([[0, 1], [1, 0]])},
                            peripherals=[Peripheral("pt", ["t"], truncation=3)])
    graph = GammaGraph({"p": ParabolicFamily((), "pt")}, [("p", "p")], 0.02)
    system = CompatibleSystem({"p": arc_ball(0.0, 0.3)})
    for element_cap in (1, 64):
        with pytest.raises(EvaluationError, match="duplicate element in enumeration of p"):
            verify_compatibility(graph, system, rho, element_cap=element_cap)


@pytest.mark.parametrize("label", [
    ParabolicFamily((), "pa", exclude_below=17),
    ParabolicFamily((), "pa", exclude_below=16,
                    excluded=(parse_word("alpha^16"), parse_word("alpha^-16"))),
], ids=["min-power-above-truncation", "all-excluded"])
def test_empty_label_is_an_error(label, jordan_diag_cfg):
    rho, graph, system = _parts(jordan_diag_cfg)
    graph = GammaGraph({**graph.vertices, "va": label}, graph.edges, graph.epsilon)
    with pytest.raises(EvaluationError, match="vertex va is labeled by no element"):
        verify_compatibility(graph, system, rho)
