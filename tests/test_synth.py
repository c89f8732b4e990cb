import copy
import dataclasses
import hashlib
import math
from pathlib import Path

import numpy as np
import pytest

from flagdyn import circle, synth
from flagdyn.automaton import ParabolicFamily, Singleton, verify_compatibility
from flagdyn.circle import Arc, angle_dist, angle_of, angles, arcs_between, mobius_arcs, vec_of
from flagdyn.config import RunConfig
from flagdyn.domains import ChartBall, chart_ball_arcs
from flagdyn.errors import ConfigError, SynthesisFailed
from flagdyn.linalg import Matrix
from flagdyn.projgeom import chart_point
from flagdyn.synth import (
    _CHUNK,
    _ROUND_ROWS,
    _WINDOW_SLACK,
    SynthesisParams,
    _adjugates,
    _ConicalSearcher,
    _coset_candidates,
    _expansion_windows,
    _fundamental_interval,
    _Syllables,
    _window_angles,
    _word_ball,
    synthesize_rp1,
)
from flagdyn.words import GroupPresentation, Peripheral, concat, word_str

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


@pytest.fixture(scope="module")
def modular_presentation(pgl2z_cfg):
    return pgl2z_cfg.presentation()


@pytest.fixture(scope="module")
def modular_synthesis(modular_presentation, pgl2z_cfg):
    return synthesize_rp1(modular_presentation, pgl2z_cfg.synthesis)


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


def test_certificate_builds_its_records_only_when_read(modular_presentation,
                                                       modular_synthesis, pgl2z_cfg):
    res = modular_synthesis
    cert = verify_compatibility(res.graph, res.system, modular_presentation,
                                element_cap=pgl2z_cfg.budgets["element_cap"])
    assert cert.ok and cert.min_margin == 0.012248183250884948
    assert "records" not in cert.__dict__
    records = cert.records
    assert "records" in cert.__dict__ and cert.records is records
    assert [r.margin for r in records] == cert.margins.tolist()
    assert [r.edge for r in records] == [e for e, ws in zip(cert.edges, cert.words) for _ in ws]
    assert all(r.ok for r in records) and min(r.margin for r in records) == cert.min_margin


@pytest.mark.parametrize("grid, counts, min_margin", [
    # no grid point, and only 0.0, which lies in the parabolic hat at 0: the
    # hit columns are empty and the gap loop places every conical vertex
    (0, (366, 4794), 0.011649965911151236),
    (1, (366, 4794), 0.011649965911151236),
    # two grid points with a hit
    (3, (349, 4406), 0.01188059425966348),
])
def test_synthesis_from_a_few_grid_hits_certifies(modular_presentation, pgl2z_cfg, grid,
                                                   counts, min_margin):
    res = synthesize_rp1(modular_presentation,
                         dataclasses.replace(pgl2z_cfg.synthesis, grid=grid))
    cert = verify_compatibility(res.graph, res.system, modular_presentation,
                                element_cap=pgl2z_cfg.budgets["element_cap"])
    assert (len(res.graph.vertices), len(res.graph.edges)) == counts
    assert cert.ok and cert.min_margin == min_margin


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


def test_modular_vertex_ids_pinned(modular_synthesis):
    # sha256 of the sorted vertex ids: coset words and conical words alike
    ids = "\n".join(sorted(modular_synthesis.graph.vertices))
    assert hashlib.sha256(ids.encode()).hexdigest() == (
        "19bfae7c6f491c093c8558d8796b4e0e5d0e939f98ff587f29fc3490a05521e4")


def test_modular_edges_follow_the_pairwise_rule(modular_presentation, modular_synthesis):
    # edge (v, w) exactly when Arc.intersects(pullback set of v, U_w), in
    # vertex order; a parabolic vertex's pullback set is its hat V = K_p + delta
    res = modular_synthesis
    hat = _fundamental_interval(modular_presentation, "t", 0.0).expand(0.05)
    edges = []
    for v, label in res.graph.vertices.items():
        source = hat
        if not isinstance(label, ParabolicFamily):
            inner = res.inner_sets[v]
            c, r = mobius_arcs(_adjugates(modular_presentation.evaluate(label.word).arr)[None],
                               inner.center, inner.radius)
            source = Arc(float(c[0]), float(r[0]))
        edges.extend((v, w) for w in res.graph.vertices if source.intersects(res.inner_sets[w]))
    assert res.graph.edges == edges


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _arc_digests(res):
    """sha256 of the inner arcs, the outer arcs and the boundary points, each
    in vertex order with its vertex id and floats by repr."""
    return [_digest(repr([(v, a.center, a.radius) for v, a in res.inner_sets.items()])),
            _digest(repr([(v, a.center, a.radius) for v, a in res.outer_sets.items()])),
            _digest(repr(list(res.boundary_points.items())))]


def test_modular_arcs_and_points_pinned(modular_synthesis):
    assert _arc_digests(modular_synthesis) == [
        "d68386db4b811b5322f4a7ba61c8184358c124b30e6f7682c72d20111a69dee0",
        "3953e1d8757c7cf2de330b8a39bc04c534bf75561a51504d1591f63cd9b9f780",
        "4eaf5e73ac4efeef3ecbe52d131eb7c7788d62fe2c1089fe51dc19cd2c65d65c"]


@pytest.mark.parametrize("source", ["pgl2z-synthesis", "schottky", "single_loop"])
def test_batched_chart_ball_arcs_equal_one_ball_arcs(source, request):
    if source == "pgl2z-synthesis":
        res = request.getfixturevalue("modular_synthesis")
        system, vertices = res.system, res.graph.vertices
    else:
        cfg = request.getfixturevalue(f"{source}_cfg")
        system, vertices = cfg.system(), cfg.graph().vertices
    balls = [system.domain(v) for v in vertices]
    balls = [b for b in balls if isinstance(b, ChartBall) and b.dim == 2]
    assert balls

    def uncached():
        out = [copy.copy(b) for b in balls]
        for b in out:
            b._arc = None
        return out

    def bits(arcs):
        return [(a.center.hex(), a.radius.hex()) for a in arcs]

    # reference: each ball's chart points and angles through the one-point calls
    ref = [Arc(*map(float, arcs_between(
        *(angle_of(chart_point(b.chart, b.center + s * b.radius).coords) for s in (-1, 1)),
        through=angle_of(chart_point(b.chart, b.center).coords))))
           for b in balls]
    one = [b.arc() for b in uncached()]
    batched = uncached()
    many = chart_ball_arcs(batched)
    assert bits(many) == bits(ref)
    assert bits(one) == bits(ref)
    # kept on the balls: their one-ball calls now return the same arcs
    assert all(b.arc() is a for b, a in zip(batched, many))
    assert chart_ball_arcs(batched) == many


@pytest.fixture(scope="module")
def schottky_rotated(schottky_cfg):
    """schottky.json with b written as the float product r a r^T, r the
    rotation by pi/4. The pins below were recorded on these entries; the
    exact 2.125 and 1.875 of the config differ from them in the last bits,
    and so do the synthesized arcs."""
    c, s = math.cos(math.pi / 4), math.sin(math.pi / 4)
    r = np.array([[c, -s], [s, c]])
    raw = copy.deepcopy(schottky_cfg.raw)
    raw["generators"][1]["matrix"] = (r @ np.diag([4.0, 0.25]) @ r.T).tolist()
    return RunConfig.from_dict(raw).presentation()


@pytest.fixture(scope="module")
def schottky_synthesis(schottky_rotated):
    return synthesize_rp1(schottky_rotated, SynthesisParams(
        epsilon=0.05, delta=0.05, word_radius=6, grid=720))


def test_schottky_synthesis_pinned(schottky_synthesis):
    # without peripherals: no cover, and the vertices with no outgoing edge
    # pruned (156 grid hits, 92 vertices); ids sorted, edges in order
    res = schottky_synthesis
    assert len(res.graph.vertices) == 92
    assert _digest("\n".join(sorted(res.graph.vertices))) == (
        "d9d9c6f841d9532edfb235c82686200e3e4727412716b3bd358c9bb01b5a89a3")
    assert len(res.graph.edges) == 716
    assert _digest(repr(res.graph.edges)) == (
        "a65e59bf2186ec865fb11657d747341de406aae766b935fd9e849562ffea2d1e")
    assert _arc_digests(res) == [
        "82a7f46a5925fca4da5f6d6773cce50b01a61c90cbf1b7c4056ee092e9a48e56",
        "a24b3d0d2056c1dec5e4d668bb1c2b06fd45679795ac0e7bd6145f78accbc9b3",
        "84f18311076de1c0ceae52210081b33b3e2f5e97e7541d0cd544a6ff932c8472"]


def test_schottky_synthesis_parabolic_free(schottky_synthesis, schottky_rotated):
    rho = schottky_rotated
    res = schottky_synthesis
    assert all(isinstance(l, Singleton) for l in res.graph.vertices.values())
    cert = verify_compatibility(res.graph, res.system, rho)
    assert cert.ok
    # recurrent structure concentrates near the four classical intervals
    centers = [0.0, math.pi / 4, math.pi / 2, 3 * math.pi / 4]
    for angle in res.boundary_points.values():
        assert min(angle_dist(angle, c) for c in centers) < 0.45


def test_schottky_synthesis_limits_match_hand_built(schottky_synthesis, schottky_rotated,
                                                    schottky_cfg):
    # limits computed through the synthesized automaton must land inside
    # the ping-pong intervals of schottky.json
    from flagdyn.automaton import enumerate_paths
    from flagdyn.circle import angle_of
    from flagdyn.dynamics import contracting_limits

    rho = schottky_rotated
    res = schottky_synthesis
    paths, _ = enumerate_paths(res.graph, 10, "random", rho, seed=3, cap=20)
    hand = [d.arc().expand(0.05) for d in schottky_cfg.system().domains.values()]
    for p in paths:
        r = contracting_limits([p], rho, res.system)[0]
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
    """First hit of the whole pool's mask: the search without windows. The
    last field is the hit's rank among z's (z, word) pairs: the pairs of its
    words in pool order, a word listed twice when z is in both of its
    window's intervals."""
    p = searcher.params
    vz = np.array([math.cos(z), math.sin(z)])
    pulls = circle.angles(searcher.invs @ vz)
    cw, rw = circle.mobius_arcs(searcher.mats, pulls, 2 * p.delta)
    cwe, rwe = circle.mobius_arcs(searcher.mats, pulls, 2 * p.delta + 2 * p.epsilon)
    ok = (2 * rw < p.delta) & (circle.angle_dists(cwe, z) + rwe < p.epsilon)
    if not ok.any():
        return None
    i = int(np.argmax(ok))
    c, r = mobius_arcs(searcher.mats[i:i + 1], float(pulls[i]), p.delta)
    v = Arc(float(c[0]), float(r[0]))
    w_lo, w_hi = searcher._window_bounds
    listed = (w_lo <= z % math.pi) & (z % math.pi <= w_hi)
    rank = int(np.count_nonzero(listed & (np.arange(len(w_lo)) % len(searcher.words) < i)))
    return (i, searcher.words[i], float(pulls[i]), (v.center, v.radius),
            (float(cw[i]), float(rw[i])), rank)


def _assert_search_matches_the_oracle(searcher, zs):
    """``candidates`` on all zs at once, each z's row of its hit columns, and
    ``candidate`` per z, equal the full-pool oracle field for field; returns
    the oracle's hit indices."""
    hits = searcher.candidates(zs)
    assert (np.diff(hits.at) > 0).all()  # one row per z with a hit, in z order
    rows = dict(zip(hits.at.tolist(), searcher.conicals(hits, np.arange(len(hits.at)))))
    hit_at = []
    for j, z in enumerate(zs):
        batched, ref = rows.get(j), _full_pool_candidate(searcher, z)
        for got in (batched, searcher.candidate(z)):
            if ref is None:
                assert got is None
                continue
            i, word, pull, v, w, _ = ref
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


def test_windowed_search_returns_the_first_hit_of_the_whole_pool(modular_presentation,
                                                                 schottky_cfg):
    searcher = _ConicalSearcher(modular_presentation,
                                SynthesisParams(word_radius=4, coset_ball=1, lead_powers=6))
    zs = [float(z) for z in np.random.default_rng(0).uniform(0.0, math.pi, 300)]
    hit_at = _assert_search_matches_the_oracle(searcher, zs)
    assert 0 < len(hit_at) < 300
    assert max(hit_at) > 64
    assert _in_window(searcher, zs).mean() < 0.5
    # the cusp at 0, in no window; a z repeated inside a chunk; and a z
    # repeated on both sides of the first chunk boundary of the angle order
    assert not _in_window(searcher, [0.0]).any()
    batch = sorted(zs + [zs[0]])
    # the last z with a hit before the boundary, moved up to it by copies of 0
    k = max(k for k in range(min(_CHUNK, len(batch)))
            if _full_pool_candidate(searcher, batch[k]))
    batch = [0.0] * (_CHUNK - 1 - k) + batch + [batch[k]]
    assert sorted(batch)[_CHUNK - 1] == sorted(batch)[_CHUNK] == batch[-1]
    _assert_search_matches_the_oracle(searcher, batch)
    # 4 delta >= pi: every window is the whole circle, listed as two
    # intervals that both hold z = pi/2 (a hit there on schottky), and first
    # hits lie many rounds deep (on pgl2z); a full chunk's first four rounds
    # take 1, 2, 4 and 8 times -(-_ROUND_ROWS // _CHUNK) pairs a z at most
    four_rounds = sum(-(-_ROUND_ROWS // _CHUNK) * 2 ** r for r in range(4))
    ranks, twice = [], []
    for rho, delta, epsilon in [(modular_presentation, 0.9, 0.3),
                                (schottky_cfg.presentation(), 0.79, 0.6)]:
        wide = _ConicalSearcher(rho, SynthesisParams(
            word_radius=4, coset_ball=1, lead_powers=6, delta=delta, epsilon=epsilon))
        w_lo, w_hi = wide._window_bounds
        listed = (w_lo <= math.pi / 2) & (math.pi / 2 <= w_hi)
        assert np.count_nonzero(listed) == 2 * len(wide.words)
        batch = [math.pi / 2] + zs
        assert _assert_search_matches_the_oracle(wide, batch)
        refs = [_full_pool_candidate(wide, z) for z in batch]
        twice.append(refs[0])
        ranks += [ref[-1] for ref in refs if ref is not None]
    assert twice[0] is None and twice[1][-1] == 2 * twice[1][0] > 0
    assert sum(rank > four_rounds for rank in ranks) > 20


@pytest.fixture(scope="module")
def pgl2z_searcher():
    cfg = RunConfig.load(str(CONFIGS / "pgl2z.json"))
    return _ConicalSearcher(cfg.presentation(), cfg.synthesis)


@pytest.mark.parametrize("chunk", [1, 7, 128, 512, 4096])
def test_hit_columns_do_not_depend_on_the_chunking(pgl2z_searcher, monkeypatch, chunk):
    searcher = pgl2z_searcher
    grid = np.linspace(0.0, math.pi, searcher.params.grid, endpoint=False)[::8]
    want = searcher.candidates(grid)
    monkeypatch.setattr(synth, "_CHUNK", chunk)
    got = searcher.candidates(grid)
    for field in dataclasses.fields(want):
        a, b = getattr(want, field.name), getattr(got, field.name)
        assert (a.dtype, a.tobytes()) == (b.dtype, b.tobytes()), field.name
    assert 100 < len(want.at) < len(grid)


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
def test_windows_keep_every_passing_row_without_peripherals(params, schottky_cfg):
    searcher = _ConicalSearcher(schottky_cfg.presentation(), params)
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


def test_gap_loop_pieces_match_a_full_sweep_every_round(pgl2z_cfg, monkeypatch):
    # the gap loop keeps its pieces sorted across rounds, inserting each new
    # inner arc; every round they equal a full sort of the pieces so far,
    # and their sweep finds the gaps that a full sweep of the arcs finds
    arcs, rounds = [], []

    def arc_pieces(centers, radii):
        if isinstance(centers, list):  # the gap loop's first pieces, not a hull's
            arcs.extend(map(Arc, centers, radii))
        return circle.arc_pieces(centers, radii)

    def insert_piece(lo, length, arc):
        new = circle.insert_piece(lo, length, arc)
        full = sorted([*zip(lo.tolist(), length.tolist()),
                       ((arc.center - arc.radius) % math.pi, 2 * arc.radius)])
        assert list(zip(*(x.tolist() for x in new))) == full
        arcs.append(arc)
        return new

    def sweep(lo, length, tol=1e-12):
        gaps = circle.sweep(lo, length, tol)
        if tol == 1e-12:  # the gap loop's sweep, not a hull's
            full = circle.sweep(*circle.arc_pieces([a.center for a in arcs],
                                                   [a.radius for a in arcs])[:2])
            assert [g.tolist() for g in gaps] == [g.tolist() for g in full]
            rounds.append(len(gaps[0]))
        return gaps

    for name, spy in [("arc_pieces", arc_pieces), ("insert_piece", insert_piece),
                      ("sweep", sweep)]:
        monkeypatch.setattr(synth, name, spy)
    res = synthesize_rp1(pgl2z_cfg.presentation(), pgl2z_cfg.synthesis)
    assert len(res.graph.vertices) == 279
    assert len(rounds) > 40 and rounds[-1] == 0 and min(rounds[:-1]) > 0
    assert len(arcs) > 2000


# -- the key tables against the per-word loops they replaced -----------------


def _per_word_ball(rho, radius):
    """Reference: the generator ball word by word, each word evaluated; the
    words, and their ``Matrix.key`` entries one row per word."""
    gens = []
    for name in sorted(rho.generators):
        gens.append(((name, 1),))
        gens.append(((name, -1),))
    seen = {rho.evaluate(()).key()}
    out = []
    frontier = [()]
    for _ in range(radius):
        nxt = []
        for w in frontier:
            for g in gens:
                w2 = concat(w, g)
                k = rho.evaluate(w2).key()
                if k in seen:
                    continue
                seen.add(k)
                nxt.append(w2)
                out.append(w2)
        frontier = nxt
    return out, np.array([rho.evaluate(w).key()[2] for w in out]).reshape(-1, 4)


def _per_word_coset_candidates(rho, t_name, p_angle, params):
    """Reference: the coset candidates word by word, each word evaluated."""
    short = [()] + _per_word_ball(rho, params.coset_ball)[0]
    pts = {}
    base = vec_of(p_angle)
    mats_short = {w: rho.evaluate(w).arr for w in short}
    for v in short:
        pv = mats_short[v] @ base
        for a in range(-params.lead_powers, params.lead_powers + 1):
            a_word = ((t_name, a),) if a else ()
            pa = rho.evaluate(a_word).arr @ pv if a else pv
            for u in short:
                full = concat(u, a_word, v)
                ang = float(angles(mats_short[u] @ pa))
                rank = (abs(a), len(u) + len(v), word_str(full))
                bucket = pts.setdefault(round(ang / 1e-9), [])
                wkey = rho.evaluate(full).key()
                if any(k == wkey for _, _, _, k in bucket):
                    continue
                bucket.append((rank, ang, full, wkey))
                bucket.sort()
                del bucket[3:]
    items = sorted((ang, full) for bucket in pts.values() for _, ang, full, _ in bucket)
    return [x[0] for x in items], [x[1] for x in items]


def _per_word_pool(rho, params):
    """Reference: the search pool word by word, and each word's ``arr``."""
    pool = _per_word_ball(rho, params.word_radius)[0]
    seen = {rho.evaluate(w).key() for w in pool}
    syllable = []
    short = [()] + _per_word_ball(rho, params.coset_ball)[0]
    for p in rho.peripherals:
        for a in range(2, params.lead_powers + 1):
            for sign in (1, -1):
                for u in short:
                    for v in short:
                        w2 = concat(u, ((p.generators[0], sign * a),), v)
                        k = rho.evaluate(w2).key()
                        if k in seen:
                            continue
                        seen.add(k)
                        syllable.append((a, len(u) + len(v), word_str(w2), w2))
    syllable.sort(key=lambda x: x[:3])
    pool.extend(w for _, _, _, w in syllable)
    return pool, np.array([rho.evaluate(w).arr for w in pool])


def _modular_like(t, s, r, point=(1, 0)):
    return GroupPresentation(
        dim=2, generators={"t": Matrix(t), "s": Matrix(s), "r": Matrix(r)},
        peripherals=[Peripheral("pt", ["t"], truncation=80, parabolic_point=list(point))])


_Q = 2 ** 0.25  # conjugation by diag(q, 1/q) scales the upper right entry by q^2


TABLE_CASES = [
    (lambda: RunConfig.load(str(CONFIGS / "pgl2z.json")).presentation(),
     SynthesisParams(word_radius=10), np.int64),
    (lambda: RunConfig.load(str(CONFIGS / "pgl2z.json")).presentation(),
     SynthesisParams(word_radius=6, coset_ball=1, lead_powers=6), np.int64),
    # entries past the 2^62 bound: the table runs on Python ints
    (lambda: _modular_like([[1, 2**40], [0, 1]], [[0, -1], [1, 0]], [[0, 1], [1, 0]]),
     SynthesisParams(word_radius=2, coset_ball=1), object),
    # non-integral generators: rows from each word's evaluation
    (lambda: _modular_like([[1.0, _Q * _Q], [0.0, 1.0]], [[0.0, -_Q * _Q], [1 / (_Q * _Q), 0.0]],
                           [[0.0, _Q * _Q], [1 / (_Q * _Q), 0.0]], point=(_Q, 0.0)),
     SynthesisParams(word_radius=6, lead_powers=20), np.float64),
    # no flank but the identity, and no power with |a| >= 2 for the pool
    (lambda: RunConfig.load(str(CONFIGS / "pgl2z.json")).presentation(),
     SynthesisParams(word_radius=5, coset_ball=0, lead_powers=1), np.int64),
]
TABLE_IDS = ["pgl2z", "coset_ball-1", "python-ints", "non-integral", "lead_powers-1"]


@pytest.mark.parametrize("rho, params, dtype", TABLE_CASES, ids=TABLE_IDS)
def test_syllable_table_matches_the_per_word_loops(rho, params, dtype):
    rho = rho()
    table = _Syllables(rho, params)
    assert table.keys.dtype == dtype
    # one id per element: rows equal as tuples (-0.0 == 0.0) share an id,
    # and rows that differ never do
    rows = list(map(tuple, np.concatenate([table.ball_rows, table.keys.reshape(-1, 4)]).tolist()))
    ids = np.concatenate([table.ball_ids, table.ids.ravel()]).tolist()
    assert len(set(rows)) == len(set(ids)) == len(set(zip(rows, ids)))
    p_angle = angle_of(np.asarray(rho.peripherals[0].parabolic_point, dtype=float))
    assert _coset_candidates(rho, table, 0, p_angle) == _per_word_coset_candidates(
        rho, "t", p_angle, params)
    searcher = _ConicalSearcher(rho, params, table)
    words, mats = _per_word_pool(rho, params)
    assert searcher.words == words
    assert np.array_equal(searcher.mats, mats)
    assert np.array_equal(np.signbit(searcher.mats), np.signbit(mats))


@pytest.mark.parametrize("rho, params", [
    *((rho, params) for rho, params, _ in TABLE_CASES),
    (lambda: RunConfig.load(str(CONFIGS / "schottky.json")).presentation(),
     SynthesisParams(word_radius=6, coset_ball=0)),
], ids=TABLE_IDS + ["schottky"])
def test_word_ball_matches_the_per_word_bfs(rho, params):
    rho = rho()
    for radius in (params.word_radius, params.coset_ball):
        words, rows = _word_ball(rho, radius)
        want_words, want_rows = _per_word_ball(rho, radius)
        assert words == want_words
        assert rows.shape == want_rows.shape and (rows == want_rows).all()


def test_word_ball_refuses_a_length_past_its_bound(monkeypatch):
    # rank 2: 4, 12, 36 words at lengths 1-3; length 4 is 36 x 4 = 144 rows
    rho = RunConfig.load(str(CONFIGS / "schottky.json")).presentation()
    want = _word_ball(rho, 3)
    monkeypatch.setattr(synth, "_MAX_BALL_ROWS", 64)  # length 3: 16 words + 12 x 4 rows
    words, rows = _word_ball(rho, 3)
    assert words == want[0] and (rows == want[1]).all()
    with pytest.raises(ConfigError, match=r"^synthesis.word_radius 6 is too large: the word "
                       r"ball reached radius 3 with 52 words, and radius 4 would pass 64 rows$"):
        _word_ball(rho, 6)
    monkeypatch.setattr(synth, "_MAX_BALL_ROWS", 63)
    with pytest.raises(ConfigError, match="synthesis.coset_ball 3 .* reached radius 2 with 16"):
        _word_ball(rho, 3, "coset_ball")


def test_pgl2z_word_ball_is_far_inside_the_bound():
    cfg = RunConfig.load(str(CONFIGS / "pgl2z.json"))
    words, _ = _word_ball(cfg.presentation(), cfg.synthesis.word_radius)
    # each check sees at most the ball's words and six generator rows per word
    assert len(words) == 1491 and 7 * len(words) < synth._MAX_BALL_ROWS


@pytest.mark.parametrize("case", [0, 2], ids=["pgl2z", "python-ints"])
def test_integral_word_ball_multiplies_key_rows_not_words(case, monkeypatch):
    # each length is the last length's kept key rows times the generators:
    # no word is evaluated, so no Matrix product is formed
    rho, params, _ = TABLE_CASES[case]
    rho = rho()
    products = []
    matmul = Matrix.__matmul__
    monkeypatch.setattr(Matrix, "__matmul__", lambda a, b: products.append(1) or matmul(a, b))
    words, _ = _word_ball(rho, params.word_radius)
    assert len(words) > 10 and products == []


def _gamma2(pgl2z_cfg, q=1.0):
    """Gamma(2), an edit of pgl2z.json: the free group on a = [[1, 2], [0, 1]]
    and b = [[1, 0], [2, 1]], with derived c = a^-1 b and a cusp for each,
    at [1, 0], [0, 1] and [1, -1]. q != 1 conjugates it by diag(q, 1/q),
    which makes its entries, and so its key rows, floats."""
    raw = copy.deepcopy(pgl2z_cfg.raw)
    upper, lower = (2, 2) if q == 1 else (2 * q * q, 2 / (q * q))
    raw["generators"] = [{"name": "a", "matrix": [[1, upper], [0, 1]]},
                         {"name": "b", "matrix": [[1, 0], [lower, 1]]}]
    raw["derived"] = [{"name": "c", "word": "a^-1 b"}]
    raw["peripherals"] = [
        {"name": f"p{t}", "generators": [t], "truncation": 80, "parabolic_point": point}
        for t, point in [("a", [1, 0]), ("b", [0, 1]), ("c", [q, -1 / q])]]
    raw["synthesis"].update(word_radius=4, coset_ball=1, lead_powers=6)
    cfg = RunConfig.from_dict(raw)
    return cfg.presentation(), cfg.synthesis


@pytest.mark.parametrize("q", [1.0, _Q], ids=["integral", "float-keys"])
def test_three_cusp_tables_match_the_per_word_loops(pgl2z_cfg, q):
    # every peripheral of Gamma(2) through the syllable table; the float
    # conjugate's key rows hold -0.0 beside 0.0 in otherwise equal rows
    rho, params = _gamma2(pgl2z_cfg, q)
    table = _Syllables(rho, params)
    assert table.keys.dtype == (np.int64 if q == 1.0 else np.float64)
    for t, p in enumerate(rho.peripherals):
        p_angle = angle_of(np.asarray(p.parabolic_point, dtype=float))
        assert _coset_candidates(rho, table, t, p_angle) == _per_word_coset_candidates(
            rho, p.generators[0], p_angle, params)
    searcher = _ConicalSearcher(rho, params, table)
    words, mats = _per_word_pool(rho, params)
    assert searcher.words == words
    assert np.array_equal(searcher.mats, mats)
    # each cusp gives the pool syllable words past the ball
    deep = {name for w in words[len(table.ball):] for name, e in w if abs(e) > 4}
    assert deep == {"a", "b", "c"}
    rows = np.concatenate([table.ball_rows, table.keys.reshape(-1, 4)])
    if q != 1.0:
        assert len({row.tobytes() for row in rows}) > len(set(map(tuple, rows.tolist())))


def _bisection_windows(mats, delta):
    """Reference: the expansion windows with each Phi the upper bracket of 60
    bisection steps on h(Phi) = delta + _WINDOW_SLACK; returns the centers,
    radii (-1 where h(0) >= delta + _WINDOW_SLACK), the ratios k and Phi."""
    if 4 * delta >= math.pi:
        n = len(mats)
        return np.zeros(n), np.full(n, math.pi / 2), None, np.full(n, math.pi / 2)
    a, b, c, d = mats[:, 0, 0], mats[:, 0, 1], mats[:, 1, 0], mats[:, 1, 1]
    p, q, r = a * a + c * c, a * b + c * d, b * b + d * d
    v1_angle = 0.5 * np.arctan2(2 * q, p - r)
    k = np.abs(a * d - b * c) / ((p + r) / 2 + np.hypot((p - r) / 2, q))
    target = delta + _WINDOW_SLACK

    def image_length(phi):
        lo, hi = phi - 2 * delta, phi + 2 * delta
        return np.arctan2(k * np.sin(hi), np.cos(hi)) - np.arctan2(k * np.sin(lo), np.cos(lo))

    lo, hi = np.zeros(len(k)), np.full(len(k), math.pi / 2)
    for _ in range(60):
        mid = (lo + hi) / 2
        inside = image_length(mid) < target
        lo, hi = np.where(inside, mid, lo), np.where(inside, hi, mid)
    centers, radii = circle.mobius_arcs(mats, v1_angle, hi)
    return centers, np.where(image_length(0.0) < target, radii + _WINDOW_SLACK, -1.0), k, hi


def test_closed_form_windows_match_the_bisection(schottky_cfg):
    cases = [(rho, params) for rho, params, _ in TABLE_CASES] + [
        (schottky_cfg.presentation, SynthesisParams(word_radius=6)),
        # 4 delta >= pi: every window is the whole circle, Phi = pi/2
        (TABLE_CASES[1][0], SynthesisParams(word_radius=4, coset_ball=1, lead_powers=6,
                                            delta=0.9, epsilon=0.3))]
    never, clamped = 0, 0
    for rho, params in cases:
        mats = _ConicalSearcher(rho(), params).mats
        _, want_radii, k, want_phi = _bisection_windows(mats, params.delta)
        centers, radii = _expansion_windows(mats, params.delta)
        assert np.array_equal(radii < 0, want_radii < 0)
        never += np.count_nonzero(radii < 0)
        if k is None:
            assert (radii == math.pi / 2).all() and (centers == 0).all()
            clamped += len(radii)
            continue
        phi = _window_angles(k, params.delta)
        assert np.array_equal(phi < 0, want_radii < 0)
        assert np.abs(phi - want_phi)[phi >= 0].max() <= 1e-12
        clamped += np.count_nonzero(phi == math.pi / 2)
    assert never > 0 and clamped > 0


def test_word_str_calls_stay_per_part(pgl2z_cfg, monkeypatch):
    # the syllable table, the coset candidates and the search pool form the
    # strings of flanks and lead powers once, not one string per row (one
    # word_str per ranked row and per pool word would make 8,515 calls)
    calls, real = [], synth.word_str

    def spy(word):
        calls.append(word)
        return real(word)

    monkeypatch.setattr(synth, "word_str", spy)
    rho, params = pgl2z_cfg.presentation(), pgl2z_cfg.synthesis
    table = _Syllables(rho, params)
    _coset_candidates(rho, table, 0, 0.0)
    _ConicalSearcher(rho, params, table)
    assert len(calls) <= 157


def test_pgl2z_pool_and_coset_sizes():
    cfg = RunConfig.load(str(CONFIGS / "pgl2z.json"))
    rho, params = cfg.presentation(), cfg.synthesis
    table = _Syllables(rho, params)
    angles_, _ = _coset_candidates(rho, table, 0, 0.0)
    assert len(angles_) == 1456
    assert len({round(a / 1e-9) for a in angles_}) == 488
    assert len(_ConicalSearcher(rho, params, table).words) == 4948
    assert len(_ConicalSearcher(rho, params).words) == 4948  # as the bench builds it


def test_syllable_words_match_concat_on_the_pgl2z_table():
    cfg = RunConfig.load(str(CONFIGS / "pgl2z.json"))
    table = _Syllables(cfg.presentation(), cfg.synthesis)
    L, short = table.lead_powers, table.short
    cascades = 0
    for t, a, u, v in np.ndindex(table.keys.shape[:4]):
        want = concat(short[u], ((table.t_names[t], a - L),), short[v])
        assert table.word(t, a, u, v) == want, (t, a, u, v)
        # a cancelled lead merges the flanks past the seam
        cascades += len(want) < len(short[u]) + len(short[v]) - 1
    assert cascades > 0


@pytest.mark.parametrize("delta, epsilon", [(2.5, 0.05), (0.05, 0.8), (0.0, 0.05)])
def test_improper_pullback_balls_fail_synthesis(modular_presentation, delta, epsilon):
    with pytest.raises(SynthesisFailed, match="proper arc"):
        synthesize_rp1(modular_presentation, SynthesisParams(delta=delta, epsilon=epsilon))


def test_oversized_hat_neighborhood_fails_synthesis(modular_presentation):
    # 2 (delta + epsilon) < pi/2, but the fundamental interval (radius pi/8)
    # plus 2 delta + 2 epsilon is no proper arc
    with pytest.raises(SynthesisFailed, match="hat neighborhoods"):
        synthesize_rp1(modular_presentation, SynthesisParams(delta=0.3, epsilon=0.3))
