import hashlib
import math
import random

import numpy as np
import pytest

from flagdyn import conedoff
from flagdyn.conedoff import ConedGraph, Presentation, quasigeodesic_check
from flagdyn.errors import OutOfBall
from flagdyn.linalg import Matrix
from flagdyn.words import GroupPresentation, Peripheral, concat, parse_word

MODULAR = {
    "t": Matrix([[1, 1], [0, 1]]),
    "s": Matrix([[0, -1], [1, 0]]),
    "r": Matrix([[0, 1], [1, 0]]),
}

# Sanov's free subgroup of PGL(2, Z): a and b generate a free group, and
# a is parabolic
SANOV = {"a": Matrix([[1, 2], [0, 1]]), "b": Matrix([[1, 0], [2, 1]])}


def _sanov(peripherals):
    rho = GroupPresentation(dim=2, generators=dict(SANOV))
    return Presentation(generators=["a", "b"], peripherals=peripherals, rho=rho)


@pytest.fixture(scope="module")
def f2_plain():
    return ConedGraph(_sanov([]))


@pytest.fixture(scope="module")
def f2_rel_a():
    return ConedGraph(_sanov([("pa", "a")]), truncation=16)


@pytest.fixture(scope="module")
def pgl2z():
    rho = GroupPresentation(
        dim=2,
        generators=dict(MODULAR),
        peripherals=[Peripheral("pt", ["t"], truncation=40, parabolic_point=[1, 0])],
    )
    pres = Presentation(generators=["t", "s", "r"], peripherals=[("pt", "t")], rho=rho)
    return ConedGraph(pres, truncation=24)


def test_generator_distance(f2_rel_a):
    assert f2_rel_a.distance((), parse_word("a"), 5) == 1
    assert f2_rel_a.distance((), parse_word("b"), 5) == 1


def test_coset_collapse(f2_rel_a):
    # all powers of the peripheral generator sit at distance 2 via the cone
    for n in (2, 5, 10, 16):
        assert f2_rel_a.distance((), parse_word(f"a^{n}"), 6) == 2
    # and any two elements of one coset are within distance 2
    assert f2_rel_a.distance(parse_word("b a^3"), parse_word("b a^-7"), 6) == 2


def test_cone_hop_composite(f2_rel_a):
    # b, cone hop across a^10, b again
    assert f2_rel_a.distance((), parse_word("b a^10 b"), 10) == 4


def test_plain_free_group_distances(f2_plain):
    assert f2_plain.distance((), parse_word("a b a b^-1"), 10) == 4
    assert f2_plain.distance(parse_word("a"), parse_word("a b"), 10) == 1


def test_metric_axioms_sampled(f2_rel_a):
    words = [parse_word(w) for w in ["", "a", "b", "a b", "b a^4", "a^3 b^-1"]]
    for x in words:
        for y in words:
            dxy = f2_rel_a.distance(x, y, 10)
            assert dxy == f2_rel_a.distance(y, x, 10)
            if x == y:
                assert dxy == 0
            for z in words:
                dxz = f2_rel_a.distance(x, z, 10)
                dzy = f2_rel_a.distance(z, y, 10)
                assert dxy <= dxz + dzy


def test_truncation_monotone():
    small = ConedGraph(_sanov([("pa", "a")]), truncation=4)
    big = ConedGraph(_sanov([("pa", "a")]), truncation=16)
    w = parse_word("b a^9 b")
    d_big = big.distance((), w, 10)
    d_small = small.distance((), w, 20)
    assert d_big <= d_small


def test_out_of_ball(f2_plain):
    with pytest.raises(OutOfBall):
        f2_plain.distance((), parse_word("a b a b a b"), radius=3)


def test_geodesic_endpoints(f2_rel_a):
    geo = f2_rel_a.geodesic((), parse_word("b a^10 b"), 10)
    assert len(geo) - 1 == 4
    assert geo[0] == f2_rel_a.node_of_word(())
    assert geo[-1] == f2_rel_a.node_of_word(parse_word("b a^10 b"))


def test_quasigeodesic_geodesic_prefixes(f2_plain):
    w = parse_word("a b a b a b a b")
    prefixes = [w[:i] for i in range(1, 9)]
    rep = quasigeodesic_check(f2_plain, prefixes, radius=12, d_max=1)
    assert rep.measured_d == 0
    assert rep.ok


def test_quasigeodesic_detour(f2_plain):
    prefixes = [parse_word(w) for w in ["a", "a b", "a b b", "a b", "a b a"]]
    rep = quasigeodesic_check(f2_plain, prefixes, radius=12, d_max=3)
    assert rep.measured_d == 1


def test_schottky_automaton_paths_quasigeodesic(f2_plain, schottky_cfg):
    # free-group normal forms are geodesics: automaton path prefixes at
    # depth 12, read in Sanov's free group, stay within Hausdorff distance 1
    from flagdyn.automaton import enumerate_paths
    from flagdyn.words import concat

    rho, graph = schottky_cfg.presentation(), schottky_cfg.graph()
    paths, _ = enumerate_paths(graph, 12, "random", rho, seed=5, cap=5)
    for p in paths:
        prefixes, acc = [], ()
        for w in p.words:
            acc = concat(acc, w)
            prefixes.append(acc)
        rep = quasigeodesic_check(f2_plain, prefixes, radius=16, d_max=1)
        assert rep.measured_d <= 1


def test_pgl2z_distances(pgl2z):
    assert pgl2z.distance((), parse_word("t^7"), 6) == 2
    assert pgl2z.distance((), parse_word("s"), 6) == 1
    assert pgl2z.distance((), parse_word("t^3 s t^-9 s"), 16) == 6
    # det -1 elements live in the same graph
    assert pgl2z.distance((), parse_word("r t^5"), 8) == 3


def test_pgl2z_relation_identified(pgl2z):
    # (st)^3 = id in PGL(2, Z)
    assert pgl2z.distance((), parse_word("s t s t s t"), 6) == 0


def test_matrix_presentation_rejects_inexact_generators():
    float_rho = GroupPresentation(dim=2, generators={"t": Matrix([[1, 1], [0, 1]]),
                                                     "h": Matrix([[2.0, 0.0], [0.0, 0.5]])})
    with pytest.raises(ValueError, match="generator h"):
        Presentation(generators=["t", "h"], peripherals=[], rho=float_rho)
    rho3 = GroupPresentation(dim=3, generators={"u": Matrix([[1, 1, 0], [0, 1, 0], [0, 0, 1]])})
    with pytest.raises(ValueError, match="generator u"):
        Presentation(generators=["u"], peripherals=[], rho=rho3)
    # every generator needs a matrix
    with pytest.raises(ValueError, match="generator x has no matrix"):
        Presentation(generators=["t", "x"], peripherals=[],
                     rho=GroupPresentation(dim=2, generators=dict(MODULAR)))


def test_matrix_presentation_rejects_non_parabolic_peripherals():
    gens = dict(MODULAR, h=Matrix([[2, 1], [1, 1]]), e=Matrix([[1, 0], [0, 1]]),
                m=Matrix([[2, 1], [1, 0]]))
    rho = GroupPresentation(dim=2, generators=gens)
    # hyperbolic, the identity, |trace| 2 with det -1, and the order-2 element s
    for name in ("h", "e", "m", "s"):
        with pytest.raises(ValueError, match=f"generator {name} is not parabolic"):
            Presentation(generators=sorted(gens), peripherals=[("p", name)], rho=rho)
    Presentation(generators=sorted(gens), peripherals=[("p", "t")], rho=rho)


def test_presentation_rejects_unknown_kind_and_names():
    sanov = GroupPresentation(dim=2, generators=dict(SANOV))
    # "matrix" is the only kind: a free group is a matrix group too
    for kind in ("bogus", "free"):
        with pytest.raises(ValueError, match=f"unknown presentation kind '{kind}'"):
            Presentation(generators=["a", "b"], peripherals=[], rho=sanov, kind=kind)
    assert Presentation(generators=["a", "b"], peripherals=[], rho=sanov,
                        kind="matrix").kind == "matrix"
    # a peripheral generator must be one of the generators, in either group
    with pytest.raises(ValueError, match="peripheral pc generator c is not a generator"):
        Presentation(generators=["a", "b"], peripherals=[("pc", "c")], rho=sanov)
    rho = GroupPresentation(dim=2, generators=dict(MODULAR))
    with pytest.raises(ValueError, match="peripheral pc generator c is not a generator"):
        Presentation(generators=["t", "s"], peripherals=[("pc", "c")], rho=rho)


def _random_words(names, count, seed, max_len=6):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        w = tuple((rng.choice(names), rng.choice((-3, -2, -1, 1, 2, 5)))
                  for _ in range(rng.randint(0, max_len)))
        out.append(concat(w))
    return out


# (group, generator names, max word length) of the search tests: "free" is
# Sanov's free group with peripheral <a>, "matrix" is PGL(2, Z) with <t>
GROUPS = [("free", ["a", "b"], 3), ("matrix", ["t", "s", "r"], 5)]


def _search_pairs(names, max_len):
    starts = _random_words(names, 12, seed=3, max_len=max_len)
    steps = _random_words(names, 12, seed=4, max_len=max_len)
    return [(v, concat(v, u)) for v, u in zip(starts, steps)]


def _assert_coset_key_invariant(graph, t_name, seed):
    (p_name, _), = graph.pres.peripherals
    T = graph.truncation

    def key(word):
        return graph._coset_key(graph.label(graph.node_of_word(word))[1], p_name)

    for g in _random_words(sorted(graph.pres.generators), 25, seed):
        rep, j = key(g)
        assert graph._coset_key(rep, p_name) == (rep, 0), g
        for m in (1, -1, T, -T, 3 * T, -3 * T, 400, -400):
            assert key(concat(g, ((t_name, m),))) == (rep, j + m), (g, m)
        assert key(concat(g, (("s", 1),)))[0] != rep, g


def test_pgl2z_coset_key_is_constant_on_cosets(pgl2z):
    _assert_coset_key_invariant(pgl2z, "t", seed=11)


def test_pgl2z_coset_members_share_a_cone(pgl2z):
    # the windows of the representatives id and s end at |j| = 24
    assert pgl2z.distance((), parse_word("t^24"), 6) == 2
    assert pgl2z.distance((), parse_word("t^25"), 6) == 3
    assert pgl2z.distance(parse_word("s t^3"), parse_word("s t^-22"), 6) == 2
    assert pgl2z._coset_key(pgl2z.label(pgl2z.node_of_word(parse_word("s t^-20")))[1],
                            "pt") == (pgl2z.label(pgl2z.node_of_word(parse_word("s")))[1], -20)
    # beyond the window a member is not adjacent to the cone
    far = parse_word("t^60")
    with pytest.raises(OutOfBall):
        pgl2z.distance((), far, 6)
    with pytest.raises(OutOfBall):
        pgl2z.set_distances([pgl2z.node_of_word(())], [pgl2z.node_of_word(far)], 5)


@pytest.mark.parametrize("name, matrix", [
    ("u", [[1, 2], [0, 1]]),  # t^2: k = 2
    ("v", [[1, 0], [-1, 1]]),  # s t s^-1: fixed vector (0, 1)
    ("w", [[-5, 12], [-3, 7]]),  # A t^3 A^-1, A = [[2, 1], [1, 1]]: k = 3
])
def test_coset_key_of_conjugated_or_non_unit_peripheral(name, matrix):
    gens = dict(MODULAR, **{name: Matrix(matrix)})
    rho = GroupPresentation(dim=2, generators=gens)
    pres = Presentation(generators=sorted(gens), peripherals=[("p", name)], rho=rho)
    graph = ConedGraph(pres, truncation=6)
    _assert_coset_key_invariant(graph, name, seed=5)
    assert graph.distance(parse_word(f"r {name}^2"), parse_word(f"r {name}^-4"), 6) == 2
    assert graph.distance(parse_word(f"r {name}^2"), parse_word(f"r {name}^-7"), 6) == 3


def _ball(graph, radius):
    ball = {graph.node_of_word(())}
    frontier = list(ball)
    for _ in range(radius):
        nxt = []
        for n in frontier:
            for m in graph.neighbors(n):
                if m not in ball:
                    ball.add(m)
                    nxt.append(m)
        frontier = nxt
    return ball


def _plain_bfs_distance(graph, a, b):
    dist = {a: 0}
    frontier = [a]
    while b not in dist:
        nxt = []
        for n in frontier:
            for m in graph.neighbors(n):
                if m not in dist:
                    dist[m] = dist[n] + 1
                    nxt.append(m)
        frontier = nxt
    return dist[b]


def _graph_of(group, truncation):
    if group == "free":
        pres = _sanov([("pa", "a")])
    else:
        pres = Presentation(generators=["t", "s", "r"], peripherals=[("pt", "t")],
                            rho=GroupPresentation(dim=2, generators=dict(MODULAR)))
    return ConedGraph(pres, truncation=truncation)


@pytest.mark.parametrize("group, truncation", [("free", 16), ("matrix", 6)])
def test_coned_graph_is_undirected(group, truncation):
    graph = _graph_of(group, truncation)
    ball = _ball(graph, 3)
    assert any(graph.label(n)[0] == "c" for n in ball)
    for n in ball:
        for m in graph.neighbors(n):
            assert n in graph.neighbors(m), (n, m)


@pytest.mark.parametrize("group, names, max_len", GROUPS)
def test_searches_agree_with_plain_bfs(group, names, max_len):
    # truncation 6, so the pairs cross cone windows
    graph = _graph_of(group, 6)
    pairs = _search_pairs(names, max_len)
    if group == "free":
        pairs += [((), parse_word("a^10")), ((), parse_word("a^10 b"))]
    got = []
    for v, w in pairs:
        a, b = graph.node_of_word(v), graph.node_of_word(w)
        d = graph.distance(v, w, 16)
        assert graph.set_distances([a], [b], 16) == {b: d}, (v, w)
        assert _plain_bfs_distance(graph, a, b) == d, (v, w)
        got.append(d)
    assert max(got) >= 3
    if group == "free":
        # one cone hop to a^6, then the letters beyond the window
        assert got[-2:] == [6, 7]


# --- memoized adjacency ------------------------------------------------------------


@pytest.mark.parametrize("group, names, max_len", GROUPS)
def test_warm_adjacency_matches_a_fresh_graph(group, names, max_len):
    warm, cold = _graph_of(group, 6), _graph_of(group, 6)
    for v, w in _search_pairs(names, max_len):
        warm.distance(v, w, 16)
    ball = _ball(warm, 3)
    assert any(warm.label(n)[0] == "c" for n in ball)
    cold_ids = {cold.label(n): n for n in _ball(cold, 3)}
    for n in ball:
        got = warm.neighbors(n)
        assert type(got) is np.ndarray and warm.neighbors(n) is got
        labels = [warm.label(m) for m in got.tolist()]
        assert labels == [cold.label(m) for m in cold.neighbors(cold_ids[warm.label(n)]).tolist()], n
        # element nodes are interned: equal elements are one id
        assert all(m == warm._elems[warm._keys[m]] for m, lab in zip(got.tolist(), labels)
                   if lab[0] == "e")
    assert len({warm.label(n) for n in ball}) == len(ball)


@pytest.mark.parametrize("group, names, max_len", GROUPS)
def test_searches_agree_between_warm_and_cold_graphs(group, names, max_len):
    warm = _graph_of(group, 6)
    _ball(warm, 3)
    def labelled(graph, dists):
        return {graph.label(n): d for n, d in dists.items()}

    for v, w in _search_pairs(names, max_len):
        a, b = warm.node_of_word(v), warm.node_of_word(w)
        for _ in range(2):  # the second query is fully warm
            assert warm.distance(v, w, 16) == _graph_of(group, 6).distance(v, w, 16)
            cold = _graph_of(group, 6)
            assert ([warm.label(n) for n in warm.geodesic(v, w, 16)]
                    == [cold.label(n) for n in cold.geodesic(v, w, 16)])
            cold = _graph_of(group, 6)
            ca, cb = cold.node_of_word(v), cold.node_of_word(w)
            assert (labelled(warm, warm.set_distances([a], [b, a], 16))
                    == labelled(cold, cold.set_distances([ca], [cb, ca], 16)))


@pytest.mark.parametrize("group, names, max_len", GROUPS)
def test_repeated_distance_on_a_warm_graph_multiplies_nothing(group, names, max_len,
                                                              monkeypatch):
    graph = _graph_of(group, 6)
    pairs = _search_pairs(names, max_len)
    want = [graph.distance(v, w, 16) for v, w in pairs]
    products = []

    def counted(mul):
        return lambda *args: products.append(1) or mul(*args)

    monkeypatch.setattr(conedoff, "_int_mul", counted(conedoff._int_mul))
    monkeypatch.setattr(conedoff, "exact_keys", counted(conedoff.exact_keys))
    assert [graph.distance(v, w, 16) for v, w in pairs] == want
    assert products == []
    # the counters do see the products of a cold graph
    assert [_graph_of(group, 6).distance(v, w, 16) for v, w in pairs] == want
    assert products


# --- brute-force oracle: plain integer 2x2 products, no linalg kernel --------------


def _canon(a, b, c, d):
    g = math.gcd(math.gcd(a, b), math.gcd(c, d))
    a, b, c, d = a // g, b // g, c // g, d // g
    return (a, b, c, d) if next(x for x in (a, b, c, d) if x) > 0 else (-a, -b, -c, -d)


def _times(g, h):
    a, b, c, d = g
    e, f, u, v = h
    return _canon(a * e + b * u, a * f + b * v, c * e + d * u, c * f + d * v)


class _OracleGraph:
    """The truncated coned graph of a PGL(2, Z) presentation, node by node:
    elements as canonical 4-tuples, coset keys by the frame arithmetic on
    Python ints, one plain BFS per query."""

    def __init__(self, gens, peripherals, truncation):
        self.gens = {}
        for name, ((a, b), (c, d)) in gens.items():
            self.gens[name] = _canon(a, b, c, d)
            self.gens[name + "^-1"] = _canon(d, -b, -c, a)
        self.steps = [self.gens[k] for name in gens for k in (name, name + "^-1")]
        self.truncation = truncation
        self.peripherals = {}
        for p_name, t_name in peripherals:
            frame = conedoff._parabolic_frame(gens[t_name])
            window = []
            for j in range(-truncation, truncation + 1):
                step = self.gens[t_name if j > 0 else t_name + "^-1"]
                out = (1, 0, 0, 1)
                for _ in range(abs(j)):
                    out = _times(out, step)
                window.append(out)
            self.peripherals[p_name] = (frame, window)

    def element(self, word):
        out = (1, 0, 0, 1)
        for name, exp in word:
            for _ in range(abs(exp)):
                out = _times(out, self.gens[name if exp > 0 else name + "^-1"])
        return ("e", out)

    @staticmethod
    def coset(g, frame):
        ((p, x), (q, y)), k = frame
        g00, g01, g10, g11 = g
        a, b, c, d = g00 * p + g01 * q, g00 * x + g01 * y, g10 * p + g11 * q, g10 * x + g11 * y
        if a < 0 or (a == 0 and c < 0):
            a, b, c, d = -a, -b, -c, -d
        j = b // (k * a) if a else d // (k * c)
        b, d = b - j * k * a, d - j * k * c
        return _canon(a * y - b * q, b * p - a * x, c * y - d * q, d * p - c * x), j

    def neighbors(self, node):
        if node[0] == "c":
            _, p_name, rep = node
            return [("e", _times(rep, w)) for w in self.peripherals[p_name][1]]
        out = [("e", _times(node[1], s)) for s in self.steps]
        for p_name, (frame, _) in self.peripherals.items():
            rep, j = self.coset(node[1], frame)
            if abs(j) <= self.truncation:
                out.append(("c", p_name, rep))
        return out

    def distances(self, sources, depth):
        dist = dict.fromkeys(sources, 0)
        frontier = list(dist)
        for level in range(1, depth + 1):
            nxt = []
            for n in frontier:
                for m in self.neighbors(n):
                    if m not in dist:
                        dist[m] = level
                        nxt.append(m)
            frontier = nxt
        return dist


def _oracle_label(graph, node):
    """A graph node in the oracle's terms: rows flattened to 4-tuples."""
    lab = graph.label(node)
    flat = sum(lab[-1], ())
    return ("e", flat) if lab[0] == "e" else ("c", lab[1], flat)


GAMMA2 = dict(SANOV, c=Matrix([[-3, -2], [2, 1]]))  # c = a^-1 b

# (generators, peripherals, truncation, search radius, max step length)
ORACLE_CASES = {
    "pgl2z-T6": (MODULAR, [("pt", "t")], 6, 7, 7),
    # the free-group tests' graph at truncation 4, where a window centred on a
    # coset's frame representative is not the one centred on its shortest word
    "sanov-T4": (SANOV, [("pa", "a")], 4, 6, 5),
    "gamma2-three-cusps": (GAMMA2, [("pa", "a"), ("pb", "b"), ("pc", "c")], 4, 5, 5),
    "conjugated-k3": (dict(MODULAR, w=Matrix([[-5, 12], [-3, 7]])), [("p", "w")], 6, 5, 5),
    # h's products pass 2^62 after one step, and its powers pass int64
    "python-ints": (dict(MODULAR, h=Matrix([[2 ** 40 + 1, 2 ** 40], [1, 1]])),
                    [("pt", "t")], 5, 4, 4),
}


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_searches_agree_with_a_brute_force_oracle(case):
    gens, peripherals, truncation, radius, max_len = ORACLE_CASES[case]
    rho = GroupPresentation(dim=2, generators=dict(gens))
    graph = ConedGraph(Presentation(generators=sorted(gens), peripherals=peripherals, rho=rho),
                       truncation=truncation)
    oracle = _OracleGraph({n: m.exact for n, m in gens.items()}, peripherals, truncation)
    names = sorted(gens)
    starts = _random_words(names, 10, seed=7, max_len=3)
    steps = [u for u in _random_words(names, 40, seed=8, max_len=max_len) if u]
    seen = set()
    for v, u in zip(starts, steps):
        w = concat(v, u)
        a, b = graph.node_of_word(v), graph.node_of_word(w)
        assert _oracle_label(graph, a) == oracle.element(v)
        want = oracle.distances([oracle.element(v)], radius)
        target = oracle.element(w)
        if target not in want:
            with pytest.raises(OutOfBall):
                graph.distance(v, w, radius)
            continue
        d = want[target]
        seen.add(d)
        assert graph.distance(v, w, radius) == d, (v, w)
        geo = graph.geodesic(v, w, radius)
        assert len(geo) - 1 == d
        path = [_oracle_label(graph, n) for n in geo]
        assert path[0] == oracle.element(v) and path[-1] == target
        assert all(y in oracle.neighbors(x) for x, y in zip(path, path[1:]))
        # distances of every geodesic node and both ends to the source set {a}
        got = graph.set_distances([a], geo + [b], radius)
        assert {_oracle_label(graph, n): g for n, g in got.items()} == {
            n: want[n] for n in path}
    assert max(seen) >= 3
    if case == "python-ints":
        assert any(type(k) is tuple for k in graph._elems)
        assert any(type(k) is bytes for k in graph._elems)


def test_set_distances_from_several_sources_agree_with_the_oracle():
    gens, peripherals, truncation, _, _ = ORACLE_CASES["gamma2-three-cusps"]
    rho = GroupPresentation(dim=2, generators=dict(gens))
    graph = ConedGraph(Presentation(generators=sorted(gens), peripherals=peripherals, rho=rho),
                       truncation=truncation)
    oracle = _OracleGraph({n: m.exact for n, m in gens.items()}, peripherals, truncation)
    sources = [parse_word(w) for w in ["a^3", "b^-2 a", "c b"]]
    targets = [parse_word(w) for w in ["", "a^3", "a b^2", "c^-1 a^2 b", "b a^-1 c"]]
    want = oracle.distances([oracle.element(w) for w in sources], 6)
    got = graph.set_distances([graph.node_of_word(w) for w in sources],
                              [graph.node_of_word(w) for w in targets], 6)
    assert {_oracle_label(graph, n): d for n, d in got.items()} == {
        oracle.element(w): want[oracle.element(w)] for w in targets}


# the farthest prefixes of the two criterion-8 paths of the bundled pgl2z
# synthesis (path seed 1), and the sha256 of repr of their geodesics' labels
CRITERION_8_GEODESICS = [
    ("t^-1 r t^-2 r t^-1 r t^-1 r t^-1 r t^-3", 10,
     "8becbf2c0fe9b92b2f5c0cfc45c3a3ca5f004d6058cee69456b5f685dff8a2fe"),
    ("r t^4 r t^3 r t r t^2", 9,
     "100a63a3cfccf955699f11c502d6b2cad49e7e7223c4c56b325c2ac6ff414c2c"),
]


def test_criterion_8_geodesics_are_pinned(pgl2z_cfg):
    rho = pgl2z_cfg.presentation()
    graph = ConedGraph(Presentation(generators=sorted(rho.generators), peripherals=[("pt", "t")],
                                    rho=rho), truncation=28, max_nodes=2500000)
    for word, length, digest in CRITERION_8_GEODESICS:
        geo = [graph.label(n) for n in graph.geodesic((), parse_word(word), 16)]
        assert len(geo) - 1 == length
        assert hashlib.sha256(repr(geo).encode()).hexdigest() == digest, word


def test_quasigeodesic_check_searches_once_per_distinct_prefix(pgl2z, monkeypatch):
    searched = []
    search = ConedGraph._bidirectional

    def counted(self, w1, w2, radius):
        searched.append((w1, w2))
        return search(self, w1, w2, radius)

    monkeypatch.setattr(ConedGraph, "_bidirectional", counted)
    words = [parse_word(w) for w in ["t^3", "t^3 s", "t^3 s t^-2", "t^3 s", "t^3 s t^-2 r"]]
    rep = quasigeodesic_check(pgl2z, words, radius=12, d_max=3)
    distinct = [()] + list(dict.fromkeys(words))
    assert searched == [((), w) for w in distinct]
    assert rep.farthest_distance == max(pgl2z.distance((), w, 12) for w in words)
