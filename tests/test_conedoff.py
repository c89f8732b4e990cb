import random

import pytest

from flagdyn.conedoff import (
    ConedGraph,
    Presentation,
    free_reduce,
    quasigeodesic_check,
)
from flagdyn.errors import OutOfBall
from flagdyn.linalg import Matrix
from flagdyn.words import GroupPresentation, Peripheral, concat, parse_word

MODULAR = {
    "t": Matrix([[1, 1], [0, 1]]),
    "s": Matrix([[0, -1], [1, 0]]),
    "r": Matrix([[0, 1], [1, 0]]),
}


@pytest.fixture(scope="module")
def f2_plain():
    pres = Presentation(generators=["a", "b"], peripherals=[], kind="free")
    return ConedGraph(pres)


@pytest.fixture(scope="module")
def f2_rel_a():
    pres = Presentation(generators=["a", "b"], peripherals=[("pa", "a")], kind="free")
    return ConedGraph(pres, truncation=16)


@pytest.fixture(scope="module")
def pgl2z():
    rho = GroupPresentation(
        dim=2,
        generators=dict(MODULAR),
        peripherals=[Peripheral("pt", ["t"], truncation=40, parabolic_point=[1, 0])],
    )
    pres = Presentation(generators=["t", "s", "r"], peripherals=[("pt", "t")],
                        kind="matrix", rho=rho)
    return ConedGraph(pres, truncation=24)


def test_free_reduce():
    w = [("a", 1), ("a", -1), ("b", 1)]
    assert free_reduce(w) == (("b", 1),)
    assert free_reduce([]) == ()


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
    pres = Presentation(generators=["a", "b"], peripherals=[("pa", "a")], kind="free")
    small = ConedGraph(pres, truncation=4)
    big = ConedGraph(Presentation(generators=["a", "b"], peripherals=[("pa", "a")],
                                  kind="free"), truncation=16)
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
    assert geo[0] == f2_rel_a._node_id(f2_rel_a.node_of_word(()))
    assert geo[-1] == f2_rel_a._node_id(f2_rel_a.node_of_word(parse_word("b a^10 b")))


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


def test_schottky_automaton_paths_quasigeodesic(f2_plain):
    # free-group normal forms are geodesics: automaton path prefixes at
    # depth 12 stay within Hausdorff distance 1
    from flagdyn.automaton import enumerate_paths
    from flagdyn.systems import schottky_graph, schottky_presentation
    from flagdyn.words import concat

    rho = schottky_presentation()
    graph = schottky_graph()
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
        Presentation(generators=["t", "h"], peripherals=[], kind="matrix", rho=float_rho)
    rho3 = GroupPresentation(dim=3, generators={"u": Matrix([[1, 1, 0], [0, 1, 0], [0, 0, 1]])})
    with pytest.raises(ValueError, match="generator u"):
        Presentation(generators=["u"], peripherals=[], kind="matrix", rho=rho3)


def test_matrix_presentation_rejects_non_parabolic_peripherals():
    gens = dict(MODULAR, h=Matrix([[2, 1], [1, 1]]), e=Matrix([[1, 0], [0, 1]]),
                m=Matrix([[2, 1], [1, 0]]))
    rho = GroupPresentation(dim=2, generators=gens)
    # hyperbolic, the identity, |trace| 2 with det -1, and the order-2 element s
    for name in ("h", "e", "m", "s"):
        with pytest.raises(ValueError, match=f"generator {name} is not parabolic"):
            Presentation(generators=sorted(gens), peripherals=[("p", name)],
                         kind="matrix", rho=rho)
    Presentation(generators=sorted(gens), peripherals=[("p", "t")], kind="matrix", rho=rho)


def _random_words(names, count, seed):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        w = tuple((rng.choice(names), rng.choice((-3, -2, -1, 1, 2, 5)))
                  for _ in range(rng.randint(0, 6)))
        out.append(concat(w))
    return out


def _assert_coset_key_invariant(graph, t_name, seed):
    (p_name, _), = graph.pres.peripherals
    T = graph.truncation

    def key(word):
        return graph._coset_key(graph.node_of_word(word)[1], p_name, t_name)

    for g in _random_words(sorted(graph.pres.generators), 25, seed):
        k0 = key(g)
        for k in (1, -1, T, -T, 3 * T, -3 * T, 400, -400):
            assert key(concat(g, ((t_name, k),))) == k0, (g, k)
        assert key(concat(g, (("s", 1),))) != k0, g


def test_pgl2z_coset_key_is_constant_on_cosets(pgl2z):
    _assert_coset_key_invariant(pgl2z, "t", seed=11)


def test_pgl2z_coset_members_share_a_cone(pgl2z):
    # members far outside each other's power window still meet at the cone
    assert pgl2z.distance(parse_word("s t^3"), parse_word("s t^-90"), 6) == 2
    assert pgl2z.distance((), parse_word("t^60"), 6) == 2


@pytest.mark.parametrize("name, matrix", [
    ("u", [[1, 2], [0, 1]]),  # t^2: k = 2
    ("v", [[1, 0], [-1, 1]]),  # s t s^-1: fixed vector (0, 1)
    ("w", [[-5, 12], [-3, 7]]),  # A t^3 A^-1, A = [[2, 1], [1, 1]]: k = 3
])
def test_coset_key_of_conjugated_or_non_unit_peripheral(name, matrix):
    gens = dict(MODULAR, **{name: Matrix(matrix)})
    rho = GroupPresentation(dim=2, generators=gens)
    pres = Presentation(generators=sorted(gens), peripherals=[("p", name)],
                        kind="matrix", rho=rho)
    graph = ConedGraph(pres, truncation=6)
    _assert_coset_key_invariant(graph, name, seed=5)
    assert graph.distance(parse_word(f"r {name}^2"), parse_word(f"r {name}^-50"), 6) == 2
