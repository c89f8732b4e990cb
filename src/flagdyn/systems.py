"""Builders for the bundled example systems.

These construct the same objects the config loader produces, and are the
single source for the pinned constants (ping-pong powers, domain radii)
shared by the bundled configs and the test suite.
"""

from __future__ import annotations

import math

import numpy as np

from .automaton import CompatibleSystem, GammaGraph, ParabolicFamily, Singleton
from .circle import vec_of
from .domains import ChartBall
from .linalg import Matrix
from .projgeom import ProjHyperplane, affine_chart
from .words import GroupPresentation, Peripheral, parse_word


def arc_ball(center_angle: float, radius_angle: float) -> ChartBall:
    """FS ball on the projective line as an exact chart ball.

    The chart covector is the center direction itself (its kernel is the
    antipodal point), so the chart coordinate of a point at angle offset
    phi from the center is tan(phi).
    """
    if not 0 < radius_angle < math.pi / 2:
        raise ValueError("radius_angle must lie in (0, pi/2)")
    chart = ProjHyperplane(vec_of(center_angle))
    return ChartBall(chart, [0.0], math.tan(radius_angle))


def rotation2(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def schottky_presentation(multiplier: float = 4.0) -> GroupPresentation:
    """Two-generator Schottky group in SL(2, R).

    ``a`` is diagonal with the given multiplier (attracting point at
    angle 0, repelling at pi/2); ``b`` is ``a`` conjugated by a quarter
    of a half-turn (attracting at pi/4, repelling at 3pi/4).
    """
    a = np.diag([multiplier, 1.0 / multiplier])
    r = rotation2(math.pi / 4)
    b = r @ a @ r.T
    return GroupPresentation(dim=2, generators={"a": Matrix(a), "b": Matrix(b)})


def schottky_graph(epsilon: float = 0.02) -> GammaGraph:
    """Classical four-vertex ping-pong automaton for the free group F2."""
    vertices = {
        "a+": Singleton(parse_word("a")),
        "a-": Singleton(parse_word("a^-1")),
        "b+": Singleton(parse_word("b")),
        "b-": Singleton(parse_word("b^-1")),
    }
    inverse = {"a+": "a-", "a-": "a+", "b+": "b-", "b-": "b+"}
    edges = [(v, w) for v in vertices for w in vertices if w != inverse[v]]
    return GammaGraph(vertices=vertices, edges=edges, epsilon=epsilon)


def schottky_domains(radius: float = 0.3) -> dict:
    return {
        "a+": arc_ball(0.0, radius),
        "a-": arc_ball(math.pi / 2, radius),
        "b+": arc_ball(math.pi / 4, radius),
        "b-": arc_ball(3 * math.pi / 4, radius),
    }


def schottky_system(radius: float = 0.3, epsilon: float = 0.02) -> CompatibleSystem:
    return CompatibleSystem(domains=schottky_domains(radius), epsilon=epsilon)


def schottky_repelling_system(radius: float = 0.3, epsilon: float = 0.02) -> CompatibleSystem:
    """Negative control: domains centered at the repelling points."""
    doms = {
        "a+": arc_ball(math.pi / 2, radius),
        "a-": arc_ball(0.0, radius),
        "b+": arc_ball(3 * math.pi / 4, radius),
        "b-": arc_ball(math.pi / 4, radius),
    }
    return CompatibleSystem(domains=doms, epsilon=epsilon)


def single_loop_system(multiplier: float = 4.0, radius: float = 0.3,
                       epsilon: float = 0.05):
    """One-vertex self-loop with a diagonal contraction."""
    rho = GroupPresentation(
        dim=2, generators={"g": Matrix(np.diag([multiplier, 1.0 / multiplier]))}
    )
    graph = GammaGraph(
        vertices={"v": Singleton(parse_word("g"))}, edges=[("v", "v")], epsilon=epsilon
    )
    system = CompatibleSystem(domains={"v": arc_ball(0.0, radius)}, epsilon=epsilon)
    return rho, graph, system


# ---------------------------------------------------------------------------
# Jordan-block free group (4x4, unipotent 2-block plus two trivial lines)

JORDAN_POWER = 24           # pinned ping-pong power found by search
JORDAN_BALL_RADIUS = 0.25   # pinned chart radius of the two domains
JORDAN_MIN_POWER = 1        # cofinite labels start at this power
JORDAN_EPSILON = 0.02       # pinned neighborhood epsilon
JORDAN_STABLE_GRID = (0.0, 0.01, 0.02, 0.05)   # pinned probe grid (diagonalizable path)
JORDAN_SPLIT_GRID = (0.0, 0.01, 0.02, 0.05)    # pinned probe grid (split path)
JORDAN_SPLIT_FIRST_FAIL = 0.01                 # pinned regression: first failing t


def jordan_conjugator() -> np.ndarray:
    """Pinned conjugating matrix: an orthogonal mixing map with det 1.

    Moves the attracting line and fixed hyperplane of the unipotent block
    into general position relative to the originals.
    """
    h = 0.5 * np.array(
        [
            [1.0, 1.0, 1.0, 1.0],
            [1.0, -1.0, 1.0, -1.0],
            [1.0, 1.0, -1.0, -1.0],
            [1.0, -1.0, -1.0, 1.0],
        ]
    )
    assert abs(np.linalg.det(h) - 1.0) < 1e-12
    return h


def jordan_block_matrix(t: float = 0.0, path: str = "fixed") -> np.ndarray:
    """The 4x4 peripheral generator A_t.

    path 'fixed': A (t ignored). path 'diagonalizable': the unipotent
    2-block is deformed to eigenvalues 1 + t, 1/(1 + t), which keeps the
    attracting line constant. path 'split': the trivial 2-block becomes
    diag(e^t, e^-t), which moves the top eigenvalue to the third axis
    for every t > 0.
    """
    a = np.eye(4)
    a[0, 1] = 1.0
    if path == "fixed":
        return a
    if path == "diagonalizable":
        a[0, 0] = 1.0 + t
        a[1, 1] = 1.0 / (1.0 + t)
        return a
    if path == "split":
        a[2, 2] = math.exp(t)
        a[3, 3] = math.exp(-t)
        return a
    raise ValueError(f"unknown path {path!r}")


def jordan_presentation(t: float = 0.0, path: str = "fixed",
                        k: int = JORDAN_POWER, truncation: int = 24) -> GroupPresentation:
    """Free group <alpha, beta> with alpha = A_t^k, beta = M A_t^k M^-1."""
    a_t = jordan_block_matrix(t, path)
    m = jordan_conjugator()
    alpha = np.linalg.matrix_power(a_t, k)
    beta = m @ alpha @ m.T
    return GroupPresentation(
        dim=4,
        generators={"alpha": Matrix(alpha), "beta": Matrix(beta)},
        peripherals=[
            Peripheral(name="pa", generators=["alpha"], truncation=truncation),
            Peripheral(name="pb", generators=["beta"], truncation=truncation),
        ],
    )


def jordan_domains(radius: float = JORDAN_BALL_RADIUS):
    """Chart balls around the attracting lines [e1] and [M e1]."""
    m = jordan_conjugator()
    u_a = ChartBall(ProjHyperplane([1.0, 0, 0, 0]), [0.0, 0.0, 0.0], radius)
    chart_b = ProjHyperplane(m[:, 0])
    u_b = ChartBall(chart_b, affine_chart(chart_b, m[:, 0]), radius)
    return {"va": u_a, "vb": u_b}


def jordan_graph(epsilon: float = 0.02, min_power: int = JORDAN_MIN_POWER) -> GammaGraph:
    vertices = {
        "va": ParabolicFamily(coset_word=(), peripheral="pa", exclude_below=min_power),
        "vb": ParabolicFamily(coset_word=(), peripheral="pb", exclude_below=min_power),
    }
    edges = [("va", "vb"), ("vb", "va")]
    return GammaGraph(vertices=vertices, edges=edges, epsilon=epsilon)


def jordan_system(radius: float = JORDAN_BALL_RADIUS, epsilon: float = 0.02) -> CompatibleSystem:
    return CompatibleSystem(domains=jordan_domains(radius), epsilon=epsilon)
