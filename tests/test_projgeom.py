import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagdyn.errors import InfiniteCrossRatio, NotInChart
from flagdyn.linalg import Matrix
from flagdyn.projgeom import (
    ProjHyperplane,
    ProjPoint,
    act,
    act_many,
    affine_chart,
    chart_point,
    cross_ratio,
    fubini_study,
    fubini_study_many,
)

unit_seeds = st.integers(min_value=0, max_value=2**31 - 1)


def rand_point(rng, d):
    return ProjPoint(rng.normal(size=d))


def rand_matrix(rng, d):
    while True:
        a = rng.normal(size=(d, d))
        if abs(np.linalg.det(a)) > 1e-3:
            return Matrix(a)


def test_point_canonicalization():
    p = ProjPoint([-2.0, 0.0, 1.0])
    assert p.coords[0] > 0
    assert abs(np.linalg.norm(p.coords) - 1) < 1e-12
    assert ProjPoint([4.0, 0.0, -2.0]) == p


def test_act_identity_and_roundtrip():
    rng = np.random.default_rng(0)
    for _ in range(50):
        d = int(rng.integers(2, 6))
        p = rand_point(rng, d)
        assert fubini_study(act(Matrix(np.eye(d)), p), p) < 1e-15
        g = rand_matrix(rng, d)
        back = act(g.inv(), act(g, p))
        assert fubini_study(back, p) < 1e-10


def test_act_diagonal():
    p = act(Matrix(np.diag([2.0, 1.0])), ProjPoint([1.0, 1.0]))
    assert np.allclose(p.coords, np.array([2.0, 1.0]) / math.sqrt(5.0))


def test_act_is_group_action():
    rng = np.random.default_rng(1)
    for _ in range(100):
        d = int(rng.integers(2, 5))
        g, h = rand_matrix(rng, d), rand_matrix(rng, d)
        p = rand_point(rng, d)
        assert fubini_study(act(g @ h, p), act(g, act(h, p))) < 1e-10


def test_affine_chart_standard_line():
    h = ProjHyperplane([0.0, 1.0])
    for t in [-3.0, -0.5, 0.0, 2.0]:
        coords = affine_chart(h, ProjPoint([t, 1.0]))
        assert coords[0] == pytest.approx(t, abs=1e-12)


def test_affine_chart_origin():
    h = ProjHyperplane([0.3, -0.8, 0.5])
    origin = ProjPoint(h.covector)
    assert np.allclose(affine_chart(h, origin), 0.0, atol=1e-12)


def test_affine_chart_roundtrip():
    rng = np.random.default_rng(3)
    for _ in range(1000):
        d = int(rng.integers(2, 6))
        h = ProjHyperplane(rng.normal(size=d))
        p = rand_point(rng, d)
        if abs(h.covector @ p.coords) < 1e-3:
            continue
        q = chart_point(h, affine_chart(h, p))
        assert fubini_study(p, q) < 1e-10


def test_affine_chart_rejects_incident():
    h = ProjHyperplane([1.0, 0.0])
    with pytest.raises(NotInChart):
        affine_chart(h, ProjPoint([0.0, 1.0]))


def test_cross_ratio_convention():
    w0 = ProjHyperplane([1.0, 0.0])   # kernel at the point 0
    winf = ProjHyperplane([0.0, 1.0])  # kernel at infinity
    one = ProjPoint([1.0, 1.0])
    for z in [-3.0, -1.0, 0.5, 2.0, 10.0]:
        val = cross_ratio(w0, winf, one, ProjPoint([z, 1.0]))
        assert val == pytest.approx(z, abs=1e-12)


def test_cross_ratio_identical_points():
    w0 = ProjHyperplane([1.0, 0.3])
    w1 = ProjHyperplane([0.2, 1.0])
    z = ProjPoint([0.7, 1.0])
    assert cross_ratio(w0, w1, z, z) == pytest.approx(1.0)


def test_cross_ratio_infinite():
    w0 = ProjHyperplane([1.0, 0.0])
    w1 = ProjHyperplane([0.0, 1.0])
    with pytest.raises(InfiniteCrossRatio):
        cross_ratio(w0, w1, ProjPoint([0.0, 1.0]), ProjPoint([1.0, 1.0]))


def test_cross_ratio_projective_invariance():
    rng = np.random.default_rng(4)
    for _ in range(200):
        d = int(rng.integers(2, 5))
        w1 = ProjHyperplane(rng.normal(size=d))
        w2 = ProjHyperplane(rng.normal(size=d))
        z1, z2 = rand_point(rng, d), rand_point(rng, d)
        try:
            base = cross_ratio(w1, w2, z1, z2)
        except InfiniteCrossRatio:
            continue
        g = rand_matrix(rng, d)
        # hyperplanes move by the inverse transpose, so incidence is preserved
        w1g, w2g = (ProjHyperplane(np.linalg.solve(g.arr.T, w.covector)) for w in (w1, w2))
        moved = cross_ratio(w1g, w2g, act(g, z1), act(g, z2))
        assert moved == pytest.approx(base, rel=1e-9, abs=1e-12)


def test_cross_ratio_cocycle_symmetry():
    rng = np.random.default_rng(5)
    for _ in range(200):
        d = int(rng.integers(2, 5))
        w1 = ProjHyperplane(rng.normal(size=d))
        w2 = ProjHyperplane(rng.normal(size=d))
        z1, z2 = rand_point(rng, d), rand_point(rng, d)
        try:
            a = cross_ratio(w1, w2, z1, z2)
            b = cross_ratio(w1, w2, z2, z1)
        except InfiniteCrossRatio:
            continue
        assert a * b == pytest.approx(1.0, rel=1e-9)


def test_fubini_study_values():
    p = ProjPoint([1, 0])
    assert fubini_study(p, p) == 0.0
    assert fubini_study(p, ProjPoint([0, 1])) == pytest.approx(math.pi / 2)
    assert fubini_study(p, ProjPoint([1, 1])) == pytest.approx(math.pi / 4)


def test_fubini_study_small_angle_stability():
    p = ProjPoint([1.0, 0.0])
    q = ProjPoint([1.0, 1e-13])
    assert fubini_study(p, q) == pytest.approx(1e-13, rel=1e-3)


@settings(max_examples=100, deadline=None)
@given(unit_seeds)
def test_fubini_study_triangle_inequality(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 6))
    a, b, c = (rand_point(rng, d) for _ in range(3))
    assert fubini_study(a, c) <= fubini_study(a, b) + fubini_study(b, c) + 1e-12


def _all_pairs_fs(a, b):
    """All pairwise FS distances: the reference the reductions must match bit for bit."""
    dots = np.clip(np.abs(a @ b.T), 0.0, 1.0)
    return np.arctan2(np.sqrt(np.clip(1.0 - dots * dots, 0.0, None)), dots)


@pytest.mark.parametrize("d", [2, 4])
def test_fubini_study_many_reductions_match_all_pairs(d):
    rng = np.random.default_rng(d)
    a = rng.normal(size=(60, d))
    # rows at dots near 1 (tiny rotations, a duplicate) and near 0 (a
    # near-orthogonal partner) of the first row
    e = np.zeros(d)
    e[1] = 1.0
    a[1] = a[0] + 1e-8 * e
    a[2] = a[0]
    a[3] = e - (e @ a[0]) / (a[0] @ a[0]) * a[0] + 1e-9 * a[0]
    a = a / np.linalg.norm(a, axis=1, keepdims=True)
    b = np.vstack([a[:20], rng.normal(size=(40, d))])
    b = b / np.linalg.norm(b, axis=1, keepdims=True)
    for x, y in ((a, b), (a, a), (a[3:4], a[:1]), (a[:2], a[:2])):
        full = _all_pairs_fs(x, y)
        assert fubini_study_many(x, y) == np.min(full)
        assert fubini_study_many(x, y, farthest=True) == np.max(full)
        assert np.array_equal(fubini_study_many(x, y, axis=1), np.min(full, axis=1))
        assert np.array_equal(fubini_study_many(x, y, farthest=True, axis=1),
                              np.max(full, axis=1))


@pytest.mark.parametrize("d, n", [(2, 7), (3, 40), (4, 152)])
def test_stacked_action_has_each_matrix_bits(d, n):
    rng = np.random.default_rng(10 + d)
    mats = [rand_matrix(rng, d) for _ in range(5)]
    rows = rng.normal(size=(n, d))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    stacked = act_many(np.stack([m.arr for m in mats]), rows)
    assert stacked.shape == (5, n, d)
    for img, m in zip(stacked, mats):
        assert img.tobytes() == act_many(m, rows).tobytes()



def _nearest_dots(a, b):
    """Per row of ``a``, the largest |dot| with a row of ``b``, read along
    the rows of ``a @ b.T``."""
    dots = a @ b.T
    return np.maximum(dots.max(1), -dots.min(1))


@pytest.mark.parametrize("d", [3, 4, 6])
@pytest.mark.parametrize("n", [152, 456, 700, 1001])
def test_fubini_study_many_per_row_matches_the_untransposed_table(d, n):
    # the per-row call reduces the transposed table b @ a.T, a BLAS product
    # of its own: its dots may differ from those of a @ b.T in the last bits
    # (up to 2 ulp where measured), so they are compared to within 4 ulp
    rng = np.random.default_rng(40 + d)
    a, b = rng.normal(size=(n, d)), rng.normal(size=(128, d))
    a /= np.linalg.norm(a, axis=1, keepdims=True)
    b /= np.linalg.norm(b, axis=1, keepdims=True)
    got = np.cos(fubini_study_many(a, b, axis=1))
    assert np.allclose(got, _nearest_dots(a, b), rtol=0, atol=4 * np.finfo(float).eps)
