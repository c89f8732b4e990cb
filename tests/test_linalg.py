import math
from functools import reduce
from itertools import combinations, product
from pathlib import Path

import numpy as np
import pytest

from flagdyn.errors import BadDegree, SingularInput
from flagdyn.linalg import (
    MAX_EXT_DIM,
    Matrix,
    PrefixProduct,
    exact_canonical,
    exact_keys,
    exact_matmul,
    flag_divergent,
    gap_degrees,
    gap_trace,
    minors,
)
from flagdyn.config import RunConfig
from flagdyn.words import parse_word

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def random_invertible(rng, d, scale=10.0):
    while True:
        a = rng.uniform(-scale, scale, (d, d))
        if abs(np.linalg.det(a)) > 1e-3:
            return Matrix(a)


def test_svd_diagonal_is_trivial():
    m = Matrix(np.diag([4.0, 2.0, 1.0]))
    sigma = np.linalg.svd(m.arr, compute_uv=False)
    # the unit-|det| scale keeps the singular value ratios, product 1
    assert np.allclose(sigma / sigma[-1], [4.0, 2.0, 1.0])
    assert np.prod(sigma) == pytest.approx(1.0, rel=1e-12)


def test_svd_orthogonal_input():
    theta = 0.83
    q = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
    sigma = np.linalg.svd(Matrix(q).arr, compute_uv=False)
    assert np.allclose(sigma, [1.0, 1.0], atol=1e-12)


def test_svd_2x2_quadratic_formula_oracle():
    # eigenvalues of m^T m for [[2,1],[0,1]] are (3 +- sqrt(5)); det = 2,
    # so the unit-determinant representative has singular values those
    # roots divided by sqrt(2)
    sigma = np.linalg.svd(Matrix([[2, 1], [0, 1]]).arr, compute_uv=False)
    expected = [math.sqrt((3 + math.sqrt(5)) / 2), math.sqrt((3 - math.sqrt(5)) / 2)]
    assert np.allclose(sigma, expected, rtol=1e-12)


def test_singular_input_rejected():
    with pytest.raises(SingularInput):
        Matrix(np.zeros((3, 3)))
    with pytest.raises(SingularInput):
        Matrix([[1.0, 2.0], [2.0, 4.0]])


def test_inverse_of_a_singular_float_product_is_singular_input():
    # a product is trusted, so it may be singular in floats; its inverse is a
    # SingularInput, not a numpy LinAlgError
    m = Matrix._of_floats(np.ones((3, 3)))
    with pytest.raises(SingularInput):
        m.inv()


def _with_entries(arr):
    """A Matrix whose floats are ``arr`` as given (no determinant scaling)."""
    m = Matrix(np.eye(len(arr)))
    m.arr = np.array(arr, dtype=float)
    return m


@pytest.mark.parametrize("s", [1.0, -1.0])
@pytest.mark.parametrize("tol", [1e-9, 1e-3])
def test_is_identity_rule_at_its_boundaries(s, tol):
    # the rule is entrywise |a - s I| <= tol + 1e-5 |I|, np.allclose's
    # default rtol: off the diagonal the bound is tol, on it tol + 1e-5
    def verdict(i, j, x):
        arr = s * np.eye(2)
        arr[i, j] = x
        got = _with_entries(arr).is_identity(tol)
        assert got == (np.allclose(arr, np.eye(2), atol=tol)
                       or np.allclose(arr, -np.eye(2), atol=tol))
        return got

    for x in (tol, -tol):
        assert verdict(0, 1, x) and verdict(1, 0, x)
        assert not verdict(0, 1, math.nextafter(x, 2 * x))
    # the largest diagonal entry above s within the bound, found in floats
    x = s + math.copysign(tol + 1e-5, s)
    while abs(x - s) > tol + 1e-5:
        x = math.nextafter(x, s)
    while abs(math.nextafter(x, 2 * x) - s) <= tol + 1e-5:
        x = math.nextafter(x, 2 * x)
    assert verdict(1, 1, x)
    assert not verdict(1, 1, math.nextafter(x, 2 * x))
    # a mixed sign is neither +I nor -I
    assert not _with_entries([[s, 0.0], [0.0, -s]]).is_identity(tol)
    assert not verdict(0, 0, float("nan"))
    assert not verdict(0, 1, float("inf"))


def test_cartan_identity():
    # every simple-root gap of the identity is 0, through every exterior degree
    for k in range(1, 5):
        assert np.allclose(gap_trace([Matrix(np.eye(5))] * 3, k), 0.0, atol=1e-12)


def test_simple_root_gaps():
    # Cartan projection (log 4, log 2, 0) shifted to sum 0: both gaps log 2,
    # k = 2 reading log |det| as its degree-3 factor
    m = Matrix(np.diag([4.0, 2.0, 1.0]))
    for k in (1, 2):
        assert gap_trace([m], k) == pytest.approx([math.log(2)], abs=1e-12)


def test_exterior_power_identity_degree():
    rng = np.random.default_rng(7)
    a = random_invertible(rng, 4).arr
    # each 1 x 1 determinant is its entry up to LAPACK's last bit
    assert np.allclose(minors(a, 1), a, rtol=1e-15, atol=0.0)


def test_exterior_power_diagonal():
    # lex order {1,2},{1,3},{2,3} -> products 6, 10, 15
    e = minors(np.diag([2.0, 3.0, 5.0]), 2)
    assert np.allclose(e, np.diag([6.0, 10.0, 15.0]), rtol=1e-14, atol=0.0)


def test_exterior_power_bad_degree():
    # k in 1..d-1, and each degree j in {k-1, k, k+1} that lies in 2..d-1
    # has C(d, j) <= MAX_EXT_DIM = C(12, 6): every degree at d <= 12 runs
    assert MAX_EXT_DIM == math.comb(12, 6)
    assert gap_degrees(2, 1) == [] and gap_degrees(4, 2) == [2, 3]
    for k in range(1, 12):
        assert gap_degrees(12, k) == [j for j in (k - 1, k, k + 1) if 2 <= j <= 11]
    for d, k in ((3, 0), (3, 3), (13, 13)):
        with pytest.raises(BadDegree, match="must lie in"):
            gap_degrees(d, k)
    # at d = 13, C(13, j) <= 924 only for j <= 4 or j >= 9
    for k in range(1, 13):
        if k <= 3 or k >= 10:
            gap_degrees(13, k)
        else:
            with pytest.raises(BadDegree, match="past the cap 924"):
                gap_degrees(13, k)


def test_gap_trace_past_the_degree_cap_builds_nothing(monkeypatch):
    import flagdyn.linalg as linalg

    built = []
    monkeypatch.setattr(linalg, "minors", lambda a, j: built.append(j))
    monkeypatch.setattr(linalg, "PrefixProduct", lambda *a: built.append("prefix"))
    with pytest.raises(BadDegree, match="past the cap"):
        gap_trace([Matrix(np.eye(13))], 6)
    assert built == []


def test_exterior_functoriality():
    # Cauchy-Binet: minors(g h, k) = minors(g, k) minors(h, k), which
    # gap_trace's block products rest on
    rng = np.random.default_rng(11)
    for d in (3, 4, 5):
        for _ in range(20):
            g = random_invertible(rng, d).arr
            h = random_invertible(rng, d).arr
            k = int(rng.integers(1, d))
            lhs = minors(g @ h, k)
            assert np.max(np.abs(lhs - minors(g, k) @ minors(h, k))) < 1e-8 * np.max(np.abs(lhs))


def test_exterior_sigma_products():
    # the singular values of minors(g, 2) are the pairwise products of
    # those of g: sigma_1 ... sigma_j = ||Lambda^j g||, gap_trace's identity
    rng = np.random.default_rng(13)
    for _ in range(10):
        g = random_invertible(rng, 4).arr
        s = np.linalg.svd(g, compute_uv=False)
        se = np.linalg.svd(minors(g, 2), compute_uv=False)
        prods = sorted((s[i] * s[j] for i in range(4) for j in range(i + 1, 4)), reverse=True)
        assert np.allclose(se, prods, rtol=1e-8)


def test_gap_trace_identity():
    trace = gap_trace([Matrix(np.eye(3))] * 5, 1)
    assert np.allclose(trace, 0.0, atol=1e-12)
    assert not flag_divergent(trace)


def test_gap_trace_diagonal_powers_exact():
    g = np.diag([2.0, 0.5])
    trace = gap_trace([Matrix(g)] * 12, 1)
    assert np.allclose(trace, [2 * math.log(2) * n for n in range(1, 13)], rtol=1e-10)
    assert flag_divergent(trace, threshold=5.0)


def test_gap_trace_unipotent_log_growth():
    # oracle: exact 2x2 singular values of [[1,n],[0,1]]
    # prefix products of [[1,1],[0,1]] then [[1,10],[0,1]] are [[1,n],[0,1]]
    trace = gap_trace([Matrix([[1, 1], [0, 1]])] + [Matrix([[1, 10], [0, 1]])] * 19, 1)
    for n, g in zip(range(1, 200, 10), trace):
        s2 = (n * n + 2 + math.sqrt((n * n + 2) ** 2 - 4)) / 2
        assert abs(g - math.log(s2)) < 1e-9
    assert trace[-1] > 2 * math.log(100)


def test_jordan3_power_gaps_monotone():
    j = np.eye(3)
    j[0, 1] = j[1, 2] = 1.0
    trace = gap_trace([Matrix(j)] * 59, 1)
    tail = trace[10:]
    assert all(b > a for a, b in zip(tail, tail[1:]))
    assert trace[-1] > trace[0]


def _exact_gap_trace(rows, count):
    """log sigma_1/sigma_2 of rows^n, n = 1..count, from exact integer powers.

    sigma_1^2 + sigma_2^2 = F (squared Frobenius norm) and sigma_1 sigma_2 =
    |det|, so sigma_1^2 = F (1 + sqrt(1 - 4 det^2 / F^2)) / 2.
    """
    (a, b), (c, d) = rows
    p = [[1, 0], [0, 1]]
    out = []
    for _ in range(count):
        p = [[p[0][0] * a + p[0][1] * c, p[0][0] * b + p[0][1] * d],
             [p[1][0] * a + p[1][1] * c, p[1][0] * b + p[1][1] * d]]
        f = sum(x * x for row in p for x in row)
        det = abs(p[0][0] * p[1][1] - p[0][1] * p[1][0])
        out.append(math.log(f) + math.log((1 + math.sqrt(1 - 4 * det * det / (f * f))) / 2)
                   - math.log(det))
    return out


@pytest.mark.parametrize("rows", [[[2, 1], [1, 1]], [[1, 1], [1, 0]], [[5, 2], [2, 1]],
                                  [[1, 1], [0, 1]], [[0, -1], [1, 3]], [[3, 5], [1, 2]]])
def test_gap_trace_2x2_integer_words_match_exact_powers(rows):
    trace = gap_trace([Matrix(rows)] * 200, 1)
    for got, want in zip(trace, _exact_gap_trace(rows, 200), strict=True):
        assert abs(got - want) <= 1e-14 * max(1.0, want)


def _alpha_beta():
    rho = RunConfig.load(CONFIGS / "jordan_diag.json").presentation()
    return rho.evaluate(parse_word("alpha beta"))


def test_gap_trace_d4_matches_lapack_on_short_products():
    # dense LAPACK is accurate while sigma_1 / sigma_{k+1} of g^n is far from 1/eps
    g = _alpha_beta()
    rng = np.random.default_rng(23)
    mild = Matrix(rng.uniform(-2, 2, (4, 4)) + 4 * np.eye(4))
    for m, ks in ((g, (1, 2)), (mild, (1, 2, 3))):
        for k in ks:
            trace = gap_trace([m] * 3, k)
            for n, got in enumerate(trace, start=1):
                s = np.linalg.svd(np.linalg.matrix_power(m.arr, n), compute_uv=False)
                assert abs(got - math.log(s[k - 1] / s[k])) < 1e-9


def test_gap_trace_d4_grows_by_the_eigenvalue_ratio_per_power():
    g = _alpha_beta()
    moduli = np.sort(np.abs(np.linalg.eigvals(g.arr)))[::-1]
    for k in (1, 2, 3):
        trace = gap_trace([g] * 100, k)
        slope = math.log(moduli[k - 1] / moduli[k])
        for n in range(10, 100):
            assert abs(trace[n] - trace[n - 1] - slope) < 1e-9


def test_gap_trace_bad_degree():
    with pytest.raises(BadDegree):
        gap_trace([Matrix(np.eye(3))], 3)
    with pytest.raises(BadDegree):
        gap_trace([Matrix(np.eye(3))], 0)


@pytest.mark.parametrize("d", [3, 4, 5])
def test_minors_kernel_matches_per_subset_determinants(d):
    a = np.random.default_rng(d).normal(size=(d, d))
    for k in range(1, d + 1):
        subsets = list(combinations(range(d), k))
        want = np.array([[np.linalg.det(a[np.ix_(rows, cols)]) for cols in subsets]
                         for rows in subsets])
        assert np.array_equal(minors(a, k), want)
    frame = a[:, :2]
    want = np.array([np.linalg.det(frame[list(rows), :]) for rows in combinations(range(d), 2)])
    assert np.array_equal(minors(frame, 2)[:, 0], want)


def test_flag_divergent_requires_threshold():
    assert not flag_divergent([0.1 * n for n in range(40)], threshold=5.0)
    assert flag_divergent([0.2 * n for n in range(40)], threshold=5.0)


def test_exact_integer_dedup():
    a = Matrix([[2, 4], [6, 8]])
    b = Matrix([[1, 2], [3, 4]])
    c = Matrix([[-1, -2], [-3, -4]])
    assert a.key() == b.key() == c.key()


def _oracle_canonical(rows):
    """gcd-reduced, first-nonzero-positive rows; independent of linalg."""
    flat = [v for row in rows for v in row]
    g = 0
    for v in flat:
        x, y = abs(g), abs(v)
        while y:
            x, y = y, x % y
        g = x
    if g > 1:
        flat = [v // g for v in flat]
    lead = [v for v in flat if v != 0][:1]
    if lead and lead[0] < 0:
        flat = [-v for v in flat]
    d = len(rows)
    return tuple(tuple(flat[i * d:(i + 1) * d]) for i in range(d))


def _oracle_product(a, b):
    d = len(a)
    return _oracle_canonical(
        [[sum(a[i][k] * b[k][j] for k in range(d)) for j in range(d)] for i in range(d)]
    )


def test_exact_kernel_matches_oracle_and_matrix_product():
    rng = np.random.default_rng(20)
    reduced = negated = 0
    for d in (2, 3):
        for _ in range(400):
            a, b = (rng.integers(-6, 7, (d, d)) * int(rng.integers(1, 4)) for _ in range(2))
            at = tuple(tuple(int(x) for x in row) for row in a)
            bt = tuple(tuple(int(x) for x in row) for row in b)
            want = _oracle_product(at, bt)
            assert exact_matmul(at, bt) == want
            raw = [v for row in (a @ b).tolist() for v in row]
            flat = [v for row in want for v in row]
            reduced += flat not in (raw, [-v for v in raw])  # gcd > 1
            negated += next((v for v in raw if v), 0) < 0
            if round(np.linalg.det(a)) != 0 and round(np.linalg.det(b)) != 0:
                assert Matrix(a).exact == _oracle_canonical(at)
                assert (Matrix(a) @ Matrix(b)).exact == want
    assert reduced > 50 and negated > 50


def test_exact_canonical_pins():
    # gcd 2 divided out, then the first nonzero entry (-1) made positive
    assert exact_canonical([0, -2, 4, 6], 2) == ((0, 1), (-2, -3))
    assert exact_canonical([-3, 0, 0, 0, -3, 0, 0, 0, -3], 3) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert exact_matmul(((1, 1), (0, 1)), ((1, -1), (0, 1))) == ((1, 0), (0, 1))


@pytest.mark.parametrize("d, scale, dtype", [(2, 1, np.int64), (3, 1, np.int64),
                                             (2, 2**40, object), (3, 2**40, object)])
def test_exact_keys_match_exact_canonical_of_exact_matmul(d, scale, dtype):
    # every product of one matrix from each of three random stacks; entries
    # near 2^42 put the bound d^2 prod max|entry| past 2^62 (Python ints)
    rng = np.random.default_rng(40 + d)
    stacks = []
    for n in (5, 4, 3):
        mats = []
        while len(mats) < n:
            pairs = rng.integers(-5, 6, (d, d, 2))
            a = [[int(x) * scale + int(y) for x, y in row] for row in pairs]
            if round(np.linalg.det(np.array(a, dtype=float) / scale)) != 0:
                mats.append(exact_canonical([x for row in a for x in row], d))
        stacks.append(mats)
    first, *rest = (np.array(m, dtype=object) for m in stacks)
    rows = exact_keys([first.reshape(len(first), d * d), *rest], d)
    assert rows.dtype == dtype
    want = [[x for row in exact_canonical([x for r in reduce(exact_matmul, ms) for x in r], d)
             for x in row] for ms in product(*stacks)]
    assert rows.tolist() == want


@pytest.mark.parametrize("d", [2, 3, 4])
def test_det_sign_matches_the_determinant_of_arr(d):
    rng = np.random.default_rng(20 + d)
    mats = [random_invertible(rng, d) for _ in range(50)]
    # _sign_canonical flips the leading -1: det (-1)^(d-1) after the flip
    mats.append(Matrix(np.diag([-1.0] + [1.0] * (d - 1))))
    for m in mats:
        assert m.det_sign == (-1.0 if np.linalg.det(m.arr) < 0 else 1.0)
    assert {m.det_sign for m in mats} == {-1.0, 1.0}


def _d4_factors(n, seed):
    rng = np.random.default_rng(seed)
    return [Matrix(rng.normal(size=(4, 4))) for _ in range(n)]


@pytest.mark.parametrize("k, degrees", [(1, [2]), (2, [2, 3])])
def test_prefix_product_builds_each_factor_block_once(monkeypatch, k, degrees):
    import flagdyn.linalg as linalg

    built = []
    real = linalg.minors
    monkeypatch.setattr(linalg, "minors", lambda a, j: built.append(j) or real(a, j))
    g = _d4_factors(1, 5)[0]
    trace = gap_trace([g] * 50, k)
    assert sorted(built) == degrees
    monkeypatch.setattr(linalg, "minors", real)
    assert trace == gap_trace([g] * 50, k)


def test_prefix_product_rows_do_not_depend_on_the_batch():
    # the stretching factor sends some rows past the 1e12 renormalization
    # bound between the every-8-pushes renormalizations, others not
    factors = _d4_factors(3, 6) + [Matrix(np.diag([1e3, 1.0, 1.0, 1e-3]))]
    rng = np.random.default_rng(7)
    picks = rng.integers(0, 4, size=(30, 5))  # 30 pushes of 5 paths
    coords = np.random.default_rng(8).normal(size=(6, 4))
    stacked = PrefixProduct(4, 5)
    alone = [PrefixProduct(4) for _ in range(5)]
    for row in picks:
        stacked.push([factors[i] for i in row])
        for prefix, i in zip(alone, row):
            prefix.push([factors[i]])
        img, norms = stacked.apply(coords)
        for p, prefix in enumerate(alone):
            one_img, one_norms = prefix.apply(coords)
            assert np.array_equal(img[p], one_img[0]) and np.array_equal(norms[p], one_norms[0])
    assert np.array_equal(stacked.arr, np.vstack([p.arr for p in alone]))
    assert stacked.det_sign.tolist() == [float(p.det_sign[0]) for p in alone]
    assert stacked.logdet.tolist() == [float(p.logdet[0]) for p in alone]


@pytest.mark.parametrize("d", [2, 3])
def test_exact_product_floats_equal_construction_from_entries(d):
    rng = np.random.default_rng(30 + d)
    gens = []
    while len(gens) < 4:
        rows = rng.integers(-3, 4, (d, d))
        if round(np.linalg.det(rows)) != 0:
            gens.append(Matrix(rows))
    for _ in range(40):
        m = gens[rng.integers(len(gens))]
        for i in rng.integers(len(gens), size=rng.integers(1, 9)):
            m = m @ (gens[i] if rng.random() < 0.5 or d != 2 else gens[i].inv())
        eager = Matrix(np.array(m.exact, dtype=object))
        assert m.arr.tobytes() == eager.arr.tobytes()
        assert m.det_sign == eager.det_sign
        # and the float construction of the same entries, which keeps no exact form
        assert m.arr.tobytes() == Matrix(np.array(m.exact, dtype=float)).arr.tobytes()
        assert not m.arr.flags.writeable


def test_exact_product_forms_floats_at_construction(monkeypatch):
    formed = []
    set_floats = Matrix._set_floats
    monkeypatch.setattr(Matrix, "_set_floats", lambda self, a, trusted: (
        formed.append((self, trusted)) or set_floats(self, a, trusted)))
    t = Matrix([[1, 1], [0, 1]])
    s = Matrix([[0, -1], [1, 0]])
    assert len(formed) == 2
    # one call per exact product and per inverse, as each is built
    ts = t @ s
    t_inv = t.inv()
    p = ts @ t_inv
    m = p.inv()
    assert formed[2:] == [(ts, False), (t_inv, False), (p, False), (m, False)]
    assert m.key() == ("exact", 2, ((1, -2), (1, -1)))
    assert m.det_sign == 1.0
    # sign-canonical: the entry of largest magnitude is positive
    assert np.array_equal(m.arr, [[-1.0, 2.0], [-1.0, 1.0]])
    assert len(formed) == 6


def test_exact_product_with_underflowing_floats_raises_when_they_are_formed():
    n = 10**80
    a, b = Matrix([[1, n], [0, 1]]), Matrix([[1, 0], [n, 1]])
    # |det| / sup^2 = n^-4: the float determinant of the product underflows
    with pytest.raises(SingularInput):
        a @ b
    exact = exact_matmul(a.exact, b.exact)
    assert exact == ((1 + n * n, n), (n, 1))
    with pytest.raises(SingularInput):
        Matrix(np.array(exact, dtype=object))


def test_exact_entries_beyond_the_floats_raise_singular_input():
    a = Matrix([[10**160, 1], [0, 1]])
    with pytest.raises(SingularInput, match="float range"):
        a @ a  # a 10^320 entry
    with pytest.raises(SingularInput, match="float range"):
        Matrix([[10**400, 1], [0, 1]])
    rows = np.array([[1, 0, 0, 1], [10**320, 1, 0, 1]], dtype=object)
    with pytest.raises(SingularInput, match="float range"):
        Matrix.floats_of_exact(rows, 2)


@pytest.mark.parametrize("d, scale", [(2, 1), (2, 10**28), (3, 1)])
def test_floats_of_exact_match_each_matrix_bit_for_bit(d, scale):
    # the stacked floats of canonical exact rows equal each element's own
    # ``arr`` bit for bit, signed zeros included, on int64 and Python ints
    rng = np.random.default_rng(d)
    exact = []
    while len(exact) < 300:
        flat = [int(x) * scale + int(y) for x, y in rng.integers(-40, 41, (d * d, 2))]
        if abs(np.linalg.det(np.reshape(flat, (d, d)).astype(float))) > 0.5:
            exact.append(exact_canonical(flat, d))
    want = np.array([Matrix._of_exact(e).arr for e in exact])
    rows = np.array(exact, dtype=object).reshape(len(exact), d * d)
    for stack in [rows] + ([rows.astype(np.int64)] if scale == 1 else []):
        got = Matrix.floats_of_exact(stack, d)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


def test_floats_of_exact_raise_on_an_underflowing_determinant():
    n = 10**80
    rows = np.array([[1, 0, 0, 1], [1 + n * n, n, n, 1]], dtype=object)
    with pytest.raises(SingularInput):
        Matrix.floats_of_exact(rows, 2)


def _same_floats(got, want):
    """Bitwise equal ``arr`` (signed zeros included) and equal ``det_sign``."""
    assert got.exact is None and not got.arr.flags.writeable
    assert got.arr.tobytes() == want.arr.tobytes()
    assert got.det_sign == want.det_sign


def test_float_products_and_inverses_equal_the_trusted_constructor(jordan_split_cfg):
    # ``_of_floats`` skips the constructor's copies and integrality probe, and
    # where no determinant underflows it gives the constructor's floats:
    # every jordan power, its inverse and a product with M, for every probe t
    for t in jordan_split_cfg.probe:
        rho = jordan_split_cfg.presentation(t)
        g, m = rho.generators["A"], rho.generators["M"]
        power = g
        for _ in range(30):
            _same_floats(power @ g, Matrix(power.arr @ g.arr))
            _same_floats(power @ m, Matrix(power.arr @ m.arr))
            _same_floats(power.inv(), Matrix(np.linalg.inv(power.arr)))
            power = power @ g


def test_float_product_sign_flip_in_odd_dimension():
    a = Matrix(np.diag([1.0, 2.0, 0.5]))
    b = Matrix(np.diag([1.0, -1.0, 1.0]))
    raw = a.arr @ b.arr
    assert raw.reshape(-1)[np.argmax(np.abs(raw))] < 0  # the product is flipped
    got = a @ b
    _same_floats(got, Matrix(raw))
    assert got.det_sign == 1.0  # det < 0 before the flip, and d = 3 is odd
    _same_floats(got.inv(), Matrix(np.linalg.inv(got.arr)))


def test_float_product_with_collapsed_determinant_keeps_the_sup_scale():
    a = Matrix([[1.0, 1e100], [0.0, 1.0]])
    b = Matrix([[1.0, 0.0], [1e100, 1.0]])
    raw = a.arr @ b.arr
    sign, logdet = np.linalg.slogdet(raw / np.abs(raw).max())
    assert sign == 0 or logdet < -690.0  # the trusted underflow branch
    got = a @ b
    # sup-norm scaled, not |det| = 1, where the constructor would raise
    assert got.arr.tobytes() == (raw * math.exp(-math.log(np.abs(raw).max()))).tobytes()
    with pytest.raises(SingularInput):
        Matrix(raw)
