"""Dense small-dimension linear algebra for group elements.

Matrices are stored as canonical projective representatives: scaled to
unit |det| and sign-normalized so equal elements of PGL(d, R) compare
equal. Integral input also keeps an exact integer representative;
``exact_canonical``, ``exact_matmul`` and its batched form ``exact_keys``
are the one exact kernel, shared with the coned-off graph of PGL(2, Z)
and synthesis. Every matrix gets its float representative when it is
built, and ``_exact_floats`` is the one place where exact entries become
floats: an entry beyond the float range raises SingularInput there.
Singular values of single elements come from LAPACK with sign-normalized
columns. ``PrefixProduct`` holds a stack of P sup-renormalized running
products, one per path, and pushes them together. ``gap_trace`` is the
one reader of singular gaps of long products (the ``gaps`` command and
``dynamics.local_to_global_check``); it never decomposes the product,
but accumulates the renormalized exterior powers a gap needs beside a
one-path ``PrefixProduct`` and reads each log sigma_1 ... sigma_j =
log ||Lambda^j g|| from a top singular value. ``rowdot`` and
``mathmap`` are the row-by-row kernels that keep a batched row
bit-identical to its one-row computation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import combinations

import numpy as np

from .errors import BadDegree, SingularInput

MAX_DIM = 20
MAX_EXT_DIM = 200
RENORM_EVERY = 8


def exact_canonical(flat, d):
    """Canonical PGL(d, Z) representative of row-major integer entries.

    Divides out the gcd and makes the first nonzero entry positive, so
    equal elements give equal d-tuples of row tuples.
    """
    g = math.gcd(*flat)
    if g > 1:
        flat = [x // g for x in flat]
    for x in flat:
        if x:
            if x < 0:
                flat = [-y for y in flat]
            break
    if d == 2:
        return ((flat[0], flat[1]), (flat[2], flat[3]))
    return tuple(tuple(flat[i:i + d]) for i in range(0, d * d, d))


def exact_matmul(a, b):
    """Canonical product of two exact integer matrices given as row tuples.

    The 2x2 product is unrolled: the coned-off graph of PGL(2, Z) makes
    millions of these.
    """
    if len(a) == 2:
        (a00, a01), (a10, a11) = a
        (b00, b01), (b10, b11) = b
        return exact_canonical((a00 * b00 + a01 * b10, a00 * b01 + a01 * b11,
                                a10 * b00 + a11 * b10, a10 * b01 + a11 * b11), 2)
    cols = tuple(zip(*b))
    return exact_canonical([sum(x * y for x, y in zip(row, col)) for row in a for col in cols],
                           len(a))


def exact_keys(factors, d):
    """Canonical key rows (n, d * d) of every product of one integer d x d
    matrix from each stack of ``factors`` (each (n_i, d, d) or (n_i, d * d)),
    by batched matmul: int64 if d^(k-1) prod max|entry| < 2^62, else Python
    ints. Each row is ``exact_canonical`` of its product, flattened."""
    factors = [f.reshape(-1, d, d) for f in factors]
    bound = d ** (len(factors) - 1) * math.prod(int(np.abs(f).max(initial=0)) for f in factors)
    factors = [f.astype(np.int64 if bound < 2 ** 62 else object) for f in factors]
    rows = reduce(lambda a, b: a[..., None, :, :] @ b, factors).reshape(-1, d * d)
    rows //= np.gcd.reduce(rows, axis=1)[:, None]
    rows *= np.where(rows[np.arange(len(rows)), np.argmax(rows != 0, axis=1)] < 0, -1, 1)[:, None]
    return rows


def _exact_floats(entries):
    """Float array of exact integer entries (nested tuples or an integer
    array); an entry beyond the floats raises SingularInput."""
    try:
        return np.asarray(entries, dtype=float)
    except OverflowError as exc:
        raise SingularInput(f"matrix entries exceed the float range: {exc}") from exc


def _sign_canonical(arr):
    """Flip the global sign so the first entry of largest magnitude is positive.

    Returns the array and whether it was flipped.
    """
    flat = arr.reshape(-1)
    idx = int(abs(flat).argmax())
    if flat[idx] < 0:
        return -arr, True
    return arr, False


class Matrix:
    """Invertible d x d real matrix, canonicalized as a PGL(d, R) representative.

    ``arr`` holds the unit-|det|, sign-canonical float representative and
    ``det_sign`` the sign of its determinant (+1 when it underflows).
    ``exact`` holds the integer entries (gcd-reduced, sign-canonical) when
    the input was integral, so group elements can be deduplicated exactly.

    A constructed matrix is validated and gets its float representative at
    once, and so does a product or inverse of exact matrices, from its
    exact entries: entries beyond the floats, or a float determinant that
    underflows, raise SingularInput where the matrix is built. A product
    or inverse of float matrices is trusted and canonicalized from its
    fresh array as is (``_of_floats``): a determinant that underflows
    keeps the sup-norm scale instead of raising.
    """

    __slots__ = ("dim", "arr", "exact", "det_sign")

    def __init__(self, entries):
        raw = np.array(entries)
        if raw.ndim != 2 or raw.shape[0] != raw.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {raw.shape}")
        d = raw.shape[0]
        if d > MAX_DIM:
            raise ValueError(f"dimension {d} exceeds the supported cap {MAX_DIM}")
        self.dim = d
        if raw.dtype.kind in "iu" or (
            raw.dtype == object and all(isinstance(x, int) for x in raw.flat)
        ):
            self.exact = exact_canonical([int(x) for x in raw.flat], d)
            a = _exact_floats(self.exact)
        else:
            self.exact, a = None, raw.astype(float)
        self._set_floats(a, False)

    @classmethod
    def _of_exact(cls, exact):
        """Matrix of a canonical exact tuple."""
        m = cls.__new__(cls)
        m.dim, m.exact = len(exact), exact
        m._set_floats(_exact_floats(exact), False)
        return m

    @classmethod
    def _of_floats(cls, a):
        """Trusted Matrix of a square float array, which it does not write:
        what the constructor gives, without its copies and integrality probe,
        but also where the determinant underflows."""
        m = cls.__new__(cls)
        m.dim = len(a)
        m.exact = None
        m._set_floats(a, True)
        return m

    def _set_floats(self, a, trusted):
        d = self.dim
        # pre-scale by the sup norm so slogdet survives huge dynamic range
        supnorm = float(abs(a).max())
        if supnorm == 0.0 or not math.isfinite(supnorm):
            raise SingularInput("matrix entries are zero or non-finite")
        sign, logdet = np.linalg.slogdet(a / supnorm)
        if sign == 0 or logdet < -690.0:
            # products of validated invertible matrices stay invertible even
            # when the float determinant collapses; keep the sup-norm scale
            if not trusted:
                raise SingularInput("matrix determinant underflows")
            scale = math.log(supnorm)
        else:
            # scale to |det| = 1
            scale = logdet / d + math.log(supnorm)
        a = a * math.exp(-scale)
        self.arr, flipped = _sign_canonical(a)
        self.arr.setflags(write=False)
        self.det_sign = -1.0 if sign < 0 else 1.0
        if flipped and d % 2:
            self.det_sign = -self.det_sign

    @staticmethod
    def floats_of_exact(rows, d):
        """``arr`` of each canonical exact element, given as the rows (n, d*d)
        of its entries: the steps of ``_set_floats`` on a stack, bit for bit
        (LAPACK per matrix, ``math`` log and exp per row)."""
        a = _exact_floats(rows).reshape(-1, d, d)
        supnorm = np.abs(a).max(axis=(1, 2))
        sign, logdet = np.linalg.slogdet(a / supnorm[:, None, None])
        if (sign == 0).any() or (logdet < -690.0).any():
            raise SingularInput("matrix determinant underflows")
        a = a * mathmap(math.exp, -(logdet / d + mathmap(math.log, supnorm)))[:, None, None]
        flat = a.reshape(len(a), -1)
        flip = flat[np.arange(len(a)), np.argmax(np.abs(flat), axis=1)] < 0
        return np.where(flip[:, None, None], -a, a)

    @classmethod
    def identity(cls, d):
        return cls(np.eye(d))

    def __matmul__(self, other):
        if self.exact is not None and other.exact is not None:
            return Matrix._of_exact(exact_matmul(self.exact, other.exact))
        return Matrix._of_floats(self.arr @ other.arr)

    def inv(self):
        if self.exact is not None and self.dim == 2:
            (a, b), (c, d) = self.exact
            return Matrix._of_exact(exact_canonical((d, -b, -c, a), 2))
        try:
            inverse = np.linalg.inv(self.arr)
        except np.linalg.LinAlgError as exc:
            raise SingularInput(f"matrix is singular in floats: {exc}") from exc
        return Matrix._of_floats(inverse)

    def key(self):
        """Hashable canonical key for exact-equality deduplication."""
        if self.exact is not None:
            return ("exact", self.dim, self.exact)
        return ("float", self.dim, tuple(np.round(self.arr.reshape(-1), 9)))

    def is_identity(self, tol=1e-9):
        """Whether the matrix is +I or -I: entrywise |a - s I| <= tol + 1e-5 |I|
        for s = 1 or -1 (``np.allclose`` with atol ``tol``)."""
        eye = np.eye(self.dim)
        bound = tol + 1e-5 * eye
        return any(bool((np.abs(self.arr - s * eye) <= bound).all()) for s in (1, -1))

    def __repr__(self):
        return f"Matrix(dim={self.dim}, exact={self.exact is not None})"


@dataclass(frozen=True)
class SingularDecomposition:
    u: np.ndarray
    sigma: np.ndarray
    v: np.ndarray
    residual: float


@dataclass(frozen=True)
class CartanVector:
    dim: int
    mu: np.ndarray

    def __post_init__(self):
        if abs(float(np.sum(self.mu))) > 1e-9:
            raise ValueError("Cartan vector entries must sum to zero")
        if np.any(np.diff(self.mu) > 1e-12):
            raise ValueError("Cartan vector entries must be non-increasing")


def svd(m: Matrix) -> SingularDecomposition:
    """LAPACK SVD of a single element.

    Column signs of u are normalized so the largest-magnitude entry of each
    column is nonnegative (v follows), which makes the result deterministic.
    """
    a = m.arr
    u, sigma, vt = np.linalg.svd(a)
    if sigma[-1] <= 0.0:
        raise SingularInput("vanishing singular value")
    cols = np.arange(m.dim)
    signs = np.where(u[np.argmax(np.abs(u), axis=0), cols] < 0, -1.0, 1.0)
    u = u * signs
    v = vt.T * signs
    residual = float(np.max(np.abs((u * sigma) @ v.T - a)))
    return SingularDecomposition(u=u, sigma=sigma, v=v, residual=residual)


def cartan_projection(m: Matrix) -> CartanVector:
    """Sorted log singular values, shifted to sum to zero."""
    sigma = svd(m).sigma
    mu = np.log(sigma)
    mu = mu - np.mean(mu)
    return CartanVector(dim=m.dim, mu=mu)


def simple_root_gaps(cv: CartanVector) -> np.ndarray:
    """gaps[i] = mu[i] - mu[i+1]; gaps[k-1] is the log sigma_k/sigma_{k+1} observable."""
    return -np.diff(cv.mu)


@lru_cache(maxsize=None)
def _subsets(n, k):
    idx = np.array(list(combinations(range(n), k)), dtype=np.intp)
    idx.setflags(write=False)
    return idx


def minors(a: np.ndarray, k: int) -> np.ndarray:
    """All k x k minors of a, rows and columns as k-subsets in lex order,
    from one batched determinant of the stacked blocks."""
    rows = _subsets(a.shape[0], k)
    cols = _subsets(a.shape[1], k)
    return np.linalg.det(a[rows[:, None, :, None], cols[None, :, None, :]])


def rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products of matching rows of two broadcastable (..., n) arrays.

    Each one is its own 1-D BLAS dot, the kernel of ``a[i] @ b[i]``: a
    matrix product of the stacked rows would round some rows differently
    depending on how many rows it is given.
    """
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def mathmap(fn, values):
    """``fn`` from ``math`` on each entry of an array (on a float, just ``fn``).

    numpy's vectorized exp and log differ from ``math`` in the last bit on
    some inputs; batched results stay bit-identical to one-row calls that
    use ``math``.
    """
    if isinstance(values, float):
        return fn(values)
    values = np.asarray(values, dtype=float)
    return np.array([fn(v) for v in values.ravel().tolist()]).reshape(values.shape)


def exterior_power(m: Matrix, k: int) -> Matrix:
    """k-th exterior power: entry (I, J) is the (I, J) minor, k-subsets in lex order."""
    d = m.dim
    if not 1 <= k <= d - 1:
        raise BadDegree(f"k = {k} out of range for dimension {d}")
    n = math.comb(d, k)
    if n > MAX_EXT_DIM:
        raise BadDegree(f"C({d},{k}) = {n} exceeds the supported cap {MAX_EXT_DIM}")
    return Matrix(minors(m.arr, k))


class PrefixProduct:
    """Running products of P paths' unit-|det| factors, renormalized by sup norm.

    Row p of ``arr`` (shape (P, d, d)) is path p's product up to a positive
    scale, with ``logdet[p]`` its log |det| and ``det_sign[p]`` the sign.
    Each path renormalizes on its own counter and every product is a
    per-path BLAS call, so a path's values do not depend on the paths
    stacked beside it.
    """

    def __init__(self, dim: int, paths: int = 1):
        self.dim = dim
        self.arr = np.tile(np.eye(dim), (paths, 1, 1))
        self.logdet = np.zeros(paths)
        self.det_sign = np.ones(paths)
        self._since_renorm = np.zeros(paths, dtype=int)

    def push(self, factors):
        """Multiply each path's product on the right by its factor (P Matrix)."""
        distinct = list(dict.fromkeys(factors))
        if len(distinct) == 1:  # one factor for every path: broadcast it
            arr, det_sign = distinct[0].arr, distinct[0].det_sign
        else:
            pos = {m: i for i, m in enumerate(distinct)}
            idx = [pos[m] for m in factors]
            arr = np.stack([m.arr for m in distinct])[idx]
            det_sign = np.array([m.det_sign for m in distinct])[idx]
        self.arr = np.matmul(self.arr, arr)
        self.det_sign = self.det_sign * det_sign
        self._since_renorm += 1
        top = np.abs(self.arr).max(axis=(1, 2))
        due = (self._since_renorm >= RENORM_EVERY) | (top > 1e12)
        if due.any():
            self._renorm(due, top)

    def _renorm(self, due, top):
        s = top[due]
        ok = (s > 0) & np.isfinite(s)
        rows = np.flatnonzero(due)[ok]
        self.arr[rows] = self.arr[rows] / s[ok][:, None, None]
        self.logdet[rows] = self.logdet[rows] - self.dim * mathmap(math.log, s[ok])
        self._since_renorm[due] = 0

    def apply(self, coords: np.ndarray, rows=None):
        """Images of unit rows under each product, and their pre-normalization norms.

        ``coords`` is (n, d), shared by every path, or (P, n, d), one block
        per path; ``rows`` selects a subset of the paths. Returns (P, n, d)
        unit rows and (P, n) norms.
        """
        arr = self.arr if rows is None else self.arr[rows]
        img = np.matmul(coords, arr.transpose(0, 2, 1))
        norms = np.linalg.norm(img, axis=-1)
        return img / norms[..., None], norms


def gap_trace(factors, k: int):
    """log(sigma_k / sigma_{k+1}) of each prefix product of the factors.

    Since sigma_1 ... sigma_j = ||Lambda^j g||, every gap comes from top
    singular values only, which stay relatively accurate long after the
    small singular values of the product have fallen below roundoff. A
    ``PrefixProduct`` gives degree 1 and log |det| (degree d); the
    exterior powers of degrees k - 1, k, k + 1 that lie in 2..d-1 are
    accumulated beside it as (1, C, C) stacks, each sup-renormalized with
    its own running log scale. The Lambda^j block of a factor is computed
    once per distinct ``Matrix`` object.
    """
    if not factors:
        raise ValueError("empty sequence")
    dim = factors[0].dim
    if not 1 <= k <= dim - 1:
        raise BadDegree(f"k = {k} out of range for dimension {dim}")
    prefix = PrefixProduct(dim)
    ext = {j: [np.eye(math.comb(dim, j))[None], np.zeros(1)]
           for j in (k - 1, k, k + 1) if 2 <= j <= dim - 1}
    blocks = {}  # (factor, j) -> Lambda^j block of the factor

    def log_top(j):
        """log sigma_1 ... sigma_j of the product; 1 for j = 0, |det| for j = d."""
        if j == 0:
            return 0.0
        if j == dim:
            return prefix.logdet
        if j == 1:
            return mathmap(math.log, np.linalg.svd(prefix.arr, compute_uv=False)[:, 0])
        acc, scale = ext[j]
        # acc * exp(scale) is Lambda^j of the unit-|det| product, which is
        # arr * exp(-logdet / d)
        return (mathmap(math.log, np.linalg.svd(acc, compute_uv=False)[:, 0]) + scale
                + j * prefix.logdet / dim)

    trace = []
    for m in factors:
        prefix.push([m])
        for j, acc in ext.items():
            if (m, j) not in blocks:
                blocks[m, j] = minors(m.arr, j)
            e = np.matmul(acc[0], blocks[m, j])
            s = np.abs(e).max(axis=(1, 2))
            acc[0] = e / s[:, None, None]
            acc[1] = acc[1] + mathmap(math.log, s)
        trace.append(float((2.0 * log_top(k) - log_top(k - 1) - log_top(k + 1))[0]))
    return trace


def flag_divergent(trace, threshold: float = 5.0) -> bool:
    """Finite-sequence proxy for a divergent gap trace.

    Flags the trace when the final value exceeds ``threshold`` and no new
    minimum occurs in the last quartile (the minimum over the last quartile
    strictly exceeds the minimum over everything before it). This is a
    declared heuristic for an asymptotic condition, not a proof.
    """
    n = len(trace)
    if n == 0 or trace[-1] <= threshold:
        return False
    q = max(1, n // 4)
    tail = trace[-q:]
    head = trace[:-q]
    if not head:
        return True
    return min(tail) > min(head)
