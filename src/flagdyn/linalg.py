"""Dense small-dimension linear algebra for group elements.

Matrices are stored as canonical projective representatives: scaled to
unit |det| and sign-normalized so equal elements of PGL(d, R) compare
equal. Integral input also keeps an exact integer representative;
``exact_canonical`` and ``exact_matmul`` are the one exact kernel, shared
with the coned-off graph of PGL(2, Z). Singular values come from a
one-sided Jacobi iteration with a fixed cyclic sweep order, so all
derived quantities (Cartan vectors, root gaps, attracting data) are
deterministic across runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import BadDegree, NoConvergence, SingularInput

MAX_DIM = 20
MAX_EXT_DIM = 200
_JACOBI_SWEEP_CAP = 100
_JACOBI_TOL = 1e-15


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


def _sign_canonical(arr):
    """Flip the global sign so the first entry of largest magnitude is positive."""
    flat = arr.reshape(-1)
    idx = int(np.argmax(np.abs(flat)))
    if flat[idx] < 0:
        return -arr
    return arr


class Matrix:
    """Invertible d x d real matrix, canonicalized as a PGL(d, R) representative.

    ``arr`` holds the unit-|det|, sign-canonical float representative.
    ``exact`` holds the integer entries (gcd-reduced, sign-canonical) when
    the input was integral, so group elements can be deduplicated exactly.
    """

    __slots__ = ("dim", "arr", "exact", "_logdet_scale")

    def __init__(self, entries, _trusted=False):
        a = np.array(entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        d = a.shape[0]
        if d > MAX_DIM:
            raise ValueError(f"dimension {d} exceeds the supported cap {MAX_DIM}")
        self.dim = d

        exact = None
        raw = np.array(entries)
        if raw.dtype.kind in "iu" or (
            raw.dtype == object and all(isinstance(x, int) for x in raw.flat)
        ):
            exact = exact_canonical([int(x) for x in raw.flat], d)
            a = np.array(exact, dtype=float)
        self.exact = exact

        # pre-scale by the sup norm so slogdet survives huge dynamic range
        supnorm = float(np.max(np.abs(a)))
        if supnorm == 0.0 or not math.isfinite(supnorm):
            raise SingularInput("matrix entries are zero or non-finite")
        sign, logdet = np.linalg.slogdet(a / supnorm)
        if sign == 0 or logdet < -690.0:
            # products of validated invertible matrices stay invertible even
            # when the float determinant collapses; keep the sup-norm scale
            if not _trusted:
                raise SingularInput("matrix determinant underflows")
            self._logdet_scale = math.log(supnorm)
        else:
            # scale to |det| = 1; the log-scale is kept for volume tracking
            self._logdet_scale = logdet / d + math.log(supnorm)
        a = a * math.exp(-self._logdet_scale)
        self.arr = _sign_canonical(a)
        self.arr.setflags(write=False)

    @classmethod
    def identity(cls, d):
        return cls(np.eye(d))

    def __matmul__(self, other):
        if self.exact is not None and other.exact is not None:
            return Matrix(np.array(exact_matmul(self.exact, other.exact), dtype=object))
        return Matrix(self.arr @ other.arr, _trusted=True)

    def inv(self):
        if self.exact is not None and self.dim == 2:
            (a, b), (c, d) = self.exact
            return Matrix(np.array([[d, -b], [-c, a]], dtype=object))
        return Matrix(np.linalg.inv(self.arr), _trusted=True)

    def key(self):
        """Hashable canonical key for exact-equality deduplication."""
        if self.exact is not None:
            return ("exact", self.dim, self.exact)
        return ("float", self.dim, tuple(np.round(self.arr.reshape(-1), 9)))

    def is_identity(self, tol=1e-9):
        return bool(np.allclose(self.arr, np.eye(self.dim), atol=tol)) or bool(
            np.allclose(self.arr, -np.eye(self.dim), atol=tol)
        )

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
    """One-sided Jacobi SVD with a fixed cyclic sweep order.

    Deterministic for fixed input. Column signs of u are normalized so the
    largest-magnitude entry of each column is nonnegative (v follows).
    """
    a = np.array(m.arr, dtype=float)
    d = m.dim
    w = a.copy()
    v = np.eye(d)

    converged = False
    for _ in range(_JACOBI_SWEEP_CAP):
        off = 0.0
        for i in range(d - 1):
            for j in range(i + 1, d):
                wi = w[:, i]
                wj = w[:, j]
                pij = float(wi @ wj)
                nii = float(wi @ wi)
                njj = float(wj @ wj)
                denom = math.sqrt(nii * njj)
                if denom == 0.0:
                    raise SingularInput("zero column encountered in Jacobi sweep")
                off = max(off, abs(pij) / denom)
                if abs(pij) <= _JACOBI_TOL * denom:
                    continue
                theta = 0.5 * math.atan2(2.0 * pij, nii - njj)
                c, s = math.cos(theta), math.sin(theta)
                w[:, [i, j]] = w[:, [i, j]] @ np.array([[c, -s], [s, c]])
                v[:, [i, j]] = v[:, [i, j]] @ np.array([[c, -s], [s, c]])
        if off <= _JACOBI_TOL:
            converged = True
            break
    if not converged:
        raise NoConvergence(f"Jacobi SVD did not converge in {_JACOBI_SWEEP_CAP} sweeps")

    sigma = np.linalg.norm(w, axis=0)
    if np.min(sigma) <= 0.0:
        raise SingularInput("vanishing singular value")
    u = w / sigma

    order = np.argsort(-sigma, kind="stable")
    sigma = sigma[order]
    u = u[:, order]
    v = v[:, order]

    for col in range(d):
        idx = int(np.argmax(np.abs(u[:, col])))
        if u[idx, col] < 0:
            u[:, col] = -u[:, col]
            v[:, col] = -v[:, col]

    recon = u @ np.diag(sigma) @ v.T
    residual = float(np.max(np.abs(recon - a)))
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


def exterior_power(m: Matrix, k: int) -> Matrix:
    """k-th exterior power: entry (I, J) is the (I, J) minor, k-subsets in lex order."""
    d = m.dim
    if not 1 <= k <= d - 1:
        raise BadDegree(f"k = {k} out of range for dimension {d}")
    subsets = list(combinations(range(d), k))
    n = len(subsets)
    if n > MAX_EXT_DIM:
        raise BadDegree(f"C({d},{k}) = {n} exceeds the supported cap {MAX_EXT_DIM}")
    out = np.empty((n, n))
    a = m.arr
    for ii, rows in enumerate(subsets):
        block = a[np.ix_(rows, range(d))]
        for jj, cols in enumerate(subsets):
            out[ii, jj] = np.linalg.det(block[:, cols])
    return Matrix(out)


def gap_trace(seq, k: int):
    """log(sigma_k / sigma_{k+1}) for each matrix in the sequence."""
    if not seq:
        raise ValueError("empty sequence")
    d = seq[0].dim
    if not 1 <= k <= d - 1:
        raise BadDegree(f"k = {k} out of range for dimension {d}")
    trace = []
    for m in seq:
        sigma = svd(m).sigma
        trace.append(float(math.log(sigma[k - 1] / sigma[k])))
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
