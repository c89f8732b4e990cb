"""Deterministic low-discrepancy samplers.

All samplers are stateless functions of (seed, index) built on Kronecker
sequences with generalized golden-ratio increments, so reports and
certificates are reproducible across runs and platforms. ``sphere_points``
and ``ball_points`` are memoized: each distinct request is drawn once per
process and returned as a read-only array.

Cube rows go to the sphere through the Gaussian inverse CDF ``ndtri``, a
numpy port of the Cephes ``ndtri`` (S. L. Moshier, Cephes Math Library,
ndtri.c): its three rational approximations, their coefficients, and the
``polevl``/``p1evl`` Horner order, so each value is bit-equal to the C
routine that ``scipy.special.ndtri`` wraps. The tail ``log`` goes through
``linalg.mathmap`` because numpy's vectorized log differs from the C
library's in the last bit on some inputs, and the port would then round
apart from it.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .linalg import mathmap

_EXP_M2 = 0.13533528323661269189  # exp(-2)
_S2PI = 2.50662827463100050242  # sqrt(2 pi)

# Cephes ndtri.c: exp(-2) < y < 1 - exp(-2), then x = sqrt(-2 log y) in [2, 8), [8, 64).
# Each Q starts with the leading 1 that Cephes' p1evl leaves implicit: 1.0 * z is z,
# so _polevl takes p1evl's steps bit for bit.
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
       1.39312609387279679503e1, -1.23916583867381258016e0)
_Q0 = (1.0, 1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
       -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
       4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_Q1 = (1.0, 1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
       1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
       1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
       3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_Q2 = (1.0, 6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
       2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
       2.89247864745380683936e-6, 6.79019408009981274425e-9)


def _polevl(x, coef):
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def ndtri(y: np.ndarray) -> np.ndarray:
    """Gaussian inverse CDF of each entry of y, 0 < y < 1 (Cephes ``ndtri``)."""
    y = np.asarray(y, dtype=float)
    upper = y > 1.0 - _EXP_M2
    y = np.where(upper, 1.0 - y, y)
    out = np.empty_like(y)
    mid = y > _EXP_M2
    c = y[mid] - 0.5
    c2 = c * c
    out[mid] = (c + c * (c2 * _polevl(c2, _P0) / _polevl(c2, _Q0))) * _S2PI
    x = np.sqrt(-2.0 * mathmap(math.log, y[~mid]))
    z = 1.0 / x
    x1 = np.where(x < 8.0, z * _polevl(z, _P1) / _polevl(z, _Q1),
                  z * _polevl(z, _P2) / _polevl(z, _Q2))
    tail = x - mathmap(math.log, x) / x - x1
    out[~mid] = np.where(upper[~mid], tail, -tail)
    return out


def _phi(dim: int) -> float:
    # generalized golden ratio: unique positive root of x**(dim+1) = x + 1
    x = 2.0
    for _ in range(64):
        x = (1 + x) ** (1.0 / (dim + 1))
    return x


def kronecker(n: int, dim: int, seed: int = 0) -> np.ndarray:
    """(n, dim) low-discrepancy points in the unit cube."""
    g = _phi(dim)
    alpha = (1.0 / g) ** np.arange(1, dim + 1)
    start = 0.5 + 0.618033988749895 * seed
    idx = np.arange(1, n + 1)[:, None]
    return (start + idx * alpha[None, :]) % 1.0


@lru_cache(maxsize=None)
def ball_points(n: int, dim: int, seed: int = 0) -> np.ndarray:
    """(n, dim) low-discrepancy points in the unit ball (radial map), read-only."""
    if dim == 1:
        u = kronecker(n, 1, seed)[:, 0]
        pts = (2.0 * u - 1.0)[:, None]
    else:
        u = kronecker(n, dim + 1, seed)
        dirs = sphere_points_from_cube(u[:, :dim])
        radii = u[:, dim] ** (1.0 / dim)
        pts = dirs * radii[:, None]
    pts.setflags(write=False)
    return pts


@lru_cache(maxsize=None)
def sphere_points(n: int, dim: int, seed: int = 0) -> np.ndarray:
    """(n, dim) low-discrepancy unit vectors (dim >= 1), read-only."""
    if dim == 1:
        signs = np.where(kronecker(n, 1, seed)[:, 0] < 0.5, -1.0, 1.0)
        pts = signs[:, None]
    else:
        pts = sphere_points_from_cube(kronecker(n, dim, seed))
    pts.setflags(write=False)
    return pts


def sphere_points_from_cube(u: np.ndarray) -> np.ndarray:
    """Map unit-cube rows to the unit sphere via the Gaussian inverse CDF."""
    z = ndtri(np.clip(u, 1e-12, 1 - 1e-12))
    norms = np.linalg.norm(z, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return z / norms


def simplex_weights(n: int, k: int, seed: int = 0) -> np.ndarray:
    """(n, k) positive weights summing to 1 (low-discrepancy Dirichlet-like)."""
    u = kronecker(n, k, seed)
    w = -np.log(np.clip(u, 1e-12, 1.0))
    return w / np.sum(w, axis=1, keepdims=True)
