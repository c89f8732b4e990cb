"""The numpy ``ndtri`` is bit-equal to the Cephes routine behind
``scipy.special.ndtri``, the sphere and ball samplers are drawn once per
request and handed out read-only, and no program file writes into them."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.special import ndtri as scipy_ndtri

from flagdyn.sampling import ball_points, kronecker, ndtri, sphere_points

SRC = Path(__file__).resolve().parents[1] / "src" / "flagdyn"
LO, HI = 1e-12, 1 - 1e-12  # sphere_points_from_cube's clip bounds
COUNTS = (48, 64, 152)


def _assert_bit_equal(y):
    assert np.array_equal(ndtri(y).view(np.int64), scipy_ndtri(y).view(np.int64))


def _neighbours(v, steps=16):
    """v and its ``steps`` float neighbours on each side."""
    down, up = [v], [v]
    for _ in range(steps):
        down.append(np.nextafter(down[-1], -math.inf))
        up.append(np.nextafter(up[-1], math.inf))
    return np.array(down[::-1] + up[1:])


def test_ndtri_bit_equal_on_uniform_draws():
    _assert_bit_equal(np.random.default_rng(0).random(10**6))


def test_ndtri_bit_equal_in_both_tails():
    y = 10.0 ** np.random.default_rng(1).uniform(math.log10(LO), math.log10(0.2), 200_000)
    _assert_bit_equal(y)
    _assert_bit_equal(1.0 - y)
    _assert_bit_equal(np.array([LO, HI]))


@pytest.mark.parametrize("v", [math.exp(-2), 1 - math.exp(-2), math.exp(-32), 0.5],
                         ids=["exp(-2)", "1-exp(-2)", "exp(-32)", "half"])
def test_ndtri_bit_equal_at_branch_points(v):
    # exp(-2) and 1 - exp(-2) bound the central branch; at exp(-32) the tail
    # switches from the P1/Q1 to the P2/Q2 coefficients (x = 8)
    _assert_bit_equal(_neighbours(v))


def test_ndtri_takes_both_tail_coefficient_sets():
    x = np.sqrt([-2.0 * math.log(v) for v in _neighbours(math.exp(-32))])
    assert (x < 8.0).any() and (x >= 8.0).any()


def _cube_samples():
    for dim in range(2, 7):
        for seed in range(16):
            for n in COUNTS:
                yield dim, seed, n


def test_ndtri_bit_equal_on_every_sampler_cube():
    # sphere_points maps kronecker(n, dim) rows, ball_points the first dim
    # columns of kronecker(n, dim + 1)
    cubes = [c for dim, seed, n in _cube_samples()
             for c in (kronecker(n, dim, seed), kronecker(n, dim + 1, seed)[:, :dim])]
    _assert_bit_equal(np.clip(np.concatenate([c.ravel() for c in cubes]), LO, HI))


def _scipy_sphere(u):
    z = scipy_ndtri(np.clip(u, LO, HI))
    norms = np.linalg.norm(z, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return z / norms


def test_samplers_match_their_scipy_form():
    for dim, seed, n in _cube_samples():
        u = kronecker(n, dim + 1, seed)
        ball = _scipy_sphere(u[:, :dim]) * (u[:, dim] ** (1.0 / dim))[:, None]
        assert np.array_equal(sphere_points(n, dim, seed),
                              _scipy_sphere(kronecker(n, dim, seed)))
        assert np.array_equal(ball_points(n, dim, seed), ball)


@pytest.mark.parametrize("sampler", [sphere_points, ball_points], ids=lambda f: f.__name__)
@pytest.mark.parametrize("dim", [1, 3])
def test_sampler_is_memoized_and_read_only(sampler, dim):
    pts = sampler(64, dim, 7)
    assert sampler(64, dim, 7) is pts
    assert np.array_equal(pts.view(np.int64), sampler.__wrapped__(64, dim, 7).view(np.int64))
    with pytest.raises(ValueError):
        pts[0, 0] = 0.0
    with pytest.raises(ValueError):
        pts *= 2.0


def _sampler_names(fn):
    """Names a function binds to a sphere_points or ball_points result."""
    for node in ast.walk(fn):
        if (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
                and isinstance(node.value.func, ast.Attribute)
                and node.value.func.attr in ("sphere_points", "ball_points")):
            yield from (t.id for t in node.targets if isinstance(t, ast.Name))


def _writes(fn, names):
    for node in ast.walk(fn):
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AugAssign) else [])
        for t in targets:
            base = t.value if isinstance(t, ast.Subscript) else t
            if isinstance(node, ast.AugAssign) or isinstance(t, ast.Subscript):
                if isinstance(base, ast.Name) and base.id in names:
                    yield f"{fn.name}:{node.lineno}: writes {base.id}"
        if (isinstance(node, ast.keyword) and node.arg == "out"
                and isinstance(node.value, ast.Name) and node.value.id in names):
            yield f"{fn.name}:{node.value.lineno}: out={node.value.id}"


def test_no_program_file_writes_into_a_sampler_result():
    callers, found = 0, []
    for path in sorted(SRC.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, ast.FunctionDef):
                names = set(_sampler_names(fn))
                callers += bool(names)
                found += [f"{path.name}:{hit}" for hit in _writes(fn, names)] if names else []
    assert callers >= 3
    assert found == []
