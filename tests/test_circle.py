import math
import random

import numpy as np
import pytest

from flagdyn.circle import (
    Arc,
    arc_pieces,
    arcs_between,
    cover_circle,
    insert_piece,
    mobius_arcs,
    sweep,
)

PI = math.pi
UNIT = PI / 16  # snapped families: endpoints on multiples of pi/16


def _columns(arcs):
    """The (centers, radii) arrays of closed arcs."""
    return np.array([a.center for a in arcs]), np.array([a.radius for a in arcs])


def _gaps(arcs, tol=1e-12):
    """``sweep`` of the arcs' pieces, as a list of float pairs."""
    return list(zip(*(g.tolist() for g in sweep(*arc_pieces(*_columns(arcs))[:2], tol))))


def test_arc_between_shorter_side_and_through():
    def arc_between(a, b, through=None):
        return Arc(*map(float, arcs_between(a, b, through)))

    arc = arc_between(0.1, 0.5)
    assert (arc.center, arc.radius) == pytest.approx((0.3, 0.2))
    # the same endpoints listed the other way round give the same arc
    swapped = arc_between(0.5, 0.1)
    assert (swapped.center, swapped.radius) == pytest.approx((0.3, 0.2))
    # across the wrap of RP^1 at pi
    wrap = arc_between(PI - 0.1, 0.2)
    assert wrap.radius == pytest.approx(0.15)
    assert wrap.contains_angle(0.0) and not wrap.contains_angle(PI / 2)
    # a point off the shorter arc selects the complement
    other = arc_between(0.1, 0.5, through=2.0)
    assert other == arc.complement()
    assert other.contains_angle(2.0) and not other.contains_angle(0.3)
    assert arc_between(0.1, 0.5, through=0.3) == arc


def _oracle_angle(m, theta):
    """Image angle of theta under m, in [0, pi), by plain math.atan2."""
    x, y = math.cos(theta), math.sin(theta)
    return math.atan2(m[1][0] * x + m[1][1] * y, m[0][0] * x + m[0][1] * y) % PI


def _oracle_dist(a, b):
    d = abs(a - b) % PI
    return min(d, PI - d)


def test_mobius_arcs_against_sampled_images():
    rng = np.random.default_rng(20221)
    n = 300
    mats = rng.normal(size=(n, 2, 2))
    centers = rng.uniform(0.0, PI, n)
    radii = rng.uniform(0.02, PI / 2 - 0.02, n)
    got_c, got_r = mobius_arcs(mats, centers, radii)
    assert np.sum(np.linalg.det(mats) < 0) > n // 4
    assert np.sum(got_r > PI / 4) > n // 4  # images on the long side
    for i in range(n):
        m = mats[i].tolist()
        c, r = float(got_c[i]), float(got_r[i])
        lo, hi = centers[i] - radii[i], centers[i] + radii[i]
        for k in range(2001):
            a = _oracle_angle(m, lo + (hi - lo) * k / 2000)
            assert _oracle_dist(a, c) <= r + 1e-12, (i, k)
        for end in (lo, hi):
            assert abs(_oracle_dist(_oracle_angle(m, end), c) - r) <= 1e-12, i


def test_uncovered_reports_gaps_in_sweep_order():
    arcs = [Arc(0.5, 0.2), Arc(2.0, 0.3)]
    gaps = _gaps(arcs)
    assert len(gaps) == 2
    (a_lo, a_hi), (b_lo, b_hi) = gaps
    assert (a_lo, a_hi) == pytest.approx((0.7, 1.7))
    # the second gap runs past pi, up to the first left endpoint plus pi
    assert (b_lo, b_hi) == pytest.approx((2.3, 0.3 + PI))
    assert _gaps([Arc(0.5, 0.2), Arc(0.5 + PI / 2, PI / 2 - 0.2)]) == []
    assert _gaps([]) == [(0.0, PI)]


def test_uncovered_counts_arcs_running_past_pi_at_the_sweep_start():
    # the first left endpoint is 0.2, but [0, 3.8 - pi] (about 0.66) is
    # covered by the arc from 2.8 that runs past pi; (0.4, 0.5) is not a gap
    wrap = Arc(3.3, 0.5)
    arcs = [Arc(0.3, 0.1), Arc(1.75, 1.25), wrap]
    assert _gaps(arcs) == []
    assert sorted(cover_circle(*_columns(arcs))) == [1, 2]
    gaps = _gaps([Arc(0.3, 0.1), wrap])
    assert len(gaps) == 1
    assert gaps[0] == pytest.approx((3.8 - PI, 2.8))


def _uncovered_reference(arcs, tol=1e-12):
    """The gaps of a pure-Python sweep over the arcs' sorted pieces."""
    pieces = sorted(((a.center - a.radius) % PI, 2 * a.radius) for a in arcs)
    if not pieces:
        return [(0.0, PI)]
    start = pieces[0][0]
    pos = max(start, max(lo + length for lo, length in pieces) - PI)
    gaps = []
    for lo, length in pieces + [(start + PI, 0.0)]:
        if lo > pos + tol:
            gaps.append((pos, lo))
        pos = max(pos, lo + length)
    return gaps


def _random_family(rng, tol):
    """Arcs on a grid of 2^-20 (so ends and gaps are exact), some wrapping
    past pi or 0, some zero-radius anchors, and some gaps of exactly tol."""
    unit = 2.0 ** -20
    family = []
    for _ in range(rng.randrange(0, 14)):
        kind = rng.random()
        radius = 0 if kind < 0.2 else rng.randrange(1, int(0.45 / unit))
        center = rng.randrange(0, int(PI / unit))
        if kind > 0.8:  # across the wrap of RP^1
            center = rng.choice([rng.randrange(0, radius + 1), int(PI / unit) - rng.randrange(
                0, radius + 1)])
        family.append(Arc(center * unit, radius * unit))
    if family and rng.random() < 0.5:
        # a neighbour starting exactly tol after some arc's end, as the
        # sweep adds it: an anchor, or on the grid an arc
        a = rng.choice(family)
        radius = rng.randrange(0, int(0.2 / unit)) * unit if tol % unit == 0 else 0.0
        family.append(Arc(a.center + a.radius + tol + radius, radius))
    return family


@pytest.mark.parametrize("tol", [1e-12, 2.0 ** -20])
def test_uncovered_matches_the_pure_python_sweep(tol):
    rng = random.Random(20261019)
    gaps = exact_tol = 0
    for _ in range(4000):
        family = _random_family(rng, tol)
        ref = _uncovered_reference(family, tol)
        assert _gaps(family, tol) == ref, family
        gaps += len(ref)
        pieces = sorted(((a.center - a.radius) % PI, 2 * a.radius) for a in family)
        exact_tol += any(b[0] == a[0] + a[1] + tol for a, b in zip(pieces, pieces[1:]))
    assert gaps > 4000
    assert exact_tol > 100


def test_inserted_pieces_sweep_as_a_full_sort():
    rng = random.Random(7)
    for _ in range(300):
        family = _random_family(rng, 1e-12)
        lo, length, order = arc_pieces([a.center for a in family], [a.radius for a in family])
        assert len(order) == len(family)
        for arc in _random_family(rng, 1e-12):
            lo, length = insert_piece(lo, length, arc)
            family.append(arc)
            full = sorted(((a.center - a.radius) % PI, 2 * a.radius) for a in family)
            assert list(zip(lo.tolist(), length.tolist())) == full
            assert list(zip(*(g.tolist() for g in sweep(lo, length)))) == _uncovered_reference(
                family)


def test_cover_circle_closing_on_start_arc_picks_it_once():
    arcs = [Arc(5 * UNIT, UNIT), Arc(13 * UNIT, 7 * UNIT)]
    assert cover_circle(*_columns(arcs)) == [1, 0]


def _snapped_covers(family):
    """Exact oracle on the pi/16 grid: integer (center, radius) pairs.

    Closed arcs with endpoints on the grid cover the circle iff each of
    the 16 unit cells has its midpoint inside one arc.
    """
    for k in range(16):
        mid2 = 2 * k + 1  # cell midpoint, in units of pi/32
        if not any(min((mid2 - 2 * c) % 32, (2 * c - mid2) % 32) <= 2 * r
                   for c, r in family):
            return False
    return True


def test_cover_circle_snapped_families():
    rng = random.Random(20220515)
    covering = 0
    for _ in range(20000):
        family = [(rng.randrange(16), rng.randrange(1, 8))
                  for _ in range(rng.randrange(1, 7))]
        picked = cover_circle(*_columns([Arc(c * UNIT, r * UNIT) for c, r in family]))
        if not _snapped_covers(family):
            assert picked is None, family
            continue
        covering += 1
        assert picked is not None, family
        assert len(set(picked)) == len(picked), (family, picked)
        assert _snapped_covers([family[i] for i in picked]), (family, picked)
    assert covering > 1000


def _covers_general(family):
    """Oracle for arcs with distinct endpoints: the union covers RP^1 iff
    each arc's right endpoint lies strictly inside another arc."""
    def inside(theta, c, r):
        d = abs(theta - c) % PI
        return min(d, PI - d) < r

    return bool(family) and all(
        any(inside(c + r, c2, r2) for j, (c2, r2) in enumerate(family) if j != i)
        for i, (c, r) in enumerate(family)
    )


def test_cover_circle_general_position_families():
    rng = random.Random(7)
    covering = 0
    for _ in range(5000):
        family = [(rng.uniform(0, PI), rng.uniform(0.01, 0.6 * PI / 2))
                  for _ in range(rng.randrange(1, 12))]
        picked = cover_circle(*_columns([Arc(c, r) for c, r in family]))
        if not _covers_general(family):
            assert picked is None, family
            continue
        covering += 1
        assert picked is not None, family
        assert len(set(picked)) == len(picked), (family, picked)
        assert _covers_general([family[i] for i in picked]), (family, picked)
    assert covering > 500
