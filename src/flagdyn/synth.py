"""Automaton synthesis from expansion dynamics on the projective line.

Builds a vertex-labeled automaton plus a compatible system for a
dimension-2 presentation acting on the circle, from first principles:

* around each parabolic fixed point of a peripheral coset, a fundamental
  interval of the peripheral subgroup is thickened into hat
  neighborhoods, and a cofinite coset tail is selected so every tail
  element maps the thickened interval deep into a small neighborhood of
  the point;
* around grid points of the circle, short words are searched (by length,
  then lexicographically; first hit wins) whose inverses expand a
  delta neighborhood, the expanded image containing an enlarged
  neighborhood of the pullback; each word's expansion window, the arc
  of points where it can expand at all, limits the exact tests to a few
  words per point, and the whole grid is searched in one batched pass;
* peripheral coset vertices are materialized adaptively: whenever the
  inner neighborhoods leave a gap on the circle, the nearest candidate
  coset point (enumerated in peripheral-power syllable form, since coset
  representatives of nearby cusps have unbounded plain word length) gets
  a vertex, until the circle is covered;
* edges follow the pullback-intersection rule.

Every vertex, conical or parabolic, is one ``_Vertex`` record: its label,
boundary point, inner and outer arcs, and pullback set. The edges, the
pruning of vertices without outgoing edges, and every returned dict are
read from one store of these records.

Element keys are formed in one place, ``_key_table``: the keys of every
product of one word from each of a few lists, exact products by batched
matmul for an integral presentation. The generator ball is one table per
length, and the syllable words u t^a v one table per run (``_Syllables``)
with two readers, the coset candidates and the search pool; each takes
only the words it keeps as word tuples.

All interval computations are exact endpoint arithmetic, so the returned
system passes certification by construction, with margins.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .automaton import CompatibleSystem, GammaGraph, ParabolicFamily, Singleton
from .circle import (
    HALF_TURN,
    Arc,
    angle_dist,
    angle_dists,
    angle_of,
    angles,
    arc_between,
    cover_circle,
    mobius_angle,
    mobius_arc,
    mobius_arcs,
    uncovered,
    vec_of,
)
from .domains import arc_ball
from .errors import SynthesisFailed
from .linalg import Matrix
from .words import GroupPresentation, Word, concat, word_str


# a parabolic vertex's tail bound n0 is the least n <= _MAX_POWER with every
# power n..n + _TAIL_WINDOW passing both ways; gaps are filled in at most
# _MAX_PARABOLIC_ROUNDS rounds
_MAX_POWER = 400
_TAIL_WINDOW = 4
_MAX_PARABOLIC_ROUNDS = 2000


def _adjugates(mats):
    """2x2 adjugates [[d, -b], [-c, a]]: the inverse Mobius maps."""
    return np.stack([mats[..., ::-1, 1], mats[..., ::-1, 0]], -2) * [[1, -1], [-1, 1]]


@dataclass
class SynthesisParams:
    epsilon: float = 0.05
    delta: float = 0.05
    word_radius: int = 14
    grid: int = 2048
    coset_ball: int = 2
    lead_powers: int = 60

    def balls_are_arcs(self) -> bool:
        """Whether epsilon and delta are positive with 2 (delta + epsilon) <
        pi/2, so every expanded pullback ball is a proper arc."""
        eps, delta = self.epsilon, self.delta
        return eps > 0 and delta > 0 and 2 * (delta + eps) < HALF_TURN / 2


@dataclass
class SynthesisResult:
    graph: GammaGraph
    inner_sets: dict  # vertex -> Arc (the covering neighborhoods)
    outer_sets: dict  # vertex -> Arc (the expanded neighborhoods)
    system: CompatibleSystem
    boundary_points: dict  # vertex -> angle


@dataclass
class _Vertex:
    """One synthesized vertex: its label (``Singleton`` or ``ParabolicFamily``),
    boundary point, inner arc V, outer arc W and pullback set. Edge (x, y)
    exists when x's pullback set meets y's V."""
    label: object
    angle: float
    v: Arc
    w: Arc
    source: Arc


def _key_table(rho, *word_lists):
    """The ``Matrix.key`` entries of every product of one word from each list,
    shape (len(list_1), ..., len(list_k), d * d): the only place synthesis
    forms element keys. An integral presentation forms exact products by
    batched matmul: int64 if d^(k-1) prod max|entry| < 2^62, else Python ints."""
    d = rho.dim
    shape = tuple(map(len, word_lists)) + (d * d,)
    if any(m.exact is None for m in rho.generators.values()):
        return np.array([rho.evaluate(concat(*ws)).key()[2]
                         for ws in itertools.product(*word_lists)]).reshape(shape)
    factors = [np.array([rho.evaluate(w).exact for w in ws], dtype=object).reshape(-1, d, d)
               for ws in word_lists]
    if d ** (len(factors) - 1) * math.prod(np.abs(f).max(initial=0) for f in factors) < 2 ** 62:
        factors = [f.astype(np.int64) for f in factors]
    rows = functools.reduce(lambda a, b: a[..., None, :, :] @ b, factors).reshape(-1, d * d)
    # canonical as in exact_canonical: divide out the gcd, first nonzero entry > 0
    rows //= np.gcd.reduce(rows, axis=1)[:, None]
    rows *= np.where(rows[np.arange(len(rows)), np.argmax(rows != 0, axis=1)] < 0, -1, 1)[:, None]
    return rows.reshape(shape)


def _word_ball(rho: GroupPresentation, radius: int):
    """Nonidentity elements of the generator ball, by length then lex: their
    words and key rows. Each length is one key table of the last length's
    words times the generators; an element keeps its first row only."""
    gens = [((name, e),) for name in sorted(rho.generators) for e in (1, -1)]
    frontier, words, rows = [()], [], [_key_table(rho, [()])]
    seen = set(map(tuple, rows[0].tolist()))
    for _ in range(radius):
        table = _key_table(rho, frontier, gens).reshape(-1, rho.dim ** 2)
        firsts = [i for i, row in enumerate(map(tuple, table.tolist()))
                  if row not in seen and not seen.add(row)]
        frontier = [concat(frontier[i // len(gens)], gens[i % len(gens)]) for i in firsts]
        words += frontier
        rows.append(table[firsts])
    return words, np.concatenate(rows)[1:]


class _Syllables:
    """The words u t^a v of each peripheral generator t, u and v in the coset
    ball and |a| <= L: ``keys[t, a + L, u, v]`` is a word's key row."""

    def __init__(self, rho, params):
        self.short = [()] + _word_ball(rho, params.coset_ball)[0]
        self.t_names = [p.generators[0] for p in rho.peripherals]
        self.lead_powers = L = params.lead_powers
        leads = [((t, a),) for t in self.t_names for a in range(-L, L + 1)]
        n = len(self.short)
        self.keys = _key_table(rho, self.short, leads, self.short).reshape(
            n, len(self.t_names), 2 * L + 1, n, 4).transpose(1, 2, 0, 3, 4)

    def word(self, t, a, u, v) -> Word:
        """The normal word at keys[t, a, u, v]: the flanks are normal, so
        only a flank syllable in t merges, into the lead power."""
        head, tail, name, a = self.short[u], self.short[v], self.t_names[t], a - self.lead_powers
        if head and head[-1][0] == name:
            a += head[-1][1]
            head = head[:-1]
        if tail and tail[0][0] == name:
            a += tail[0][1]
            tail = tail[1:]
        # a cancelled lead leaves the flanks to merge, possibly in a cascade
        return head + ((name, a),) + tail if a else concat(head, tail)


def _fundamental_interval(rho: GroupPresentation, t_name: str, p_angle: float) -> Arc:
    """Fundamental interval of the parabolic <t> on the circle minus its
    fixed point: the arc between the antipode q and t . q avoiding the
    fixed point."""
    t = rho.generators[t_name].arr
    q = (p_angle + HALF_TURN / 2) % HALF_TURN
    tq = mobius_angle(t, q)
    if angle_dist(q, tq) < 1e-12:
        raise SynthesisFailed("declared peripheral generator fixes the antipode", p_angle)
    arc = arc_between(q, tq)
    return arc.complement() if arc.contains_angle(p_angle) else arc


def _arc_hull_containing(arcs, anchor: float) -> Arc:
    """Smallest arc containing the anchor and the given arcs.

    Computed as the complement of the largest circular gap left by the
    pieces: valid because the intermediate coset translates fill the
    space between the extreme pieces and the anchor.
    """
    gaps = uncovered(list(arcs) + [Arc(anchor, 0.0)], tol=1e-15)
    if not gaps:
        raise SynthesisFailed("neighborhood union wraps the whole circle", anchor)
    g_lo, g_hi = max(gaps, key=lambda g: g[1] - g[0])
    length = HALF_TURN - (g_hi - g_lo)
    if length >= HALF_TURN - 1e-12:
        raise SynthesisFailed("neighborhood union too large for an arc", anchor)
    hull = Arc((g_hi + length / 2) % HALF_TURN, length / 2)
    if not hull.contains_angle(anchor, slack=1e-9):
        raise SynthesisFailed("hull does not contain its anchor", anchor)
    return hull


def _parabolic_vertex(rho, p_name, t_name, coset_word, p_angle, K_p, params):
    """One peripheral coset vertex: its tail bound n0 in the label, and its
    neighborhoods; its pullback set is the hat V = K_p + delta."""
    eps, delta = params.epsilon, params.delta
    try:
        v_hat, w_hat, w_hat_eps = [K_p.expand(r) for r in (delta, 2 * delta, 2 * delta + 2 * eps)]
    except ValueError as exc:
        raise SynthesisFailed(f"hat neighborhoods of <{t_name}>: {exc}", p_angle) from exc
    q_angle = mobius_angle(rho.evaluate(coset_word).arr, p_angle)
    target_half = Arc(q_angle, delta / 2)
    target_eps = Arc(q_angle, eps)

    def conditions(n):
        g = rho.evaluate(concat(coset_word, ((t_name, n),)))
        img_w = mobius_arc(g.arr, w_hat)
        img_we = mobius_arc(g.arr, w_hat_eps)
        return (
            target_half.margin_of_arc(img_w) > 0
            and target_eps.margin_of_arc(img_we) > 0
        )

    n0 = None
    for n in range(1, _MAX_POWER + 1):
        window = range(n, n + _TAIL_WINDOW + 1)
        if all(conditions(m) and conditions(-m) for m in window):
            n0 = n
            break
    if n0 is None:
        raise SynthesisFailed(
            f"no cofinite tail for coset {word_str(coset_word)} <{t_name}>", q_angle
        )

    powers = [*range(n0, n0 + _TAIL_WINDOW + 1), n0 + 8, n0 + 16]
    mats = np.array([rho.evaluate(concat(coset_word, ((t_name, sign * n),))).arr
                     for n in powers for sign in (1, -1)])

    def hull(base_arc):
        images = mobius_arcs(mats, base_arc.center, base_arc.radius)
        return _arc_hull_containing([Arc(*map(float, cr)) for cr in zip(*images)], q_angle)

    w_q = hull(w_hat)
    v_q = hull(v_hat)
    if 2 * w_q.radius >= delta or Arc(q_angle, eps).margin_of_arc(w_q) <= 0:
        raise SynthesisFailed(
            f"parabolic neighborhood of {word_str(coset_word)} <{t_name}> too large",
            q_angle,
        )
    label = ParabolicFamily(coset_word=coset_word, peripheral=p_name, exclude_below=n0)
    return _Vertex(label, q_angle, v_q, w_q, v_hat)


# ---------------------------------------------------------------------------
# vectorized conical expansion search

# slack of the expansion windows, in image length and in angle: far above
# the roundoff of the searcher's tests, so no passing row falls outside
_WINDOW_SLACK = 1e-9
# grid points searched together: bounds the (z, word) pairs held at once
_CHUNK = 32


def _expansion_windows(mats, delta):
    """Arcs (centers, radii) outside which z cannot pass the first test.

    Word g passes at z when g maps B(g^-1 z, 2 delta) onto an arc shorter
    than delta. With k = sigma_2 / sigma_1 of g, the image of B(phi, 2
    delta), phi the angle from g's top right-singular direction v1, has
    length h(phi), which increases in |phi| on [0, pi/2]; so the test can
    pass only for z in g(B(v1, Phi)) with h(Phi) = delta. Radius -1 marks
    a word with h(0) >= delta, which never passes.
    """
    if 4 * delta >= HALF_TURN:  # B(z, 2 delta) is no proper arc: windows are RP^1
        return np.zeros(len(mats)), np.full(len(mats), HALF_TURN / 2)
    # g^T g = [[p, q], [q, r]]: v1 is its top eigenvector, and k = |det| / sigma_1^2
    a, b, c, d = mats[:, 0, 0], mats[:, 0, 1], mats[:, 1, 0], mats[:, 1, 1]
    p, q, r = a * a + c * c, a * b + c * d, b * b + d * d
    v1_angle = 0.5 * np.arctan2(2 * q, p - r)
    k = np.abs(a * d - b * c) / ((p + r) / 2 + np.hypot((p - r) / 2, q))
    target = delta + _WINDOW_SLACK

    def image_length(phi):
        # diag(1, k) sends angle s to atan2(k sin s, cos s), continuous on (-pi, pi)
        lo, hi = phi - 2 * delta, phi + 2 * delta
        return np.arctan2(k * np.sin(hi), np.cos(hi)) - np.arctan2(k * np.sin(lo), np.cos(lo))

    lo, hi = np.zeros(len(k)), np.full(len(k), HALF_TURN / 2)
    for _ in range(60):
        mid = (lo + hi) / 2
        inside = image_length(mid) < target
        lo, hi = np.where(inside, mid, lo), np.where(inside, hi, mid)
    centers, radii = mobius_arcs(mats, v1_angle, hi)
    return centers, np.where(image_length(0.0) < target, radii + _WINDOW_SLACK, -1.0)


class _ConicalSearcher:
    """Vectorized first-hit search over a deterministic word pool.

    The pool is the plain generator ball (by length, then lex) followed
    by peripheral-syllable words u t^a v with short flanks, ordered by
    power size then flank length. The syllable extension is required:
    expanding words near a parabolic point contain one unbounded
    peripheral power, so no plain-length ball reaches them.

    Each word has an expansion window (``_expansion_windows``), a
    necessary condition for its first test; a search runs the exact tests
    only on the (z, word) pairs inside a window, so the hit is still the
    first of the whole pool.
    """

    def __init__(self, rho, params, syllables=None):
        self.params = params
        tab = _Syllables(rho, params) if syllables is None else syllables
        ball, ball_rows = _word_ball(rho, params.word_radius)
        # the ball's rows, then the syllables' with |a| >= 2 in the order t,
        # |a|, a > 0 first, u, v: an element keeps its first row only
        L = params.lead_powers
        leads = [L + sign * a for a in range(2, L + 1) for sign in (1, -1)]
        rows = tab.keys[:, leads].reshape(-1, 4)
        seen = set(map(tuple, ball_rows.tolist()))
        firsts = np.array([i for i, row in enumerate(map(tuple, rows.tolist()))
                           if row not in seen and not seen.add(row)], dtype=int)
        pool = []
        for i, t, a, u, v in zip(firsts.tolist(), *(x.tolist() for x in np.unravel_index(
                firsts, (len(tab.t_names), len(leads)) + tab.keys.shape[2:4]))):
            w = tab.word(t, leads[a], u, v)
            pool.append((abs(leads[a] - L), len(tab.short[u]) + len(tab.short[v]),
                         word_str(w), w, i))
        pool.sort()  # distinct elements have distinct word strings
        self.words = ball + [x[3] for x in pool]
        if rows.dtype.kind == "f":  # the rounded floats of a non-integral presentation
            self.mats = np.array([rho.evaluate(w).arr for w in self.words])
        else:
            self.mats = Matrix.floats_of_exact(
                np.concatenate([ball_rows, rows[np.array([x[4] for x in pool], dtype=int)]]), 2)
        self.invs = _adjugates(self.mats)
        # each window as two angle intervals [lo, hi] (rows i and W + i):
        # itself, and its part past either end of [0, pi] moved by pi, or
        # the empty (1, 0) when it does not wrap; a pair listed twice (an
        # endpoint of a whole-circle window) finds the same first hit
        centers, radii = _expansion_windows(self.mats, params.delta)
        lo, hi = centers - radii, centers + radii
        wraps = (lo < 0) | (hi > HALF_TURN)
        shift = np.where(lo < 0, HALF_TURN, -HALF_TURN)
        self._window_bounds = (np.concatenate([lo, np.where(wraps, lo + shift, 1.0)]),
                               np.concatenate([hi, np.where(wraps, hi + shift, 0.0)]))

    def _image_arcs(self, centers, radius, mats):
        """Image (center, radius) arrays of B(centers_i, radius) under mats_i."""
        return mobius_arcs(mats, centers, radius)

    def candidate(self, z_angle):
        """First word expanding about z, or None: ``candidates`` of one point."""
        return self.candidates([z_angle])[0]

    def candidates(self, zs):
        """First word in pool order expanding about each z, or None.

        The z are searched in chunks of ``_CHUNK`` in angle order; each
        chunk runs both tests once on its (z, word) pairs in windows,
        ordered by z then pool index.
        """
        p = self.params
        zs = np.array(zs, dtype=float).reshape(-1)
        out = [None] * len(zs)
        # (z, word) pairs: index ranges of each window's intervals in the sorted z
        order = np.argsort(zs % HALF_TURN, kind="stable")
        keys = (zs % HALF_TURN)[order]
        w_lo, w_hi = self._window_bounds
        starts = np.searchsorted(keys, w_lo, "left")
        ends = np.searchsorted(keys, w_hi, "right")
        pool_index = np.arange(len(w_lo)) % len(self.words)
        vz = np.array([vec_of(z) for z in zs.tolist()]).reshape(-1, 2)
        for lo in range(0, len(zs), _CHUNK):
            first = np.maximum(starts, lo)
            counts = np.maximum(np.minimum(ends, lo + _CHUNK) - first, 0)
            word = np.repeat(pool_index, counts)
            pos = np.repeat(first - np.cumsum(counts) + counts, counts) + np.arange(counts.sum())
            pair = np.lexsort((word, pos))
            word, z_of = word[pair], order[pos[pair]]
            mats = self.mats[word]
            # one (2, 2) @ (2, 1) product per pair: the rows of invs @ vz, bit for bit
            pulls = angles(np.matmul(self.invs[word], vz[z_of][:, :, None])[:, :, 0])
            cw, rw = self._image_arcs(pulls, 2 * p.delta, mats)
            ok = np.flatnonzero(2 * rw < p.delta)
            cwe, rwe = self._image_arcs(pulls[ok], 2 * p.delta + 2 * p.epsilon, mats[ok])
            hits = ok[angle_dists(cwe, zs[z_of[ok]]) + rwe < p.epsilon]
            # pairs run in (z, pool) order: a z's first hit is its first in the pool
            _, firsts = np.unique(z_of[hits], return_index=True)
            hits = hits[firsts]
            vc, vr = mobius_arcs(mats[hits], pulls[hits] % HALF_TURN, p.delta)
            for i, c, r in zip(hits.tolist(), vc.tolist(), vr.tolist()):
                out[z_of[i]] = _Conical(self.words[word[i]], float(zs[z_of[i]]), float(pulls[i]),
                                        Arc(c, r), Arc(float(cw[i]), float(rw[i])))
        return out


@dataclass
class _Conical:
    word: Word
    z_angle: float
    pullback: float
    v: Arc
    w: Arc


def _coset_candidates(rho, syllables, t, p_angle):
    """Candidate coset points in peripheral-power syllable form u t^a v.

    Returns (angles sorted, words) for deduplicated parabolic points.
    Plain word balls cannot reach nearby cusps (their representatives
    have unbounded length), but one deep peripheral power flanked by
    short words does.
    """
    tab, L, n = syllables, syllables.lead_powers, len(syllables.short)
    flank = np.array([rho.evaluate(w).arr for w in tab.short])
    lead = np.array([rho.evaluate(((tab.t_names[t], a),)).arr for a in range(-L, L + 1)])
    # M_u (T^a (M_v p)), one 2x2-by-vector product per step as word by word,
    # so each angle is bit-equal to its one-word computation; a = 0 skips T^0
    pv = flank @ vec_of(p_angle)[:, None]
    pa = lead[:, None] @ pv
    pa[L] = pv
    ang = angles((flank[:, None] @ pa[:, None])[..., 0]).ravel().tolist()
    point = np.rint(np.array(ang) / 1e-9).tolist()
    element = list(map(tuple, tab.keys[t].reshape(-1, 4).tolist()))
    lens = np.array([len(w) for w in tab.short])
    skew = (np.abs(np.arange(-L, L + 1))[:, None, None] * (2 * lens.max() + 1)
            + lens[:, None] + lens).ravel().tolist()  # orders as (|a|, flank length)

    @functools.cache
    def rank(i):  # the order within one skew
        w = tab.word(t, i // (n * n), i // n % n, i % n)
        return word_str(w), ang[i], w

    # keep a few least-skewed representatives per point: distinct cosets can
    # share a parabolic point and cover different sides. In the order v, a,
    # u, a word is skipped if its element is in its point's bucket at that
    # moment (or it is past a full bucket's skews: it would be cut at once),
    # and a bucket keeps its 3 least ranked words
    buckets, top = {}, {}  # point -> word indices, and their greatest skew
    for i in np.arange(len(ang)).reshape(-1, n, n).transpose(2, 0, 1).ravel().tolist():
        bucket = buckets.setdefault(point[i], [])
        if (len(bucket) == 3 and skew[i] > top[point[i]]
                or element[i] in [element[j] for j in bucket]):
            continue
        bucket.append(i)
        if len(bucket) > 3:
            bucket.remove(max((j for j in bucket if skew[j] == top[point[i]]), key=rank))
        top[point[i]] = max(skew[j] for j in bucket)
    items = sorted(rank(i)[1:] for bucket in buckets.values() for i in bucket)
    return [x[0] for x in items], [x[1] for x in items]


def synthesize_rp1(rho: GroupPresentation, params: SynthesisParams | None = None
                   ) -> SynthesisResult:
    """Build an automaton and compatible system for a circle action.

    Raises SynthesisFailed with the first unsatisfiable construction
    clause and the offending boundary point; no silent fallback.
    """
    params = params or SynthesisParams()
    if rho.dim != 2:
        raise SynthesisFailed("synthesis is restricted to actions on the circle")
    if not rho.generators:
        raise SynthesisFailed("no generators: no expansion available")
    eps = params.epsilon
    if not params.balls_are_arcs():
        raise SynthesisFailed("epsilon and delta must be positive with 2 (delta + epsilon) "
                              "< pi/2, so every expanded pullback ball is a proper arc")

    # --- base parabolic vertices and coset candidate pools ------------------
    parabolic, pools = {}, {}
    peripherals = list(rho.peripherals)
    for p in peripherals:
        if p.parabolic_point is None:
            raise SynthesisFailed(f"peripheral {p.name} lacks a parabolic point")
        if len(p.generators) != 1:
            raise SynthesisFailed(f"peripheral {p.name} must be cyclic for synthesis")
    syllables = _Syllables(rho, params)
    for t, p in enumerate(peripherals):
        t_name = p.generators[0]
        p_angle = angle_of(np.asarray(p.parabolic_point, dtype=float))
        fixed = mobius_angle(rho.generators[t_name].arr, p_angle)
        if angle_dist(fixed, p_angle) > 1e-9:
            raise SynthesisFailed(
                f"declared parabolic point of {p.name} is not fixed", p_angle
            )
        K_p = _fundamental_interval(rho, t_name, p_angle)
        pools[p.name] = (t_name, p_angle, K_p) + tuple(
            _coset_candidates(rho, syllables, t, p_angle)
        )
        parabolic[f"p:{p.name}:{word_str(())}"] = _parabolic_vertex(
            rho, p.name, t_name, (), p_angle, K_p, params)

    # --- conical candidates on a grid ---------------------------------------
    searcher = _ConicalSearcher(rho, params, syllables)
    grid = [z for z in np.linspace(0.0, HALF_TURN, params.grid, endpoint=False)
            if not any(x.v.contains_angle(z) for x in parabolic.values())]
    conical = [c for c in searcher.candidates(grid) if c is not None]

    # --- adaptive parabolic materialization over uncovered gaps -------------
    # a full cover of the circle is required only when peripherals exist
    if peripherals:
        for _ in range(_MAX_PARABOLIC_ROUNDS):
            gaps = uncovered([x.v for x in parabolic.values()] + [c.v for c in conical])
            if not gaps:
                break
            g_lo, g_hi = (x % HALF_TURN for x in gaps[0])
            width = (g_hi - g_lo) % HALF_TURN
            # conical retries across the gap (inner arcs can be tiny), then
            # coset vertices near the gap
            zs = ((g_lo + frac * width) % HALF_TURN for frac in (0.5, 0.25, 0.75, 0.1, 0.9))
            cand = next((c for z in zs for c in [searcher.candidate(z)]
                         if c is not None and c.v.contains_angle(z, slack=-1e-12)), None)
            if cand is not None:
                conical.append(cand)
            elif not _materialize_in_gap(rho, parabolic, pools, g_lo, g_hi, params):
                raise SynthesisFailed(
                    "uncovered boundary interval admits neither an expanding word "
                    "nor a peripheral coset vertex", (g_lo + width / 2) % HALF_TURN
                )

        arcs = [x.v for x in parabolic.values()] + [c.v for c in conical]
        picked = cover_circle(arcs)
        if picked is None:
            raise SynthesisFailed(
                "inner neighborhoods do not cover the boundary circle",
                uncovered(arcs)[0][0] % HALF_TURN,
            )
        conical = [conical[i - len(parabolic)] for i in picked if i >= len(parabolic)]

    if not parabolic and not conical:
        raise SynthesisFailed("no expanding neighborhoods found on the grid")

    # --- assemble graph -----------------------------------------------------
    vertices = dict(parabolic)
    for i, c in enumerate(sorted(conical, key=lambda c: c.z_angle)):
        vertices[f"c{i}:{word_str(c.word)}"] = _Vertex(
            Singleton(c.word), c.z_angle, c.v, c.w,
            mobius_arc(_adjugates(rho.evaluate(c.word).arr), c.v))

    # edge (x, y) when x's pullback set meets y's V: Arc.intersects, one row per x
    ids = list(vertices)
    centers = np.array([x.v.center for x in vertices.values()])
    radii = np.array([x.v.radius for x in vertices.values()])
    edges = []
    for vid, x in vertices.items():
        meets = angle_dists(x.source.center, centers) <= x.source.radius + radii
        edges.extend((vid, ids[j]) for j in np.flatnonzero(meets).tolist())

    # drop vertices with no outgoing edges (possible without peripherals)
    dead = set(vertices) - {v for v, _ in edges}
    while dead:
        if peripherals:
            vid = sorted(dead)[0]
            raise SynthesisFailed(f"vertex {vid} has no outgoing edge", vertices[vid].angle)
        vertices = {v: x for v, x in vertices.items() if v not in dead}
        if not vertices:
            raise SynthesisFailed("no recurrent expanding structure found")
        edges = [(v, w) for v, w in edges if v not in dead and w not in dead]
        dead = set(vertices) - {v for v, _ in edges}

    graph = GammaGraph(vertices={v: x.label for v, x in vertices.items()}, edges=edges,
                       epsilon=eps)
    system = CompatibleSystem(domains={v: arc_ball(x.angle, eps) for v, x in vertices.items()})
    return SynthesisResult(graph=graph, inner_sets={v: x.v for v, x in vertices.items()},
                           outer_sets={v: x.w for v, x in vertices.items()}, system=system,
                           boundary_points={v: x.angle for v, x in vertices.items()})


def _materialize_in_gap(rho, parabolic, pools, g_lo, g_hi, params):
    """Add one coset vertex in the gap [g_lo, g_hi] to ``parabolic``: per
    peripheral, up to 8 candidates nearest the gap's middle are tried, and
    each is taken out of its pool. Returns whether a vertex was added."""
    for p_name, (t_name, p_angle, K_p, cands, words) in pools.items():
        for _attempt in range(8):
            j = _nearest_in_gap(cands, g_lo, g_hi)
            if j is None:
                break
            cands.pop(j)
            coset_word = words.pop(j)
            vid = f"p:{p_name}:{word_str(coset_word)}"
            if vid in parabolic:
                continue
            try:
                parabolic[vid] = _parabolic_vertex(rho, p_name, t_name, coset_word, p_angle,
                                                   K_p, params)
                return True
            except SynthesisFailed:
                pass
    return False


def _nearest_in_gap(cands, g_lo, g_hi):
    """Index of the candidate angle inside the gap closest to its middle."""
    width = (g_hi - g_lo) % HALF_TURN
    cands = np.asarray(cands, dtype=float)
    inside = np.flatnonzero((cands - g_lo) % HALF_TURN <= width + 1e-12)
    mid = (g_lo + width / 2) % HALF_TURN
    return int(inside[np.argmin(angle_dists(cands[inside], mid))]) if inside.size else None
