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
  words per point, and the grid is searched in batched first-hit rounds,
  each point testing its next words in pool order until its first hit;
  the hits stay columns of arrays, and a hit becomes a ``_Conical`` only
  once the circle cover keeps it;
* peripheral coset vertices are materialized adaptively: whenever the
  inner neighborhoods leave a gap on the circle, the nearest candidate
  coset point (enumerated in peripheral-power syllable form, since coset
  representatives of nearby cusps have unbounded plain word length) gets
  a vertex, until the circle is covered; the inner arcs are kept as
  sorted pieces, each new arc inserted in place, and swept for gaps;
* edges follow the pullback-intersection rule.

Every vertex, conical or parabolic, is one ``_Vertex`` record: its label,
boundary point, inner and outer arcs, and pullback set. The edges, the
pruning of vertices without outgoing edges, and every returned dict are
read from one store of these records.

Element keys are formed in one place, ``_key_table``: the keys of every
product of one word from each of a few lists, exact products by batched
matmul for an integral presentation. The generator ball is one table per
length, and the syllable words u t^a v one table per run (``_Syllables``)
with two readers, the coset candidates and the search pool. Every dedupe
compares integer element ids, one lexsort over the rows (``_element_ids``):
the ball's per length, and the table's once for every search-ball and
syllable row. Each reader takes only the words it keeps as word tuples,
and forms a word's string, from cached strings of its flanks and lead
power, only where the string decides an order. The expansion windows
solve h(Phi) = delta in closed form.

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
    arc_pieces,
    arcs_between,
    check_radii,
    cover_circle,
    insert_piece,
    mobius_angle,
    mobius_arcs,
    sweep,
    vec_of,
)
from .domains import arc_ball
from .errors import ConfigError, SynthesisFailed
from .linalg import Matrix, exact_keys
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
    forms element keys of words. An integral presentation forms exact
    products by batched matmul (``exact_keys``)."""
    d = rho.dim
    shape = tuple(map(len, word_lists)) + (d * d,)
    if any(m.exact is None for m in rho.generators.values()):
        return np.array([rho.evaluate(concat(*ws)).key()[2]
                         for ws in itertools.product(*word_lists)]).reshape(shape)
    return exact_keys([np.array([rho.evaluate(w).exact for w in ws], dtype=object)
                       for ws in word_lists], d).reshape(shape)


def _element_ids(rows):
    """One integer id per key row, equal exactly when the rows are equal as
    tuples are (so -0.0 and 0.0 agree): the row's rank among the distinct
    rows, from one lexsort."""
    order = np.lexsort(rows.T[::-1])
    ranked = rows[order]
    ids = np.empty(len(rows), dtype=np.int64)
    ids[order] = np.cumsum(np.r_[False, (ranked[1:] != ranked[:-1]).any(axis=1)])
    return ids


def _firsts(ids):
    """Indices of the first row of each id, ascending."""
    return np.sort(np.unique(ids, return_index=True)[1])


# words plus next-length rows a generator ball may reach before that length
# is formed: the rank-2 Schottky group's radius-10 ball (118,096 words) is
# formed, its radius 11 is not
_MAX_BALL_ROWS = 2 ** 18


def _word_ball(rho: GroupPresentation, radius: int, setting: str = "word_radius"):
    """Nonidentity elements of the generator ball, by length then lex: their
    words and key rows. Each length is one key table of the last length's
    words times the generators; with exact generators, the last length's
    kept rows are its words' exact matrices, so they are multiplied and no
    word is evaluated. An element keeps its first row only. A ConfigError
    naming ``synthesis.<setting>`` refuses a length whose table would take
    the words and its rows past ``_MAX_BALL_ROWS``."""
    gens = [((name, e),) for name in sorted(rho.generators) for e in (1, -1)]
    frontier, words, rows = [()], [], _key_table(rho, [()])
    steps = [rho.power(name, e).exact for ((name, e),) in gens]
    exact = None not in steps
    for reached in range(radius):
        if len(words) + len(frontier) * len(gens) > _MAX_BALL_ROWS:
            raise ConfigError(
                f"synthesis.{setting} {radius} is too large: the word ball reached radius "
                f"{reached} with {len(words)} words, and radius {reached + 1} would pass "
                f"{_MAX_BALL_ROWS} rows")
        if exact:
            table = exact_keys([rows[len(rows) - len(frontier):], np.array(steps, dtype=object)],
                               rho.dim)
        else:
            table = _key_table(rho, frontier, gens).reshape(-1, rho.dim ** 2)
        # the rows seen so far are distinct and come first: the firsts past
        # them are the new elements
        seen = len(rows)
        firsts = _firsts(_element_ids(np.concatenate([rows, table])))[seen:] - seen
        frontier = [concat(frontier[i // len(gens)], gens[i % len(gens)])
                    for i in firsts.tolist()]
        words += frontier
        rows = np.concatenate([rows, table[firsts]])
    return words, rows[1:]


class _Syllables:
    """The words u t^a v of each peripheral generator t, u and v in the coset
    ball and |a| <= L: ``keys[t, a + L, u, v]`` is a word's key row. The
    search ball (``word_radius``) is kept beside them, and every ball and
    syllable row has an element id, equal for equal elements: ``ball_ids``
    and ``ids[t, a + L, u, v]``."""

    def __init__(self, rho, params):
        self.short = [()] + _word_ball(rho, params.coset_ball, "coset_ball")[0]
        self.ball, self.ball_rows = _word_ball(rho, params.word_radius)
        self.t_names = [p.generators[0] for p in rho.peripherals]
        self.lead_powers = L = params.lead_powers
        leads = [((t, a),) for t in self.t_names for a in range(-L, L + 1)]
        n = len(self.short)
        self.keys = _key_table(rho, self.short, leads, self.short).reshape(
            n, len(self.t_names), 2 * L + 1, n, 4).transpose(1, 2, 0, 3, 4)
        ids = _element_ids(np.concatenate([self.ball_rows, self.keys.reshape(-1, 4)]))
        self.ball_ids, self.ids = ids[:len(self.ball)], ids[len(self.ball):].reshape(
            self.keys.shape[:4])
        # each flank split from its syllable in t beside the lead: the rest,
        # that syllable's exponent (0 if none), and the rest's word_str
        def split(w, name, end):
            e = w[end][1] if w and w[end][0] == name else 0
            rest = (w[:-1] if end else w[1:]) if e else w
            return rest, e, word_str(rest) if rest else ""
        self._heads = [[split(w, name, -1) for w in self.short] for name in self.t_names]
        self._tails = [[split(w, name, 0) for w in self.short] for name in self.t_names]
        self._lead_strs = {}

    def word(self, t, a, u, v) -> Word:
        """The normal word at keys[t, a, u, v]: the flanks are normal, so
        only a flank syllable in t merges, into the lead power."""
        (head, h, _), (tail, e, _) = self._heads[t][u], self._tails[t][v]
        a += h + e - self.lead_powers
        # a cancelled lead leaves the flanks to merge, possibly in a cascade
        return head + ((self.t_names[t], a),) + tail if a else concat(head, tail)

    def word_string(self, t, a, u, v) -> str:
        """``word_str`` of the word at keys[t, a, u, v], joined from the
        strings of its split flanks and its lead power, each formed once."""
        (_, h, head), (_, e, tail) = self._heads[t][u], self._tails[t][v]
        power = a + h + e - self.lead_powers
        if not power:
            return word_str(self.word(t, a, u, v))
        lead = self._lead_strs.get((t, power))
        if lead is None:
            lead = self._lead_strs[t, power] = word_str(((self.t_names[t], power),))
        return " ".join(filter(None, (head, lead, tail)))


def _fundamental_interval(rho: GroupPresentation, t_name: str, p_angle: float) -> Arc:
    """Fundamental interval of the parabolic <t> on the circle minus its
    fixed point: the arc between the antipode q and t . q avoiding the
    fixed point."""
    t = rho.generators[t_name].arr
    q = (p_angle + HALF_TURN / 2) % HALF_TURN
    tq = mobius_angle(t, q)
    if angle_dist(q, tq) < 1e-12:
        raise SynthesisFailed("declared peripheral generator fixes the antipode", p_angle)
    arc = Arc(*map(float, arcs_between(q, tq)))
    return arc.complement() if arc.contains_angle(p_angle) else arc


def _arc_hull_containing(centers, radii, anchor: float) -> Arc:
    """Smallest arc containing the anchor and the arcs B(centers_i, radii_i).

    Computed as the complement of the largest circular gap left by the
    pieces: valid because the intermediate coset translates fill the
    space between the extreme pieces and the anchor.
    """
    lo, length, _ = arc_pieces(np.append(centers, anchor), np.append(radii, 0.0))
    gaps = sweep(lo, length, tol=1e-15)
    if not len(gaps[0]):
        raise SynthesisFailed("neighborhood union wraps the whole circle", anchor)
    widest = int(np.argmax(gaps[1] - gaps[0]))
    g_lo, g_hi = float(gaps[0][widest]), float(gaps[1][widest])
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

    def powers_of(ns):
        return np.array([rho.evaluate(concat(coset_word, ((t_name, n),))).arr for n in ns])

    def passing(first, last):
        """Whether each power m in first..last passes both ways: the images of
        w_hat and w_hat_eps under t^m and t^-m have positive margins
        (``Arc.margin_of_arc``) in the target arcs of radius delta/2 and eps."""
        mats = powers_of([sign * m for m in range(first, last + 1) for sign in (1, -1)])
        ok = True
        for base, radius in ((w_hat, delta / 2), (w_hat_eps, eps)):
            c, r = mobius_arcs(mats, base.center, base.radius)
            ok = ok & (radius - (angle_dists(q_angle, c) + r) > 0)
        return ok.reshape(-1, 2).all(axis=1)

    # the powers are tested in doubling blocks; flags[m - 1] is power m's
    flags, block, n0 = np.zeros(0, dtype=bool), 16, None
    while n0 is None and len(flags) < _MAX_POWER + _TAIL_WINDOW:
        top = min(len(flags) + block, _MAX_POWER + _TAIL_WINDOW)
        flags = np.append(flags, passing(len(flags) + 1, top))
        windows = np.lib.stride_tricks.sliding_window_view(flags, _TAIL_WINDOW + 1)
        found = np.flatnonzero(windows[:_MAX_POWER].all(axis=1))
        n0 = int(found[0]) + 1 if found.size else None
        block *= 2
    if n0 is None:
        raise SynthesisFailed(
            f"no cofinite tail for coset {word_str(coset_word)} <{t_name}>", q_angle
        )

    powers = [*range(n0, n0 + _TAIL_WINDOW + 1), n0 + 8, n0 + 16]
    mats = powers_of([sign * n for n in powers for sign in (1, -1)])

    def hull(base_arc):
        return _arc_hull_containing(*mobius_arcs(mats, base_arc.center, base_arc.radius),
                                    q_angle)

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
# (about 60 a point at pgl2z's parameters, so about 30k a chunk)
_CHUNK = 512
# rows a first-hit round tests at least: each live z takes a block of its
# next pairs, the block doubling each round and at least this over the
# live z, so rounds stay few and none carries only a handful of rows
_ROUND_ROWS = 256


def _ranges(starts, counts):
    """The index ranges starts_i .. starts_i + counts_i - 1, concatenated."""
    return np.repeat(starts - np.cumsum(counts) + counts, counts) + np.arange(counts.sum())


def _window_angles(k, delta):
    """The Phi with h(Phi) = delta' = delta + ``_WINDOW_SLACK`` for each
    ratio k = sigma_2 / sigma_1 (see ``_expansion_windows``), and -1 where
    h(0) >= delta': such a word never passes (k = 1 among them). As tan h =
    2k sin 4delta / ((1 + k^2) cos 4delta + (1 - k^2) cos 2phi), cos 2Phi =
    (2k sin 4delta / tan delta' - (1 + k^2) cos 4delta) / (1 - k^2),
    clipped to [-1, 1]."""
    target = delta + _WINDOW_SLACK
    # h(0), as diag(1, k) sends angle s to atan2(k sin s, cos s)
    expands = (np.arctan2(k * np.sin(2 * delta), np.cos(2 * delta))
               - np.arctan2(k * np.sin(-2 * delta), np.cos(-2 * delta))) < target
    k = k[expands]
    cos_2phi = ((2 * k * math.sin(4 * delta) / math.tan(target)
                 - (1 + k * k) * math.cos(4 * delta)) / (1 - k * k))
    phi = np.full(len(expands), -1.0)
    phi[expands] = np.arccos(np.clip(cos_2phi, -1.0, 1.0)) / 2
    return phi


def _expansion_windows(mats, delta):
    """Arcs (centers, radii) outside which z cannot pass the first test.

    Word g passes at z when g maps B(g^-1 z, 2 delta) onto an arc shorter
    than delta. With k = sigma_2 / sigma_1 of g, the image of B(phi, 2
    delta), phi the angle from g's top right-singular direction v1, has
    length h(phi), which increases in |phi| on [0, pi/2]; so the test can
    pass only for z in g(B(v1, Phi)) with h(Phi) = delta (``_window_angles``,
    in closed form). Radius -1 marks a word with h(0) >= delta, which never
    passes.
    """
    if 4 * delta >= HALF_TURN:  # B(z, 2 delta) is no proper arc: windows are RP^1
        return np.zeros(len(mats)), np.full(len(mats), HALF_TURN / 2)
    # g^T g = [[p, q], [q, r]]: v1 is its top eigenvector, and k = |det| / sigma_1^2
    a, b, c, d = mats[:, 0, 0], mats[:, 0, 1], mats[:, 1, 0], mats[:, 1, 1]
    p, q, r = a * a + c * c, a * b + c * d, b * b + d * d
    v1_angle = 0.5 * np.arctan2(2 * q, p - r)
    phi = _window_angles(np.abs(a * d - b * c) / ((p + r) / 2 + np.hypot((p - r) / 2, q)),
                         delta)
    centers, radii = mobius_arcs(mats, v1_angle, np.maximum(phi, 0.0))
    return centers, np.where(phi >= 0, radii + _WINDOW_SLACK, -1.0)


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
        # the ball's rows, then the syllables' with |a| >= 2 in the order t,
        # |a|, a > 0 first, u, v: an element keeps its first row only (the
        # ball's elements are distinct, so they keep theirs)
        L, n_ball = params.lead_powers, len(tab.ball)
        leads = [L + sign * a for a in range(2, L + 1) for sign in (1, -1)]
        rows = tab.keys[:, leads].reshape(-1, 4)
        firsts = _firsts(np.concatenate([tab.ball_ids, tab.ids[:, leads].ravel()]))[n_ball:]
        firsts -= n_ball
        pool = sorted(  # distinct elements have distinct word strings
            (abs(leads[a] - L), len(tab.short[u]) + len(tab.short[v]),
             tab.word_string(t, leads[a], u, v), i, t, leads[a], u, v)
            for i, t, a, u, v in zip(firsts.tolist(), *(x.tolist() for x in np.unravel_index(
                firsts, (len(tab.t_names), len(leads)) + tab.keys.shape[2:4]))))
        self.words = tab.ball + [tab.word(*x[4:]) for x in pool]
        if rows.dtype.kind == "f":  # the rounded floats of a non-integral presentation
            self.mats = np.array([rho.evaluate(w).arr for w in self.words])
        else:
            self.mats = Matrix.floats_of_exact(np.concatenate(
                [tab.ball_rows, rows[np.array([x[3] for x in pool], dtype=int)]]), 2)
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
        self._pool_index = np.arange(2 * len(self.words)) % len(self.words)

    def _image_arcs(self, centers, radius, mats):
        """Image (center, radius) arrays of B(centers_i, radius) under mats_i."""
        return mobius_arcs(mats, centers, radius)

    def candidate(self, z_angle):
        """First word expanding about z, or None: ``candidates`` of one point,
        its pairs read from one mask over the window bounds."""
        zs = np.array([z_angle], dtype=float)
        key = zs[0] % HALF_TURN
        w_lo, w_hi = self._window_bounds
        word = np.sort(self._pool_index[(w_lo <= key) & (key <= w_hi)])
        found = self._first_hits(zs, vec_of(zs[0])[None], word, np.zeros(len(word), dtype=int),
                                 np.array([0]), np.array([len(word)]))
        hits = self._hits(zs, found)
        return self.conicals(hits, [0])[0] if len(hits.at) else None

    def candidates(self, zs):
        """The first word in pool order expanding about each z, as ``_Hits``
        columns.

        The z are searched in chunks of ``_CHUNK`` in angle order, on their
        (z, word) pairs in windows, ordered by z then pool index.
        """
        zs = np.array(zs, dtype=float).reshape(-1)
        # (z, word) pairs: index ranges of each window's intervals in the sorted z
        order = np.argsort(zs % HALF_TURN, kind="stable")
        keys = (zs % HALF_TURN)[order]
        w_lo, w_hi = self._window_bounds
        starts = np.searchsorted(keys, w_lo, "left")
        ends = np.searchsorted(keys, w_hi, "right")
        vz = np.array([vec_of(z) for z in zs.tolist()]).reshape(-1, 2)
        found = []
        for lo in range(0, len(zs), _CHUNK):
            first = np.maximum(starts, lo)
            counts = np.maximum(np.minimum(ends, lo + _CHUNK) - first, 0)
            word = np.repeat(self._pool_index, counts)
            pos = _ranges(first, counts)
            pair = np.lexsort((word, pos))
            word, pos = word[pair], pos[pair]
            # each z's pairs are the run cursor..stop of the (z, pool) order
            here = np.arange(lo, min(lo + _CHUNK, len(zs)))
            found += self._first_hits(zs, vz, word, order[pos], np.searchsorted(pos, here, "left"),
                                      np.searchsorted(pos, here, "right"))
        return self._hits(zs, found)

    def _first_hits(self, zs, vz, word, z_of, cursor, stop):
        """Both tests on the pairs (z_of[j], word[j]) in first-hit rounds,
        where each z's pairs are one run cursor..stop in pool order: each
        live z tests its next block of pairs, and leaves at its first hit or
        when it has none left. Per round: the word, z, pullback and W arc of
        each first hit."""
        p = self.params
        live = cursor < stop
        cursor, stop, block, found = cursor[live], stop[live], 0, []
        while cursor.size:
            block = max(2 * block, -(-_ROUND_ROWS // cursor.size))
            take = np.minimum(stop - cursor, block)
            owner = np.repeat(np.arange(cursor.size), take)
            rows = _ranges(cursor, take)
            w, z = word[rows], z_of[rows]
            mats = self.mats[w]
            # one (2, 2) @ (2, 1) product per pair: the rows of invs @ vz, bit for bit
            pulls = angles(np.matmul(self.invs[w], vz[z][:, :, None])[:, :, 0])
            cw, rw = self._image_arcs(pulls, 2 * p.delta, mats)
            ok = np.flatnonzero(2 * rw < p.delta)
            cwe, rwe = self._image_arcs(pulls[ok], 2 * p.delta + 2 * p.epsilon, mats[ok])
            hits = ok[angle_dists(cwe, zs[z[ok]]) + rwe < p.epsilon]
            # a block runs in pool order: a z's first hit in it is its first
            done, firsts = np.unique(owner[hits], return_index=True)
            hits = hits[firsts]
            found.append((w[hits], z[hits], pulls[hits], cw[hits], rw[hits]))
            cursor = cursor + take
            live = cursor < stop
            live[done] = False
            cursor, stop = cursor[live], stop[live]
        return found

    def _hits(self, zs, found):
        """The ``_Hits`` of the first hits in ``found``: their V arcs from one
        ``mobius_arcs`` call, and every V and W radius checked as ``Arc``
        checks it, hit by hit in ``found`` order."""
        if not found:  # no z had a pair
            found = [(np.zeros(0, dtype=int),) * 2 + (np.zeros(0),) * 3]
        w, at, pulls, cw, rw = map(np.concatenate, zip(*found))
        vc, vr = mobius_arcs(self.mats[w], pulls % HALF_TURN, self.params.delta)
        check_radii(np.stack([vr, rw], axis=1).ravel())
        z_order = np.argsort(at)
        return _Hits(*(x[z_order] for x in (at, zs[at], w, pulls, vc % HALF_TURN, vr,
                                            cw % HALF_TURN, rw)))

    def conicals(self, hits, rows):
        """The ``_Conical`` of each hit row in ``rows``."""
        cols = (hits.z, hits.word, hits.pullback, hits.v_center, hits.v_radius, hits.w_center,
                hits.w_radius)
        return [_Conical(self.words[i], z, pull, Arc(vc, vr), Arc(wc, wr))
                for z, i, pull, vc, vr, wc, wr in zip(*(x[rows].tolist() for x in cols))]


@dataclass
class _Hits:
    """First hits as columns, one row per searched z with a hit, in the
    order of the z: the z's position among them and its angle, the pool
    index of its word, the pullback, and the centers and radii of the V
    and W arcs."""
    at: np.ndarray
    z: np.ndarray
    word: np.ndarray
    pullback: np.ndarray
    v_center: np.ndarray
    v_radius: np.ndarray
    w_center: np.ndarray
    w_radius: np.ndarray


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
    ang = angles((flank[:, None] @ pa[:, None])[..., 0]).ravel()
    lens = np.array([len(w) for w in tab.short])
    skew = (np.abs(np.arange(-L, L + 1))[:, None, None] * (2 * lens.max() + 1)
            + lens[:, None] + lens).ravel()  # orders as (|a|, flank length)
    # the words in the order v, a, u, grouped by point in that order
    visit = np.arange(len(ang)).reshape(-1, n, n).transpose(2, 0, 1).ravel()
    point = np.rint(ang / 1e-9)[visit]
    order = np.argsort(point, kind="stable")
    ends = np.append(np.flatnonzero(np.diff(point[order])) + 1, len(visit)).tolist()
    visit = visit[order]
    elem, skews = tab.ids[t].ravel()[visit].tolist(), skew[visit].tolist()
    ang, visit = ang.tolist(), visit.tolist()

    @functools.cache
    def rank(i):  # the order within one skew: distinct elements, distinct strings
        return tab.word_string(t, i // (n * n), i // n % n, i % n)

    # keep a few least-skewed representatives per point: distinct cosets can
    # share a parabolic point and cover different sides. In the order v, a,
    # u, a word is skipped if its element is in its point's bucket at that
    # moment (or, the bucket full, its skew is past the bucket's greatest:
    # it would be cut at once), and a bucket keeps its 3 least ranked words
    kept, lo = [], 0
    for hi in ends:
        # positions j with their elements and skews; the skew limit is the
        # greatest skew once the bucket is full
        bucket, elems, skws, limit = [], [], [], math.inf
        for j, s, e in zip(range(lo, hi), skews[lo:hi], elem[lo:hi]):
            if s > limit or e in elems:
                continue
            bucket.append(j)
            elems.append(e)
            skws.append(s)
            if len(bucket) > 3:
                ties = [k for k in range(4) if skws[k] == limit]
                k = ties[0] if len(ties) == 1 else max(ties, key=lambda k: rank(visit[bucket[k]]))
                del bucket[k], elems[k], skws[k]
            if len(bucket) == 3:
                limit = max(skws)
        kept += (visit[j] for j in bucket)
        lo = hi
    items = sorted((ang[i], tab.word(t, i // (n * n), i // n % n, i % n)) for i in kept)
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
    hits = searcher.candidates(grid)
    conical = []  # the gap loop's conical vertices

    # --- adaptive parabolic materialization over uncovered gaps -------------
    # a full cover of the circle is required only when peripherals exist
    # the inner arcs' pieces stay sorted: each round inserts its new arc
    if peripherals:
        inner = [x.v for x in parabolic.values()]
        lo, length, _ = arc_pieces([a.center for a in inner] + hits.v_center.tolist(),
                                   [a.radius for a in inner] + hits.v_radius.tolist())
        for _ in range(_MAX_PARABOLIC_ROUNDS):
            gaps = sweep(lo, length)
            if not len(gaps[0]):
                break
            g_lo, g_hi = (float(x[0]) % HALF_TURN for x in gaps)
            width = (g_hi - g_lo) % HALF_TURN
            # conical retries across the gap (inner arcs can be tiny), then
            # coset vertices near the gap
            zs = ((g_lo + frac * width) % HALF_TURN for frac in (0.5, 0.25, 0.75, 0.1, 0.9))
            cand = next((c for z in zs for c in [searcher.candidate(z)]
                         if c is not None and c.v.contains_angle(z, slack=-1e-12)), None)
            if cand is not None:
                conical.append(cand)
            else:
                cand = _materialize_in_gap(rho, parabolic, pools, g_lo, g_hi, params)
                if cand is None:
                    raise SynthesisFailed(
                        "uncovered boundary interval admits neither an expanding word "
                        "nor a peripheral coset vertex", (g_lo + width / 2) % HALF_TURN
                    )
            lo, length = insert_piece(lo, length, cand.v)

        # the inner arcs in the order parabolic, grid hits, gap loop conicals
        inner = [x.v for x in parabolic.values()]
        centers = np.concatenate([[a.center for a in inner], hits.v_center,
                                  [c.v.center for c in conical]])
        radii = np.concatenate([[a.radius for a in inner], hits.v_radius,
                                [c.v.radius for c in conical]])
        picked = cover_circle(centers, radii)
        if picked is None:
            raise SynthesisFailed("inner neighborhoods do not cover the boundary circle",
                                  float(sweep(*arc_pieces(centers, radii)[:2])[0][0]) % HALF_TURN)
        # a _Conical is built only for a picked grid hit
        n_par, n_hits = len(inner), len(hits.at)
        grid_rows = [i - n_par for i in picked if n_par <= i < n_par + n_hits]
        built = iter(searcher.conicals(hits, grid_rows))
        conical = [next(built) if i < n_par + n_hits else conical[i - n_par - n_hits]
                   for i in picked if i >= n_par]
    else:
        conical = searcher.conicals(hits, np.arange(len(hits.at)))

    if not parabolic and not conical:
        raise SynthesisFailed("no expanding neighborhoods found on the grid")

    # --- assemble graph -----------------------------------------------------
    vertices = dict(parabolic)
    conical = sorted(conical, key=lambda c: c.z_angle)
    mats = np.array([rho.evaluate(c.word).arr for c in conical]).reshape(-1, 2, 2)
    sources = mobius_arcs(_adjugates(mats), np.array([c.v.center for c in conical]),
                          np.array([c.v.radius for c in conical]))
    for i, (c, *source) in enumerate(zip(conical, *(x.tolist() for x in sources))):
        vertices[f"c{i}:{word_str(c.word)}"] = _Vertex(Singleton(c.word), c.z_angle, c.v, c.w,
                                                       Arc(*source))

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
    each is taken out of its pool. Returns the added vertex, or None."""
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
                return parabolic[vid]
            except SynthesisFailed:
                pass
    return None


def _nearest_in_gap(cands, g_lo, g_hi):
    """Index of the candidate angle inside the gap closest to its middle."""
    width = (g_hi - g_lo) % HALF_TURN
    cands = np.asarray(cands, dtype=float)
    inside = np.flatnonzero((cands - g_lo) % HALF_TURN <= width + 1e-12)
    mid = (g_lo + width / 2) % HALF_TURN
    return int(inside[np.argmin(angle_dists(cands[inside], mid))]) if inside.size else None
