"""Truncated coned-off Cayley graphs and quasigeodesic measurements.

Each peripheral coset gains a cone vertex at distance 1 from its
elements, so any two elements of one coset are at distance 2. Balls are
generated lazily and truncated: a cone vertex lists the coset members
within a declared power window of the element it was reached from, and
searches refuse (OutOfBall) rather than silently answer beyond the
truncated ball. Elements of declared free presentations are free-reduced
letter tuples; elements of PGL(2, Z) presentations are exact canonical
2x2 integer tuples. Either way an element is its own key, and a coset
g<t> is keyed by a normal form that costs O(1) per element.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import OutOfBall
from .linalg import exact_matmul
from .words import GroupPresentation, Word, normalize_word

# bench/tracer.py counts coned-graph products through this module-level name
_int_mul = exact_matmul

_IDENTITY_2X2 = ((1, 0), (0, 1))


def _parabolic_frame(t):
    """(P, k) with P in SL(2, Z) and P^-1 t P = +-[[1, k], [0, 1]], k > 0.

    The first column of P is the primitive integer fixed vector of the
    parabolic t; the second completes it to a basis of Z^2.
    """
    (a, b), (c, d) = t
    eps = (a + d) // 2
    p, q = (b, eps - a) if (a - eps, b) != (0, 0) else (eps - d, c)
    g = math.gcd(p, q)
    p, q = p // g, q // g
    # second column (x, y) with p y - q x = 1, so P = [[p, x], [q, y]] has det 1
    if q == 0:
        x, y = 0, p
    else:
        y = pow(p, -1, abs(q))
        x = (p * y - 1) // q
    # k = eps * (P^-1 t P)[0][1], with P^-1 = [[y, -x], [-q, p]]
    k = eps * (y * (a * x + b * y) - x * (c * x + d * y))
    return ((p, x), (q, y)), abs(k)


def _is_parabolic(t):
    (a, b), (c, d) = t
    return a * d - b * c == 1 and abs(a + d) == 2 and (b, c) != (0, 0)


def _letters(word: Word):
    out = []
    for name, exp in word:
        step = 1 if exp > 0 else -1
        out.extend([(name, step)] * abs(exp))
    return out


def free_reduce(letters):
    out = []
    for let in letters:
        if out and out[-1][0] == let[0] and out[-1][1] == -let[1]:
            out.pop()
        else:
            out.append(let)
    return tuple(out)


@dataclass
class Presentation:
    """Group data for the coned graph: generators, peripherals, equality."""

    generators: list  # generator names
    peripherals: list  # (peripheral name, generator name) pairs, cyclic
    kind: str = "free"  # 'free': reduced words; 'matrix': exact PGL(2, Z) tuples
    rho: GroupPresentation | None = None

    def __post_init__(self):
        if self.kind != "matrix":
            return
        if self.rho is None:
            raise ValueError("matrix presentations need an evaluation map")
        for name, g in self.rho.generators.items():
            if g.dim != 2 or g.exact is None:
                raise ValueError(f"generator {name} is not an exact integer 2x2 matrix")
        for p_name, t_name in self.peripherals:
            t = self.rho.generators.get(t_name)
            if t is None or not _is_parabolic(t.exact):
                raise ValueError(f"peripheral {p_name} generator {t_name} is not parabolic "
                                 "(det 1, |trace| 2, not the identity)")


class ConedGraph:
    """Lazy truncated coned-off Cayley graph with BFS distances.

    Free presentations multiply by free reduction; matrix presentations
    by the exact integer kernel of ``linalg``.
    """

    def __init__(self, pres: Presentation, truncation: int = 24,
                 max_nodes: int = 400000):
        self.pres = pres
        self.truncation = truncation
        self.max_nodes = max_nodes
        self._elems = {}  # interned elements, each its own key
        if pres.kind == "matrix":
            self._gen_tuples = {}
            for name, g in pres.rho.generators.items():
                self._gen_tuples[(name, 1)] = g.exact
                self._gen_tuples[(name, -1)] = g.inv().exact
            self._powers = {}
            self._frames = {}
            for p_name, t_name in pres.peripherals:
                pows = {0: _IDENTITY_2X2}
                tp = self._gen_tuples[(t_name, 1)]
                tn = self._gen_tuples[(t_name, -1)]
                for j in range(1, truncation + 1):
                    pows[j] = _int_mul(pows[j - 1], tp)
                    pows[-j] = _int_mul(pows[-(j - 1)], tn)
                self._powers[p_name] = pows
                self._frames[p_name] = _parabolic_frame(tp)

    # -- element plumbing ---------------------------------------------------

    def _intern(self, elem):
        return self._elems.setdefault(elem, elem)

    def node_of_word(self, word: Word):
        word = normalize_word(word)
        if self.pres.kind == "free":
            return ("e", self._intern(free_reduce(_letters(word))))
        out = _IDENTITY_2X2
        for name, exp in word:
            step = self._gen_tuples[(name, 1 if exp > 0 else -1)]
            for _ in range(abs(exp)):
                out = _int_mul(out, step)
        return ("e", self._intern(out))

    def _mul_gen(self, elem, name, sign):
        if self.pres.kind == "free":
            return free_reduce(elem + ((name, sign),))
        return _int_mul(elem, self._gen_tuples[(name, sign)])

    def _coset_key(self, elem, p_name, t_name):
        """Canonical key of the coset g<t>.

        Free kind: g with its trailing t letters stripped. Matrix kind: in
        the frame P of t, g t^j P = +-(gP)[[1, jk], [0, 1]] adds jk times
        the first column of gP to its second, so gP with its first column
        sign-fixed and its second column reduced modulo k times the first
        is the same for every member of the coset.
        """
        if self.pres.kind == "free":
            letters = list(elem)
            while letters and letters[-1][0] == t_name:
                letters.pop()
            return tuple(letters)
        ((p, x), (q, y)), k = self._frames[p_name]
        (a, b), (c, d) = elem
        a, b, c, d = a * p + b * q, a * x + b * y, c * p + d * q, c * x + d * y
        if a < 0 or (a == 0 and c < 0):
            a, b, c, d = -a, -b, -c, -d
        j = b // (k * a) if a else d // (k * c)
        return ((a, b - j * k * a), (c, d - j * k * c))

    # -- BFS ----------------------------------------------------------------

    def neighbors(self, node):
        if node[0] == "e":
            elem = node[1]
            out = []
            for name in self.pres.generators:
                for sign in (1, -1):
                    out.append(("e", self._intern(self._mul_gen(elem, name, sign))))
            for p_name, t_name in self.pres.peripherals:
                out.append(("c", p_name, self._coset_key(elem, p_name, t_name), elem))
            return out
        # cone vertex: members of the coset through the discovered base
        _, p_name, _, base = node
        out = []
        if self.pres.kind == "free":
            t_name = dict(self.pres.peripherals)[p_name]
            for j in range(-self.truncation, self.truncation + 1):
                w = free_reduce(base + ((t_name, 1 if j > 0 else -1),) * abs(j))
                out.append(("e", self._intern(w)))
        else:
            pows = self._powers[p_name]
            for j in range(-self.truncation, self.truncation + 1):
                out.append(("e", self._intern(_int_mul(base, pows[j]))))
        return out

    @staticmethod
    def _node_id(node):
        # cone nodes carry their discovery base; identity ignores it
        return node[:3]

    def _levels_from(self, starts):
        """Multi-source BFS state generator helpers."""
        dist = {}
        parents = {}
        frontier = []
        for s in starts:
            nid = self._node_id(s)
            if nid not in dist:
                dist[nid] = 0
                parents[nid] = None
                frontier.append(s)
        return dist, parents, frontier

    def _expand_level(self, dist, parents, frontier):
        nxt = []
        for node in frontier:
            d = dist[self._node_id(node)]
            for nb in self.neighbors(node):
                nid = self._node_id(nb)
                if nid not in dist:
                    if len(dist) >= self.max_nodes:
                        raise OutOfBall(f"search exceeds {self.max_nodes} nodes")
                    dist[nid] = d + 1
                    parents[nid] = self._node_id(node)
                    nxt.append(nb)
        return nxt

    def distance(self, w1: Word, w2: Word, radius: int):
        """BFS shortest-path length in the truncated coned graph.

        Bidirectional search; OutOfBall when no connection within the
        radius (or the node budget) is found.
        """
        d, _, _ = self._bidirectional(w1, w2, radius)
        return d

    def geodesic(self, w1: Word, w2: Word, radius: int):
        """One shortest path as a list of node ids (endpoints included)."""
        d, meet, (da, pa, db, pb) = self._bidirectional(w1, w2, radius)
        left = []
        cur = meet
        while cur is not None:
            left.append(cur)
            cur = pa[cur]
        left.reverse()
        cur = pb[meet]
        while cur is not None:
            left.append(cur)
            cur = pb[cur]
        return left

    def _bidirectional(self, w1: Word, w2: Word, radius: int):
        a = self.node_of_word(w1)
        b = self.node_of_word(w2)
        if self._node_id(a) == self._node_id(b):
            return 0, self._node_id(a), ({self._node_id(a): 0}, {self._node_id(a): None},
                                         {self._node_id(b): 0}, {self._node_id(b): None})
        da, pa, fa = self._levels_from([a])
        db, pb, fb = self._levels_from([b])
        best = None
        meet = None
        steps = 0
        while (fa or fb) and steps <= radius + 1:
            steps += 1
            if fa and (not fb or len(fa) <= len(fb)):
                fa = self._expand_level(da, pa, fa)
            else:
                fb = self._expand_level(db, pb, fb)
            common = set(da) & set(db)
            if common:
                cand = min(da[n] + db[n] for n in common)
                best = cand
                meet = min((n for n in common if da[n] + db[n] == cand), key=str)
                # keep expanding while strictly shorter crossings appear
                improved = True
                while improved and (fa or fb):
                    fa = self._expand_level(da, pa, fa) if fa else fa
                    fb = self._expand_level(db, pb, fb) if fb else fb
                    common = set(da) & set(db)
                    cand = min(da[n] + db[n] for n in common)
                    improved = cand < best
                    if improved:
                        best = cand
                        meet = min((n for n in common if da[n] + db[n] == cand), key=str)
                if best > radius:
                    raise OutOfBall(f"distance {best} exceeds radius {radius}")
                return best, meet, (da, pa, db, pb)
        raise OutOfBall(f"no path within radius {radius}")

    def set_distances(self, sources, targets, cap: int):
        """Min distance from each target to the source set (multi-source BFS)."""
        dist, parents, frontier = self._levels_from(sources)
        want = {self._node_id(t) for t in targets}
        out = {}
        level = 0
        while frontier and len(out) < len(want) and level <= cap:
            for nid in list(want - set(out)):
                if nid in dist:
                    out[nid] = dist[nid]
            level += 1
            frontier = self._expand_level(dist, parents, frontier)
        for nid in want - set(out):
            if nid in dist:
                out[nid] = dist[nid]
        missing = want - set(out)
        if missing:
            raise OutOfBall(f"{len(missing)} targets beyond depth cap {cap}")
        return out


@dataclass
class QuasigeodesicReport:
    measured_d: int
    farthest_distance: int
    geodesic_length: int
    ok: bool


def quasigeodesic_check(graph: ConedGraph, prefixes, radius: int,
                        d_max: int) -> QuasigeodesicReport:
    """Hausdorff distance between path prefixes and a BFS geodesic.

    The geodesic runs from the identity to the farthest prefix; the
    Hausdorff distance is measured in the truncated coned graph and
    compared against ``d_max``.
    """
    prefixes = [normalize_word(w) for w in prefixes]
    if () not in prefixes:
        prefixes = [()] + prefixes
    dists = [graph.distance((), w, radius) for w in prefixes]
    far = int(max(range(len(prefixes)), key=lambda i: dists[i]))
    geo = graph.geodesic((), prefixes[far], radius)
    prefix_nodes = [graph.node_of_word(w) for w in prefixes]
    geo_nodes = []
    seen = set()
    for nid in geo:
        if nid not in seen:
            seen.add(nid)
            geo_nodes.append(nid)

    # geodesic node ids need live payloads for BFS restarts: group elements
    # keep theirs, cone ids are re-disclosed through their neighbors, so
    # measure with the element nodes of the geodesic plus both endpoints
    geo_elem_nodes = [n for n in geo_nodes if n[0] == "e"]
    cap = d_max + 2
    to_geo = graph.set_distances(
        [("e", n[1]) for n in geo_elem_nodes], prefix_nodes, cap
    )
    to_pref = graph.set_distances(
        prefix_nodes, [("e", n[1]) for n in geo_elem_nodes], cap
    )
    d1 = max(to_geo.values(), default=0)
    d2 = max(to_pref.values(), default=0)
    measured = max(d1, d2)
    return QuasigeodesicReport(
        measured_d=int(measured),
        farthest_distance=int(dists[far]),
        geodesic_length=len(geo) - 1,
        ok=measured <= d_max,
    )
