"""Truncated coned-off Cayley graphs and quasigeodesic measurements.

Each peripheral coset g<t> has a canonical representative rep and one
cone vertex, adjacent to exactly the members rep t^j with |j| <=
truncation; an element lists its cone only when it is one of them. The
graph is undirected and depends only on the presentation and the
truncation, not on search order. Two members of one window are at
distance 2; a member beyond the window of its representative is not
adjacent to the cone, and searches refuse (OutOfBall) rather than
silently answer beyond the truncated ball. Elements of declared free
presentations are free-reduced letter tuples; elements of PGL(2, Z)
presentations are exact canonical 2x2 integer tuples. Either way an
element is its own key, and its coset's representative costs O(1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import OutOfBall
from .linalg import exact_canonical, exact_matmul
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
        if self.kind not in ("free", "matrix"):
            raise ValueError(f"unknown presentation kind {self.kind!r}")
        for p_name, t_name in self.peripherals:
            if t_name not in self.generators:
                raise ValueError(f"peripheral {p_name} generator {t_name} is not a generator")
        if self.kind == "free":
            return
        if self.rho is None:
            raise ValueError("matrix presentations need an evaluation map")
        for name in self.generators:
            if name not in self.rho.generators:
                raise ValueError(f"generator {name} has no matrix in the evaluation map")
        for name, g in self.rho.generators.items():
            if g.dim != 2 or g.exact is None:
                raise ValueError(f"generator {name} is not an exact integer 2x2 matrix")
        for p_name, t_name in self.peripherals:
            if not _is_parabolic(self.rho.generators[t_name].exact):
                raise ValueError(f"peripheral {p_name} generator {t_name} is not parabolic "
                                 "(det 1, |trace| 2, not the identity)")


class ConedGraph:
    """Lazy truncated coned-off Cayley graph with BFS distances.

    Undirected: element nodes ``("e", g)`` are joined to ``g x^+-1`` for
    each generator x, and cone nodes ``("c", p_name, rep)`` to ``rep t^j``
    for |j| <= truncation. Free presentations multiply by free
    reduction; matrix presentations by the exact integer kernel of
    ``linalg``. The graph depends only on the presentation and the
    truncation, so each node's adjacency is built once and kept, on
    interned element nodes: a search that revisits a node multiplies nothing.
    """

    def __init__(self, pres: Presentation, truncation: int = 24,
                 max_nodes: int = 400000):
        self.pres = pres
        self.truncation = truncation
        self.max_nodes = max_nodes
        self._elems = {}  # element -> its interned node ("e", element)
        self._words = {}  # word -> node, for repeated queries
        self._adjacent = {}  # node -> its neighbors, each node expanded once
        if pres.kind == "free":
            self._identity = ()
            self._mul = lambda g, h: free_reduce(g + h)
            self._gens = {(name, s): ((name, s),) for name in pres.generators for s in (1, -1)}
        else:
            self._identity = _IDENTITY_2X2
            # looked up per call, so a wrapped _int_mul sees every product
            self._mul = lambda g, h: _int_mul(g, h)
            self._gens = {}
            for name in pres.generators:
                g = pres.rho.generators[name]
                self._gens[(name, 1)], self._gens[(name, -1)] = g.exact, g.inv().exact
            self._frames = {p_name: _parabolic_frame(self._gens[(t_name, 1)])
                            for p_name, t_name in pres.peripherals}
        self._powers = {}
        for p_name, t_name in pres.peripherals:
            pows = {0: self._identity}
            for j in range(1, truncation + 1):
                pows[j] = self._mul(pows[j - 1], self._gens[(t_name, 1)])
                pows[-j] = self._mul(pows[1 - j], self._gens[(t_name, -1)])
            self._powers[p_name] = pows

    def _node(self, elem):
        node = self._elems.get(elem)
        if node is None:
            node = self._elems[elem] = ("e", elem)
        return node

    def node_of_word(self, word: Word):
        node = self._words.get(word)
        if node is None:
            out = self._identity
            for name, exp in normalize_word(word):
                step = self._gens[(name, 1 if exp > 0 else -1)]
                for _ in range(abs(exp)):
                    out = self._mul(out, step)
            node = self._words[word] = self._node(out)
        return node

    def _coset_key(self, elem, p_name, t_name):
        """(rep, j) with elem = rep t^j and rep the same on all of elem<t>.

        Free kind: rep is elem with its trailing t letters stripped and j
        their signed count. Matrix kind: in the frame P of t, g t^j P =
        +-(gP)[[1, jk], [0, 1]] adds jk times the first column of gP to its
        second, so gP with its first column sign-fixed and its second
        column reduced modulo k times the first is a normal form N of the
        coset; j is the quotient of that reduction and rep = N P^-1.
        """
        if self.pres.kind == "free":
            n = len(elem)
            while n and elem[n - 1][0] == t_name:
                n -= 1
            return elem[:n], sum(s for _, s in elem[n:])
        ((p, x), (q, y)), k = self._frames[p_name]
        (a, b), (c, d) = elem
        a, b, c, d = a * p + b * q, a * x + b * y, c * p + d * q, c * x + d * y
        if a < 0 or (a == 0 and c < 0):
            a, b, c, d = -a, -b, -c, -d
        j = b // (k * a) if a else d // (k * c)
        b, d = b - j * k * a, d - j * k * c
        # N P^-1 with P^-1 = [[y, -x], [-q, p]]
        return exact_canonical((a * y - b * q, b * p - a * x, c * y - d * q, d * p - c * x), 2), j

    # -- BFS ----------------------------------------------------------------

    def neighbors(self, node):
        """The nodes adjacent to ``node``, as a tuple built on first call."""
        out = self._adjacent.get(node)
        if out is not None:
            return out
        if node[0] == "e":
            elem = node[1]
            out = [self._node(self._mul(elem, g)) for g in self._gens.values()]
            for p_name, t_name in self.pres.peripherals:
                rep, j = self._coset_key(elem, p_name, t_name)
                if abs(j) <= self.truncation:
                    out.append(("c", p_name, rep))
        else:
            _, p_name, rep = node
            pows = self._powers[p_name]
            out = [self._node(self._mul(rep, pows[j]))
                   for j in range(-self.truncation, self.truncation + 1)]
        out = self._adjacent[node] = tuple(out)
        return out

    def _expand_level(self, dist, parents, frontier):
        nxt = []
        for node in frontier:
            d = dist[node] + 1
            for nb in self.neighbors(node):
                if nb not in dist:
                    if len(dist) >= self.max_nodes:
                        raise OutOfBall(f"search exceeds {self.max_nodes} nodes")
                    dist[nb] = d
                    parents[nb] = node
                    nxt.append(nb)
        return nxt

    def distance(self, w1: Word, w2: Word, radius: int):
        """BFS shortest-path length in the truncated coned graph.

        Bidirectional search; OutOfBall when no connection within the
        radius (or the node budget) is found.
        """
        return self._bidirectional(w1, w2, radius)[0]

    def geodesic(self, w1: Word, w2: Word, radius: int):
        """One shortest path as a list of nodes (endpoints included)."""
        _, meet, pa, pb = self._bidirectional(w1, w2, radius)
        path = []
        cur = meet
        while cur is not None:
            path.append(cur)
            cur = pa[cur]
        path.reverse()
        cur = pb[meet]
        while cur is not None:
            path.append(cur)
            cur = pb[cur]
        return path

    def _bidirectional(self, w1: Word, w2: Word, radius: int):
        """Full-level BFS from both ends, stopped when the balls first meet.

        Before the last expansion the balls (radii La - 1 and Lb, say)
        were disjoint, so the distance is at least La + Lb; after it the
        node at distance La along a shortest path lies in both. So every
        common node is a midpoint of a geodesic of length La + Lb.
        """
        a = self.node_of_word(w1)
        b = self.node_of_word(w2)
        da, pa, fa = {a: 0}, {a: None}, [a]
        db, pb, fb = {b: 0}, {b: None}, [b]
        reach = 0
        common = [a] if a == b else []
        while not common and fa and fb and reach < radius:
            reach += 1
            if len(fa) <= len(fb):
                fa = self._expand_level(da, pa, fa)
                common = [n for n in fa if n in db]
            else:
                fb = self._expand_level(db, pb, fb)
                common = [n for n in fb if n in da]
        if not common:
            raise OutOfBall(f"no path within radius {radius}")
        return reach, min(common, key=str), pa, pb

    def set_distances(self, sources, targets, cap: int):
        """Distance from each target to the source set (multi-source BFS).

        OutOfBall for a target farther than cap + 1.
        """
        dist = dict.fromkeys(sources, 0)
        parents = dict.fromkeys(dist)
        frontier = list(dist)
        want = set(targets)
        for _ in range(cap + 1):
            if not frontier or want <= dist.keys():
                break
            frontier = self._expand_level(dist, parents, frontier)
        missing = want - dist.keys()
        if missing:
            raise OutOfBall(f"{len(missing)} targets beyond depth cap {cap}")
        return {n: dist[n] for n in want}


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
    Hausdorff distance between its vertices (cone vertices included) and
    the prefixes is measured in the truncated coned graph and compared
    against ``d_max``.
    """
    prefixes = [normalize_word(w) for w in prefixes]
    if () not in prefixes:
        prefixes = [()] + prefixes
    dists = [graph.distance((), w, radius) for w in prefixes]
    far = int(max(range(len(prefixes)), key=lambda i: dists[i]))
    geo = graph.geodesic((), prefixes[far], radius)
    prefix_nodes = [graph.node_of_word(w) for w in prefixes]
    cap = d_max + 2
    to_geo = graph.set_distances(geo, prefix_nodes, cap)
    to_pref = graph.set_distances(prefix_nodes, geo, cap)
    measured = max(max(to_geo.values()), max(to_pref.values()))
    return QuasigeodesicReport(
        measured_d=int(measured),
        farthest_distance=int(dists[far]),
        geodesic_length=len(geo) - 1,
        ok=measured <= d_max,
    )
