"""Truncated coned-off Cayley graphs and quasigeodesic measurements.

Each peripheral coset g<t> has a canonical representative rep and one
cone vertex, adjacent to exactly the members rep t^j with |j| <=
truncation; an element lists its cone only when it is one of them. The
graph is undirected and depends only on the presentation and the
truncation, not on search order. Two members of one window are at
distance 2; a member beyond the window of its representative is not
adjacent to the cone, and searches refuse (OutOfBall) rather than
silently answer beyond the truncated ball. The group is a subgroup of
PGL(2, Z) and its elements are exact canonical 2x2 integer matrices; a
free group is given as a matrix group too, for instance Sanov's free
subgroup generated by [[1, 2], [0, 1]] and [[1, 0], [2, 1]]. An
element's key is computed from the element alone, and its coset's
representative costs O(1).

Nodes are integer ids, each given once. An element's key is its
canonical integer row: the bytes of its int64 row, or a tuple of Python
ints once an entry passes int64. A cone's key is its peripheral and its
representative's key. Each expanded node keeps its neighbours as an int
array, and a search keeps its distances and BFS parents in arrays of its
own. Searches grow one BFS level at a time: the neighbours of every
frontier node not yet expanded are formed together (one batched
``exact_keys`` product per step kind and one vectorised coset-key
computation, interned row by row), and the next level is one
``np.unique`` of the concatenated neighbours in order of first
occurrence, so parents and order are those of a node-by-node BFS.
``quasigeodesic_check`` runs one bidirectional search per prefix and
builds its geodesic from the farthest prefix's search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import OutOfBall
from .linalg import canonical_rows, exact_keys, exact_matmul
from .words import GroupPresentation, Word, normalize_word

# the product of two exact 2x2 elements given as row tuples: words and the
# peripheral powers; looked up per call, so bench/tracer.py counts calls
# through this module-level name
_int_mul = exact_matmul

_IDENTITY_2X2 = ((1, 0), (0, 1))
_INT64 = 2 ** 63
_ROW = np.dtype((np.void, 32))  # one int64 2x2 row, viewed as its byte key


def _row_key(flat):
    """Key of one canonical row of four Python ints."""
    if all(-_INT64 <= x < _INT64 for x in flat):
        return np.array(flat, dtype=np.int64).tobytes()
    return tuple(flat)


def _row_keys(rows):
    """Keys of the rows of an (n, 4) integer array (int64 or Python ints)."""
    if rows.dtype == object:
        return [_row_key(r) for r in rows.tolist()]
    return np.ascontiguousarray(rows).view(_ROW).ravel().tolist()


def _flat(key):
    return np.frombuffer(key, dtype=np.int64).tolist() if type(key) is bytes else list(key)


def _elem(key):
    """The 2x2 element behind an element key, as row tuples."""
    a, b, c, d = _flat(key)
    return ((a, b), (c, d))


def _key_rows(keys):
    """(n, 4) array of the rows behind element keys: int64, or Python ints
    when one of them passes int64."""
    try:
        return np.frombuffer(b"".join(keys), dtype=np.int64).reshape(-1, 4)
    except TypeError:  # a tuple key among them
        return _int_rows([_flat(k) for k in keys])


def _int_rows(flat_rows):
    """Integer array of row-major entries: int64 when every entry fits."""
    try:
        return np.array(flat_rows, dtype=np.int64)
    except OverflowError:
        return np.array(flat_rows, dtype=object)


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


@dataclass
class Presentation:
    """Group data for the coned graph: generators with exact integer 2x2
    matrices in ``rho`` (a free group by free generating matrices), and
    cyclic peripherals, each generated by a parabolic generator."""

    generators: list  # generator names
    peripherals: list  # (peripheral name, generator name) pairs, cyclic
    rho: GroupPresentation  # the generators' exact matrices
    # the only kind; kept because bench/workloads.py passes kind="matrix"
    kind: str = "matrix"

    def __post_init__(self):
        if self.kind != "matrix":
            raise ValueError(f"unknown presentation kind {self.kind!r}")
        for p_name, t_name in self.peripherals:
            if t_name not in self.generators:
                raise ValueError(f"peripheral {p_name} generator {t_name} is not a generator")
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


class _Search:
    """Distances (-1: not reached) and BFS parents (-1: a source) of one
    search, indexed by node id and grown with the graph."""

    def __init__(self, n, sources):
        self.dist = np.full(n, -1, dtype=np.intp)
        self.parent = np.full(n, -1, dtype=np.intp)
        self.dist[sources] = 0
        self.size = len(sources)

    def fit(self, n):
        if n > len(self.dist):
            more = np.full(max(n, 2 * len(self.dist)) - len(self.dist), -1, dtype=np.intp)
            self.dist = np.concatenate([self.dist, more])
            self.parent = np.concatenate([self.parent, more])


class ConedGraph:
    """Lazy truncated coned-off Cayley graph with BFS distances.

    Undirected: element nodes are joined to ``g x^+-1`` for each
    generator x, and cone nodes to ``rep t^j`` for |j| <= truncation.
    Elements multiply by the exact integer kernels of ``linalg``. Nodes
    are integer ids; ``label`` gives a node as ``("e", g)`` or
    ``("c", p_name, rep)``. The graph depends only on the presentation
    and the truncation, so each node's adjacency is built once, for all
    nodes of a BFS level that need it together, and kept: a search that
    revisits a node multiplies nothing. ``max_nodes`` bounds the nodes one
    search visits (``OutOfBall`` past it); it bounds neither the nodes the
    graph interns nor its memory.
    """

    def __init__(self, pres: Presentation, truncation: int = 24,
                 max_nodes: int = 400000):
        self.pres = pres
        self.truncation = truncation
        self.max_nodes = max_nodes
        self._elems = {}  # element key -> node id
        self._cones = {}  # (peripheral name, representative key) -> node id
        self._keys = []  # node id -> its element key, or its cone key
        self._cone_of = {}  # cone node id -> its peripheral name
        self._adjacent = {}  # node id -> its neighbours' ids, once expanded
        self._words = {}  # word -> node id, for repeated queries
        self._gens = {}
        for name in pres.generators:
            g = pres.rho.generators[name]
            self._gens[(name, 1)], self._gens[(name, -1)] = g.exact, g.inv().exact
        self._gen_rows = _int_rows([sum(g, ()) for g in self._gens.values()])
        self._frames = {p_name: _parabolic_frame(self._gens[(t_name, 1)])
                        for p_name, t_name in pres.peripherals}
        self._window_rows = {}  # peripheral name -> rows of t^j, j = -truncation..truncation
        for p_name, t_name in pres.peripherals:
            ups, downs = [_IDENTITY_2X2], [_IDENTITY_2X2]
            for _ in range(truncation):
                ups.append(_int_mul(ups[-1], self._gens[(t_name, 1)]))
                downs.append(_int_mul(downs[-1], self._gens[(t_name, -1)]))
            self._window_rows[p_name] = _int_rows([sum(g, ()) for g in downs[:0:-1] + ups])

    # -- nodes ----------------------------------------------------------------

    def _node(self, key):
        return int(self._nodes([key])[0])

    def _nodes(self, keys):
        """Ids of the element keys, interning new ones, as an int array."""
        n = len(self._keys)
        intern, new, out = self._elems.setdefault, self._keys.append, []
        for key in keys:
            node = intern(key, n)
            if node == n:
                n += 1
                new(key)
            out.append(node)
        return np.array(out, dtype=np.intp)

    def _cone(self, p_name, rep_key):
        key = (p_name, rep_key)
        node = self._cones.get(key)
        if node is None:
            node = self._cones[key] = len(self._keys)
            self._keys.append(key)
            self._cone_of[node] = p_name
        return node

    def label(self, node):
        """The node as ``("e", element)`` or ``("c", p_name, rep)``."""
        key = self._keys[node]
        if node not in self._cone_of:
            return ("e", _elem(key))
        return ("c", key[0], _elem(key[1]))

    def node_of_word(self, word: Word):
        node = self._words.get(word)
        if node is None:
            out = _IDENTITY_2X2
            for name, exp in normalize_word(word):
                step = self._gens[(name, 1 if exp > 0 else -1)]
                for _ in range(abs(exp)):
                    out = _int_mul(out, step)
            node = self._words[word] = self._node(_row_key(sum(out, ())))
        return node

    def _coset_key(self, elem, p_name):
        """(rep, j) with elem = rep t^j and rep the same on all of elem<t>,
        t the generator of ``p_name``: the one-row call of ``_coset_rows``."""
        reps, j = self._coset_rows(_int_rows([sum(elem, ())]), p_name)
        return _elem(reps[0].tolist()), int(j[0])

    def _coset_rows(self, rows, p_name):
        """(reps, j) of each element row, with g = rep t^j.

        In the frame P of t, g t^j P = +-(gP)[[1, jk], [0, 1]] adds jk
        times the first column of gP to its second, so gP with its first
        column sign-fixed and its second column reduced modulo k times the
        first is a normal form N of the coset; j is the quotient of that
        reduction and rep = N P^-1 (canonical rows). int64 when a bound on
        every intermediate stays below 2^62, else Python ints.
        """
        ((p, x), (q, y)), k = self._frames[p_name]
        big = max(abs(p), abs(x), abs(q), abs(y))
        gp = 2 * big * int(np.abs(rows).max(initial=0)) + 1  # bounds |gP| and |j|
        rows = rows.astype(np.int64 if 4 * big * k * gp * gp < 2 ** 62 else object)
        g00, g01, g10, g11 = rows.T
        a, b, c, d = g00 * p + g01 * q, g00 * x + g01 * y, g10 * p + g11 * q, g10 * x + g11 * y
        sign = np.where((a < 0) | ((a == 0) & (c < 0)), -1, 1)
        a, b, c, d = a * sign, b * sign, c * sign, d * sign
        top = a != 0
        j = np.where(top, b, d) // (k * np.where(top, a, c))
        b, d = b - j * k * a, d - j * k * c
        # N P^-1 with P^-1 = [[y, -x], [-q, p]]
        reps = np.stack([a * y - b * q, b * p - a * x, c * y - d * q, d * p - c * x], axis=1)
        return canonical_rows(reps), j

    # -- adjacency ------------------------------------------------------------

    def neighbors(self, node):
        """The ids adjacent to ``node``, as an int array built on first call."""
        out = self._adjacent.get(node)
        if out is None:
            self._expand([node])
            out = self._adjacent[node]
        return out

    def _expand(self, fresh):
        """Build the adjacency of each node of ``fresh`` (none expanded yet)."""
        elems = [n for n in fresh if n not in self._cone_of]
        if elems:
            self._expand_elements(elems)
        for p_name in self._window_rows:
            cones = [n for n in fresh if self._cone_of.get(n) == p_name]
            if cones:
                rows = exact_keys([_key_rows([self._keys[n][1] for n in cones]),
                                   self._window_rows[p_name]], 2)
                for node, adj in zip(cones, self._nodes(_row_keys(rows)).reshape(len(cones), -1)):
                    self._adjacent[node] = adj

    def _expand_elements(self, nodes):
        """Each element's generator steps, then the cone of each peripheral
        whose window holds it."""
        rows = _key_rows([self._keys[n] for n in nodes])
        table = [self._nodes(_row_keys(exact_keys([rows, self._gen_rows], 2)))
                 .reshape(len(nodes), -1)]
        for p_name in self._window_rows:
            reps, j = self._coset_rows(rows, p_name)
            near = np.flatnonzero(np.abs(j) <= self.truncation)
            cones = np.full((len(nodes), 1), -1, dtype=np.intp)
            cones[near, 0] = [self._cone(p_name, key) for key in _row_keys(reps[near])]
            table.append(cones)
        table = np.hstack(table)
        whole = (table >= 0).all(axis=1).tolist()
        for node, adj, ok in zip(nodes, table, whole):
            self._adjacent[node] = adj if ok else adj[adj >= 0]

    # -- BFS ------------------------------------------------------------------

    def _expand_level(self, search, frontier):
        """The next BFS level of ``search`` from ``frontier`` (an id array),
        in the order a node-by-node BFS finds it, with its parents set."""
        nodes = frontier.tolist()
        fresh = [n for n in nodes if n not in self._adjacent]
        if fresh:
            self._expand(fresh)
        adj = [self.neighbors(n) for n in nodes]
        nbrs = np.concatenate(adj)
        parents = np.repeat(frontier, np.fromiter(map(len, adj), np.intp, len(adj)))
        search.fit(len(self._keys))
        new = search.dist[nbrs] < 0
        nbrs, parents = nbrs[new], parents[new]
        _, first = np.unique(nbrs, return_index=True)
        first.sort()
        if search.size + len(first) > self.max_nodes:
            raise OutOfBall(f"search exceeds {self.max_nodes} nodes")
        nxt = nbrs[first]
        search.dist[nxt] = search.dist[nodes[0]] + 1
        search.parent[nxt] = parents[first]
        search.size += len(nxt)
        return nxt

    def distance(self, w1: Word, w2: Word, radius: int):
        """BFS shortest-path length in the truncated coned graph.

        Bidirectional search; OutOfBall when no connection within the
        radius (or the node budget) is found.
        """
        return self._bidirectional(w1, w2, radius)[0]

    def geodesic(self, w1: Word, w2: Word, radius: int):
        """One shortest path as a list of node ids (endpoints included)."""
        return self._path(*self._bidirectional(w1, w2, radius)[1:])

    @staticmethod
    def _path(meet, sa, sb):
        path = []
        cur = meet
        while cur >= 0:
            path.append(cur)
            cur = int(sa.parent[cur])
        path.reverse()
        cur = int(sb.parent[meet])
        while cur >= 0:
            path.append(cur)
            cur = int(sb.parent[cur])
        return path

    def _bidirectional(self, w1: Word, w2: Word, radius: int):
        """Full-level BFS from both ends, stopped when the balls first meet.

        Before the last expansion the balls (radii La - 1 and Lb, say)
        were disjoint, so the distance is at least La + Lb; after it the
        node at distance La along a shortest path lies in both. So every
        common node is a midpoint of a geodesic of length La + Lb; the
        least by ``str`` of its label is the one taken.
        """
        a = self.node_of_word(w1)
        b = self.node_of_word(w2)
        sa, sb = _Search(len(self._keys), [a]), _Search(len(self._keys), [b])
        fa, fb = np.array([a]), np.array([b])
        reach = 0
        common = [a] if a == b else []
        while not common and len(fa) and len(fb) and reach < radius:
            reach += 1
            if len(fa) <= len(fb):
                fa = self._expand_level(sa, fa)
                sb.fit(len(self._keys))
                common = fa[sb.dist[fa] >= 0].tolist()
            else:
                fb = self._expand_level(sb, fb)
                sa.fit(len(self._keys))
                common = fb[sa.dist[fb] >= 0].tolist()
        if not common:
            raise OutOfBall(f"no path within radius {radius}")
        return reach, min(common, key=lambda n: str(self.label(n))), sa, sb

    def set_distances(self, sources, targets, cap: int):
        """Distance from each target to the source set (multi-source BFS).

        OutOfBall for a target farther than cap + 1.
        """
        frontier = np.array(list(dict.fromkeys(sources)), dtype=np.intp)
        search = _Search(len(self._keys), frontier)
        want = np.array(list(set(targets)), dtype=np.intp)
        for _ in range(cap + 1):
            if not len(frontier) or (search.dist[want] >= 0).all():
                break
            frontier = self._expand_level(search, frontier)
        dist = search.dist[want]
        missing = int((dist < 0).sum())
        if missing:
            raise OutOfBall(f"{missing} targets beyond depth cap {cap}")
        return dict(zip(want.tolist(), dist.tolist()))


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
    against ``d_max``. Each distinct prefix gets one bidirectional
    search, and the geodesic is read from the first farthest one's.
    """
    prefixes = list(dict.fromkeys(normalize_word(w) for w in prefixes))
    if () not in prefixes:
        prefixes = [()] + prefixes
    far = None
    for w in prefixes:
        reach, *meeting = graph._bidirectional((), w, radius)
        if far is None or reach > far[0]:
            far = (reach, *meeting)
    geo = graph._path(*far[1:])
    prefix_nodes = [graph.node_of_word(w) for w in prefixes]
    cap = d_max + 2
    to_geo = graph.set_distances(geo, prefix_nodes, cap)
    to_pref = graph.set_distances(prefix_nodes, geo, cap)
    measured = max(max(to_geo.values()), max(to_pref.values()))
    return QuasigeodesicReport(
        measured_d=int(measured),
        farthest_distance=int(far[0]),
        geodesic_length=len(geo) - 1,
        ok=measured <= d_max,
    )
