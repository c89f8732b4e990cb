"""Vertex-labeled automata over a group and their certified open-set systems.

A graph vertex carries either a single nonidentity group element or a
truncated cofinite subset of a peripheral coset. A compatible system
assigns a proper domain to each vertex; certification checks, for each
edge and each element of its source label, that the element maps the
epsilon neighborhood of the target domain strictly inside the source
domain, recording worst-case containment margins in the angle metric.

Inclusions are tested on sampled boundary and interior points, edge by
edge, except on the projective line: there images of arcs under 2x2
matrices are exact, margins closed-form, and every arc-to-arc edge is
decided in one batched call. Cofinite vertex labels are verified on a
finite prefix plus a disclosed monotone-tail heuristic; the disclosure
is part of the certificate. G-paths through the graph are drawn by
seeded random choice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import circle
from .domains import ChartBall, ProperDomain
from .errors import BaseFails, EvaluationError, MissingDomain
from .projgeom import ProjPoint, act_many, chart_point, fubini_study_many
from .words import GroupPresentation, Word, concat, word_str

# entries of a stacked chunk's (image rows, boundary rows) distance table: 0.5 MiB
_CHUNK = 1 << 16


@dataclass(frozen=True)
class Singleton:
    word: Word


@dataclass(frozen=True)
class ParabolicFamily:
    coset_word: Word
    peripheral: str
    exclude_below: int = 1
    excluded: tuple = ()


@dataclass
class GammaGraph:
    vertices: dict  # id -> Singleton | ParabolicFamily
    edges: list  # list of (source id, target id)
    epsilon: float

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        ids = set(self.vertices)
        for v, w in self.edges:
            if v not in ids or w not in ids:
                raise ValueError(f"edge ({v}, {w}) references unknown vertex")
        out = {v: 0 for v in ids}
        for v, _ in self.edges:
            out[v] += 1
        dead = [v for v, n in out.items() if n == 0]
        if dead:
            raise ValueError(f"vertices with no outgoing edge: {dead}")

    def validate_labels(self, rho: GroupPresentation):
        """Singletons must be nonidentity; enumerations nonempty, duplicate-free.

        Matrix-level duplicates are checked on a short prefix only: large
        powers of a parabolic converge projectively, so float keys of
        distant enumeration elements collide without being equal in the
        group. The word enumeration itself is duplicate-free by
        construction.
        """
        for vid, label in self.vertices.items():
            if isinstance(label, Singleton):
                if rho.evaluate(label.word).is_identity():
                    raise EvaluationError(f"vertex {vid} is labeled by the identity")
            else:
                seen = {}
                for w in elements_of(label, rho, cap=12):
                    k = rho.evaluate(w).key()
                    if k in seen:
                        raise EvaluationError(
                            f"duplicate element in enumeration of {vid}: "
                            f"{word_str(seen[k])} == {word_str(w)}"
                        )
                    seen[k] = w
                if not seen:
                    raise EvaluationError(f"vertex {vid} is labeled by no element")


def elements_of(label, rho: GroupPresentation, cap=None):
    """Element words of a vertex label in enumeration order (truncated)."""
    if isinstance(label, Singleton):
        return [label.word]
    p = rho.peripheral(label.peripheral)
    out = []
    for w in p.enumerate_words(exclude_below=label.exclude_below):
        full = concat(label.coset_word, w)
        if full in label.excluded or not full:
            continue
        out.append(full)
        if cap is not None and len(out) >= cap:
            break
    return out


@dataclass
class CompatibleSystem:
    domains: dict  # vertex id -> ProperDomain

    def domain(self, v) -> ProperDomain:
        if v not in self.domains:
            raise MissingDomain(f"no domain assigned to vertex {v}")
        return self.domains[v]


def pair_gap(a: ProperDomain, b: ProperDomain, n_boundary: int, n_interior: int,
             seed: int) -> float:
    """FS gap between two domains: exact for arcs, else the minimum over
    ``n_boundary`` boundary and ``n_interior`` interior samples of each."""
    if _is_arc(a) and _is_arc(b):
        return a.arc().gap_to(b.arc())
    pa = np.vstack([a.boundary_points(n_boundary, seed), a.interior_points(n_interior, seed)])
    pb = np.vstack([b.boundary_points(n_boundary, seed), b.interior_points(n_interior, seed)])
    return float(fubini_study_many(pa, pb))


def _is_arc(dom):
    return isinstance(dom, ChartBall) and dom.dim == 2


@dataclass
class EdgeRecord:
    edge: tuple
    word: Word
    margin: float
    ok: bool
    n_samples: int
    exact: bool

    def describe(self):
        status = "pass" if self.ok else "FAIL"
        return (
            f"{self.edge[0]} -> {self.edge[1]}  alpha = {word_str(self.word):24s} "
            f"margin = {self.margin:+.6e}  [{status}]"
        )


@dataclass
class TailDisclosure:
    vertex: str
    margins_nondecreasing: bool
    diameters_nonincreasing: bool
    checked: int
    note: str = (
        "cofinite tail verified heuristically on a finite prefix; "
        "monotone trends are evidence, not proof"
    )

    @property
    def ok(self):
        return self.margins_nondecreasing and self.diameters_nonincreasing

    def describe(self):
        return f"tail {self.vertex}"


@dataclass
class DivergenceWitness:
    edge: tuple
    word: Word
    witness: object  # ProjPoint or None
    margin: float
    conclusive: bool


@dataclass
class Certificate:
    records: list
    tails: list
    epsilon: float
    budgets: dict
    divergence: list = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    @property
    def ok(self):
        return all(r.ok for r in self.records) and all(t.ok for t in self.tails)

    @property
    def min_margin(self):
        return min((r.margin for r in self.records), default=math.inf)

    def first_failure(self):
        for r in self.records:
            if not r.ok:
                return r
        for t in self.tails:
            if not t.ok:
                return t
        return None

    def to_dict(self):
        return {
            "verdict": "pass" if self.ok else "fail",
            "epsilon": self.epsilon,
            "min_margin": self.min_margin,
            "budgets": self.budgets,
            "records": [
                {
                    "edge": list(r.edge),
                    "element": word_str(r.word),
                    "margin": r.margin,
                    "pass": r.ok,
                    "samples": r.n_samples,
                    "exact": r.exact,
                }
                for r in self.records
            ],
            "tail_disclosures": [
                {
                    "vertex": t.vertex,
                    "margins_nondecreasing": t.margins_nondecreasing,
                    "diameters_nonincreasing": t.diameters_nonincreasing,
                    "checked_elements": t.checked,
                    "note": t.note,
                }
                for t in self.tails
            ],
            "divergence": [
                {
                    "edge": list(d.edge),
                    "element": word_str(d.word),
                    "witness": None if d.witness is None else list(d.witness.coords),
                    "margin": d.margin,
                    "conclusive": d.conclusive,
                }
                for d in self.divergence
            ],
            "metadata": self.metadata,
        }


def _neighborhood_samples(dom: ProperDomain, eps: float, n_boundary: int,
                          n_interior: int, seed: int):
    """Sample points of N(U, eps): interior, boundary, and pushed boundary."""
    bnd_coords = dom.boundary_coords(n_boundary, seed)
    bnd = chart_point(dom.chart, bnd_coords)
    interior = dom.interior_points(n_interior, seed)
    amb_dirs = dom.outward_normals(bnd_coords) @ dom.chart.basis
    # orthonormalize the push direction against the base point
    dots = np.sum(amb_dirs * bnd, axis=1, keepdims=True)
    tang = amb_dirs - dots * bnd
    tang = tang / np.linalg.norm(tang, axis=1, keepdims=True)
    pushed = math.cos(eps) * bnd + math.sin(eps) * tang
    return np.vstack([interior, bnd, pushed])


def _containment_margin(system_dom: ProperDomain, imgs: np.ndarray, bnd: np.ndarray):
    """Worst signed FS margin inside the domain of each point cloud of the
    (k, n, d) stack ``imgs``, from one containment test and one distance
    call over its k * n rows.

    ``bnd`` is a boundary sample of the domain, drawn once per edge.
    """
    inside = system_dom.contains_points(imgs)
    dists = fubini_study_many(imgs.reshape(-1, imgs.shape[-1]), bnd, axis=1).reshape(inside.shape)
    return np.where(inside, dists, -dists).min(axis=1)


def verify_compatibility(graph: GammaGraph, system: CompatibleSystem,
                         rho: GroupPresentation, *, n_boundary: int = 64,
                         n_interior: int = 64, element_cap: int = 64,
                         seed: int = 0, metadata: dict | None = None) -> Certificate:
    """Check alpha * N(U_w, eps) inside U_v for every edge and element.

    Exact interval arithmetic on the projective line; sampled containment
    with positive-margin requirement otherwise. Each vertex label is
    enumerated and evaluated once. Cofinite labels get a monotone-tail
    disclosure.
    """
    graph.validate_labels(rho)
    domains = {v: system.domain(v) for v in graph.vertices}
    arcs = {v: dom.arc() for v, dom in domains.items() if _is_arc(dom)}
    words = {v: elements_of(label, rho, cap=element_cap)
             for v, label in graph.vertices.items()}
    mats = {v: [rho.evaluate(w) for w in ws] for v, ws in words.items()}
    eps = graph.epsilon

    records = []
    # per family vertex: (margins, tail sizes) of each outgoing edge, by element
    family = {v: [] for v, label in graph.vertices.items()
              if isinstance(label, ParabolicFamily)}
    sized = {v: _tail_window(label, len(mats[v]), rho)[1]
             for v, label in graph.vertices.items()}
    arc_edges = iter(_arc_edges([e for e in graph.edges if e[0] in arcs and e[1] in arcs],
                                arcs, eps, mats))
    for edge in graph.edges:
        v, w = edge
        if v in arcs and w in arcs:
            margins, sizes = next(arc_edges)
            sizes = sizes[sized[v]:]
            n_samples, exact = 2, True
        else:
            pts = _neighborhood_samples(domains[w], eps, n_boundary, n_interior, seed)
            bnd = domains[v].boundary_points(max(n_boundary, 128), seed + 1)
            margins, sizes = _sampled_edge(domains[v], pts, bnd, mats[v], sized[v])
            n_samples, exact = pts.shape[0], False
        records.extend(EdgeRecord(edge, word, m, m > 0, n_samples, exact)
                       for word, m in zip(words[v], margins.tolist()))
        if v in family:
            family[v].append((margins, sizes))

    tails = [_tail(v, graph.vertices[v], edges, rho) for v, edges in family.items()]
    return Certificate(
        records=records,
        tails=tails,
        epsilon=eps,
        budgets={
            "boundary_samples": n_boundary,
            "interior_samples": n_interior,
            "element_cap": element_cap,
            "seed": seed,
        },
        metadata=metadata or {},
    )


def _arc_edges(edges, arcs, eps, mats):
    """Exact per-element margins in arcs[v] and image radii of arcs[w] + eps,
    for each arc-to-arc edge (v, w) in order: one ``mobius_arcs`` call,
    each source's matrices stacked once and repeated for each out-edge."""
    if not edges:
        return []
    stacks = {v: np.reshape([m.arr for m in mats[v]], (-1, 2, 2)) for v in {v for v, _ in edges}}
    counts = [len(mats[v]) for v, _ in edges]
    homes = np.repeat([(arcs[v].center, arcs[v].radius) for v, _ in edges], counts, axis=0)
    targets = np.repeat([(t.center, t.radius) for t in (arcs[w].expand(eps) for _, w in edges)],
                        counts, axis=0)
    centers, radii = circle.mobius_arcs(np.concatenate([stacks[v] for v, _ in edges]),
                                        targets[:, 0], targets[:, 1])
    margins = homes[:, 1] - (circle.angle_dists(homes[:, 0], centers) + radii)
    splits = np.cumsum(counts)[:-1]
    return zip(np.split(margins, splits), np.split(radii, splits))


def _sampled_edge(home, pts, bnd, mats, sized):
    """Sampled margins in ``home`` of the elements' images of the point
    cloud ``pts``, and the FS diameters of the images of elements
    ``sized`` on. The images of a chunk of elements are one stack, its
    tables at most ``_CHUNK`` entries."""
    arrs = np.stack([m.arr for m in mats])
    step = max(1, _CHUNK // (len(pts) * len(bnd)))
    margins, sizes = np.empty(len(mats)), []
    for lo in range(0, len(mats), step):
        imgs = act_many(arrs[lo:lo + step], pts)
        margins[lo:lo + step] = _containment_margin(home, imgs, bnd)
        sizes += [fubini_study_many(img, img, farthest=True)
                  for img in imgs[max(sized - lo, 0):]]
    return margins, np.array(sizes)


def _tail_window(label, n, rho):
    """(shell size, first element) of the shells that the tail disclosure
    of a label with n elements reads: the last max(2, shells // 4) of them,
    none for a Singleton."""
    if isinstance(label, Singleton):
        return 1, n
    # a cyclic family emits +n, -n per shell, so trends follow the
    # declared power ordering
    group = 2 if len(rho.peripheral(label.peripheral).generators) == 1 else 1
    shells = -(-n // group)
    return group, max(0, shells - max(2, shells // 4)) * group


def _tail(v, label, edges, rho):
    """Monotone-trend disclosure from the per-element margins and tail
    sizes of each outgoing edge: worst case over edges, then over shells."""
    n = len(edges[0][0])
    group, start = _tail_window(label, n, rho)
    shells = np.arange(0, n - start, group)
    tail_m = np.minimum.reduceat(np.min([m[start:] for m, _ in edges], axis=0), shells)
    tail_d = np.maximum.reduceat(np.max([s for _, s in edges], axis=0), shells)
    # slack absorbs sampling wobble once the trend has saturated
    a, b = tail_m[:-1], tail_m[1:]
    margins_ok = bool(np.all(b >= a - 1e-6 - 0.01 * np.abs(a)))
    a, b = tail_d[:-1], tail_d[1:]
    diams_ok = bool(np.all(b <= a + 1e-6 + 0.01 * np.abs(a)))
    return TailDisclosure(v, margins_ok, diams_ok, n)


def check_divergence(graph: GammaGraph, system: CompatibleSystem,
                     rho: GroupPresentation, *, seed: int = 0) -> list:
    """Witness proper inclusion: a point of U_v outside alpha * closure(U_w).

    Equivalently the witness pulls back outside the closure of U_w under
    alpha^-1. Searches the first 8 elements of each label with 128 interior
    and 128 boundary samples per domain; inconclusive searches are
    reported, not raised. Labels are enumerated and evaluated, and the
    samples drawn, once per vertex; each edge maps the probes by all its
    elements, and pulls them back by the nested ones, in one stack each.
    """
    domains = {v: system.domain(v) for v in graph.vertices}
    words = {v: elements_of(label, rho, cap=8) for v, label in graph.vertices.items()}
    mats = {v: [rho.evaluate(w) for w in ws] for v, ws in words.items()}
    stacks = {v: np.stack([m.arr for m in ms]) for v, ms in mats.items()}
    probes = {v: np.vstack([U.interior_points(128, seed), U.boundary_points(128, seed)])
              for v, U in domains.items()}
    arcs = {v: U.arc() for v, U in domains.items() if _is_arc(U)}
    out = []
    for edge in graph.edges:
        v, w = edge
        U_v, U_w, arc_w = domains[v], domains[w], arcs.get(w)
        # an escape point only witnesses PROPER inclusion when the
        # inclusion itself holds: an isometry label produces escapes
        # without nesting and must come back inconclusive
        nested = U_v.contains_points(act_many(stacks[v], probes[w]), slack=1e-12).all(axis=1)
        found = {}
        if nested.any():
            idx = np.flatnonzero(nested).tolist()
            pre = act_many(np.stack([mats[v][i].inv().arr for i in idx]), probes[v])
            found = dict(zip(idx, _escapes(pre, U_w, arc_w)))
        for i, word in enumerate(words[v]):
            point, gap = found.get(i, (None, 0.0))
            out.append(DivergenceWitness(edge, word, point, gap, point is not None))
    return out


def _escapes(pre, U_w, arc_w):
    """(witness, margin) of each point cloud of the (j, n, d) stack ``pre``:
    its first row farthest past arc_w on the projective line, else its
    first row outside closure(U_w) (to slack 1e-12) with margin 1e-12;
    (None, 0.0) when no row escapes."""
    if arc_w is not None:
        escape = circle.angle_dists(circle.angles(pre), arc_w.center) - arc_w.radius
        first = escape.argmax(axis=1)
        gaps = escape[np.arange(len(pre)), first]
    else:
        outside = ~U_w.contains_points(pre, slack=1e-12)
        first = outside.argmax(axis=1)
        gaps = np.where(outside.any(axis=1), 1e-12, 0.0)
    return [(ProjPoint(rows[i]), g) if g > 0 else (None, 0.0)
            for rows, i, g in zip(pre, first.tolist(), gaps.tolist())]


def peripheral_stability_probe(family, graph: GammaGraph, system: CompatibleSystem,
                               t_grid, **verify_kwargs):
    """Re-certify a deformation family on the same graph and domains.

    ``family`` maps a parameter t to a GroupPresentation. Requires the
    t = 0 member to certify, and reuses its certificate for a grid value
    0.0; returns [(t, Certificate)] in grid order plus the first failing t
    (None if the whole grid certifies).
    """
    base = family(0.0)
    cert0 = verify_compatibility(graph, system, base, **verify_kwargs)
    if not cert0.ok:
        raise BaseFails("the t = 0 presentation does not certify")
    results = []
    first_fail = None
    for t in t_grid:
        cert = cert0 if float(t) == 0.0 else verify_compatibility(
            graph, system, family(float(t)), **verify_kwargs)
        results.append((float(t), cert))
        if first_fail is None and not cert.ok:
            first_fail = float(t)
    return results, first_fail


@dataclass
class GPath:
    vertices: list
    words: list

    @property
    def depth(self):
        return len(self.words)

    def code(self):
        return "|".join(word_str(w) for w in self.words)


def enumerate_paths(graph: GammaGraph, depth: int, strategy: str = "random",
                    rho: GroupPresentation | None = None, *, seed: int = 0,
                    cap: int = 100000, elements_per_vertex: int = 2):
    """``cap`` seeded random G-paths of the given depth.

    Each step draws an element of the current vertex label (a parabolic
    vertex offers its first ``elements_per_vertex`` enumeration elements)
    and, before the last step, an out-neighbor; a path lands on its last
    vertex's first out-neighbor. ``strategy`` must be "random" and the
    second return value is always False: both are kept for
    ``bench/workloads.py``, which passes the one and unpacks the other.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if strategy != "random":
        raise ValueError(f"unknown strategy {strategy!r}")
    elems = {v: elements_of(label, rho, cap=elements_per_vertex)
             for v, label in graph.vertices.items()}
    adj = {v: [] for v in graph.vertices}
    for x, w in graph.edges:
        adj[x].append(w)
    adj = {v: sorted(ws) for v, ws in adj.items()}
    rng = np.random.default_rng(seed)

    def pick(options):
        # integers(1) returns 0 and leaves the stream alone, so a lone
        # option needs no draw
        return options[0] if len(options) == 1 else options[int(rng.integers(len(options)))]

    paths = []
    starts = sorted(graph.vertices)
    for _ in range(cap):
        vpath, wpath = [pick(starts)], []
        for step in range(depth):
            cur = vpath[-1]
            if not elems[cur]:
                break
            wpath.append(pick(elems[cur]))
            if step < depth - 1:
                vpath.append(pick(adj[cur]))
        else:
            vpath.append(adj[vpath[-1]][0])
            paths.append(GPath(vpath, wpath))
    return paths, False
