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
decided in one batched call. The labels are checked in the certifying
pass that enumerates them, before any domain is read. A certificate
keeps its records as columns, one block per edge over one flat margin
array, and builds ``EdgeRecord`` objects only when they are read.
Cofinite vertex labels are verified on a finite prefix plus a disclosed
monotone-tail heuristic; the disclosure is part of the certificate.
G-paths through the graph are drawn by seeded random choice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import circle
from .domains import ProperDomain, chart_ball_arcs
from .errors import BaseFails, EvaluationError, MissingDomain
from .projgeom import act_many, chart_point, fubini_study_many
from .words import GroupPresentation, Word, concat, word_str

# entries of a stacked chunk's (image rows, boundary rows) distance table: 0.5 MiB
_CHUNK = 1 << 16
# enumeration elements of a label checked for repeats
_LABEL_PREFIX = 12


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


def elements_of(label, rho: GroupPresentation, cap: int):
    """The first ``cap`` element words of a vertex label, in enumeration order."""
    if isinstance(label, Singleton):
        return [label.word]
    p = rho.peripheral(label.peripheral)
    out = []
    for w in p.enumerate_words(exclude_below=label.exclude_below):
        full = concat(label.coset_word, w)
        if full in label.excluded or not full:
            continue
        out.append(full)
        if len(out) >= cap:
            break
    return out


@dataclass
class CompatibleSystem:
    domains: dict  # vertex id -> ProperDomain

    def domain(self, v) -> ProperDomain:
        if v not in self.domains:
            raise MissingDomain(f"no domain assigned to vertex {v}")
        return self.domains[v]


def pair_gap(a: ProperDomain, b: ProperDomain) -> float:
    """FS gap between two domains: exact for arcs, else the minimum over
    64 boundary and 32 interior samples of each, drawn at seed 0."""
    if a.is_arc and b.is_arc:
        return a.arc().gap_to(b.arc())
    pa, pb = (np.vstack([d.boundary_points(64), d.interior_points(32)]) for d in (a, b))
    return float(fubini_study_many(pa, pb))


@dataclass
class SeparationFailure:
    """A separation table row (a, b, required gap) that ``pair_gap`` misses."""
    a: str
    b: str
    required: float
    measured: float

    def __str__(self):
        return f"{self.a} vs {self.b}: required {self.required}, measured {self.measured:.17g}"

    def describe(self):
        return f"separation {self}"


@dataclass
class EdgeRecord:
    edge: tuple
    word: Word
    element: str  # word_str(word)
    margin: float
    ok: bool
    n_samples: int
    exact: bool

    def describe(self):
        status = "pass" if self.ok else "FAIL"
        return (
            f"{self.edge[0]} -> {self.edge[1]}  alpha = {self.element:24s} "
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
class Certificate:
    """Per-edge record blocks as columns: block i is edge ``edges[i]``, its
    source's element words ``words[i]``, their margins (the next
    len(words[i]) entries of the flat ``margins`` array), and its
    ``n_samples[i]`` and ``exact[i]``. ``records`` builds one ``EdgeRecord``
    per element on first read, with the element texts formed once per
    source vertex; the verdict and the minimum margin are read
    from the arrays. The verdict also requires every tail and an empty
    ``separation``, the failing rows of the separation table."""
    edges: list
    words: list
    margins: np.ndarray
    n_samples: list
    exact: list
    tails: list
    epsilon: float
    budgets: dict
    separation: list = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    # read once: the columns and tails do not change after construction
    @cached_property
    def records(self):
        margins = iter(self.margins.tolist())
        texts = {}
        for (v, _), words in zip(self.edges, self.words):
            if v not in texts:
                texts[v] = [word_str(w) for w in words]
        return [EdgeRecord(edge, word, text, m, m > 0, n, exact)
                for edge, words, n, exact in zip(self.edges, self.words, self.n_samples,
                                                 self.exact)
                for word, text, m in zip(words, texts[edge[0]], margins)]

    @cached_property
    def ok(self):
        return (bool(np.all(self.margins > 0)) and all(t.ok for t in self.tails)
                and not self.separation)

    @cached_property
    def min_margin(self):
        return float(self.margins.min()) if self.margins.size else math.inf

    def first_failure(self):
        for r in self.records:
            if not r.ok:
                return r
        for t in self.tails:
            if not t.ok:
                return t
        return self.separation[0] if self.separation else None

    def to_dict(self):
        return {
            "verdict": "pass" if self.ok else "fail",
            "epsilon": self.epsilon,
            "min_margin": self.min_margin,
            "budgets": self.budgets,
            "records": [
                {
                    "edge": list(r.edge),
                    "element": r.element,
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
            "separation": [
                {"a": s.a, "b": s.b, "required": s.required, "measured": s.measured}
                for s in self.separation
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
                         seed: int = 0, separation=(), metadata: dict | None = None) -> Certificate:
    """Check alpha * N(U_w, eps) inside U_v for every edge and element, and
    the (a, b, gap) rows of the ``separation`` table.

    Exact interval arithmetic on the projective line; sampled containment
    with positive-margin requirement otherwise. Each vertex label is
    enumerated and evaluated once, to at least ``_LABEL_PREFIX`` elements
    for ``_check_label``, and its first ``element_cap`` are certified.
    Cofinite labels get a monotone-tail disclosure.
    """
    words, mats = {}, {}
    for v, label in graph.vertices.items():
        ws = elements_of(label, rho, cap=max(element_cap, _LABEL_PREFIX))
        ms = [rho.evaluate(w) for w in ws]
        _check_label(v, label, ws[:_LABEL_PREFIX], ms[:_LABEL_PREFIX])
        words[v], mats[v] = ws[:element_cap], ms[:element_cap]
    domains = {v: system.domain(v) for v in graph.vertices}
    balls = {v: dom for v, dom in domains.items() if dom.is_arc}
    arcs = dict(zip(balls, chart_ball_arcs(list(balls.values()))))
    eps = graph.epsilon
    sized = {v: _tail_window(label, len(mats[v]), rho)[1]
             for v, label in graph.vertices.items()}

    # every edge's block of margins in one flat array, edge after edge: the
    # arc-to-arc edges' rows scattered in from one batch, the sampled edges'
    # blocks filled in one by one
    edges = graph.edges
    exact = [v in arcs and w in arcs for v, w in edges]
    counts = np.array([len(words[v]) for v, _ in edges], dtype=int)
    starts = np.cumsum(counts) - counts
    arc = np.flatnonzero(exact)
    arc_margins, radii, arc_starts = _arc_edges([edges[i] for i in arc], arcs, eps, mats)
    margins = np.empty(int(counts.sum()))
    at = np.repeat(starts[arc] - arc_starts, counts[arc]) + np.arange(len(arc_margins))
    margins[at] = arc_margins
    n_samples = [2] * len(edges)
    # per family vertex: (margins, tail sizes) of each outgoing edge, by element
    family = {v: [] for v, label in graph.vertices.items()
              if isinstance(label, ParabolicFamily)}
    arc_start = dict(zip(arc.tolist(), arc_starts.tolist()))
    for i, (v, w) in enumerate(edges):
        lo, hi = int(starts[i]), int(starts[i] + counts[i])
        if exact[i]:
            if v in family:
                a = arc_start[i]
                family[v].append((margins[lo:hi], radii[a + sized[v]:a + hi - lo]))
            continue
        pts = _neighborhood_samples(domains[w], eps, n_boundary, n_interior, seed)
        bnd = domains[v].boundary_points(max(n_boundary, 128), seed + 1)
        margins[lo:hi], sizes = _sampled_edge(domains[v], pts, bnd, mats[v], sized[v])
        n_samples[i] = pts.shape[0]
        if v in family:
            family[v].append((margins[lo:hi], sizes))

    tails = [_tail(v, graph.vertices[v], out, rho) for v, out in family.items()]
    return Certificate(
        edges=list(edges),
        words=[words[v] for v, _ in edges],
        margins=margins,
        n_samples=n_samples,
        exact=exact,
        tails=tails,
        separation=[SeparationFailure(a, b, gap, got) for a, b, gap in separation
                    if (got := pair_gap(system.domain(a), system.domain(b))) < gap],
        epsilon=eps,
        budgets={
            "boundary_samples": n_boundary,
            "interior_samples": n_interior,
            "element_cap": element_cap,
            "seed": seed,
        },
        metadata=metadata or {},
    )


def _check_label(vid, label, words, mats):
    """Raise for an identity singleton, or for a family whose first elements
    ``words``, evaluated to ``mats``, are none or repeat a matrix key.

    Only a short prefix is checked: large powers of a parabolic converge
    projectively, so float keys of distant enumeration elements collide
    without being equal in the group. The word enumeration itself is
    duplicate-free by construction.
    """
    if isinstance(label, Singleton):
        if mats[0].is_identity():
            raise EvaluationError(f"vertex {vid} is labeled by the identity")
        return
    seen = {}
    for w, m in zip(words, mats):
        if (k := m.key()) in seen:
            raise EvaluationError(f"duplicate element in enumeration of {vid}: "
                                  f"{word_str(seen[k])} == {word_str(w)}")
        seen[k] = w
    if not seen:
        raise EvaluationError(f"vertex {vid} is labeled by no element")


def _arc_edges(edges, arcs, eps, mats):
    """Exact per-element margins in arcs[v] and image radii of arcs[w] + eps
    for the arc-to-arc edges (v, w): one flat array each, edge after edge,
    and each edge's first row in them. Each source's matrices are stacked
    once and each target arc expanded once, in edge order (so the first
    edge whose expansion covers RP^1 raises); the rows are gathered by index
    for one ``mobius_arcs`` call."""
    if not edges:
        return np.zeros(0), np.zeros(0), np.zeros(0, dtype=int)
    sources = {v: i for i, v in enumerate(dict.fromkeys(v for v, _ in edges))}
    targets = {w: i for i, w in enumerate(dict.fromkeys(w for _, w in edges))}
    stack = np.reshape([m.arr for v in sources for m in mats[v]], (-1, 2, 2))
    homes = np.array([(arcs[v].center, arcs[v].radius) for v in sources])
    expanded = np.array([(t.center, t.radius) for t in (arcs[w].expand(eps) for w in targets)])
    sizes = np.array([len(mats[v]) for v in sources], dtype=int)
    src = np.array([sources[v] for v, _ in edges], dtype=int)
    counts = sizes[src]
    starts = np.cumsum(counts) - counts
    owner = np.repeat(np.arange(len(edges)), counts)
    rows = (np.cumsum(sizes) - sizes)[src[owner]] + np.arange(len(owner)) - starts[owner]
    home = homes[src[owner]]
    target = expanded[np.array([targets[w] for _, w in edges], dtype=int)[owner]]
    centers, radii = circle.mobius_arcs(stack[rows], target[:, 0], target[:, 1])
    return home[:, 1] - (circle.angle_dists(home[:, 0], centers) + radii), radii, starts


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
