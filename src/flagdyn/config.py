"""Run configuration: JSON schema, validation, and object construction.

Configs are plain JSON with exact integers preserved for matrices.
Matrix entries may be strings in the deformation parameter t, which is
how probe families are declared. They are parsed, not executed: only
numbers, t, pi, e, + - * / ** and the functions of ``_EXPR_NAMES`` are
evaluated; anything else is a ConfigError.

``RunConfig`` reads the whole config once, at load: each value is read
and checked at one site, and each object's keys against its kind, so a
bad section stops every command. Commands read the parsed sections.
"""

from __future__ import annotations

import ast
import dataclasses
import hashlib
import json
import math
import operator
import sys
from collections import namedtuple
from pathlib import Path

import numpy as np

from .automaton import CompatibleSystem, GammaGraph, ParabolicFamily, Singleton
from .domains import ChartBall, ConvexPolytope, SampledSet, arc_ball
from .errors import BadDegree, ConfigError, DegenerateImage, EvaluationError, SingularInput
from .linalg import MAX_DIM, Matrix, gap_degrees
from .projgeom import ProjHyperplane, ProjPoint
from .synth import SynthesisParams
from .words import GroupPresentation, Peripheral, parse_word, word_str

_EXPR_NAMES = {
    "exp": math.exp, "log": math.log, "sqrt": math.sqrt, "sin": math.sin,
    "cos": math.cos, "tan": math.tan, "pi": math.pi, "e": math.e,
}


_OPS = {
    ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
    ast.Div: operator.truediv, ast.Pow: math.pow, ast.UAdd: operator.pos,
    ast.USub: operator.neg,
}


def _eval_expr(node, names):
    """Evaluate a whitelisted expression tree: numbers, number-valued names,
    one-argument calls of function-valued names, unary and binary
    + - * / **. Anything else raises ConfigError."""
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        return node.value
    if isinstance(node, ast.Name) and isinstance(names.get(node.id), (int, float)):
        return names[node.id]
    if isinstance(node, ast.UnaryOp) and type(node.op) in _OPS:
        return _OPS[type(node.op)](_eval_expr(node.operand, names))
    if isinstance(node, ast.BinOp) and type(node.op) in _OPS:
        return _OPS[type(node.op)](_eval_expr(node.left, names), _eval_expr(node.right, names))
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and callable(names.get(node.func.id)) and len(node.args) == 1
            and not node.keywords):
        return names[node.func.id](_eval_expr(node.args[0], names))
    raise ConfigError(f"disallowed expression {ast.unparse(node)!r}")


def _entry(value, what):
    """A matrix entry: a number as given, or an expression string parsed
    once into a function of t."""
    if not isinstance(value, str):
        number(value, what)
        return value
    try:
        node = ast.parse(value, mode="eval").body
    except (SyntaxError, RecursionError, ValueError) as exc:
        raise ConfigError(f"bad matrix entry {value!r}: {exc}") from exc

    def at(t):
        try:
            return float(_eval_expr(node, {**_EXPR_NAMES, "t": t}))
        except (ConfigError, RecursionError, ZeroDivisionError, OverflowError, ValueError) as exc:
            raise ConfigError(f"bad matrix entry {value!r}: {exc}") from exc
    return at


def _matrix(name, rows, t=0.0):
    """Generator ``name`` from rows of numbers and entry functions of t."""
    try:
        if all(isinstance(x, int) for row in rows for x in row):
            return Matrix(np.array(rows, dtype=object))
        return Matrix(np.array([[x(t) if callable(x) else x for x in row] for row in rows]))
    except SingularInput as exc:
        raise ConfigError(f"generator {name}: {exc}") from exc


def number(value, what, kind=float):
    """A numeric config field as a finite float, or an int for ``kind=int``.

    Anything else (null, a string, a list, an object, a boolean, a value
    beyond the finite floats, a fraction for an int field) is a ConfigError.
    """
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not abs(value) <= sys.float_info.max  # NaN, infinite or too large
            or (kind is int and value != int(value))):
        want = "an integer" if kind is int else "a finite number"
        raise ConfigError(f"{what} must be {want}, got {value!r}")
    return kind(value)


def at_least(value, what, low):
    n = number(value, what, int)
    if n < low:
        raise ConfigError(f"{what} must be at least {low}, got {value!r}")
    return n


def _positive(value, what):
    x = number(value, what)
    if x <= 0:
        raise ConfigError(f"{what} must be positive, got {value!r}")
    return x


def check_keys(spec, section, known):
    """Raise a ConfigError naming the keys of ``spec`` that are not ``known``."""
    unknown = sorted(set(spec) - set(known))
    if unknown:
        raise ConfigError(f"unknown {section} keys: {', '.join(unknown)}")


def _object(value, what, known):
    """``value``, an object whose keys are all ``known``; ``what`` names it."""
    if not isinstance(value, dict):
        raise ConfigError(f"{what} must be an object, got {value!r}")
    check_keys(value, what, known)
    return value


def _list(value, what):
    if not isinstance(value, list):
        raise ConfigError(f"{what} must be a list, got {value!r}")
    return value


def _objects(value, what, item, known):
    return [_object(x, item, known) for x in _list(value, what)]


def _text(value, what):
    if not isinstance(value, str):
        raise ConfigError(f"{what} must be a string, got {value!r}")
    return value


def vector(value, what, n):
    if not isinstance(value, list) or len(value) != n:
        raise ConfigError(f"{what} must be a list of {n} numbers, got {value!r}")
    return np.array([number(x, what) for x in value])


def _projective(cls, value, what, n):
    """A ProjPoint or ProjHyperplane of a config vector, which must not be 0."""
    try:
        return cls(vector(value, what, n))
    except DegenerateImage as exc:
        raise ConfigError(f"{what} must be a nonzero vector, got {value!r}") from exc


def config_word(value, what, names):
    """A config word, parsed, in the generator names ``names``."""
    try:
        word = parse_word(_text(value, what))
    except EvaluationError as exc:
        raise ConfigError(f"{what}: {exc}") from exc
    unknown = sorted({name for name, _ in word} - set(names))
    if unknown:
        raise ConfigError(f"{what} {value!r} uses unknown generator {unknown[0]}")
    return word


# the sections a config may have
_SECTIONS = ("dimension", "seeds", "budgets", "generators", "derived", "peripherals", "graph",
             "domains", "delta_separation", "rates", "gaps", "probe", "hilbert", "synthesis")

# keys each vertex type may have
_VERTEX_KEYS = {
    "singleton": ("id", "type", "word"),
    "parabolic": ("id", "type", "peripheral", "coset_word", "min_power", "excluded"),
}

# keys each domain kind takes, besides its kind
_DOMAIN_KEYS = {
    "arc": ("center_angle", "radius_angle"),
    "chart_ball": ("chart", "center", "radius"),
    "polytope": ("chart", "vertices"),
    "union": ("members",),
}

_SYNTHESIS_DEFAULTS = {f.name: f.default for f in dataclasses.fields(SynthesisParams)}


def _label(v, vid, kind, names, peripherals):
    """The label of vertex ``vid``, a ``kind`` vertex object."""
    if kind == "singleton":
        return Singleton(config_word(v.get("word"), f"vertex {vid} word", names))
    p = peripherals.get(_text(v.get("peripheral"), f"vertex {vid} peripheral"))
    if p is None:
        raise ConfigError(f"vertex {vid} references unknown peripheral")
    label = ParabolicFamily(
        coset_word=config_word(v.get("coset_word", ""), f"vertex {vid} coset_word", names),
        peripheral=p.name,
        exclude_below=number(v.get("min_power", 1), f"vertex {vid} min_power", int),
        excluded=tuple(config_word(w, f"vertex {vid} excluded word", names)
                       for w in _list(v.get("excluded", []), f"vertex {vid} excluded")),
    )
    if max(1, label.exclude_below) > p.truncation:
        raise ConfigError(f"vertex {vid} min_power exceeds its peripheral "
                          "truncation, so the label has no element")
    return label


# parsed command sections
Rates = namedtuple("Rates", "depth paths depth_range")
Gaps = namedtuple("Gaps", "text word count k threshold")
Hilbert = namedtuple("Hilbert", "domain x y")


class RunConfig:
    """A run config, read and checked once at load and kept parsed. ``raw``
    is the JSON as loaded; ``probe`` (the t grid), ``gaps`` and ``hilbert``
    are None when the config has no such section."""

    DEFAULT_BUDGETS = {
        "boundary_samples": 64,
        "interior_samples": 48,
        "element_cap": 48,
        "path_count": 100,
        "depth": 20,
    }

    # -- loading -------------------------------------------------------------

    @classmethod
    def load(cls, path) -> "RunConfig":
        p = Path(path)
        try:
            blob = p.read_bytes()
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        try:
            raw = json.loads(blob)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        return cls(raw, str(p), hashlib.sha256(blob).hexdigest()[:16])

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        blob = json.dumps(raw, sort_keys=True).encode()
        return cls(raw, None, hashlib.sha256(blob).hexdigest()[:16])

    def __init__(self, raw, path, config_hash):
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        check_keys(raw, "top-level", _SECTIONS)
        dim = raw.get("dimension")
        if not isinstance(dim, int) or not 2 <= dim <= MAX_DIM:
            raise ConfigError(f"dimension must be an integer in 2..{MAX_DIM}")
        self.dimension, self.raw, self.path, self.config_hash = dim, raw, path, config_hash
        seeds = _object(raw.get("seeds", {}), "seeds", ("master",))
        self.seeds = {"master": at_least(seeds.get("master", 7), "seeds.master", 0)}
        budgets = _object(raw.get("budgets", {}), "budgets", self.DEFAULT_BUDGETS)
        # a sampled path needs two vertices to contract: depth is at least 2
        self.budgets = {key: at_least(budgets.get(key, n), f"budgets.{key}",
                                      2 if key == "depth" else 1)
                        for key, n in self.DEFAULT_BUDGETS.items()}
        names = self._read_group(raw)
        self._read_graph(raw, names)
        self._read_commands(raw, names)

    def _read_group(self, raw):
        """Generators, derived words and peripherals; returns the generator names."""
        d, names = self.dimension, []
        self._generators, self._derived, self.peripherals = {}, [], []
        for g in _objects(raw.get("generators", []), "generators", "generator", ("name", "matrix")):
            name = _text(g.get("name"), "generator name")
            rows = g.get("matrix")
            if not (isinstance(rows, list) and len(rows) == d
                    and all(isinstance(r, list) and len(r) == d for r in rows)):
                raise ConfigError(f"generator {name} matrix must be {d}x{d}")
            rows = [[_entry(x, f"generator {name} matrix entry") for x in r] for r in rows]
            # matrices without an entry in t are built once, here
            constant = not any(callable(x) for r in rows for x in r)
            self._generators[name] = _matrix(name, rows) if constant else rows
            names.append(name)
        for g in _objects(raw.get("derived", []), "derived", "derived generator", ("name", "word")):
            name = _text(g.get("name"), "generator name")
            self._derived.append(
                (name, config_word(g.get("word"), f"derived generator {name} word", names)))
            names.append(name)
        if len(set(names)) < len(names):
            raise ConfigError(f"generator names repeat: {', '.join(names)}")
        for p in _objects(raw.get("peripherals", []), "peripherals", "peripheral",
                          ("name", "generators", "truncation", "parabolic_point")):
            name = _text(p.get("name"), "peripheral name")
            gens = _list(p.get("generators", []), f"peripheral {name} generators")
            if len(gens) not in (1, 2):
                raise ConfigError(f"peripheral {name} must have 1 or 2 generators, "
                                  f"got {len(gens)}")
            for g in gens:
                if _text(g, f"peripheral {name} generator") not in names:
                    raise ConfigError(f"peripheral {name} references unknown generator {g}")
            point = p.get("parabolic_point")
            if point is not None:
                point = vector(point, f"peripheral {name} parabolic_point", d)
            self.peripherals.append(Peripheral(name, list(gens), at_least(
                p.get("truncation", 40), f"peripheral {name} truncation", 1), point))
        return names

    def _read_graph(self, raw, names):
        """The graph of vertex labels, edges and epsilon; domains; the separation table."""
        self._graph = None
        graph = raw.get("graph")
        if graph is not None:
            graph = _object(graph, "graph", ("epsilon", "vertices", "edges"))
            eps = _positive(graph.get("epsilon"), "graph.epsilon")
            peripherals = {p.name: p for p in self.peripherals}
            vertices = {}
            for v in _list(graph.get("vertices", []), "graph.vertices"):
                kind = v.get("type", "singleton") if isinstance(v, dict) else "singleton"
                if kind not in ("singleton", "parabolic"):
                    raise ConfigError(f"unknown vertex type {kind!r}")
                vid = _text(_object(v, f"{kind} vertex", _VERTEX_KEYS[kind]).get("id"),
                            "graph vertex id")
                if vid in vertices:
                    raise ConfigError(f"vertex id {vid} repeats")
                vertices[vid] = _label(v, vid, kind, names, peripherals)
            edges = []
            for e in _list(graph.get("edges", []), "graph.edges"):
                if not (isinstance(e, list) and len(e) == 2 and all(isinstance(x, str) for x in e)):
                    raise ConfigError(f"edge {e} must be a list of two vertex ids")
                edges.append(tuple(e))
            try:
                self._graph = GammaGraph(vertices=vertices, edges=edges, epsilon=eps)
            except ValueError as exc:  # an unknown vertex, or one with no outgoing edge
                raise ConfigError(f"graph: {exc}") from exc
        domains = raw.get("domains", {})
        if not isinstance(domains, dict):
            raise ConfigError("domains must be an object")
        for vid in domains:
            if self._graph is not None and vid not in self._graph.vertices:
                raise ConfigError(f"domain assigned to unknown vertex {vid}")
        self._domains = {vid: self._domain(spec) for vid, spec in domains.items()}
        self.separation = []
        for row in _list(raw.get("delta_separation", []), "delta_separation"):
            if not isinstance(row, list) or len(row) != 3:
                raise ConfigError(f"delta_separation row {row!r} must be [id, id, gap]")
            a, b = (_text(x, "delta_separation vertex id") for x in row[:2])
            if not {a, b} <= self._domains.keys():
                raise ConfigError(f"delta_separation row {row!r} names an unknown vertex")
            gap = number(row[2], f"delta_separation gap of {a} vs {b}")
            self.separation.append((a, b, gap))

    def _domain(self, spec):
        kind = spec.get("kind") if isinstance(spec, dict) else None
        if not isinstance(kind, str) or kind not in _DOMAIN_KEYS:
            raise ConfigError(f"unknown domain kind {kind!r}")
        check_keys(spec, f"{kind} domain", ("kind", *_DOMAIN_KEYS[kind]))
        d = self.dimension
        try:
            if kind == "arc":
                if d != 2:
                    raise ConfigError("arc domains require dimension 2")
                return arc_ball(number(spec.get("center_angle"), "arc center_angle"),
                                number(spec.get("radius_angle"), "arc radius_angle"))
            if kind == "union":
                members = _list(spec.get("members"), "union members")
                return SampledSet([self._domain(m) for m in members])
            chart = _projective(ProjHyperplane, spec.get("chart"), f"{kind} chart", d)
            if kind == "chart_ball":
                return ChartBall(chart, vector(spec.get("center"), "chart_ball center", d - 1),
                                 number(spec.get("radius"), "chart_ball radius"))
            vertices = _list(spec.get("vertices"), "polytope vertices")
            return ConvexPolytope(chart, [vector(v, "polytope vertex", d - 1) for v in vertices])
        except ValueError as exc:  # out-of-range values the domain rejects
            raise ConfigError(f"{kind} domain: {exc}") from exc

    def _read_commands(self, raw, names):
        """The sections of the rates, gaps, probe, hilbert and synthesize commands."""
        spec = _object(raw.get("rates", {}), "rates", ("depth", "paths", "depth_range"))
        depth = at_least(spec.get("depth", self.budgets["depth"]), "rates.depth", 2)
        depth_range = _list(spec.get("depth_range", [2, depth]), "rates.depth_range")
        if len(depth_range) != 2:
            raise ConfigError(f"rates.depth_range must be [first, last], got {depth_range!r}")
        first, last = (number(n, "rates.depth_range entry", int) for n in depth_range)
        if not 1 <= first <= last <= depth:
            raise ConfigError(f"rates.depth_range must satisfy 1 <= first <= last <= "
                              f"rates.depth = {depth}, got {depth_range!r}")
        self.rates = Rates(depth, at_least(spec.get("paths", 12), "rates.paths", 1),
                           (first, last))
        self.gaps = self.probe = self.hilbert = None
        if raw.get("gaps") is not None:
            spec = _object(raw["gaps"], "gaps", ("word", "count", "k", "threshold"))
            word = config_word(spec.get("word"), "gaps.word", names)
            k = number(spec.get("k", 1), "gaps.k", int)
            try:
                gap_degrees(self.dimension, k)
            except BadDegree as exc:  # its message starts with "k"
                raise ConfigError(f"gaps.{exc}") from exc
            self.gaps = Gaps(spec["word"], word,
                             at_least(spec.get("count", 100), "gaps.count", 1), k,
                             number(spec.get("threshold", 5.0), "gaps.threshold"))
        if raw.get("probe") is not None:
            spec = _object(raw["probe"], "probe", ("t_grid",))
            self.probe = list(_list(spec.get("t_grid"), "probe.t_grid"))
            for t in self.probe:
                number(t, "probe.t_grid entry")
        if raw.get("hilbert") is not None:
            spec = _object(raw["hilbert"], "hilbert", ("domain", "x", "y"))
            self.hilbert = Hilbert(self._domain(spec.get("domain")), *(
                _projective(ProjPoint, spec.get(k), f"hilbert.{k}", self.dimension)
                for k in "xy"))
        spec = _object(raw.get("synthesis", {}), "synthesis", _SYNTHESIS_DEFAULTS)
        # integer fields take integers >= 0; epsilon and delta positive numbers
        self.synthesis = SynthesisParams(**{
            key: at_least(v, f"synthesis.{key}", 0) if isinstance(_SYNTHESIS_DEFAULTS[key], int)
            else _positive(v, f"synthesis.{key}") for key, v in spec.items()})
        if not self.synthesis.balls_are_arcs():
            raise ConfigError("synthesis.epsilon and synthesis.delta must satisfy "
                              "2 (delta + epsilon) < pi/2, got epsilon "
                              f"{self.synthesis.epsilon} and delta {self.synthesis.delta}")

    # -- construction ----------------------------------------------------------

    def presentation(self, t: float = 0.0) -> GroupPresentation:
        """The group at parameter t: only matrices with an entry in t are built
        here. A generator or derived word singular at t, or a relation the
        presentation checks that fails at t, is a ConfigError."""
        gens = {name: m if isinstance(m, Matrix) else _matrix(f"{name} at t = {t}", m, t)
                for name, m in self._generators.items()}
        # each presentation inverts all its generators, and only the derived
        # generator added last is new to it, so a SingularInput names that one
        what = "a generator"
        try:
            for name, word in self._derived:
                base = GroupPresentation(dim=self.dimension, generators=dict(gens))
                what = f"derived generator {name} = {word_str(word)}"
                gens[name] = base.evaluate(word)
            return GroupPresentation(dim=self.dimension, generators=gens,
                                     peripherals=self.peripherals)
        except SingularInput as exc:
            raise ConfigError(f"{what} is singular at t = {t}: {exc}") from exc
        except EvaluationError as exc:  # g g^-1 or a peripheral commutator is not id
            raise ConfigError(f"{exc} at t = {t}") from exc

    def graph(self) -> GammaGraph:
        if self._graph is None:
            raise ConfigError("config has no graph section")
        return self._graph

    def system(self) -> CompatibleSystem:
        if not self._domains:
            raise ConfigError("config has no domains section")
        return CompatibleSystem(domains=dict(self._domains))

    # -- writing ---------------------------------------------------------------

    def with_automaton(self, graph: GammaGraph, points: dict) -> dict:
        """This config's JSON with ``graph``, in its vertex and edge order, and
        for each vertex v the arc of radius epsilon about angle ``points[v]``:
        what ``_read_graph`` reads back. The separation table is dropped, as
        its rows name the vertices that ``graph`` replaces."""
        def text(word):  # the identity is "", which parse_word reads back
            return word_str(word) if word else ""

        def vertex(vid, label):
            if isinstance(label, Singleton):
                return {"id": vid, "type": "singleton", "word": text(label.word)}
            return {"id": vid, "type": "parabolic", "peripheral": label.peripheral,
                    "coset_word": text(label.coset_word), "min_power": label.exclude_below,
                    "excluded": [text(w) for w in label.excluded]}

        raw = {key: v for key, v in self.raw.items() if key != "delta_separation"}
        raw["graph"] = {"epsilon": graph.epsilon,
                        "vertices": [vertex(v, label) for v, label in graph.vertices.items()],
                        "edges": [list(e) for e in graph.edges]}
        raw["domains"] = {v: {"kind": "arc", "center_angle": points[v],
                              "radius_angle": graph.epsilon} for v in graph.vertices}
        return raw
