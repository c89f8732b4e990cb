"""Run configuration: JSON schema, validation, and object construction.

Configs are plain JSON with exact integers preserved for matrices.
Matrix entries may be strings in the deformation parameter t, which is
how probe families are declared. They are parsed, not executed: only
numbers, t, pi, e, + - * / ** and the functions of ``_EXPR_NAMES`` are
evaluated; anything else is a ConfigError.
"""

from __future__ import annotations

import ast
import hashlib
import json
import math
import operator
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .automaton import CompatibleSystem, GammaGraph, ParabolicFamily, Singleton, pair_gap
from .domains import ChartBall, ConvexPolytope, SampledSet
from .errors import ConfigError, SingularInput
from .linalg import Matrix
from .projgeom import ProjHyperplane
from .systems import arc_ball
from .words import GroupPresentation, Peripheral, parse_word

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


def _entry(value, t=0.0):
    if isinstance(value, (int, float)):
        return value
    if isinstance(value, str):
        try:
            return float(_eval_expr(ast.parse(value, mode="eval").body,
                                    {**_EXPR_NAMES, "t": t}))
        except (ConfigError, SyntaxError, RecursionError, ZeroDivisionError,
                OverflowError, ValueError) as exc:
            raise ConfigError(f"bad matrix entry {value!r}: {exc}") from exc
    raise ConfigError(f"bad matrix entry {value!r}")


def number(value, what, kind=float):
    """A numeric config field as a finite float, or an int for ``kind=int``.

    Anything else (null, a string, a list, an object, a boolean, a value
    that is not finite, a fraction for an int field) is a ConfigError.
    """
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not math.isfinite(value) or (kind is int and value != int(value))):
        want = "an integer" if kind is int else "a finite number"
        raise ConfigError(f"{what} must be {want}, got {value!r}")
    return kind(value)


def _epsilon(value):
    eps = number(value, "graph.epsilon")
    if eps <= 0:
        raise ConfigError(f"graph.epsilon must be positive, got {eps!r}")
    return eps


def _truncation(peripheral):
    return number(peripheral.get("truncation", 40),
                  f"peripheral {peripheral['name']} truncation", int)


def _vector(value, what, n):
    if not isinstance(value, list) or len(value) != n:
        raise ConfigError(f"{what} must be a list of {n} numbers, got {value!r}")
    return np.array([number(x, what) for x in value])


# keys each domain kind requires
_DOMAIN_KEYS = {
    "arc": ("center_angle", "radius_angle"),
    "chart_ball": ("chart", "center", "radius"),
    "polytope": ("chart", "vertices"),
    "union": ("members",),
}


def _text(value, what):
    if not isinstance(value, str):
        raise ConfigError(f"{what} must be a string, got {value!r}")
    return value


def _matrix(rows, t=0.0):
    if all(isinstance(x, int) for row in rows for x in row):
        return Matrix(np.array(rows, dtype=object))
    vals = [[_entry(x, t) for x in row] for row in rows]
    return Matrix(np.array(vals))


@dataclass
class RunConfig:
    dimension: int
    raw: dict
    path: str | None
    config_hash: str
    seeds: dict = field(default_factory=dict)
    budgets: dict = field(default_factory=dict)
    tolerances: dict = field(default_factory=dict)

    DEFAULT_BUDGETS = {
        "boundary_samples": 64,
        "interior_samples": 48,
        "element_cap": 48,
        "path_count": 100,
        "depth": 20,
    }
    DEFAULT_TOLERANCES = {
        "convergence": 1e-9,
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
        return cls._from_raw(raw, str(p), hashlib.sha256(blob).hexdigest()[:16])

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        blob = json.dumps(raw, sort_keys=True).encode()
        return cls._from_raw(raw, None, hashlib.sha256(blob).hexdigest()[:16])

    @classmethod
    def _from_raw(cls, raw, path, digest):
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        dim = raw.get("dimension")
        if not isinstance(dim, int) or dim < 2:
            raise ConfigError("dimension must be an integer >= 2")
        for section in ("seeds", "budgets", "tolerances"):
            if not isinstance(raw.get(section, {}), dict):
                raise ConfigError(f"{section} must be an object")
        for section, known in (("budgets", cls.DEFAULT_BUDGETS),
                               ("tolerances", cls.DEFAULT_TOLERANCES)):
            unknown = sorted(set(raw.get(section, {})) - set(known))
            if unknown:
                raise ConfigError(f"unknown {section} keys: {', '.join(unknown)}")
        cfg = cls(
            dimension=dim,
            raw=raw,
            path=path,
            config_hash=digest,
            seeds={"master": 7, **raw.get("seeds", {})},
            budgets={**cls.DEFAULT_BUDGETS, **raw.get("budgets", {})},
            tolerances={**cls.DEFAULT_TOLERANCES, **raw.get("tolerances", {})},
        )
        cfg.seeds["master"] = number(cfg.seeds["master"], "seeds.master", int)
        if cfg.seeds["master"] < 0:
            raise ConfigError("seeds.master must be a nonnegative integer")
        for key, val in cfg.budgets.items():
            cfg.budgets[key] = number(val, f"budgets.{key}", int)
            if cfg.budgets[key] < 1:
                raise ConfigError(f"budgets.{key} must be positive")
        for key, val in cfg.tolerances.items():
            cfg.tolerances[key] = number(val, f"tolerances.{key}")
            if cfg.tolerances[key] <= 0:
                raise ConfigError(f"tolerances.{key} must be positive")
        cfg._validate_refs()
        return cfg

    def _validate_refs(self):
        raw = self.raw
        gen_names = {_text(g.get("name"), "generator name")
                     for g in raw.get("generators", []) + raw.get("derived", [])}
        for d in raw.get("derived", []):
            _text(d.get("word"), f"derived generator {d['name']} word")
        for g in raw.get("generators", []):
            rows = g.get("matrix")
            if (
                not isinstance(rows, list)
                or len(rows) != self.dimension
                or any(len(r) != self.dimension for r in rows)
            ):
                raise ConfigError(f"generator {g.get('name')} matrix must be {self.dimension}x{self.dimension}")
        for p in raw.get("peripherals", []):
            for g in p.get("generators", []):
                if g not in gen_names:
                    raise ConfigError(f"peripheral {p.get('name')} references unknown generator {g}")
        graph = raw.get("graph")
        if graph is not None:
            pnames = {p["name"] for p in raw.get("peripherals", [])}
            ids = set()
            for v in graph.get("vertices", []):
                vid = _text(v.get("id"), "graph vertex id")
                ids.add(vid)
                if v.get("type") == "parabolic":
                    if v.get("peripheral") not in pnames:
                        raise ConfigError(f"vertex {vid} references unknown peripheral")
                elif "word" not in v:
                    raise ConfigError(f"singleton vertex {vid} needs a word")
                for key in ("word", "coset_word"):
                    if key in v:
                        _text(v[key], f"vertex {vid} {key}")
                excluded = v.get("excluded", [])
                if not isinstance(excluded, list):
                    raise ConfigError(f"vertex {vid} excluded must be a list of words")
                for w in excluded:
                    _text(w, f"vertex {vid} excluded word")
            for e in graph.get("edges", []):
                if not (isinstance(e, (list, tuple)) and len(e) == 2
                        and all(isinstance(x, str) and x in ids for x in e)):
                    raise ConfigError(f"edge {e} references unknown vertex")
            for vid in raw.get("domains", {}):
                if vid not in ids:
                    raise ConfigError(f"domain assigned to unknown vertex {vid}")

    # -- construction ----------------------------------------------------------

    def presentation(self, t: float = 0.0) -> GroupPresentation:
        gens = {}
        for g in self.raw.get("generators", []):
            try:
                gens[g["name"]] = _matrix(g["matrix"], t)
            except SingularInput as exc:
                raise ConfigError(f"generator {g['name']}: {exc}") from exc
        for d in self.raw.get("derived", []):
            base = GroupPresentation(dim=self.dimension, generators=dict(gens))
            gens[d["name"]] = base.evaluate(parse_word(d["word"]))
        peripherals = [
            Peripheral(
                name=p["name"],
                generators=list(p["generators"]),
                truncation=_truncation(p),
                abelian=bool(p.get("abelian", True)),
                parabolic_point=p.get("parabolic_point"),
            )
            for p in self.raw.get("peripherals", [])
        ]
        return GroupPresentation(dim=self.dimension, generators=gens,
                                 peripherals=peripherals)

    def graph(self) -> GammaGraph:
        g = self.raw.get("graph")
        if g is None:
            raise ConfigError("config has no graph section")
        vertices = {}
        for v in g.get("vertices", []):
            if v.get("type") == "parabolic":
                label = vertices[v["id"]] = ParabolicFamily(
                    coset_word=parse_word(v.get("coset_word", "")),
                    peripheral=v["peripheral"],
                    exclude_below=number(v.get("min_power", 1),
                                         f"vertex {v['id']} min_power", int),
                    excluded=tuple(parse_word(w) for w in v.get("excluded", [])),
                )
                p = next(p for p in self.raw["peripherals"] if p["name"] == v["peripheral"])
                if max(1, label.exclude_below) > _truncation(p):
                    raise ConfigError(f"vertex {v['id']} min_power exceeds its peripheral "
                                      "truncation, so the label has no element")
            else:
                vertices[v["id"]] = Singleton(parse_word(v["word"]))
        eps = g.get("epsilon", "auto")
        edges = [tuple(e) for e in g.get("edges", [])]
        if eps == "auto":
            system = self.system(epsilon=1.0)
            eps = 0.1 * system.min_pairwise_gap()
            if eps <= 0:
                raise ConfigError("auto epsilon failed: assigned domains touch")
        return GammaGraph(vertices=vertices, edges=edges, epsilon=_epsilon(eps))

    def domain(self, spec):
        kind = spec.get("kind") if isinstance(spec, dict) else None
        if not isinstance(kind, str) or kind not in _DOMAIN_KEYS:
            raise ConfigError(f"unknown domain kind {kind!r}")
        missing = [key for key in _DOMAIN_KEYS[kind] if key not in spec]
        if missing:
            raise ConfigError(f"{kind} domain needs {', '.join(missing)}")
        d = self.dimension
        try:
            if kind == "arc":
                if d != 2:
                    raise ConfigError("arc domains require dimension 2")
                return arc_ball(number(spec["center_angle"], "arc center_angle"),
                                number(spec["radius_angle"], "arc radius_angle"))
            if kind == "union":
                if not isinstance(spec["members"], list):
                    raise ConfigError("union members must be a list of domains")
                return SampledSet([self.domain(m) for m in spec["members"]])
            chart = ProjHyperplane(_vector(spec["chart"], f"{kind} chart", d))
            if kind == "chart_ball":
                return ChartBall(chart, _vector(spec["center"], "chart_ball center", d - 1),
                                 number(spec["radius"], "chart_ball radius"))
            vertices = spec["vertices"]
            if not isinstance(vertices, list):
                raise ConfigError("polytope vertices must be a list of points")
            return ConvexPolytope(chart, [_vector(v, "polytope vertex", d - 1) for v in vertices])
        except ValueError as exc:  # out-of-range values the domain rejects
            raise ConfigError(f"{kind} domain: {exc}") from exc

    def system(self, epsilon: float) -> CompatibleSystem:
        doms = {vid: self.domain(spec) for vid, spec in self.raw.get("domains", {}).items()}
        if not doms:
            raise ConfigError("config has no domains section")
        return CompatibleSystem(domains=doms, epsilon=epsilon)

    def check_separation(self, system: CompatibleSystem):
        """User-declared FS separation table, checked not derived."""
        failures = []
        for entry in self.raw.get("delta_separation", []):
            if not isinstance(entry, list) or len(entry) != 3:
                raise ConfigError(f"delta_separation row {entry!r} must be [id, id, gap]")
            a = _text(entry[0], "delta_separation vertex id")
            b = _text(entry[1], "delta_separation vertex id")
            gap = number(entry[2], f"delta_separation gap of {a} vs {b}")
            actual = pair_gap(system.domain(a), system.domain(b), 64, 32, 0)
            if actual < gap:
                failures.append((a, b, gap, actual))
        return failures
