"""Workload definitions: the op list of one pass, and each op's correctness check.

Imported after ``run.py`` has put this checkout's ``src/`` on the path.

An op runs one CLI command through ``flagdyn.cli.main`` (or, for the
criterion-8 quasigeodesic stage, the public library calls) in-process.
Each op writes into its own output directory; ``run.py`` times it,
checks it and digests what it wrote.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from flagdyn import automaton, conedoff, config, synth, words

# The bundled configs' master seed: numeric pins of sampled results are
# only known at this seed (see ``Op.check``).
DEFAULT_SEED = 7

# Criterion-8 quasigeodesic stage, as in tests/test_acceptance.py and
# scripts/modular_synthesis.py. The path seed is fixed: QG cost changes
# about 6x between path seeds (farthest distances 10/9 at seed 1 against
# 7/7 at seed 2), so a seed-dependent path choice would make runs of
# different seeds incomparable loads.
QG_PATH_SEED = 1
QG_DEPTH = 4
QG_MAX_POWER = 24
QG_TRUNCATION = 28
QG_RADIUS = 16
QG_D_MAX = 3

PGL2Z_PINS = {"vertices": 279, "edges": 2845, "parabolic": 4}
JORDAN_D4_MIN_MARGIN = 0.10415932647155943


class CheckFailed(Exception):
    pass


def expect(cond, what):
    if not cond:
        raise CheckFailed(what)


@dataclass
class Op:
    """One operation of a pass.

    ``argv`` ops go through the CLI; ``fn`` ops are library calls that
    return their stdout-equivalent text. ``check(result, seed)`` raises
    CheckFailed and may return load counts to record next to timings.
    """

    id: str
    command: str  # per-command metric this op's time is charged to
    expected_rc: int
    check: Callable
    argv: list | None = None
    fn: Callable | None = None
    # load sizes too costly to read every pass; computed once, untimed,
    # after the untraced passes
    load_after: Callable | None = None


@dataclass
class OpResult:
    rc: int
    stdout: str
    outdir: Path


def _float_after(label, text):
    m = re.search(re.escape(label) + r"\s+(\S+)", text)
    expect(m is not None, f"no '{label}' in output")
    return float(m.group(1))


def _certificate_records(outdir):
    return len(json.loads((outdir / "certificate.json").read_text())["records"])


# -- independent Mobius interval oracle (RP^1, angle metric) ------------------


def _angle(x, y):
    return math.atan2(y, x) % math.pi


def _image_interval(m, lo, hi):
    """Image of the closed interval [lo, hi] of RP^1 (angles, lo < hi) under m.

    Returned as (start, length) going counter-clockwise, chosen as the
    complementary piece that holds the image of the interval's midpoint.
    """
    def img(theta):
        x, y = math.cos(theta), math.sin(theta)
        return _angle(m[0][0] * x + m[0][1] * y, m[1][0] * x + m[1][1] * y)

    a, b, mid = img(lo), img(hi), img((lo + hi) / 2)
    length = (b - a) % math.pi
    if (mid - a) % math.pi <= length:
        return a, length
    return b, math.pi - length


def schottky_oracle_margin(config):
    """Min over edges (v, w) of the margin of g_v N(U_w, eps) inside U_v.

    Works from the config JSON alone: matrices as plain floats (the
    projective action ignores scale), inverses by adjugate, arcs from
    their declared centers and radii.
    """
    gens = {}
    for g in config["generators"]:
        m = [[float(x) for x in row] for row in g["matrix"]]
        gens[g["name"]] = m
        gens[g["name"] + "^-1"] = [[m[1][1], -m[0][1]], [-m[1][0], m[0][0]]]
    word_of = {v["id"]: v["word"] for v in config["graph"]["vertices"]}
    eps = config["graph"]["epsilon"]
    dom = {k: (d["center_angle"], d["radius_angle"]) for k, d in config["domains"].items()}
    worst = math.inf
    for v, w in config["graph"]["edges"]:
        cw, rw = dom[w]
        start, length = _image_interval(gens[word_of[v]], cw - rw - eps, cw + rw + eps)
        cv, rv = dom[v]
        # both image endpoints, measured from the home arc's left end
        first = (start - (cv - rv)) % math.pi
        margin = min(first, 2 * rv - (first + length))
        worst = min(worst, margin)
    return worst


# -- checks --------------------------------------------------------------------


def _check_certify_schottky(oracle):
    def check(res, seed):
        margin = _float_after("PASS min margin", res.stdout)
        expect(abs(margin - oracle) <= 1e-6,
               f"schottky min margin {margin!r} vs oracle {oracle!r}")
        return {"certificate_records": _certificate_records(res.outdir)}
    return check


def _check_fail_verdict(res, seed):
    expect(res.stdout.startswith("FAIL"), "negative control did not report FAIL")
    return {"certificate_records": _certificate_records(res.outdir)}


def _check_limitset(count):
    def check(res, seed):
        rows = (res.outdir / "limit_set.csv").read_text().splitlines()
        expect(len(rows) == count + 2, f"limit_set.csv has {len(rows) - 2} points, want {count}")
        expect((res.outdir / "limit_set.svg").stat().st_size > 0, "empty limit_set.svg")
        return {"certificate_records": _certificate_records(res.outdir), "points": count}
    return check


def _check_rates(expected=None):
    def check(res, seed):
        lam = _float_after("lambda2", res.stdout)
        expect(math.isfinite(lam) and lam > 0, f"lambda2 {lam!r} not positive")
        if expected is not None:
            expect(abs(lam - expected) <= 0.1 * expected,
                   f"lambda2 {lam!r} not within 10% of {expected!r}")
        return {"certificate_records": _certificate_records(res.outdir)}
    return check


def _check_gaps(res, seed):
    gap = _float_after("final gap", res.stdout.replace(";", " "))
    expect(math.isfinite(gap) and gap > 0, f"final gap {gap!r}")
    return {}


def _check_hilbert(res, seed):
    val = float(res.stdout.split()[0])
    expect(abs(val - math.log(3.0)) <= 1e-12, f"hilbert {val!r} != ln 3")
    return {}


def _check_probe(first_fail):
    def check(res, seed):
        got = res.stdout.strip().rsplit(":", 1)[1].strip()
        if seed == DEFAULT_SEED:
            expect(got == first_fail, f"first failing t {got}, want {first_fail}")
        return {}
    return check


def _check_certify_d4(res, seed):
    margin = _float_after("PASS min margin", res.stdout)
    if seed == DEFAULT_SEED:
        expect(margin == JORDAN_D4_MIN_MARGIN,
               f"jordan d=4 min margin {margin!r}, want {JORDAN_D4_MIN_MARGIN!r}")
    return {"certificate_records": _certificate_records(res.outdir)}


def _check_synthesize(res, seed):
    m = re.search(r"synthesized (\d+) vertices / (\d+) edges; certificate (\w+)", res.stdout)
    expect(m is not None, "no synthesis summary line")
    report = (res.outdir / "synthesis.txt").read_text()
    par = re.search(r"\(parabolic (\d+)\)", report)
    got = {"vertices": int(m.group(1)), "edges": int(m.group(2)),
           "parabolic": int(par.group(1)) if par else -1}
    expect(got == PGL2Z_PINS and m.group(3) == "PASS",
           f"synthesis {got} {m.group(3)}, want {PGL2Z_PINS} PASS")
    blob = json.loads((res.outdir / "synthesis.json").read_text())
    expect(blob["certificate_pass"] is True, "synthesis.json says the certificate failed")
    return got


def _synthesis_pool_size(config_path):
    def size():
        cfg = config.RunConfig.load(config_path)
        params = synth.SynthesisParams(**cfg.raw.get("synthesis", {}))
        return {"pool_words": len(synth._ConicalSearcher(cfg.presentation(), params).words)}
    return size


# -- the quasigeodesic (criterion 8) stage -------------------------------------


def _graph_from_synthesis(blob):
    """Rebuild the synthesized automaton from the synthesis.json the CLI wrote."""
    vertices = {}
    for v in blob["vertices"]:
        if v["type"] == "singleton":
            vertices[v["id"]] = automaton.Singleton(words.parse_word(v["word"]))
        else:
            vertices[v["id"]] = automaton.ParabolicFamily(
                coset_word=words.parse_word(v["coset_word"]),
                peripheral=v["peripheral"],
                exclude_below=int(v["min_power"]),
            )
    edges = [tuple(e) for e in blob["edges"]]
    return automaton.GammaGraph(vertices=vertices, edges=edges, epsilon=blob["epsilon"])


class CountingConedGraph(conedoff.ConedGraph):
    """Counts BFS expansions: one increment per node expanded."""

    expansions = 0

    def neighbors(self, node):
        self.expansions += 1
        return super().neighbors(node)


def _qg_stage(config_path, synthesis_json):
    """The criterion-8 op: automaton paths of this pass's synthesis, tracked
    against geodesics of the truncated coned-off graph.

    Library functions are looked up as module attributes on each call, so
    a traced pass runs the wrapped ones.
    """

    def run(outdir):
        rho = config.RunConfig.load(config_path).presentation()
        graph = _graph_from_synthesis(json.loads(Path(synthesis_json).read_text()))
        paths, _ = automaton.enumerate_paths(graph, QG_DEPTH, "random", rho,
                                             seed=QG_PATH_SEED, cap=40,
                                             elements_per_vertex=1)
        usable = [p for p in paths
                  if max((abs(e) for w in p.words for _, e in w), default=0) <= QG_MAX_POWER]
        usable = usable[:2]
        pres = conedoff.Presentation(generators=sorted(rho.generators),
                                     peripherals=[("pt", "t")], kind="matrix", rho=rho)
        coned = CountingConedGraph(pres, truncation=QG_TRUNCATION, max_nodes=2500000)
        lines = []
        for p in usable:
            prefixes, acc = [], ()
            for w in p.words:
                acc = words.concat(acc, w)
                prefixes.append(acc)
            rep = conedoff.quasigeodesic_check(coned, prefixes, radius=QG_RADIUS,
                                               d_max=QG_D_MAX)
            lines.append(f"path {p.code()} D {rep.measured_d} farthest {rep.farthest_distance} "
                         f"geodesic {rep.geodesic_length}")
        lines.append(f"usable {len(usable)} expansions {coned.expansions} "
                     f"nodes {len(coned._elems)}")
        return 0, "\n".join(lines) + "\n"

    return run


def _check_qg(res, seed):
    paths = re.findall(r"D (\d+) farthest (\d+)", res.stdout)
    expect(len(paths) == 2, f"{len(paths)} usable QG paths, want 2")
    ds = [int(d) for d, _ in paths]
    expect(max(ds) <= QG_D_MAX, f"QG Hausdorff D {ds} exceeds {QG_D_MAX}")
    tail = re.search(r"expansions (\d+) nodes (\d+)", res.stdout)
    return {"qg_d": ds, "qg_farthest": [int(f) for _, f in paths],
            "bfs_expansions": int(tail.group(1)), "coned_nodes": int(tail.group(2))}


# -- workloads -----------------------------------------------------------------


def jordan_d4_config(root):
    """The benchmark's d=4 config: jordan_diag.json plus the sections the
    limitset, rates and gaps commands need."""
    raw = json.loads((root / "configs" / "jordan_diag.json").read_text())
    raw["budgets"].update({"depth": 8, "path_count": 32})
    raw["rates"] = {"depth": 10, "paths": 4, "depth_range": [2, 10]}
    raw["gaps"] = {"word": "M A", "count": 100, "k": 1}
    return raw


def build(workload, root: Path, work: Path, seed: int):
    """Op list of one pass of ``workload``; writes generated configs under ``work``."""
    cfg = Path("configs")
    s = ["--seed", str(seed)]

    def cli(op_id, command, args, rc, check):
        return Op(op_id, command, rc, check,
                  argv=[command] + args + s + ["--out", str(work / op_id)])

    if workload == "rp1":
        schottky = json.loads((root / cfg / "schottky.json").read_text())
        oracle = schottky_oracle_margin(schottky)
        count = schottky["budgets"]["path_count"]
        return [
            cli("certify-schottky", "certify", ["--config", str(cfg / "schottky.json")],
                0, _check_certify_schottky(oracle)),
            cli("certify-repelling", "certify",
                ["--config", str(cfg / "schottky_repelling.json")], 1, _check_fail_verdict),
            cli("limitset-schottky", "limitset",
                ["--svg", "--config", str(cfg / "schottky.json")], 0, _check_limitset(count)),
            cli("rates-single-loop", "rates", ["--config", str(cfg / "single_loop.json")],
                0, _check_rates(2 * math.log(4.0))),
            cli("gaps-single-loop", "gaps", ["--config", str(cfg / "single_loop.json")],
                0, _check_gaps),
            Op("hilbert-interval", "hilbert", 0, _check_hilbert,
               argv=["hilbert", "--interval", "-1", "1", "--points", "0", "0.5"]),
        ]
    if workload == "jordan-d4":
        raw = jordan_d4_config(root)
        d4 = work / "jordan_d4.json"
        d4.parent.mkdir(parents=True, exist_ok=True)
        d4.write_text(json.dumps(raw, indent=1, sort_keys=True) + "\n")
        return [
            cli("probe-split", "probe", ["--config", str(cfg / "jordan_split.json")],
                1, _check_probe("0.01")),
            cli("probe-diag", "probe", ["--config", str(cfg / "jordan_diag.json")],
                0, _check_probe("None")),
            cli("certify-d4", "certify", ["--config", str(d4)], 0, _check_certify_d4),
            cli("limitset-d4", "limitset", ["--svg", "--config", str(d4)],
                0, _check_limitset(raw["budgets"]["path_count"])),
            cli("rates-d4", "rates", ["--config", str(d4)], 0, _check_rates()),
            cli("gaps-d4", "gaps", ["--config", str(d4)], 0, _check_gaps),
        ]
    if workload == "pgl2z":
        synth_dir = work / "synthesize-pgl2z"
        synthesize = cli("synthesize-pgl2z", "synthesize",
                         ["--config", str(cfg / "pgl2z.json")], 0, _check_synthesize)
        synthesize.load_after = _synthesis_pool_size(cfg / "pgl2z.json")
        return [
            synthesize,
            Op("qg-pgl2z", "qg", 0, _check_qg,
               fn=_qg_stage(cfg / "pgl2z.json", synth_dir / "synthesis.json")),
        ]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("rp1", "jordan-d4", "pgl2z")
