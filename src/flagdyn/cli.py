"""Command-line front end.

Exit codes: 0 pass, 1 certification/criterion failure, 2 usage or config
error. Machine-readable outputs embed the config hash and seeds, and are
byte-identical across runs with the same config and seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from pathlib import Path

from . import __version__
from .automaton import peripheral_stability_probe, verify_compatibility
from .config import RunConfig, at_least, number
from .domains import ChartBall, zimmer_metric
from .dynamics import limit_set_sample, shrink_rates
from .errors import ConfigError, FlagdynError
from .linalg import flag_divergent, gap_trace
from .projgeom import ProjHyperplane, chart_point
from .synth import synthesize_rp1


def _fmt(x):
    return f"{x:.17g}"


def _header(cfg: RunConfig, seed, extra=None):
    lines = [
        f"tool flagdyn {__version__}",
        f"config {cfg.path or '<inline>'} hash {cfg.config_hash}",
        f"seed {seed}",
        f"budgets {json.dumps(cfg.budgets, sort_keys=True)}",
    ]
    if extra:
        lines.extend(extra)
    return lines


def _load(args):
    """The config, seed and output directory a command runs with."""
    cfg = RunConfig.load(args.config)
    seed = cfg.seeds["master"] if args.seed is None else at_least(args.seed, "--seed", 0)
    return cfg, seed, Path(args.out)


def _certifying(cfg: RunConfig, seed):
    """The ``verify_compatibility`` budgets, seed and metadata of every command."""
    return {"n_boundary": cfg.budgets["boundary_samples"],
            "n_interior": cfg.budgets["interior_samples"],
            "element_cap": cfg.budgets["element_cap"], "seed": seed,
            "metadata": {"config_hash": cfg.config_hash, "seed": seed}}


def _write(outdir: Path, name: str, text: str):
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / name
    path.write_text(text)
    return path


def _run_certify(cfg: RunConfig, seed: int, outdir: Path):
    rho = cfg.presentation()
    graph = cfg.graph()
    system = cfg.system()
    cert = verify_compatibility(graph, system, rho, separation=cfg.separation,
                                **_certifying(cfg, seed))
    report = _header(cfg, seed, [f"epsilon {_fmt(graph.epsilon)}"])
    report.append(f"records {len(cert.records)}  min margin {_fmt(cert.min_margin)}")
    for r in cert.records:
        report.append("  " + r.describe())
    for t in cert.tails:
        report.append(
            f"  tail {t.vertex}: margins nondecreasing = {t.margins_nondecreasing}, "
            f"diameters nonincreasing = {t.diameters_nonincreasing} "
            f"({t.checked} elements checked; heuristic, disclosed)"
        )
    if cert.separation:
        report.append("separation table FAILURES:")
        report.extend(f"  {s}" for s in cert.separation)
    first = cert.first_failure()
    failure = None if first is None else first.describe()
    report.append(f"verdict {'FAIL' if failure else 'PASS'}")
    if failure:
        report.append(f"first failing record: {failure}")
    _write(outdir, "certificate_report.txt", "\n".join(report) + "\n")
    _write(outdir, "certificate.json", json.dumps(cert.to_dict(), sort_keys=True))
    return failure, cert, (rho, graph, system)


def cmd_certify(args):
    cfg, seed, outdir = _load(args)
    failure, cert, _ = _run_certify(cfg, seed, outdir)
    if failure:
        print(f"FAIL first failing record: {failure}")
        return 1
    print(f"PASS min margin {_fmt(cert.min_margin)}")
    return 0


def cmd_limitset(args):
    cfg, seed, outdir = _load(args)
    failure, cert, (rho, graph, system) = _run_certify(cfg, seed, outdir)
    if failure:
        print("refusing to sample an uncertified system")
        return 1
    depth = cfg.budgets["depth"]
    count = cfg.budgets["path_count"]
    results = limit_set_sample(graph, rho, system, depth, count, seed=seed, certificate=cert)
    rows = [
        "# " + " | ".join(_header(cfg, seed, [f"depth {depth}", f"count {count}"])),
        ",".join([f"x{i}" for i in range(cfg.dimension)] + ["path_code", "radius_bound"]),
    ]
    for r in results:
        rows.append(",".join([_fmt(c) for c in r.limit.coords]
                             + [r.path.code(), _fmt(r.radius_bound)]))
    path = _write(outdir, "limit_set.csv", "\n".join(rows) + "\n")
    print(f"wrote {path} ({len(results)} points)")
    if args.svg:
        svg = _render_svg(cfg, [r.limit for r in results])
        path = _write(outdir, "limit_set.svg", svg)
        print(f"wrote {path}")
    return 0


def _render_svg(cfg, limits, size=640):
    """Scatter plot; the chart projection is declared in the header comment."""
    pts = []
    if cfg.dimension == 2:
        projection = "angle doubling: (cos 2a, sin 2a) for point angle a"
        for p in limits:
            a = math.atan2(p.coords[1], p.coords[0])
            pts.append((math.cos(2 * a), math.sin(2 * a)))
    else:
        projection = "affine chart: (x1/x0, x2/x0), points with |x0| < 1e-6 dropped"
        for p in limits:
            if abs(p.coords[0]) > 1e-6:
                pts.append((p.coords[1] / p.coords[0], p.coords[2] / p.coords[0]))
    if pts:
        xs, ys = zip(*pts)
        lo, hi = min(min(xs), min(ys)) - 0.1, max(max(xs), max(ys)) + 0.1
    else:
        lo, hi = -1.1, 1.1
    scale = size / (hi - lo)
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}">',
        f"<!-- flagdyn {__version__} limit set; projection: {projection}; "
        f"config hash {cfg.config_hash} -->",
        f'<rect width="{size}" height="{size}" fill="white"/>',
    ]
    for x, y in pts:
        cx = (x - lo) * scale
        cy = size - (y - lo) * scale
        out.append(f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="1.5" fill="black"/>')
    out.append("</svg>")
    return "\n".join(out)


def cmd_rates(args):
    cfg, seed, outdir = _load(args)
    failure, cert, (rho, graph, system) = _run_certify(cfg, seed, outdir)
    if failure:
        print("certification failed; no rates computed")
        return 1
    results = limit_set_sample(graph, rho, system, cfg.rates.depth, cfg.rates.paths,
                               seed=seed, certificate=cert)
    try:
        rep = shrink_rates(results, depth_range=cfg.rates.depth_range)
    except FlagdynError as exc:
        print(f"rate fit rejected: {exc}")
        return 1
    report = _header(cfg, seed) + [
        f"paths {rep.n_paths}  depth range {rep.depth_range}",
        f"lambda1 {_fmt(rep.lambda1)}",
        f"lambda2 {_fmt(rep.lambda2)}",
        f"r_squared {_fmt(rep.r_squared)}",
        "bound: diam(n) <= lambda1 * exp(-lambda2 * n) for all recorded depths",
    ]
    _write(outdir, "rates.txt", "\n".join(report) + "\n")
    print(f"lambda2 {_fmt(rep.lambda2)} (R^2 {rep.r_squared:.4f})")
    return 0


def cmd_probe(args):
    cfg, seed, outdir = _load(args)
    if cfg.probe is None:
        raise ConfigError("probe command needs a probe section with a t_grid list")
    results, first_fail = peripheral_stability_probe(
        cfg.presentation, cfg.graph(), cfg.system(), cfg.probe, **_certifying(cfg, seed))
    report = _header(cfg, seed)
    for t, cert in results:
        line = f"t = {_fmt(t)}: {'pass' if cert.ok else 'FAIL'} (min margin {_fmt(cert.min_margin)})"
        if not cert.ok:
            line += "  first failure: " + cert.first_failure().describe()
        report.append(line)
    report.append(f"first failing t: {first_fail}")
    _write(outdir, "probe.txt", "\n".join(report) + "\n")
    print(f"first failing t: {first_fail}")
    return 0 if first_fail is None else 1


def cmd_synthesize(args):
    cfg, seed, outdir = _load(args)
    if cfg.dimension != 2:
        raise ConfigError("synthesis requires dimension 2")
    rho = cfg.presentation()
    res = synthesize_rp1(rho, cfg.synthesis)
    cert = verify_compatibility(res.graph, res.system, rho, **_certifying(cfg, seed))
    n_par = sum(1 for v in res.graph.vertices.values() if not hasattr(v, "word"))
    report = _header(cfg, seed) + [
        f"vertices {len(res.graph.vertices)} (parabolic {n_par})",
        f"edges {len(res.graph.edges)}",
        f"epsilon {_fmt(res.graph.epsilon)}",
        f"certificate: {'PASS' if cert.ok else 'FAIL'} min margin {_fmt(cert.min_margin)}",
    ]
    _write(outdir, "synthesis.txt", "\n".join(report) + "\n")
    automaton = cfg.with_automaton(res.graph, res.boundary_points)
    _write(outdir, "automaton.json", json.dumps(automaton, sort_keys=True))
    # the graph section again, for bench/workloads.py, which reads this file
    _write(outdir, "synthesis.json", json.dumps(
        {**automaton["graph"], "certificate_pass": cert.ok, "config_hash": cfg.config_hash},
        sort_keys=True))
    print(
        f"synthesized {len(res.graph.vertices)} vertices / {len(res.graph.edges)} edges; "
        f"certificate {'PASS' if cert.ok else 'FAIL'}"
    )
    return 0 if cert.ok else 1


def cmd_gaps(args):
    cfg, seed, outdir = _load(args)
    if (gaps := cfg.gaps) is None:
        raise ConfigError("gaps command needs a gaps section ({word, count, k})")
    trace = gap_trace([cfg.presentation().evaluate(gaps.word)] * gaps.count, gaps.k)
    flagged = flag_divergent(trace, gaps.threshold)
    rows = ["# " + " | ".join(_header(cfg, seed, [f"word {gaps.text}", f"k {gaps.k}"])),
            "n,gap"]
    rows += [f"{n+1},{_fmt(g)}" for n, g in enumerate(trace)]
    _write(outdir, "gaps.csv", "\n".join(rows) + "\n")
    report = _header(cfg, seed) + [
        f"word {gaps.text}  k {gaps.k}  count {gaps.count}",
        f"final gap {_fmt(trace[-1])}",
        f"flagged divergent at threshold {gaps.threshold}: {flagged}",
    ]
    _write(outdir, "gaps.txt", "\n".join(report) + "\n")
    print(f"final gap {_fmt(trace[-1])}; divergent flag {flagged}")
    return 0


def cmd_hilbert(args):
    if args.interval is not None:
        if args.points is None:
            raise ConfigError("--interval needs --points X Y")
        a, b = (number(v, "--interval value") for v in args.interval)
        px, py = (number(v, "--points value") for v in args.points)
        if not b > a:
            raise ConfigError("interval must satisfy a < b")
        # the metric is affine invariant, so it is measured on [-1, 1];
        # halving each end first keeps the center c and radius r finite. A
        # point beyond [-2, 2] lies outside the ball either way; it is moved
        # to -2 or 2 so that its lift stays finite
        c, r = a / 2 + b / 2, b / 2 - a / 2
        h = ProjHyperplane([0.0, 1.0])
        omega = ChartBall(h, [0.0], 1.0)
        x, y = (chart_point(h, [min(max((v - c) / r, -2.0), 2.0)]) for v in (px, py))
    else:
        if args.config is None:
            raise ConfigError("hilbert needs --config or --interval")
        hilbert = RunConfig.load(args.config).hilbert
        if hilbert is None:
            raise ConfigError("hilbert command needs a hilbert section {domain, x, y} "
                              "or --interval")
        omega, x, y = hilbert
    val = zimmer_metric(omega, x, y)
    exact = "exact" if omega.exact_metric else "sampled lower bound"
    print(f"{_fmt(val)}  ({exact})")
    return 0


@functools.cache
def build_parser():
    """The argument parser, built once per process: parsing leaves it unchanged."""
    ap = argparse.ArgumentParser(
        prog="flagdyn",
        description="certify ping-pong dynamics of matrix groups on projective spaces",
    )
    ap.add_argument("--version", action="version", version=f"flagdyn {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="path to a JSON run config")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default="out", help="output directory")

    p = sub.add_parser("certify", help="verify all compatibility inclusions")
    common(p)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("limitset", help="sample the limit set via certified paths")
    common(p)
    p.add_argument("--svg", action="store_true", help="also render an SVG scatter")
    p.set_defaults(func=cmd_limitset)

    p = sub.add_parser("rates", help="fit the exponential shrink rate of path images")
    common(p)
    p.set_defaults(func=cmd_rates)

    p = sub.add_parser("probe", help="re-certify a deformation family over a t grid")
    common(p)
    p.set_defaults(func=cmd_probe)

    p = sub.add_parser("synthesize", help="build an automaton from circle dynamics")
    common(p)
    p.set_defaults(func=cmd_synthesize)

    p = sub.add_parser("gaps", help="singular value gap trace of powers of a word")
    common(p)
    p.set_defaults(func=cmd_gaps)

    p = sub.add_parser("hilbert", help="cross-ratio metric between two domain points")
    # -1e300, -inf and nan are values; argparse alone takes only -1 and -1.5 for values
    p._negative_number_matcher = re.compile(r"^-((\d+\.?\d*|\.\d+)(e[-+]?\d+)?|inf|nan)$",
                                            re.I)
    p.add_argument("--config", default=None, help="config with a hilbert section")
    p.add_argument("--interval", nargs=2, type=float, default=None,
                   metavar=("A", "B"), help="interval domain on the projective line")
    p.add_argument("--points", nargs=2, type=float, default=None,
                   metavar=("X", "Y"), help="chart coordinates of the two points")
    p.set_defaults(func=cmd_hilbert)
    return ap


def main(argv=None):
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except FlagdynError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

