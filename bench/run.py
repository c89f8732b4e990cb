"""flagdyn benchmark: closed-loop passes over one workload's ops, in-process.

    python3 bench/run.py --workload rp1 --seed 7 --seconds 30 --trace 0

One caller, one process, no threads (BLAS is pinned to one thread).
Passes run back to back until ``--seconds`` have elapsed (at least one
pass). Every op is checked; its output files are digested and must
match the first pass byte for byte.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` first runs
untraced passes for ``--seconds``, then wraps flagdyn's layers (see
``tracer.py``) and runs traced passes for ``--seconds``; it reports the
per-layer metrics and the tracing overhead (traced over untraced
``wall_s``).

Every metric is printed by name with its unit; the full results
(quartiles, sample counts, load sizes, digests, machine facts) go to
``.bench_results/``. The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. Exit status: 0 when
every op passed, 1 when any failed, 2 when flagdyn cannot be found.
"""

from __future__ import annotations

import os

# before numpy is imported: keep BLAS from starting threads
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 7  # fresh processes timed for setup_s; the median is reported

TRACE_OVERHEAD = "trace.overhead"


def declared_metrics():
    """(end-to-end, per-layer) {name: unit} as declared in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def import_flagdyn():
    """Import every flagdyn module from this checkout's src/."""
    src = ROOT / "src"
    if not (src / "flagdyn" / "__init__.py").is_file():
        raise SystemExit(f"flagdyn sources not found under {src}")
    sys.path.insert(0, str(src))
    import flagdyn

    for name in sorted(p.stem for p in (src / "flagdyn").glob("*.py")):
        if name not in ("__init__", "__main__"):
            importlib.import_module(f"{flagdyn.__name__}.{name}")


def load_configs(ops):
    """Load every config an op names, as the CLI will (part of set-up)."""
    from flagdyn.config import RunConfig

    for op in ops:
        if op.argv and "--config" in op.argv:
            RunConfig.load(op.argv[op.argv.index("--config") + 1])


def quartiles(values):
    vals = sorted(values)
    if len(vals) == 1:
        return vals[0], vals[0], vals[0]
    q1, q2, q3 = statistics.quantiles(vals, n=4)
    return q1, q2, q3


def summary(values, unit):
    """Median with quartiles and sample count."""
    q1, med, q3 = quartiles(values)
    if unit in ("count", "bytes") and float(med).is_integer():
        q1, med, q3 = int(q1), int(med), int(q3)
    return {"value": med, "unit": unit, "q1": q1, "q3": q3, "n": len(values)}


def pass_time_summary(values):
    """Per-pass times: the mean, with the median and quartiles beside it.

    The machine's speed drifts by up to 2x within seconds, so per-pass
    times are bimodal and a run's median jumps between the modes; the
    mean over the whole run varies less from run to run.
    """
    out = summary(values, "s")
    out.update({"median": out["value"], "value": statistics.fmean(values)})
    return out


def measure_setup(args):
    """Median time from process start to ready-for-first-op, over fresh processes."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            dt = time.perf_counter() - t0
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            raise SystemExit(f"set-up probe failed (exit {proc.returncode})")
        times.append(dt)
    return times


def digest(outdir: Path, stdout: str):
    h = hashlib.sha256()
    files = {}
    if outdir.is_dir():
        for path in sorted(p for p in outdir.rglob("*") if p.is_file()):
            data = path.read_bytes()
            rel = path.relative_to(outdir).as_posix()
            files[rel] = len(data)
            h.update(rel.encode() + b"\0" + data + b"\0")
    h.update(b"<stdout>\0" + stdout.encode())
    return h.hexdigest(), files


def run_op(op, work):
    """Run one op; returns (seconds, OpResult, error text or None)."""
    from flagdyn import cli
    from workloads import OpResult

    outdir = work / op.id
    if outdir.exists():
        shutil.rmtree(outdir)
    buf = io.StringIO()
    error = None
    rc = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            if op.fn is not None:
                rc, text = op.fn(outdir)
                buf.write(text)
            else:
                rc = cli.main(op.argv)
    except Exception as exc:  # an op that raises is a failed op, not a crash
        error = f"{type(exc).__name__}: {exc}"
    dt = time.perf_counter() - t0
    return dt, OpResult(rc, buf.getvalue(), outdir), error


def run_passes(ops, work, seed, seconds, state, recorder=None):
    """Closed loop: passes back to back until ``seconds`` elapse (>= 1 pass)."""
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        per_op = {}
        out_bytes = 0
        for op in ops:
            runner = run_op if recorder is None else recorder.span(f"op.{op.id}", run_op)
            dt, res, error = runner(op, work)
            state["attempted"] += 1
            problem = error
            if problem is None and res.rc != op.expected_rc:
                problem = f"exit code {res.rc}, want {op.expected_rc}"
            load = {}
            if problem is None:
                try:
                    load = op.check(res, seed) or {}
                except Exception as exc:  # output the check cannot parse fails the op too
                    problem = f"check failed: {type(exc).__name__}: {exc}"
            dig, files = digest(res.outdir, res.stdout)
            out_bytes += sum(files.values())
            first = state["digests"].setdefault(op.id, {"sha256": dig, "files": files})
            if problem is None and first["sha256"] != dig:
                problem = "output bytes differ from the first pass"
            if problem is not None:
                state["failed"] += 1
                state["failures"].append({"op": op.id, "problem": problem,
                                          "output": res.stdout[-2000:]})
            state["load"].setdefault(op.id, load)
            per_op[op.id] = dt
        record = {"ops": per_op}
        if recorder is not None:
            record["layers"] = recorder.end_pass({"cli.output.bytes": out_bytes})
        passes.append(record)
    return passes


def command_sums(passes, ops):
    commands = sorted({op.command for op in ops})
    by_id = {op.id: op.command for op in ops}
    out = {}
    for cmd in commands:
        out[f"{cmd}_s"] = [sum(dt for oid, dt in p["ops"].items() if by_id[oid] == cmd)
                          for p in passes]
    out["wall_s"] = [sum(p["ops"].values()) for p in passes]
    return out


def machine_facts():
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": BLAS_THREADS,
        "platform": platform.platform(),
    }


def main(argv=None):
    args = parse_args(argv)
    os.chdir(ROOT)
    try:
        import_flagdyn()
    except (SystemExit, ImportError) as exc:
        print(f"bench: cannot import flagdyn: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    work = Path(".bench_out") / ("setup-probe" if args.setup_probe else args.workload)
    if work.exists():
        shutil.rmtree(work)
    ops = workloads.build(args.workload, ROOT, work, args.seed)
    load_configs(ops)
    if args.setup_probe:
        print("ready", flush=True)
        return 0

    setup_times = measure_setup(args) if args.trace == 0 else None
    state = {"attempted": 0, "failed": 0, "failures": [], "digests": {}, "load": {}}
    passes = run_passes(ops, work, args.seed, args.seconds, state)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for op in ops:
        if op.load_after is not None and args.trace == 0:
            state["load"][op.id].update(op.load_after())
    sums = command_sums(passes, ops)

    results = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace, "machine": machine_facts()}
    gated, layer_units = declared_metrics()
    if args.trace == 0:
        # per-command metrics exist only where the workload runs the command,
        # so only the metrics every workload has are declared (and gated)
        e2e = {"setup_s": summary(setup_times, "s")}
        e2e.update({k: pass_time_summary(v) for k, v in sums.items()})
        e2e["peak_rss_mib"] = {"value": peak_rss_mib, "unit": "MiB", "n": 1}
        e2e["fail_ratio"] = {"value": state["failed"] / state["attempted"], "unit": "1",
                             "n": state["attempted"]}
        results["end_to_end"] = e2e
        printed = {k: e2e[k] for k in gated}
    else:
        from tracer import install, layer_metrics

        recorder = install()
        traced = run_passes(ops, work, args.seed, args.seconds, state, recorder)
        traced_wall = command_sums(traced, ops)["wall_s"]
        names = [k for k in layer_units if k != TRACE_OVERHEAD]
        per_pass = [layer_metrics(p["layers"], names) for p in traced]
        layers = {k: summary([m[k] for m in per_pass], layer_units[k]) for k in names}
        overhead = statistics.fmean(traced_wall) / statistics.fmean(sums["wall_s"])
        layers[TRACE_OVERHEAD] = {"value": overhead, "unit": layer_units[TRACE_OVERHEAD],
                                  "traced_wall_s": pass_time_summary(traced_wall),
                                  "untraced_wall_s": pass_time_summary(sums["wall_s"])}
        results["per_layer"] = layers
        results["traced_passes"] = len(traced)
        results["all_counters_per_pass"] = [p["layers"] for p in traced]
        printed = layers
        spans_path = Path(".bench_results") / f"{args.workload}-seed{args.seed}-spans.npz"
        spans_path.parent.mkdir(exist_ok=True)
        recorder.write(spans_path)
        results["spans_file"] = str(spans_path)

    results.update({
        "passes": len(passes), "per_op_seconds": [p["ops"] for p in passes],
        "attempted": state["attempted"], "failed": state["failed"],
        "failures": state["failures"], "load": state["load"], "digests": state["digests"],
    })
    out = Path(".bench_results") / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n")

    for f in state["failures"]:
        print(f"FAILED {f['op']}: {f['problem']}")
    if args.trace == 0:
        for key, m in results["end_to_end"].items():
            spread = f"  q1 {m['q1']:.6g} q3 {m['q3']:.6g}" if "q1" in m else ""
            if "median" in m:
                spread = f"  median {m['median']:.6g}" + spread
            print(f"{key:<16} {m['value']:.6g} {m['unit']}{spread}  n={m['n']}")
        for op_id, load in state["load"].items():
            if load:
                print(f"load {op_id}: {json.dumps(load, sort_keys=True)}")
    else:
        for key, m in printed.items():
            print(f"{key:<40} {m['value']:.6g} {m['unit']}")
    print(f"results in {out}")
    line = {
        "correct": state["failed"] == 0,
        "attempted": state["attempted"],
        "failed": state["failed"],
        "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in printed.items()},
    }
    print(json.dumps(line))
    return 0 if state["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
