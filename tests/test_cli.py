import argparse
import ast
import contextlib
import functools
import hashlib
import inspect
import io
import json
import math
import operator
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagdyn import automaton, cli, domains, synth
from flagdyn.cli import main
from flagdyn.config import _EXPR_NAMES, RunConfig
from flagdyn.errors import ConfigError
from flagdyn.words import parse_word

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def run(args):
    return main([str(a) for a in args])


def test_certify_schottky_passes(tmp_path):
    assert run(["certify", "--config", CONFIGS / "schottky.json", "--out", tmp_path]) == 0
    cert = json.loads((tmp_path / "certificate.json").read_text())
    assert cert["verdict"] == "pass"
    assert cert["min_margin"] > 0
    assert cert["metadata"]["config_hash"]
    assert (tmp_path / "certificate_report.txt").exists()


def test_certify_repelling_fails(tmp_path):
    assert run(["certify", "--config", CONFIGS / "schottky_repelling.json",
                "--out", tmp_path]) == 1
    cert = json.loads((tmp_path / "certificate.json").read_text())
    assert cert["verdict"] == "fail"


def test_certify_malformed_config(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["certify", "--config", bad, "--out", tmp_path]) == 2
    bad2 = tmp_path / "bad2.json"
    bad2.write_text(json.dumps({"dimension": 1}))
    assert run(["certify", "--config", bad2, "--out", tmp_path]) == 2


def test_limitset_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(["limitset", "--config", CONFIGS / "schottky.json", "--out", a]) == 0
    assert run(["limitset", "--config", CONFIGS / "schottky.json", "--out", b]) == 0
    assert (a / "limit_set.csv").read_bytes() == (b / "limit_set.csv").read_bytes()


def test_limitset_seed_changes_output(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    run(["limitset", "--config", CONFIGS / "schottky.json", "--out", a])
    run(["limitset", "--config", CONFIGS / "schottky.json", "--out", b, "--seed", 99])
    assert (a / "limit_set.csv").read_bytes() != (b / "limit_set.csv").read_bytes()


def test_limitset_builds_each_domain_arc_once(tmp_path, monkeypatch):
    arcs_between = domains.arcs_between
    built = []

    def counting(lo, hi, through):
        built.extend(lo.tolist())  # one endpoint per arc built
        return arcs_between(lo, hi, through)

    monkeypatch.setattr(domains, "arcs_between", counting)
    assert run(["limitset", "--config", CONFIGS / "schottky.json", "--out", tmp_path]) == 0
    assert len(built) == 4  # one per domain of the four-vertex system


@pytest.fixture(scope="module")
def pgl2z_synthesis(tmp_path_factory):
    """One ``synthesize`` run on pgl2z: its output directory, the
    SynthesisResult and Certificate it built, and how many records,
    _Conicals and candidate hits it built."""
    out = tmp_path_factory.mktemp("synthesize-pgl2z")
    built = {}
    counts = dict.fromkeys(["records", "conicals", "candidate hits"], 0)
    record, conical = automaton.EdgeRecord, synth._Conical
    candidate = synth._ConicalSearcher.candidate

    def counted(name, make):
        def build(*args):
            counts[name] += 1
            return make(*args)
        return build

    def counted_candidate(self, z):
        got = candidate(self, z)
        counts["candidate hits"] += got is not None
        return got

    def kept(name, make):
        def keep(*args, **kwargs):
            built[name] = make(*args, **kwargs)
            return built[name]
        return keep

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(automaton, "EdgeRecord", counted("records", record))
        mp.setattr(synth, "_Conical", counted("conicals", conical))
        mp.setattr(synth._ConicalSearcher, "candidate", counted_candidate)
        mp.setattr(cli, "synthesize_rp1", kept("res", cli.synthesize_rp1))
        mp.setattr(cli, "verify_compatibility", kept("cert", cli.verify_compatibility))
        assert run(["synthesize", "--config", CONFIGS / "pgl2z.json", "--out", out]) == 0
    return out, built["res"], built["cert"], counts


def test_synthesize_builds_no_record_and_few_conicals(pgl2z_synthesis):
    # the run reads only the certificate's verdict and minimum margin, and
    # builds a _Conical only for a kept grid hit or a candidate(z) call
    out, _, _, counts = pgl2z_synthesis
    vertices = json.loads((out / "synthesis.json").read_text())["vertices"]
    singletons = sum(v["type"] == "singleton" for v in vertices)
    assert counts["records"] == 0
    assert singletons <= counts["conicals"] <= singletons + counts["candidate hits"]


def test_synthesized_automaton_is_a_config(pgl2z_synthesis, tmp_path, capsys):
    # certify on the written automaton reproduces synthesize's certificate:
    # its budgets, and every record's edge, element and margin in order
    out, _, cert, _ = pgl2z_synthesis
    automaton_json = out / "automaton.json"
    assert run(["certify", "--config", automaton_json, "--out", tmp_path]) == 0
    assert capsys.readouterr().out == "PASS min margin 0.012248183250884948\n"
    got = json.loads((tmp_path / "certificate.json").read_text())
    want = json.loads(json.dumps(cert.to_dict()))
    assert len(got["records"]) == 24085
    assert {**got, "metadata": None} == {**want, "metadata": None}
    assert run(["limitset", "--config", automaton_json, "--out", tmp_path]) == 0
    assert capsys.readouterr().out.endswith("limit_set.csv (100 points)\n")


def test_synthesized_automaton_loads_as_its_graph(pgl2z_synthesis):
    out, res, _, _ = pgl2z_synthesis
    cfg = RunConfig.load(out / "automaton.json")
    graph = cfg.graph()
    assert list(graph.vertices.items()) == list(res.graph.vertices.items())
    assert graph.edges == res.graph.edges
    assert graph.epsilon == res.graph.epsilon
    assert graph.vertices["p:pt:id"].coset_word == ()
    arcs = {v: d.arc() for v, d in cfg.system().domains.items()}
    assert arcs == {v: d.arc() for v, d in res.system.domains.items()}
    assert cfg.separation == []


def test_synthesize_replaces_a_configs_own_graph(tmp_path, capsys):
    # schottky.json has its own graph, domains and separation table
    raw = json.loads((CONFIGS / "schottky.json").read_text())
    raw["synthesis"] = {"word_radius": 6, "grid": 720}
    path = tmp_path / "schottky_synthesis.json"
    path.write_text(json.dumps(raw))
    assert run(["synthesize", "--config", path, "--out", tmp_path]) == 0
    assert capsys.readouterr().out == "synthesized 92 vertices / 716 edges; certificate PASS\n"
    cfg = RunConfig.load(tmp_path / "automaton.json")
    assert (len(cfg.graph().vertices), len(cfg.graph().edges)) == (92, 716)
    assert "delta_separation" not in cfg.raw and cfg.separation == []
    assert run(["certify", "--config", tmp_path / "automaton.json", "--out", tmp_path]) == 0
    assert capsys.readouterr().out == "PASS min margin 0.025667026032962115\n"


def test_limitset_refuses_failing_config(tmp_path):
    assert run(["limitset", "--config", CONFIGS / "schottky_repelling.json",
                "--out", tmp_path]) == 1
    assert (tmp_path / "certificate.json").exists()
    assert not (tmp_path / "limit_set.csv").exists()


def test_limitset_has_no_skip_certify(tmp_path, capsys):
    assert run(["limitset", "--config", CONFIGS / "schottky_repelling.json",
                "--skip-certify", "--out", tmp_path]) == 2
    assert "unrecognized arguments: --skip-certify" in capsys.readouterr().err
    assert not (tmp_path / "limit_set.csv").exists()


def test_limitset_svg(tmp_path):
    assert run(["limitset", "--config", CONFIGS / "schottky.json", "--out", tmp_path,
                "--svg"]) == 0
    svg = (tmp_path / "limit_set.svg").read_text()
    assert svg.startswith("<svg")
    assert "projection" in svg  # chart declared in the header comment


def test_rates_single_loop(tmp_path):
    assert run(["rates", "--config", CONFIGS / "single_loop.json", "--out", tmp_path]) == 0
    text = (tmp_path / "rates.txt").read_text()
    lam2 = float([l for l in text.splitlines() if l.startswith("lambda2")][0].split()[1])
    assert lam2 == pytest.approx(2 * math.log(4), rel=0.1)
    # the bundled Schottky system fits its rates too
    out = tmp_path / "schottky"
    assert run(["rates", "--config", CONFIGS / "schottky.json", "--out", out]) == 0
    assert (out / "rates.txt").exists()


def test_rates_fit_rejected_exits_1(tmp_path, capsys):
    # single_loop's one path gives depths 2..5 in this range: fewer than 5
    raw = json.loads((CONFIGS / "single_loop.json").read_text())
    raw["rates"]["depth_range"] = [2, 5]
    short = tmp_path / "short.json"
    short.write_text(json.dumps(raw))
    assert run(["rates", "--config", short, "--out", tmp_path / "out"]) == 1
    assert capsys.readouterr().out == "rate fit rejected: need at least 5 depths, got 4\n"
    assert not (tmp_path / "out" / "rates.txt").exists()


def test_synthesize_needs_dimension_2(tmp_path, capsys):
    code = run(["synthesize", "--config", CONFIGS / "jordan_diag.json", "--out", tmp_path])
    assert code == 2
    assert capsys.readouterr().err == "config error: synthesis requires dimension 2\n"


def test_gaps_command(tmp_path):
    assert run(["gaps", "--config", CONFIGS / "single_loop.json", "--out", tmp_path]) == 0
    rows = (tmp_path / "gaps.csv").read_text().splitlines()
    assert rows[1] == "n,gap"
    first = float(rows[2].split(",")[1])
    assert first == pytest.approx(2 * math.log(4), abs=1e-9)


def test_gaps_alpha_beta_is_linear_in_n(tmp_path):
    # the d = 4 product's sigma_2 / sigma_1 falls below roundoff by n = 5
    raw = json.loads((CONFIGS / "jordan_diag.json").read_text())
    raw["gaps"] = {"word": "alpha beta", "count": 100, "k": 1}
    cfg = tmp_path / "jordan_ab.json"
    cfg.write_text(json.dumps(raw))
    assert run(["gaps", "--config", cfg, "--out", tmp_path]) == 0
    rows = (tmp_path / "gaps.csv").read_text().splitlines()[2:]
    trace = [float(r.split(",")[1]) for r in rows]
    assert len(trace) == 100
    # oracle: LAPACK on the dense cube, then the eigenvalue-modulus ratio per power
    g = RunConfig.load(cfg).presentation().evaluate(parse_word("alpha beta")).arr
    s = np.linalg.svd(np.linalg.matrix_power(g, 3), compute_uv=False)
    moduli = np.sort(np.abs(np.linalg.eigvals(g)))[::-1]
    slope = math.log(moduli[0] / moduli[1])
    assert abs(trace[-1] - (math.log(s[0] / s[1]) + 97 * slope)) < 1e-6
    assert all(abs(b - a - slope) < 1e-9 for a, b in zip(trace[9:], trace[10:]))


def test_hilbert_interval(capsys):
    assert run(["hilbert", "--interval", -1, 1, "--points", 0, 0.5]) == 0
    assert capsys.readouterr().out == "1.0986122886681096  (exact)\n"


@pytest.mark.parametrize("interval, points, value", [
    # ends near the float maximum: the ball is the interval mapped to [-1, 1]
    (("1e308", "1.7e308"), ("1.1e308", "1.2e308"), math.log(2.4)),
    # negative values in exponent notation are values, not option strings
    (("-1e300", "1e300"), ("-5e299", "5e299"), math.log(9)),
], ids=["near-float-max", "negative-exponent-notation"])
def test_hilbert_interval_at_extreme_scales(capsys, interval, points, value):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["hilbert", "--interval", *interval, "--points", *points]) == 0
    out = capsys.readouterr()
    assert out.err == "" and out.out.endswith("  (exact)\n")
    assert abs(float(out.out.split()[0]) - value) <= 1e-12 * value


@pytest.mark.parametrize("flag", [["--seed", 3], ["--out", "out"]], ids=["seed", "out"])
def test_hilbert_has_no_seed_or_out(capsys, flag):
    assert run(["hilbert", "--interval", -1, 1, "--points", 0, 0.5, *flag]) == 2
    assert f"unrecognized arguments: {flag[0]} " in capsys.readouterr().err


@pytest.mark.parametrize("args", [["--interval", -1, 1], []])
def test_hilbert_without_points_or_domain_is_config_error(capsys, args):
    assert _config_error(["hilbert"] + args, capsys)


@pytest.mark.parametrize("args", [["--interval", 0, "inf", "--points", 0, 0.5],
                                  ["--interval", "-inf", 1, "--points", 0, 0.5],
                                  ["--interval", -1, 1, "--points", "nan", 0]],
                         ids=["interval-inf", "interval-minus-inf", "points-nan"])
def test_hilbert_non_finite_value_is_config_error(capsys, args):
    assert _config_error(["hilbert"] + args, capsys)


@pytest.mark.parametrize("interval, points", [
    # X - c overflows to -inf on the far side of 0
    (("1e308", "1.7e308"), ("-1.7e308", "1.2e308")),
    # the norm of the lift of X overflows
    (("-1", "1"), ("-1e308", "0")),
], ids=["far-side-of-zero", "huge-lift"])
def test_hilbert_point_far_outside_the_interval(capsys, interval, points):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["hilbert", "--interval", *interval, "--points", *points]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: zimmer_metric arguments must lie in the domain\n"


def test_probe_commands(tmp_path):
    assert run(["probe", "--config", CONFIGS / "jordan_diag.json", "--out", tmp_path]) == 0
    assert run(["probe", "--config", CONFIGS / "jordan_split.json", "--out", tmp_path]) == 1
    text = (tmp_path / "probe.txt").read_text()
    assert "first failing t: 0.01" in text


# One fresh process runs the sampled d = 4 commands, then lists the scipy
# modules it imported: scipy is loaded only for a d >= 3 polytope's hull.
_SCIPY_FREE_RUN = """
import json, sys
from flagdyn.cli import main
cfg, out = sys.argv[1:]
codes = [main([c, "--config", cfg, "--out", f"{out}/{c}"])
         for c in ("certify", "probe", "limitset", "rates", "gaps")]
print(json.dumps([codes, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")]))
"""


def test_sampled_d4_commands_import_no_scipy(tmp_path):
    raw = json.loads((CONFIGS / "jordan_diag.json").read_text())
    raw["gaps"] = {"word": "alpha beta", "count": 20, "k": 1}
    cfg = tmp_path / "jordan.json"
    cfg.write_text(json.dumps(raw))
    src = str(CONFIGS.parent / "src")
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _SCIPY_FREE_RUN, str(cfg), str(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [[0, 0, 0, 0, 0], []]


@pytest.mark.parametrize("command, name, code, digest", [
    ("certify", "jordan_diag", 0,
     "c6b444f07ea1c2859d701d60e03870ae96c28a703f70787c9057633863e383a4"),
    ("probe", "jordan_split", 1,
     "98e8361b0f916528c09db74f5b0742d6cec8d4b77c8d5828ddfbd724ee5b7bf3"),
    ("probe", "jordan_diag", 0,
     "1d214236a45ac02ea2902d07c8765c035ac817e58e8bd41e8c9a1ff13873c483"),
])
def test_sampled_d4_outputs_keep_their_bytes(tmp_path, capsys, monkeypatch, command, name, code,
                                             digest):
    # the sampled d = 4 margins at seed 7: certificate.json's records, and
    # probe.txt, whose header names the config by this relative path
    monkeypatch.chdir(CONFIGS.parent)
    assert run([command, "--config", f"configs/{name}.json", "--seed", 7,
                "--out", tmp_path]) == code
    if command == "certify":
        records = json.loads((tmp_path / "certificate.json").read_text())["records"]
        blob = json.dumps(records, sort_keys=True).encode()
    else:
        blob = (tmp_path / "probe.txt").read_bytes()
    assert hashlib.sha256(blob).hexdigest() == digest


@pytest.mark.parametrize("command, name, seed, out, digest", [
    ("limitset", "schottky", 7, "limit_set.csv",
     "7a082dceddbc84805632fafb9cabe8931888e3496ef3511399f933adbf7312fc"),
    ("limitset", "schottky", 3, "limit_set.csv",
     "4688ded4024ca6054298abf017b81104643c41c76728e612c683a92750b3cace"),
    ("rates", "single_loop", 7, "rates.txt",
     "759e444f993757ce80cf0bfefdbca75c571c6bd4e7c1815082e89a4565ba2869"),
    ("rates", "schottky", 7, "rates.txt",
     "b3cd13cb71988f46219cbc7823d566e35905bc67665aacc2ff16e111dc4ba9c5"),
])
def test_rp1_sampled_outputs_keep_their_bytes(tmp_path, monkeypatch, command, name, seed, out,
                                              digest):
    # seeded RP^1 path sampling: limit_set.csv lists each path's code, and
    # rates.txt its fit; both headers name the config by this relative path
    monkeypatch.chdir(CONFIGS.parent)
    assert run([command, "--config", f"configs/{name}.json", "--seed", seed,
                "--out", tmp_path]) == 0
    assert hashlib.sha256((tmp_path / out).read_bytes()).hexdigest() == digest


def test_config_hash_embedded(tmp_path):
    cfg = RunConfig.load(CONFIGS / "schottky.json")
    run(["certify", "--config", CONFIGS / "schottky.json", "--out", tmp_path])
    report = (tmp_path / "certificate_report.txt").read_text()
    assert cfg.config_hash in report
    cert = json.loads((tmp_path / "certificate.json").read_text())
    assert cert["metadata"]["config_hash"] == cfg.config_hash


def test_config_validation_errors():
    with pytest.raises(ConfigError, match="references unknown vertex"):
        RunConfig.from_dict({"dimension": 2, "graph": {"epsilon": 0.1, "vertices": [],
                                                       "edges": [["x", "y"]]}})
    with pytest.raises(ConfigError, match="unknown budgets keys: boundary_sample"):
        RunConfig.from_dict({"dimension": 2, "budgets": {"boundary_sample": 10}})
    with pytest.raises(ConfigError):
        RunConfig.from_dict(
            {
                "dimension": 2,
                "generators": [{"name": "a", "matrix": [[1, 0], [0, 1], [0, 0]]}],
            }
        )


def test_config_exact_integers_preserved():
    cfg = RunConfig.from_dict(
        {"dimension": 2, "generators": [{"name": "t", "matrix": [[1, 1], [0, 1]]}]}
    )
    rho = cfg.presentation()
    assert rho.generators["t"].exact == ((1, 1), (0, 1))


def test_config_t_expressions():
    cfg = RunConfig.from_dict(
        {
            "dimension": 2,
            "generators": [{"name": "g", "matrix": [["1+t", 0], [0, "1/(1+t)"]]}],
        }
    )
    rho = cfg.presentation(t=0.5)
    assert rho.generators["g"].arr[0, 0] == pytest.approx(1.5)


def test_separation_table_checked(tmp_path):
    raw = json.loads((CONFIGS / "schottky.json").read_text())
    raw["delta_separation"] = [["a+", "b+", 3.0]]  # impossible gap
    bad = tmp_path / "sep.json"
    bad.write_text(json.dumps(raw))
    assert run(["certify", "--config", bad, "--out", tmp_path]) == 1
    report = (tmp_path / "certificate_report.txt").read_text()
    assert "separation table FAILURES" in report


def _config_error(args, capsys):
    code = run(args)
    err = capsys.readouterr().err
    return code == 2 and err.startswith("config error:") and "Traceback" not in err


def test_synthesis_word_ball_past_its_bound_is_config_error(tmp_path, capsys, monkeypatch):
    # pgl2z's radius-10 ball (1,491 words) passes a bound of 1,000 rows
    monkeypatch.setattr(synth, "_MAX_BALL_ROWS", 1000)
    code = run(["synthesize", "--config", CONFIGS / "pgl2z.json", "--out", tmp_path])
    err = capsys.readouterr().err
    assert code == 2 and err.startswith("config error: synthesis.word_radius 10 is too large")
    assert "Traceback" not in err


def _set(*path_and_value):
    *path, value = path_and_value

    def edit(raw):
        cur = raw
        for key in path[:-1]:
            cur = cur[key]
        cur[path[-1]] = value
    return edit


def test_unknown_synthesis_key_is_config_error(tmp_path, capsys):
    raw = json.loads((CONFIGS / "pgl2z.json").read_text())
    raw["synthesis"] = {**raw.get("synthesis", {}), "no_such_key": 1}
    bad = tmp_path / "synth.json"
    bad.write_text(json.dumps(raw))
    assert _config_error(["synthesize", "--config", bad, "--out", tmp_path], capsys)


_SYNTHESIS_INTS = ["word_radius", "grid", "coset_ball", "lead_powers"]
# former options, now synth constants: any value is an unknown key
_REMOVED_SYNTHESIS_INTS = ["max_power", "tail_window", "max_parabolic_rounds"]


@pytest.mark.parametrize("key, value, code", [
    *((k, v, 2) for k in _SYNTHESIS_INTS + _REMOVED_SYNTHESIS_INTS
      for v in ("x", None, 2.5, True, -3, [1])),
    *((k, v, 2) for k in ("epsilon", "delta") for v in ("x", None, True, -0.1, 0, {})),
])
def test_bad_synthesis_value_exits_without_traceback(tmp_path, capsys, key, value, code):
    raw = json.loads((CONFIGS / "pgl2z.json").read_text())
    raw["synthesis"][key] = value
    bad = tmp_path / "synth.json"
    bad.write_text(json.dumps(raw))
    assert run(["synthesize", "--config", bad, "--out", tmp_path]) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    named = (f"unknown synthesis keys: {key}\n" if key in _REMOVED_SYNTHESIS_INTS
             else f"synthesis.{key} ")
    assert err.startswith(f"config error: {named}")


def test_parser_is_built_once_and_keeps_no_parsed_state(tmp_path, capsys):
    ap = cli.build_parser()
    assert cli.build_parser() is ap
    first = ap.parse_args(["limitset", "--config", "a.json", "--svg", "--seed", "3"])
    second = ap.parse_args(["certify", "--config", "b.json"])
    assert (first.svg, first.seed, first.func) == (True, 3, cli.cmd_limitset)
    assert vars(second) == {"command": "certify", "config": "b.json", "seed": None,
                            "out": "out", "func": cli.cmd_certify}
    schottky = CONFIGS / "schottky.json"
    assert run(["limitset", "--config", schottky, "--out", tmp_path / "a"]) == 0
    assert run(["certify", "--config", schottky, "--out", tmp_path / "b"]) == 0
    assert (tmp_path / "a" / "limit_set.csv").exists()
    assert not (tmp_path / "b" / "limit_set.csv").exists()
    assert (tmp_path / "b" / "certificate.json").exists()
    capsys.readouterr()
    assert run(["certify"]) == 2  # usage errors still exit 2, on the cached parser
    assert run(["certify", "--skip-certify", "--config", schottky]) == 2
    assert run(["no-such-command"]) == 2
    assert "usage:" in capsys.readouterr().err
    assert run(["certify", "--config", schottky, "--out", tmp_path / "c"]) == 0


def _reads_and_calls(fn):
    """The attributes ``fn`` reads of ``args``, and the names it calls."""
    nodes = list(ast.walk(ast.parse(inspect.getsource(fn))))
    return ({n.attr for n in nodes if isinstance(n, ast.Attribute)
             and isinstance(n.value, ast.Name) and n.value.id == "args"},
            {n.func.id for n in nodes if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)})


def test_every_subcommand_option_is_read():
    # a flag no code reads does nothing: each subcommand dest is read as
    # args.<dest> by its command function, or by _load when that calls it
    (sub,) = [a for a in cli.build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    unread = []
    for command, parser in sub.choices.items():
        reads, calls = _reads_and_calls(parser.get_default("func"))
        if "_load" in calls:
            reads |= _reads_and_calls(cli._load)[0]
        unread += [f"{command} {a.dest}" for a in parser._actions
                   if a.dest not in reads | {"help", "func", "command"}]
    assert unread == []


@pytest.mark.parametrize("command, name, edit", [
    ("certify", "single_loop.json", lambda raw: raw["budgets"].update(pair_samples=4096)),
    *(("synthesize", "pgl2z.json", _set("synthesis", key, value)) for key, value in
      [("require_full_cover", True), ("max_power", 400), ("tail_window", 4),
       ("max_parabolic_rounds", 2000)]),
    *(("limitset", "schottky.json", _set("tolerances", {"convergence": value}))
      for value in (1e-9, -1, 0, True, "1e-6", None)),
    ("certify", "single_loop.json", _set("tolerances", {"incidence": 1e-10})),
], ids=["pair_samples", "require_full_cover", "max_power", "tail_window",
        "max_parabolic_rounds", "convergence", "convergence-negative", "convergence-zero",
        "convergence-true", "convergence-string", "convergence-null", "incidence"])
def test_removed_option_is_config_error(tmp_path, capsys, command, name, edit):
    raw = json.loads((CONFIGS / name).read_text())
    edit(raw)
    bad = tmp_path / "removed.json"
    bad.write_text(json.dumps(raw))
    assert _config_error([command, "--config", bad, "--out", tmp_path], capsys)


def test_singleton_without_word_is_config_error(tmp_path, capsys):
    raw = json.loads((CONFIGS / "schottky.json").read_text())
    del raw["graph"]["vertices"][0]["word"]
    bad = tmp_path / "noword.json"
    bad.write_text(json.dumps(raw))
    assert _config_error(["certify", "--config", bad, "--out", tmp_path], capsys)


@pytest.mark.parametrize("command", ["certify", "gaps", "rates"])
def test_singular_generator_is_config_error(tmp_path, capsys, command):
    raw = json.loads((CONFIGS / "single_loop.json").read_text())
    raw["generators"][0]["matrix"] = [[1, 2], [2, 4]]
    bad = tmp_path / "singular.json"
    bad.write_text(json.dumps(raw))
    assert run([command, "--config", bad, "--out", tmp_path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: generator g") and "Traceback" not in err


# exact elements whose floats underflow or overflow: a derived generator
# stops at load, a vertex label where the certifier evaluates it
@pytest.mark.parametrize("matrix, derived, word, code, err", [
    ([[2, 1], [1, 1]], "a^2000", "g", 2,
     "config error: derived generator g = a^2000 is singular at t = 0.0: "
     "matrix determinant underflows\n"),
    ([[2, 1], [1, 1]], None, "a^2000", 1, "error: matrix determinant underflows\n"),
    ([[10**160, 1], [0, 1]], None, "a^2", 1,
     "error: matrix entries exceed the float range: int too large to convert to float\n"),
], ids=["derived-a2000", "label-a2000", "label-a2-beyond-floats"])
def test_exact_element_beyond_the_floats_exits_without_traceback(tmp_path, capsys, matrix,
                                                                 derived, word, code, err):
    raw = json.loads((CONFIGS / "single_loop.json").read_text())
    raw["generators"] = [{"name": "a", "matrix": matrix}]
    del raw["gaps"]
    if derived:
        raw["derived"] = [{"name": "g", "word": derived}]
    raw["graph"]["vertices"][0]["word"] = word
    bad = tmp_path / "exact.json"
    bad.write_text(json.dumps(raw))
    assert run(["certify", "--config", bad, "--out", tmp_path / "out"]) == code
    assert capsys.readouterr().err == err


def _eval_oracle(value, t):
    """The former loader: Python eval in a namespace without builtins."""
    return float(eval(value, {"__builtins__": {}}, {**_EXPR_NAMES, "t": t}))


@pytest.mark.parametrize("name", sorted(p.name for p in CONFIGS.glob("*.json")))
def test_bundled_config_matrices_match_eval(name):
    raw = json.loads((CONFIGS / name).read_text())
    oracle = json.loads(json.dumps(raw))
    for t in raw.get("probe", {}).get("t_grid", [0.0]):
        for g in oracle["generators"]:
            src = next(x for x in raw["generators"] if x["name"] == g["name"])["matrix"]
            g["matrix"] = [[_eval_oracle(x, t) if isinstance(x, str) else x for x in row]
                           for row in src]
        got = RunConfig.load(CONFIGS / name).presentation(t).generators
        want = RunConfig.from_dict(oracle).presentation(t).generators
        assert got.keys() == want.keys()
        for key in got:
            assert np.array_equal(got[key].arr, want[key].arr)
            assert got[key].exact == want[key].exact


@pytest.mark.parametrize("entry", ["__import__('os')", "(1).real", "[1][0]"])
def test_non_arithmetic_matrix_entry_is_config_error(tmp_path, capsys, entry):
    raw = json.loads((CONFIGS / "single_loop.json").read_text())
    raw["generators"][0]["matrix"][0][0] = entry
    bad = tmp_path / "entry.json"
    bad.write_text(json.dumps(raw))
    assert _config_error(["gaps", "--config", bad, "--out", tmp_path], capsys)


@pytest.mark.parametrize("edit", [
    lambda gaps: gaps.pop("word"),
    lambda gaps: gaps.update(count=0),
    lambda gaps: gaps.update(k=2),  # k must lie in 1..d-1, and d = 2
], ids=["no-word", "count-0", "k-out-of-range"])
def test_bad_gaps_section_is_config_error(tmp_path, capsys, edit):
    raw = json.loads((CONFIGS / "single_loop.json").read_text())
    edit(raw["gaps"])
    bad = tmp_path / "gaps.json"
    bad.write_text(json.dumps(raw))
    assert _config_error(["gaps", "--config", bad, "--out", tmp_path], capsys)


def _diagonal_gaps_config(path, d, k):
    diag = [[2.0 ** (d // 2 - i) if i == j else 0.0 for j in range(d)] for i in range(d)]
    path.write_text(json.dumps({"dimension": d, "generators": [{"name": "g", "matrix": diag}],
                                "gaps": {"word": "g", "count": 3, "k": k}}))
    return path


@pytest.mark.parametrize("d, k", [(13, 6), (16, 8)])
def test_gaps_degree_past_the_exterior_cap_is_config_error(tmp_path, capsys, d, k):
    # C(13, 5) = 1287 and C(16, 7) = 11440 pass MAX_EXT_DIM = C(12, 6) = 924:
    # refused at load, before gap_trace builds any block
    bad = _diagonal_gaps_config(tmp_path / "wide.json", d, k)
    assert run(["gaps", "--config", bad, "--out", tmp_path]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: gaps.k = {k} needs exterior degree")
    assert "past the cap 924" in err and "Traceback" not in err


def test_gaps_degree_within_the_exterior_cap_runs(tmp_path, capsys):
    # diag(2^6, ..., 2^-5): every gap log 2 per factor, and C(12, 4) = 495
    cfg = _diagonal_gaps_config(tmp_path / "d12.json", 12, 3)
    assert run(["gaps", "--config", cfg, "--out", tmp_path]) == 0
    final = capsys.readouterr().out.split(";")[0].removeprefix("final gap ")
    assert float(final) == pytest.approx(3 * math.log(2), rel=1e-12)


def test_sampled_separation_table_checked(tmp_path):
    # d = 4 chart balls: the gap is a sampled minimum, not an arc gap
    raw = json.loads((CONFIGS / "jordan_diag.json").read_text())
    raw["delta_separation"] = [["va", "vb", 0.01], ["va", "vb", 3.0]]
    sep = tmp_path / "sep.json"
    sep.write_text(json.dumps(raw))
    assert run(["certify", "--config", sep, "--out", tmp_path]) == 1
    report = (tmp_path / "certificate_report.txt").read_text().splitlines()
    failures = report[report.index("separation table FAILURES:") + 1:][:2]
    assert failures[0].startswith("  va vs vb: required 3.0, measured ")
    assert 0.01 < float(failures[0].rsplit(" ", 1)[1]) < 3.0
    assert not failures[1].startswith("  ")  # the 0.01 row passes


@pytest.mark.parametrize("name, edit, err", [
    # g g^-1 is 8e-4 off I for this nearly singular generator
    ("schottky.json", _set("generators", 0, "matrix", [[1, 1], [1, 1 + 1e-13]]),
     "config error: g g^-1 != id for generator a at t = 0.0\n"),
    ("jordan_diag.json", _set("peripherals", 0, "generators", ["alpha", "beta"]),
     "config error: declared abelian peripheral pa does not commute at t = 0.0\n"),
], ids=["inverse", "commutator"])
def test_failed_relation_check_is_config_error(tmp_path, capsys, name, edit, err):
    raw = json.loads((CONFIGS / name).read_text())
    edit(raw)
    bad = tmp_path / "relation.json"
    bad.write_text(json.dumps(raw))
    assert run(["certify", "--config", bad, "--out", tmp_path]) == 2
    assert capsys.readouterr().err == err


def test_separation_only_failure_is_named(tmp_path, capsys):
    raw = json.loads((CONFIGS / "schottky.json").read_text())
    raw["delta_separation"] = [["a+", "b+", 3.0]]
    bad = tmp_path / "sep.json"
    bad.write_text(json.dumps(raw))
    assert run(["certify", "--config", bad, "--out", tmp_path]) == 1
    out = capsys.readouterr().out
    assert out.startswith("FAIL first failing record: separation a+ vs b+: required 3.0")
    cert = json.loads((tmp_path / "certificate.json").read_text())
    assert cert["verdict"] == "fail"
    assert all(r["pass"] for r in cert["records"])
    [row] = cert["separation"]
    assert (row["a"], row["b"], row["required"]) == ("a+", "b+", 3.0)
    assert 0 < row["measured"] < 3.0


def test_vertex_without_outgoing_edge_fails_every_command_at_load(tmp_path, capsys):
    raw = json.loads((CONFIGS / "single_loop.json").read_text())
    raw["graph"]["vertices"].append({"id": "dead", "type": "singleton", "word": "g"})
    bad = tmp_path / "dead.json"
    bad.write_text(json.dumps(raw))
    err = "config error: graph: vertices with no outgoing edge: ['dead']\n"
    for command in ("certify", "gaps"):
        assert run([command, "--config", bad, "--out", tmp_path]) == 2
        assert capsys.readouterr().err == err
    assert not (tmp_path / "gaps.csv").exists()


def _tan_balls(*centers):
    """Chart balls of radius 0.2 about tan(c) in the chart [1, 0]."""
    return [{"kind": "chart_ball", "chart": [1, 0], "center": [math.tan(c)], "radius": 0.2}
            for c in centers]


_VA = {"kind": "chart_ball", "chart": [1, 0, 0, 0], "center": [0, 0, 0], "radius": 0.25}
# config, domains replaced, exit code of every command. Each config mixes
# kinds whose samplers return different counts: a d = 2 ball has 2 boundary
# rows and 16 interior ones, the three-ball union 2 and 15; a d = 4 ball 32
# boundary rows, a union with a half-radius ball inside it 16, a cube 36
MIXED_KINDS = {
    "schottky-union-polytope": ("schottky.json", {
        "a+": {"kind": "union", "members": _tan_balls(-0.1, 0.0, 0.1)},
        "b+": {"kind": "polytope", "chart": [1, 1],
               "vertices": [[-math.tan(0.3)], [math.tan(0.3)]]}}, 0),
    "jordan-union": ("jordan_diag.json", {
        "va": {"kind": "union", "members": [_VA, dict(_VA, radius=0.125)]}}, 0),
    "jordan-cube": ("jordan_diag.json", {
        "va": {"kind": "polytope", "chart": [1, 0, 0, 0],
               "vertices": [[x, y, z] for x in (-.16, .16) for y in (-.16, .16)
                            for z in (-.16, .16)]}}, 0),
    "jordan-polytope": ("jordan_diag.json", {
        "va": {"kind": "polytope", "chart": [1, 0, 0, 0],
               "vertices": [[.25, 0, 0], [-.2, .1, 0], [0, -.22, .05], [0, .05, .24],
                            [.05, 0, -.2], [-.1, -.1, -.1]]}}, 1),
}


def _mixed(tmp_path, name):
    """Write the MIXED_KINDS config ``name`` to tmp_path / "mixed.json"."""
    source, domains, _ = MIXED_KINDS[name]
    raw = json.loads((CONFIGS / source).read_text())
    raw["domains"].update(domains)
    raw["budgets"]["path_count"] = 6
    raw["rates"] = {"depth": 12, "paths": 3}
    cfg = tmp_path / "mixed.json"
    cfg.write_text(json.dumps(raw))
    return cfg, raw


@pytest.mark.parametrize("name", MIXED_KINDS)
def test_every_domain_kind_runs_every_command(tmp_path, capsys, name):
    code = MIXED_KINDS[name][2]
    cfg, raw = _mixed(tmp_path, name)
    commands = ["certify", "limitset", "rates"] + (["probe"] if raw["dimension"] == 4 else [])
    for command in commands:
        assert run([command, "--config", cfg, "--out", tmp_path / command]) == code, command
    assert "Traceback" not in capsys.readouterr().err
    if code == 0:
        rows = (tmp_path / "limitset" / "limit_set.csv").read_text().splitlines()[2:]
        assert len(rows) == 6
        assert all(0 < float(r.rsplit(",", 1)[1]) < 1e-6 for r in rows)  # radius bounds


def test_union_limitset_draws_dual_covectors_once(tmp_path, capsys, monkeypatch):
    calls, draws = [], {}
    memo, member = domains.SampledSet.dual_covectors, domains.ChartBall.dual_covectors

    def counted(self, n, seed=0):
        calls.append((id(self), n, seed))
        return memo(self, n, seed)

    def drawn(self, n, seed=0):
        draws[id(self), n, seed] = draws.get((id(self), n, seed), 0) + 1
        return member(self, n, seed)

    monkeypatch.setattr(domains.SampledSet, "dual_covectors", counted)
    monkeypatch.setattr(domains.ChartBall, "dual_covectors", drawn)
    cfg, _ = _mixed(tmp_path, "jordan-union")
    assert run(["limitset", "--config", cfg, "--out", tmp_path]) == 0
    # each union member is drawn from once per draw of the union
    assert len(draws) == 2 * len(set(calls)) and set(draws.values()) == {1}
    assert len(calls) > len(set(calls))


def test_union_limitset_keeps_its_bytes(tmp_path, capsys, monkeypatch):
    _mixed(tmp_path, "jordan-union")
    monkeypatch.chdir(tmp_path)  # the header names the config by this relative path
    assert run(["limitset", "--config", "mixed.json", "--out", "out"]) == 0
    digest = hashlib.sha256((tmp_path / "out" / "limit_set.csv").read_bytes()).hexdigest()
    assert digest == "e51a5af8b7e9670285b3eee69d77770f17c318a1acbf7f8a2245069a6ca8e524"


@pytest.mark.parametrize("command, name, code", [
    ("certify", "schottky.json", 0), ("limitset", "schottky.json", 0),
    ("rates", "schottky.json", 0), ("certify", "schottky_repelling.json", 1)])
def test_certificate_keys(tmp_path, capsys, command, name, code):
    assert run([command, "--config", CONFIGS / name, "--out", tmp_path]) == code
    cert = json.loads((tmp_path / "certificate.json").read_text())
    assert sorted(cert) == ["budgets", "epsilon", "metadata", "min_margin", "records",
                            "separation", "tail_disclosures", "verdict"]
    assert cert["separation"] == []


@pytest.mark.parametrize("name, command, edit", [
    ("schottky.json", "certify", lambda raw: raw["graph"]["vertices"][0].pop("id")),
    ("schottky.json", "certify", _set("graph", "vertices", 0, "id", None)),
    ("schottky.json", "certify", _set("graph", "vertices", 0, "id", [])),
    ("schottky.json", "certify", _set("graph", "vertices", 0, "word", None)),
    ("schottky.json", "certify", _set("graph", "vertices", 0, "word", {})),
    ("schottky.json", "certify", _set("graph", "edges", 0, 1, [])),
    ("schottky.json", "certify", _set("graph", "edges", 0, ["a+"])),
    ("schottky.json", "certify", _set("generators", 0, "name", [])),
    ("jordan_diag.json", "certify", _set("graph", "vertices", 0, "coset_word", 0)),
    ("jordan_diag.json", "certify", _set("graph", "vertices", 0, "excluded", [None])),
    ("jordan_diag.json", "certify", _set("graph", "vertices", 0, "excluded", "a")),
    ("jordan_diag.json", "certify", _set("derived", 0, "word", None)),
    ("single_loop.json", "gaps", _set("gaps", "word", None)),
    ("single_loop.json", "gaps", _set("gaps", "word", ["g"])),
])
def test_non_string_word_or_id_is_config_error(tmp_path, capsys, name, command, edit):
    raw = json.loads((CONFIGS / name).read_text())
    edit(raw)
    bad = tmp_path / "strings.json"
    bad.write_text(json.dumps(raw))
    assert _config_error([command, "--config", bad, "--out", tmp_path], capsys)


NUMERIC_LEAVES = [
    ("schottky.json", "certify", ("domains", "a+", "center_angle")),
    ("schottky.json", "certify", ("domains", "a+", "radius_angle")),
    ("jordan_diag.json", "certify", ("domains", "va", "center")),
    ("jordan_diag.json", "certify", ("domains", "va", "radius")),
    ("schottky.json", "certify", ("graph", "epsilon")),
    ("schottky.json", "certify", ("delta_separation", 0, 2)),
    ("jordan_diag.json", "certify", ("peripherals", 0, "truncation")),
    ("jordan_diag.json", "certify", ("graph", "vertices", 0, "min_power")),
    ("single_loop.json", "rates", ("rates", "depth")),
    ("single_loop.json", "rates", ("rates", "paths")),
    ("single_loop.json", "rates", ("rates", "depth_range")),
    ("single_loop.json", "gaps", ("gaps", "count")),
    ("single_loop.json", "gaps", ("gaps", "k")),
    ("single_loop.json", "gaps", ("gaps", "threshold")),
    ("single_loop.json", "certify", ("seeds", "master")),
    ("single_loop.json", "certify", ("budgets", "path_count")),
]


@pytest.mark.parametrize("value", [None, "x", [], {}], ids=["null", "str", "list", "object"])
@pytest.mark.parametrize("name, command, leaf", NUMERIC_LEAVES,
                         ids=[".".join(map(str, leaf)) for _, _, leaf in NUMERIC_LEAVES])
def test_non_numeric_config_number_is_config_error(tmp_path, capsys, name, command, leaf,
                                                   value):
    raw = json.loads((CONFIGS / name).read_text())
    _set(*leaf, value)(raw)
    bad = tmp_path / "number.json"
    bad.write_text(json.dumps(raw))
    assert _config_error([command, "--config", bad, "--out", tmp_path], capsys)


@pytest.mark.parametrize("name, vertex, key", [
    ("schottky.json", "a+", "center_angle"),
    ("schottky.json", "a+", "radius_angle"),
    ("jordan_diag.json", "va", "chart"),
    ("jordan_diag.json", "va", "center"),
    ("jordan_diag.json", "va", "radius"),
])
def test_missing_domain_key_is_config_error(tmp_path, capsys, name, vertex, key):
    raw = json.loads((CONFIGS / name).read_text())
    del raw["domains"][vertex][key]
    bad = tmp_path / "domain.json"
    bad.write_text(json.dumps(raw))
    assert _config_error(["certify", "--config", bad, "--out", tmp_path], capsys)


@pytest.mark.parametrize("name, command, edit", [
    ("schottky.json", "certify", _set("graph", "epsilon", 0)),
    ("schottky.json", "certify", _set("graph", "epsilon", -1)),
    ("schottky.json", "certify", _set("domains", "a+", "radius_angle", 2.0)),
    ("schottky.json", "certify", _set("domains", "a+", "kind", [])),
    ("schottky.json", "certify", _set("delta_separation", 0, ["a+", "b+"])),
    ("jordan_diag.json", "certify", _set("domains", "va", "radius", -0.25)),
    ("single_loop.json", "certify", _set("seeds", "master", -1)),
    ("single_loop.json", "certify", _set("budgets", "path_count", 0)),
    ("single_loop.json", "rates", _set("rates", "depth", 1)),
    # a sampled path needs depth >= 2, even where rates has a depth of its own
    pytest.param("schottky.json", "limitset", _set("budgets", "depth", 1),
                 id="budgets-depth-1-limitset"),
    ("schottky.json", "limitset", _set("tolerances", {"convergence": True})),
    # min_power above the peripheral truncation (16) leaves the label empty
    pytest.param("jordan_diag.json", "certify",
                 _set("graph", "vertices", 0, "min_power", 100), id="empty-label-certify"),
    pytest.param("jordan_diag.json", "probe",
                 _set("graph", "vertices", 0, "min_power", 100), id="empty-label-probe"),
    pytest.param("jordan_diag.json", "certify",
                 lambda raw: [v.update(min_power=100) for v in raw["graph"]["vertices"]],
                 id="empty-labels-certify"),
    # valid numbers that leave no proper pullback ball: 2 (delta + epsilon) >= pi/2
    pytest.param("pgl2z.json", "synthesize", _set("synthesis", "delta", 2.5),
                 id="synthesis-delta-2.5"),
    pytest.param("pgl2z.json", "synthesize", _set("synthesis", "epsilon", 0.8),
                 id="synthesis-epsilon-0.8"),
    # depth_range needs 1 <= first <= last <= rates.depth (20)
    pytest.param("single_loop.json", "rates", _set("rates", "depth_range", [20, 5]),
                 id="depth-range-reversed"),
    pytest.param("single_loop.json", "rates", _set("rates", "depth_range", [5, 30]),
                 id="depth-range-past-depth"),
    pytest.param("pgl2z.json", "synthesize", _set("peripherals", 0, "truncation", 0),
                 id="truncation-zero"),
])
def test_out_of_range_config_value_is_config_error(tmp_path, capsys, name, command, edit):
    raw = json.loads((CONFIGS / name).read_text())
    edit(raw)
    bad = tmp_path / "range.json"
    bad.write_text(json.dumps(raw))
    assert _config_error([command, "--config", bad, "--out", tmp_path], capsys)


def _with_hilbert(edit=lambda spec: None):
    """Give jordan_diag.json a valid hilbert section, then apply ``edit`` to it."""
    def add(raw):
        raw["hilbert"] = {"domain": {"kind": "chart_ball", "chart": [1, 0, 0, 0],
                                     "center": [0, 0, 0], "radius": 0.25},
                          "x": [1, 0, 0, 0], "y": [1, 0.1, 0, 0]}
        edit(raw["hilbert"])
    return add


def _bad(name, command, edit, id):
    return pytest.param(name, command, edit, id=id)


@pytest.mark.parametrize("name, command, edit", [
    # structure errors
    _bad("jordan_diag.json", "probe", _set("probe", 5), "probe-number"),
    _bad("jordan_diag.json", "probe", _set("probe", "t_grid"), "probe-string"),
    _bad("jordan_diag.json", "probe", _set("probe", "t_grid", 5), "t_grid-number"),
    _bad("jordan_diag.json", "probe", _set("probe", "t_grid", ["x"]), "t_grid-string-entry"),
    _bad("jordan_diag.json", "probe", _set("probe", "t_grid", [None]), "t_grid-null-entry"),
    _bad("jordan_diag.json", "hilbert", _set("hilbert", [1]), "hilbert-list"),
    *(_bad("jordan_diag.json", "hilbert", _with_hilbert(lambda spec, k=k: spec.pop(k)),
           f"hilbert-no-{k}") for k in ("domain", "x", "y")),
    _bad("jordan_diag.json", "hilbert", _with_hilbert(_set("x", 0, "a")), "hilbert-x-string"),
    _bad("jordan_diag.json", "hilbert", _with_hilbert(_set("y", [1, 0])), "hilbert-y-short"),
    _bad("jordan_diag.json", "certify", lambda raw: raw["peripherals"][0].pop("name"),
         "peripheral-no-name"),
    _bad("pgl2z.json", "synthesize", lambda raw: raw["peripherals"][0].pop("name"),
         "synthesis-peripheral-no-name"),
    _bad("pgl2z.json", "synthesize", _set("peripherals", 0, "parabolic_point", "x"),
         "parabolic-point-string"),
    _bad("pgl2z.json", "synthesize", _set("peripherals", 0, "parabolic_point", [1]),
         "parabolic-point-short"),
    _bad("schottky.json", "certify", _set("generators", {}), "generators-object"),
    _bad("jordan_diag.json", "certify", _set("derived", "alpha"), "derived-string"),
    _bad("jordan_diag.json", "certify", _set("peripherals", "pa"), "peripherals-string"),
    _bad("jordan_diag.json", "certify", _set("peripherals", 0, "pa"), "peripheral-string"),
    _bad("schottky.json", "certify", _set("graph", []), "graph-list"),
    _bad("schottky.json", "certify", _set("graph", "vertices", "a+"), "vertices-string"),
    _bad("schottky.json", "certify", _set("graph", "edges", 5), "edges-number"),
    _bad("schottky.json", "certify", lambda raw: raw["graph"].pop("epsilon"),
         "graph-no-epsilon"),
    _bad("schottky.json", "certify", _set("graph", "epsilon", "auto"), "graph-epsilon-auto"),
    _bad("jordan_diag.json", "certify", _set("peripherals", 0, "abelian", "no"),
         "abelian-string"),
    _bad("jordan_diag.json", "certify", _set("peripherals", 0, "abelian", True),
         "peripheral-abelian-key"),
    _bad("jordan_diag.json", "certify", _set("peripherals", 0, "generators", []),
         "peripheral-no-generators"),
    _bad("jordan_diag.json", "certify",
         _set("peripherals", 0, "generators", ["alpha", "beta", "A"]),
         "peripheral-three-generators"),
    _bad("pgl2z.json", "synthesize", _set("peripherals", 0, "generators", "ts"),
         "peripheral-generators-string"),
    _bad("single_loop.json", "gaps", _set("generators", 0, "matrix", 0, 0, 10**400),
         "matrix-entry-beyond-floats"),
    _bad("jordan_diag.json", "certify",
         _set("domains", "va", {"kind": "polytope", "chart": [1, 0, 0, 0],
                                "vertices": [[0, 0, 0], [0.1, 0, 0], [0.2, 0, 0], [0.3, 0, 0]]}),
         "polytope-flat"),
    # words and references
    _bad("jordan_diag.json", "certify", _set("derived", 1, "word", "M A^24 Q"),
         "derived-word-unknown"),
    _bad("schottky.json", "certify", _set("graph", "vertices", 0, "word", "q"),
         "vertex-word-unknown"),
    _bad("jordan_diag.json", "certify", _set("graph", "vertices", 0, "coset_word", "q"),
         "coset-word-unknown"),
    _bad("single_loop.json", "gaps", _set("gaps", "word", "q"), "gaps-word-unknown"),
    _bad("jordan_diag.json", "certify", _set("graph", "vertices", 0, "excluded", ["q^"]),
         "excluded-bad-token"),
    _bad("schottky.json", "certify", _set("delta_separation", 0, 1, "zz"),
         "separation-unknown-vertex"),
    # beta = M A^24 M^-1 is singular in floats at t = 1 (condition about e^48)
    _bad("jordan_split.json", "probe", _set("probe", "t_grid", [1.0]),
         "derived-word-singular-at-t"),
])
def test_bad_config_structure_or_reference_is_config_error(tmp_path, capsys, name, command,
                                                          edit):
    raw = json.loads((CONFIGS / name).read_text())
    edit(raw)
    bad = tmp_path / "structure.json"
    bad.write_text(json.dumps(raw))
    args = ["--config", bad] + (["--out", tmp_path] if command != "hilbert" else [])
    assert _config_error([command] + args, capsys)


def test_valid_hilbert_section_runs(tmp_path):
    raw = json.loads((CONFIGS / "jordan_diag.json").read_text())
    _with_hilbert()(raw)
    cfg = tmp_path / "hilbert.json"
    cfg.write_text(json.dumps(raw))
    assert run(["hilbert", "--config", cfg]) == 0


@pytest.mark.parametrize("command, edit, field", [
    ("certify", _set("domains", "va", "chart", [0, 0, 0, 0]), "chart_ball chart"),
    ("certify", _set("domains", "va", {"kind": "polytope", "chart": [0.0, 0, 0, 0],
                                       "vertices": [[0, 0, 0], [0.1, 0, 0], [0, 0.1, 0],
                                                    [0, 0, 0.1]]}), "polytope chart"),
    ("hilbert", _with_hilbert(_set("x", [0, 0, 0, 0])), "hilbert.x"),
    ("hilbert", _with_hilbert(_set("y", [0.0, 0.0, 0.0, 0.0])), "hilbert.y"),
    ("hilbert", _with_hilbert(_set("domain", "chart", [0, 0, 0, 0])), "chart_ball chart"),
], ids=["domain-chart", "polytope-chart", "hilbert-x", "hilbert-y", "hilbert-domain-chart"])
def test_zero_homogeneous_vector_is_config_error(tmp_path, capsys, command, edit, field):
    raw = json.loads((CONFIGS / "jordan_diag.json").read_text())
    edit(raw)
    bad = tmp_path / "zero.json"
    bad.write_text(json.dumps(raw))
    args = ["--config", bad] + (["--out", tmp_path] if command != "hilbert" else [])
    assert run([command] + args) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {field} must be a nonzero vector")
    assert "Traceback" not in err


def _union_of_va(raw):
    """jordan_diag.json with domain va as a union whose one member, the former
    va ball, has a misspelt key."""
    raw["domains"]["va"] = {"kind": "union", "members": [{**raw["domains"]["va"], "radus": 0.1}]}


# a misspelt key in an object, a command that loads the config, and the
# message. The whole config is checked at load, so every command refuses an
# unknown key in any object: a misspelt gaps key stops certify too (budgets
# and synthesis keys are checked above)
@pytest.mark.parametrize("name, command, edit, message", [
    *(("single_loop.json", command, _set("budget", {"depth": 5}), "top-level keys: budget")
      for command in ("certify", "limitset", "rates", "gaps")),
    ("single_loop.json", "gaps", _set("gaps", "treshold", 3.0), "gaps keys: treshold"),
    ("single_loop.json", "rates", _set("rates", "path", 3), "rates keys: path"),
    ("jordan_diag.json", "probe", _set("probe", "t_gird", [0.0]), "probe keys: t_gird"),
    ("jordan_diag.json", "hilbert", _with_hilbert(_set("z", [1, 0, 0, 0])), "hilbert keys: z"),
    ("schottky.json", "certify", _set("seeds", "mastr", 3), "seeds keys: mastr"),
    ("schottky.json", "certify", _set("generators", 0, "matirx", [[1, 0], [0, 1]]),
     "generator keys: matirx"),
    ("jordan_diag.json", "certify", _set("derived", 0, "wrod", "M"),
     "derived generator keys: wrod"),
    ("jordan_diag.json", "certify", _set("peripherals", 0, "truncaton", 8),
     "peripheral keys: truncaton"),
    ("schottky.json", "certify", _set("graph", "epsilom", 0.5), "graph keys: epsilom"),
    ("schottky.json", "certify", _set("graph", "vertices", 0, "wrod", "a"),
     "singleton vertex keys: wrod"),
    ("jordan_diag.json", "certify", _set("graph", "vertices", 0, "min_powr", 2),
     "parabolic vertex keys: min_powr"),
    ("schottky.json", "certify", _set("domains", "a+", "radius_angel", 0.1),
     "arc domain keys: radius_angel"),
    ("jordan_diag.json", "certify", _set("domains", "va", "radus", 0.1),
     "chart_ball domain keys: radus"),
    ("jordan_diag.json", "certify", _union_of_va, "chart_ball domain keys: radus"),
    ("jordan_diag.json", "hilbert", _with_hilbert(_set("domain", "radus", 0.1)),
     "chart_ball domain keys: radus"),
    ("single_loop.json", "certify", _set("gaps", "treshold", 3.0), "gaps keys: treshold"),
], ids=["top-certify", "top-limitset", "top-rates", "top-gaps", "gaps", "rates", "probe",
        "hilbert", "seeds", "generator", "derived", "peripheral", "graph", "singleton-vertex",
        "parabolic-vertex", "arc-domain", "chart-ball-domain", "union-member",
        "hilbert-domain", "gaps-stops-certify"])
def test_unknown_config_key_is_config_error(tmp_path, capsys, name, command, edit, message):
    raw = json.loads((CONFIGS / name).read_text())
    edit(raw)
    bad = tmp_path / "typo.json"
    bad.write_text(json.dumps(raw))
    args = ["--config", bad] + (["--out", tmp_path] if command != "hilbert" else [])
    assert run([command] + args) == 2
    err = capsys.readouterr().err
    assert err == f"config error: unknown {message}\n"


# the peripheral enumerations are cyclic and rank-2 abelian: any other
# generator count stops every command that reads a group, at load
@pytest.mark.parametrize("gens", [[], ["alpha", "beta", "A"]], ids=["none", "three"])
@pytest.mark.parametrize("command", ["certify", "limitset", "rates", "probe", "synthesize"])
def test_peripheral_rank_stops_every_command(tmp_path, capsys, command, gens):
    raw = json.loads((CONFIGS / "jordan_diag.json").read_text())
    raw["peripherals"][0]["generators"] = gens
    bad = tmp_path / "rank.json"
    bad.write_text(json.dumps(raw))
    assert run([command, "--config", bad, "--out", tmp_path]) == 2
    assert capsys.readouterr().err == (f"config error: peripheral pa must have 1 or 2 "
                                       f"generators, got {len(gens)}\n")
    assert list(tmp_path.iterdir()) == [bad]


@pytest.mark.parametrize("command", ["certify", "limitset", "rates", "probe", "synthesize",
                                     "gaps"])
def test_negative_seed_is_config_error(tmp_path, capsys, command):
    out = tmp_path / "out"
    assert run([command, "--config", CONFIGS / "single_loop.json", "--seed", -1,
                "--out", out]) == 2
    assert capsys.readouterr().err == "config error: --seed must be at least 0, got -1\n"
    assert not out.exists()


# misspelt keys in three objects of schottky.json: every command refuses the
# config at load, before it reads any section
@pytest.mark.parametrize("command", ["certify", "limitset", "rates", "probe", "gaps",
                                     "hilbert", "synthesize"])
def test_misspelt_keys_stop_every_command(tmp_path, capsys, command):
    raw = json.loads((CONFIGS / "schottky.json").read_text())
    raw["graph"]["epsilom"] = 0.5
    raw["seeds"]["mastr"] = 3
    raw["domains"]["a+"]["radius_angel"] = 0.1
    bad = tmp_path / "typos.json"
    bad.write_text(json.dumps(raw))
    args = ["--config", bad] + (["--out", tmp_path] if command != "hilbert" else [])
    assert run([command] + args) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: unknown ") and "Traceback" not in err


# one bundled config per command, plus the two that no command above uses;
# hilbert gets a section, and synthesize a small ball and grid so each run
# takes a fraction of a second
_FUZZ = {
    "certify": ("certify", "jordan_diag.json", lambda raw: None),
    "certify-repelling": ("certify", "schottky_repelling.json", lambda raw: None),
    "limitset": ("limitset", "schottky.json", lambda raw: None),
    "rates": ("rates", "single_loop.json", lambda raw: None),
    "probe": ("probe", "jordan_diag.json", lambda raw: None),
    "probe-split": ("probe", "jordan_split.json", lambda raw: None),
    "gaps": ("gaps", "single_loop.json", lambda raw: None),
    "hilbert": ("hilbert", "jordan_diag.json", _with_hilbert()),
    "synthesize": ("synthesize", "pgl2z.json",
                   lambda raw: raw["synthesis"].update(word_radius=3, grid=64)),
}


def _nodes(value, path=()):
    """The path of every value below the root of a JSON document."""
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        yield path + (key,)
        yield from _nodes(child, path + (key,))


def _mutated(value, kind):
    if kind == "type":
        return (1 if isinstance(value, str) else [] if isinstance(value, dict)
                else {} if isinstance(value, list) else "x")
    return None if kind == "null" else type(value)()  # empty: "", 0, False, [], {}


def _value(raw, path):
    return functools.reduce(operator.getitem, path, raw)


@pytest.mark.parametrize("case", sorted(_FUZZ))
@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_mutated_config_exits_without_traceback(tmp_path_factory, case, data):
    command, name, edit = _FUZZ[case]
    raw = json.loads((CONFIGS / name).read_text())
    edit(raw)
    kind = data.draw(st.sampled_from(["type", "null", "empty", "delete", "extra", "pair"]),
                     label="kind")
    if kind == "extra":
        # an unknown key in any object, the root included, is a config error
        objects = [()] + [p for p in _nodes(raw) if isinstance(_value(raw, p), dict)]
        path = data.draw(st.sampled_from(objects), label="path")
        _value(raw, path)["unknown_key"] = 1
    elif kind == "pair":
        # two leaves at once, each given another type, null or an empty value
        leaves = [p for p in _nodes(raw) if not isinstance(_value(raw, p), (dict, list))]
        paths = data.draw(st.lists(st.sampled_from(leaves), min_size=2, max_size=2,
                                   unique=True), label="paths")
        for path in paths:
            how = data.draw(st.sampled_from(["type", "null", "empty"]), label="leaf kind")
            _value(raw, path[:-1])[path[-1]] = _mutated(_value(raw, path), how)
    else:
        path = data.draw(st.sampled_from(list(_nodes(raw))), label="path")
        parent = _value(raw, path[:-1])
        if kind == "delete":
            del parent[path[-1]]
        else:
            parent[path[-1]] = _mutated(parent[path[-1]], kind)
    out = tmp_path_factory.mktemp("fuzz")
    (out / "mutated.json").write_text(json.dumps(raw))
    err = io.StringIO()
    args = [command, "--config", out / "mutated.json"]
    with contextlib.redirect_stderr(err):
        code = run(args + (["--out", out] if command != "hilbert" else []))
    assert code in ((2,) if kind == "extra" else (0, 1, 2))
    assert "Traceback" not in err.getvalue()
