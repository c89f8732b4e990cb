"""Synthesize and certify an automaton for the modular-group circle action,
then measure how well its paths track geodesics of the coned-off graph.
"""

import argparse
import sys
import time
from pathlib import Path

from flagdyn.automaton import enumerate_paths, verify_compatibility
from flagdyn.conedoff import ConedGraph, Presentation, quasigeodesic_check
from flagdyn.config import RunConfig
from flagdyn.synth import synthesize_rp1
from flagdyn.words import concat

ROOT = Path(__file__).resolve().parent.parent


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--depth", type=int, default=4, help="automaton path depth to track")
    ap.add_argument("--paths", type=int, default=2)
    ap.add_argument("--radius", type=int, default=16, help="coned-graph search radius")
    args = ap.parse_args()

    cfg = RunConfig.load(ROOT / "configs" / "pgl2z.json")
    rho = cfg.presentation()
    t0 = time.time()
    res = synthesize_rp1(rho, cfg.synthesis)
    n_par = sum(1 for v in res.graph.vertices.values() if not hasattr(v, "word"))
    print(f"synthesized {len(res.graph.vertices)} vertices "
          f"({n_par} parabolic), {len(res.graph.edges)} edges in {time.time()-t0:.1f}s")

    cert = verify_compatibility(res.graph, res.system, rho, element_cap=60)
    print(f"certificate: {'PASS' if cert.ok else 'FAIL'} min margin {cert.min_margin:.6f}")
    if not cert.ok:
        return 1

    paths, _ = enumerate_paths(res.graph, args.depth, "random", rho, seed=1,
                               cap=40, elements_per_vertex=1)
    small = [p for p in paths
             if max((abs(e) for w in p.words for _, e in w), default=0) <= 24]
    pres = Presentation(generators=sorted(rho.generators), peripherals=[("pt", "t")], rho=rho)
    coned = ConedGraph(pres, truncation=28, max_nodes=2500000)
    for p in small[: args.paths]:
        prefixes, acc = [], ()
        for w in p.words:
            acc = concat(acc, w)
            prefixes.append(acc)
        t0 = time.time()
        rep = quasigeodesic_check(coned, prefixes, radius=args.radius, d_max=8)
        print(f"path {p.code()}: Hausdorff D = {rep.measured_d} "
              f"(farthest prefix at distance {rep.farthest_distance}, {time.time()-t0:.1f}s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
