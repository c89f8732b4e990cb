"""Search for the ping-pong data of the unipotent-block free group.

Scans powers k, chart-ball radii, the neighborhood epsilon and the
peripheral truncation over configs/jordan_diag.json at t = 0, until the
two-vertex cofinite system certifies, and reports the margin landscape.
The power, radius and epsilon of the bundled jordan_*.json configs came
from this search.
"""

import argparse
import copy
import json
import time
from pathlib import Path

from flagdyn.automaton import verify_compatibility
from flagdyn.config import RunConfig

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "jordan_diag.json"


def _variant(raw, k, radius, epsilon, truncation):
    """jordan_diag.json with alpha = A^k, beta = M A^k M^-1 and the given
    ball radius, epsilon and peripheral truncation."""
    raw = copy.deepcopy(raw)
    raw["derived"] = [{"name": "alpha", "word": f"A^{k}"},
                      {"name": "beta", "word": f"M A^{k} M^-1"}]
    for p in raw["peripherals"]:
        p["truncation"] = truncation
    for domain in raw["domains"].values():
        domain["radius"] = radius
    raw["graph"]["epsilon"] = epsilon
    return RunConfig.from_dict(raw)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--powers", type=int, nargs="*", default=[8, 12, 16, 20, 24, 28])
    ap.add_argument("--radii", type=float, nargs="*", default=[0.15, 0.2, 0.25, 0.3])
    ap.add_argument("--epsilon", type=float, default=0.02)
    ap.add_argument("--truncation", type=int, default=16)
    args = ap.parse_args(argv)

    raw = json.loads(CONFIG.read_text())
    best = None
    for k in args.powers:
        for radius in args.radii:
            t0 = time.time()
            cfg = _variant(raw, k, radius, args.epsilon, args.truncation)
            graph = cfg.graph()
            cert = verify_compatibility(graph, cfg.system(graph.epsilon), cfg.presentation(0.0),
                                        element_cap=cfg.budgets["element_cap"],
                                        n_boundary=cfg.budgets["boundary_samples"],
                                        n_interior=cfg.budgets["interior_samples"])
            mark = "PASS" if cert.ok else "fail"
            print(f"k={k:3d} radius={radius:.2f} eps={args.epsilon} "
                  f"min_margin={cert.min_margin:+.4f} [{mark}] ({time.time()-t0:.1f}s)")
            if cert.ok and (best is None or cert.min_margin > best[0]):
                best = (cert.min_margin, k, radius)
    if best:
        print(f"\nbest: k={best[1]} radius={best[2]} margin={best[0]:.4f}")
        print(f"bundled in {CONFIG.name}: alpha = {raw['derived'][0]['word']} "
              f"radius={raw['domains']['va']['radius']} eps={raw['graph']['epsilon']}")
    else:
        print("\nno certifying parameters in the scanned range")


if __name__ == "__main__":
    main()
