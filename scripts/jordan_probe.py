"""Run both deformation probes of the unipotent-block free group.

The diagonalizable path keeps the attracting line fixed and stays
certified across the grid; the split path moves the top eigenvalue to a
different axis for every t > 0 and loses certification.
"""

import sys
from pathlib import Path

from flagdyn.cli import main as cli_main

ROOT = Path(__file__).resolve().parent.parent


def main():
    for name in ("jordan_diag", "jordan_split"):
        cfg = str(ROOT / "configs" / f"{name}.json")
        print(f"== probe {name}")
        code = cli_main(["probe", "--config", cfg, "--out", str(ROOT / "out" / name)])
        print(f"   exit {code} (0 = every grid point certifies)")
    # a failing grid point is the expected outcome for the split path
    return 0


if __name__ == "__main__":
    sys.exit(main())
