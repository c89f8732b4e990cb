"""Certify the bundled Schottky system and render its limit set.

Equivalent to:
    flagdyn limitset --config configs/schottky.json --out out/schottky --svg
    flagdyn rates    --config configs/schottky.json --out out/schottky
(``limitset`` certifies first and writes the certificate beside the
limit set), all from one script.
"""

import argparse
import sys
from pathlib import Path

from flagdyn.cli import main as cli_main

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="out/schottky")
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args(argv)
    common = ["--config", str(ROOT / "configs" / "schottky.json"), "--out", str(args.out),
              "--seed", str(args.seed)]
    rc = cli_main(["limitset", *common, "--svg"])
    if rc != 0:
        return rc
    return cli_main(["rates", *common])


if __name__ == "__main__":
    sys.exit(main())
