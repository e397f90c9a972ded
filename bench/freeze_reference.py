#!/usr/bin/env python3
"""Freeze the sweep_grid reference: delta_upper and vacuous for every Baseline row.

Run from the repository root on the commit whose output is the reference:

    python3 bench/freeze_reference.py

Writes bench/data/sweep_reference.csv.xz in mu-major order: mu, mu_prime
and eta as shortest round-trip floats, delta_upper to 10 decimals (200
times inside the 1e-8 check tolerance), vacuous as true/false.
"""

from __future__ import annotations

import csv
import io
import lzma
import sys

from workloads import SRC, SWEEP_FLAGS, SWEEP_GRID, SWEEP_REFERENCE, run_cli_in_process

COLUMNS = ("mu", "mu_prime", "eta", "delta_upper", "vacuous")


def main() -> int:
    sys.path.insert(0, str(SRC))
    grid = [item for flag_value in SWEEP_GRID.items() for item in flag_value]
    code, out, err = run_cli_in_process(("sweep", *grid, *SWEEP_FLAGS))
    if code != 0:
        print(f"sweep exited {code}: {err[-500:]}", file=sys.stderr)
        return 1
    rows = list(csv.DictReader(io.StringIO(out)))
    SWEEP_REFERENCE.parent.mkdir(exist_ok=True)
    with lzma.open(SWEEP_REFERENCE, "wt", encoding="utf-8", newline="") as fh:
        fh.write(",".join(COLUMNS) + "\n")
        for row in rows:
            keys = [repr(float(row[column])) for column in COLUMNS[:3]]
            delta = format(float(row["delta_upper"]), ".10f")
            fh.write(",".join(keys + [delta, row["vacuous"]]) + "\n")
    print(f"{len(rows)} rows -> {SWEEP_REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
