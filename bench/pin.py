#!/usr/bin/env python3
"""Write bench/pins.json: the outputs the benchmark checks every run against.

Run from the repository root, on the commit whose outputs are to be pinned:

    python3 bench/pin.py

Pins the count and the `class --format json` digest of every ladder tuple,
the integral of each single Chern monomial s1^e1 s2^e2 for every ladder
tuple (a seeded polynomial's integral is then the pinned sum, by
linearity), the `table --csv` digest and the `class` digests of the cli
workload.  No count may change between commits, so a pin is regenerated
only when an output format changes on purpose.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys

from run import CLI_CLASS, HERE, LADDER, SRC, TABLE_MAX_D, key

sys.path.insert(0, str(SRC))

import tvcount  # noqa: E402
import tvcount.cli  # noqa: E402


def cli_stdout(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = tvcount.cli.main(argv)
    if code != 0:
        raise SystemExit(f"tvcount {' '.join(argv)} exited {code}")
    return out.getvalue()


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def main() -> int:
    pins = {"counts": {}, "class": {}, "chern": {}, "cli_class": {}}
    for t in LADDER:
        problem = tvcount.validate(*t)
        m, n = problem.m, problem.n
        pins["counts"][key(t)] = str(tvcount.degree_of_power_sum_locus(problem))
        payload = cli_stdout(["class", "--m", str(m), "--n", str(n), "--format", "json"])
        pins["class"][key((m, n))] = sha256(payload.rstrip("\n"))
        deg = m + n
        pins["chern"][key(t)] = [
            str(tvcount.integrate_chern_polynomial(problem, [(1, deg - 2 * e2, e2)])) for e2 in range(deg // 2 + 1)
        ]
        print(f"pinned {t}", file=sys.stderr)
    csv = cli_stdout(["table", "--max-d", str(TABLE_MAX_D), "--csv"])
    pins["table"] = {"max_d": TABLE_MAX_D, "rows": len(csv.splitlines()) - 1, "sha256": sha256(csv)}
    for (m, n), fmt in CLI_CLASS:
        argv = ["class", "--m", str(m), "--n", str(n), "--format", fmt]
        pins["cli_class"][" ".join(argv)] = sha256(cli_stdout(argv))
    (HERE / "pins.json").write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
