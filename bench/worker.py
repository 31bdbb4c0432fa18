"""Run one pass of benchmark operations in this process and print the results.

Reads a JSON spec on stdin: ``{"ops": [...], "trace": bool}``.  Each op is
one of

    ["count", m, n, a, b]           validate, then degree_of_power_sum_locus
    ["class", m, n]                 beta_pushforward(m, n) exported the way
                                    ``class --format json`` prints it
    ["chern", m, n, a, b, coeffs]   integrate_chern_polynomial with
                                    coeffs[e2] * s1^(m+n-2*e2) * s2^e2
    ["cli", argv, env]              tvcount.cli.main(argv), stdout captured,
                                    with ``env`` added to os.environ

Prints one JSON line: per op its output, its wall seconds and the factor
that scales them to reference seconds (see calib.py), and with tracing the
per-layer metrics of the whole pass.  The operations are called through
the package's public names, looked up at call time, so an installed tracer
sees them; importing the package is not part of a pass.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import time

import tvcount
import tvcount.cli
from calib import Speed


def run_op(op):
    kind = op[0]
    if kind == "count":
        return str(tvcount.degree_of_power_sum_locus(tvcount.validate(*op[1:5])))
    if kind == "class":
        m, n = op[1], op[2]
        envelope = {"command": "class", "inputs": {"m": m, "n": n}, "result": tvcount.beta_pushforward(m, n).to_dict(), "warnings": []}
        return hashlib.sha256(json.dumps(envelope, sort_keys=True).encode()).hexdigest()
    if kind == "chern":
        problem = tvcount.validate(*op[1:5])
        deg = problem.m + problem.n
        terms = [(c, deg - 2 * e2, e2) for e2, c in enumerate(op[5])]
        return str(tvcount.integrate_chern_polynomial(problem, terms))
    if kind == "cli":
        saved = dict(os.environ)
        os.environ.update(op[2])
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = tvcount.cli.main(list(op[1]))
        finally:
            os.environ.clear()
            os.environ.update(saved)
        return {"code": code, "stdout": out.getvalue()}
    raise ValueError(f"unknown op {kind!r}")


def run_pass(ops, tracer=None) -> dict:
    """Run the ops in order, each measured with its own speed calibration:
    ``s`` is the op's wall seconds less in-flight calibration slices and
    ``scale`` turns them into reference seconds."""
    results = []
    for op in ops:
        speed = Speed()
        speed.bracket()
        t0 = time.perf_counter()
        with speed.sampling():
            out = run_op(op)
        wall = time.perf_counter() - t0
        speed.bracket()
        results.append({"out": out, "s": wall - speed.inflight, "scale": speed.scale()})
    payload = {"results": results}
    if tracer is not None:
        payload["layers"] = tracer.metrics()
    return payload


def main() -> int:
    spec = json.load(sys.stdin)
    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer().install()
    print(json.dumps(run_pass(spec["ops"], tracer)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
