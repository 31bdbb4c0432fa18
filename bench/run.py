#!/usr/bin/env python3
"""tvcount benchmark harness (standard library only).

Run from the root of a tvcount checkout; the package is imported from
``./src``:

    python3 bench/run.py --workload ladder-count --seed 1 --seconds 20 --trace 0

Every workload is a closed loop with one caller: a pass starts only after
the previous one has ended, and passes repeat until ``--seconds`` have gone
by.  The last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; with ``--trace 0`` the
metrics are the end-to-end ones (pass_s, setup_s, peak_rss_mb), with
``--trace 1`` the per-layer ones from traced passes.  The line before it
holds the run's details: raw wall times, samples, and the per-kind figures
(count_s, table_par_s, proc_ms_p90, ...).  Times are normalised to a
reference machine speed (see calib.py).  bench/README.md describes each
workload and metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import re
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"

CLASSICAL = {(2, 3, 3, 2): 40, (4, 6, 3, 2): 3762, (3, 5, 5, 3): 29822, (4, 10, 5, 2): 626327}
# the classical four, one gcd-1 tuple with m+n = 31 and two gcd-2 tuples;
# their (m, n) are pairwise distinct
LADDER = (*CLASSICAL, (10, 21, 21, 10), (8, 18, 9, 4), (12, 26, 13, 6))
TABLE_MAX_D = 40
# small (m, n) for `class`, each output format and both gcd cases
CLI_CLASS = (((2, 3), "json"), ((3, 4), "text"), ((4, 6), "latex"), ((5, 8), "json"))
INVALID = (
    ["count", "--m", "3", "--n", "6", "--a", "2", "--b", "1"],  # gcd 3
    ["count", "--d", "7", "--a", "3", "--b", "2"],  # d not divisible by a
)
SETUP_SPAWNS = 5  # per window
TIMEOUT_S = 120

# what one pass runs: ladder operations of each kind, each kind in its own
# fresh worker process so that no (m, n) repeats within a process; the
# serial and the pooled table; the stream of cli processes
WORKLOADS = {
    "ladder-count": ("count",),
    "ladder-export": ("class", "chern"),
    "table": ("table",),
    "cli": ("cli",),
}
TABLE_ARGV = ["table", "--max-d", str(TABLE_MAX_D), "--csv"]
# detail-line figure -> prefix of the op ids whose medians it sums
FIGURES = {"count_s": "count:", "class_s": "class:", "chern_s": "chern:", "table_s": "serial", "table_par_s": "pool"}


def median(xs):
    return statistics.median(xs) if xs else 0.0


# -- processes ------------------------------------------------------------------


def child_env(threads: str | None = None) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "TVCOUNT_THREADS")}
    env["PYTHONPATH"] = str(SRC)
    if threads is not None:
        env["TVCOUNT_THREADS"] = threads
    return env


def spawn(args, env, stdin=None):
    """Run ``python <args>``; return (wall seconds, exit code, stdout, stderr)."""
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, *args], input=stdin, capture_output=True, text=True, env=env, timeout=TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return time.perf_counter() - t0, None, "", "timeout"
    return time.perf_counter() - t0, proc.returncode, proc.stdout, proc.stderr


def shim(args, env, python_flags=()):
    """A fresh ``python -m tvcount.cli <args>`` process run through shim.py.

    Returns (normalised seconds, raw seconds, spawn-to-exit wall seconds,
    exit code, stdout, stderr); the first two time the process from its
    import of tvcount.cli to the end of the command."""
    wall, code, out, err = spawn([*python_flags, str(HERE / "shim.py"), *args], env)
    calib = [line.split()[1:] for line in err.splitlines() if line.startswith("#calib ")]
    if len(calib) != 1:
        return wall, wall, wall, code if code else -1, out, err
    seconds, scale = map(float, calib[0])
    return seconds * scale, seconds, wall, code, out, err


def check_sources() -> None:
    """Make sure children import tvcount from ./src (this also compiles it)."""
    _, code, out, err = spawn(["-c", "import tvcount.cli; print(tvcount.cli.__file__)"], child_env())
    if code != 0 or not Path(out.strip()).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"cannot import tvcount.cli from {SRC}: {err.strip() or out.strip()}")


def setup(trace: bool, walls: list[float], imports: list[float]) -> None:
    """Fresh interpreters that import tvcount.cli: append the normalised
    seconds of each import, and with tracing its cumulative time in ms as
    ``-X importtime`` reports it, normalised the same way."""
    env = child_env()
    for _ in range(SETUP_SPAWNS):
        norm, raw, _, code, _, err = shim(["--import-only"], env, ("-X", "importtime") if trace else ())
        if code != 0:
            raise RuntimeError(f"import failed: {err.strip()}")
        walls.append(norm)
        if trace:
            hit = re.search(r"^import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*tvcount\.cli$", err, re.M)
            imports.append(int(hit.group(1)) / 1e3 * norm / raw)


def run_worker(ops, trace: bool):
    """One pass in a fresh worker process (worker.py); its payload, or None."""
    _, code, out, err = spawn([str(HERE / "worker.py")], child_env(), json.dumps({"ops": ops, "trace": trace}))
    if code != 0:
        print(f"worker failed ({code}): {err.strip()[-500:]}", file=sys.stderr)
        return None
    return json.loads(out.splitlines()[-1])


# -- inputs -----------------------------------------------------------------------


def key(t) -> str:
    return ",".join(map(str, t))


def ladder_ops(kind: str, rng: random.Random) -> list:
    order = list(LADDER)
    rng.shuffle(order)
    ops = []
    for t in order:
        m, n = sorted(t[:2])
        if kind == "count":
            ops.append(["count", *t])
        elif kind == "class":
            ops.append(["class", m, n])
        else:
            # no zero coefficient, so every monomial is integrated on every seed
            coeffs = [rng.choice((-1, 1)) * rng.randint(1, 9) for _ in range((m + n) // 2 + 1)]
            ops.append(["chern", *t, coeffs])
    return ops


def random_form(rng: random.Random) -> list[Fraction]:
    return [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(rng.randint(20, 60) + 1)]


def transvectant(f: list[Fraction], g: list[Fraction]) -> list[Fraction]:
    """{f, g} = f_x g_y - f_y g_x on x-descending coefficient lists, written
    independently of the package so its output can be checked."""

    def dx(c):
        e = len(c) - 1
        return [c[i] * (e - i) for i in range(e)]

    def dy(c):
        return [c[i] * i for i in range(1, len(c))]

    def mul(p, q):
        out = [Fraction(0)] * (len(p) + len(q) - 1)
        for i, a in enumerate(p):
            for j, b in enumerate(q):
                out[i + j] += a * b
        return out

    return [x - y for x, y in zip(mul(dx(f), dy(g)), mul(dy(f), dx(g)))]


def cli_items(rng: random.Random, pins: dict) -> list[dict]:
    """One pass of the cli workload in seeded order.  Each item has its argv,
    expected exit code and output check, the (m, n) it evaluates, and an id
    that names the same command in every pass."""
    items = []
    for (m, n, a, b), value in CLASSICAL.items():
        mn = [sorted((m, n))]
        for shape in (["--m", str(m), "--n", str(n)], ["--d", str(a * m)]):
            argv = ["count", *shape, "--a", str(a), "--b", str(b)]
            items.append({"argv": argv, "code": 0, "check": ["text", f"{value}\n"], "mn": mn})
            items.append({"argv": argv + ["--json"], "code": 0, "check": ["degree", str(value)], "mn": mn})
    items.append({"argv": ["selftest"], "code": 0, "check": ["selftest", None], "mn": [sorted(t[:2]) for t in CLASSICAL]})
    for (m, n), fmt in CLI_CLASS:
        argv = ["class", "--m", str(m), "--n", str(n), "--format", fmt]
        items.append({"argv": argv, "code": 0, "check": ["sha256", pins["cli_class"][" ".join(argv)]], "mn": [[m, n]]})
    for as_json in (False, False, True, True):
        f, g = random_form(rng), random_form(rng)
        # argparse reads `--f -1,2` as an option, so the forms go as `--f=...`
        argv = ["transvect", "--f=" + ",".join(map(str, f)), "--g=" + ",".join(map(str, g))]
        expected = [str(c) for c in transvectant(f, g)]
        if as_json:
            items.append({"argv": argv + ["--json"], "code": 0, "check": ["coeffs", expected], "mn": []})
        else:
            items.append({"argv": argv, "code": 0, "check": ["text", ",".join(expected) + "\n"], "mn": []})
    for argv in INVALID:
        items.append({"argv": argv, "code": 2, "check": ["text", ""], "mn": []})
    for i, item in enumerate(items):
        item["id"] = str(i)
    rng.shuffle(items)
    return items


# -- checks -----------------------------------------------------------------------


def ladder_ok(op, out, pins) -> bool:
    kind = op[0]
    if kind == "count":
        t = tuple(op[1:5])
        return out == pins["counts"][key(t)] and CLASSICAL.get(t, int(out)) == int(out)
    if kind == "class":
        return out == pins["class"][key(op[1:3])]
    pinned = pins["chern"][key(op[1:5])]
    return out == str(sum(c * int(v) for c, v in zip(op[5], pinned)))


def cli_ok(item, code, stdout) -> bool:
    if code != item["code"]:
        return False
    kind, want = item["check"]
    try:
        if kind == "text":
            return stdout == want
        if kind == "sha256":
            return hashlib.sha256(stdout.encode()).hexdigest() == want
        if kind == "degree":
            env = json.loads(stdout)
            return env["command"] == "count" and env["result"]["degree"] == want
        if kind == "coeffs":
            env = json.loads(stdout)
            return env["command"] == "transvect" and env["result"]["coeffs"] == want
        if kind == "selftest":
            lines = stdout.splitlines()
            return len(lines) == len(CLASSICAL) and all(line.startswith("PASS ") for line in lines)
    except (ValueError, KeyError, TypeError):
        return False
    raise ValueError(f"unknown check {kind!r}")


def table_ok(code, stdout, pins) -> bool:
    # the pin is the serial output, so this also checks that the pooled
    # output is byte-identical to it
    return code == 0 and hashlib.sha256(stdout.encode()).hexdigest() == pins["table"]["sha256"]


def repeat_share(groups) -> float:
    """Share of evaluations whose (m, n) an earlier evaluation in the same
    process already used: the hits a cache keyed on (m, n) could get."""
    total = repeats = 0
    for group in groups:
        seen = set()
        for mn in map(tuple, group):
            total += 1
            repeats += mn in seen
            seen.add(mn)
    return repeats / total if total else 0.0


def digits(values) -> int:
    return sum(len(str(abs(int(v)))) for v in values)


def result_digits(ops, outs) -> int:
    """Decimal digits of the integers a pass returns: counts, Chern integrals,
    table degrees."""
    values = []
    for op, out in zip(ops, outs):
        if op[0] in ("count", "chern"):
            values.append(out)
        elif op[0] == "cli" and op[1][0] == "table":
            values += [line.rsplit(",", 1)[1] for line in out["stdout"].splitlines()[1:]]
        elif op[0] == "cli" and op[1][0] == "count" and out["code"] == 0 and "--json" not in op[1]:
            values.append(out["stdout"])
    return digits(values)


def table_mn(out) -> list:
    return [line.split(",")[3:5] for line in out["stdout"].splitlines()[1:]]


# -- passes -----------------------------------------------------------------------


def plan(workload: str, rng, pins) -> list[dict]:
    """One pass as segments.  Each segment has its ops, each op's id across
    passes, a check per op, the (m, n) each process evaluates (None: read
    them from the table output), and whether its ops run as CLI processes
    (else in one warm worker process)."""
    segments = []
    for kind in WORKLOADS[workload]:
        if kind == "table":
            check = lambda out: table_ok(out["code"], out["stdout"], pins)  # noqa: E731
            ops = [["cli", TABLE_ARGV, {}], ["cli", TABLE_ARGV, {"TVCOUNT_THREADS": "2"}]]
            segments.append({"ops": ops, "ids": ["serial", "pool"], "checks": [check, check], "mn": None, "spawn": True})
        elif kind == "cli":
            items = cli_items(rng, pins)
            segments.append({
                "ops": [["cli", it["argv"], {}] for it in items],
                "ids": [it["id"] for it in items],
                "checks": [lambda out, it=it: cli_ok(it, out["code"], out["stdout"]) for it in items],
                "mn": [it["mn"] for it in items],
                "spawn": True,
            })
        else:
            ops = ladder_ops(kind, rng)
            segments.append({
                "ops": ops,
                "ids": [f"{kind}:{key(op[1:5])}" for op in ops],
                "checks": [lambda out, op=op: ladder_ok(op, out, pins) for op in ops],
                "mn": [[sorted(op[1:3]) for op in ops]],
                "spawn": False,
            })
    return segments


def combine(layers: list[dict]) -> dict:
    """Per-layer metrics of several processes of one pass."""
    out = {}
    for layer in layers:
        for k, v in layer.items():
            out[k] = max(out.get(k, 0), v) if k == "cycles.gamma_max_bits" else out.get(k, 0) + v
    return out


class Run:
    """One run's samples, attempts and failures."""

    def __init__(self, workload: str):
        self.workload = workload
        self.passes = 0
        self.attempted = 0
        self.failed = 0
        self.norm: dict[str, list[float]] = {}  # op id -> normalised seconds, one per pass
        self.raw: dict[str, list[float]] = {}
        self.spawn_ms: list[float] = []  # cli and table processes, spawn to exit
        self.traced: list[float] = []
        self.untraced: list[float] = []
        self.layers: list[dict] = []
        self.digits: list[int] = []
        self.mn_share = 0.0

    def record(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok

    def sample(self, op_id: str, norm: float, raw: float) -> None:
        self.norm.setdefault(op_id, []).append(norm)
        self.raw.setdefault(op_id, []).append(raw)

    @staticmethod
    def typical(samples: dict, prefix: str = "") -> float:
        """Sum over a pass's operations of each one's median across passes,
        so that one slow operation in one pass does not move it."""
        return sum(median(v) for k, v in samples.items() if k.startswith(prefix))

    def worker(self, segment: dict, trace: bool) -> dict | None:
        """A segment run in-process by a fresh worker; returns its payload."""
        payload = run_worker(segment["ops"], trace)
        if payload is None:
            for _ in segment["ops"]:
                self.record(False)
            return None
        payload["outs"] = [res["out"] for res in payload["results"]]
        for check, out in zip(segment["checks"], payload["outs"]):
            self.record(check(out))
        payload["norm"] = [res["s"] * res["scale"] for res in payload["results"]]
        return payload

    def untraced_pass(self, rng, pins) -> None:
        """A pass as a user meets it: ladder operations in warm worker
        processes, table and cli commands as fresh processes."""
        self.passes += 1
        for seg in plan(self.workload, rng, pins):
            if not seg["spawn"]:
                payload = self.worker(seg, trace=False)
                if payload is not None:
                    for op_id, norm, res in zip(seg["ids"], payload["norm"], payload["results"]):
                        self.sample(op_id, norm, res["s"])
                continue
            for op, op_id, check in zip(seg["ops"], seg["ids"], seg["checks"]):
                norm, raw, wall, code, out, _ = shim(op[1], child_env(op[2].get("TVCOUNT_THREADS")))
                self.record(check({"code": code, "stdout": out}))
                self.sample(op_id, norm, raw)
                self.spawn_ms.append(1e3 * wall)

    def traced_pass(self, rng, pins) -> None:
        """Traced and untraced in-process passes, alternating; their ratio is
        the tracing overhead."""
        trace = len(self.untraced) > len(self.traced)
        self.passes += 1
        total, layers, digits_, groups = 0.0, [], 0, []
        for seg in plan(self.workload, rng, pins):
            payload = self.worker(seg, trace)
            if payload is None:
                return
            total += sum(payload["norm"])
            if trace:
                # the segment's raw seconds against its reference seconds
                scale = sum(payload["norm"]) / sum(res["s"] for res in payload["results"])
                layers.append({k: v * scale if k.endswith("_ms") else v for k, v in payload["layers"].items()})
                digits_ += result_digits(seg["ops"], payload["outs"])
                groups += seg["mn"] if seg["mn"] is not None else [table_mn(out) for out in payload["outs"]]
        (self.traced if trace else self.untraced).append(total)
        if trace:
            self.layers.append(combine(layers))
            self.digits.append(digits_)
            self.mn_share = repeat_share(groups)


def load_pins() -> dict:
    return json.loads((HERE / "pins.json").read_text())


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    pins = load_pins()
    rng = random.Random(seed)
    check_sources()
    # set-up is measured before and after the passes, in two windows of time
    setup_s, import_ms = [], []
    setup(trace, setup_s, import_ms)
    run = Run(workload)
    t_end = time.perf_counter() + seconds
    while True:
        if trace:
            run.traced_pass(rng, pins)
            done = (run.traced and run.untraced) or run.failed
        else:
            run.untraced_pass(rng, pins)
            done = True
        if done and time.perf_counter() >= t_end:
            break
    setup(trace, setup_s, import_ms)

    detail = {"workload": workload, "seed": seed, "passes": run.passes, "ops": run.attempted, "ops_failed": run.failed}
    if trace:
        metrics = {"cli.import_ms": (median(import_ms), "ms")}
        for name in run.layers[0] if run.layers else ():
            unit = "ms" if name.endswith("_ms") else "count"
            metrics[name] = (median([layer[name] for layer in run.layers]), unit)
        metrics["table.mn_repeat_share"] = (run.mn_share, "ratio")
        metrics["result_digits"] = (median(run.digits), "count")
        metrics["trace.pass_s"] = (median(run.traced), "s")
        untraced = median(run.untraced)
        metrics["trace.overhead"] = (median(run.traced) / untraced if untraced else 0.0, "ratio")
        detail.update(traced_pass_s=run.traced, untraced_pass_s=run.untraced)
    else:
        metrics = {
            "pass_s": (run.typical(run.norm), "s"),
            "setup_s": (median(setup_s), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024, "MiB"),
        }
        detail.update(raw_pass_s=run.typical(run.raw), setup_s_samples=setup_s)
        if workload == "cli":
            ms = sorted(1e3 * s for v in run.norm.values() for s in v)
            detail.update(proc_ms=median(ms), proc_n=len(ms), proc_spawn_to_exit_raw_ms=median(run.spawn_ms))
            # a high percentile only where at least ten samples lie beyond it
            detail["proc_ms_p90"] = statistics.quantiles(ms, n=10)[-1] if len(ms) >= 100 else None
        for figure, prefix in FIGURES.items():
            if any(k.startswith(prefix) for k in run.norm):
                detail[figure] = run.typical(run.norm, prefix)
    return {
        "detail": detail,
        "result": {
            "correct": run.failed == 0,
            "attempted": run.attempted,
            "failed": run.failed,
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "tvcount" / "__init__.py").is_file():
        print(f"error: no tvcount sources under {SRC}; run from the root of a tvcount checkout", file=sys.stderr)
        return 2
    try:
        out = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(out["detail"]))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
