"""Tests of the benchmark's own machinery.  Run from the repository root:

    python3 -m pytest bench -q
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import tvcount  # noqa: E402
import tvcount.cli  # noqa: E402
import worker  # noqa: E402


@pytest.fixture
def tracer():
    t = tracing.Tracer().install()
    try:
        yield t
    finally:
        t.uninstall()


def originals():
    funcs = {getattr(sys.modules[mod], attr) for _, mod, attr in tracing.FUNCTIONS}
    poly = tvcount.ring.TruncatedPolynomial
    return funcs | {vars(poly)["__mul__"], vars(poly)["to_dict"]}


def test_every_lookup_site_is_wrapped(tracer):
    tracer.uninstall()
    before = originals()
    tracer.install()
    for name in tracing.MODULES:
        leftovers = [k for k, v in vars(sys.modules[name]).items() if any(v is f for f in before)]
        assert not leftovers, f"{name} still holds unwrapped {leftovers}"
    poly = tvcount.ring.TruncatedPolynomial
    assert poly.__mul__ is poly.__rmul__ and not any(poly.__mul__ is f for f in before)
    # cli and counting imported these by name; each must see the wrapper
    assert tvcount.cli.degree_of_power_sum_locus is tvcount.counting.degree_of_power_sum_locus
    assert tvcount.counting.beta_pushforward is tvcount.cycles.beta_pushforward is tvcount.cli.beta_pushforward
    assert tvcount.cycles.geometric_inverse is tvcount.ring.geometric_inverse
    tracer.uninstall()
    assert originals() == before


def test_self_times_add_up_to_the_traced_wall_time(tracer):
    problem = tvcount.validate(8, 18, 9, 4)
    t0 = time.perf_counter()
    tvcount.degree_of_power_sum_locus(problem)
    wall = time.perf_counter() - t0
    selfs = tracer.self_times()
    assert min(selfs.values()) >= 0
    assert {"cycles.gamma_class", "cycles.beta_pushforward", tracing.MUL, tracing.PRODUCT} <= set(selfs)
    assert abs(sum(selfs.values()) - wall) <= 0.02 * wall + 5e-4


@pytest.mark.parametrize(
    "t, gamma_terms, beta_terms, result_bits",
    [((10, 21, 21, 10), 239, 239, 114), ((12, 26, 13, 6), 348, 348, 112)],
)
def test_layer_counts_match_the_known_sizes_and_repeat(tracer, t, gamma_terms, beta_terms, result_bits):
    problem = tvcount.validate(*t)
    assert tvcount.degree_of_power_sum_locus(problem).bit_length() == result_bits
    first = tracer.metrics()
    assert first["cycles.gamma_terms"] == gamma_terms
    assert first["cycles.beta_terms"] == beta_terms
    assert first["counting.product_pairs"] == gamma_terms * beta_terms
    tracer.reset()
    tvcount.degree_of_power_sum_locus(problem)
    again = tracer.metrics()
    assert {k: again[k] for k in tracing.COUNT_METRICS} == {k: first[k] for k in tracing.COUNT_METRICS}


def traced_table(tracer, threads):
    tracer.reset()
    os.environ["TVCOUNT_THREADS"] = threads
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            assert tvcount.cli.main(["table", "--max-d", "10", "--csv"]) == 0
    finally:
        del os.environ["TVCOUNT_THREADS"]
    return out.getvalue(), tracer.metrics()


def test_pool_workers_send_their_spans_back(tracer):
    serial_out, serial = traced_table(tracer, "1")
    pooled_out, pooled = traced_table(tracer, "2")
    rows = len(serial_out.splitlines()) - 1
    assert pooled_out == serial_out
    assert (serial["cli.pool_rows"], pooled["cli.pool_rows"]) == (0, rows)
    for name in ("cycles.beta_terms", "cycles.gamma_terms", "ring.mul_calls", "ring.mul_pairs"):
        assert pooled[name] == serial[name] > 0


def test_pins_hold_the_classical_counts():
    pins = run.load_pins()
    for t, value in run.CLASSICAL.items():
        assert pins["counts"][run.key(t)] == str(value)
    assert pins["table"]["rows"] == 210


def test_checks_reject_wrong_outputs():
    pins = run.load_pins()
    rng = random.Random(5)
    for kind in ("count", "class", "chern"):
        op = next(op for op in run.ladder_ops(kind, rng) if op[1:3] == [4, 10])
        out = worker.run_op(op)
        assert run.ladder_ok(op, out, pins)
        assert not run.ladder_ok(op, out[:-1] + ("1" if out[-1] != "1" else "2"), pins)
    item = next(it for it in run.cli_items(rng, pins) if it["argv"][0] == "selftest")
    assert run.cli_ok(item, 0, "PASS a\nPASS b\nPASS c\nPASS d\n")
    assert not run.cli_ok(item, 3, "PASS a\nPASS b\nPASS c\nPASS d\n")
    assert not run.cli_ok(item, 0, "PASS a\nPASS b\nPASS c\nFAIL d\n")
    assert not run.table_ok(0, "d,a,b,m,n,gcd,degree\n", pins)


def test_transvectant_oracle_agrees_with_the_package():
    rng = random.Random(11)
    for _ in range(3):
        f, g = run.random_form(rng), run.random_form(rng)
        expected = tvcount.transvectant(tvcount.BinaryForm(len(f) - 1, f), tvcount.BinaryForm(len(g) - 1, g))
        assert run.transvectant(f, g) == list(expected.coeffs)
    assert run.transvectant([Fraction(1), 0, 0], [0, Fraction(1)]) == [2, 0]


def test_inputs_depend_only_on_the_seed():
    pins = run.load_pins()
    for kind in ("count", "chern"):
        assert run.ladder_ops(kind, random.Random(3)) == run.ladder_ops(kind, random.Random(3))
    assert run.cli_items(random.Random(3), pins) == run.cli_items(random.Random(3), pins)
    assert run.cli_items(random.Random(3), pins) != run.cli_items(random.Random(4), pins)


def test_repeat_share_counts_hits_within_a_process():
    assert run.repeat_share([[(1, 2), (1, 2), (2, 3)], [(1, 2)]]) == 0.25
    for segment in run.plan("ladder-export", random.Random(1), run.load_pins()):
        assert run.repeat_share(segment["mn"]) == 0.0


def test_refuses_to_run_without_the_sources():
    # the benchmark directory holds no src/tvcount, so nothing can be measured
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "cli", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=BENCH,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
