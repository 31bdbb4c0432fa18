"""CLI integration tests: exit codes, JSON envelope stability, formats."""

import hashlib
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import tvcount
from tvcount import beta_pushforward, cli, integrate_chern_polynomial, validate
from tvcount.cli import DEFAULT_MAX_DIGITS, MAX_CLASS_TERMS, MAX_TABLE_D, SQUARES_WARNING, main
from tvcount.cycles import gcd2_excess

from .helpers import brute_force_admissible, gamma_terms

# the src directory this tvcount was imported from, for subprocesses
PACKAGE_ROOT = str(Path(tvcount.__file__).resolve().parents[1])


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- count -------------------------------------------------------------------------


def test_count_text(capsys):
    code, out, err = run_cli(capsys, "count", "--m", "2", "--n", "3", "--a", "3", "--b", "2")
    assert code == 0
    assert out.strip() == "40"


def test_count_via_total_degree(capsys):
    code, out, _ = run_cli(capsys, "count", "--d", "12", "--a", "3", "--b", "2")
    assert code == 0
    assert out.strip() == "3762"


def test_count_json_envelope(capsys):
    code, out, _ = run_cli(capsys, "count", "--m", "2", "--n", "3", "--a", "3", "--b", "2", "--json")
    assert code == 0
    envelope = json.loads(out)
    assert envelope["command"] == "count"
    assert envelope["inputs"] == {"m": 2, "n": 3, "a": 3, "b": 2}
    assert envelope["result"] == {"m": 2, "n": 3, "a": 3, "b": 2, "d": 6, "gcd": 1, "degree": "40"}
    assert envelope["warnings"] == []
    # canonical emission: parsing and re-serializing reproduces the bytes
    assert json.dumps(envelope, sort_keys=True) == out.strip()


def test_count_json_degree_is_decimal_string(capsys):
    code, out, _ = run_cli(capsys, "count", "--m", "10", "--n", "21", "--a", "21", "--b", "10", "--json")
    assert code == 0
    degree = json.loads(out)["result"]["degree"]
    assert isinstance(degree, str)
    assert int(degree) > 2 ** 53


def test_count_degenerate_warning(capsys):
    code, out, err = run_cli(capsys, "count", "--m", "1", "--n", "2", "--a", "2", "--b", "1")
    assert code == 0
    assert "warning" in err

    code, out, _ = run_cli(capsys, "count", "--m", "1", "--n", "2", "--a", "2", "--b", "1", "--json")
    assert code == 0
    assert len(json.loads(out)["warnings"]) == 1


@pytest.mark.parametrize("m, n", [(1, 1), (2, 2)])
def test_count_sum_of_squares_warning(capsys, m, n):
    # the only admissible tuples with a == b == 2, and the only zero counts
    argv = ("count", "--m", str(m), "--n", str(n), "--a", "2", "--b", "2")
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (0, "0\n", f"warning: {SQUARES_WARNING}\n")

    code, out, _ = run_cli(capsys, *argv, "--json")
    assert code == 0
    assert json.loads(out)["warnings"] == [SQUARES_WARNING]


def test_count_invalid_problem_exits_2(capsys):
    code, _, err = run_cli(capsys, "count", "--m", "4", "--n", "8", "--a", "4", "--b", "2")
    assert code == 2
    assert "unsupported gcd" in err

    code, _, _ = run_cli(capsys, "count", "--m", "2", "--n", "3", "--a", "2", "--b", "3")
    assert code == 2

    code, _, err = run_cli(capsys, "count", "--d", "13", "--a", "3", "--b", "2")
    assert code == 2
    assert "divisible" in err


@pytest.mark.parametrize("power, argv", [("a", ["--a", "0", "--b", "2"]), ("b", ["--a", "3", "--b", "0"])])
def test_count_zero_power_exits_2(capsys, power, argv):
    code, out, err = run_cli(capsys, "count", "--d", "6", *argv)
    assert (code, out) == (2, "")
    assert err == f"error: {power} must be a positive integer, got 0\n"

    code, _, err = run_cli(capsys, "count", "--d", "6", *[v.replace("0", "-3") for v in argv])
    assert code == 2
    assert f"{power} must be a positive integer, got -3" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["count", "--d", "0", "--a", "2", "--b", "3"], "d must be a positive integer, got 0"),
        (["count", "--d", "-6", "--a", "3", "--b", "2"], "d must be a positive integer, got -6"),
        (["table", "--max-d", "-1"], "max_d must be a nonnegative integer, got -1"),
    ],
)
def test_integer_option_below_its_bound_exits_2(capsys, argv, message):
    # the message names the option given, not a value derived from it
    assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")


def test_count_usage_errors_exit_1(capsys):
    code, _, _ = run_cli(capsys, "count", "--a", "3", "--b", "2")
    assert code == 1
    code, _, _ = run_cli(capsys, "count", "--m", "2", "--n", "3", "--d", "6", "--a", "3", "--b", "2")
    assert code == 1
    code, _, _ = run_cli(capsys, "count", "--m", "2", "--n", "3", "--a", "3")
    assert code == 1
    code, _, _ = run_cli(capsys)
    assert code == 1
    code, _, _ = run_cli(capsys, "nonsense")
    assert code == 1


# -- class --------------------------------------------------------------------------


def test_class_smallest(capsys):
    code, out, _ = run_cli(capsys, "class", "--m", "1", "--n", "1")
    assert code == 0
    assert out.strip() == "1"


def test_class_latex(capsys):
    code, out, _ = run_cli(capsys, "class", "--m", "2", "--n", "2", "--format", "latex")
    assert code == 0
    assert out.strip() == (
        "\\zeta_{3}^{2} + \\zeta_{2} \\zeta_{3} + \\zeta_{1} \\zeta_{3} + \\zeta_{1} \\zeta_{2}"
    )


def test_class_json_roundtrip(capsys):
    code, out, _ = run_cli(capsys, "class", "--m", "2", "--n", "3", "--format", "json")
    assert code == 0
    envelope = json.loads(out)
    assert envelope["result"]["caps"] == [2, 3, 3]
    assert json.dumps(envelope, sort_keys=True) == out.strip()


def test_class_invalid_exit_2(capsys):
    code, _, err = run_cli(capsys, "class", "--m", "3", "--n", "6")
    assert code == 2
    assert "unsupported gcd" in err
    code, _, _ = run_cli(capsys, "class", "--m", "3", "--n", "2")
    assert code == 2


def not_built(m, n):
    raise AssertionError(f"the class for ({m}, {n}) was built")


@pytest.mark.parametrize("m, n", [(1, 50_000), (315, 317), (600, 1201), (10**9, 2 * 10**9 + 1)])
def test_class_over_its_term_budget_exits_2_before_building(capsys, monkeypatch, m, n):
    assert (m + 1) * (n + 1) > MAX_CLASS_TERMS
    monkeypatch.setattr(cli, "beta_pushforward", not_built)
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, "class", "--m", str(m), "--n", str(n), "--format", "json")
    assert (code, out) == (2, "") and time.perf_counter() - t0 < 1
    assert err.count("\n") == 1 and f"more than the {MAX_CLASS_TERMS} that class builds" in err


def test_class_at_its_term_budget_is_built(capsys, monkeypatch):
    # (m+1)(n+1) == MAX_CLASS_TERMS at (1, 49 999)
    built = []
    monkeypatch.setattr(cli, "beta_pushforward", lambda m, n: built.append((m, n)) or beta_pushforward(1, 1))
    assert run_cli(capsys, "class", "--m", "1", "--n", "49999") == (0, "1\n", "")
    assert built == [(1, 49_999)]


def test_no_class_under_the_budget_has_a_coefficient_too_long_to_print():
    # beta's coefficients are C(P+Q, P) with P <= m, Q <= n, P+Q <= m+n-2,
    # less the gcd-2 excess; for a given m both grow with n, and C(m+n-2, P)
    # peaks on P in [m-2, m]
    longest = 0
    for m in range(1, math.isqrt(MAX_CLASS_TERMS)):
        n = MAX_CLASS_TERMS // (m + 1) - 1
        excess = sum(gcd2_excess(m, n)) if m > 1 else 0
        largest = max(math.comb(m + n - 2, p) for p in range(max(m - 2, 0), m + 1)) + excess
        longest = max(longest, len(str(largest)))
    # the lowest limit sys.set_int_max_str_digits accepts, other than 0 (none)
    lowest = getattr(sys.int_info, "str_digits_check_threshold", 640)
    assert longest < 200 < lowest


# -- transvect -------------------------------------------------------------------------


def test_transvect_examples(capsys):
    code, out, _ = run_cli(capsys, "transvect", "--f", "1,0,0", "--g", "0,1")
    assert (code, out.strip()) == (0, "2,0")

    code, out, _ = run_cli(capsys, "transvect", "--f", "1,1", "--g", "1,1")
    assert (code, out.strip()) == (0, "0")

    code, out, _ = run_cli(capsys, "transvect", "--f", "1,0", "--g", "0,1")
    assert (code, out.strip()) == (0, "1")


def test_transvect_rational_coefficients(capsys):
    code, out, _ = run_cli(capsys, "transvect", "--f", "1/2,0,0", "--g", "0,1")
    assert (code, out.strip()) == (0, "1,0")


def test_transvect_binomial_input(capsys):
    # (x+y)^2 and x+y in binomially weighted coordinates; powers of a common
    # form have vanishing transvectant
    code, out, _ = run_cli(capsys, "transvect", "--f", "1,1,1", "--g", "1,1", "--binomial")
    assert (code, out.strip()) == (0, "0,0")


def test_transvect_json(capsys):
    code, out, _ = run_cli(capsys, "transvect", "--f", "1,0,0", "--g", "0,1", "--json")
    assert code == 0
    envelope = json.loads(out)
    assert envelope["result"] == {"degree": 1, "coeffs": ["2", "0"]}
    assert json.dumps(envelope, sort_keys=True) == out.strip()


def test_transvect_negative_leading_coefficient(capsys):
    # a value after --f/--g that starts with a minus sign is a value, not an option
    code, out, _ = run_cli(capsys, "transvect", "--f", "-1,2", "--g", "1,1")
    assert (code, out.strip()) == (0, "-3")
    assert run_cli(capsys, "transvect", "--f=-1,2", "--g", "1,1")[:2] == (0, "-3\n")

    code, out, _ = run_cli(capsys, "transvect", "--g", "-1/2,0", "--f", "-1,0,0", "--json")
    assert code == 0
    assert json.loads(out)["inputs"] == {"f": "-1,0,0", "g": "-1/2,0", "binomial": False}

    # a flag in the value's place is still a usage error
    code, _, err = run_cli(capsys, "transvect", "--f", "--g", "1,1")
    assert code == 1
    assert "expected one argument" in err


def test_transvect_malformed_exit_1(capsys):
    code, _, err = run_cli(capsys, "transvect", "--f", "1,oops", "--g", "0,1")
    assert code == 1
    assert "malformed" in err
    code, _, _ = run_cli(capsys, "transvect", "--f", "1/0", "--g", "0,1")
    assert code == 1


def timed_cli(capsys, *argv):
    t0 = time.perf_counter()
    result = run_cli(capsys, *argv)
    return (*result, time.perf_counter() - t0)


@pytest.mark.parametrize("coefficient", ["1e10000000", "-2E-10000000", "1e+1_0000000"])
def test_transvect_huge_exponent_exits_1_quickly(capsys, coefficient):
    # Fraction() would spend seconds building a 10-million-digit power of ten
    code, out, err, seconds = timed_cli(capsys, "transvect", "--f", f"{coefficient},1", "--g", "1,1")
    assert (code, out) == (1, "")
    assert "malformed coefficient list" in err and "exponent" in err
    assert seconds < 1


needs_str_digits_limit = pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="this Python does not limit str(int)"
)


@needs_str_digits_limit
@pytest.mark.parametrize("extra", [[], ["--json"]])
def test_transvect_result_too_long_to_print_exits_2_quickly(capsys, extra):
    # {f, g} = 10^limit has one digit more than str() may print
    limit = sys.get_int_max_str_digits()
    code, out, err, seconds = timed_cli(capsys, "transvect", "--f", f"1e{limit},0", "--g", "0,1", *extra)
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and "too long to print" in err
    assert seconds < 1


@needs_str_digits_limit
def test_transvect_exponent_bound_when_printing_is_unlimited(capsys):
    # with the limit off, results of any length print, and exponents are
    # still bounded by the interpreter's default limit
    limit = sys.get_int_max_str_digits()
    default = sys.int_info.default_max_str_digits
    assert default == DEFAULT_MAX_DIGITS
    sys.set_int_max_str_digits(0)
    try:
        code, out, _ = run_cli(capsys, "transvect", "--f", f"1e{default},0", "--g", "0,1")
        assert (code, out) == (0, "1" + "0" * default + "\n")
        code, _, err, seconds = timed_cli(capsys, "transvect", "--f", "1e10000000,1", "--g", "1,1")
        assert code == 1 and seconds < 1
    finally:
        sys.set_int_max_str_digits(limit)


def test_interpreter_without_str_digits_limit(capsys, monkeypatch):
    # Python 3.10.0 to 3.10.6 have no sys.get_int_max_str_digits: counts
    # print, and DEFAULT_MAX_DIGITS still bounds decimal exponents
    monkeypatch.delattr(sys, "get_int_max_str_digits", raising=False)
    assert run_cli(capsys, "count", "--m", "2", "--n", "3", "--a", "3", "--b", "2") == (0, "40\n", "")
    code, out, err, seconds = timed_cli(capsys, "transvect", "--f", "1e10000000,1", "--g", "1,1")
    assert (code, out) == (1, "")
    assert f"exceeds {DEFAULT_MAX_DIGITS}" in err and seconds < 1


@pytest.fixture
def str_digits():
    """sys.set_int_max_str_digits for one test, the old limit restored after."""
    saved = sys.get_int_max_str_digits()
    yield sys.set_int_max_str_digits
    sys.set_int_max_str_digits(saved)


def chern_count(problem) -> int:
    # the count as the Chern integral of gamma, a closed form that is fast
    # where the count's kernel takes a minute
    return integrate_chern_polynomial(problem, gamma_terms(problem.m + problem.n))


def test_digit_estimate_is_the_digit_count_at_the_default_limit():
    # (k, 2k+1, 2k+1, k): (510, ...) has exactly 4300 digits and prints,
    # (511, ...) with 4309 is the smallest over the limit
    digits = {}
    for k in (*range(505, 525), 540):
        digits[k] = math.floor(k * math.log10(2 * k + 1) + (2 * k + 1) * math.log10(k)) + 1
        assert 10 ** (digits[k] - 1) <= chern_count(validate(k, 2 * k + 1, 2 * k + 1, k)) < 10 ** digits[k], k
    assert (digits[510], digits[511], digits[520], digits[540]) == (4300, 4309, 4397, 4592)


def not_computed(problem):
    raise AssertionError(f"{problem} was computed")


@needs_str_digits_limit
@pytest.mark.parametrize("extra", [[], ["--json"]])
@pytest.mark.parametrize("k", [511, 540])
def test_count_over_the_digit_limit_exits_2_before_computing(capsys, str_digits, monkeypatch, extra, k):
    str_digits(DEFAULT_MAX_DIGITS)
    monkeypatch.setattr(cli, "degree_of_power_sum_locus", not_computed)
    argv = ("count", "--m", str(k), "--n", str(2 * k + 1), "--a", str(2 * k + 1), "--b", str(k), *extra)
    code, out, err, seconds = timed_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and "more than 4300 digits" in err
    assert seconds < 1


@needs_str_digits_limit
def test_count_at_the_default_digit_limit_is_computed(str_digits):
    str_digits(DEFAULT_MAX_DIGITS)
    assert cli._too_long(validate(510, 1021, 1021, 510)) is None


# (104, 209, 209, 104) has 663 digits and floor(m log10 a + n log10 b) = 662
BOUNDARY = (104, 209, 209, 104)
BOUNDARY_ARGV = ("count", "--m", "104", "--n", "209", "--a", "209", "--b", "104")


@needs_str_digits_limit
@pytest.mark.parametrize("extra", [[], ["--json"]])
def test_count_digit_limit_boundary(capsys, str_digits, monkeypatch, extra):
    str_digits(663)
    code, out, _, seconds = timed_cli(capsys, *BOUNDARY_ARGV, *extra)
    assert code == 0 and seconds < 1
    if extra:
        out = json.loads(out)["result"]["degree"] + "\n"
    assert len(out) == 664

    # refused once computed: the estimate leaves it to the bit length
    str_digits(662)
    code, out, err, seconds = timed_cli(capsys, *BOUNDARY_ARGV, *extra)
    assert (code, out) == (2, "") and seconds < 1
    assert err.count("\n") == 1 and "more than 662 digits" in err

    # refused before computing
    str_digits(661)
    monkeypatch.setattr(cli, "degree_of_power_sum_locus", not_computed)
    code, out, err, seconds = timed_cli(capsys, *BOUNDARY_ARGV, *extra)
    assert (code, out) == (2, "") and seconds < 1
    assert err.count("\n") == 1 and "more than 661 digits" in err


@needs_str_digits_limit
def test_table_digit_limit(capsys, str_digits, monkeypatch):
    # admissible_tuples reaches 640 digits, the lowest limit Python allows,
    # only at d in the thousands, so the table is given its rows here
    monkeypatch.setattr(cli, "admissible_tuples", lambda _: [validate(2, 3, 3, 2), validate(*BOUNDARY)])
    str_digits(663)
    code, out, _, seconds = timed_cli(capsys, "table", "--max-d", "0", "--csv")
    assert code == 0 and seconds < 1
    assert out.splitlines()[1] == "6,3,2,2,3,1,40" and len(out.splitlines()[2].split(",")[-1]) == 663
    for limit in (662, 661):
        str_digits(limit)
        if limit == 661:  # refused before computing
            monkeypatch.setattr(cli, "degree_of_power_sum_locus", not_computed)
        code, out, err, seconds = timed_cli(capsys, "table", "--max-d", "0", "--csv")
        assert (code, out) == (2, "") and seconds < 1
        assert err.count("\n") == 1 and f"(m,n,a,b)=(104,209,209,104) has more than {limit} digits" in err


def test_transvect_degree_zero_exit_2(capsys):
    code, _, err = run_cli(capsys, "transvect", "--f", "5", "--g", "0,1")
    assert code == 2
    assert "below degree 1" in err


# -- table ------------------------------------------------------------------------------


def test_table_contains_clebsch_row(capsys):
    code, out, _ = run_cli(capsys, "table", "--max-d", "6")
    assert code == 0
    rows = [line.split() for line in out.strip().splitlines()]
    assert rows[0] == ["d", "a", "b", "m", "n", "gcd", "degree"]
    assert ["6", "3", "2", "2", "3", "1", "40"] in rows


def test_table_csv(capsys):
    code, out, _ = run_cli(capsys, "table", "--max-d", "5", "--csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "d,a,b,m,n,gcd,degree"
    rows = [line.split(",") for line in lines[1:]]
    assert ["4", "2", "2", "2", "2", "2", "0"] in rows
    assert all(row[5] in ("1", "2") for row in rows)


def not_enumerated(max_d):
    raise AssertionError(f"admissible_tuples({max_d}) was enumerated")


@pytest.mark.parametrize("max_d", [MAX_TABLE_D + 1, 27_000, 10**12])
def test_table_over_its_budget_exits_2_before_building_a_row(capsys, monkeypatch, max_d):
    # unchecked, --max-d 27000 builds 824 912 rows in seconds before it refuses one
    monkeypatch.setattr(cli, "admissible_tuples", not_enumerated)
    code, out, err, seconds = timed_cli(capsys, "table", "--max-d", str(max_d), "--csv")
    assert (code, out) == (2, "") and seconds < 1
    assert err == f"error: table --max-d {max_d} is above {MAX_TABLE_D}, the largest that table builds\n"


def test_table_at_its_budget_is_built(capsys, monkeypatch):
    asked = []
    monkeypatch.setattr(cli, "admissible_tuples", lambda max_d: asked.append(max_d) or [])
    assert run_cli(capsys, "table", "--max-d", str(MAX_TABLE_D), "--csv") == (0, "d,a,b,m,n,gcd,degree\n", "")
    assert asked == [MAX_TABLE_D]


# sha256 of `table --max-d 120 --csv`, taken from the tree before the count
# kernel built gamma and beta by running products: no count may change, and
# this reaches sizes (m+n up to 121) the sympy reference test does not
TABLE_120_SHA256 = "38569d4958573e097298a359050c3416878c23a45ac831857dd6872c9eb3fff2"


def test_table_120_output_is_pinned(capsys, monkeypatch):
    monkeypatch.delenv("TVCOUNT_THREADS", raising=False)
    code, out, _ = run_cli(capsys, "table", "--max-d", "120", "--csv")
    assert code == 0
    assert len(out.splitlines()) == 986 + 1
    assert hashlib.sha256(out.encode()).hexdigest() == TABLE_120_SHA256


def test_table_deterministic_and_thread_capped(capsys, monkeypatch):
    monkeypatch.delenv("TVCOUNT_THREADS", raising=False)
    code, serial_out, _ = run_cli(capsys, "table", "--max-d", "10", "--csv")
    assert code == 0

    monkeypatch.setenv("TVCOUNT_THREADS", "2")
    code, parallel_out, _ = run_cli(capsys, "table", "--max-d", "10", "--csv")
    assert code == 0
    assert parallel_out == serial_out

    monkeypatch.setenv("TVCOUNT_THREADS", "weird")
    code, fallback_out, err = run_cli(capsys, "table", "--max-d", "10", "--csv")
    assert code == 0
    assert fallback_out == serial_out
    assert "TVCOUNT_THREADS" in err


@pytest.fixture
def pool_map_calls(monkeypatch):
    """The keyword arguments of every ProcessPoolExecutor.map call; the calls
    still run."""
    from concurrent.futures import ProcessPoolExecutor

    calls = []
    original = ProcessPoolExecutor.map

    def recording_map(self, fn, *iterables, **kwargs):
        calls.append(kwargs)
        return original(self, fn, *iterables, **kwargs)

    monkeypatch.setattr(ProcessPoolExecutor, "map", recording_map)
    return calls


@pytest.mark.parametrize(
    "max_d, threads, rows, chunksize",
    [
        # 210 rows in chunks of 27: the last chunk is short
        ("40", "2", 210, 27),
        # 11 rows, fewer than 4 * 3 workers: chunks of one row
        ("6", "3", 11, 1),
    ],
)
def test_table_pool_chunks_rows_and_keeps_output(capsys, monkeypatch, pool_map_calls, max_d, threads, rows, chunksize):
    monkeypatch.delenv("TVCOUNT_THREADS", raising=False)
    code, serial_out, _ = run_cli(capsys, "table", "--max-d", max_d, "--csv")
    assert code == 0
    assert len(serial_out.splitlines()) == rows + 1
    assert pool_map_calls == []
    # rows come in (d, a, b) order with no sort: admissible_tuples yields
    # that order and the pool's map keeps it
    order = [tuple(map(int, line.split(",")[:5])) for line in serial_out.splitlines()[1:]]
    assert order == brute_force_admissible(int(max_d))

    monkeypatch.setenv("TVCOUNT_THREADS", threads)
    code, pooled_out, _ = run_cli(capsys, "table", "--max-d", max_d, "--csv")
    assert code == 0
    assert pool_map_calls == [{"chunksize": chunksize}]
    assert pooled_out == serial_out


# -- selftest ----------------------------------------------------------------------------


def test_selftest_passes(capsys):
    code, out, _ = run_cli(capsys, "selftest")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 4
    assert all(line.startswith("PASS") for line in lines)

    code, out2, _ = run_cli(capsys, "selftest")
    assert out2.strip().splitlines() == lines


def test_help_exits_zero(capsys):
    assert run_cli(capsys, "--help")[0] == 0


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "tvcount.cli", "count", "--m", "2", "--n", "3", "--a", "3", "--b", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "40"


def test_cli_import_loads_no_heavy_modules():
    # what a count process pays for before it starts: none of these, unless
    # interpreter start-up (site) had loaded them already
    heavy = ("dataclasses", "inspect", "fractions", "decimal", "json", "traceback", "tvcount.forms")
    code = (
        "import sys; before = set(sys.modules); import tvcount.cli; "
        f"print([m for m in {heavy!r} if m in set(sys.modules) - before])"
    )
    env = {**os.environ, "PYTHONPATH": PACKAGE_ROOT}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
