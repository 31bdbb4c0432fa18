"""Command-line interface.

Subcommands: count, class, transvect, table, selftest.
Exit codes: 0 success, 1 usage error, 2 invalid problem, a class or table
over its budget or a result too long to print, 3 self-test failure.
JSON outputs are a stable envelope {command, inputs, result, warnings} printed
as one canonical line (sorted keys); big integers are decimal strings.

A process imports only what its command runs: json, traceback, fractions and
the forms engine are imported inside the functions that use them.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from ._frozen import integer
from .counting import admissible_tuples, degree_of_power_sum_locus, validate
from .cycles import PowerSumProblem, beta_pushforward

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVALID = 2
EXIT_SELFTEST = 3

# the counts `selftest` checks: 40 and 3762 are classical anchors, 29822 and
# 626327 the paper's own values
KNOWN_COUNTS = (
    (2, 3, 3, 2, 40),
    (4, 6, 3, 2, 3762),
    (3, 5, 5, 3, 29822),
    (4, 10, 5, 2, 626327),
)

DEGENERATE_WARNING = "a = 1 or b = 1: the locus is the whole space; the reported number is still the raw intersection product"
SQUARES_WARNING = (
    "a = b = 2: f^2 + g^2 = (f + ig)(f - ig), so every fibre of (f, g) -> f^2 + g^2 is "
    "positive-dimensional and the intersection product is 0, not the degree of the locus"
)


class _Parser(argparse.ArgumentParser):
    # usage errors exit 1 (argparse defaults to 2, which is reserved for invalid problems)
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _print_envelope(command: str, inputs: dict, result, warnings: list[str]) -> None:
    import json

    envelope = {"command": command, "inputs": inputs, "result": result, "warnings": warnings}
    print(json.dumps(envelope, sort_keys=True))


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _count_payload(problem: PowerSumProblem, degree: int) -> dict:
    payload = {k: getattr(problem, k) for k in ("m", "n", "a", "b", "d", "gcd")}
    return {**payload, "degree": str(degree)}


def cmd_count(args) -> int:
    inputs = {k: getattr(args, k) for k in ("m", "n", "a", "b", "d") if getattr(args, k) is not None}
    if args.d is not None:
        if args.m is not None or args.n is not None:
            return _fail("give either --m/--n or --d, not both", EXIT_USAGE)
        try:
            d, a, b = integer("d", args.d, 1), integer("a", args.a, 1), integer("b", args.b, 1)
        except ValueError as exc:
            return _fail(str(exc), EXIT_INVALID)
        if d % a or d % b:
            return _fail(f"d = {d} is not divisible by both a = {a} and b = {b}", EXIT_INVALID)
        m, n = d // a, d // b
    else:
        if args.m is None or args.n is None:
            return _fail("need --m and --n (or --d)", EXIT_USAGE)
        m, n = args.m, args.n
    try:
        problem = validate(m, n, args.a, args.b)
    except ValueError as exc:
        return _fail(str(exc), EXIT_INVALID)
    if too_long := _too_long(problem):
        return _fail(too_long, EXIT_INVALID)
    degree = degree_of_power_sum_locus(problem)
    if too_long := _too_long(problem, degree):
        return _fail(too_long, EXIT_INVALID)
    warnings = [DEGENERATE_WARNING] if problem.degenerate else []
    if problem.a == problem.b == 2:
        warnings.append(SQUARES_WARNING)
    if args.json:
        _print_envelope("count", inputs, _count_payload(problem, degree), warnings)
    else:
        for w in warnings:
            print(f"warning: {w}", file=sys.stderr)
        print(degree)
    return EXIT_OK


# the most terms `class` builds, bounding (m+1)(n+1), which beta's term count
# stays under: such a class takes about 0.6 s and 100 MiB on a 2-vCPU VM, and
# no coefficient of it reaches 200 digits, below 640, the lowest str(int)
# limit Python allows
MAX_CLASS_TERMS = 100_000


def cmd_class(args) -> int:
    m, n = args.m, args.n
    if m > 0 and n > 0 and (m + 1) * (n + 1) > MAX_CLASS_TERMS:
        return _fail(
            f"the class for (m,n)=({m},{n}) has up to (m+1)(n+1) = {(m + 1) * (n + 1)} terms, "
            f"more than the {MAX_CLASS_TERMS} that class builds",
            EXIT_INVALID,
        )
    try:
        cls = beta_pushforward(m, n)
    except ValueError as exc:
        return _fail(str(exc), EXIT_INVALID)
    if args.format == "json":
        _print_envelope("class", {"m": m, "n": n}, cls.to_dict(), [])
    elif args.format == "latex":
        print(cls.to_latex())
    else:
        print(cls)
    return EXIT_OK


# CPython's default for the longest int str() may print
DEFAULT_MAX_DIGITS = 4300


def _str_digits_limit() -> int:
    # the interpreter's limit on str(int) (Python 3.11 and 3.10.7+); 0 where
    # it is unlimited or absent
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def _max_digits() -> int:
    # where str(int) is unlimited, the default still bounds the exponents
    # _parse_coefficient accepts
    return _str_digits_limit() or DEFAULT_MAX_DIGITS


def _too_long(problem: PowerSumProblem, degree: int | None = None) -> str | None:
    """The one-line refusal when the count has more digits than str() prints,
    else None.  Before the count is computed it is refused when
    floor(m log10 a + n log10 b) >= limit + 1: it is a^m b^n less terms too
    small to cost it a digit there.  After, the bit length settles all but
    the values next to 10^limit."""
    m, n, a, b = problem.m, problem.n, problem.a, problem.b
    limit = _str_digits_limit()
    if not limit:
        return None
    if degree is None:
        over = math.floor(m * math.log10(a) + n * math.log10(b)) > limit
    else:
        over = degree.bit_length() > limit * math.log2(10) and abs(degree) >= 10**limit
    if not over:
        return None
    return f"the count for (m,n,a,b)=({m},{n},{a},{b}) has more than {limit} digits, the most str() prints (sys.get_int_max_str_digits())"


def _parse_coefficient(text: str):
    from fractions import Fraction

    # Fraction("1e10000000") spends seconds building 10**10000000: refuse an
    # exponent longer than a printable int before Fraction sees it
    limit = _max_digits()
    _, e, exponent = text.lower().partition("e")
    try:
        huge = bool(e) and abs(int(exponent)) > limit
    except ValueError:
        huge = False  # not an exponent; Fraction reports the malformed text
    if huge:
        raise ValueError(f"decimal exponent of {text!r} exceeds {limit}")
    return Fraction(text)


def _parse_form(text: str):
    from .forms import BinaryForm

    coeffs = [_parse_coefficient(part.strip()) for part in text.split(",")]
    return BinaryForm(len(coeffs) - 1, coeffs)


def cmd_transvect(args) -> int:
    from . import forms

    try:
        f = _parse_form(args.f)
        g = _parse_form(args.g)
    except (ValueError, ZeroDivisionError) as exc:
        return _fail(f"malformed coefficient list: {exc}", EXIT_USAGE)
    if args.binomial:
        f = forms.BinaryForm.from_binomial(f.degree, f.coeffs)
        g = forms.BinaryForm.from_binomial(g.degree, g.coeffs)
    try:
        t = forms.transvectant(f, g)
    except ValueError as exc:
        return _fail(str(exc), EXIT_INVALID)
    try:
        result = t.to_dict()
    except ValueError:  # str() of an int longer than the interpreter allows
        return _fail(f"result has a coefficient longer than {_max_digits()} digits; too long to print", EXIT_INVALID)
    if args.json:
        inputs = {"f": args.f, "g": args.g, "binomial": bool(args.binomial)}
        _print_envelope("transvect", inputs, result, [])
    else:
        print(",".join(result["coeffs"]))
    return EXIT_OK


def _table_row(problem: PowerSumProblem) -> tuple[int, int, int, int, int, int, int]:
    return (problem.d, problem.a, problem.b, problem.m, problem.n, problem.gcd, degree_of_power_sum_locus(problem))


def _worker_cap(n_jobs: int) -> int:
    raw = os.environ.get("TVCOUNT_THREADS", "").strip()
    if not raw:
        return 1
    try:
        cap = int(raw)
    except ValueError:
        print(f"warning: ignoring non-integer TVCOUNT_THREADS={raw!r}", file=sys.stderr)
        return 1
    return max(1, min(cap, n_jobs))


# the largest --max-d table builds: 15 237 rows, about 7 s on a 2-vCPU VM
MAX_TABLE_D = 1000


def cmd_table(args) -> int:
    if args.max_d > MAX_TABLE_D:
        return _fail(f"table --max-d {args.max_d} is above {MAX_TABLE_D}, the largest that table builds", EXIT_INVALID)
    try:
        problems = admissible_tuples(args.max_d)
    except ValueError as exc:
        return _fail(str(exc), EXIT_INVALID)
    for problem in problems:
        if too_long := _too_long(problem):
            return _fail(too_long, EXIT_INVALID)
    workers = _worker_cap(len(problems)) if problems else 1
    if workers > 1:
        try:
            from concurrent.futures import ProcessPoolExecutor

            # about 4 chunks per worker: one pickle round trip per chunk, not
            # per row; map keeps the input order
            chunksize = -(-len(problems) // (4 * workers))
            with ProcessPoolExecutor(max_workers=workers) as pool:
                rows = list(pool.map(_table_row, problems, chunksize=chunksize))
        except OSError as exc:
            print(f"warning: parallel evaluation unavailable ({exc}); running serially", file=sys.stderr)
            rows = [_table_row(p) for p in problems]
    else:
        rows = [_table_row(p) for p in problems]
    for problem, row in zip(problems, rows):
        if too_long := _too_long(problem, row[-1]):
            return _fail(too_long, EXIT_INVALID)

    header = ("d", "a", "b", "m", "n", "gcd", "degree")
    if args.csv:
        print(",".join(header))
        for row in rows:
            print(",".join(str(v) for v in row))
    else:
        cells = [header] + [tuple(str(v) for v in row) for row in rows]
        widths = [max(len(r[i]) for r in cells) for i in range(len(header))]
        for r in cells:
            print("  ".join(v.rjust(w) for v, w in zip(r, widths)))
    return EXIT_OK


def cmd_selftest(args) -> int:
    failures = 0
    for m, n, a, b, expected in KNOWN_COUNTS:
        got = degree_of_power_sum_locus(validate(m, n, a, b))
        failures += got != expected
        print(f"{'PASS' if got == expected else 'FAIL'} (m,n,a,b)=({m},{n},{a},{b}): expected {expected}, got {got}")
    return EXIT_OK if failures == 0 else EXIT_SELFTEST


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tvcount",
        description="Exact degree of the locus of degree-d binary forms expressible as f^a + g^b.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_count = sub.add_parser("count", help="degree of the f^a + g^b locus")
    p_count.add_argument("--m", type=int, help="degree of f (with --n; or use --d)")
    p_count.add_argument("--n", type=int, help="degree of g")
    p_count.add_argument("--a", type=int, required=True, help="first power")
    p_count.add_argument("--b", type=int, required=True, help="second power")
    p_count.add_argument("--d", type=int, help="total degree; sets m = d/a, n = d/b")
    p_count.add_argument("--json", action="store_true", help="print a JSON envelope")
    p_count.set_defaults(func=cmd_count)

    p_class = sub.add_parser(
        "class",
        help="pushed-forward fundamental class for (m, n)",
        description=f"Refuses (exit 2) a class with (m+1)(n+1) above {MAX_CLASS_TERMS} terms.",
    )
    p_class.add_argument("--m", type=int, required=True)
    p_class.add_argument("--n", type=int, required=True)
    p_class.add_argument("--format", choices=("text", "json", "latex"), default="text")
    p_class.set_defaults(func=cmd_class)

    p_tv = sub.add_parser("transvect", help="first transvectant of two binary forms")
    p_tv.add_argument("--f", required=True, help="comma-separated rational coefficients, x-descending")
    p_tv.add_argument("--g", required=True, help="comma-separated rational coefficients, x-descending")
    p_tv.add_argument("--binomial", action="store_true", help="interpret inputs in the binomially weighted basis")
    p_tv.add_argument("--json", action="store_true", help="print a JSON envelope")
    p_tv.set_defaults(func=cmd_transvect)

    p_table = sub.add_parser(
        "table",
        help="degrees for every admissible (d, a, b) with d <= N",
        description="Rows cover a >= 2, b >= 2, a | d, b | d with gcd(d/a, d/b) in {1, 2}, "
        "deduplicated under (a, b) <-> (b, a) since the count is symmetric; "
        f"refuses (exit 2) --max-d above {MAX_TABLE_D}; "
        "TVCOUNT_THREADS=N evaluates rows in N worker processes (unset, 0 or 1 = serial), "
        "about 4 chunks of rows per worker.",
    )
    p_table.add_argument("--max-d", type=int, required=True, dest="max_d")
    p_table.add_argument("--csv", action="store_true", help="emit CSV (d,a,b,m,n,gcd,degree)")
    p_table.set_defaults(func=cmd_table)

    p_self = sub.add_parser("selftest", help="recompute the known classical counts")
    p_self.set_defaults(func=cmd_selftest)

    return parser


def _attach_form_values(argv: list[str]) -> list[str]:
    """Join each --f/--g to the value after it ("--f -1,2" becomes
    "--f=-1,2"): argparse reads a separate value that starts with a minus
    sign as an option and fails with "expected one argument"."""
    out: list[str] = []
    for token in argv:
        if out and out[-1] in ("--f", "--g") and not token.startswith("--"):
            out[-1] = f"{out[-1]}={token}"
        else:
            out.append(token)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    argv = _attach_form_values(sys.argv[1:] if argv is None else list(argv))
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except Exception:
        import traceback

        traceback.print_exc()
        return EXIT_SELFTEST


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
