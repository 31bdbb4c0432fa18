"""Command-line interface.

Subcommands: count, class, transvect, table, selftest.
Exit codes: 0 success, 1 usage error or stdout's reader gone, 2 invalid
problem, a count, class, table or transvect over its budget or a result too
long to print, 3 self-test mismatch or internal failure.  When stderr's
reader has gone, warnings and errors are dropped, and neither stdout nor the
exit code changes.
JSON outputs are a stable envelope {command, inputs, result, warnings} printed
as one canonical line (sorted keys); big integers are decimal strings.

json, traceback, the forms engine and the Chow-ring engine (counting, cycles
and ring) are imported only inside the functions that use them, and argparse
only for help and usage errors: main() reads a well-formed command itself,
from the same option table that build_parser() turns into the argparse
parser.  So transvect loads only forms, class only cycles and ring, and count
no engine when it refuses its input before validation (validation is
PowerSumProblem's, in cycles).
"""

import math
import os
import sys
import types

from ._frozen import integer, max_digits, str_digits_limit

# engine names that stay readable as attributes of this module
# (tvcount.cli.beta_pushforward and the rest); each lookup reads the name
# from its module, so a function replaced there is the one seen here
_ENGINE_NAMES = ("PowerSumProblem", "admissible_tuples", "beta_pushforward", "degree_of_power_sum_locus", "validate")


def __getattr__(name: str):
    if name in _ENGINE_NAMES:
        return getattr(sys.modules[__package__], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVALID = 2
EXIT_SELFTEST = 3

# a problem's columns, in the order table prints them; count --json reports
# the same fields
COLUMNS = ("d", "a", "b", "m", "n", "gcd")

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


def _print_envelope(command: str, inputs: dict, result, warnings: list[str]) -> None:
    import json

    envelope = {"command": command, "inputs": inputs, "result": result, "warnings": warnings}
    print(json.dumps(envelope, sort_keys=True))


def _stderr(line: str) -> None:
    """Print line to stderr.  When stderr's reader has gone, the line and
    every later one are dropped: fd 2 goes to devnull, so stdout and the exit
    code stay what they would have been."""
    try:
        print(line, file=sys.stderr)
    except BrokenPipeError:
        _to_devnull(sys.stderr)


def _to_devnull(stream) -> None:
    """Point stream's fd at devnull, once its reader has gone, so that what
    it still buffers goes there and the flush at exit does not fail again."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, stream.fileno())
    os.close(devnull)


def _fail(message: str, code: int) -> int:
    _stderr(f"error: {message}")
    return code


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
    from . import counting

    try:
        problem = counting.validate(m, n, args.a, args.b)
    except ValueError as exc:
        return _fail(str(exc), EXIT_INVALID)
    m, n, a, b = problem.m, problem.n, problem.a, problem.b
    if refused := _over_budget("count", f"count for (m,n,a,b)=({m},{n},{a},{b})", m, n, MAX_COUNT_TERMS):
        return _fail(refused, EXIT_INVALID)
    if too_long := _too_long(problem):
        return _fail(too_long, EXIT_INVALID)
    degree = counting.degree_of_power_sum_locus(problem)
    try:
        degree_text = str(degree)
    except ValueError:  # str() of an int longer than the interpreter allows
        return _fail(_too_long_message(problem), EXIT_INVALID)
    warnings = [DEGENERATE_WARNING] if problem.degenerate else []
    if a == b == 2:
        warnings.append(SQUARES_WARNING)
    if args.json:
        result = {k: getattr(problem, k) for k in COLUMNS}
        _print_envelope("count", inputs, {**result, "degree": degree_text}, warnings)
    else:
        for w in warnings:
            _stderr(f"warning: {w}")
        print(degree_text)
    return EXIT_OK


def _over_budget(command: str, subject: str, m: int, n: int, budget: int) -> str | None:
    """The one-line refusal of a ``subject`` of up to (m+1)(n+1) terms when
    that is more than ``budget``, the most that ``command`` builds, else
    None."""
    terms = (m + 1) * (n + 1)
    if terms > budget:
        return f"the {subject} has up to (m+1)(n+1) = {terms} terms, more than the {budget} that {command} builds"
    return None


# the most terms a count builds, bounding (m+1)(n+1), which gamma's and beta's
# term counts stay under; it bounds the counts the digit estimate does not: a
# limit of 0, and b = 1, which the estimate gives no weight.  It admits every
# count with a, b >= 2 that passes the estimate at the default limit, the
# largest (784,862,431,392) at 677 455 terms; (818,826,413,409), whose 4298
# digits print, takes 10 to 13 s and 1 GiB on a 2-vCPU VM
MAX_COUNT_TERMS = 1_000_000

# the most terms `class` builds, bounding (m+1)(n+1), which beta's term count
# stays under: such a class takes about 0.6 s and 100 MiB on a 2-vCPU VM, and
# no coefficient of it reaches 200 digits, below 640, the lowest str(int)
# limit Python allows
MAX_CLASS_TERMS = 100_000


def cmd_class(args) -> int:
    m, n = args.m, args.n
    if m > 0 and n > 0 and (refused := _over_budget("class", f"class for (m,n)=({m},{n})", m, n, MAX_CLASS_TERMS)):
        return _fail(refused, EXIT_INVALID)
    from . import cycles

    try:
        cls = cycles.beta_pushforward(m, n)
    except ValueError as exc:
        return _fail(str(exc), EXIT_INVALID)
    if args.format == "json":
        _print_envelope("class", {"m": m, "n": n}, cls.to_dict(), [])
    elif args.format == "latex":
        print(cls.to_latex())
    else:
        print(cls)
    return EXIT_OK


def _too_long_message(problem) -> str:
    m, n, a, b = problem.m, problem.n, problem.a, problem.b
    return f"the count for (m,n,a,b)=({m},{n},{a},{b}) has more than {str_digits_limit()} digits, the most str() prints (sys.get_int_max_str_digits())"


def _too_long(problem) -> str | None:
    """The one-line refusal, before the count is computed, of a count with
    more digits than str() prints, else None.  It is refused when
    floor(m log10 a + n log10 b) >= limit + 1: it is a^m b^n less terms too
    small to cost it a digit there.  A count the estimate lets through is
    refused by str() itself once computed."""
    limit = str_digits_limit()
    if limit and math.floor(problem.m * math.log10(problem.a) + problem.n * math.log10(problem.b)) > limit:
        return _too_long_message(problem)
    return None


def cmd_transvect(args) -> int:
    from . import forms

    # degrees from the comma counts: the work bound refuses before parsing
    m, n = args.f.count(","), args.g.count(",")
    if refused := forms.transvectant_refusal(m, n):
        return _fail(refused, EXIT_INVALID)
    build = forms.BinaryForm.from_binomial if args.binomial else forms.BinaryForm
    try:
        f = build(m, [part.strip() for part in args.f.split(",")])
        g = build(n, [part.strip() for part in args.g.split(",")])
    except (ValueError, ZeroDivisionError) as exc:
        return _fail(f"malformed coefficient list: {exc}", EXIT_USAGE)
    try:
        t = forms.transvectant(f, g)
    except ValueError as exc:
        return _fail(str(exc), EXIT_INVALID)
    try:
        result = t.to_dict()
    except ValueError:  # str() of an int longer than the interpreter allows
        return _fail(f"result has a coefficient longer than {max_digits()} digits; too long to print", EXIT_INVALID)
    if args.json:
        inputs = {"f": args.f, "g": args.g, "binomial": bool(args.binomial)}
        _print_envelope("transvect", inputs, result, [])
    else:
        print(",".join(result["coeffs"]))
    return EXIT_OK


def _table_row(problem) -> tuple[int, ...]:
    from . import counting

    return (*[getattr(problem, k) for k in COLUMNS], counting.degree_of_power_sum_locus(problem))


def _worker_cap(n_jobs: int) -> int:
    raw = os.environ.get("TVCOUNT_THREADS", "").strip()
    if not raw:
        return 1
    try:
        cap = int(raw)
    except ValueError:
        _stderr(f"warning: ignoring non-integer TVCOUNT_THREADS={raw!r}")
        return 1
    return max(1, min(cap, n_jobs, _usable_cpus()))


def _usable_cpus() -> int:
    """The CPUs this process may run on; a pool starts all its workers at
    once, so it gets no more than these."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# the largest --max-d table builds: 15 237 rows, 5 to 6 s serially on a
# 2-vCPU VM; no row's count has more than 172 digits ((6,332,166,3)), below
# 640, the lowest str(int) limit Python allows, so no row is too long to print
MAX_TABLE_D = 1000


def cmd_table(args) -> int:
    if args.max_d > MAX_TABLE_D:
        return _fail(f"table --max-d {args.max_d} is above {MAX_TABLE_D}, the largest that table builds", EXIT_INVALID)
    from . import counting

    try:
        problems = counting.admissible_tuples(args.max_d)
    except ValueError as exc:
        return _fail(str(exc), EXIT_INVALID)
    rows = None
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
            _stderr(f"warning: parallel evaluation unavailable ({exc}); running serially")
    if rows is None:
        rows = [_table_row(p) for p in problems]

    cells = [(*COLUMNS, "degree"), *(tuple(map(str, row)) for row in rows)]
    widths = [max(map(len, column)) for column in zip(*cells)]
    for r in cells:
        # one print per line: an unbuffered stdout does not retry a short write
        print(",".join(r) if args.csv else "  ".join(v.rjust(w) for v, w in zip(r, widths)))
    return EXIT_OK


def cmd_selftest(args) -> int:
    from . import counting

    failures = 0
    for m, n, a, b, expected in KNOWN_COUNTS:
        got = counting.degree_of_power_sum_locus(counting.validate(m, n, a, b))
        failures += got != expected
        print(f"{'PASS' if got == expected else 'FAIL'} (m,n,a,b)=({m},{n},{a},{b}): expected {expected}, got {got}")
    return EXIT_OK if failures == 0 else EXIT_SELFTEST


# each command's function, help, description and options; an option is
# (flag, dest, kind, required, default, help), where kind is int, str, a
# tuple of choices, or bool for a store_true flag.  build_parser() and
# _read_argv() both read this table.
_COMMANDS = {
    "count": (
        cmd_count,
        "degree of the f^a + g^b locus",
        f"Refuses (exit 2) a count with (m+1)(n+1) above {MAX_COUNT_TERMS} terms.",
        (
            ("--m", "m", int, False, None, "degree of f (with --n; or use --d)"),
            ("--n", "n", int, False, None, "degree of g"),
            ("--a", "a", int, True, None, "first power"),
            ("--b", "b", int, True, None, "second power"),
            ("--d", "d", int, False, None, "total degree; sets m = d/a, n = d/b"),
            ("--json", "json", bool, False, False, "print a JSON envelope"),
        ),
    ),
    "class": (
        cmd_class,
        "pushed-forward fundamental class for (m, n)",
        f"Refuses (exit 2) a class with (m+1)(n+1) above {MAX_CLASS_TERMS} terms.",
        (
            ("--m", "m", int, True, None, None),
            ("--n", "n", int, True, None, None),
            ("--format", "format", ("text", "json", "latex"), False, "text", None),
        ),
    ),
    "transvect": (
        cmd_transvect,
        "first transvectant of two binary forms",
        "Refuses (exit 2) forms whose transvectant is over its work bound (tvcount.forms.MAX_TRANSVECT_WORK).",
        (
            ("--f", "f", str, True, None, "comma-separated rational coefficients, x-descending"),
            ("--g", "g", str, True, None, "comma-separated rational coefficients, x-descending"),
            ("--binomial", "binomial", bool, False, False, "interpret inputs in the binomially weighted basis"),
            ("--json", "json", bool, False, False, "print a JSON envelope"),
        ),
    ),
    "table": (
        cmd_table,
        "degrees for every admissible (d, a, b) with d <= N",
        "Rows cover a >= 2, b >= 2, a | d, b | d with gcd(d/a, d/b) in {1, 2}, "
        "deduplicated under (a, b) <-> (b, a) since the count is symmetric; "
        f"refuses (exit 2) --max-d above {MAX_TABLE_D}; "
        "TVCOUNT_THREADS=N evaluates rows in N worker processes, at most one per CPU (unset, 0 or 1 = serial), "
        "about 4 chunks of rows per worker.",
        (
            ("--max-d", "max_d", int, True, None, None),
            ("--csv", "csv", bool, False, False, f"emit CSV ({','.join(COLUMNS)},degree)"),
        ),
    ),
    "selftest": (cmd_selftest, "recompute the known classical counts", None, ()),
}


def build_parser():
    """The argparse parser of _COMMANDS; main() builds it only for help and
    for argv that _read_argv() leaves to it."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        # usage errors exit 1 (argparse defaults to 2, which is reserved for
        # invalid problems); the usage and the error go out through _stderr
        def error(self, message):
            _stderr(f"{self.format_usage()}{self.prog}: error: {message}")
            self.exit(EXIT_USAGE)

        # help is written as any command's output is: argparse would drop
        # the BrokenPipeError of a reader that has gone, which main() handles
        def _print_message(self, message, file=None):
            if message:
                (file or sys.stderr).write(message)

    parser = _Parser(
        prog="tvcount",
        description="Exact degree of the locus of degree-d binary forms expressible as f^a + g^b.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for command, (func, summary, description, options) in _COMMANDS.items():
        p = sub.add_parser(command, help=summary, description=description)
        for flag, dest, kind, required, default, help_ in options:
            how = {bool: {"action": "store_true"}, int: {"type": int}, str: {}}.get(kind, {"choices": kind})
            p.add_argument(flag, dest=dest, required=required, default=default, help=help_, **how)
        p.set_defaults(func=func)
    return parser


def _read_argv(argv: list[str]) -> types.SimpleNamespace | None:
    """The namespace build_parser().parse_args(argv) gives for a well-formed
    command, read without argparse; None for anything else, which main()
    leaves to argparse: help, an unknown or abbreviated option, a bad or
    missing value, a separate value that starts with "-" (argparse's
    negative-number rule), a flag given "=value", a stray token or "--", or
    a missing required option."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    func, _, _, options = _COMMANDS[argv[0]]
    by_flag = {option[0]: option for option in options}
    values = {dest: default for _, dest, _, _, default, _ in options}
    given = set()
    tokens = iter(argv[1:])
    for token in tokens:
        flag, eq, value = token.partition("=")
        if flag not in by_flag:
            return None
        _, dest, kind, _, _, _ = by_flag[flag]
        if kind is bool:
            if eq:
                return None
            value = True
        else:
            if not eq:
                # a missing value reads as "-", which is argparse's too
                value = next(tokens, "-")
                if value.startswith("-"):
                    return None
            if kind is int:
                try:
                    value = int(value)
                except ValueError:
                    return None
            elif kind is not str and value not in kind:
                return None
        values[dest] = value
        given.add(dest)
    if any(required and dest not in given for _, dest, _, required, _, _ in options):
        return None
    return types.SimpleNamespace(command=argv[0], func=func, **values)


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
    argv = _attach_form_values(sys.argv[1:] if argv is None else list(argv))
    try:
        code = _run(argv)
        # a write that fails fails here, not in the interpreter's flush at exit
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # stdout's reader has gone (`tvcount table ... | head`; _stderr
        # handles stderr's): exit 1 with nothing on stderr.  SIGPIPE stays
        # ignored, for the pool's pipes
        _to_devnull(sys.stdout)
        return EXIT_USAGE
    except Exception:
        import traceback

        _stderr(traceback.format_exc().rstrip("\n"))
        return EXIT_SELFTEST


def _run(argv: list[str]) -> int:
    """Run the command argv names; argparse prints help and usage errors."""
    args = _read_argv(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            return int(exc.code or 0)
    return args.func(args)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
