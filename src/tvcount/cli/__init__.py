"""Command-line interface.

Subcommands: count, class, transvect, table, selftest.
Exit codes: 0 success, 1 usage error or stdout unwritable, 2 invalid
problem, a count, class, table or transvect over its budget or a result too
long to print, 3 self-test mismatch or internal failure.  A closed, full or
unwritable stderr drops warnings and errors, and changes neither stdout nor
the exit code; such a stdout exits 1 with nothing on stderr.
JSON outputs are a stable envelope {command, inputs, result, warnings} printed
as one canonical line (sorted keys); big integers are decimal strings.

main() reads every argv, help and usage errors included, from one option
table, _COMMANDS.  This module holds what every process runs: the table, the
reader, help, and the helpers that print.  Each command loads only its own
module and the engine it runs: a command's code is a module of this package
(count, class_, transvect, table, selftest), which the table names and main()
imports, to call its run(args), only when argv names the command; json,
traceback, textwrap, the engines and the pool are imported only inside the
functions that use them.  So transvect loads only forms, class only cycles
and ring, and count no engine when it refuses its input before validation
(validation is PowerSumProblem's, in cycles).  python -X importtime -m
tvcount.cli ... lists every module a command loads.
"""

import os
import sys
import types

# engine names that stay readable as attributes of this module, for the
# benchmark's tracer tests (tvcount.cli.beta_pushforward); each lookup reads
# the name from its module, so a function replaced there is the one seen here
_ENGINE_NAMES = ("beta_pushforward", "degree_of_power_sum_locus")


def __getattr__(name: str):
    if name in _ENGINE_NAMES:
        return getattr(sys.modules["tvcount"], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVALID = 2
EXIT_SELFTEST = 3

# a problem's columns, in the order table prints them; count --json reports
# the same fields
COLUMNS = ("d", "a", "b", "m", "n", "gcd")

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
    """Print line to stderr.  When stderr is closed or a write to it fails,
    the line and every later one are dropped (fd 2 goes to devnull), so
    stdout and the exit code stay what they would have been."""
    if sys.stderr is None:  # fd 2 closed at start: print would use stdout
        return
    try:
        print(line, file=sys.stderr)
    except OSError:
        _to_devnull(sys.stderr)


def _to_devnull(stream) -> None:
    """Point stream's fd at devnull, once a write to it has failed, so that
    what it still buffers goes there and the flush at exit cannot fail."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, stream.fileno())
    os.close(devnull)


def _fail(message: str, code: int) -> int:
    _stderr(f"error: {message}")
    return code


def _over_budget(command: str, subject: str, m: int, n: int, budget: int) -> str | None:
    """The one-line refusal of a ``subject`` of up to (m+1)(n+1) terms when
    that is more than ``budget``, the most that ``command`` builds, else
    None."""
    terms = (m + 1) * (n + 1)
    if terms > budget:
        return f"the {subject} has up to (m+1)(n+1) = {terms} terms, more than the {budget} that {command} builds"
    return None


# the most terms a count builds, bounding (m+1)(n+1), which gamma's and beta's
# term counts stay under; it bounds the counts the digit rule does not: every
# count at a limit of 0, and those with b = 1, whose b^n adds no digit however
# large n.  It admits every count with a, b >= 2 that prints at the default
# limit, the largest (818,826,413,409) at 677 313 terms, whose 4298 digits
# take 10 to 13 s and 1 GiB on a 2-vCPU VM
MAX_COUNT_TERMS = 1_000_000

# the most terms `class` builds, bounding (m+1)(n+1), which beta's term count
# stays under: such a class takes about 0.6 s and 100 MiB on a 2-vCPU VM, and
# no coefficient of it reaches 200 digits, below 640, the lowest str(int)
# limit Python allows
MAX_CLASS_TERMS = 100_000

# the largest --max-d table builds: 15 237 rows, 5 to 6 s serially on a
# 2-vCPU VM; no row's count has more than 172 digits ((6,332,166,3)), below
# 640, the lowest str(int) limit Python allows, so no row is too long to print
MAX_TABLE_D = 1000


# each command's module (the submodule of this package whose run(args) runs
# it), help, description and options; an option is (flag, dest, kind,
# required, default, help), where kind is int, str, a tuple of choices, or
# bool for a flag that takes no value; a required option's default is None.
# _read_argv(), _usage(), cmd_help() and _run() read this table.
_COMMANDS = {
    "count": (
        "count",
        "degree of the f^a + g^b locus",
        f"Refuses (exit 2) a count with (m+1)(n+1) above {MAX_COUNT_TERMS} terms, "
        "or with more digits than str() prints (sys.get_int_max_str_digits()).",
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
        "class_",
        "pushed-forward fundamental class for (m, n)",
        f"Refuses (exit 2) a class with (m+1)(n+1) above {MAX_CLASS_TERMS} terms.",
        (
            ("--m", "m", int, True, None, "degree of f"),
            ("--n", "n", int, True, None, "degree of g"),
            ("--format", "format", ("text", "json", "latex"), False, "text", "output format (default text)"),
        ),
    ),
    "transvect": (
        "transvect",
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
        "table",
        "degrees for every admissible (d, a, b) with d <= N",
        "Rows cover a >= 2, b >= 2, a | d, b | d with gcd(d/a, d/b) in {1, 2}, "
        "deduplicated under (a, b) <-> (b, a) since the count is symmetric; "
        f"refuses (exit 2) --max-d above {MAX_TABLE_D}; "
        "TVCOUNT_THREADS=N evaluates rows in N worker processes, at most one per CPU (unset, 0 or 1 = serial), "
        "about 4 chunks of rows per worker.",
        (
            ("--max-d", "max_d", int, True, None, "largest total degree d"),
            ("--csv", "csv", bool, False, False, f"emit CSV ({','.join(COLUMNS)},degree)"),
        ),
    ),
    "selftest": ("selftest", "recompute the known classical counts", None, ()),
}


class _UsageError(Exception):
    """A malformed argv; args: the command (None if argv names none), the message."""


def _spelling(option: tuple) -> str:
    flag, dest, kind, _, _, _ = option
    if kind is bool:
        return flag
    return f"{flag} {dest.upper() if kind in (int, str) else '{' + ','.join(kind) + '}'}"


def _usage(command: str | None) -> str:
    if command is None:
        return f"usage: tvcount [-h] {{{','.join(_COMMANDS)}}} ..."
    options = [_spelling(o) if o[3] else f"[{_spelling(o)}]" for o in _COMMANDS[command][3]]
    return " ".join(["usage: tvcount", command, "[-h]", *options])


def cmd_help(args) -> int:
    """Print the usage line, the description and a line per command or option."""
    import textwrap

    if args.command is None:
        description = "Exact degree of the locus of degree-d binary forms expressible as f^a + g^b."
        lines = [(name, summary) for name, (_, summary, _, _) in _COMMANDS.items()]
    else:
        _, _, description, options = _COMMANDS[args.command]
        lines = [(_spelling(option), option[5]) for option in options]
    lines.append(("-h, --help", "show this help message and exit"))
    width = max(len(left) for left, _ in lines)
    print(_usage(args.command), end="\n\n")
    if description:
        print(textwrap.fill(description, 79), end="\n\n")
    for left, right in lines:
        print(f"  {left.ljust(width)}  {right}")
    return EXIT_OK


def _read_argv(argv: list[str]) -> types.SimpleNamespace:
    """The command argv names, with help true for -h or --help read before
    any error, else with help false and its options' values.  An option's
    value is its "=value" or the next token, unless that token starts with
    "--": "--f -1,2" and "--a -3" are values.  A repeated option keeps its
    last value.  Raises _UsageError for anything else: no command or an
    unknown one, an unknown or abbreviated option or a stray token, a flag
    given "=value", a missing or bad value, or a missing required option."""
    command = argv[0] if argv else None
    if command in ("-h", "--help"):
        return types.SimpleNamespace(command=None, help=True)
    if command not in _COMMANDS:
        raise _UsageError(None, f"the first argument must be a command: {', '.join(_COMMANDS)}")
    options = _COMMANDS[command][3]
    by_flag = {option[0]: option for option in options}
    values = {dest: default for _, dest, _, _, default, _ in options}
    tokens = iter(argv[1:])
    for token in tokens:
        if token in ("-h", "--help"):
            return types.SimpleNamespace(command=command, help=True)
        flag, eq, value = token.partition("=")
        if flag not in by_flag:
            raise _UsageError(command, f"unrecognized arguments: {token}")
        _, dest, kind, _, _, _ = by_flag[flag]
        if kind is bool:
            if eq:
                raise _UsageError(command, f"argument {flag}: ignored explicit argument {value!r}")
            value = True
        else:
            if not eq:
                value = next(tokens, "--")  # none left: no value
                if value.startswith("--"):
                    raise _UsageError(command, f"argument {flag}: expected one argument")
            if kind is int:
                try:
                    value = int(value)
                except ValueError:
                    raise _UsageError(command, f"argument {flag}: invalid int value: {value!r}") from None
            elif kind is not str and value not in kind:
                raise _UsageError(command, f"argument {flag}: invalid choice: {value!r} (choose from {', '.join(map(repr, kind))})")
        values[dest] = value
    if missing := [flag for flag, dest, _, required, _, _ in options if required and values[dest] is None]:
        raise _UsageError(command, f"the following arguments are required: {', '.join(missing)}")
    return types.SimpleNamespace(command=command, help=False, **values)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if sys.stdout is None:  # fd 1 closed at start: nothing can be printed
        return EXIT_USAGE
    try:
        code = _run(argv)
        # a write that fails fails here, not in the interpreter's flush at exit
        sys.stdout.flush()
        return code
    except OSError:
        # stdout's reader has gone (`tvcount table ... | head`), or stdout is
        # full or cannot be written (_stderr handles stderr's): exit 1 with
        # nothing on stderr.  SIGPIPE stays ignored, for the pool's pipes
        _to_devnull(sys.stdout)
        return EXIT_USAGE
    except Exception:
        import traceback

        _stderr(traceback.format_exc().rstrip("\n"))
        return EXIT_SELFTEST


def _run(argv: list[str]) -> int:
    """Run the command argv names; a usage error goes to stderr under the
    usage line."""
    try:
        args = _read_argv(argv)
    except _UsageError as exc:
        command, message = exc.args
        prog = f"tvcount {command}" if command else "tvcount"
        _stderr(f"{_usage(command)}\n{prog}: error: {message}")
        return EXIT_USAGE
    if args.help:
        return cmd_help(args)
    # __import__, not importlib: python -X importtime lists what it loads
    return __import__(f"{__name__}.{_COMMANDS[args.command][0]}", fromlist=["run"]).run(args)

