"""tvcount count: the degree of the f^a + g^b locus for one (m, n, a, b)."""

import math

from .._frozen import integer, str_digits_limit
from . import COLUMNS, DEGENERATE_WARNING, EXIT_INVALID, EXIT_OK, EXIT_USAGE, MAX_COUNT_TERMS, SQUARES_WARNING
from . import _fail, _over_budget, _print_envelope, _stderr


def run(args) -> int:
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
    from .. import counting

    try:
        problem = counting.validate(m, n, args.a, args.b)
    except ValueError as exc:
        return _fail(str(exc), EXIT_INVALID)
    m, n, a, b = problem.m, problem.n, problem.a, problem.b
    if refused := _over_budget("count", f"count for (m,n,a,b)=({m},{n},{a},{b})", m, n, MAX_COUNT_TERMS):
        return _fail(refused, EXIT_INVALID)
    if too_long := _too_long(problem):
        return _fail(too_long, EXIT_INVALID)
    degree_text = str(counting.degree_of_power_sum_locus(problem))
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


def _too_long(problem) -> str | None:
    """The one-line refusal, before the count is computed, of a count with
    more digits than str() prints, else None.  It is refused at once when
    floor(m log10 a + n log10 b) >= limit + 1, before a^m b^n is formed: it
    is a^m b^n less terms too small to cost it a digit there.  Any other count
    is refused when str() refuses the closed form of its pairing."""
    from .. import counting

    limit = str_digits_limit()
    if not limit:
        return None
    m, n, a, b = problem.m, problem.n, problem.a, problem.b
    if math.floor(m * math.log10(a) + n * math.log10(b)) <= limit:
        try:
            str(sum(counting._count_parts(problem)))
            return None
        except ValueError:  # str() of an int longer than the interpreter allows
            pass
    return f"the count for (m,n,a,b)=({m},{n},{a},{b}) has more than {limit} digits, the most str() prints (sys.get_int_max_str_digits())"
