"""Shared test utilities: random exact-rational forms, admissible problem
enumeration and a brute-force oracle for admissible_tuples,
structural-coefficient extraction for the transvectant, its derivative
route, the series quotient for the blow-up class, and the ring route for
the gamma and beta classes: the recurrence, geometric-series, multinomial
and explicit-sum forms, built with generic ring arithmetic instead of the
count's closed forms, the per-term formulas of both classes with every
binomial from math.comb, the Horner route for the Chern integral and the
count's closed formula, and argparse as the reference for the CLI's
parser.

The tests reach the CLI through two runners: run_cli (in test_cli and
test_acceptance) calls main in pytest's process, and run_python starts a
child interpreter.  Both pass each CLI argv to check_reader.  Every child
runs under child_env, whose PYTHONWARNINGS=error does what filterwarnings
does in pytest's process."""

from __future__ import annotations

import contextlib
import functools
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import tvcount
from tvcount import BinaryForm, RingSpec, TruncatedPolynomial, alpha_classes, beta_pushforward, geometric_inverse, transvectant, validate
from tvcount.cli import _COMMANDS, _read_argv, _UsageError
from tvcount.counting import _count_parts as count_parts
from tvcount.cycles import ambient_spec, gcd2_excess


def rand_fraction(rng: random.Random, zero_ok: bool = True) -> Fraction:
    num = rng.randint(-9, 9)
    if not zero_ok and num == 0:
        num = 1
    return Fraction(num, rng.randint(1, 4))


def rand_form(rng: random.Random, degree: int, zero_ok: bool = True) -> BinaryForm:
    coeffs = [rand_fraction(rng) for _ in range(degree + 1)]
    if not zero_ok and all(c == 0 for c in coeffs):
        coeffs[rng.randrange(degree + 1)] = Fraction(1)
    return BinaryForm(degree, coeffs)


def far_denominators(seed: int, count: int) -> list[str]:
    """``count`` coefficients 1/<seeded 100-digit number>, as text: their
    common denominator grows by about 330 bits with each one."""
    rng = random.Random(seed)
    return [f"1/{rng.randrange(10**99, 10**100)}" for _ in range(count)]


def all_admissible(max_d: int):
    """Every validate-accepted problem with d <= max_d (degenerate a == 1 or
    b == 1 included), normalized to m <= n and deduplicated."""
    out = []
    seen = set()
    for d in range(1, max_d + 1):
        divisors = [k for k in range(1, d + 1) if d % k == 0]
        for m in divisors:
            for n in divisors:
                if m > n or math.gcd(m, n) > 2 or (d, m, n) in seen:
                    continue
                seen.add((d, m, n))
                out.append(validate(m, n, d // m, d // n))
    return out


def brute_force_admissible(max_d: int) -> list[tuple[int, int, int, int, int]]:
    """admissible_tuples(max_d) as (d, a, b, m, n) rows, by the docstring's
    conditions tried on every d, a and b: a >= 2, b >= 2, a | d, b | d,
    gcd(d/a, d/b) in {1, 2}, the a >= b representative of each swapped pair,
    in (d, a, b) order."""
    out = []
    for d in range(1, max_d + 1):
        for a in range(2, d + 1):
            if d % a:
                continue
            for b in range(2, a + 1):
                if d % b == 0 and math.gcd(d // a, d // b) in (1, 2):
                    out.append((d, a, b, d // a, d // b))
    return out


def basis_form(degree: int, index: int) -> BinaryForm:
    """Binomial-basis vector: the form whose binomially weighted coordinate
    at ``index`` is 1 and all others 0."""
    values = [0] * (degree + 1)
    values[index] = 1
    return BinaryForm.from_binomial(degree, values)


def structural_coefficient(m: int, n: int, i: int, j: int) -> Fraction:
    """Coefficient of f_i * g_j in t_(i+j-1), where f_i, g_j are the
    binomially weighted coordinates of f and g and t is the transvectant in
    the plain basis.  Extracted by bilinearity from a basis pair."""
    t = transvectant(basis_form(m, i), basis_form(n, j))
    return t.coeffs[i + j - 1]


def derivative_transvectant(f: BinaryForm, g: BinaryForm) -> BinaryForm:
    """{f, g} as f_x*g_y - f_y*g_x with the Fraction arithmetic of BinaryForm's
    dx, dy and product: the route the package's integer kernel replaced."""
    return f.dx() * g.dy() - f.dy() * g.dx()


def structural_support(m: int, n: int, i: int, j: int) -> set[int]:
    """Plain-basis indices k where the basis pair (i, j) contributes to t_k."""
    t = transvectant(basis_form(m, i), basis_form(n, j))
    return {k for k, c in enumerate(t.coeffs) if c != 0}


# -- ring route for the count's classes ---------------------------------------------


def segre_class(alpha1, alpha2, degree: int):
    """Degree-``degree`` part of 1 / (1 + alpha1 + alpha2), for alpha1
    homogeneous of degree 1 and alpha2 of degree 2.

    The parts h_k obey h_k = -alpha1*h_(k-1) - alpha2*h_(k-2) with h_0 = 1
    and h_1 = -alpha1, so each step multiplies by a class of a few terms.
    """
    spec = alpha1.spec
    neg1, neg2 = -alpha1, -alpha2
    prev, cur = spec.zero(), spec.one()
    for _ in range(int(degree)):
        prev, cur = cur, neg1 * cur + neg2 * prev
    return cur


def series_blowup(r: int):
    """The blow-up class as the series quotient [(1+lam)^r / (1+lam-zeta)]_(r-1)
    in caps (r-1, r-1)."""
    lam, zeta = RingSpec((r - 1, r - 1)).variables()
    return ((1 + lam) ** r * geometric_inverse(lam - zeta)).homogeneous_part(r - 1)


def series_gamma(problem):
    """gamma as the degree-(m+n) part of geometric_inverse(alpha1 + alpha2)."""
    a1, a2 = alpha_classes(problem)
    deg = problem.m + problem.n
    return geometric_inverse(a1 + a2, up_to_degree=deg).homogeneous_part(deg)


def multinomial_gamma(problem):
    """gamma as the sum over i + 2j = m+n of (-1)^(i+j) C(i+j, i) alpha1^i alpha2^j."""
    a1, a2 = alpha_classes(problem)
    deg = problem.m + problem.n
    total = a1.spec.zero()
    for j in range(deg // 2 + 1):
        i = deg - 2 * j
        total = total + ((-1) ** (i + j) * math.comb(i + j, i)) * (a1 ** i * a2 ** j)
    return total


def explicit_beta_base(m: int, n: int):
    """The gcd-1 form of beta: sum_i (z1+z2)^i z3^(m+n-2-i) in the ring."""
    spec = ambient_spec(m, n)
    z1, z2, z3 = spec.variables()
    top = m + n - 2
    total = spec.zero()
    for i in range(top + 1):
        total = total + (z1 + z2) ** i * z3 ** (top - i)
    return total


def series_beta_base(m: int, n: int):
    """The series form [(1+z1+z2)^(m+n-1) / (1+z1+z2-z3)]_(m+n-2)."""
    spec = ambient_spec(m, n)
    z1, z2, z3 = spec.variables()
    s = z1 + z2
    top = m + n - 2
    return ((1 + s) ** (m + n - 1) * geometric_inverse(s - z3, up_to_degree=top)).homogeneous_part(top)


def excess_correction(m: int, n: int):
    """The gcd-2 excess class 2^(m-2) ((m/2)^2 z1^(m-2) z2^n
    + (m/2)(n/2) z1^(m-1) z2^(n-1) + (n/2)^2 z1^m z2^(n-2)); zero for gcd 1."""
    spec = ambient_spec(m, n)
    if math.gcd(m, n) != 2:
        return spec.zero()
    z1, z2, _ = spec.variables()
    hm, hn = m // 2, n // 2
    return 2 ** (m - 2) * (
        hm * hm * z1 ** (m - 2) * z2 ** n
        + hm * hn * z1 ** (m - 1) * z2 ** (n - 1)
        + hn * hn * z1 ** m * z2 ** (n - 2)
    )


def ring_route_count(problem) -> int:
    """The count by the ring route: series gamma times the explicit beta, the
    product taken by the general multiplication loop.  Adding a class w that
    leaves the top coefficient alone makes the second factor inhomogeneous,
    which keeps the product off the top-degree pairing path."""
    m, n = problem.m, problem.n
    beta = explicit_beta_base(m, n) - excess_correction(m, n)
    spec = beta.spec
    # gamma * w has degree m+n+deg(w), never the top degree 2(m+n)-2
    w = spec.variables()[0] if m + n == 2 else spec.one()
    return (series_gamma(problem) * (beta + w)).integrate()


def formula_gamma(problem):
    """gamma by its per-term formula: (b-1)^q C(q+r, q) U_p at z1^p z2^q z3^r
    for p <= m, q <= n, r <= m+n-2, with
    U_p = sum_(s=0..p) (-1)^s a^(p-s) C(m+n-p+s, s), each binomial from
    math.comb instead of the running products of gamma_class."""
    m, n, a, b = problem.m, problem.n, problem.a, problem.b
    deg, cap3 = m + n, m + n - 2
    terms = {}
    for p in range(m + 1):
        k = deg - p  # q + r
        u = sum((-1) ** s * a ** (p - s) * math.comb(k + s, s) for s in range(p + 1))
        for q in range(max(0, k - cap3), min(n, k) + 1):
            terms[(p, q, k - q)] = (b - 1) ** q * math.comb(k, q) * u
    return TruncatedPolynomial(ambient_spec(m, n), terms)


def formula_beta(m: int, n: int):
    """beta by its per-term formula: C(P+Q, P) at z1^P z2^Q z3^(m+n-2-P-Q),
    each from math.comb, less the gcd-2 excess class."""
    top = m + n - 2
    terms = {(p, q, top - p - q): math.comb(p + q, p) for p in range(m + 1) for q in range(min(n, top - p) + 1)}
    return TruncatedPolynomial(ambient_spec(m, n), terms) - excess_correction(m, n)


def gamma_terms(deg: int) -> list[tuple[int, int, int]]:
    """gamma as (coeff, e1, e2) terms in s1, s2 for integrate_chern_polynomial:
    (-1)^(i+j) C(i+j, i) s1^i s2^j over i + 2j = deg."""
    terms = []
    for j in range(deg // 2 + 1):
        i = deg - 2 * j
        terms.append(((-1) ** (i + j) * math.comb(i + j, i), i, j))
    return terms


def horner_chern_integral(problem, terms) -> int:
    """integrate_chern_polynomial by ring arithmetic: the alpha classes
    substituted for s1 and s2, the terms gathered per e2 and summed by
    Horner's rule in (s1^2, s2), and the product with beta integrated."""
    deg = problem.m + problem.n
    coeffs = [0] * (deg // 2 + 1)
    for c, _, e2 in terms:
        coeffs[e2] += c
    alpha1, alpha2 = alpha_classes(problem)
    alpha1_sq = alpha1 * alpha1
    # acc = sum_(i <= j) coeffs[i] * alpha1^(2(j-i)) * alpha2^i after step j
    acc = alpha1.spec.zero()
    alpha2_pow = alpha1.spec.one()
    for c in coeffs:
        acc = acc * alpha1_sq + c * alpha2_pow
        alpha2_pow = alpha2_pow * alpha2
    if deg % 2:
        acc = acc * alpha1
    return (acc * beta_pushforward(problem.m, problem.n)).integrate()


def closed_formula_count(problem) -> int:
    """The count in closed form, with N = m+n and d = a*m:
    a^m b^n - (d-N+1) C(N, m) - a C(N-1, m-1), and at gcd 2 less also
    e20 (C(N,2) - a(N-1) + a^2) + e11 (b-1)(N-1)(a-N) + e02 C(N,2) (b-1)^2
    with (e20, e11, e02) = gcd2_excess(m, n)."""
    m, n, a, b = problem.m, problem.n, problem.a, problem.b
    big_n, d = m + n, a * m
    count = a**m * b**n - (d - big_n + 1) * math.comb(big_n, m) - a * math.comb(big_n - 1, m - 1)
    if problem.gcd == 2:
        e20, e11, e02 = gcd2_excess(m, n)
        pairs = math.comb(big_n, 2)
        count -= e20 * (pairs - a * (big_n - 1) + a * a) + e11 * (b - 1) * (big_n - 1) * (a - big_n) + e02 * pairs * (b - 1) ** 2
    return count


# -- argparse as the reference for the CLI's parser ---------------------------------


@functools.cache
def argparse_reference():
    """parse(argv): the namespace an argparse parser built from
    tvcount.cli._COMMANDS gives for argv, or None where it refuses argv.  A
    valued option and a separate value after it that does not start with
    "--" are joined first ("--a -3" becomes "--a=-3"): that is the CLI's value
    rule, which argparse lacks.  Like the CLI's parser it takes no
    abbreviated option; it knows no -h, which the CLI reads as help."""
    import argparse

    class Parser(argparse.ArgumentParser):
        def error(self, message):
            raise ValueError(message)

    parser = Parser(prog="tvcount", add_help=False, allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=Parser)
    for command, (_, _, _, options) in _COMMANDS.items():
        p = sub.add_parser(command, add_help=False, allow_abbrev=False)
        for flag, dest, kind, required, default, _ in options:
            how = {bool: {"action": "store_true"}, int: {"type": int}, str: {}}.get(kind, {"choices": kind})
            p.add_argument(flag, dest=dest, required=required, default=default, **how)
        p.set_defaults(help=False)

    def parse(argv: list[str]):
        options = _COMMANDS[argv[0]][3] if argv and argv[0] in _COMMANDS else ()
        valued = {flag for flag, _, kind, _, _, _ in options if kind is not bool}
        joined: list[str] = []
        for token in argv:
            if joined and joined[-1] in valued and not token.startswith("--"):
                joined[-1] = f"{joined[-1]}={token}"
            else:
                joined.append(token)
        try:
            return parser.parse_args(joined)
        except ValueError:
            return None

    return parse


def check_reader(argv, well_formed=None) -> bool:
    """Assert that the CLI's reader takes argv (help counts as not taken)
    exactly when argparse_reference() does, with the same values, and, if
    well_formed is given, exactly when it is True.  Returns whether the
    reader took argv."""
    argv = list(argv)
    try:
        got = _read_argv(argv)
    except _UsageError:
        got = None
    got = None if got is None or got.help else got
    want = argparse_reference()(argv)
    if well_formed is not None:
        assert (got is not None) == well_formed, argv
    assert (got is None) == (want is None), argv
    if got is not None:
        assert vars(got) == vars(want), argv
    return got is not None


# -- child interpreters ---------------------------------------------------------------

# the src directory this tvcount was imported from
PACKAGE_ROOT = str(Path(tvcount.__file__).resolve().parents[1])


def child_env(unbuffered: bool = False, threads: str | None = None) -> dict:
    """This environment with this tvcount on PYTHONPATH and
    PYTHONWARNINGS=error; TVCOUNT_THREADS and PYTHONUNBUFFERED are set only
    when a test passes them."""
    env = {k: v for k, v in os.environ.items() if k not in ("TVCOUNT_THREADS", "PYTHONUNBUFFERED")}
    env.update(PYTHONPATH=PACKAGE_ROOT, PYTHONWARNINGS="error")
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    if threads is not None:
        env["TVCOUNT_THREADS"] = threads
    return env


def run_python(args, *, stdout="pipe", stderr="pipe", unbuffered=False, threads=None, text=False):
    """python args under child_env(unbuffered, threads), as a
    CompletedProcess.  Each stream is "pipe" (captured), "no reader" (a pipe
    whose read end is closed), "/dev/full" (every write fails with ENOSPC) or
    "closed" (the fd is closed at start, so sys.stdout or sys.stderr is
    None).  A -m tvcount.cli argv goes through check_reader first."""
    if args[:2] == ["-m", "tvcount.cli"]:
        check_reader(args[2:])
    command = [sys.executable, *args]
    if closed := " ".join(f"{fd}>&-" for fd, kind in ((1, stdout), (2, stderr)) if kind == "closed"):
        command = ["sh", "-c", f'exec "$@" {closed}', "sh", *command]
    with contextlib.ExitStack() as stack:
        streams = []
        for kind in (stdout, stderr):
            if kind == "no reader":
                read_end, write_end = os.pipe()
                os.close(read_end)
                stack.callback(os.close, write_end)
                streams.append(write_end)
            elif kind == "/dev/full":
                streams.append(stack.enter_context(open("/dev/full", "wb")))
            else:
                streams.append({"pipe": subprocess.PIPE, "closed": None}[kind])
        return subprocess.run(command, stdout=streams[0], stderr=streams[1], env=child_env(unbuffered, threads), text=text, timeout=60)


def fresh_main_code(argv, *shown: str) -> str:
    """python -c code that imports tvcount.cli's main, calls main(argv)
    unless argv is None, and prints each expression in shown, where new is
    the set of modules loaded since start-up.  argv goes through
    check_reader first."""
    call = ""
    if argv is not None:
        check_reader(argv)
        call = f"main({argv!r}); "
    prints = "; ".join(f"print({expression})" for expression in shown)
    return f"import sys; before = set(sys.modules); from tvcount.cli import main; {call}new = set(sys.modules) - before; {prints}"
