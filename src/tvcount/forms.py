"""Binary forms with exact rational coefficients and the first transvectant.

A form of formal degree e is stored by its e+1 coefficients in the plain
monomial basis, x-degree descending: coeffs[i] multiplies x^(e-i) * y^i.
The formal degree is kept even when leading coefficients vanish, and the
zero form of any degree is legal.

The binomially weighted coordinates of classical invariant theory
(f_i = c_i / C(e, i)) are provided as an exact conversion view; the
transvectant itself is always reported in the plain basis.
"""

from __future__ import annotations

from collections.abc import Iterable
from fractions import Fraction
from math import comb, lcm

from ._frozen import integer

Rationalish = int | str | Fraction


class BinaryForm:
    """Binary form sum(coeffs[i] * x^(degree-i) * y^i) over the rationals."""

    __slots__ = ("degree", "coeffs")

    def __init__(self, degree: int, coeffs: Iterable[Rationalish]):
        degree = integer("degree", degree)
        cs = tuple(Fraction(c) for c in coeffs)
        if len(cs) != degree + 1:
            raise ValueError(f"degree {degree} needs {degree + 1} coefficients, got {len(cs)}")
        self.degree = degree
        self.coeffs = cs

    @classmethod
    def _from_clean(cls, degree: int, coeffs: tuple[Fraction, ...]) -> "BinaryForm":
        # fast constructor for coefficients already known to be valid
        form = object.__new__(cls)
        form.degree = degree
        form.coeffs = coeffs
        return form

    @classmethod
    def zero(cls, degree: int) -> "BinaryForm":
        return cls(degree, [0] * (integer("degree", degree) + 1))

    @classmethod
    def from_binomial(cls, degree: int, values: Iterable[Rationalish]) -> "BinaryForm":
        """Build from binomially weighted coordinates: c_i = C(e, i) * f_i."""
        degree = integer("degree", degree)
        return cls(degree, [comb(degree, i) * Fraction(v) for i, v in enumerate(values)])

    def binomial_coefficients(self) -> tuple[Fraction, ...]:
        """The binomially weighted view f_i = c_i / C(e, i); exact and bijective."""
        return tuple(c / comb(self.degree, i) for i, c in enumerate(self.coeffs))

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    # -- calculus ----------------------------------------------------------

    def dx(self) -> "BinaryForm":
        """Partial derivative with respect to x (degree drops by one)."""
        e = self.degree
        if e == 0:
            raise ValueError("derivative of a degree-0 form is not a binary form")
        return BinaryForm(e - 1, [self.coeffs[i] * (e - i) for i in range(e)])

    def dy(self) -> "BinaryForm":
        """Partial derivative with respect to y (degree drops by one)."""
        e = self.degree
        if e == 0:
            raise ValueError("derivative of a degree-0 form is not a binary form")
        return BinaryForm(e - 1, [self.coeffs[i + 1] * (i + 1) for i in range(e)])

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, BinaryForm):
            return NotImplemented
        if self.degree != other.degree:
            raise ValueError("can only add forms of equal formal degree")
        return BinaryForm(self.degree, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        if not isinstance(other, BinaryForm):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return BinaryForm(self.degree, [-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, BinaryForm):
            deg = self.degree + other.degree
            out = [Fraction(0)] * (deg + 1)
            for i, a in enumerate(self.coeffs):
                if a == 0:
                    continue
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
            return BinaryForm(deg, out)
        if isinstance(other, (int, Fraction)):
            return BinaryForm(self.degree, [c * other for c in self.coeffs])
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, k: int):
        result = BinaryForm(0, [1])
        for _ in range(integer("k", k)):
            result = result * self
        return result

    # -- comparison / rendering ----------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, BinaryForm):
            return NotImplemented
        return self.degree == other.degree and self.coeffs == other.coeffs

    __hash__ = None

    def __str__(self) -> str:
        e = self.degree
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            xs = "" if e - i == 0 else ("x" if e - i == 1 else f"x^{e - i}")
            ys = "" if i == 0 else ("y" if i == 1 else f"y^{i}")
            body = "*".join(s for s in (str(abs(c)) if abs(c) != 1 or (not xs and not ys) else "", xs, ys) if s)
            parts.append((("-" if c < 0 else "") if not parts else ("- " if c < 0 else "+ ")) + body)
        return " ".join(parts) if parts else "0"

    def __repr__(self) -> str:
        return f"BinaryForm(degree={self.degree}, {str(self)!r})"

    def to_dict(self) -> dict:
        return {"degree": self.degree, "coeffs": [str(c) for c in self.coeffs]}

    @classmethod
    def from_dict(cls, payload: dict) -> "BinaryForm":
        return cls(payload["degree"], payload["coeffs"])


def mul_form(f: BinaryForm, g: BinaryForm) -> BinaryForm:
    """Exact product; the formal degree is the sum of formal degrees."""
    return f * g


def pow_form(f: BinaryForm, k: int) -> BinaryForm:
    """Exact k-th power; k = 0 gives the degree-0 unit form."""
    return f ** k


def transvectant(f: BinaryForm, g: BinaryForm) -> BinaryForm:
    """First transvectant {f, g} = f_x*g_y - f_y*g_x, of formal degree
    deg(f) + deg(g) - 2.

    Bilinear over the rationals, and the zero form exactly when f and g are
    proportional powers of a common form.  Zero-form inputs of degree >= 1
    are legal and give the zero form of the expected degree.
    """
    if f.degree < 1 or g.degree < 1:
        raise ValueError("transvectant undefined below degree 1")
    m, n = f.degree, g.degree
    fs, lf = _over_common_denominator(f.coeffs)
    gs, lg = _over_common_denominator(g.coeffs)
    # f_x*g_y - f_y*g_x collects f_i*g_j, (m-i)*j - i*(n-j) = m*j - n*i times,
    # in the coefficient of x^(m+n-1-i-j) y^(i+j-1); i+j = 0 and i+j = m+n
    # carry weight 0 and fall outside the output
    sums = [0] * (m + n + 1)
    for i, fi in enumerate(fs):
        if fi:
            for j, gj in enumerate(gs):
                sums[i + j] += (m * j - n * i) * fi * gj
    den = lf * lg
    return BinaryForm._from_clean(m + n - 2, tuple(Fraction(s, den) for s in sums[1:-1]))


def _over_common_denominator(coeffs: tuple[Fraction, ...]) -> tuple[list[int], int]:
    """Integer numerators over the least common denominator l: c_i = s_i / l."""
    den = lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def transvectant_support(m: int, n: int, k: int) -> set[tuple[int, int]]:
    """Index pairs (i, j) with i + j = k + 1 that may carry a monomial
    f_i * g_j in the k-th coefficient of {f, g} (binomial view of f and g,
    plain basis of the output)."""
    m, n, k = integer("m", m, 1), integer("n", n, 1), integer("k", k)
    if k > m + n - 2:
        raise ValueError(f"k out of range: need 0 <= k <= {m + n - 2}, got {k}")
    return {(i, k + 1 - i) for i in range(0, m + 1) if 0 <= k + 1 - i <= n}
