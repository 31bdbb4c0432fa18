"""Binary forms with exact rational coefficients and the first transvectant.

A form of formal degree e is stored by its e+1 coefficients in the plain
monomial basis, x-degree descending: coeffs[i] multiplies x^(e-i) * y^i.
The formal degree is kept even when leading coefficients vanish, and the
zero form of any degree is legal.

The binomially weighted coordinates of classical invariant theory
(f_i = c_i / C(e, i)) are provided as an exact conversion view; the
transvectant itself is always reported in the plain basis.
"""

from collections.abc import Iterable
from fractions import Fraction
from math import comb, lcm

from ._frozen import Frozen, integer, max_digits, render_terms

__all__ = ["BinaryForm", "mul_form", "pow_form", "transvectant", "transvectant_support"]

Rationalish = int | str | Fraction


def _coefficient(value: Rationalish) -> Fraction:
    """``value`` as a Fraction: a Fraction as it is, anything else through
    ``Fraction()``.  Text whose decimal exponent is longer than
    ``max_digits()`` raises ValueError first: ``Fraction("1e10000000")``
    would spend seconds building 10**10000000."""
    if value.__class__ is Fraction:
        return value
    if isinstance(value, str):
        limit = max_digits()
        _, e, exponent = value.lower().partition("e")
        try:
            huge = bool(e) and abs(int(exponent)) > limit
        except ValueError:
            huge = False  # not an exponent; Fraction reports the malformed text
        if huge:
            raise ValueError(f"decimal exponent of {value!r} exceeds {limit}")
    return Fraction(value)


class BinaryForm(Frozen):
    """Binary form sum(coeffs[i] * x^(degree-i) * y^i) over the rationals."""

    __slots__ = ("degree", "coeffs")

    def __init__(self, degree: int, coeffs: Iterable[Rationalish]):
        degree = integer("degree", degree)
        cs = tuple(map(_coefficient, coeffs))
        if len(cs) != degree + 1:
            raise ValueError(f"degree {degree} needs {degree + 1} coefficients, got {len(cs)}")
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "coeffs", cs)

    @classmethod
    def zero(cls, degree: int) -> "BinaryForm":
        return cls(degree, [0] * (integer("degree", degree) + 1))

    @classmethod
    def from_binomial(cls, degree: int, values: Iterable[Rationalish]) -> "BinaryForm":
        """Build from binomially weighted coordinates: c_i = C(e, i) * f_i."""
        degree = integer("degree", degree)
        return cls(degree, [comb(degree, i) * _coefficient(v) for i, v in enumerate(values)])

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
        if other.__class__ is not int and not isinstance(other, Fraction):
            other = integer("scalar", other, None)
        return BinaryForm(self.degree, [c * other for c in self.coeffs])

    __rmul__ = __mul__

    def __pow__(self, k: int):
        result = BinaryForm(0, [1])
        for _ in range(integer("k", k)):
            result = result * self
        return result

    # -- rendering -----------------------------------------------------------

    def __str__(self) -> str:
        e = self.degree
        terms = (((e - i, i), c) for i, c in enumerate(self.coeffs) if c)
        return render_terms(terms, ("x", "y"), "*", lambda n, k: n if k == 1 else f"{n}^{k}")

    def __repr__(self) -> str:
        return f"BinaryForm(degree={self.degree}, {str(self)!r})"

    def to_dict(self) -> dict:
        return {"degree": self.degree, "coeffs": [str(c) for c in self.coeffs]}


def mul_form(f: BinaryForm, g: BinaryForm) -> BinaryForm:
    """Exact product; the formal degree is the sum of formal degrees."""
    return f * g


def pow_form(f: BinaryForm, k: int) -> BinaryForm:
    """Exact k-th power; k = 0 gives the degree-0 unit form."""
    return f ** k


# the most bit-products transvectant computes, each product counted at 100 or
# more: 100 is 10^8 / 10^6, so the degrees alone, before a coefficient is
# parsed, refuse more than 10^6 products.  On a 2-vCPU VM two forms of 50
# coefficients 1/<100-digit number> (8.1e7) take 0.5 s, of 1000 ones 0.2-0.3 s
MAX_TRANSVECT_WORK = 100_000_000


def transvectant_refusal(m: int, n: int, bits: int = 0) -> str | None:
    """The one-line refusal of the transvectant of forms of degrees m and n
    that have ``bits`` bits together, or None.  A form's bits are those of
    its least common denominator or of its longest numerator, whichever is
    more (see ``transvectant``)."""
    bits = max(bits, 100)
    if (work := (m + 1) * (n + 1) * bits) > MAX_TRANSVECT_WORK:
        return (
            f"the transvectant of forms of degrees (m,n)=({m},{n}) takes (m+1)(n+1)*{bits} = {work} "
            f"bit-products, more than the {MAX_TRANSVECT_WORK} it computes"
        )
    return None


def transvectant(f: BinaryForm, g: BinaryForm) -> BinaryForm:
    """First transvectant {f, g} = f_x*g_y - f_y*g_x, of formal degree
    deg(f) + deg(g) - 2.

    Bilinear over the rationals, and the zero form exactly when f and g are
    proportional powers of a common form.  Zero-form inputs of degree >= 1
    are legal and give the zero form of the expected degree.  Raises
    ValueError, before any product is formed, when the work exceeds
    MAX_TRANSVECT_WORK: (m+1)(n+1) products of bits(f) + bits(g) bits, each
    counted at 100 or more.  bits(f) is the larger of the bit lengths of f's
    least common denominator lf and of its longest numerator, read before
    any is scaled; a scaled numerator has at most that many bits plus
    bits(lf), so the count is within a factor of 2 of the operands' size.
    """
    if f.degree < 1 or g.degree < 1:
        raise ValueError("transvectant undefined below degree 1")
    m, n = f.degree, g.degree
    lf = lcm(*(c.denominator for c in f.coeffs))
    lg = lcm(*(c.denominator for c in g.coeffs))
    if refused := transvectant_refusal(m, n, _bits(f.coeffs, lf) + _bits(g.coeffs, lg)):
        raise ValueError(refused)
    fs, gs = _numerators(f.coeffs, lf), _numerators(g.coeffs, lg)
    # f_x*g_y - f_y*g_x collects f_i*g_j, (m-i)*j - i*(n-j) = m*j - n*i times,
    # in the coefficient of x^(m+n-1-i-j) y^(i+j-1); i+j = 0 and i+j = m+n
    # carry weight 0 and fall outside the output
    sums = [0] * (m + n + 1)
    for i, fi in enumerate(fs):
        if fi:
            for j, gj in enumerate(gs):
                sums[i + j] += (m * j - n * i) * fi * gj
    den = lf * lg
    return BinaryForm(m + n - 2, [Fraction(s, den) for s in sums[1:-1]])


def _bits(coeffs: tuple[Fraction, ...], den: int) -> int:
    """The bit length of den or of the longest numerator, whichever is more."""
    return max(den.bit_length(), *(c.numerator.bit_length() for c in coeffs))


def _numerators(coeffs: tuple[Fraction, ...], den: int) -> list[int]:
    """Integer numerators over a common denominator: c_i = s_i / den."""
    return [c.numerator * (den // c.denominator) for c in coeffs]


def transvectant_support(m: int, n: int, k: int) -> set[tuple[int, int]]:
    """Index pairs (i, j) with i + j = k + 1 that may carry a monomial
    f_i * g_j in the k-th coefficient of {f, g} (binomial view of f and g,
    plain basis of the output)."""
    m, n, k = integer("m", m, 1), integer("n", n, 1), integer("k", k)
    if k > m + n - 2:
        raise ValueError(f"k out of range: need 0 <= k <= {m + n - 2}, got {k}")
    return {(i, k + 1 - i) for i in range(0, m + 1) if 0 <= k + 1 - i <= n}
