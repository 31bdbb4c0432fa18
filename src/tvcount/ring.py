"""Exact arithmetic in Z[z1, ..., zk] modulo (z1^(c1+1), ..., zk^(ck+1)).

This is the integral Chow ring of a product of projective spaces
P^c1 x ... x P^ck: variable zi is the hyperplane class pulled back from
the i-th factor, and any monomial carrying an exponent above its cap is
identically zero.  Coefficients are Python ints, so nothing overflows.

Polynomials are immutable values: every operation returns a fresh object,
no stored coefficient is zero, and no stored exponent exceeds its cap.
"""

from collections.abc import Iterable, Iterator, Mapping
from itertools import repeat
from operator import le, mul, sub

from . import _NAMES
from ._frozen import Frozen, integer, integral, render_terms

__all__ = list(_NAMES["ring"])


class RingSpec(Frozen):
    """Per-variable exponent caps (c1, ..., ck).

    Cap ci is the dimension of the i-th projective factor; degree-0 cycles
    integrate to the coefficient of z1^c1 * ... * zk^ck.
    """

    __slots__ = ("caps",)
    caps: tuple[int, ...]

    def __init__(self, caps: Iterable[int]) -> None:
        caps = tuple(integer("caps", c) for c in caps)
        if len(caps) == 0:
            raise ValueError("RingSpec needs at least one variable")
        object.__setattr__(self, "caps", caps)

    @property
    def nvars(self) -> int:
        return len(self.caps)

    @property
    def top_degree(self) -> int:
        return sum(self.caps)

    def zero(self) -> "TruncatedPolynomial":
        return TruncatedPolynomial._from_clean(self, {})

    def one(self) -> "TruncatedPolynomial":
        return self.monomial((0,) * self.nvars, 1)

    def variables(self) -> list["TruncatedPolynomial"]:
        # unit vectors need no gate; a variable whose cap is 0 is zero
        zero = (0,) * self.nvars
        units = [zero[:i] + (1,) + zero[i + 1 :] for i in range(self.nvars)]
        return [TruncatedPolynomial._from_clean(self, {e: 1} if cap else {}) for e, cap in zip(units, self.caps)]

    def _exponent_vector(self, exponents: Iterable[int]) -> tuple[int, ...]:
        """``exponents`` as a tuple of nvars nonnegative ints, or ValueError."""
        exps = tuple(integer("exponents", e) for e in exponents)
        if len(exps) != self.nvars:
            raise ValueError(f"expected {self.nvars} exponents, got {len(exps)}")
        return exps

    def monomial(self, exponents: Iterable[int], coeff: int = 1) -> "TruncatedPolynomial":
        """Single-term polynomial coeff * z^exponents; zero if any exponent
        exceeds its cap or coeff == 0."""
        return TruncatedPolynomial(self, {tuple(exponents): coeff})


class TruncatedPolynomial:
    """Sparse exact-integer polynomial with capped exponents.

    ``terms`` maps exponent tuples to nonzero int coefficients.  Treat
    instances as immutable; all arithmetic returns new values, which makes
    them safe to share across threads.
    """

    __slots__ = ("spec", "terms")

    def __init__(self, spec: RingSpec, terms: Mapping[tuple[int, ...], int]):
        self.spec = spec
        self.terms = {}
        for exps, coeff in terms.items():
            e, c = spec._exponent_vector(exps), integer("coeff", coeff, None)
            if c and all(map(le, e, spec.caps)):
                self.terms[e] = c

    @classmethod
    def _from_clean(cls, spec: RingSpec, terms: dict[tuple[int, ...], int]) -> "TruncatedPolynomial":
        # fast constructor for term dicts already known to be valid
        p = object.__new__(cls)
        p.spec = spec
        p.terms = terms
        return p

    def __reduce__(self):
        # loading checks the terms again, through __init__
        return (TruncatedPolynomial, (self.spec, self.terms))

    # -- queries ----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def constant_term(self) -> int:
        return self.terms.get((0,) * self.spec.nvars, 0)

    def coefficient(self, exponents: Iterable[int]) -> int:
        """Exact coefficient at the given exponent vector (0 if absent)."""
        return self.terms.get(self.spec._exponent_vector(exponents), 0)

    def integrate(self) -> int:
        """Coefficient of the top monomial z1^c1 * ... * zk^ck (the degree
        of the 0-cycle the polynomial's top part represents)."""
        return self.terms.get(self.spec.caps, 0)

    def homogeneous_part(self, degree: int) -> "TruncatedPolynomial":
        """Keep exactly the terms of the given total degree."""
        degree = integer("degree", degree, None)
        return TruncatedPolynomial._from_clean(self.spec, {e: c for e, c in self.terms.items() if sum(e) == degree})

    def truncate_degree(self, limit: int) -> "TruncatedPolynomial":
        """Drop all terms of total degree above ``limit``."""
        if limit >= self.spec.top_degree:
            return self
        return TruncatedPolynomial._from_clean(self.spec, {e: c for e, c in self.terms.items() if sum(e) <= limit})

    # -- arithmetic --------------------------------------------------------

    def _check_ring(self, other: "TruncatedPolynomial") -> None:
        if self.spec is not other.spec and self.spec != other.spec:
            raise ValueError("mismatched RingSpec")

    def __add__(self, other):
        if not isinstance(other, TruncatedPolynomial):
            # a scalar, which monomial gates
            other = self.spec.monomial((0,) * self.spec.nvars, other)
        self._check_ring(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            v = out.get(e, 0) + c
            if v:
                out[e] = v
            else:
                out.pop(e, None)
        return TruncatedPolynomial._from_clean(self.spec, out)

    __radd__ = __add__

    def __neg__(self):
        return TruncatedPolynomial._from_clean(self.spec, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, TruncatedPolynomial) and other.__class__ is not int:
            # gated first: -True is an int
            other = integer("coeff", other, None)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, TruncatedPolynomial):
            if other.__class__ is not int:
                other = integer("coeff", other, None)
            if other == 0:
                return self.spec.zero()
            return TruncatedPolynomial._from_clean(self.spec, {e: c * other for e, c in self.terms.items()})
        self._check_ring(other)
        caps = self.spec.caps
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        top = self.spec.top_degree
        if a and sum(next(iter(a))) + sum(next(iter(b))) == top and _is_homogeneous(a):
            # homogeneous factors of complementary degree meet only in the top
            # monomial: pair each term of a with its complement in b, built a
            # variable at a time; if every term of b is one, b is homogeneous
            cols = [map(sub, repeat(cap), col) for cap, col in zip(caps, zip(*a))]
            partners = list(map(b.get, zip(*cols), repeat(0)))
            if len(partners) - partners.count(0) == len(b) or _is_homogeneous(b):
                total = sum(map(mul, a.values(), partners))
                return TruncatedPolynomial._from_clean(self.spec, {caps: total} if total else {})
        out: dict[tuple[int, ...], int] = {}
        get = out.get
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = []
                for u, v, cap in zip(ea, eb, caps):
                    w = u + v
                    if w > cap:
                        e = None
                        break
                    e.append(w)
                if e is None:
                    continue
                key = tuple(e)
                out[key] = get(key, 0) + ca * cb
        return TruncatedPolynomial._from_clean(self.spec, {e: c for e, c in out.items() if c})

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        e = integer("exponent", exponent)
        result = self.spec.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    # -- comparison / rendering --------------------------------------------

    def __eq__(self, other):
        if isinstance(other, TruncatedPolynomial):
            return self.spec == other.spec and self.terms == other.terms
        # a scalar compares as a constant if the integer rule reads it
        c = integral(other)
        if c is None:
            return NotImplemented
        return self.terms == ({(0,) * self.spec.nvars: c} if c else {})

    __hash__ = None

    def sorted_terms(self) -> Iterator[tuple[tuple[int, ...], int]]:
        """Terms ordered lexicographically by exponent vector."""
        return iter(sorted(self.terms.items()))

    def __str__(self) -> str:
        names = tuple(f"z{i + 1}" for i in range(self.spec.nvars))
        return render_terms(self.sorted_terms(), names, "*", lambda n, e: n if e == 1 else f"{n}^{e}")

    def __repr__(self) -> str:
        return f"TruncatedPolynomial(caps={self.spec.caps}, {str(self)!r})"

    def to_latex(self) -> str:
        """Render as LaTeX, terms sorted by exponent vector."""
        names = tuple(f"\\zeta_{{{i + 1}}}" for i in range(self.spec.nvars))
        return render_terms(self.sorted_terms(), names, " ", lambda n, e: n if e == 1 else f"{n}^{{{e}}}")

    # -- JSON ----------------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-ready encoding; coefficients are decimal strings because they
        routinely exceed 64 bits."""
        return {
            "caps": list(self.spec.caps),
            "terms": [{"exp": list(e), "coeff": str(c)} for e, c in self.sorted_terms()],
        }


def _is_homogeneous(terms: Mapping[tuple[int, ...], int]) -> bool:
    """True when every exponent vector in ``terms`` has the same total degree."""
    return len(set(map(sum, terms))) <= 1


def geometric_inverse(u: TruncatedPolynomial, up_to_degree: int | None = None) -> TruncatedPolynomial:
    """Power-series inverse of 1 + u, i.e. the truncated sum of (-u)^i.

    u must have zero constant term.  With the default cutoff (the ring's top
    degree, past which every power of u vanishes) the result r satisfies
    (1 + u) * r == 1 exactly.  A smaller ``up_to_degree`` drops all terms of
    total degree above the cutoff; the surviving terms agree with the full
    inverse because powers of u only gain degree.
    """
    if u.constant_term != 0:
        raise ValueError("geometric inverse requires a zero constant term")
    limit = u.spec.top_degree if up_to_degree is None else integer("up_to_degree", up_to_degree)
    acc = pw = u.spec.one()
    neg = -u
    for _ in range(limit):
        pw = (pw * neg).truncate_degree(limit)
        if pw.is_zero:
            break
        acc = acc + pw
    return acc
