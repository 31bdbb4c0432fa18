"""Exact arithmetic in Z[z1, ..., zk] modulo (z1^(c1+1), ..., zk^(ck+1)).

This is the integral Chow ring of a product of projective spaces
P^c1 x ... x P^ck: variable zi is the hyperplane class pulled back from
the i-th factor, and any monomial carrying an exponent above its cap is
identically zero.  Coefficients are Python ints, so nothing overflows.

Polynomials are immutable values: every operation returns a fresh object,
no stored coefficient is zero, and no stored exponent exceeds its cap.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping
from operator import sub

from ._frozen import Frozen


class RingSpec(Frozen):
    """Per-variable exponent caps (c1, ..., ck).

    Cap ci is the dimension of the i-th projective factor; degree-0 cycles
    integrate to the coefficient of z1^c1 * ... * zk^ck.
    """

    __slots__ = ("caps",)
    caps: tuple[int, ...]

    def __init__(self, caps: Iterable[int]) -> None:
        caps = tuple(int(c) for c in caps)
        if len(caps) == 0:
            raise ValueError("RingSpec needs at least one variable")
        if any(c < 0 for c in caps):
            raise ValueError(f"caps must be nonnegative, got {caps}")
        object.__setattr__(self, "caps", caps)

    def _fields(self) -> tuple:
        return (self.caps,)

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

    def variable(self, index: int) -> "TruncatedPolynomial":
        exps = [0] * self.nvars
        exps[index] = 1
        return self.monomial(exps, 1)

    def variables(self) -> list["TruncatedPolynomial"]:
        return [self.variable(i) for i in range(self.nvars)]

    def monomial(self, exponents: Iterable[int], coeff: int = 1) -> "TruncatedPolynomial":
        """Single-term polynomial coeff * z^exponents; zero if any exponent
        exceeds its cap or coeff == 0."""
        exps = tuple(int(e) for e in exponents)
        if len(exps) != self.nvars:
            raise ValueError(f"expected {self.nvars} exponents, got {len(exps)}")
        if any(e < 0 for e in exps):
            raise ValueError(f"negative exponent in {exps}")
        coeff = int(coeff)
        if coeff == 0 or any(e > c for e, c in zip(exps, self.caps)):
            return self.zero()
        return TruncatedPolynomial._from_clean(self, {exps: coeff})


class TruncatedPolynomial:
    """Sparse exact-integer polynomial with capped exponents.

    ``terms`` maps exponent tuples to nonzero int coefficients.  Treat
    instances as immutable; all arithmetic returns new values, which makes
    them safe to share across threads.
    """

    __slots__ = ("spec", "terms")

    def __init__(self, spec: RingSpec, terms: Mapping[tuple[int, ...], int]):
        caps = spec.caps
        k = spec.nvars
        clean: dict[tuple[int, ...], int] = {}
        for exps, coeff in terms.items():
            e = tuple(int(v) for v in exps)
            if len(e) != k:
                raise ValueError(f"expected {k} exponents, got {len(e)}")
            if any(v < 0 for v in e):
                raise ValueError(f"negative exponent in {e}")
            c = int(coeff)
            if c == 0 or any(v > cap for v, cap in zip(e, caps)):
                continue
            clean[e] = c
        self.spec = spec
        self.terms = clean

    @classmethod
    def _from_clean(cls, spec: RingSpec, terms: dict[tuple[int, ...], int]) -> "TruncatedPolynomial":
        # fast constructor for term dicts already known to be valid
        p = object.__new__(cls)
        p.spec = spec
        p.terms = terms
        return p

    # -- queries ----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def constant_term(self) -> int:
        return self.terms.get((0,) * self.spec.nvars, 0)

    def coefficient(self, exponents: Iterable[int]) -> int:
        """Exact coefficient at the given exponent vector (0 if absent)."""
        exps = tuple(int(e) for e in exponents)
        if len(exps) != self.spec.nvars:
            raise ValueError(f"expected {self.spec.nvars} exponents, got {len(exps)}")
        return self.terms.get(exps, 0)

    def integrate(self) -> int:
        """Coefficient of the top monomial z1^c1 * ... * zk^ck (the degree
        of the 0-cycle the polynomial's top part represents)."""
        return self.terms.get(self.spec.caps, 0)

    def homogeneous_part(self, degree: int) -> "TruncatedPolynomial":
        """Keep exactly the terms of the given total degree."""
        degree = int(degree)
        return TruncatedPolynomial._from_clean(
            self.spec, {e: c for e, c in self.terms.items() if sum(e) == degree}
        )

    def truncate_degree(self, limit: int) -> "TruncatedPolynomial":
        """Drop all terms of total degree above ``limit``."""
        if limit >= self.spec.top_degree:
            return self
        return TruncatedPolynomial._from_clean(
            self.spec, {e: c for e, c in self.terms.items() if sum(e) <= limit}
        )

    def truncate(self, spec: RingSpec) -> "TruncatedPolynomial":
        """Image of this polynomial in a ring with (typically smaller) caps."""
        return TruncatedPolynomial(spec, self.terms)

    # -- arithmetic --------------------------------------------------------

    def _check_ring(self, other: "TruncatedPolynomial") -> None:
        if self.spec != other.spec:
            raise ValueError("mismatched RingSpec")

    def __add__(self, other):
        if isinstance(other, int):
            other = self.spec.monomial((0,) * self.spec.nvars, other)
        elif not isinstance(other, TruncatedPolynomial):
            return NotImplemented
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
        if isinstance(other, int):
            return self + (-other)
        if not isinstance(other, TruncatedPolynomial):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return self.spec.zero()
            return TruncatedPolynomial._from_clean(
                self.spec, {e: c * other for e, c in self.terms.items()}
            )
        if not isinstance(other, TruncatedPolynomial):
            return NotImplemented
        self._check_ring(other)
        caps = self.spec.caps
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        top = self.spec.top_degree
        if a and sum(next(iter(a))) + sum(next(iter(b))) == top and _is_homogeneous(a) and _is_homogeneous(b):
            # homogeneous factors of complementary degree: within the caps the
            # product can only land on the top monomial, so pair each term of
            # the smaller factor with its complement in the other
            get = b.get
            total = sum(ca * get(tuple(map(sub, caps, ea)), 0) for ea, ca in a.items())
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
        exponent = int(exponent)
        if exponent < 0:
            raise ValueError("negative power in a truncated ring")
        result = self.spec.one()
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    # -- comparison / rendering --------------------------------------------

    def __eq__(self, other):
        if isinstance(other, int):
            return self.terms == ({} if other == 0 else {(0,) * self.spec.nvars: other})
        if not isinstance(other, TruncatedPolynomial):
            return NotImplemented
        return self.spec == other.spec and self.terms == other.terms

    __hash__ = None

    def sorted_terms(self) -> Iterator[tuple[tuple[int, ...], int]]:
        """Terms ordered lexicographically by exponent vector."""
        return iter(sorted(self.terms.items()))

    def _render(self, names: tuple[str, ...], mul: str, power) -> str:
        if not self.terms:
            return "0"
        parts = []
        for exps, coeff in self.sorted_terms():
            factors = [power(names[i], e) for i, e in enumerate(exps) if e]
            if not factors:
                body = str(abs(coeff))
            else:
                mag = abs(coeff)
                body = mul.join(([str(mag)] if mag != 1 else []) + factors)
            if not parts:
                parts.append(("-" if coeff < 0 else "") + body)
            else:
                parts.append(("- " if coeff < 0 else "+ ") + body)
        return " ".join(parts)

    def __str__(self) -> str:
        names = tuple(f"z{i + 1}" for i in range(self.spec.nvars))
        return self._render(names, "*", lambda n, e: n if e == 1 else f"{n}^{e}")

    def __repr__(self) -> str:
        return f"TruncatedPolynomial(caps={self.spec.caps}, {str(self)!r})"

    def to_latex(self, names: tuple[str, ...] | None = None) -> str:
        """Render as LaTeX, terms sorted by exponent vector."""
        if names is None:
            names = tuple(f"\\zeta_{{{i + 1}}}" for i in range(self.spec.nvars))
        return self._render(names, " ", lambda n, e: n if e == 1 else f"{n}^{{{e}}}")

    # -- JSON ----------------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-ready encoding; coefficients are decimal strings because they
        routinely exceed 64 bits."""
        return {
            "caps": list(self.spec.caps),
            "terms": [{"exp": list(e), "coeff": str(c)} for e, c in self.sorted_terms()],
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "TruncatedPolynomial":
        spec = RingSpec(tuple(payload["caps"]))
        terms = {tuple(t["exp"]): int(t["coeff"]) for t in payload["terms"]}
        return cls(spec, terms)


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
    limit = u.spec.top_degree if up_to_degree is None else int(up_to_degree)
    acc = u.spec.one()
    pw = u.spec.one()
    neg = -u
    for _ in range(limit):
        pw = (pw * neg).truncate_degree(limit)
        if pw.is_zero:
            break
        acc = acc + pw
    return acc
