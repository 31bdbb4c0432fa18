"""Truncated polynomial ring: examples, ring axioms, series inverse, JSON."""

import json
import random

import pytest

from tvcount import RingSpec, TruncatedPolynomial, geometric_inverse
from tvcount.ring import _is_homogeneous


def rand_poly(rng: random.Random, spec: RingSpec, density: float = 0.4) -> TruncatedPolynomial:
    import itertools

    p = spec.zero()
    for exps in itertools.product(*(range(c + 1) for c in spec.caps)):
        if rng.random() < density:
            p = p + spec.monomial(exps, rng.randint(-5, 5))
    return p


# -- RingSpec ----------------------------------------------------------------


def test_ring_spec_validation():
    assert RingSpec((2, 3, 3)).top_degree == 8
    assert RingSpec((0,)).nvars == 1
    with pytest.raises(ValueError):
        RingSpec(())
    with pytest.raises(ValueError):
        RingSpec((2, -1))


# -- monomial ------------------------------------------------------------------


def test_monomial_unit():
    spec = RingSpec((2, 3, 3))
    assert spec.monomial((0, 0, 0), 1) == spec.one()
    assert spec.one().constant_term == 1


def test_monomial_truncates_over_cap():
    spec = RingSpec((2, 3, 3))
    assert spec.monomial((3, 0, 0), 5).is_zero


def test_monomial_negative_coefficient():
    spec = RingSpec((1, 1))
    p = spec.monomial((1, 1), -2)
    assert p.terms == {(1, 1): -2}


def test_monomial_errors():
    spec = RingSpec((2, 2))
    with pytest.raises(ValueError):
        spec.monomial((1,), 1)
    with pytest.raises(ValueError):
        spec.monomial((1, -1), 1)
    assert spec.monomial((1, 1), 0).is_zero


# -- add / mul / pow -----------------------------------------------------------


def test_square_truncates_in_tight_caps():
    spec = RingSpec((1, 1))
    z1, z2 = spec.variables()
    assert (z1 + z2) ** 2 == spec.monomial((1, 1), 2)


def test_square_is_binomial_in_loose_caps():
    spec = RingSpec((2, 2))
    z1, z2 = spec.variables()
    expected = spec.monomial((2, 0), 1) + spec.monomial((1, 1), 2) + spec.monomial((0, 2), 1)
    assert (z1 + z2) ** 2 == expected


def test_pow_zero_is_one():
    spec = RingSpec((2, 2))
    z1, z2 = spec.variables()
    for p in (spec.zero(), z1, z1 + 3 * z2, spec.one() * 7):
        assert p ** 0 == spec.one()
    with pytest.raises(ValueError):
        z1 ** -1


def test_mismatched_ring_error():
    a = RingSpec((2, 2)).one()
    b = RingSpec((2, 3)).one()
    with pytest.raises(ValueError):
        a + b
    with pytest.raises(ValueError):
        a * b


def test_int_operands():
    spec = RingSpec((2,))
    z = spec.variables()[0]
    assert 1 + z == spec.one() + z
    assert (1 - z) * (1 + z) == 1 - z ** 2
    assert 3 * z == z * 3
    assert z - 1 == -(1 - z)


def test_scalar_equality_follows_the_integer_rule():
    spec = RingSpec((2,))
    one, zero, z = spec.one(), spec.zero(), spec.variables()[0]
    # integral values compare as constants
    assert one == 1 and one == 1.0 and 1.0 == one
    assert zero == 0 and zero == 0.0 and zero != 1
    assert 2 * one == 2.0 and one + z != 1
    # bools and non-integral values are not constants
    assert one != True and not one == True
    assert zero != False and not zero == False
    assert one != 1.5 and zero != "0" and one != "1" and one != None


def test_ring_axioms_random():
    rng = random.Random(7)
    for spec in (RingSpec((2, 3)), RingSpec((1, 1, 2)), RingSpec((4,))):
        for _ in range(25):
            p, q, r = (rand_poly(rng, spec) for _ in range(3))
            assert p + q == q + p
            assert p * q == q * p
            assert (p + q) + r == p + (q + r)
            assert (p * q) * r == p * (q * r)
            assert p * (q + r) == p * q + p * r


# -- top-degree pairing ----------------------------------------------------------


def rand_homogeneous(rng: random.Random, spec: RingSpec, degree: int) -> TruncatedPolynomial:
    """Random nonzero polynomial whose terms all have the given total degree."""
    while True:
        p = rand_poly(rng, spec, density=0.6).homogeneous_part(degree)
        if not p.is_zero:
            return p


def naive_product(p: TruncatedPolynomial, q: TruncatedPolynomial) -> TruncatedPolynomial:
    """Term-by-term product with truncation, written out independently."""
    out: dict = {}
    for ep, cp in p.terms.items():
        for eq, cq in q.terms.items():
            e = tuple(u + v for u, v in zip(ep, eq))
            if all(x <= cap for x, cap in zip(e, p.spec.caps)):
                out[e] = out.get(e, 0) + cp * cq
    return TruncatedPolynomial(p.spec, out)


PAIRING_CAPS = (
    (2, 3),
    (1, 1, 2),
    (3, 4, 5),
    (2, 2, 2, 1),
    (1, 2, 1, 3),
    (3, 1, 2, 2),
    (2, 0, 1, 1),
    (4,),
    (7,),
    (1,),
    (0,),
)


def test_top_degree_pairing_matches_general_loop():
    rng = random.Random(41)
    for caps in PAIRING_CAPS:
        spec = RingSpec(caps)
        top = spec.top_degree
        for _ in range(20):
            da = rng.randint(0, top)
            a, b = rand_homogeneous(rng, spec, da), rand_homogeneous(rng, spec, top - da)
            product = a * b
            assert set(product.terms) <= {spec.caps}
            assert product == b * a == naive_product(a, b)
            # b + 1 is inhomogeneous unless b is a constant, which sends the
            # product through the general loop
            general = a * (b + 1)
            assert general == naive_product(a, b + 1)
            assert general - a == product


def test_top_degree_pairing_misses_absent_complements():
    # four variables: no term of b is the complement of a's only term
    spec = RingSpec((1, 2, 1, 3))
    a = spec.monomial((1, 1, 0, 0), 5)
    b = spec.monomial((1, 0, 1, 3), 7) + spec.monomial((0, 2, 1, 2), 3)
    assert (a * b).is_zero
    assert (a * (b + spec.monomial((0, 1, 1, 3), 2))).terms == {spec.caps: 10}


def test_inhomogeneous_factor_with_complementary_first_term_takes_general_loop():
    # b's first term complements a, its second does not lie in the top degree
    for caps in ((1, 1, 1), (1, 2, 1, 3)):
        spec = RingSpec(caps)
        zero = (0,) * spec.nvars
        a = spec.monomial((1,) + zero[1:], 2)
        rest = tuple(caps[1:])
        b = TruncatedPolynomial(spec, {(0,) + rest: 3, (0, 1) + zero[2:]: 5})
        assert a * b == naive_product(a, b)
        assert (a * b).terms == {spec.caps: 6, (1, 1) + zero[2:]: 10}


def test_top_degree_pairing_when_every_term_has_a_partner():
    # b holds exactly the complements of a's terms, as beta does gamma's: the
    # homogeneity of a then carries over to b, and the fast path must agree
    # with the general loop
    rng = random.Random(47)
    for caps in PAIRING_CAPS:
        spec = RingSpec(caps)
        for _ in range(10):
            a = rand_homogeneous(rng, spec, rng.randint(0, spec.top_degree))
            b = TruncatedPolynomial(spec, {tuple(c - e for c, e in zip(caps, ea)): rng.choice((-3, 2, 7)) for ea in a.terms})
            assert (a * b).terms == naive_product(a, b).terms
            assert set((a * b).terms) <= {spec.caps}


def test_pairing_of_equal_sized_factors_with_one_inhomogeneous():
    # the first terms have complementary degrees and the factors the same
    # number of terms, but one factor leaves the degree: the general loop
    spec = RingSpec((2, 2, 1))
    a = TruncatedPolynomial(spec, {(1, 0, 0): 2, (0, 1, 0): 3})
    partners = {(1, 2, 1): 5, (2, 1, 1): 7}
    for b in (
        TruncatedPolynomial(spec, {(1, 2, 1): 5, (0, 0, 1): 7}),  # a partner and a stray term
        TruncatedPolynomial(spec, partners),  # every term a partner, a homogeneous
    ):
        assert a * b == b * a == naive_product(a, b)
    # every term of b is a partner, but a is inhomogeneous
    a = TruncatedPolynomial(spec, {(1, 0, 0): 2, (1, 1, 0): 3})
    b = TruncatedPolynomial(spec, {(1, 2, 1): 5, (1, 1, 1): 7})
    assert a * b == b * a == naive_product(a, b)
    assert len((a * b).terms) > 1


def test_is_homogeneous():
    assert _is_homogeneous({})
    assert _is_homogeneous({(0,): 4})
    assert _is_homogeneous({(1, 0, 2): 1, (0, 3, 0): -2, (3, 0, 0): 5})
    assert not _is_homogeneous({(1, 0): 1, (1, 1): 1})
    assert not _is_homogeneous({(2, 0, 0, 1): 1, (0, 0, 0, 3): 2, (1, 0, 0, 0): 1})


def test_homogeneous_products_off_the_top_degree_unchanged():
    rng = random.Random(43)
    checked = 0
    for caps in PAIRING_CAPS:
        spec = RingSpec(caps)
        top = spec.top_degree
        for _ in range(30):
            da, db = rng.randint(0, top), rng.randint(0, top)
            if da + db == top:
                continue
            a, b = rand_homogeneous(rng, spec, da), rand_homogeneous(rng, spec, db)
            assert a * b == naive_product(a, b)
            checked += 1
    assert checked > 100


# -- homogeneous_part -----------------------------------------------------------


def test_homogeneous_part_examples():
    spec = RingSpec((2, 3))
    z1, z2 = spec.variables()
    p = spec.one() + z1 + z1 * z2
    assert p.homogeneous_part(2) == z1 * z2
    assert p.homogeneous_part(0) == spec.one()

    line = RingSpec((3,))
    z = line.variables()[0]
    assert ((1 + z) ** 3).homogeneous_part(2) == line.monomial((2,), 3)

    assert spec.zero().homogeneous_part(5).is_zero


def test_homogeneous_decomposition():
    rng = random.Random(11)
    spec = RingSpec((2, 2, 1))
    for _ in range(20):
        p = rand_poly(rng, spec)
        total = spec.zero()
        for deg in range(spec.top_degree + 1):
            part = p.homogeneous_part(deg)
            assert all(sum(e) == deg for e in part.terms)
            total = total + part
        assert total == p


# -- geometric_inverse -----------------------------------------------------------


def test_geometric_inverse_examples():
    spec = RingSpec((1, 1))
    assert geometric_inverse(spec.zero()) == spec.one()

    line1 = RingSpec((1,))
    z = line1.variables()[0]
    assert geometric_inverse(z) == 1 - z

    line2 = RingSpec((2,))
    z = line2.variables()[0]
    assert geometric_inverse(z) == 1 - z + z ** 2


def test_geometric_inverse_rejects_constant_term():
    spec = RingSpec((2,))
    with pytest.raises(ValueError):
        geometric_inverse(spec.one() + spec.variables()[0])


def test_geometric_inverse_is_an_inverse():
    rng = random.Random(23)
    for spec in (RingSpec((2, 2)), RingSpec((1, 3)), RingSpec((2, 1, 2))):
        for _ in range(15):
            u = rand_poly(rng, spec)
            u = u - u.homogeneous_part(0)
            inv = geometric_inverse(u)
            assert (1 + u) * inv == spec.one()


def test_geometric_inverse_degree_cutoff_matches_full():
    rng = random.Random(31)
    spec = RingSpec((2, 2, 2))
    for _ in range(10):
        u = rand_poly(rng, spec)
        u = u - u.homogeneous_part(0)
        full = geometric_inverse(u)
        for limit in range(spec.top_degree + 1):
            assert geometric_inverse(u, up_to_degree=limit) == full.truncate_degree(limit)


# -- integrate / coefficient ------------------------------------------------------


def test_integrate_examples():
    m, n = 2, 3
    spec = RingSpec((m, n, m + n - 2))
    assert spec.monomial((m, n, m + n - 2), 1).integrate() == 1

    low = spec.monomial((1, 1, 1), 9)
    assert low.integrate() == 0

    square = RingSpec((1, 1))
    p = square.monomial((1, 1), 7) + square.monomial((1, 0), 1)
    assert p.integrate() == 7


def test_coefficient_examples():
    spec = RingSpec((2, 2))
    z1, z2 = spec.variables()
    assert ((z1 + z2) ** 2).coefficient((1, 1)) == 2
    assert spec.zero().coefficient((0, 0)) == 0

    line = RingSpec((3,))
    assert line.monomial((3,), 5).coefficient((3,)) == 5
    with pytest.raises(ValueError):
        line.one().coefficient((0, 0))


def test_integrate_equals_top_coefficient():
    rng = random.Random(5)
    spec = RingSpec((2, 1, 2))
    for _ in range(20):
        p = rand_poly(rng, spec)
        assert p.integrate() == p.coefficient(spec.caps)


# -- truncation consistency ---------------------------------------------------------


def test_truncation_consistency():
    # the constructor drops terms over the caps, so building a polynomial's
    # terms in a ring with smaller caps is a ring homomorphism
    rng = random.Random(13)
    big = RingSpec((3, 3))
    small = RingSpec((2, 1))
    for _ in range(20):
        p = rand_poly(rng, big)
        q = rand_poly(rng, big)
        via_big = TruncatedPolynomial(small, (p * q).terms)
        via_small = TruncatedPolynomial(small, p.terms) * TruncatedPolynomial(small, q.terms)
        assert via_big == via_small


# -- JSON / rendering -----------------------------------------------------------------


def test_json_roundtrip_with_big_coefficients():
    spec = RingSpec((2, 3, 3))
    p = (
        spec.monomial((1, 0, 2), 10 ** 30)
        + spec.monomial((0, 1, 0), -7)
        + spec.monomial((2, 3, 3), 1)
    )
    payload = p.to_dict()
    assert payload["caps"] == [2, 3, 3]
    exps = [tuple(t["exp"]) for t in payload["terms"]]
    assert exps == sorted(exps)
    assert all(isinstance(t["coeff"], str) for t in payload["terms"])
    # lossless: the decoded payload rebuilds p
    decoded = json.loads(json.dumps(payload))
    terms = {tuple(t["exp"]): int(t["coeff"]) for t in decoded["terms"]}
    assert TruncatedPolynomial(RingSpec(decoded["caps"]), terms) == p


def test_text_and_latex_rendering():
    spec = RingSpec((2, 2))
    z1, z2 = spec.variables()
    p = 2 * z1 ** 2 - z1 * z2 + 1
    assert str(p) == "1 - z1*z2 + 2*z1^2"
    assert p.to_latex() == "1 - \\zeta_{1} \\zeta_{2} + 2 \\zeta_{1}^{2}"
    assert str(spec.zero()) == "0"
    assert str(spec.one()) == "1"
