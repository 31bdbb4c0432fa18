"""The local graph oracle (tests/graph_oracle.py) at gcd-2 base points: the
Jacobian corank of the graph equations on the three excess monomials."""

import random

import pytest

from tvcount import BinaryForm, transvectant
from tvcount.cycles import gcd2_excess

from .graph_oracle import PRIME, base_point_corank, excess_monomials, power
from .graph_oracle import transvectant as oracle_transvectant


def test_oracle_transvectant_matches_the_package_mod_p():
    rng = random.Random(7)
    for _ in range(30):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        f = [rng.randint(-50, 50) for _ in range(m + 1)]
        g = [rng.randint(-50, 50) for _ in range(n + 1)]
        expected = transvectant(BinaryForm(m, f), BinaryForm(n, g)).coeffs
        assert oracle_transvectant([c % PRIME for c in f], [c % PRIME for c in g]) == [int(c) % PRIME for c in expected]


def test_powers_of_one_quadratic_have_zero_transvectant():
    q = [1, 5, 6]
    assert oracle_transvectant(power(q, 2), power(q, 3)) == [0] * 9


@pytest.mark.parametrize("m, n", [(2, 4), (2, 6)])
def test_base_point_is_simple_at_m_2(m, n):
    # corank 0: the base point is a simple solution, mu = 1, and beta's
    # excess 2^(m-2) (k^2, kl, l^2) is mu (k^2, kl, l^2) with k = 1
    for p, q in excess_monomials(m, n):
        assert base_point_corank(m, n, p, q) == 0, (p, q)
    l = n // 2
    assert gcd2_excess(m, n) == (1, l, l * l)


@pytest.mark.parametrize("m, n", [(4, 6), (4, 10)])
def test_base_point_is_not_simple_at_m_4(m, n):
    # corank 2: the multiplicity mu is at least 2 there
    for p, q in excess_monomials(m, n):
        assert base_point_corank(m, n, p, q) == 2, (p, q)
