"""A local check of the gcd-2 excess, independent of the package: the corank
of the Jacobian of the graph equations at one base point.

Write m = 2k, n = 2l.  Pairs (q^k, q^l), q a quadratic, form the base locus
{f, g} = 0 of the transvectant map, and only the three R = 0 monomials
z1^P z2^Q with (P, Q) = (m-2, n), (m-1, n-1), (m, n-2) meet it.  At one base
point (f0, g0) = (q^k, q^l), take L1 spanned by f0 and P random forms F_i,
L2 spanned by g0 and Q random forms G_j, and a random h0 of degree m+n-2.
In affine coordinates f = f0 + sum u_i F_i, g = g0 + sum v_j G_j, the
condition {f, g} || h0 is the P + Q equations

    lambda_s({f, g}) = {f, g}_s * h0_last - {f, g}_last * h0_s,  s < m+n-2,

and their Jacobian at the origin has the columns lambda({F_i, g0}) and
lambda({f0, G_j}).  Corank 0 makes the base point a simple solution, of
multiplicity 1; a positive corank makes its multiplicity at least 2.

Everything is modulo the prime 2^31 - 1, every draw comes from a seeded
random.Random, and the transvectant here works on plain coefficient lists
(x-descending, index = power of y), so no code is shared with tvcount.  A
special draw can only lower the rank, so ``base_point_corank`` takes the
smaller corank over two seeds.
"""

from __future__ import annotations

import random

PRIME = 2**31 - 1


def transvectant(f: list[int], g: list[int]) -> list[int]:
    """{f, g} = f_x g_y - f_y g_x mod PRIME: (m*j - n*i) f_i g_j at index
    i + j - 1, for f of degree m = len(f) - 1 and g of degree n."""
    m, n = len(f) - 1, len(g) - 1
    out = [0] * (m + n - 1)
    for i, fi in enumerate(f):
        for j, gj in enumerate(g):
            c = m * j - n * i
            if c:  # zero at (i, j) = (0, 0) and (m, n), the only indices outside
                out[i + j - 1] = (out[i + j - 1] + c * fi * gj) % PRIME
    return out


def product(f: list[int], g: list[int]) -> list[int]:
    out = [0] * (len(f) + len(g) - 1)
    for i, fi in enumerate(f):
        for j, gj in enumerate(g):
            out[i + j] = (out[i + j] + fi * gj) % PRIME
    return out


def power(f: list[int], e: int) -> list[int]:
    out = [1]
    for _ in range(e):
        out = product(out, f)
    return out


def rank(rows: list[list[int]]) -> int:
    """The rank mod PRIME of a matrix given by its rows, by Gaussian
    elimination."""
    rows = [row[:] for row in rows]
    ncols = len(rows[0]) if rows else 0
    r = 0
    for col in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = pow(rows[r][col], PRIME - 2, PRIME)
        rows[r] = [x * inv % PRIME for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                c = rows[i][col]
                rows[i] = [(x - c * y) % PRIME for x, y in zip(rows[i], rows[r])]
        r += 1
    return r


def excess_monomials(m: int, n: int) -> list[tuple[int, int]]:
    """The (P, Q) of the three R = 0 monomials that meet the base locus."""
    return [(m - 2, n), (m - 1, n - 1), (m, n - 2)]


def jacobian_corank(m: int, n: int, p: int, q: int, seed: int) -> int:
    """The corank of the graph equations' Jacobian at one base point, for the
    monomial z1^p z2^q of (m, n) = (2k, 2l), with the draws of ``seed``."""
    rng = random.Random(seed)

    def draw() -> int:
        return rng.randrange(1, PRIME)

    r1 = draw()
    r2 = draw()
    while r2 == r1:
        r2 = draw()
    quadratic = [1, (-r1 - r2) % PRIME, r1 * r2 % PRIME]  # (x - r1 y)(x - r2 y)
    f0, g0 = power(quadratic, m // 2), power(quadratic, n // 2)
    top = m + n - 2
    h0 = [draw() for _ in range(top + 1)]  # h0[top] is nonzero

    def equations(t: list[int]) -> list[int]:
        return [(t[s] * h0[top] - t[top] * h0[s]) % PRIME for s in range(top)]

    columns = [equations(transvectant([draw() for _ in range(m + 1)], g0)) for _ in range(p)]
    columns += [equations(transvectant(f0, [draw() for _ in range(n + 1)])) for _ in range(q)]
    rows = [list(row) for row in zip(*columns)]
    return p + q - rank(rows)


def base_point_corank(m: int, n: int, p: int, q: int, seeds: tuple[int, ...] = (1, 2)) -> int:
    """The smallest ``jacobian_corank`` over ``seeds``."""
    return min(jacobian_corank(m, n, p, q, seed) for seed in seeds)
