"""Exact modular and combinatorial arithmetic.

Prime validation up to TOP_MAX by trial division, the bound check on every
degree, weight and count argument, the one product of integer coefficient
lists, the coefficient rows of products of powers of integer polynomials, the
squarefree divisors of n with their Moebius values, the Witt counting
formulas for graded components of a free Lie algebra on two letters, and
ConsistencyError, the package's error for a failed structural check.
Everything is exact integer arithmetic, independent of the rest of the package.
"""

from __future__ import annotations

import math
import operator
from itertools import islice
from typing import Sequence

# ConsistencyError is defined here, below every other module, and exported
# once, from charring.
__all__ = [
    "mobius_divisors",
    "poly_power_row",
    "prime_char",
    "witt_weight_count",
]


class ConsistencyError(RuntimeError):
    """A computed result contradicts a structural guarantee of the theory."""


# The largest characteristic prime_char accepts and the largest top weight
# SymCharacter.scale_weights builds; the CLI never builds a weight above 4096.
TOP_MAX = 2**20


def prime_char(p: int) -> int:
    """The field characteristic p as a plain int, checked to be a prime.

    A non-integral p (3.7, 2.0, "3") raises TypeError rather than being
    rounded; a composite one, or one above TOP_MAX, raises ValueError.
    """
    p = operator.index(p)
    if p > TOP_MAX:
        raise ValueError(f"characteristic must be at most {TOP_MAX}, got {p}")
    if p == 2 or (p > 2 and p % 2):
        for q in range(3, math.isqrt(p) + 1, 2):
            if p % q == 0:
                break
        else:
            return p
    raise ValueError(f"characteristic must be a prime >= 2, got {p}")


def at_least(n: int, least: int, what: str) -> int:
    """n as a plain int, checked against the lower bound least.

    The one check behind every degree, weight and count argument of the
    package: a non-integral n (6.5, 4.0, "4") raises TypeError rather than
    being rounded, and one below least raises ValueError naming what it is.
    """
    n = operator.index(n)
    if n < least:
        raise ValueError(f"{what} must be at least {least}, got {n}")
    return n


def convolve(a: Sequence[int], b: Sequence[int], terms: int | None = None) -> list[int]:
    """Coefficients c_0, c_1, ... of A(y)*B(y), where A(y) = a[0] + a[1]*y +
    ... and B(y) likewise: all len(a) + len(b) - 1 of them, or the first
    `terms` when that is smaller.  Empty lists are refused.

    Each nonzero entry of the outer list adds a multiple of the inner one,
    cut at the last wanted term, in one slice assignment, so the outer list
    is the one with fewer nonzero entries, and on a tie the shorter one.  A
    dense row times a row with dilated weights, mostly zeros, then costs one
    pass over the dense row per nonzero weight of the other.  An outer entry
    of 1, as every entry of a Weyl character and of its Frobenius twists is,
    adds the inner list unmultiplied, and the first nonzero one, with nothing
    to add to yet, copies it; any other entry x adds x times it.
    """
    if not a or not b:
        raise ValueError("need two nonempty coefficient lists")
    n = len(a) + len(b) - 1
    if terms is not None:
        n = min(n, at_least(terms, 1, "terms"))
    if len(a) > len(b):
        a, b = b, a
    # Swap when b has fewer than k nonzero entries: the scan stops at b's
    # k-th one, so a dense b costs k steps, not a pass.
    k = len(a) - a.count(0)
    if k and next(islice(filter(None, b), k - 1, None), None) is None:
        a, b = b, a
    out = [0] * n
    fresh = True  # out holds only zeros so far
    for i, x in enumerate(a[:n]):
        if x:
            tail = b[: n - i]
            end = i + len(tail)
            if x == 1:
                out[i:end] = tail if fresh else map(operator.add, out[i:end], tail)
            else:
                out[i:end] = [c + x * y for c, y in zip(out[i:end], tail)]
            fresh = False
    return out


def poly_power_row(factors: Sequence[tuple[Sequence[int], int]], terms: int | None = None) -> list[int]:
    """Coefficients a_0, a_1, ... of F(y), the product of the powers P(y)**n
    given as (coeffs, n) pairs, each P(y) = coeffs[0] + coeffs[1]*y + ... +
    coeffs[e]*y**e with integer coefficients and a nonzero constant term: all
    sum(n*e) + 1 of them, or the first `terms` when that is smaller.

    J. C. P. Miller's recurrence for the power of a power series (Knuth,
    TAOCP vol. 2, section 4.7), for a product of powers: F solves D*F' = E*F,
    where each factor, from D = 1 and E = 0, sets D <- D*P and E <- E*P +
    n*P'*D.  So a_0 is the product of the P(0)**n and, for k >= 1,
    k*D_0*a_k = sum over i >= 1 of (E_{i-1} + (i - k)*D_i) * a_{k-i}; with one
    factor this is Miller's ((n + 1)*i - k) * P_i.  Each division by k*D_0 is
    exact for integer polynomials, and checked: a remainder raises ValueError.
    [((1, 1), n)] gives the binomial row C(n, 0), ..., C(n, n).
    """
    d, e, row, last = [1], [0], [1], 0  # E has a zero top entry, so len(e) == len(d)
    for coeffs, n in factors:
        n = at_least(n, 0, "exponent")
        if not coeffs or not coeffs[0]:
            raise ValueError(f"need a polynomial with nonzero constant term, got {list(coeffs)}")
        # P'*D with the old D, P' padded with one zero to the length of P.
        pd = convolve([i * c for i, c in enumerate(coeffs)][1:] + [0], d)
        d, e = convolve(d, coeffs), [x + n * y for x, y in zip(convolve(e, coeffs), pd)]
        row[0] *= coeffs[0] ** n
        last += n * (len(coeffs) - 1)
    if terms is not None:
        last = min(last, at_least(terms, 1, "terms") - 1)
    # (E_{i-1} + i*D_i - k*D_i) * a_{k-i}, over the nonzero terms by ascending i.
    steps = [(i, e[i - 1] + i * c, c) for i, c in enumerate(d) if i and (e[i - 1] or c)]
    for k in range(1, last + 1):
        acc = 0
        for i, fixed, c in steps:
            if i > k:
                break
            acc += (fixed - k * c) * row[k - i]
        a, rem = divmod(acc, k * d[0])
        if rem:
            raise ValueError(f"coefficient {k} of the product is not an integer: {acc}/{k * d[0]}")
        row.append(a)
    return row


def mobius_divisors(n: int) -> list[tuple[int, int]]:
    """The pairs (d, mobius(d)) for the squarefree divisors d of n, ascending
    in d: every divisor with a nonzero Moebius value, from one factorisation
    of n."""
    n = at_least(n, 1, "n")
    primes = []
    q = 2
    while q * q <= n:
        if n % q == 0:
            primes.append(q)
            while n % q == 0:
                n //= q
        q += 1
    if n > 1:
        primes.append(n)
    out = [(1, 1)]
    for q in primes:
        out += [(d * q, -mu) for d, mu in out]
    return sorted(out)


def witt_weight_count(r: int, i: int) -> int:
    """Number of Lyndon words of length r over two letters with i second letters.

    Moebius-weighted binomial sum over the squarefree common divisors of r
    and i (with gcd(k, 0) = k); the division by the length r is exact, and
    checked: a remainder raises ConsistencyError.  The value at i and at
    r - i agree, so these counts form a symmetric weight profile.
    """
    r, i = at_least(r, 1, "length"), at_least(i, 0, "i")
    if i > r:
        raise ValueError(f"need 0 <= i <= {r}, got {i}")
    acc = sum(mu * math.comb(r // d, i // d) for d, mu in mobius_divisors(math.gcd(r, i)))
    q, rem = divmod(acc, r)
    if rem:
        raise ConsistencyError(f"Witt sum {acc} at r={r}, i={i} is not divisible by the word length {r}")
    return q
