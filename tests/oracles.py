"""Independent reference computations used to check the library.

Everything here deliberately takes a different route from the package:
Lyndon words are enumerated one by one instead of counted by Moebius sums,
the Moebius function comes from a linear sieve instead of trial division,
primes come from the sieve of Eratosthenes instead of Miller-Rabin,
subset sums are tried exhaustively, tilting characters and the bidegree
summands are built from products of characters instead of read off lists of
Weyl factors or coefficient rows, powers of polynomials are multiplied out
instead of run through Miller's recurrence, decompositions eliminate
weight by weight instead of in Weyl coordinates, the coefficient sequence
takes one binomial at a time instead of multiplying out digit rows, the
near-top dimension counts the nonzero divided powers of the bracket
[y, x, ..., x] applied word by word in the tensor space instead of reading
two facts off the coefficient sequence,
the character consistency check compares every weight instead of the least
multiplicity in each band, and a product of two characters sums over all
signed weight pairs into a plain dict instead of calling SymCharacter's
product, the Lie power of a character multiplies out its dilated
powers instead of reading coefficient rows, and DictCharacter keeps a
character as a dict of its non-negative weights instead of one dense row.
The Bryant-Schocker pieces are the exception: they are built from the
package's necklace characters, because what checks them is a theorem about
modules (each piece is tilting) rather than a second computation.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from functools import lru_cache
from types import MappingProxyType
from typing import Callable, Iterator, Mapping, Sequence

from lietilt.charring import SymCharacter
from lietilt.liechar import char_lie_power, lie_power_char
from lietilt.modarith import prime_char
from lietilt.tiltchar import char_weyl


class DictCharacter:
    """SymCharacter's operations over a dict of the non-negative weights with
    nonzero multiplicity: the sparse layout the package used before rows."""

    __slots__ = ("_m",)

    def __init__(self, multiplicities: Mapping[int, int] = MappingProxyType({})):
        half: dict[int, int] = {}
        for w, c in multiplicities.items():
            if half.setdefault(abs(w), c) != c:
                raise ValueError(f"asymmetric multiplicities at weights +-{abs(w)}")
        half = {w: c for w, c in half.items() if c}
        if len({w & 1 for w in half}) > 1:
            raise ValueError("weights of mixed parity in one character")
        self._m = half

    def multiplicity(self, w: int) -> int:
        return self._m.get(abs(w), 0)

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self._m, reverse=True))

    @property
    def max_weight(self) -> int | None:
        return max(self._m) if self._m else None

    @property
    def parity(self) -> int | None:
        for w in self._m:
            return w & 1
        return None

    @property
    def dim(self) -> int:
        return self._m.get(0, 0) + 2 * sum(c for w, c in self._m.items() if w > 0)

    @property
    def is_zero(self) -> bool:
        return not self._m

    def __add__(self, other: "DictCharacter") -> "DictCharacter":
        merged = dict(self._m)
        for w, c in other._m.items():
            merged[w] = merged.get(w, 0) + c
        return DictCharacter(merged)

    def __sub__(self, other: "DictCharacter") -> "DictCharacter":
        return self + other.scale(-1)

    def scale(self, c: int) -> "DictCharacter":
        return DictCharacter({w: c * v for w, v in self._m.items()})

    def __mul__(self, other: "DictCharacter") -> "DictCharacter":
        out: dict[int, int] = {}
        for u, a in self._m.items():
            for v, b in other._m.items():
                out[u + v] = out.get(u + v, 0) + a * b
                if u and v:
                    d = abs(u - v)
                    out[d] = out.get(d, 0) + (a * b if d else 2 * a * b)
        return DictCharacter(out)

    def scale_weights(self, k: int) -> "DictCharacter":
        if k < 1:
            raise ValueError(f"weight scale must be positive, got {k}")
        return DictCharacter({k * w: c for w, c in self._m.items()})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DictCharacter):
            return NotImplemented
        return self._m == other._m

    __hash__ = None

    def __repr__(self) -> str:
        inner = ", ".join(f"{w}: {self._m[w]}" for w in self.support)
        return f"SymCharacter({{{inner}}})"


def lyndon_words(k: int, n: int) -> Iterator[tuple[int, ...]]:
    """All Lyndon words of length exactly n over the alphabet 0 .. k-1,
    in lexicographic order (Duval's generation)."""
    w = [-1]
    while w:
        w[-1] += 1
        m = len(w)
        if m == n:
            yield tuple(w)
        while len(w) < n:
            w.append(w[-m])
        while w and w[-1] == k - 1:
            w.pop()


def lyndon_count(k: int, n: int) -> int:
    return sum(1 for _ in lyndon_words(k, n))


def lyndon_second_letter_counts(n: int) -> Counter:
    """Number of binary Lyndon words of length n, grouped by how many 1s."""
    counts: Counter = Counter()
    for word in lyndon_words(2, n):
        counts[sum(word)] += 1
    return counts


def lyndon_weight_counts(weights: Sequence[int], n: int) -> dict[int, int]:
    """Lyndon words of length n over a weighted alphabet, counted by the
    total weight of their letters."""
    counts: Counter = Counter()
    for word in lyndon_words(len(weights), n):
        counts[sum(weights[a] for a in word)] += 1
    return dict(counts)


def sieve_mobius(limit: int) -> list[int]:
    """Moebius function 0 .. limit by a linear sieve."""
    mu = [0] * (limit + 1)
    if limit >= 1:
        mu[1] = 1
    is_comp = [False] * (limit + 1)
    primes: list[int] = []
    for i in range(2, limit + 1):
        if not is_comp[i]:
            primes.append(i)
            mu[i] = -1
        for p in primes:
            if i * p > limit:
                break
            is_comp[i * p] = True
            if i % p == 0:
                mu[i * p] = 0
                break
            mu[i * p] = -mu[i]
    return mu


def sieve_primes(limit: int) -> list[int]:
    """Primes below limit by the sieve of Eratosthenes."""
    composite = [False] * max(limit, 2)
    primes = []
    for n in range(2, limit):
        if not composite[n]:
            primes.append(n)
            for m in range(n * n, limit, n):
                composite[m] = True
    return primes


@lru_cache(maxsize=None)
def char_tilting_by_products(m: int, p: int) -> SymCharacter:
    """Character of the tilting module T(m) in characteristic p by Donkin's
    tensor product theorem as a product of characters: below p, T(m) is the
    Weyl character; otherwise, with m - (p - 1) = a + p*b and 0 <= a < p,
    T(m) = T(b)^[F] * (Weyl(p - 1 + a) + Weyl(p - 1 - a)), the second factor
    being Weyl(p - 1) alone when a = 0."""
    if m <= p - 1:
        return char_weyl(m)
    b, a = divmod(m - (p - 1), p)
    second = char_weyl(p - 1 + a) + char_weyl(p - 1 - a) if a else char_weyl(p - 1)
    return char_tilting_by_products(b, p).scale_weights(p) * second


def char_product_by_weights(a: SymCharacter, b: SymCharacter) -> SymCharacter:
    """The product of two characters by a double loop over the signed weights
    of both, into a fresh dict over all weights, negative ones included; no
    SymCharacter ring operation is used."""
    def signed(chi: SymCharacter) -> list[tuple[int, int]]:
        return [(s * w, chi.multiplicity(w)) for w in chi.support for s in ((1, -1) if w else (1,))]

    out: dict[int, int] = {}
    for u, x in signed(a):
        for v, y in signed(b):
            out[u + v] = out.get(u + v, 0) + x * y
    return SymCharacter(out)


def power(chi: SymCharacter, k: int) -> SymCharacter:
    """The k-fold product of chi, multiplied left to right from the trivial character."""
    out = SymCharacter({0: 1})
    for _ in range(k):
        out = out * chi
    return out


def stohr_character_by_products(s: int, t: int) -> SymCharacter:
    """Character of the bidegree-(s, t) summand as s factors of the
    three-dimensional and t factors of the two-dimensional Weyl character."""
    return power(char_weyl(2), s) * power(char_weyl(1), t)


def lie_power_char_by_products(chi: SymCharacter, r: int) -> SymCharacter:
    """Witt's necklace sum (1/r) * sum over d | r of mobius(d) * chi_d**(r/d),
    chi_d the weight-dilated character, by products of characters."""
    mu = sieve_mobius(r)
    acc = SymCharacter()
    for d in divisors_of(r):
        acc = acc + power(chi.scale_weights(d), r // d).scale(mu[d])
    if any(acc.multiplicity(w) % r for w in acc.support):
        raise ValueError(f"necklace sum not divisible by {r}")
    return SymCharacter({w: acc.multiplicity(w) // r for w in acc.support})


@lru_cache(maxsize=None)
def bryant_schocker_pieces(p: int, r_max: int) -> Mapping[int, SymCharacter]:
    """{r: ch B_r} for 1 <= r <= r_max in characteristic p.

    Bryant and Schocker ("The decomposition of Lie powers", Proc. LMS 93,
    2006): for k prime to p, L^(p^m k)(V) is the direct sum over i = 0 .. m of
    L^(p^i)(B_(p^(m - i) k)), where B_k = L^k(V) and every B_r is a direct
    summand of V^(x)r, hence tilting.  So ch B_r = ch L^r minus the sum over
    i >= 1 with p^i | r of ch L^(p^i)(B_(r / p^i)).  With k = 1 the i = m term
    is L^(p^m)(V) itself, so B_r = 0 at every r = p^m with m >= 1.
    """
    pieces: dict[int, SymCharacter] = {}
    for r in range(1, r_max + 1):
        chi = char_lie_power(r)
        q = p
        while r % q == 0:
            chi = chi - lie_power_char(pieces[r // q], q)
            q *= p
        pieces[r] = chi
    return MappingProxyType(pieces)


def polynomial_product(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Coefficients of A(y)*B(y) by the schoolbook product."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def polynomial_power_by_products(coeffs: Sequence[int], n: int) -> list[int]:
    """Coefficients of P(y)**n by n schoolbook products from the constant 1."""
    out = [1]
    for _ in range(n):
        out = polynomial_product(out, coeffs)
    return out


def decompose_by_weight(chi: SymCharacter, member: Callable[[int], SymCharacter], r: int) -> dict[int, int]:
    """Signed coefficients of chi in the basis whose character at highest
    weight w is member(w), by subtracting whole characters from the top
    weight r down."""
    residual = {w: chi.multiplicity(w) for w in chi.support}
    entries = {}
    for w in range(r, -1, -2):
        c = residual.get(w)
        if c:
            entries[w] = c
            basis_char = member(w)
            for u in basis_char.support:
                residual[u] = residual.get(u, 0) - c * basis_char.multiplicity(u)
    return entries


def divisors_of(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def free_lie_dim(n_letters: int, r: int) -> int:
    """Witt dimension of the degree-r free Lie component on n letters,
    via the sieve Moebius function."""
    mu = sieve_mobius(r)
    return sum(mu[d] * n_letters ** (r // d) for d in divisors_of(r)) // r


def subset_sum_nonzero(coeffs: Sequence[int], v: int, p: int) -> bool:
    """Exhaustively test whether some v-element subset has sum != 0 mod p."""
    return any(sum(sub) % p for sub in itertools.combinations(coeffs, v))


def binom_mod(n: int, k: int, p: int) -> int:
    """Binomial coefficient C(n, k) modulo the prime p.

    Computed digit by digit in base p: the residue is the product of the
    small binomials of corresponding digits, and it vanishes as soon as a
    digit of k exceeds the matching digit of n.  Out-of-range k gives 0.
    """
    p = prime_char(p)
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    if k < 0 or k > n:
        return 0
    out = 1
    while n:
        n, nd = divmod(n, p)
        k, kd = divmod(k, p)
        if kd > nd:
            return 0
        out = out * math.comb(nd, kd) % p
    return out


def c_sequence_by_binomials(r: int, p: int) -> tuple[int, ...]:
    """(-1)**j * C(r - 1, j) mod p for j = 0 .. r - 1, one binom_mod call per entry."""
    return tuple(binom_mod(r - 1, j, p) * (-1) ** j % p for j in range(r))


def near_top_dim_in_tensor_space(r: int, p: int) -> int:
    """Dimension of the submodule generated by the top vector of the
    degree-r Lie power, counted in V^(x)r over GF(p) with no binomials.

    A word in x and y of length r is the bit mask of its y positions.  The
    left-normed bracket [y, x, ..., x] is expanded one bracket at a time,
    u -> u x - x u; E (each y in turn made x) must kill it.  Each divided
    power F^(k) turns every k-subset of the x positions of every word into
    y, and the count is the number of k for which some word keeps a nonzero
    coefficient mod p.  This is about r * 2**(r - 1) word operations.
    """
    vec = {1: 1}  # the word y
    for _ in range(r - 1):
        out: dict[int, int] = {}
        for mask, c in vec.items():
            out[mask] = out.get(mask, 0) + c  # u x: the new last letter is x
            out[mask << 1] = out.get(mask << 1, 0) - c  # x u: the new first letter is x
        vec = {mask: c % p for mask, c in out.items() if c % p}
    raised: dict[int, int] = {}
    for mask, c in vec.items():
        for i in range(r):
            if mask >> i & 1:
                raised[mask ^ 1 << i] = raised.get(mask ^ 1 << i, 0) + c
    if any(c % p for c in raised.values()):
        raise AssertionError(f"E does not kill [y, x, ..., x] at r = {r}, p = {p}")
    count = 0
    for k in range(r):
        lowered: dict[int, int] = {}
        for mask, c in vec.items():
            xs = [1 << i for i in range(r) if not mask >> i & 1]
            for subset in itertools.combinations(xs, k):
                word = mask | sum(subset)
                lowered[word] = lowered.get(word, 0) + c
        count += any(c % p for c in lowered.values())
    return count


def char_consistent_by_weights(chi: SymCharacter, m: int, p: int) -> bool:
    """Whether chi keeps non-negative multiplicities after one subtraction of
    the character of T(m), built by products, compared weight by weight."""
    tm = char_tilting_by_products(m, p)
    return all(chi.multiplicity(w) >= tm.multiplicity(w) for w in tm.support)
