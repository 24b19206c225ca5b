"""Galois LFSR engine and sequence analysis.

A register state is an n-bit integer whose bit i-1 holds flip-flop D_i, so
the printed binary form reads D_n..D_1 left to right.  The characteristic
polynomial g_0 + g_1 x + ... + g_n x^n is an integer mask with bit i = g_i.
One Galois shift is

    b = D_1
    D_n' = b
    D_i' = D_{i+1} xor (g_i and b)      for i = n-1 .. 1

which in mask form is ``state' = (state >> 1) ^ (feed if state & 1 else 0)``
with ``feed = mask >> 1``.  The update is linear and invertible, so the
state graph of a well-formed polynomial is a pure union of cycles with the
all-zero state fixed.

Primitivity is tested algebraically in GF(2)[x]/g: x must have order
2^n - 1.  Powers of x come from one kernel that squares by a linear map
(a^2 mod g is the XOR of the rows x^(2i) mod g at the set bits i of a) and
touches its operands only through ``^ * >> &``, so a Python int proves one
polynomial and an int64 array of masks tests a block of candidates.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import (
    InsufficientPrimitives,
    InvalidParameter,
    MalformedPolynomial,
    OrderTooLarge,
)

#: classify enumerates all 2^n states, and a full find_primitive list tests
#: all 2^(n-1) candidate masks (a prefix stops early), so both stop at
#: desk-scale time
MAX_CLASSIFY_ORDER = 24
MAX_PRIMITIVE_ORDER = 20
#: most candidate masks one block of the primitive search tests at once
SEARCH_BLOCK = 1 << 15
#: the widest register that run_rounds' int64 arithmetic holds
MAX_PERIOD_CHECK_ORDER = 62

_POLY_TERM = re.compile(r"^(?:x(?:\^0*(\d+))?|1)$")


@dataclass(frozen=True)
class LfsrSpec:
    """Characteristic polynomial of a Galois LFSR.

    order: register length n (>= 2).
    mask:  coefficient bits, bit i = g_i; g_0 and g_n must be 1.
    """

    order: int
    mask: int

    def __post_init__(self) -> None:
        if self.order < 2:
            raise MalformedPolynomial(f"order {self.order} < 2")
        if self.mask & 1 == 0:
            raise MalformedPolynomial("g_0 = 0: no feedback loop, plain shift register")
        if not self.mask >> self.order & 1:
            raise MalformedPolynomial(
                f"g_{self.order} = 0: register degenerates to order {self.order - 1}"
            )
        if self.mask >> self.order + 1:
            raise MalformedPolynomial(f"mask 0b{self.mask:b} has taps above order {self.order}")

    @classmethod
    def from_mask(cls, mask: int) -> "LfsrSpec":
        """Build a spec from a bare mask, reading the order off the top set bit."""
        if mask <= 0:
            raise MalformedPolynomial("empty polynomial mask")
        return cls(mask.bit_length() - 1, mask)

    @classmethod
    def parse(cls, text: str) -> "LfsrSpec":
        """Parse ``0b1011``, ``0xb``, a decimal mask, or the human form ``x^3+x+1``.

        A register wider than MAX_PERIOD_CHECK_ORDER is refused before its
        mask is formed: no command accepts one.
        """
        text = text.strip().replace(" ", "")
        if "x" in text and not text.lower().startswith("0x"):
            mask = 0
            for term in text.split("+"):
                m = _POLY_TERM.match(term)
                if not m:
                    raise MalformedPolynomial(f"cannot parse polynomial term {term[:40]!r}")
                digits = "0" if term == "1" else m.group(1) or "1"
                if len(digits) > 2 or int(digits) > MAX_PERIOD_CHECK_ORDER:
                    raise OrderTooLarge(f"polynomial above order {MAX_PERIOD_CHECK_ORDER}")
                exp = int(digits)
                if mask >> exp & 1:
                    raise MalformedPolynomial(f"duplicate term x^{exp}")
                mask |= 1 << exp
        else:
            try:
                mask = int(text, 0)
            except ValueError:
                raise MalformedPolynomial(f"cannot parse polynomial {text[:40]!r}") from None
            if mask.bit_length() > MAX_PERIOD_CHECK_ORDER + 1:
                raise OrderTooLarge(f"polynomial above order {MAX_PERIOD_CHECK_ORDER}")
        return cls.from_mask(mask)

    @property
    def feed(self) -> int:
        """Tap pattern applied on a shift when the feedback bit is 1."""
        return self.mask >> 1

    def poly_str(self) -> str:
        """Human form, highest power first, e.g. ``x^3+x+1``."""
        terms = []
        for i in range(self.order, -1, -1):
            if self.mask >> i & 1:
                terms.append("1" if i == 0 else "x" if i == 1 else f"x^{i}")
        return "+".join(terms)

    def mask_str(self) -> str:
        return f"0b{self.mask:0{self.order + 1}b}"

    def __str__(self) -> str:
        return f"{self.poly_str()} ({self.mask_str()})"


@dataclass(frozen=True)
class SequenceClassification:
    """Partition of all 2^n states into useless / useful / additional cycles.

    useless holds the all-zero fixed point.  useful holds every cycle of
    maximal length among the nonzero cycles (all of them on a tie), each as
    a tuple of states in transition order.  additional holds the rest.
    useful_count is the total number of states on useful cycles.
    """

    useless: frozenset[int]
    useful: tuple[tuple[int, ...], ...]
    additional: tuple[tuple[int, ...], ...]
    useful_count: int

    @property
    def additional_count(self) -> int:
        return sum(len(c) for c in self.additional)


def step_array(feed: "np.ndarray | int", bits: np.ndarray) -> np.ndarray:
    """Vectorised Galois shift; ``feed`` broadcasts against ``bits``."""
    return (bits >> 1) ^ (feed * (bits & 1))


def classify(spec: LfsrSpec) -> SequenceClassification:
    """Decompose the full state graph into cycles and label them.

    Enumerates all 2^n states, so the order is capped at
    MAX_CLASSIFY_ORDER.  The update is a permutation, which makes the walk
    from any unvisited state return to it without touching visited ground.
    """
    if spec.order > MAX_CLASSIFY_ORDER:
        raise OrderTooLarge(f"classify caps at order {MAX_CLASSIFY_ORDER}, got {spec.order}")
    size = 1 << spec.order
    states = np.arange(size, dtype=np.int64)
    succ = step_array(np.int64(spec.feed), states)
    visited = np.zeros(size, dtype=bool)
    cycles: list[tuple[int, ...]] = []
    for s0 in range(size):
        if visited[s0]:
            continue
        cyc = []
        s = s0
        while not visited[s]:
            visited[s] = True
            cyc.append(s)
            s = int(succ[s])
        cycles.append(tuple(cyc))
    nonzero = [c for c in cycles if c != (0,)]
    longest = max(len(c) for c in nonzero)
    useful = tuple(c for c in nonzero if len(c) == longest)
    additional = tuple(c for c in nonzero if len(c) < longest)
    return SequenceClassification(
        useless=frozenset({0}),
        useful=useful,
        additional=additional,
        useful_count=sum(len(c) for c in useful),
    )


def _times_x(a, mask, order):
    """a·x mod g, for a of degree below n."""
    a = a * 2
    return a ^ mask * (a >> order & 1)


def _x_power(exponent: int, mask, order: int):
    """x^exponent mod g by square-and-multiply, squaring by a linear map.

    Over GF(2) the square of a = sum a_i x^i is sum a_i x^(2i), so a^2 mod g
    is the XOR of the rows x^(2i) mod g at the set bits i of a; the n rows
    are built once per call.  Only ``^ * >> &`` touch the operands, so a
    Python int or an int64 array of masks (one power per candidate) goes
    through the same code.
    """
    rows = [1]
    for _ in range(order - 1):
        rows.append(_times_x(_times_x(rows[-1], mask, order), mask, order))
    result = 1
    for bit in f"{exponent:b}":
        square = result & 0
        for i, row in enumerate(rows):
            square = square ^ row * (result >> i & 1)
        result = _times_x(square, mask, order) if bit == "1" else square
    return result


def _is_prime(n: int) -> bool:
    """Miller-Rabin over the first twelve primes: exact below 3.1·10^23."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2:
        return False
    for p in bases:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        y = pow(a, d, n)
        if y in (1, n - 1):
            continue
        for _ in range(s - 1):
            y = y * y % n
            if y == n - 1:
                break
        else:
            return False
    return True


def _split(n: int) -> list[int]:
    """Prime factors of n with multiplicity, by Pollard's rho with Floyd's
    cycle finding, retrying with the next constant when a walk fails."""
    if n == 1:
        return []
    if _is_prime(n):
        return [n]
    for c in itertools.count(1):
        x, y, d = 2, 2, 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(x - y, n)
        if d != n:
            return _split(d) + _split(n // d)


@functools.lru_cache(maxsize=None)
def _mersenne_factors(order: int) -> tuple[int, ...]:
    """Prime factors of 2^order - 1 with multiplicity, ascending."""
    return tuple(sorted(_split((1 << order) - 1)))


@functools.lru_cache(maxsize=4096)
def is_m_sequence(spec: LfsrSpec) -> bool:
    """True iff the polynomial is primitive: one cycle covers every nonzero
    state, so the period from any nonzero seed is 2^n - 1.

    A shift multiplies the state by x^-1 mod g, so the period through seed 1
    is the order of x mod g.  That order is 2^n - 1 iff x^(2^n) = x (x is
    invertible, as g_0 = 1) and x^((2^n - 1)/p) != 1 for every prime p
    dividing 2^n - 1.  The order is capped at MAX_PERIOD_CHECK_ORDER.
    """
    if spec.order > MAX_PERIOD_CHECK_ORDER:
        raise OrderTooLarge(
            f"period check caps at order {MAX_PERIOD_CHECK_ORDER}, got {spec.order}"
        )
    full = (1 << spec.order) - 1
    return _x_power(full + 1, spec.mask, spec.order) == 2 and all(
        _x_power(full // p, spec.mask, spec.order) != 1
        for p in set(_mersenne_factors(spec.order))
    )


def _primitive_count(order: int) -> int:
    """m = phi(2^n - 1) / n, the number of primitive polynomials of order n,
    for an order the primitive search takes."""
    if order < 2:
        raise InvalidParameter(f"order {order} < 2")
    if order > MAX_PRIMITIVE_ORDER:
        raise OrderTooLarge(
            f"primitive search caps at order {MAX_PRIMITIVE_ORDER}, got {order}"
        )
    phi = (1 << order) - 1
    for p in set(_mersenne_factors(order)):
        phi = phi // p * (p - 1)
    return phi // order


def _odd_weight(masks, order: int):
    """True where a mask has an odd number of set bits, by a shift-and-XOR fold."""
    fold, shift = masks, 1
    while shift <= order:
        fold, shift = fold ^ fold >> shift, shift * 2
    return fold & 1 == 1


@functools.lru_cache(maxsize=64)
def find_primitive(order: int, count: int | None = None) -> tuple[LfsrSpec, ...]:
    """The first count primitive polynomials of the given order, ascending by
    mask; all of them when count is None.

    The order test of is_m_sequence, run on the candidate masks with
    g_0 = g_n = 1 as int64 arrays, in ascending blocks of at most
    SEARCH_BLOCK until count are found: drop the even-weight masks (x + 1
    divides them), keep those with x^(2^n) = x, then for each prime p of
    2^n - 1 drop those with x^((2^n - 1)/p) = 1.
    """
    total = _primitive_count(order)
    if count is not None and count < 0:
        raise InvalidParameter(f"count {count} < 0")
    want = total if count is None else min(count, total)
    full, candidates = (1 << order) - 1, 1 << order - 1
    primes = set(_mersenne_factors(order))
    found: list[int] = []
    # the first block holds about twice the expected need of a prefix
    start, size = 0, min(max(2 * want * candidates // total, 256), SEARCH_BLOCK)
    while len(found) < want and start < candidates:
        stop = min(start + size, candidates)
        masks = (1 | 1 << order) + (np.arange(start, stop, dtype=np.int64) << 1)
        masks = masks[_odd_weight(masks, order)]
        masks = masks[_x_power(full + 1, masks, order) == 2]
        for p in primes:
            masks = masks[_x_power(full // p, masks, order) != 1]
        found += masks.tolist()
        start, size = stop, SEARCH_BLOCK
    return tuple(LfsrSpec(order, m) for m in found[:want])


def pair_indices(order: int, instance_index: int) -> tuple[int, int]:
    """Positions in the ascending primitive list of an instance's ordered pair.

    Ordered pairs are enumerated lexicographically and indexed modulo their
    count m (m - 1), so consecutive indices cycle through different pairs.
    """
    m = _primitive_count(order)
    if m < 2:
        raise InsufficientPrimitives(
            f"order {order} has {m} primitive polynomial(s); need at least 2"
        )
    i, j = divmod(instance_index % (m * (m - 1)), m - 1)
    return i, j + (j >= i)

