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
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass

import numpy as np

from .errors import (
    InsufficientPrimitives,
    MalformedPolynomial,
    OrderTooLarge,
    ZeroSeed,
)

#: enumeration bounds, chosen for desk-scale memory and time
MAX_CLASSIFY_ORDER = 24
MAX_PRIMITIVE_ORDER = 20

_POLY_TERM = re.compile(r"^(?:x(?:\^(\d+))?|1)$")


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
        """Parse ``0b1011``, ``0xb``, a decimal mask, or the human form ``x^3+x+1``."""
        text = text.strip().replace(" ", "")
        if "x" in text and not text.lower().startswith("0x"):
            mask = 0
            for term in text.split("+"):
                m = _POLY_TERM.match(term)
                if not m:
                    raise MalformedPolynomial(f"cannot parse polynomial term {term!r}")
                if term == "1":
                    exp = 0
                elif m.group(1) is None:
                    exp = 1
                else:
                    exp = int(m.group(1))
                if mask >> exp & 1:
                    raise MalformedPolynomial(f"duplicate term x^{exp}")
                mask |= 1 << exp
            return cls.from_mask(mask)
        return cls.from_mask(int(text, 0))

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


def period(spec: LfsrSpec, seed: int) -> int:
    """Length of the cycle through ``seed``, by plain iteration."""
    if seed == 0:
        raise ZeroSeed("period of the all-zero state is degenerate")
    feed = spec.feed
    s = (seed >> 1) ^ (feed if seed & 1 else 0)
    p = 1
    while s != seed:
        s = (s >> 1) ^ (feed if s & 1 else 0)
        p += 1
    return p


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


@functools.lru_cache(maxsize=4096)
def is_m_sequence(spec: LfsrSpec) -> bool:
    """True iff the polynomial is primitive: one cycle covers every nonzero
    state, so the period from any nonzero seed is 2^n - 1.  The check walks
    the whole period, so the order is capped at MAX_CLASSIFY_ORDER."""
    if spec.order > MAX_CLASSIFY_ORDER:
        raise OrderTooLarge(f"period check caps at order {MAX_CLASSIFY_ORDER}, got {spec.order}")
    return period(spec, 1) == (1 << spec.order) - 1


@functools.lru_cache(maxsize=64)
def find_primitive(order: int) -> tuple[LfsrSpec, ...]:
    """All primitive polynomials of the given order, ascending by mask.

    Brute force over every candidate mask with g_0 = g_n = 1: walk each
    candidate from seed 1 and keep those whose first return happens exactly
    at step 2^n - 1.  All candidates are walked in lockstep as numpy
    vectors, dropping each one the moment its cycle closes.
    """
    if not 2 <= order <= MAX_PRIMITIVE_ORDER:
        raise OrderTooLarge(
            f"primitive search caps at order {MAX_PRIMITIVE_ORDER}, got {order}"
        )
    base = 1 | 1 << order
    masks = base + (np.arange(1 << order - 1, dtype=np.int64) << 1)
    target = (1 << order) - 1

    alive_idx = np.arange(masks.size)
    feeds = (masks >> 1).astype(np.int32)
    state = np.ones(masks.size, dtype=np.int32)
    first_return = np.zeros(masks.size, dtype=np.int64)
    step_no = 0
    while alive_idx.size:
        step_no += 1
        state = (state >> 1) ^ (feeds * (state & 1))
        hit = state == 1
        if hit.any():
            first_return[alive_idx[hit]] = step_no
            keep = ~hit
            alive_idx = alive_idx[keep]
            feeds = feeds[keep]
            state = state[keep]
        if step_no > target:  # permutation guarantees return; guard anyway
            raise AssertionError("cycle through seed 1 exceeded state count")
    hits = masks[first_return == target]
    return tuple(LfsrSpec(order, int(m)) for m in hits)


def pick_lfsr_pair(order: int, instance_index: int) -> tuple[LfsrSpec, LfsrSpec]:
    """Deterministic distinct ordered pair of primitive polynomials.

    Ordered pairs are enumerated lexicographically over the ascending
    primitive list and indexed modulo their count, so consecutive indices
    cycle through different pairs.
    """
    prims = find_primitive(order)
    m = len(prims)
    if m < 2:
        raise InsufficientPrimitives(
            f"order {order} has {m} primitive polynomial(s); need at least 2"
        )
    idx = instance_index % (m * (m - 1))
    i, j = divmod(idx, m - 1)
    if j >= i:
        j += 1
    return prims[i], prims[j]
