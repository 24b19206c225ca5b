"""Independent reference for the benchmark's output checks.

Written from the definitions in the ``lfsr``, ``apuf`` and ``obfuscator``
docstrings, in plain Python, without importing ``dualpuf``:

* a Galois shift is ``state' = (state >> 1) ^ (feed if state & 1 else 0)``
  with ``feed = mask >> 1``;
* the parity transform is ``phi_i = prod_{j>=i} (1 - 2 C_j)`` with
  ``phi_N = 1`` and ``C_j`` bit j of the challenge;
* the arbiter outputs 1 when ``w . phi + offset > 0``;
* a lane's response folds ``rounds`` bits by XOR; each round shifts both
  registers and reads register 1 when ``prev_bit ^ mode == 1``, else
  register 2.

Sums use ``math.fsum``.  A delay sum within ``UNDECIDED`` of zero is not
called either way: the lane's response is ``None``.
"""

from __future__ import annotations

import json
import math

UNDECIDED = 1e-9


class Lane:
    """One arbiter lane: weights (N+1 floats), offset, and its two register masks."""

    def __init__(self, weights, offset: float, mask1: int, mask2: int, rounds: int):
        self.weights = [float(w) for w in weights]
        self.n = len(self.weights) - 1
        self.offset = float(offset)
        self.feed1 = int(mask1) >> 1
        self.feed2 = int(mask2) >> 1
        self.rounds = int(rounds)


def galois_step(state: int, feed: int) -> int:
    return (state >> 1) ^ (feed if state & 1 else 0)


def parity_features(challenge: int, n: int) -> list[float]:
    phi = [1.0] * (n + 1)
    acc = 1.0
    for i in range(n - 1, -1, -1):
        acc *= 1.0 - 2.0 * ((challenge >> i) & 1)
        phi[i] = acc
    return phi


def arbiter(lane: Lane, challenge: int) -> int | None:
    """Sign of the delay sum; None when it lies within UNDECIDED of zero."""
    phi = parity_features(challenge, lane.n)
    delta = math.fsum([w * p for w, p in zip(lane.weights, phi)] + [lane.offset])
    if abs(delta) <= UNDECIDED:
        return None
    return 1 if delta > 0 else 0


def lane_response(lane: Lane, challenge: int, mode: int) -> int | None:
    s1 = s2 = challenge
    prev = 0
    folded = 0
    for _ in range(lane.rounds):
        s1 = galois_step(s1, lane.feed1)
        s2 = galois_step(s2, lane.feed2)
        bit = arbiter(lane, s1 if prev ^ (mode & 1) == 1 else s2)
        if bit is None:
            return None
        folded ^= bit
        prev = bit
    return folded


def response(lanes: list[Lane], challenge: int, mode: int) -> list[int | None]:
    """Noiseless k-lane response, lane 0 first; undecided lanes are None."""
    return [lane_response(lane, challenge, mode) for lane in lanes]


def distance(expected: list[int | None], bits) -> int | None:
    """Hamming distance over the decided lanes; None if the widths differ."""
    bits = [int(b) for b in bits]
    if len(bits) != len(expected):
        return None
    return sum(1 for e, b in zip(expected, bits) if e is not None and e != b)


def unpack(value: int, k: int) -> list[int]:
    """Serial response integer -> lane bits, lane i in bit i."""
    return [(value >> i) & 1 for i in range(k)]


def lanes_from_tag_file(path: str) -> list[Lane]:
    """Lanes as a saved tag file holds them: per-lane weights and
    compensation counters, offset = (adjust_low - adjust_up) * delta_unit."""
    with open(path) as fh:
        doc = json.load(fh)
    lanes = []
    for entry, pair in zip(doc["lanes"], doc["lane_pairs"]):
        offset = (entry["adjust_low"] - entry["adjust_up"]) * entry["delta_unit"]
        mask1, mask2 = pair["masks"]
        lanes.append(Lane(entry["weights"], offset, mask1, mask2, pair["rounds"]))
    return lanes


def period(mask: int, seed: int = 1) -> int:
    feed = mask >> 1
    s = galois_step(seed, feed)
    p = 1
    while s != seed:
        s = galois_step(s, feed)
        p += 1
    return p


def primitive_masks(order: int) -> list[int]:
    """Primitive polynomials of a small order by walking every candidate."""
    full = (1 << order) - 1
    return [
        m for m in range(1 | 1 << order, 1 << order + 1, 2) if period(m) == full
    ]


def totient(m: int) -> int:
    out, p = m, 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            out -= out // p
        p += 1
    if m > 1:
        out -= out // m
    return out


def primitive_count(order: int) -> int:
    """Number of primitive polynomials of an order: phi(2^n - 1) / n."""
    return totient((1 << order) - 1) // order


def self_check() -> None:
    """Raise AssertionError unless the oracle reproduces two paper facts."""
    walk, s = [], 0b001
    for _ in range(7):
        s = galois_step(s, 0b1011 >> 1)
        walk.append(f"{s:03b}")
    if walk != ["101", "111", "110", "011", "100", "010", "001"]:
        raise AssertionError(f"reference cycle of x^3+x+1 walks {walk}")
    if primitive_masks(3) != [0b1011, 0b1101]:
        raise AssertionError(f"order-3 primitives {primitive_masks(3)}")
    if primitive_count(3) != 2 or primitive_count(16) != 2048:
        raise AssertionError("primitive counts disagree with phi(2^n - 1) / n")
