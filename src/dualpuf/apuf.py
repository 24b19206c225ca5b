"""Additive-delay arbiter PUF model.

A stage-N arbiter is parametrized by N+1 real weights w and evaluated on the
parity transform of the challenge: the arbiter sees the accumulated delay
difference

    delta = w . phi(C) + noise + (adjust_low - adjust_up) * DELTA_UNIT

and outputs 1 when delta > 0 (an exact tie yields 0).  The adjust counters
model compensation units inserted into the two racing paths; incrementing
adjust_up pulls delta down, so it corrects an excess of 1-responses.  A lane
is what manufacture fixes, its weights and counters; the noise belongs to
the operating point, so whoever evaluates a lane passes its sigma.

Challenge bit C_j is bit j of the challenge integer (C_0 = LSB), which wires
LFSR flip-flop D_1 to stage 0.  phi_i = +-1 is the parity sign of the bits
j >= i, and phi_N = +1.  Cut C into chunks of at most CHUNK bits, at least
two: phi_i is then its chunk's own suffix parity sign times the parity sign
of every bit above the chunk, so w . phi + b is a sum of one table entry per
chunk.  lane_tables builds the entries once per holder by elementwise adds
in a fixed stage order, and every evaluator (tag, model reader, harvest,
adjustment loop, CRP collector) adds them with lane_sums at the positions
table_positions finds (linear over GF(2), so a LaneBank maps its candidate
rows once), so its sums agree with the others' bit for bit in any lane
layout.  At N <= 20 a sum is two gathers from (2^h + 2 * 2^m) * 8 bytes per
lane for chunks of h and m bits.  features_from_ints, the attacker's int8
phi, and tests/reference.py's einsum over it check the sums.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameter, WidthMismatch, is_integer
from .lfsr import MAX_PERIOD_CHECK_ORDER

DELTA_UNIT = 0.05  # delay of one compensation unit
CHUNK = 10  # widest challenge chunk one table covers
_PARITY = np.array([bin(i).count("1") & 1 for i in range(2 << CHUNK)])  # of chunk positions


@dataclass
class ApufInstance:
    """One arbiter lane: n_stages+1 weights (the last entry is the
    challenge-independent path offset) and the compensation counters, which
    only the initialization loop moves."""

    weights: np.ndarray
    adjust_up: int = 0
    adjust_low: int = 0

    def __post_init__(self) -> None:
        self.weights = np.asarray(self.weights, dtype=np.float64)
        # wider challenges do not fit the int64 challenge integers
        if self.weights.ndim != 1 or not 2 <= self.weights.size <= MAX_PERIOD_CHECK_ORDER + 1:
            raise WidthMismatch(
                f"weights shape {self.weights.shape} is not (N+1,) for N in "
                f"[1, {MAX_PERIOD_CHECK_ORDER}]"
            )
        for counter in (self.adjust_up, self.adjust_low):
            if not is_integer(counter) or counter < 0:
                raise InvalidParameter(f"adjust counter {counter!r} is not an integer >= 0")

    @property
    def n_stages(self) -> int:
        return self.weights.size - 1

    @property
    def offset(self) -> float:
        """Compensation contribution to delta."""
        return (self.adjust_low - self.adjust_up) * DELTA_UNIT


def sample_instance(n_stages: int, rng_seed: int | np.random.SeedSequence) -> ApufInstance:
    """Draw one lane with i.i.d. standard normal weights.  Same seed, same
    instance."""
    if not 1 <= n_stages <= MAX_PERIOD_CHECK_ORDER:
        raise InvalidParameter(f"n_stages {n_stages} outside [1, {MAX_PERIOD_CHECK_ORDER}]")
    return ApufInstance(np.random.default_rng(rng_seed).standard_normal(n_stages + 1))


def stack_lanes(lanes, n_stages: int) -> tuple[np.ndarray, np.ndarray]:
    """The (k, N+1) weights and (k,) offsets of k lanes of n_stages stages,
    stacked for lane_tables.  Lanes of any other width, or no lanes, raise
    WidthMismatch."""
    widths = {lane.n_stages for lane in lanes}
    if widths != {n_stages}:
        raise WidthMismatch(f"lanes of {sorted(widths)} stages where {n_stages} are expected")
    return np.stack([lane.weights for lane in lanes]), np.array([lane.offset for lane in lanes])


def parity_features(bits) -> np.ndarray:
    """Parity transform of a bit array whose last axis is the challenge
    (C_0 first): phi_i = prod_{j>=i} (1 - 2 C_j), phi_N = 1, as int8 +-1
    with one extra column.  Packs the bits and runs features_from_ints."""
    bits = np.asarray(bits, dtype=np.int64)
    n_stages = bits.shape[-1]
    return features_from_ints((bits << np.arange(n_stages)).sum(axis=-1), n_stages)


def features_from_ints(challenges, n_stages: int) -> np.ndarray:
    """Parity features for a challenge integer array, as int8 +-1; shape
    (..., N+1).  Only the low n_stages bits of a challenge count."""
    code = np.asarray(challenges, dtype=np.int64) & ((1 << n_stages) - 1)
    shift = 1
    while shift < n_stages:
        code ^= code >> shift
        shift <<= 1
    octets = code.astype("<i8", copy=False)[..., None].view(np.uint8)
    bits = np.unpackbits(octets, axis=-1, count=n_stages + 1, bitorder="little")
    return 1 - 2 * bits.view(np.int8)


@dataclass(frozen=True)
class LaneTables:
    """Delay-sum tables of lanes laid out *lanes, per chunk, top chunk
    first: 2^h entries per lane, offset included, for the top chunk and 2 *
    2^m for a lower one, parity above 0 then 1.  A lower chunk's lift maps
    the position above to that parity times 2^m."""

    widths: tuple[int, ...]
    entries: tuple[np.ndarray, ...]  # flat, lane after lane
    starts: tuple[np.ndarray, ...]  # (*lanes,) positions of each lane's first entry
    lifts: tuple[np.ndarray, ...]

    def lane(self, index) -> LaneTables:
        """The tables of the lane at index of the layout."""
        starts = tuple(start[index] for start in self.starts)
        return LaneTables(self.widths, self.entries, starts, self.lifts)

    def moved(self, offset: float) -> LaneTables:
        """Tables built at offset 0 as lane_tables builds them at offset."""
        entries = (self.entries[0] + offset,) + self.entries[1:]
        return LaneTables(self.widths, entries, self.starts, self.lifts)


def lane_tables(weights, offsets) -> LaneTables:
    """Tables of the lanes that weights (*lanes, N+1) and offsets (*lanes,)
    describe.  A chunk's entry adds each stage's weight at its sign, the
    parity sign of the chunk's bits from the stage up, top stage first; the
    top chunk starts at w_N and adds the offset last."""
    weights = np.asarray(weights, dtype=np.float64)
    offsets = np.asarray(offsets, dtype=np.float64)[..., None]
    lanes, n_stages = weights.shape[:-1], weights.shape[-1] - 1
    if not np.abs(np.append(weights, offsets)).max() < np.finfo(np.float64).max / (n_stages + 2):
        raise InvalidParameter("weights or offsets not finite, or so large a lane's sum overflows")
    count = max(2, -(-n_stages // CHUNK))
    widths = tuple(n_stages // count + (i < n_stages % count) for i in range(count))
    tables, stop = [], n_stages
    for width in widths:
        top = stop == n_stages
        sums = weights[..., stop:] if top else np.zeros(lanes + (1,))
        signs = 1 - 2 * _PARITY[np.arange(1 << width)[:, None] >> np.arange(width)]
        for bit in range(width - 1, -1, -1):
            sums = sums + weights[..., stop - width + bit, None] * signs[:, bit]
        tables.append(sums + offsets if top else np.concatenate([sums, -sums], axis=-1))
        stop -= width
    starts = tuple(np.arange(0, t.size, t.shape[-1]).reshape(lanes) for t in tables)
    lifts = tuple(_PARITY[:2 << above] << width for above, width in zip(widths, widths[1:]))
    return LaneTables(widths, tuple(t.reshape(-1) for t in tables), starts, lifts)


def table_positions(tables: LaneTables, challenges: np.ndarray) -> list[np.ndarray]:
    """Lane-independent positions of in-range int64 challenges in each
    chunk's table, top chunk first: a lower chunk's bits plus the lift of
    the position above, whose parity is that of every bit above the chunk.
    The two occupy disjoint bits, so the positions of a ^ b are those of a
    xor those of b."""
    shift = sum(tables.widths) - tables.widths[0]
    positions = [challenges >> shift if shift else challenges]
    for width, lift in zip(tables.widths[1:], tables.lifts):
        shift -= width
        bits = (challenges >> shift if shift else challenges) & ((1 << width) - 1)
        positions.append(bits + lift.take(positions[-1]))
    return positions


def lane_sums(tables: LaneTables, positions) -> np.ndarray:
    """w . phi + b at absolute positions, one array per chunk (lane starts
    added): the chunks' entries added top chunk first."""
    sums = tables.entries[0].take(positions[0])
    for i in range(1, len(tables.entries)):
        sums += tables.entries[i].take(positions[i])
    return sums
