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
LFSR flip-flop D_1 to stage 0.

features_from_ints is the one parity-feature kernel.  phi_i is +1 or -1
according to the parity of the challenge bits j >= i, which is bit i of the
inverse Gray code C ^ C>>1 ^ C>>2 ^ ...; bit N of that code is 0, so
phi_N = +1.  The kernel computes the code with log2(N) shifts and unpacks
it into int8 +-1, so phi is exact by construction.

delay_sums is the one reduction w . phi + b behind every evaluator.  Each
int8 entry of phi converts to exactly +-1.0, so the sums equal those of a
float64 phi bit for bit, in every layout the evaluators use.  Lane bits
are made from the sums in postproc alone, for every caller.  The
one-challenge-at-a-time reference that the tests compare both against lives
in tests/reference.py.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameter, WidthMismatch
from .lfsr import MAX_PERIOD_CHECK_ORDER

DELTA_UNIT = 0.05  # delay of one compensation unit


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
        if self.adjust_up < 0 or self.adjust_low < 0:
            raise InvalidParameter("adjust counters must be >= 0")

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
    stacked for the lane evaluators.  Lanes of any other width, or no lanes,
    raise WidthMismatch."""
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


def delay_sums(phi: np.ndarray, weights: np.ndarray, offsets) -> np.ndarray:
    """w . phi + b over the last axis in any broadcast layout: (k,) lanes,
    (S,) challenges of one lane, or (S, k); each sum comes out bit-identical
    in all of them."""
    return np.einsum("...i,...i->...", phi, weights) + offsets

