"""Time-variant challenge generation from a pair of free-running LFSRs.

Both registers load the same external challenge and shift together once per
round, before the round's challenge is taken, so the raw seed never reaches
the arbiter.  The round's real challenge is read from one of the two
post-shift registers:

    register 1  if  prev_response xor mode == 1
    register 2  otherwise

where prev_response is the previous round's voted bit (0 before round 1) and
mode is the session's parity bit (1 selects the original wiring, 0 the
swapped one).  A response is the XOR fold of rounds_per_response voted bits
produced this way.

run_rounds is the one selection engine: the device, server, attack
harnesses and trace_records all run it.  The scalar reference that restates
the rule one register shift at a time, and that the tests compare the engine
against, lives in tests/reference.py.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameter, WidthMismatch, ZeroSeed
from .lfsr import LfsrSpec, is_m_sequence

DEFAULT_ROUNDS = 5


@dataclass(frozen=True)
class DualLfsrSpec:
    """An ordered pair of distinct same-order maximal-period polynomials."""

    pair: tuple[LfsrSpec, LfsrSpec]
    rounds_per_response: int = DEFAULT_ROUNDS

    def __post_init__(self) -> None:
        a, b = self.pair
        if a.order != b.order:
            raise WidthMismatch(f"register orders differ: {a.order} vs {b.order}")
        if a == b:
            raise InvalidParameter(f"registers must be distinct, both are {a}")
        for spec in (a, b):
            if not is_m_sequence(spec):
                raise InvalidParameter(f"{spec} does not generate a maximal-period sequence")
        if self.rounds_per_response < 1:
            raise InvalidParameter("rounds_per_response must be >= 1")

    @property
    def order(self) -> int:
        return self.pair[0].order


def lane_feeds(lane_pairs) -> tuple[np.ndarray, np.ndarray]:
    """Per-lane feed patterns of the first and second registers, as the
    int64 arrays run_rounds broadcasts over the lane axis."""
    return (
        np.array([p.pair[0].feed for p in lane_pairs], dtype=np.int64),
        np.array([p.pair[1].feed for p in lane_pairs], dtype=np.int64),
    )


def check_external_challenge(challenge: int, order: int) -> None:
    """Reject an external challenge outside the nonzero order-bit range:
    zero is the registers' stuck state."""
    if not 0 < challenge < 1 << order:
        raise ZeroSeed(
            f"external challenge {challenge:#x} outside the nonzero {order}-bit range"
        )


def trace_records(
    spec: DualLfsrSpec,
    external_challenge: int,
    mode: int,
    response_bits,
) -> list[str]:
    """Waveform dump, one line per round: round M prev chosen_lfsr challenge_bits.

    The challenges come from run_rounds with a round function that replays
    the given vote history and records each round's chosen challenge.
    """
    history = [int(b) & 1 for b in response_bits]
    if len(history) != spec.rounds_per_response:
        raise WidthMismatch(
            f"need {spec.rounds_per_response} response bits, got {len(history)}"
        )
    check_external_challenge(external_challenge, spec.order)
    mode &= 1
    challenges: list[int] = []

    def replay(round_no: int, chosen: np.ndarray) -> np.uint8:
        challenges.append(int(chosen))
        return np.uint8(history[round_no])

    run_rounds(
        spec.pair[0].feed, spec.pair[1].feed, external_challenge, mode, len(history), replay
    )
    prevs = [0] + history[:-1]
    return [
        f"{round_no} {mode} {prev} {1 if prev ^ mode == 1 else 2} "
        f"{challenge:0{spec.order}b}"
        for round_no, (prev, challenge) in enumerate(zip(prevs, challenges), start=1)
    ]


def run_rounds(
    feed1,
    feed2,
    seed,
    mode,
    rounds: int,
    round_eval,
) -> np.ndarray:
    """Vectorised selection loop over any broadcastable lane/batch layout.

    feed1, feed2, seed, and mode broadcast together to the working shape;
    round_eval(round_index, chosen_states) maps an int64 challenge array of
    that shape to a uint8 bit array of the same shape.  Returns the XOR fold
    of the round bits.
    """
    feed1, feed2, seed, mode = (
        np.asarray(a, dtype=np.int64) for a in (feed1, feed2, seed, mode)
    )
    shape = np.broadcast_shapes(feed1.shape, feed2.shape, seed.shape, mode.shape)
    s1 = np.broadcast_to(seed, shape).copy()
    s2 = s1.copy()
    prev = np.zeros(shape, dtype=np.int64)
    folded = np.zeros(shape, dtype=np.uint8)
    for round_no in range(rounds):
        s1 = (s1 >> 1) ^ (feed1 * (s1 & 1))
        s2 = (s2 >> 1) ^ (feed2 * (s2 & 1))
        chosen = np.where(prev ^ mode == 1, s1, s2)
        bits = round_eval(round_no, chosen)
        folded ^= bits
        prev = bits.astype(np.int64)
    return folded
