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

Both registers run free: their states never depend on the votes, only the
choice between them does.  run_rounds, the one selection engine that the
device, server, attack harnesses and trace_records all run, therefore works
in two phases.  It first shifts both registers through all rounds and hands
the whole (rounds, 2, *shape) array of candidate challenges (axis 1: first,
second register) to one evaluator call, which returns a uint8 bit for every
candidate.  It then walks the selection rule over those bits and XOR-folds
the selected ones.  postproc.voted_round, the evaluator of the tag, the
model reader and the attacker, draws one block of noise per call and lets
the two candidates of a round share it.  The scalar reference that
restates the rule one register shift at a time, and that the tests compare
the engine against, lives in tests/reference.py.
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


def check_lane_pairs(lane_pairs, k: int, order: int) -> None:
    """Reject lane pairs unless each of the k lanes has one of the given
    order and all run the same rounds_per_response."""
    if len(lane_pairs) != k:
        raise WidthMismatch(f"{len(lane_pairs)} lane pairs for k={k} lanes")
    orders = sorted({pair.order for pair in lane_pairs})
    if orders != [order]:
        raise WidthMismatch(f"lane registers are order {orders}, challenge width is {order}")
    rounds = sorted({pair.rounds_per_response for pair in lane_pairs})
    if len(rounds) > 1:
        raise InvalidParameter(f"lanes run different round counts {rounds}")


def lane_feeds(lane_pairs) -> tuple[np.ndarray, np.ndarray]:
    """Per-lane feed patterns of the first and second registers, as the
    int64 arrays run_rounds broadcasts over the lane axis."""
    return (
        np.array([p.pair[0].feed for p in lane_pairs], dtype=np.int64),
        np.array([p.pair[1].feed for p in lane_pairs], dtype=np.int64),
    )


def check_external_challenge(challenge, order: int) -> np.ndarray:
    """Return an external challenge, or an array of them, as int64; reject
    any outside the nonzero order-bit range: zero is the registers' stuck
    state."""
    try:
        seeds = np.asarray(challenge, dtype=np.int64)
    except OverflowError:  # a Python int beyond int64
        seeds = None
    if seeds is None or not ((seeds > 0) & (seeds < 1 << order)).all():
        raise ZeroSeed(f"external challenge {challenge!r} outside the nonzero {order}-bit range")
    return seeds


def trace_records(
    spec: DualLfsrSpec,
    external_challenge: int,
    mode: int,
    response_bits,
) -> list[str]:
    """Waveform dump, one line per round: round M prev chosen_lfsr challenge_bits.

    The candidate challenges come from run_rounds with an evaluator that
    records them and answers the given vote history.
    """
    history = [int(b) for b in response_bits]
    if len(history) != spec.rounds_per_response:
        raise WidthMismatch(
            f"need {spec.rounds_per_response} response bits, got {len(history)}"
        )
    if any(bit not in (0, 1) for bit in history):
        raise InvalidParameter(f"response bits {history} must each be 0 or 1")
    check_external_challenge(external_challenge, spec.order)
    mode &= 1
    recorded: list[np.ndarray] = []

    def replay(candidates: np.ndarray) -> np.ndarray:
        recorded.append(candidates)
        return np.array([[bit, bit] for bit in history], dtype=np.uint8)

    run_rounds(
        spec.pair[0].feed, spec.pair[1].feed, external_challenge, mode, len(history), replay
    )
    prevs = [0] + history[:-1]
    lines = []
    for round_no, (prev, pair) in enumerate(zip(prevs, recorded[0].tolist()), start=1):
        chosen = 1 if prev ^ mode == 1 else 2
        lines.append(f"{round_no} {mode} {prev} {chosen} {pair[chosen - 1]:0{spec.order}b}")
    return lines


def run_rounds(
    feed1,
    feed2,
    seed,
    mode,
    rounds: int,
    evaluate,
) -> np.ndarray:
    """Vectorised selection engine over any broadcastable lane/batch layout.

    feed1, feed2, seed, and mode broadcast together to the working shape.
    evaluate(candidates) is called once, with the int64 candidate challenges
    of every round laid out (rounds, 2, *shape), and returns a uint8 bit
    array of the same shape.  Round r takes the first register's bit when
    the previous selected bit xor mode is 1, else the second's.  Returns the
    XOR fold of the selected bits.
    """
    feed1, feed2, seed, mode = (
        np.asarray(a, dtype=np.int64) for a in (feed1, feed2, seed, mode)
    )
    shape = np.broadcast(feed1, feed2, seed, mode).shape
    feeds = np.empty((2,) + shape, dtype=np.int64)
    feeds[0], feeds[1] = feed1, feed2
    state = seed
    candidates = np.empty((rounds,) + feeds.shape, dtype=np.int64)
    for round_no in range(rounds):
        state = candidates[round_no] = (state >> 1) ^ (feeds * (state & 1))
    bits = evaluate(candidates)
    mode = mode.astype(np.uint8)
    selected = np.zeros(shape, dtype=np.uint8)
    folded = np.zeros(shape, dtype=np.uint8)
    for second, differs in zip(bits[:, 1], bits[:, 0] ^ bits[:, 1]):
        # the first register's bit where the previous selected bit xor mode is 1
        selected = second ^ (differs & (selected ^ mode))
        folded ^= selected
    return folded
