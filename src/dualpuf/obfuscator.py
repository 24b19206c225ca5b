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
choice between them does.  run_rounds, the one selection engine, therefore
works in two table-driven phases, each over blocks of up to BLOCK = 5
rounds.  A Galois shift is linear, so r <= 5 shifts of a state s are
(s >> r) xor the feedback its 5 low bits alone shift in.  shift_tables
tabulates that feedback for both registers, all 32 low-bit patterns and
every r, once per lane layout: 2,560 bytes per lane, 160 KiB at k=64.  From
it run_rounds builds the (rounds, 2, *shape) candidate challenges (axis 1:
first, second register) with one gather and one shift per block, and hands
them to one evaluator call, which returns a uint8 bit for every candidate.
A static 4,096-entry fold table then maps the mode, the selected bit
entering a block and the block's 2 x 5 bits to the block's XOR fold and the
selected bit leaving it.

A LaneBank holds a holder's shift and delay-sum tables, and the tag, both
readers and the attacker (through lane(i), a view of one lane) answer with
its respond: one table_positions, one lane_sums and one lane_bits call for
every candidate, one block of noise that a round's two candidates share.  A
table reader's naked-CRP bits are delay-sum tables of one chunk, each bit
the sign that lane_bits reads at sigma 0.  The scalar reference that
restates the rule one register shift at a time is tests/reference.py.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .apuf import LaneTables, lane_sums, table_positions
from .errors import InvalidParameter, WidthMismatch, ZeroSeed
from .lfsr import LfsrSpec, is_m_sequence, step_array
from .postproc import lane_bits

DEFAULT_ROUNDS = 5
BLOCK = 5  # rounds one table lookup covers
RESPOND_SLICE = 256  # challenges of one noiseless LaneBank.respond batch per run_rounds call


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

    @property
    def feeds(self) -> tuple[int, int]:
        return self.pair[0].feed, self.pair[1].feed


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


def shift_tables(feeds) -> tuple[np.ndarray, np.ndarray]:
    """The (table, base) pair run_rounds takes, for feed patterns laid out
    (*lanes, 2), first register's feed first.  Word low * (table.size >> BLOCK)
    + base[r - 1, reg, *lane] of the flat table is the feedback that r shifts
    of a state with low bits low shift in; one pattern's words are adjacent."""
    feeds = np.asarray(feeds, dtype=np.int64)
    feed = np.moveaxis(feeds, -1, 0)
    low = np.arange(1 << BLOCK, dtype=np.int64).reshape((-1,) + (1,) * feeds.ndim)
    state = np.broadcast_to(low, low.shape[:1] + feed.shape)
    table = np.empty(state.shape[:1] + (BLOCK,) + state.shape[1:], dtype=np.int64)
    for r in range(BLOCK):
        state = step_array(feed, state)
        table[:, r] = state ^ (low >> (r + 1))
    return table.reshape(-1), np.arange(table[0].size).reshape(table.shape[1:])


def _fold_tables() -> tuple[np.ndarray, np.ndarray]:
    """Fold and carry of one block for every index: mode at bit 0, entering
    selected bit at bit 1, round r's two bits at bits 2r + 2 and 2r + 3.  A
    short block's missing rounds have zero bits: they select 0, fold nothing."""
    index = np.arange(1 << 2 * BLOCK + 2)
    mode, selected = index & 1, index >> 1 & 1
    folded = np.zeros_like(index)
    for r in range(BLOCK):
        first, second = index >> 2 * r + 2 & 1, index >> 2 * r + 3 & 1
        selected = np.where(selected ^ mode, first, second)
        folded ^= selected
    return folded.astype(np.uint8), mode | selected << 1


_FOLDED, _CARRY = _fold_tables()
_BIT_WEIGHTS = 4 << np.arange(2 * BLOCK)
_SHIFTS = np.arange(1, BLOCK + 1)


def check_external_challenge(challenge, order: int, mode=1):
    """Return an external challenge and a session mode, or arrays of them,
    as int64 (a pair of Python ints as ints), the mode reduced to its parity
    bit.  Either one not of an integer dtype, or an object array holding
    anything but Python or NumPy integers (ints beyond int64 come as
    objects), raises InvalidParameter; a challenge that is zero, the stuck
    state, or has a bit set at or above order (a negative one does) ZeroSeed."""
    if type(challenge) is int and type(mode) is int and 0 < challenge < 1 << order:
        return challenge, mode & 1  # one challenge as a frame carries it
    seeds, modes = np.asarray(challenge), np.asarray(mode)
    for what, given in (("external challenge", seeds), ("mode", modes)):
        if given.dtype.kind not in "iuO" and given.size or given.dtype.kind == "O" and not all(
                isinstance(v, (int, np.integer)) and type(v) is not bool for v in given.flat):
            raise InvalidParameter(f"{what} {given.tolist()!r} is not an integer")
    try:
        seeds = seeds.astype(np.int64, copy=False)
    except OverflowError:  # a Python int beyond int64
        seeds = None
    if seeds is None or np.count_nonzero(seeds) < seeds.size or np.count_nonzero(seeds >> order):
        raise ZeroSeed(f"external challenge {challenge!r} outside the nonzero {order}-bit range")
    return seeds, np.asarray(modes & 1, dtype=np.int64)


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
    mode = int(check_external_challenge(external_challenge, spec.order, mode)[1])
    recorded: list[np.ndarray] = []

    def replay(candidates: np.ndarray) -> np.ndarray:
        recorded.append(candidates)
        return np.array([[bit, bit] for bit in history], dtype=np.uint8)

    run_rounds(shift_tables(spec.feeds), external_challenge, mode, len(history), replay)
    prevs = [0] + history[:-1]
    lines = []
    for round_no, (prev, pair) in enumerate(zip(prevs, recorded[0].tolist()), start=1):
        chosen = 1 if prev ^ mode == 1 else 2
        lines.append(f"{round_no} {mode} {prev} {chosen} {pair[chosen - 1]:0{spec.order}b}")
    return lines


def run_rounds(tables, seed, mode, rounds: int, evaluate) -> np.ndarray:
    """Vectorised selection engine over any broadcastable lane/batch layout.

    tables comes from shift_tables; its lane layout, seed and mode (a parity
    bit, 0 or 1) broadcast together to the working shape.  evaluate(candidates)
    is called once, with the int64 candidate challenges of every round laid
    out (rounds, 2, *shape), and returns a uint8 bit array of the same shape.
    Round r takes the first register's bit when the previous selected bit
    xor mode is 1, else the second's.  Returns the uint8 XOR fold of the
    selected bits.
    """
    table, base = tables
    seed = np.asarray(seed, dtype=np.int64)
    shape = np.broadcast(base[0, 0], seed, mode).shape
    # the register axis of base and the round axis of the shifts lead
    if base.ndim != len(shape) + 2:
        base = base.reshape(base.shape[:2] + (1,) * (len(shape) + 2 - base.ndim) + base.shape[2:])
    shifts = _SHIFTS.reshape((BLOCK, 1) + (1,) * len(shape))
    candidates = np.empty((rounds, 2) + shape, dtype=np.int64)
    state = seed
    for start in range(0, rounds, BLOCK):
        block = candidates[start:start + BLOCK]
        words = base[:len(block)] + (state & ((1 << BLOCK) - 1)) * (table.size >> BLOCK)
        np.bitwise_xor(table.take(words), state >> shifts[:len(block)], out=block)
        state = block[-1]
    bits = evaluate(candidates).reshape(2 * rounds, -1)
    # the carry of a mode with no selected bit and zero round bits is itself
    index = mode
    for start in range(0, 2 * rounds, 2 * BLOCK):
        if start:
            index = _CARRY[index]
        block = bits[start:start + 2 * BLOCK]
        index = _BIT_WEIGHTS[:len(block)].dot(block).reshape(shape) + index
        folded = _FOLDED[index] ^ folded if start else _FOLDED[index]
    return folded


@dataclass(frozen=True)
class LaneBank:
    """The lanes of one holder (a tag, a reader, one attacked lane): their
    shift tables, laid out as their delay-sum tables are, and the rounds of
    a response."""

    shifts: tuple[np.ndarray, np.ndarray]
    sums: LaneTables
    rounds: int

    @classmethod
    def build(cls, lane_pairs, sums: LaneTables) -> LaneBank:
        """The bank of lanes with these register pairs and delay-sum tables."""
        shifts = shift_tables([pair.feeds for pair in lane_pairs])
        return cls(shifts, sums, lane_pairs[0].rounds_per_response)

    def lane(self, index: int) -> LaneBank:
        """The bank of one lane, a view of this one's tables."""
        table, base = self.shifts
        return LaneBank((table, base[:, :, index]), self.sums.lane(index), self.rounds)

    def respond(
        self, challenge, mode, sigma: float = 0.0, voter_t: int = 1, noise_stream=None
    ) -> np.ndarray:
        """Voted responses, an S + lanes uint8 array, to external challenges
        and modes that broadcast to a shape S.  A noisy batch is one run_rounds
        call, so its draws run challenge by challenge, lane by lane; noiseless
        bits do not depend on the cut, so each call takes RESPOND_SLICE."""
        sums, shifts, rounds, step = self.sums, self.shifts, self.rounds, RESPOND_SLICE
        seeds, modes = check_external_challenge(challenge, sum(sums.widths), mode)

        def voted(candidates: np.ndarray) -> np.ndarray:
            mu = lane_sums(sums, table_positions(sums, candidates))
            return lane_bits(mu, sigma, voter_t, noise_stream)

        if type(seeds) is int:  # one challenge, as a frame carries it
            return run_rounds(shifts, seeds, modes, rounds, voted)
        if seeds.shape != modes.shape:
            seeds, modes = np.broadcast_arrays(seeds, modes)
        lanes = sums.starts[0].shape
        shape, rows = seeds.shape + lanes, (-1,) + (1,) * len(lanes)
        seeds, modes = seeds.reshape(rows), modes.reshape(rows)
        if sigma or len(seeds) <= step:
            return run_rounds(shifts, seeds, modes, rounds, voted).reshape(shape)
        return np.concatenate([
            run_rounds(shifts, seeds[i:i + step], modes[i:i + step], rounds, voted)
            for i in range(0, len(seeds), step)
        ]).reshape(shape)
