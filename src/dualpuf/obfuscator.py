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
choice between them does.  A Galois shift is linear over GF(2), so a
round's candidate is the XOR of those the seed's set bits give alone.
candidate_rows tabulates them once per lane layout in one row table per
SEED_CHUNK = 4 seed bits; run_rounds, the one selection engine, XORs a
seed's rows into the words of all its rounds, hands them to one evaluator
call, which returns a uint8 bit per candidate, and folds the bits with a
static 4,096-entry table from the mode, the selected bit entering a block
of up to BLOCK = 5 rounds and the block's 2 x 5 bits.

apuf.table_positions is linear too and a lane's delay-sum tables start in
bits no position uses, so a LaneBank holds a holder's delay-sum tables and
the row tables of the absolute positions its candidates read.  The tag,
both readers and the attacker (through lane(i), a view of one lane) answer
with its respond: one block of noise per call, and per slice one lane_sums
and one lane_bits call for all candidates.  A table reader's naked-CRP bits
are delay-sum tables of one chunk, each bit the sign that lane_bits reads
at sigma 0; tests/reference.py steps the rule shift by shift.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .apuf import LaneTables, lane_sums, table_positions
from .errors import InvalidParameter, WidthMismatch, ZeroSeed, is_integer
from .lfsr import LfsrSpec, is_m_sequence, step_array
from .postproc import lane_bits, voter_noise

DEFAULT_ROUNDS = 5
BLOCK = 5  # rounds one fold-table lookup covers
SEED_CHUNK = 4  # seed bits one row table covers
RESPOND_SLICE = 1 << 14  # most words one run_rounds call of a batch gathers


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
        rounds = self.rounds_per_response
        if not is_integer(rounds) or rounds < 1:
            raise InvalidParameter(f"rounds_per_response {rounds!r} is not an integer >= 1")

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


def candidate_rows(feeds, order: int, rounds: int) -> tuple[np.ndarray, ...]:
    """The row tables run_rounds takes, one per SEED_CHUNK-bit chunk of the
    seed, of the candidates of register pairs with feeds laid out (*lanes,
    2), first register's feed first: table b, laid out (2^w, 1, rounds, 2,
    *lanes), holds at row v the candidates of the seed v << SEED_CHUNK * b,
    the XOR of those of its set bits, each walked by step_array."""
    feeds = np.asarray(feeds, dtype=np.int64)
    lanes = feeds.shape[:-1]
    feed = np.moveaxis(feeds, -1, 0)[:, None]
    state = (1 << np.arange(order, dtype=np.int64)).reshape((-1,) + (1,) * len(lanes))
    images = np.empty((rounds, 2, order) + lanes, dtype=np.int64)
    for r in range(rounds):
        state = images[r] = step_array(feed, state)
    tables = []
    for low in range(0, order, SEED_CHUNK):
        width = min(SEED_CHUNK, order - low)
        rows = np.zeros((1 << width, 1, rounds, 2) + lanes, dtype=np.int64)
        for bit in range(width):  # the seeds with this bit set double the rows
            rows[1 << bit:2 << bit] = rows[:1 << bit] ^ images[:, :, low + bit]
        tables.append(rows)
    return tuple(tables)


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
_ROW = (1 << SEED_CHUNK) - 1
_CHUNK_SHIFTS = np.arange(0, 64, SEED_CHUNK)[:, None]


def check_external_challenge(challenge, order: int, mode=1):
    """Return an external challenge and a session mode, or arrays of them,
    as int64 (a pair of Python ints as ints, tuples of them checked as ints),
    the mode reduced to its parity bit.  Either one not of an integer dtype,
    or a sequence or object array holding anything but Python or NumPy ints
    (a bool is none) raises InvalidParameter; a challenge that is zero, the
    stuck state, or has a bit set at or above order ZeroSeed."""
    fits = range(1, 1 << order)
    if type(challenge) is int and type(mode) is int and challenge in fits:
        return challenge, mode & 1  # one challenge as a frame carries it
    if type(challenge) is tuple and type(mode) is tuple and all(
            type(v) is int for v in challenge + mode) and all(c in fits for c in challenge):
        modes = [m & 1 for m in mode]  # a session's pair
        return np.array(challenge, dtype=np.int64), np.array(modes, dtype=np.int64)
    seeds, modes = np.asarray(challenge), np.asarray(mode)
    for what, raw, given in (("external challenge", challenge, seeds), ("mode", mode, modes)):
        if isinstance(raw, (list, tuple)) and given.dtype.kind in "iu":
            given = np.array(raw, dtype=object)  # a bool among ints was cast to 1
        if given.dtype.kind not in "iuO" and given.size or given.dtype.kind == "O" and not all(
                map(is_integer, given.flat)):
            raise InvalidParameter(f"{what} {given.tolist()!r} is not an integer")
    try:
        seeds = seeds.astype(np.int64, copy=False)
    except OverflowError:  # a Python int beyond int64
        seeds = None
    if seeds is None or np.count_nonzero(seeds) < seeds.size or np.count_nonzero(seeds >> order):
        shown = np.asarray(challenge) if np.ndim(challenge) else challenge  # a tuple as its array
        raise ZeroSeed(f"external challenge {shown!r} outside the nonzero {order}-bit range")
    return seeds, np.asarray(modes & 1, dtype=np.int64)


def trace_records(
    spec: DualLfsrSpec,
    external_challenge: int,
    mode: int,
    response_bits,
) -> list[str]:
    """Waveform dump, one line per round of the given vote history, of any
    nonzero length: round M prev chosen_lfsr challenge_bits.

    The candidate challenges come from run_rounds with an evaluator that
    records them and answers the vote history.
    """
    history = [int(b) for b in response_bits]
    if not history or any(bit not in (0, 1) for bit in history):
        raise InvalidParameter(f"response bits {history} are not one or more 0s and 1s")
    seed, mode = map(int, check_external_challenge(external_challenge, spec.order, mode))
    recorded: list[np.ndarray] = []

    def replay(candidates: np.ndarray) -> np.ndarray:
        recorded.append(candidates[0])
        return np.array([[bit, bit] for bit in history], dtype=np.uint8)

    run_rounds(candidate_rows(spec.feeds, spec.order, len(history)), seed, mode, replay)
    prevs = [0] + history[:-1]
    lines = []
    for round_no, (prev, pair) in enumerate(zip(prevs, recorded[0].tolist()), start=1):
        chosen = 1 if prev ^ mode == 1 else 2
        lines.append(f"{round_no} {mode} {prev} {chosen} {pair[chosen - 1]:0{spec.order}b}")
    return lines


def run_rounds(tables, seed, mode, evaluate) -> np.ndarray:
    """Vectorised selection engine over row tables, one per SEED_CHUNK-bit
    chunk of the seed, low chunk first, laid out (2^w, words, rounds, 2,
    *lanes): a candidate's words are its challenge (candidate_rows) or its
    absolute delay-sum table positions (a LaneBank's rows).  An int seed or
    a 1-D array S of them (S = () for an int) and mode, a parity bit or an
    array of them, broadcast to shape = S + lanes.  evaluate(words) is called
    once, with the XOR of the seed's rows laid out (words, rounds, 2, *shape),
    and returns a uint8 bit for every candidate, laid out (rounds, 2, *shape).
    Round r takes the first register's bit when the previous selected bit
    xor mode is 1, else the second's.  Returns the uint8 XOR fold of the
    selected bits."""
    if type(seed) is int:
        rows = (table[seed >> SEED_CHUNK * b & _ROW] for b, table in enumerate(tables))
    else:  # taken as they are XORed, so a slice holds few at once
        chunks = seed >> _CHUNK_SHIFTS[:len(tables)] & _ROW
        rows = (table.take(chunk, axis=0) for table, chunk in zip(tables, chunks))
    words = next(rows) ^ next(rows, 0)  # a fresh array, even of one chunk's rows
    for row in rows:
        words ^= row
    if type(seed) is not int:  # the seed axis goes behind the round's two candidates
        words = words.transpose((1, 2, 3, 0) + tuple(range(4, words.ndim)))
    rounds, shape = words.shape[1], words.shape[3:]
    bits = evaluate(words).reshape(2 * rounds, -1)
    if rounds <= BLOCK:  # one lookup; an int mode picks a view of the table
        weighted = _BIT_WEIGHTS[:2 * rounds].dot(bits).reshape(shape)
        return _FOLDED[mode:][weighted] if type(mode) is int else _FOLDED[weighted + mode]
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
    delay-sum tables and the row tables, laid out as run_rounds takes them,
    of the absolute positions in those tables that their candidates read."""

    rows: tuple[np.ndarray, ...]
    sums: LaneTables

    @classmethod
    def build(cls, lane_pairs, sums: LaneTables) -> LaneBank:
        """The bank of lanes with these register pairs and delay-sum tables.
        Each candidate row is a challenge and table_positions is linear, so
        the positions of the rows are the rows of the positions."""
        feeds, first = [pair.feeds for pair in lane_pairs], lane_pairs[0]
        candidates = candidate_rows(feeds, first.order, first.rounds_per_response)
        rows = [np.stack(table_positions(sums, table[:, 0]), axis=1) for table in candidates]
        rows[0] ^= np.stack(sums.starts)[:, None, None]  # once, with seed 0's rows
        return cls(tuple(rows), sums)

    def lane(self, index: int) -> LaneBank:
        """The bank of one lane, a view of this one's tables."""
        return LaneBank(tuple(table[..., index] for table in self.rows), self.sums.lane(index))

    def respond(
        self, challenge, mode, sigma: float = 0.0, voter_t: int = 1, noise_stream=None
    ) -> np.ndarray:
        """Voted responses, an S + lanes uint8 array, to external challenges
        and modes that broadcast to a shape S.  The noise, one (rounds, *S,
        *lanes) block drawn first, is cut as S is cut into run_rounds calls."""
        sums, rows = self.sums, self.rows
        seeds, modes = check_external_challenge(challenge, sum(sums.widths), mode)
        rounds, lanes = rows[0].shape[2], rows[0].shape[4:]

        def voted(noise):
            return lambda positions: lane_bits(lane_sums(sums, positions), noise)

        if type(seeds) is int:  # one challenge, as a frame carries it
            noise = voter_noise((rounds, *lanes), sigma, voter_t, noise_stream)
            return run_rounds(rows, seeds, modes, voted(noise))
        if seeds.shape != modes.shape:
            seeds, modes = np.broadcast_arrays(seeds, modes)
        shape, step = seeds.shape + lanes, max(1, RESPOND_SLICE // rows[0][0].size)
        seeds, modes = seeds.reshape(-1), modes.reshape((-1,) + (1,) * len(lanes))
        noise = voter_noise((rounds, len(seeds), *lanes), sigma, voter_t, noise_stream)
        if len(seeds) <= step:
            return run_rounds(rows, seeds, modes, voted(noise)).reshape(shape)
        return np.concatenate([
            run_rounds(rows, seeds[i:i + step], modes[i:i + step],
                       voted(noise if noise is None else noise[:, i:i + step]))
            for i in range(0, len(seeds), step)
        ]).reshape(shape)
