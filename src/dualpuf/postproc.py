"""Post-processing: initialization-time randomness adjustment and the
temporal majority voter.

The adjustment loop is a successive approximation on the lane's compensation
counters, run once per lane when the tag is built.  Each round feeds
PULSE_COUNT = 96 fresh random challenges through the raw arbiter
(vote_batch, one voter) and nudges one counter by a unit until the zero
count falls strictly inside BAND = (42, 54), giving up with NoConvergence
after MAX_ROUNDS = 1000 rounds.  The lane's tables are built once; a
counter moves only their offset.  A round takes its PULSE_COUNT noise draws
even at sigma 0, so later rounds' challenges depend on that stream position.

lane_bits is the one voter; it votes with the noise block that voter_noise,
the one check of sigma and voter_t, draws.  vote_batch evaluates lanes at
raw challenges (harvest, adjustment loop, CRP collector, metrics): table
positions once, then lane after lane, each at its own starts and with its
own block.  obfuscator.LaneBank.respond draws one block per call, which a
round's two candidates share; only the selected candidate's bit reaches the
response, so the stream yields what one draw per round would.  The
one-vote-at-a-time reference is in tests/reference.py.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .apuf import ApufInstance, LaneTables, lane_sums, lane_tables, table_positions
from .errors import EvenVoterWidth, InvalidParameter, NoConvergence, WidthMismatch, is_integer

PULSE_COUNT = 96  # fresh random challenges per adjustment round
BAND = (42, 54)  # exclusive bounds on a round's accepted zero count
MAX_ROUNDS = 1000


@dataclass(frozen=True)
class AdjustReport:
    """Outcome of one randomness_adjust run; the counters it settled on
    stay on the lane."""

    rounds_used: int
    final_zero_count: int


def randomness_adjust(instance: ApufInstance, sigma: float = 0.0, rng_seed: int = 0) -> AdjustReport:
    """Balance a lane's 0/1 rate by successive approximation.

    Each round evaluates PULSE_COUNT fresh seeded random challenges with
    fresh noise draws of std sigma (the tag's, from its config) and counts
    zeros.  Strictly inside BAND: done, counters kept as they are.  Below
    the band (too many ones) adjust_up gains one unit; above it adjust_low
    does.  A count sitting exactly on a bound changes nothing and the loop
    simply re-measures.  Mutates the instance counters; raises
    NoConvergence if MAX_ROUNDS pass without acceptance.
    """
    rng = np.random.default_rng(rng_seed)
    lower, upper = BAND
    zeros = -1
    tables = lane_tables(instance.weights, 0.0)  # the counters move only the offset
    for round_no in range(1, MAX_ROUNDS + 1):
        challenges = rng.integers(0, 1 << instance.n_stages, size=PULSE_COUNT)
        if sigma == 0:
            rng.standard_normal(PULSE_COUNT)  # keeps the stream; see module doc
        bits = vote_batch(tables.moved(instance.offset), challenges, sigma, 1, rng)
        zeros = PULSE_COUNT - int(bits.sum())
        if lower < zeros < upper:
            return AdjustReport(rounds_used=round_no, final_zero_count=zeros)
        if zeros < lower:
            instance.adjust_up += 1
        elif zeros > upper:
            instance.adjust_low += 1
        # zeros exactly on a bound: leave counters alone, measure again
    raise NoConvergence(
        f"no acceptance in {MAX_ROUNDS} rounds "
        f"(last zero count {zeros}/{PULSE_COUNT}, "
        f"up={instance.adjust_up}, low={instance.adjust_low})"
    )


def voter_noise(shape, sigma: float, voter_t: int, noise_stream) -> np.ndarray | None:
    """The block lane_bits votes evaluations laid out shape with: None at
    sigma 0, else (*shape, voter_t) draws of std sigma in C order, element
    by element, vote by vote.  The voter's one check: a voter_t not an odd
    int >= 1 raises EvenVoterWidth even at sigma 0, a sigma not finite >= 0 InvalidParameter."""
    if not is_integer(voter_t) or voter_t < 1 or not voter_t % 2:
        raise EvenVoterWidth(f"voter width {voter_t!r} must be an odd integer >= 1")
    if not 0 <= sigma < float("inf"):  # nan fails too
        raise InvalidParameter(f"sigma {sigma} is not a finite number >= 0")
    if sigma == 0:
        return None
    noise = noise_stream.standard_normal((*shape, voter_t))
    with np.errstate(over="ignore"):  # a draw past the largest float votes as an infinity
        return np.multiply(noise, sigma, out=noise)  # in place: a batch holds one block


def lane_bits(mu: np.ndarray, noise: np.ndarray | None = None) -> np.ndarray:
    """Voted lane bits for delay sums laid out (evaluations, alternatives,
    *shape) and the (evaluations, *shape, voter_t) block voter_noise drew in
    C order: with none, the sign of mu, else the majority of mu plus each
    draw on the last axis, which an evaluation's alternatives share.  A sum
    of exactly 0 votes 0; other layouts raise WidthMismatch."""
    if mu.ndim < 2 or noise is not None and noise.shape[:-1] != mu.shape[:1] + mu.shape[2:]:
        raise WidthMismatch(f"noise of shape {np.shape(noise)} for delay sums of shape {mu.shape}")
    if noise is None:
        return (mu > 0).view(np.uint8)
    # votes first, so the majority adds whole arrays; alternatives share a size-1 axis
    votes = np.ascontiguousarray(noise.transpose(-1, *range(noise.ndim - 1)))[:, :, None]
    ones = ((mu + votes) > 0).sum(axis=0)
    return (2 * ones > noise.shape[-1]).astype(np.uint8)


def vote_batch(
    tables: LaneTables, challenges, sigma: float = 0.0, voter_t: int = 1, noise_stream=None
) -> np.ndarray:
    """Voted bits, shaped *lanes + challenges.shape, of the lanes whose
    tables are given at every raw challenge, each challenge its own
    evaluation, each lane its own voter_noise block.  Only the low n_stages
    bits of a challenge count."""
    challenges = np.asarray(challenges, dtype=np.int64)
    lanes = tables.starts[0].shape
    mask = (1 << sum(tables.widths)) - 1
    positions = table_positions(tables, challenges.reshape(-1) & mask)
    bits = np.empty(lanes + (challenges.size,), dtype=np.uint8)
    for lane in np.ndindex(lanes):
        absolute = [position + start[lane] for position, start in zip(positions, tables.starts)]
        # each challenge is one evaluation with a single alternative
        mu = lane_sums(tables, absolute)[:, None]
        bits[lane] = lane_bits(mu, voter_noise(mu.shape[:1], sigma, voter_t, noise_stream))[:, 0]
    return bits.reshape(lanes + challenges.shape)
