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

lane_bits is the one voter.  vote_batch evaluates lanes at raw challenges
(harvest, adjustment loop, CRP collector, metrics): table positions once,
then lane after lane at its own starts, so noise runs lane by lane,
challenge by challenge, vote by vote.  obfuscator.LaneBank.respond votes a
response's (rounds, 2, *shape) candidates with one lane_bits call, which draws one
(rounds, *shape, voter_t) block of noise that a round's two candidates
share.  Only the selected candidate's bit reaches the response, so the
stream yields what one draw per round would.  The one-vote-at-a-time
reference is in tests/reference.py.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .apuf import ApufInstance, LaneTables, lane_sums, lane_tables, table_positions
from .errors import EvenVoterWidth, InvalidParameter, NoConvergence, WidthMismatch

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


def lane_bits(
    mu: np.ndarray,
    sigma: float = 0.0,
    voter_t: int = 1,
    noise_stream: np.random.Generator | None = None,
) -> np.ndarray:
    """Voted lane bits for delay sums laid out (evaluations, alternatives,
    *shape).

    At sigma 0 the bit is the sign of mu and no noise is drawn.  Otherwise
    one block of shape (evaluations, *shape, voter_t) is drawn in C order,
    so the stream runs evaluation by evaluation, element by element and vote
    by vote; the alternatives of an evaluation (a round's two candidate
    challenges) share its draws.  Each bit is the majority of its voter_t
    noisy evaluations.  A sigma that is not a finite number >= 0 raises
    InvalidParameter.
    """
    if voter_t < 1 or voter_t % 2 == 0:
        raise EvenVoterWidth(f"voter width {voter_t} must be odd and >= 1")
    if not 0 <= sigma < float("inf"):  # nan fails too
        raise InvalidParameter(f"sigma {sigma} is not a finite number >= 0")
    if mu.ndim < 2:
        raise WidthMismatch(f"delay sums of shape {mu.shape} lack an alternatives axis")
    if sigma == 0:
        return (mu > 0).view(np.uint8)
    draws = noise_stream.standard_normal(mu.shape[:1] + mu.shape[2:] + (voter_t,)) * sigma
    # votes first, so the majority adds whole arrays; the size-1 axis lets
    # the alternatives of an evaluation share its draws
    votes = np.ascontiguousarray(draws.transpose(-1, *range(draws.ndim - 1)))[:, :, None]
    ones = ((mu + votes) > 0).sum(axis=0)
    return (2 * ones > voter_t).astype(np.uint8)


def vote_batch(
    tables: LaneTables,
    challenges,
    sigma: float = 0.0,
    voter_t: int = 1,
    noise_stream: np.random.Generator | None = None,
) -> np.ndarray:
    """Voted bits, shaped *lanes + challenges.shape, of the lanes whose
    tables are given at every raw challenge, each challenge its own
    evaluation.  Only the low n_stages bits of a challenge count."""
    challenges = np.asarray(challenges, dtype=np.int64)
    lanes = tables.starts[0].shape
    mask = (1 << sum(tables.widths)) - 1
    positions = table_positions(tables, challenges.reshape(-1) & mask)
    bits = np.empty(lanes + (challenges.size,), dtype=np.uint8)
    for lane in np.ndindex(lanes):
        absolute = [position + start[lane] for position, start in zip(positions, tables.starts)]
        # each challenge is one evaluation with a single alternative
        mu = lane_sums(tables, absolute)[:, None]
        bits[lane] = lane_bits(mu, sigma, voter_t, noise_stream)[:, 0]
    return bits.reshape(lanes + challenges.shape)
