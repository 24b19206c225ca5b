"""Initialization-time randomness adjustment and the temporal majority
voter, against the scalar reference."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import reference
from dualpuf.apuf import ApufInstance, lane_tables, sample_instance
from dualpuf.errors import EvenVoterWidth, InvalidParameter, NoConvergence, WidthMismatch
from dualpuf.postproc import (
    AdjustReport,
    lane_bits,
    randomness_adjust,
    vote_batch,
    voter_noise,
)


class ScriptedRng:
    """Duck-typed noise stream replaying preset standard_normal draws."""

    def __init__(self, rows):
        self.rows = iter(rows)

    def standard_normal(self, size=None):
        return np.asarray(next(self.rows), dtype=float).reshape(size)


# -- adjustment loop ---------------------------------------------------------


def test_branch_semantics_with_scripted_counts(monkeypatch):
    # zero counts per round: boundary, boundary, below, above, inside
    script = iter([42, 54, 41, 55, 48])

    def scripted_vote(tables, challenges, sigma, voter_t, noise_stream):
        zeros = next(script)
        bits = np.ones(challenges.size, dtype=np.uint8)
        bits[:zeros] = 0
        return bits

    monkeypatch.setattr("dualpuf.postproc.vote_batch", scripted_vote)
    inst = ApufInstance(np.zeros(5))
    report = randomness_adjust(inst)
    # boundary rounds change nothing; one counter moves per corrective round
    assert report == AdjustReport(rounds_used=5, final_zero_count=48)
    assert (inst.adjust_up, inst.adjust_low) == (1, 1)


def test_no_convergence_on_oscillating_lane():
    # all-zero weights tie to bit 0; each correction overshoots straight to
    # all ones and back, so the count alternates 96 / 0 for all 1,000 rounds
    inst = ApufInstance(np.zeros(5))
    with pytest.raises(NoConvergence):
        randomness_adjust(inst, rng_seed=0)
    assert (inst.adjust_up, inst.adjust_low) == (500, 500)


def test_adjust_deterministic_given_seed():
    first, second = sample_instance(8, 2), sample_instance(8, 2)
    assert randomness_adjust(first, rng_seed=102) == randomness_adjust(second, rng_seed=102)
    assert (first.adjust_up, first.adjust_low) == (second.adjust_up, second.adjust_low)


def test_adjust_idempotent_after_round_one_acceptance():
    inst = sample_instance(8, 2)
    report = randomness_adjust(inst, rng_seed=102)
    assert report == AdjustReport(1, 45)
    assert (inst.adjust_up, inst.adjust_low) == (0, 0)
    rerun = randomness_adjust(inst, rng_seed=102)  # same stream, same measurement
    assert rerun == report
    assert (inst.adjust_up, inst.adjust_low) == (0, 0)


def test_adjust_balances_a_biased_lane():
    rng = np.random.default_rng(8)
    weights = rng.standard_normal(17) * 0.06
    weights[16] += 0.35  # routing imbalance toward response 1
    inst = ApufInstance(weights)
    report = randomness_adjust(inst, rng_seed=8)
    assert report == AdjustReport(8, 43)
    assert (inst.adjust_up, inst.adjust_low) == (7, 0)
    assert 42 < report.final_zero_count < 54
    assert inst.adjust_up + inst.adjust_low <= report.rounds_used - 1


# -- voter -------------------------------------------------------------------


def test_vote_rejects_even_or_empty_width():
    inst = sample_instance(4, 0)
    rng = np.random.default_rng(0)
    for bad in (0, 2, 4, -1, True, 3.0):
        for sigma in (0.0, 0.5):  # checked at sigma 0 too, before any draw
            with pytest.raises(EvenVoterWidth):
                voter_noise((1,), sigma, bad, rng)
        with pytest.raises(EvenVoterWidth):
            vote_batch(lane_tables(inst.weights, inst.offset), np.array([1]), 0.0, bad, rng)
    assert rng.standard_normal() == np.random.default_rng(0).standard_normal()


def test_vote_rejects_a_sigma_that_is_not_finite():
    inst = sample_instance(4, 0)
    rng = np.random.default_rng(0)
    for bad in (-0.1, math.nan, math.inf):
        with pytest.raises(InvalidParameter):
            voter_noise((1,), bad, 1, rng)
        with pytest.raises(InvalidParameter):
            randomness_adjust(inst, bad, rng_seed=0)
    assert (inst.adjust_up, inst.adjust_low) == (0, 0)


def test_vote_majority_with_scripted_noise():
    def noise(*rows):  # the block voter_noise draws for one evaluation
        return voter_noise((1,), 1.0, 5, ScriptedRng(rows))

    mu = np.array([[1.0]])  # one evaluation, one alternative: margin +1, sigma 1
    assert lane_bits(mu, noise([-2, -2, 0.5, 0.5, 0.5])).tolist() == [[1]]
    assert lane_bits(mu, noise([-2, -2, -2, 0.5, 0.5])).tolist() == [[0]]
    # the two alternatives of one evaluation share its five draws
    pair = np.array([[1.0, -0.6]])
    assert lane_bits(pair, noise([-2, -2, 0.5, 0.5, 0.5])).tolist() == [[1, 0]]
    with pytest.raises(WidthMismatch):
        lane_bits(np.array([1.0]), noise([0.0] * 5))
    with pytest.raises(WidthMismatch):  # a block drawn for two evaluations
        lane_bits(mu, voter_noise((2,), 1.0, 5, ScriptedRng([[0.0] * 10])))
    assert voter_noise((1,), 0.0, 5, ScriptedRng([])) is None  # no draw at sigma 0


@given(
    sigma=st.one_of(st.just(0.0), st.floats(0.01, 2.0)),
    voter_t=st.sampled_from([1, 3, 5, 7]),
    shape=st.lists(st.integers(1, 3), max_size=2).map(tuple),
    evaluations=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_one_vote_over_a_batch_is_the_votes_of_its_evaluations(
    sigma, voter_t, shape, evaluations, seed
):
    # the voter's contract: voter_noise draws the (evaluations, *shape,
    # voter_t) block in C order, and one lane_bits call over a batch votes
    # each evaluation, and each cut of the batch, as a call on its own part
    # of the block would; a sum of exactly 0 votes 0
    rng = np.random.default_rng(seed)
    mu = rng.integers(-2, 3, size=(evaluations, 2) + shape) * 0.25  # ties at 0 come up
    block = voter_noise((evaluations,) + shape, sigma, voter_t, np.random.default_rng(seed))
    if sigma == 0:
        assert block is None
    else:
        drawn = np.random.default_rng(seed).standard_normal((evaluations,) + shape + (voter_t,))
        assert np.array_equal(block, drawn * sigma)
    bits = lane_bits(mu, block)
    assert bits.shape == mu.shape and bits.dtype == np.uint8
    for e in range(evaluations):
        own = None if block is None else block[e:e + 1]
        assert np.array_equal(bits[e:e + 1], lane_bits(mu[e:e + 1], own))
        for alternative, index in itertools.product(range(2), np.ndindex(shape)):
            m = float(mu[(e, alternative) + index])
            draws = [0.0] if block is None else block[(e,) + index].tolist()
            ones = sum(m + d > 0 for d in draws)
            assert bits[(e, alternative) + index] == (2 * ones > len(draws))
    if shape:  # a cut of the first element axis, as LaneBank.respond slices
        cut = shape[0] // 2
        part = None if block is None else block[:, cut:]
        assert np.array_equal(bits[:, :, cut:], lane_bits(mu[:, :, cut:], part))
    # every vote of the first alternative ties at 0, so it votes 0
    tied = np.repeat(-mu[:, 0, ..., None], voter_t, axis=-1)
    assert not lane_bits(mu, tied)[:, 0].any()
    assert not lane_bits(np.zeros_like(mu)).any()


@pytest.mark.parametrize("voter_t", [1, 3, 5, 257])
def test_the_vote_count_is_exact_at_its_edges(voter_t):
    # lane_bits counts the votes v > -mu; the one-vote-at-a-time restatement
    # adds mu + v and takes its sign.  They agree on exact ties, signed zeros
    # and infinite votes, and at 257 votes a count kept in uint8 would wrap
    big, tiny = float(np.finfo(float).max), float(np.finfo(float).smallest_subnormal)
    mus = [0.0, -0.0, 1.0, -1.0, 0.3, -0.3, tiny, -tiny, big, -big]
    with np.errstate(over="ignore"):  # sigma * n past the largest float
        infinities = voter_noise((2,), big, 1, ScriptedRng([[2.0, -2.0]])).ravel().tolist()
    assert infinities == [math.inf, -math.inf]
    rng = np.random.default_rng(voter_t)
    half = voter_t // 2
    for m in mus:
        pool = [-m, m, 0.0, -0.0, *infinities, math.nextafter(-m, 1), math.nextafter(-m, -1)]
        blocks = [[v] * voter_t for v in pool]  # unanimous, 257 ones among them
        blocks += [[math.inf] * half + [-m] * (voter_t - half),  # a tie short of a majority
                   [math.inf] * (half + 1) + [-math.inf] * (voter_t - half - 1)]
        blocks += [rng.choice(pool, voter_t).tolist() for _ in range(20)]
        mu = np.array([[m, -m]] * len(blocks))  # two alternatives share each block
        bits = lane_bits(mu, np.array(blocks))
        for e, votes in enumerate(blocks):
            for alternative, a in enumerate((m, -m)):
                expected = 2 * sum(a + v > 0 for v in votes) > voter_t
                assert bits[e, alternative] == expected, (m, a, votes)


def test_vote_batch_matches_scalar_stream():
    inst = sample_instance(6, 9)
    challenges = np.arange(64)
    rng = np.random.default_rng(9)
    scalar = [reference.vote(inst, int(c), 0.5, 5, rng) for c in challenges]
    tables = lane_tables(inst.weights, inst.offset)
    batched = vote_batch(tables, challenges, 0.5, 5, np.random.default_rng(9))
    assert batched.tolist() == scalar
    # stacked lanes in one call vote lane after lane, challenge after
    # challenge, vote after vote, on one generator
    for sigma, voter_t, shape in itertools.product((0.0, 0.3), (1, 5), ((), (24,), (3, 8))):
        lanes = [
            ApufInstance(sample_instance(6, 9 + i).weights, adjust_low=i)
            for i in range(4)
        ]
        challenges = np.random.default_rng(5).integers(0, 64, size=shape)
        rng, stream = np.random.default_rng(9), np.random.default_rng(9)
        scalar = [
            [reference.vote(lane, int(c), sigma, voter_t, rng) for c in challenges.ravel()]
            for lane in lanes
        ]
        weights = np.stack([lane.weights for lane in lanes])
        offsets = np.array([lane.offset for lane in lanes])
        batched = vote_batch(lane_tables(weights, offsets), challenges, sigma, voter_t, stream)
        assert batched.shape == (4,) + shape
        assert batched.reshape(4, -1).tolist() == scalar
        assert rng.standard_normal() == stream.standard_normal()  # as many draws


def test_vote_noiseless_equals_raw():
    inst = sample_instance(6, 4)
    rng = np.random.default_rng(1)
    challenges = rng.integers(0, 64, size=30)
    voted = vote_batch(lane_tables(inst.weights, inst.offset), challenges, 0.0, 5, rng)
    assert voted.tolist() == [reference.evaluate(inst, int(c)) for c in challenges]
    assert voted.tolist() == [reference.vote(inst, int(c), 0.0, 5, rng) for c in challenges]


def test_wider_voter_suppresses_noise():
    # margin +1 with sigma 1: single-evaluation error is about 0.159
    inst = ApufInstance(np.array([0.0, 0.0, 1.0]))
    trials = np.ones(20_000, dtype=np.int64)
    err = {}
    for t, seed in ((1, 21), (5, 22), (11, 23)):
        rng = np.random.default_rng(seed)
        bits = vote_batch(lane_tables(inst.weights, inst.offset), trials, 1.0, t, rng)
        err[t] = float((bits == 0).mean())
    assert abs(err[1] - 0.1587) < 0.01
    assert abs(err[5] - 0.0311) < 0.007  # binomial majority-of-5 oracle
    assert err[11] <= err[1]
