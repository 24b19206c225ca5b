"""Initialization-time randomness adjustment and the temporal majority
voter, against the scalar reference."""

import itertools
import math

import numpy as np
import pytest

import reference
from dualpuf.apuf import ApufInstance, lane_tables, sample_instance
from dualpuf.errors import EvenVoterWidth, InvalidParameter, NoConvergence, WidthMismatch
from dualpuf.postproc import (
    AdjustReport,
    lane_bits,
    randomness_adjust,
    vote_batch,
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
    for bad in (0, 2, 4):
        with pytest.raises(EvenVoterWidth):
            lane_bits(np.array([0.5]), 0.0, bad, rng)
        with pytest.raises(EvenVoterWidth):
            vote_batch(lane_tables(inst.weights, inst.offset), np.array([1]), 0.0, bad, rng)


def test_vote_rejects_a_sigma_that_is_not_finite():
    inst = sample_instance(4, 0)
    rng = np.random.default_rng(0)
    for bad in (-0.1, math.nan, math.inf):
        with pytest.raises(InvalidParameter):
            lane_bits(np.array([[0.5]]), bad, 1, rng)
        with pytest.raises(InvalidParameter):
            randomness_adjust(inst, bad, rng_seed=0)
    assert (inst.adjust_up, inst.adjust_low) == (0, 0)


def test_vote_majority_with_scripted_noise():
    mu = np.array([[1.0]])  # one evaluation, one alternative: margin +1, sigma 1
    assert lane_bits(mu, 1.0, 5, ScriptedRng([[-2, -2, 0.5, 0.5, 0.5]])).tolist() == [[1]]
    assert lane_bits(mu, 1.0, 5, ScriptedRng([[-2, -2, -2, 0.5, 0.5]])).tolist() == [[0]]
    # the two alternatives of one evaluation share its five draws
    pair = np.array([[1.0, -0.6]])
    assert lane_bits(pair, 1.0, 5, ScriptedRng([[-2, -2, 0.5, 0.5, 0.5]])).tolist() == [[1, 0]]
    with pytest.raises(WidthMismatch):
        lane_bits(np.array([1.0]), 1.0, 5, ScriptedRng([[0.0] * 5]))


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
