"""Arbiter lane model: parity transform, raw evaluation and compensation
offsets against the scalar reference, and the closed-form response
probability that criterion 05 relies on."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import reference
from conftest import make_device
from dualpuf.apuf import (
    ApufInstance,
    delay_sums,
    features_from_ints,
    parity_features,
    sample_instance,
)
from dualpuf.errors import WidthMismatch
from dualpuf.postproc import lane_bits, vote_batch

bit_vectors = st.lists(st.integers(0, 1), min_size=1, max_size=12)


def test_constructor_validation():
    with pytest.raises(WidthMismatch):
        ApufInstance(4, np.zeros(4), 0.0)  # needs N+1 weights
    with pytest.raises(ValueError):
        ApufInstance(0, np.zeros(1), 0.0)
    with pytest.raises(ValueError):
        ApufInstance(2, np.zeros(3), -0.1)
    with pytest.raises(ValueError):
        ApufInstance(2, np.zeros(3), 0.0, delta_unit=0.0)
    with pytest.raises(ValueError):
        ApufInstance(2, np.zeros(3), 0.0, adjust_up=-1)


def test_sample_instance_is_deterministic():
    a = sample_instance(8, 5)
    b = sample_instance(8, 5)
    assert np.array_equal(a.weights, b.weights)


def test_challenge_bits_oracle():
    # C_0 is the low bit: flipping bit j flips phi_0 .. phi_j
    for j in range(4):
        assert features_from_ints(1 << j, 4).tolist() == [-1] * (j + 1) + [1] * (4 - j)
    assert features_from_ints([[0b1101, 0]], 4).shape == (1, 2, 5)


def test_parity_features_oracle():
    assert features_from_ints(0, 3).tolist() == [1.0, 1.0, 1.0, 1.0]
    assert features_from_ints(0b101, 3).tolist() == [1.0, -1.0, -1.0, 1.0]


@given(bit_vectors)
def test_parity_features_recurrence(bits):
    phi = parity_features(np.array(bits))
    assert phi[-1] == 1.0
    assert set(np.unique(phi)) <= {-1.0, 1.0}
    for i in range(len(bits)):
        assert phi[i] == (1 - 2 * bits[i]) * phi[i + 1]


@given(st.integers(2, 12), st.integers(0, 4095))
def test_top_bit_flip_negates_all_but_constant(n, raw):
    challenge = raw % (1 << n)
    phi = features_from_ints(challenge, n)
    flipped = features_from_ints(challenge ^ (1 << (n - 1)), n)
    assert np.array_equal(flipped[:n], -phi[:n])
    assert flipped[n] == 1.0
    # responses under the flip agree with direct recomputation
    inst = sample_instance(n, 17)
    assert vote_batch(inst.weights, inst.offset, challenge ^ (1 << (n - 1))) == int(
        inst.weights @ flipped > 0
    )


def test_batch_helpers_match_scalar():
    rng = np.random.default_rng(0)
    challenges = rng.integers(0, 1 << 6, size=40)
    assert np.array_equal(
        parity_features(np.array([reference.challenge_bits(int(c), 6) for c in challenges])),
        np.array([reference.parity_features(int(c), 6) for c in challenges]),
    )
    assert np.array_equal(
        features_from_ints(challenges, 6),
        np.array([reference.parity_features(int(c), 6) for c in challenges]),
    )
    # one vote per challenge: the draws are the scalar chain's explicit noise
    inst = sample_instance(6, 3, sigma_noise=1.0)
    noise = np.random.default_rng(1).standard_normal(40)
    assert np.array_equal(
        vote_batch(
            inst.weights, inst.offset, challenges, inst.sigma_noise, 1, np.random.default_rng(1)
        ),
        reference.raw_bits(inst, challenges, noise),
    )


def test_exact_tie_yields_zero():
    inst = ApufInstance(4, np.zeros(5), 0.0)
    assert reference.delta(inst, 9) == 0.0
    assert vote_batch(inst.weights, inst.offset, np.array([9])).tolist() == [0]


def test_compensation_is_monotone():
    inst = sample_instance(8, 11)
    challenge = 0xA5
    up_bits = []
    for up in range(8):
        probe = ApufInstance(8, inst.weights, 0.0, adjust_up=up, delta_unit=0.3)
        up_bits.append(int(vote_batch(probe.weights, probe.offset, challenge)))
    assert up_bits == sorted(up_bits, reverse=True)  # non-increasing
    low_bits = []
    for low in range(8):
        probe = ApufInstance(8, inst.weights, 0.0, adjust_low=low, delta_unit=0.3)
        low_bits.append(int(vote_batch(probe.weights, probe.offset, challenge)))
    assert low_bits == sorted(low_bits)  # non-decreasing
    probe = ApufInstance(8, inst.weights, 0.0, adjust_up=2, adjust_low=5)
    assert probe.offset == pytest.approx(3 * 0.05)


def test_noiseless_evaluation_repeats():
    inst = sample_instance(10, 2)
    first = vote_batch(inst.weights, inst.offset, np.arange(1, 200))
    assert np.array_equal(first, vote_batch(inst.weights, inst.offset, np.arange(1, 200)))


def test_response_probability_degenerate_indicator():
    # at sigma 0 a lane bit is the sign indicator of the delay, a tie is 0
    assert lane_bits(np.array([[1.0, -1.0, 0.0]])).tolist() == [[1, 0, 0]]


def test_response_probability_matches_monte_carlo():
    inst = ApufInstance(2, np.array([0.0, 0.0, 1.0]), 1.0)  # margin +1, sigma 1
    p = reference.p_one(inst, 0)
    zeros, rng = np.zeros(200_000, dtype=np.int64), np.random.default_rng(6)
    bits = vote_batch(inst.weights, inst.offset, zeros, inst.sigma_noise, 1, rng)
    assert abs(p - float(bits.mean())) < 0.005
    mirrored = ApufInstance(2, np.array([0.0, 0.0, -1.0]), 1.0)
    assert p + reference.p_one(mirrored, 0) == pytest.approx(1.0, abs=1e-12)
    assert p == pytest.approx(0.5 * (1 + math.erf(1 / math.sqrt(2))))


def test_features_from_ints_matches_the_reference_at_every_order():
    rng = np.random.default_rng(2)
    for n in range(2, 63):
        challenges = np.r_[0, (1 << n) - 1, rng.integers(0, 1 << n, size=30)]
        phi = features_from_ints(challenges, n)
        assert phi.dtype == np.int8 and phi.shape == (32, n + 1)
        expected = [reference.parity_features(c, n) for c in challenges.tolist()]
        assert np.array_equal(phi, np.array(expected)), n


def test_delay_sums_are_bit_identical_in_every_layout():
    # the tag sums (k,) lanes at one challenge each, the harvest one lane's
    # (S,) challenges; at zero noise the reader and the tag agree only if
    # every layout rounds each lane's sum the same way
    dev = make_device(k=64, n_stages=12, device_seed=7)
    weights = np.stack([lane.weights for lane in dev.lanes])
    offsets = np.array([lane.offset for lane in dev.lanes])
    challenges = np.arange(1, 1 << 12)
    phi = features_from_ints(challenges, 12)
    grid = delay_sums(phi[:, None, :], weights, offsets)
    assert grid.shape == (challenges.size, 64)
    for i in range(64):
        assert np.array_equal(grid[:, i], delay_sums(phi, weights[i], offsets[i]))
    lanes = np.arange(64)
    for s in range(challenges.size):
        rows = (s + lanes) % challenges.size  # a different challenge per lane
        per_challenge = delay_sums(features_from_ints(challenges[rows], 12), weights, offsets)
        assert np.array_equal(per_challenge, grid[rows, lanes])

    # at every order, int8 phi converts to exactly +-1.0, so every layout the
    # evaluators use, the round candidates' included, gives the float64
    # reference sums bit for bit, and the layouts agree with each other
    rng = np.random.default_rng(62)
    rounds, k = 5, 8
    lanes = np.arange(k)
    for n in range(2, 63):
        weights, offsets = rng.standard_normal((k, n + 1)), rng.standard_normal(k)
        challenges = rng.integers(0, 1 << n, size=(rounds, 2, k))
        phi = features_from_ints(challenges, n)
        ref = np.array(
            [reference.parity_features(c, n) for c in challenges.ravel().tolist()]
        ).reshape(phi.shape)
        flat, flat_ref = phi.reshape(-1, n + 1), ref.reshape(-1, n + 1)
        grid = delay_sums(flat_ref[:, None, :], weights, offsets)  # (S, k)
        layouts = (
            # (layout, int8 phi, float64 phi, lane weights, lane offsets, grid entries)
            ("(S, k)", flat[:, None, :], flat_ref[:, None, :], weights, offsets, grid),
            ("(k,)", phi[0, 0], ref[0, 0], weights, offsets, grid[lanes, lanes]),
            ("(S,)", flat, flat_ref, weights[0], offsets[0], grid[:, 0]),
            ("(R, 2, k)", phi, ref, weights, offsets,
             grid[np.arange(flat.shape[0]), np.tile(lanes, 2 * rounds)].reshape(phi.shape[:-1])),
            ("(R, 2, S)", phi, ref, weights[0], offsets[0], grid[:, 0].reshape(phi.shape[:-1])),
        )
        for layout, p8, p64, w, b, expected in layouts:
            sums = delay_sums(p8, w, b)
            assert np.array_equal(sums, delay_sums(p64, w, b)), (n, layout)
            assert np.array_equal(sums, expected), (n, layout)
