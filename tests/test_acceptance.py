"""End-to-end acceptance gates, one test per criterion.

Each test prints a single summary line with its measured figures; the
collected lines are echoed in the terminal summary.  Tolerances and time
budgets are asserted inline.
"""

import math
import time

import numpy as np
import pytest

import reference
from reference import period
from dualpuf.adversary import (
    ReplayAttacker,
    collect_naked_crps,
    collect_obfuscated_crps,
    eavesdrop,
    replay_attack,
    train_linear_attack,
)
from dualpuf.apuf import (
    DELTA_UNIT,
    ApufInstance,
    features_from_ints,
    lane_tables,
    sample_instance,
)
from dualpuf.device import (
    DeviceConfig,
    build_device,
    default_lane_pairs,
    load_device,
    save_device,
)
from dualpuf.errors import InterfaceFused
from dualpuf.lfsr import (
    LfsrSpec,
    classify,
    find_primitive,
    is_m_sequence,
)
from dualpuf.obfuscator import candidate_rows, run_rounds
from dualpuf.postproc import randomness_adjust, vote_batch
from dualpuf.protocol import run_authentication, run_registration
from dualpuf.server import MODEL_MODE, predict_response

ACCEPTANCE_LOG = []


def _record(line: str) -> None:
    ACCEPTANCE_LOG.append(line)
    print(line)


def _small_device(k: int, n_stages: int, device_seed: int) -> "build_device":
    return build_device(
        DeviceConfig(
            k=k,
            n_stages=n_stages,
            lane_pairs=default_lane_pairs(n_stages, k),
            device_seed=device_seed,
        )
    )


def test_criterion_01_primitive_search_is_maximal():
    find_primitive.cache_clear()
    is_m_sequence.cache_clear()
    t0 = time.perf_counter()
    order3 = find_primitive(3)
    assert {spec.mask for spec in order3} == {0b1011, 0b1101}
    assert len(order3) == 2
    checked = 0
    for order in range(3, 13):
        specs = find_primitive(order)
        assert specs
        for spec in specs:
            assert period(spec, 1) == (1 << order) - 1
            checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _record(
        f"criterion 01 PASS: order-3 pair exact, {checked} polynomials "
        f"maximal over orders 3-12 in {elapsed:.2f}s"
    )


def test_criterion_02_reference_cycle_replay():
    # the package's own shift: with both registers on one polynomial both
    # candidates of every round are that register, seven shifts from seed 001
    feed = LfsrSpec(0b1011).feed
    walked = []

    def record(candidates):
        assert np.array_equal(candidates[0, :, 0], candidates[0, :, 1])
        walked.extend(candidates[0, :, 0].tolist())
        return np.zeros_like(candidates[0], dtype=np.uint8)

    run_rounds(candidate_rows((feed, feed), 3, 7), 0b001, 1, record)
    assert walked[0] == 0b101  # first shift
    assert walked == [0b101, 0b111, 0b110, 0b011, 0b100, 0b010, 0b001]
    _record("criterion 02 PASS: 7-state reference cycle reproduced exactly")


def test_criterion_03_classification_partition():
    t0 = time.perf_counter()
    masks = [0b1001 | (m << 1) for m in range(4)]
    masks += [0b10001 | (m << 1) for m in range(8)]
    assert len(masks) == 12  # every mask of orders 3-4 with unit end taps
    for mask in masks:
        order = mask.bit_length() - 1
        spec = LfsrSpec(mask)
        result = classify(spec)
        assert result.useless == frozenset({0})
        assert 1 + result.useful_count + result.additional_count == 1 << order
        if is_m_sequence(spec):
            assert result.additional == ()
    assert classify(LfsrSpec(0b1111)).additional_count >= 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _record(
        f"criterion 03 PASS: partition exact for all {len(masks)} unit-tap "
        f"masks of orders 3-4 in {elapsed:.3f}s"
    )


def test_criterion_04_bias_compensation_restores_uniformity():
    t0 = time.perf_counter()
    weights = np.random.default_rng(8).standard_normal(17) * 0.06
    weights[16] += 0.35  # constant-path bias: the lane leans hard to 1
    lane = ApufInstance(weights)
    challenges = np.random.default_rng(777008).integers(0, 1 << 16, size=10_000)
    zeros_pre = 1.0 - float(vote_batch(lane_tables(lane.weights, lane.offset), challenges).mean())
    assert zeros_pre <= 0.25

    report = randomness_adjust(lane, rng_seed=8)
    assert report.rounds_used <= 200
    assert 42 < report.final_zero_count < 54
    assert DELTA_UNIT == 0.05

    uniformity = float(vote_batch(lane_tables(lane.weights, lane.offset), challenges).mean())
    assert abs(uniformity - 0.5) <= 0.08
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _record(
        f"criterion 04 PASS: zeros {zeros_pre:.4f} -> uniformity "
        f"{uniformity:.4f} after {report.rounds_used} rounds in {elapsed:.2f}s"
    )


def test_criterion_05_voter_suppresses_noise_like_the_binomial():
    # choose sigma so one noisy evaluation errs with probability 0.1
    lane_sigma = [0.1, 5.0]
    target = 0.9
    lane = ApufInstance(np.r_[np.zeros(8), 1.0])

    def p_one(sigma: float) -> float:
        return reference.p_one(lane, 0, sigma)

    for _ in range(200):
        mid = sum(lane_sigma) / 2
        if p_one(mid) > target:
            lane_sigma[0] = mid
        else:
            lane_sigma[1] = mid
    sigma = sum(lane_sigma) / 2
    assert sigma == pytest.approx(0.780304146072379, abs=1e-9)

    epsilon = 0.1
    oracle = sum(
        math.comb(5, j) * epsilon**j * (1 - epsilon) ** (5 - j) for j in range(3, 6)
    )
    assert oracle == pytest.approx(0.00856, abs=1e-12)

    challenges = np.zeros(100_000, dtype=np.int64)
    errors = {}
    for voter_t, seed in ((5, 42), (1, 43), (11, 44)):
        rng = np.random.default_rng(seed)
        bits = vote_batch(lane_tables(lane.weights, lane.offset), challenges, sigma, voter_t, rng)
        errors[voter_t] = float((bits == 0).mean())
    assert abs(errors[5] - oracle) <= 0.003
    assert abs(errors[1] - epsilon) <= 0.01
    assert errors[11] <= errors[1]
    _record(
        f"criterion 05 PASS: voted error {errors[5]:.5f} vs binomial "
        f"{oracle:.5f} (T=1 {errors[1]:.4f}, T=11 {errors[11]:.4f})"
    )


def test_criterion_06_noiseless_completeness_at_full_width():
    t0 = time.perf_counter()
    device = _small_device(k=64, n_stages=16, device_seed=7)
    registry = run_registration(device, rng_seed=11)
    assert registry.mode == MODEL_MODE and registry.tau == 0

    passes = sum(run_authentication(registry, device).passed for _ in range(1000))
    assert passes == 1000

    rng = np.random.default_rng(3)
    challenges = rng.integers(1, 1 << 16, size=10_000)
    modes = rng.integers(0, 2, size=10_000)
    predicted = predict_response(registry, challenges, modes)  # one reader call
    for challenge, mode, row in zip(challenges, modes, predicted):
        assert np.array_equal(row, device.respond(int(challenge), int(mode)))
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _record(
        f"criterion 06 PASS: 1000/1000 sessions, 10000 bit-exact "
        f"predictions in {elapsed:.1f}s"
    )


def test_criterion_07_mode_flip_avalanche():
    t0 = time.perf_counter()
    distance = 0.0
    spot_checks = 0
    for device_seed in range(200):
        device = _small_device(k=8, n_stages=8, device_seed=device_seed)
        challenges = np.random.default_rng(10_000 + device_seed).integers(
            1, 256, size=50
        )
        rows = candidate_rows([p.feeds for p in device.config.lane_pairs], 8, 5)
        weights = np.stack([lane.weights for lane in device.lanes])
        offsets = np.array([lane.offset for lane in device.lanes])

        def naked(candidates):
            mu = np.einsum("...ki,ki->...k", features_from_ints(candidates[0], 8), weights)
            return (mu + offsets > 0).astype(np.uint8)

        # S + lanes responses, transposed to lanes first
        responses = [run_rounds(rows, challenges, mode, naked).T for mode in (0, 1)]
        distance += float((responses[0] ^ responses[1]).mean())
        if device_seed % 40 == 0:
            for j in (0, 25):
                challenge = int(challenges[j])
                for mode in (0, 1):
                    assert np.array_equal(
                        responses[mode][:, j], device.respond(challenge, mode)
                    )
                    spot_checks += 1
    mean_distance = distance / 200
    assert 0.35 <= mean_distance <= 0.65
    elapsed = time.perf_counter() - t0
    _record(
        f"criterion 07 PASS: mean mode-flip distance {mean_distance:.4f} over "
        f"10000 pairs ({spot_checks} spot checks) in {elapsed:.1f}s"
    )


def test_criterion_08_replay_wins_only_on_matched_parity():
    t0 = time.perf_counter()
    device = _small_device(k=64, n_stages=16, device_seed=7)
    registry = run_registration(device, rng_seed=21)
    assert registry.tau == 0

    honest_before = sum(
        run_authentication(registry, device).passed for _ in range(50)
    )
    recorded = run_authentication(registry, device)
    assert recorded.passed
    attacker = eavesdrop(ReplayAttacker(), recorded.transcript)

    random = replay_attack(
        attacker, registry, 2000, recorded=recorded.transcript,
        parity_policy="random", rng_seed=5,
    )
    assert abs(random.success_rate - 0.5) <= 0.05
    assert all(succeeded == matched for _, matched, succeeded in random.outcomes)
    assert random.parity_mismatch_successes == 0

    flip = replay_attack(
        attacker, registry, 300, recorded=recorded.transcript,
        parity_policy="flip", rng_seed=6,
    )
    assert flip.successes == 0

    honest_after = sum(
        run_authentication(registry, device).passed for _ in range(50)
    )
    assert honest_before == honest_after == 50
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _record(
        f"criterion 08 PASS: replay rate {random.success_rate:.4f} "
        f"(parity-bound), flipped parity 0/300, honest 101/101 in {elapsed:.1f}s"
    )


def test_criterion_09_obfuscation_defeats_the_linear_attack():
    """The obfuscated interface defeats a linear attacker that ignores the
    public register pairs; one that uses them models it from 2,000 CRPs
    (test_structure_attack.py)."""
    t0 = time.perf_counter()
    naked_lane = sample_instance(32, 123)
    naked = train_linear_attack(
        *collect_naked_crps(naked_lane, 25_000, rng_seed=7), 32,
        split=0.8, epochs=300, learning_rate=0.5, rng_seed=1,
    )
    assert naked.train_size == 20_000
    assert naked.holdout_accuracy >= 0.95

    device = _small_device(k=1, n_stages=16, device_seed=99)
    obfuscated = train_linear_attack(
        *collect_obfuscated_crps(device, 25_000, mode=1, rng_seed=8), 16,
        split=0.8, epochs=300, learning_rate=0.5, rng_seed=1,
    )
    gap = naked.holdout_accuracy - obfuscated.holdout_accuracy
    assert gap >= 0.15
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    _record(
        f"criterion 09 PASS: naked {naked.holdout_accuracy:.4f} vs obfuscated "
        f"{obfuscated.holdout_accuracy:.4f} (gap {gap:.4f}) in {elapsed:.1f}s"
    )


def test_criterion_10_persistence_and_fusing(tmp_path):
    device = _small_device(k=4, n_stages=8, device_seed=5)
    first = tmp_path / "dev.json"
    second = tmp_path / "dev2.json"
    save_device(device, str(first))
    loaded = load_device(str(first))
    save_device(loaded, str(second))
    assert first.read_bytes() == second.read_bytes()
    for mine, theirs in zip(device.lanes, loaded.lanes):
        assert np.array_equal(mine.weights, theirs.weights)
        assert (mine.adjust_up, mine.adjust_low) == (theirs.adjust_up, theirs.adjust_low)
    for challenge in (1, 0x42, 0xFF):
        for mode in (0, 1):
            assert np.array_equal(
                device.respond(challenge, mode), loaded.respond(challenge, mode)
            )

    device.fuse()
    fused_path = tmp_path / "fused.json"
    save_device(device, str(fused_path))
    refused = load_device(str(fused_path))
    assert refused.fused
    with pytest.raises(InterfaceFused):
        refused.raw_crp_query(1)
    _record("criterion 10 PASS: byte-exact round trip, fuse survives reload")
