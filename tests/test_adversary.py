"""Replay and modeling attack harnesses, plus the PUF quality metrics."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import reference
from conftest import make_device
from dualpuf.adversary import (
    AttackReport,
    MetricsRecord,
    ReplayAttacker,
    collect_naked_crps,
    collect_obfuscated_crps,
    eavesdrop,
    puf_metrics,
    replay_attack,
    train_linear_attack,
)
from dualpuf.apuf import (
    ApufInstance, features_from_ints, lane_sums, lane_tables, sample_instance, table_positions,
)
from dualpuf.cli import field_lines, report_lines
from dualpuf.errors import (
    EmptyDataset,
    EmptyStore,
    InsufficientSample,
    InvalidParameter,
    SimulationError,
    WidthMismatch,
)
from dualpuf.obfuscator import RESPOND_SLICE, candidate_rows, run_rounds
from dualpuf.postproc import lane_bits, voter_noise
from dualpuf.protocol import SessionTranscript, run_authentication, run_registration


# -- eavesdropping ------------------------------------------------------------


def honest_recording(k=4, device_seed=3, rng_seed=5):
    device = make_device(k=k, device_seed=device_seed)
    registry = run_registration(device, rng_seed=rng_seed)
    result = run_authentication(registry, device)
    assert result.passed
    return device, registry, result


def test_eavesdrop_pairs_challenges_with_responses():
    _, _, result = honest_recording()
    frames = result.transcript.frames
    attacker = eavesdrop(ReplayAttacker(), result.transcript)
    assert attacker.store == {
        frames[0].payload: frames[1].payload,
        frames[2].payload: frames[3].payload,
    }
    assert attacker.answer_challenge(frames[0]) == frames[1].payload


def test_live_tap_equals_offline_eavesdropping():
    from dualpuf.protocol import SimChannel

    device = make_device()
    registry = run_registration(device, rng_seed=5)
    live = ReplayAttacker()
    channel = SimChannel()
    channel.add_interceptor(live.tap())
    result = run_authentication(registry, device, channel=channel)
    offline = eavesdrop(ReplayAttacker(), result.transcript)
    assert live.store == offline.store and len(live.store) == 2


def test_store_grows_monotonically_and_misses_are_silent():
    device, registry, first = honest_recording()
    attacker = eavesdrop(ReplayAttacker(), first.transcript)
    size = len(attacker.store)
    second = run_authentication(registry, device)
    eavesdrop(attacker, second.transcript)
    assert len(attacker.store) >= size
    first_challenges = {f.payload for f in first.transcript.challenge_frames()}
    assert first_challenges <= set(attacker.store)

    class Probe:
        payload = 0  # challenge 0 never crosses the wire

        kind = "CHALLENGE"

    assert attacker.answer_challenge(Probe) is None


# -- replay campaigns ----------------------------------------------------------


def test_replay_attack_input_validation():
    _, registry, result = honest_recording()
    with pytest.raises(EmptyStore):
        replay_attack(ReplayAttacker(), registry, 1, recorded=result.transcript)
    attacker = eavesdrop(ReplayAttacker(), result.transcript)
    with pytest.raises(SimulationError):
        replay_attack(attacker, registry, 1)  # reuse needs the recorded session
    with pytest.raises(ValueError):
        replay_attack(
            attacker, registry, 1, recorded=result.transcript, parity_policy="weird"
        )
    partial = SessionTranscript(frames=result.transcript.frames[:2])
    with pytest.raises(SimulationError):
        replay_attack(attacker, registry, 1, recorded=partial)


def test_replay_campaign_parity_breakdown():
    device = make_device(k=16, device_seed=31)
    registry = run_registration(device, rng_seed=17)
    honest = run_authentication(registry, device)
    assert honest.passed
    assert honest.session == (189, 216, 3)
    attacker = eavesdrop(ReplayAttacker(), honest.transcript)

    random = replay_attack(
        attacker, registry, 400, recorded=honest.transcript,
        parity_policy="random", rng_seed=3,
    )
    assert (random.trials, random.successes) == (400, 194)
    assert random.success_rate == 194 / 400
    assert (random.parity_match_trials, random.parity_match_successes) == (194, 194)
    assert (random.parity_mismatch_trials, random.parity_mismatch_successes) == (206, 0)
    # success exactly when the fresh gap matches the recorded parity
    assert all(succeeded == matched for _, matched, succeeded in random.outcomes)
    assert random.parity_match_trials + random.parity_mismatch_trials == random.trials
    odd = honest.session[2] % 2
    assert all((t % 2 == odd) == bool(matched) for t, matched, _ in random.outcomes)

    flip = replay_attack(
        attacker, registry, 200, recorded=honest.transcript,
        parity_policy="flip", rng_seed=4,
    )
    assert (flip.trials, flip.successes) == (200, 0)
    assert flip.parity_match_trials == 0

    matched = replay_attack(
        attacker, registry, 200, recorded=honest.transcript,
        parity_policy="match", rng_seed=5,
    )
    assert (matched.trials, matched.successes) == (200, 200)
    assert matched.parity_mismatch_trials == 0

    fresh = replay_attack(
        attacker, registry, 200, reuse_challenges=False, rng_seed=6
    )
    assert (fresh.trials, fresh.successes) == (200, 0)


# the first 20 fresh gaps of each policy, as Generator.choice over the
# materialised gap pool drew them; keyed by tick-gap range
PINNED_GAPS = {
    (2, 17): {
        "random": [14, 3, 4, 5, 4, 14, 15, 11, 2, 3, 7, 8, 11, 9, 6, 4, 13, 13, 2, 3],
        "match": [13, 17, 17, 11, 17, 17, 17, 3, 9, 11, 7, 9, 13, 15, 11, 5, 13, 15, 5, 11],
        "flip": [12, 14, 2, 14, 8, 10, 12, 6, 16, 2, 6, 8, 10, 8, 4, 2, 2, 2, 4, 16],
    },
    (5, 30): {
        "random": [26, 7, 9, 11, 9, 25, 27, 20, 6, 7, 13, 16, 21, 17, 11, 9, 22, 24, 5, 7],
        "match": [23, 29, 27, 17, 29, 29, 29, 7, 15, 19, 11, 13, 21, 25, 19, 9, 21, 27, 9, 19],
        "flip": [22, 26, 6, 26, 18, 18, 22, 12, 30, 6, 12, 14, 20, 16, 8, 6, 6, 6, 8, 30],
    },
}


@pytest.mark.parametrize("t_range", sorted(PINNED_GAPS))
def test_replay_gap_draws_are_pinned(t_range):
    # gaps are drawn as first + step * integers(0, count), never from a
    # materialised pool; the pins keep criterion 08's gaps unchanged
    device = make_device(k=16, device_seed=31)
    registry = run_registration(device, rng_seed=17, t_range=t_range)
    honest = run_authentication(registry, device)
    assert honest.passed and honest.session[2] == {(2, 17): 3, (5, 30): 7}[t_range]
    attacker = eavesdrop(ReplayAttacker(), honest.transcript)
    for rng_seed, policy in enumerate(("random", "match", "flip"), start=3):
        report = replay_attack(attacker, registry, 20, recorded=honest.transcript,
                               parity_policy=policy, rng_seed=rng_seed)
        assert [t for t, _, _ in report.outcomes] == PINNED_GAPS[t_range][policy]


def test_report_accessors():
    empty = AttackReport(outcomes=())
    assert empty.success_rate == 0.0
    some = AttackReport(outcomes=((3, 1, 1), (4, 0, 0), (5, 1, 0), (6, 0, 0)))
    table = "\n".join(report_lines(some, "table"))
    assert "success rate" in table and "0.2500" in table
    assert any(line.startswith("successes = 1") for line in field_lines(some))


@given(st.lists(st.tuples(st.integers(1, 1 << 20), st.integers(0, 1), st.integers(0, 1))))
def test_report_tallies_add_up(outcomes):
    report = AttackReport(tuple(outcomes))
    assert report.trials == len(outcomes)
    assert report.trials == report.parity_match_trials + report.parity_mismatch_trials
    assert report.successes == sum(won for _, _, won in outcomes)
    assert report.successes == report.parity_match_successes + report.parity_mismatch_successes
    assert report.parity_match_successes <= report.parity_match_trials
    assert report.parity_mismatch_successes <= report.parity_mismatch_trials
    assert report.parity_match_trials == sum(matched for _, matched, _ in outcomes)
    assert report.success_rate == (report.successes / report.trials if outcomes else 0.0)


def test_replay_refuses_a_parity_policy_without_reuse():
    _, registry, result = honest_recording()
    attacker = eavesdrop(ReplayAttacker(), result.transcript)
    for policy in ("match", "flip", "weird"):
        with pytest.raises(InvalidParameter):
            replay_attack(attacker, registry, 1, reuse_challenges=False, parity_policy=policy)
    report = replay_attack(attacker, registry, 3, reuse_challenges=False)
    assert report.trials == 3 and report.parity_match_trials == 0


# -- CRP harvesting and the linear model ---------------------------------------


def test_collect_naked_crps_reproduces_the_lane():
    lane = sample_instance(12, rng_seed=6)
    challenges, labels = collect_naked_crps(lane, 400, rng_seed=3)
    again = collect_naked_crps(lane, 400, rng_seed=3)
    assert np.array_equal(challenges, again[0]) and np.array_equal(labels, again[1])
    assert challenges.max() < 1 << 12
    assert labels.tolist() == [reference.evaluate(lane, int(c)) for c in challenges]


def test_collect_obfuscated_crps_match_the_external_interface():
    device = make_device(k=3, device_seed=14)
    challenges, labels = collect_obfuscated_crps(device, 60, mode=1, rng_seed=2, lane=2)
    again = collect_obfuscated_crps(device, 60, mode=1, rng_seed=2, lane=2)
    assert np.array_equal(challenges, again[0]) and np.array_equal(labels, again[1])
    assert challenges.min() >= 1 and challenges.max() < 1 << 8
    for challenge, label in zip(challenges[:50].tolist(), labels[:50].tolist()):
        assert label == int(device.respond(challenge, 1)[2])
    for bad_lane in (3, -1):  # -1 must not wrap around to lane 2
        with pytest.raises(InvalidParameter):
            collect_obfuscated_crps(device, 60, lane=bad_lane)


def test_one_lane_of_the_tag_bank_is_the_lane_built_alone():
    # lane 3's view of a k=8 tag's bank answers as tables built for that
    # lane alone, on the same stream: a noisy and a noiseless batch longer
    # than a slice against one unsliced run_rounds call whose evaluator
    # draws its own noise block.  The view's rows hold lane 3's table starts
    # in the whole bank, which a k=1 tag could not tell from the lane's own
    # (zero, so the lane alone reads its positions as is)
    count = 2 * RESPOND_SLICE + 37
    for sigma in (0.3, 0.0):
        device = make_device(k=8, sigma_noise=sigma, voter_t=5)
        pair, lane = device.config.lane_pairs[3], device.lanes[3]
        tables = lane_tables(lane.weights, lane.offset)
        rng = np.random.default_rng(11)

        def voted(candidates):
            mu = lane_sums(tables, table_positions(tables, candidates[0]))
            return lane_bits(mu, voter_noise(mu.shape[:1] + mu.shape[2:], sigma, 5, rng))

        seeds = rng.integers(1, 1 << 8, size=count)
        rows = candidate_rows(pair.feeds, 8, pair.rounds_per_response)
        expected = run_rounds(rows, seeds, 1, voted)
        challenges, labels = collect_obfuscated_crps(device, count, mode=1, rng_seed=11, lane=3)
        assert np.array_equal(challenges, seeds) and np.array_equal(labels, expected)
        assert 0 < labels.mean() < 1


def test_crp_collectors_refuse_a_negative_count():
    lane, device = sample_instance(8, 0), make_device(k=2)
    with pytest.raises(InvalidParameter):
        collect_naked_crps(lane, -1)
    with pytest.raises(InvalidParameter):
        collect_obfuscated_crps(device, -1)
    for challenges, labels in (collect_naked_crps(lane, 0), collect_obfuscated_crps(device, 0)):
        assert challenges.shape == labels.shape == (0,)


def test_training_input_validation():
    with pytest.raises(EmptyDataset):
        train_linear_attack([], [], 8)
    with pytest.raises(WidthMismatch):
        train_linear_attack([1, 2], [0], 8)  # a label short
    with pytest.raises(WidthMismatch):
        train_linear_attack([1, 1 << 8], [0, 1], 8)  # a challenge one bit too wide
    crps = collect_naked_crps(sample_instance(6, rng_seed=0), 64, rng_seed=0)
    for bad_split in (0.0, 1.0, -0.2):
        with pytest.raises(ValueError):
            train_linear_attack(*crps, 6, split=bad_split)
    with pytest.raises(InvalidParameter):
        train_linear_attack(*crps, 6, epochs=-1)
    with pytest.raises(EmptyDataset):
        train_linear_attack(*collect_naked_crps(sample_instance(6, 0), 5), 6, split=0.1)
    for bad_rate in (0.0, -0.5, math.nan, math.inf):
        with pytest.raises(InvalidParameter):
            train_linear_attack(*crps, 6, learning_rate=bad_rate)
    # a split that trains on every CRP is no error: it holds none out
    model = train_linear_attack(*crps, 6, split=0.999, epochs=5)
    assert model.train_size == 64 and math.isnan(model.holdout_accuracy)


def test_training_is_deterministic():
    crps = collect_naked_crps(sample_instance(10, rng_seed=5), 800, rng_seed=9)
    a = train_linear_attack(*crps, 10, epochs=50, rng_seed=7)
    b = train_linear_attack(*crps, 10, epochs=50, rng_seed=7)
    assert np.array_equal(a.weights, b.weights)
    assert a.holdout_accuracy == b.holdout_accuracy
    assert a.train_size == 640
    assert 0.0 <= a.holdout_accuracy <= 1.0


def test_bare_lane_is_linearly_learnable():
    lane = sample_instance(8, rng_seed=4)
    challenges, labels = collect_naked_crps(lane, 3000, rng_seed=5)
    model = train_linear_attack(
        challenges, labels, 8, split=0.8, epochs=2000, learning_rate=0.5, rng_seed=2
    )
    assert model.holdout_accuracy == 1.0
    assert np.array_equal(features_from_ints(challenges, 8) @ model.weights > 0, labels)
    for challenge, label in zip(challenges[:20], labels[:20]):
        assert (features_from_ints(challenge, 8) @ model.weights > 0) == label


def test_accuracy_grows_with_training_data():
    challenges, labels = collect_naked_crps(sample_instance(16, rng_seed=20), 10_000, rng_seed=12)
    frozen = (0.9665, 0.9930, 0.9975)
    accs = []
    for size in (500, 2000, 8000):
        used = size + 2000
        model = train_linear_attack(
            challenges[:used], labels[:used], 16, split=size / used, epochs=300, rng_seed=3
        )
        assert model.train_size == size
        accs.append(model.holdout_accuracy)
    assert accs[0] < accs[1] < accs[2]
    for got, want in zip(accs, frozen):
        assert got == pytest.approx(want, abs=1e-12)


# -- metrics -------------------------------------------------------------------


def test_metrics_sample_guards():
    lane = sample_instance(8, rng_seed=0)
    with pytest.raises(InsufficientSample):
        puf_metrics([lane], np.arange(999))
    with pytest.raises(InsufficientSample):
        puf_metrics([], np.arange(1000))
    with pytest.raises(WidthMismatch):
        puf_metrics([lane, sample_instance(9, rng_seed=0)], np.arange(1000) % 256)


def test_metrics_refuse_challenges_wider_than_the_lanes():
    lane = sample_instance(8, rng_seed=0)
    for bad in (np.arange(1000, 2000), np.arange(-1, 999)):
        with pytest.raises(WidthMismatch):
            puf_metrics([lane], bad)
    assert puf_metrics([lane], np.arange(1000) % 256).n_challenges == 1000


def test_metrics_on_complementary_lanes():
    base = sample_instance(8, rng_seed=9)
    mirror = ApufInstance(-base.weights)
    challenges = np.random.default_rng(1).integers(0, 256, size=1500)
    record = puf_metrics([base, mirror], challenges, repeats=3, rng_seed=1)
    assert (record.uniformity, record.reliability, record.uniqueness) == (0.5, 1.0, 1.0)
    assert (record.n_lanes, record.n_challenges, record.repeats) == (2, 1500, 3)


def test_single_lane_has_no_uniqueness():
    lane = sample_instance(8, rng_seed=2)
    challenges = np.arange(1000) % 256  # the 8-stage lane's challenge range
    record = puf_metrics([lane], challenges, repeats=1)
    assert math.isnan(record.uniqueness)
    assert record.reliability == 1.0
    assert 0.0 <= record.uniformity <= 1.0


def test_metrics_are_lane_order_invariant_at_zero_noise():
    lanes = [sample_instance(8, rng_seed=s) for s in (1, 2, 3)]
    challenges = np.random.default_rng(0).integers(0, 256, size=1200)
    forward = puf_metrics(lanes, challenges, repeats=2, rng_seed=5)
    backward = puf_metrics(lanes[::-1], challenges, repeats=2, rng_seed=5)
    assert forward.uniformity == backward.uniformity
    assert forward.reliability == backward.reliability == 1.0
    assert forward.uniqueness == pytest.approx(backward.uniqueness, rel=1e-12)


def test_devices_contribute_all_their_lanes():
    device = make_device(k=3)
    challenges = np.random.default_rng(4).integers(0, 256, size=1000)
    record = puf_metrics(device.lanes, challenges, device.config.sigma_noise, repeats=1)
    assert record.n_lanes == 3


def test_metrics_record_formatting():
    record = MetricsRecord(0.5, 1.0, 0.4, 4, 1000, 3)
    assert "uniformity" in "\n".join(report_lines(record, "table"))
    assert any(line == "n_lanes = 4" for line in field_lines(record))
