"""Dual-register challenge generation: selection rule, traces, the scalar
reference loop, and the shared vectorised engine."""

import itertools

import numpy as np
import pytest

from dualpuf.apuf import ApufInstance, evaluate_raw, features_from_ints, sample_instance
from dualpuf.errors import WidthMismatch, ZeroSeed
from dualpuf.lfsr import LfsrSpec, pick_lfsr_pair, step, make_lfsr
from dualpuf.obfuscator import (
    DualLfsrSpec,
    challenge_trace,
    generate_response,
    run_rounds,
    trace_records,
)
from dualpuf.postproc import xor_fold

PAIR = DualLfsrSpec((LfsrSpec(3, 0b1011), LfsrSpec(3, 0b1101)))
VOTES = (0, 0, 1, 1, 0)


def reference_loop(spec, apuf, external_challenge, mode):
    """Hand-rolled noiseless selection loop collecting votes and challenges."""
    s1 = make_lfsr(spec.pair[0], external_challenge)
    s2 = make_lfsr(spec.pair[1], external_challenge)
    bit, votes, challenges = 0, [], []
    for _ in range(spec.rounds_per_response):
        s1, s2 = step(s1), step(s2)
        challenge = (s1 if bit ^ mode == 1 else s2).bits
        bit = evaluate_raw(apuf, challenge)
        votes.append(bit)
        challenges.append(challenge)
    return votes, challenges


def test_pair_validation():
    with pytest.raises(WidthMismatch):
        DualLfsrSpec((LfsrSpec(3, 0b1011), LfsrSpec(4, 0b10011)))
    with pytest.raises(ValueError):
        DualLfsrSpec((LfsrSpec(3, 0b1011), LfsrSpec(3, 0b1011)))
    with pytest.raises(ValueError):
        DualLfsrSpec((LfsrSpec(3, 0b1111), LfsrSpec(3, 0b1011)))  # not maximal
    with pytest.raises(ValueError):
        DualLfsrSpec(PAIR.pair, rounds_per_response=0)


def test_seed_obfuscator_state():
    # both registers load the external challenge itself; zero and
    # out-of-range challenges are rejected by the oracle and the engine trace
    assert make_lfsr(PAIR.pair[0], 0b001).bits == make_lfsr(PAIR.pair[1], 0b001).bits == 1
    for bad in (0, 1 << 3):
        with pytest.raises(ZeroSeed):
            challenge_trace(PAIR, bad, 1, VOTES)
        with pytest.raises(ZeroSeed):
            trace_records(PAIR, bad, 1, VOTES)


def test_selection_rule_single_step():
    # post-shift register values from seed 001: 101 (first), 110 (second)
    # after one shift, 111 and 011 after two; round 1 always selects with
    # prev 0, round 2 with the round-1 vote
    cases = ((0, 1, 0b101, 0b111), (0, 0, 0b110, 0b011), (1, 0, 0b110, 0b111), (1, 1, 0b101, 0b011))
    for prev, mode, first, second in cases:
        history = (prev, 0, 0, 0, 0)
        trace = challenge_trace(PAIR, 0b001, mode, history)
        assert trace[:2] == [first, second]
        records = trace_records(PAIR, 0b001, mode, history)
        assert [int(line.split()[4], 2) for line in records] == trace


def test_challenge_trace_oracle():
    assert challenge_trace(PAIR, 0b001, 1, VOTES) == [0b101, 0b111, 0b110, 0b101, 0b100]
    assert challenge_trace(PAIR, 0b001, 0, VOTES) == [0b110, 0b011, 0b111, 0b011, 0b100]


def test_all_zero_votes_follow_one_free_running_register():
    # constant selector pins one register; both keep shifting regardless
    run1 = [0b101, 0b111, 0b110, 0b011, 0b100]
    run2 = [0b110, 0b011, 0b111, 0b101, 0b100]
    assert challenge_trace(PAIR, 0b001, 1, (0,) * 5) == run1
    assert challenge_trace(PAIR, 0b001, 0, (0,) * 5) == run2
    state = make_lfsr(PAIR.pair[0], 0b001)
    for expected in run1:
        state = step(state)
        assert state.bits == expected


def test_mode_swap_visible_from_round_one():
    trace1 = challenge_trace(PAIR, 0b001, 1, (0,) * 5)
    trace0 = challenge_trace(PAIR, 0b001, 0, (0,) * 5)
    assert trace1[0] != trace0[0]


def test_trace_records_format():
    lines = trace_records(PAIR, 0b001, 1, VOTES)
    assert lines == [
        "1 1 0 1 101",
        "2 1 0 1 111",
        "3 1 0 1 110",
        "4 1 1 2 101",
        "5 1 1 2 100",
    ]
    swapped = trace_records(PAIR, 0b001, 0, VOTES)
    assert [line.split()[3] for line in swapped] == ["2", "2", "2", "1", "1"]


def test_width_mismatches():
    with pytest.raises(WidthMismatch):
        challenge_trace(PAIR, 0b001, 1, (0, 1))
    with pytest.raises(WidthMismatch):
        generate_response(
            PAIR, sample_instance(4, 0), 0b001, 1, 1, np.random.default_rng(0)
        )


def test_generate_response_matches_reference_loop():
    inst = sample_instance(3, 7)
    rng = np.random.default_rng(0)
    for idx, seed, mode in itertools.product((0, 1), range(1, 8), (0, 1)):
        spec = DualLfsrSpec(pick_lfsr_pair(3, idx))
        votes, challenges = reference_loop(spec, inst, seed, mode)
        assert generate_response(spec, inst, seed, mode, 5, rng) == xor_fold(votes)
        # the trace reconstructed from the realized votes is the sequence
        # the loop actually consumed
        assert challenge_trace(spec, seed, mode, votes) == challenges


def test_histories_alter_the_following_selection():
    # two vote histories first differing at position d steer different
    # registers at round d+2; the emitted values differ exactly when the
    # registers hold different states there
    for idx, seed, mode in itertools.product((0, 1), range(1, 8), (0, 1)):
        spec = DualLfsrSpec(pick_lfsr_pair(3, idx))
        s1 = make_lfsr(spec.pair[0], seed)
        s2 = make_lfsr(spec.pair[1], seed)
        regs = []
        for _ in range(5):
            s1, s2 = step(s1), step(s2)
            regs.append((s1.bits, s2.bits))
        for a, b in itertools.combinations(itertools.product((0, 1), repeat=5), 2):
            d = next(i for i in range(5) if a[i] != b[i])
            ta = challenge_trace(spec, seed, mode, a)
            tb = challenge_trace(spec, seed, mode, b)
            assert ta[: d + 1] == tb[: d + 1]
            if d + 1 < 5:
                # selected registers differ at round d+2
                assert (ta[d + 1] != tb[d + 1]) == (regs[d + 1][0] != regs[d + 1][1])


def test_register_collision_witness():
    # both registers reach 100 on the fifth shift from seed 001, so a vote
    # difference at position 4 cannot show in the challenge value
    assert challenge_trace(PAIR, 0b001, 1, (0, 0, 0, 0, 0)) == challenge_trace(
        PAIR, 0b001, 1, (0, 0, 0, 1, 0)
    )
    # a difference at position 0 shows at round 2, where 111 != 011
    assert challenge_trace(PAIR, 0b001, 1, (1, 0, 0, 0, 0))[1] != challenge_trace(
        PAIR, 0b001, 1, (0, 0, 0, 0, 0)
    )[1]


def test_engine_matches_scalar_loop_exhaustively():
    inst = sample_instance(3, 7)
    weights = inst.weights
    rng = np.random.default_rng(0)

    def noiseless(_, chosen):
        phi = features_from_ints(chosen, 3)
        return (phi @ weights > 0).astype(np.uint8)

    for idx, mode in itertools.product((0, 1), (0, 1)):
        spec = DualLfsrSpec(pick_lfsr_pair(3, idx))
        seeds = np.arange(1, 8)
        folded, per_round = run_rounds(
            spec.pair[0].feed,
            spec.pair[1].feed,
            seeds,
            mode,
            5,
            noiseless,
            collect_challenges=True,
        )
        for i, seed in enumerate(seeds):
            expected = generate_response(spec, inst, int(seed), mode, 5, rng)
            assert int(folded[i]) == expected
            votes, challenges = reference_loop(spec, inst, int(seed), mode)
            assert [int(r[i]) for r in per_round] == challenges


def test_engine_broadcasts_lane_and_batch_axes():
    specs = [DualLfsrSpec(pick_lfsr_pair(4, i)) for i in range(3)]
    feed1 = np.array([s.pair[0].feed for s in specs])[:, None]
    feed2 = np.array([s.pair[1].feed for s in specs])[:, None]
    seeds = np.array([1, 9, 14, 7])[None, :]
    inst = sample_instance(4, 5)
    weights = inst.weights

    def noiseless(_, chosen):
        return (features_from_ints(chosen, 4) @ weights > 0).astype(np.uint8)

    folded = run_rounds(feed1, feed2, seeds, 1, 5, noiseless)
    assert folded.shape == (3, 4)
    rng = np.random.default_rng(0)
    for i, spec in enumerate(specs):
        for j, seed in enumerate(seeds[0]):
            assert int(folded[i, j]) == generate_response(
                spec, inst, int(seed), 1, 5, rng
            )
