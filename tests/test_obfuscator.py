"""Dual-register challenge generation: selection rule, traces, and the
shared vectorised engine against the scalar reference."""

import itertools
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import reference
from conftest import make_device
from dualpuf.adversary import collect_naked_crps, collect_obfuscated_crps
from dualpuf.apuf import features_from_ints, lane_sums, lane_tables, sample_instance, table_positions
from dualpuf.errors import InvalidParameter, SimulationError, WidthMismatch, ZeroSeed
from dualpuf.lfsr import LfsrSpec, pick_lfsr_pair
from dualpuf.obfuscator import (
    DualLfsrSpec, LaneBank, candidate_rows, check_external_challenge, run_rounds, trace_records,
)
from dualpuf.protocol import run_registration
from dualpuf.server import predict_response

PAIR = DualLfsrSpec((LfsrSpec(3, 0b1011), LfsrSpec(3, 0b1101)))
VOTES = (0, 0, 1, 1, 0)


def traced(spec, external_challenge, mode, votes):
    """Challenge column of trace_records for a vote history."""
    lines = trace_records(spec, external_challenge, mode, votes)
    return [int(line.split()[4], 2) for line in lines]


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
    # zero and out-of-range external challenges never load the registers
    for bad in (0, 1 << 3):
        with pytest.raises(ZeroSeed):
            trace_records(PAIR, bad, 1, VOTES)


def test_selection_rule_single_step():
    # post-shift register values from seed 001: 101 (first), 110 (second)
    # after one shift, 111 and 011 after two; round 1 always selects with
    # prev 0, round 2 with the round-1 vote
    cases = ((0, 1, 0b101, 0b111), (0, 0, 0b110, 0b011), (1, 0, 0b110, 0b111), (1, 1, 0b101, 0b011))
    for prev, mode, first, second in cases:
        history = (prev, 0, 0, 0, 0)
        trace = traced(PAIR, 0b001, mode, history)
        assert trace[:2] == [first, second]
        assert trace == reference.rounds(PAIR, 0b001, mode, lambda r, _: history[r])[0]


def test_challenge_trace_oracle():
    assert traced(PAIR, 0b001, 1, VOTES) == [0b101, 0b111, 0b110, 0b101, 0b100]
    assert traced(PAIR, 0b001, 0, VOTES) == [0b110, 0b011, 0b111, 0b011, 0b100]


def test_all_zero_votes_follow_one_free_running_register():
    # constant selector pins one register; both keep shifting regardless
    run1 = [0b101, 0b111, 0b110, 0b011, 0b100]
    run2 = [0b110, 0b011, 0b111, 0b101, 0b100]
    assert traced(PAIR, 0b001, 1, (0,) * 5) == run1
    assert traced(PAIR, 0b001, 0, (0,) * 5) == run2
    state = 0b001
    for expected in run1:
        state = reference.shift(PAIR.pair[0].feed, state)
        assert state == expected


def test_mode_swap_visible_from_round_one():
    trace1 = traced(PAIR, 0b001, 1, (0,) * 5)
    trace0 = traced(PAIR, 0b001, 0, (0,) * 5)
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
        trace_records(PAIR, 0b001, 1, (0, 1))


def test_histories_alter_the_following_selection():
    # two vote histories first differing at position d steer different
    # registers at round d+2; the emitted values differ exactly when the
    # registers hold different states there
    histories = list(itertools.product((0, 1), repeat=5))
    for idx, seed, mode in itertools.product((0, 1), range(1, 8), (0, 1)):
        spec = DualLfsrSpec(pick_lfsr_pair(3, idx))
        # all-zero votes read the first register in mode 1, the second in mode 0
        regs = list(zip(traced(spec, seed, 1, (0,) * 5), traced(spec, seed, 0, (0,) * 5)))
        traces = {h: traced(spec, seed, mode, h) for h in histories}
        for a, b in itertools.combinations(histories, 2):
            d = next(i for i in range(5) if a[i] != b[i])
            ta, tb = traces[a], traces[b]
            assert ta[: d + 1] == tb[: d + 1]
            if d + 1 < 5:
                # selected registers differ at round d+2
                assert (ta[d + 1] != tb[d + 1]) == (regs[d + 1][0] != regs[d + 1][1])


def test_register_collision_witness():
    # both registers reach 100 on the fifth shift from seed 001, so a vote
    # difference at position 4 cannot show in the challenge value
    assert traced(PAIR, 0b001, 1, (0, 0, 0, 0, 0)) == traced(PAIR, 0b001, 1, (0, 0, 0, 1, 0))
    # a difference at position 0 shows at round 2, where 111 != 011
    assert traced(PAIR, 0b001, 1, (1, 0, 0, 0, 0))[1] != traced(PAIR, 0b001, 1, (0, 0, 0, 0, 0))[1]


@given(st.lists(st.integers(0, 1), min_size=1, max_size=20))
def test_run_rounds_folds_round_bits_by_parity(bits):
    def both_candidates(candidates):
        return np.repeat(np.array(bits, dtype=np.uint8), 2).reshape(candidates.shape)

    folded = run_rounds(candidate_rows(PAIR.feeds, 3, len(bits)), 1, 1, both_candidates)
    assert int(folded) == sum(bits) % 2


@given(
    order=st.integers(3, 16),
    first_pair=st.integers(0, 10_000),
    rounds=st.integers(1, 12),
    mode=st.integers(0, 1),
    draw_seed=st.integers(0, 2**32 - 1),
)
@example(order=3, first_pair=0, rounds=1, mode=0, draw_seed=1)
@example(order=8, first_pair=5, rounds=5, mode=1, draw_seed=2)
@example(order=12, first_pair=9, rounds=6, mode=0, draw_seed=3)
@example(order=16, first_pair=2, rounds=11, mode=1, draw_seed=4)
def test_tables_match_the_one_shift_walk(order, first_pair, rounds, mode, draw_seed):
    # the bit of a round is an arbitrary function of the round and the
    # candidate, so any slip of a register state or of the selection shows
    specs = [DualLfsrSpec(pick_lfsr_pair(order, first_pair + i), rounds) for i in range(3)]
    rng = np.random.default_rng(draw_seed)
    votes = rng.integers(0, 2, (rounds, 1 << order), dtype=np.uint8)
    seeds = rng.integers(1, 1 << order, 4)
    calls = []

    def evaluate(candidates):
        calls.append(candidates.dtype)
        round_no = np.arange(rounds).reshape((rounds,) + (1,) * (candidates.ndim - 2))
        return votes[round_no, candidates[0]]

    def walk(spec, seed, m):
        _, bits = reference.rounds(spec, int(seed), m, lambda r, c: int(votes[r, c]))
        return sum(bits) % 2

    expected = np.array([[[walk(spec, seed, m) for spec in specs] for seed in seeds]
                         for m in (0, 1)])  # (mode, S, k)
    lanes = candidate_rows([spec.feeds for spec in specs], order, rounds)
    scalar = run_rounds(candidate_rows(specs[0].feeds, order, rounds), int(seeds[0]), mode, evaluate)
    assert int(scalar) == expected[mode, 0, 0]
    batch = run_rounds(lanes, seeds, mode, evaluate)
    assert np.array_equal(batch, expected[mode])
    one_seed = run_rounds(lanes, int(seeds[1]), mode, evaluate)  # an int across the lanes
    assert np.array_equal(one_seed, expected[mode, 1])
    both_modes = run_rounds(lanes, seeds[[0, 0]], np.array([[0], [1]]), evaluate)
    assert np.array_equal(both_modes, expected[:, 0])
    assert calls == [np.int64] * 4  # one evaluator call per response batch


def test_engine_matches_scalar_loop_exhaustively():
    inst = sample_instance(3, 7)
    weights = inst.weights

    def noiseless(candidates):
        calls.append(candidates[0])
        phi = features_from_ints(candidates[0], 3)
        return (phi @ weights > 0).astype(np.uint8)

    for idx, mode in itertools.product((0, 1), (0, 1)):
        spec = DualLfsrSpec(pick_lfsr_pair(3, idx))
        seeds = np.arange(1, 8)
        calls = []
        folded = run_rounds(candidate_rows(spec.feeds, 3, 5), seeds, mode, noiseless)
        assert len(calls) == 1  # one evaluator call for all rounds
        candidates = calls[0]
        assert candidates.shape == (5, 2, 7)
        for i, seed in enumerate(seeds.tolist()):
            challenges, votes = reference.rounds(
                spec, seed, mode, lambda _, c: reference.evaluate(inst, c)
            )
            assert int(folded[i]) == sum(votes) % 2
            # both registers run free whatever the votes
            states = [seed, seed]
            for r in range(5):
                states = [reference.shift(lfsr.feed, s) for lfsr, s in zip(spec.pair, states)]
                assert candidates[r, :, i].tolist() == states
            # the selected candidates are the challenges the reference consumed
            prevs = [0] + votes[:-1]
            picked = [int(candidates[r, 1 - (prev ^ mode), i]) for r, prev in enumerate(prevs)]
            assert picked == challenges
            # the trace replaying the realized votes is the sequence consumed
            assert traced(spec, seed, mode, votes) == challenges


def test_engine_broadcasts_lane_and_batch_axes():
    specs = [DualLfsrSpec(pick_lfsr_pair(4, i)) for i in range(3)]
    rows = candidate_rows([s.feeds for s in specs], 4, 5)
    seeds = np.array([1, 9, 14, 7])
    inst = sample_instance(4, 5)
    weights = inst.weights

    def noiseless(candidates):
        return (features_from_ints(candidates[0], 4) @ weights > 0).astype(np.uint8)

    folded = run_rounds(rows, seeds, 1, noiseless).T  # S + lanes, lanes first
    assert folded.shape == (3, 4)
    for i, spec in enumerate(specs):
        for j, seed in enumerate(seeds.tolist()):
            assert int(folded[i, j]) == reference.response(spec, inst, seed, 1)


class CountingStream:
    """A noise stream that counts its standard_normal calls."""

    def __init__(self, rng, counts):
        self.rng, self.counts = rng, counts

    def standard_normal(self, *args, **kwargs):
        self.counts["draws"] += 1
        return self.rng.standard_normal(*args, **kwargs)

    def integers(self, *args, **kwargs):
        return self.rng.integers(*args, **kwargs)


def test_one_lane_call_per_response(monkeypatch):
    # every response reads the absolute table positions of its 2R candidate
    # challenges from its bank's rows (table_positions ran once, when the
    # bank was built), sums them in one lane_sums call and draws its noise
    # at most once, so a per-round evaluation cannot creep back into the
    # tag, the model reader or the attacker
    tag = make_device(k=8, n_stages=8, sigma_noise=0.3)
    registry = run_registration(make_device(k=8, n_stages=8), policy="params")
    lane = make_device(k=1, n_stages=8, sigma_noise=0.3)
    counts = {"positions": 0, "sums": 0, "draws": 0}

    def counted(name, kernel):
        def count(*args, **kwargs):
            counts[name] += 1
            return kernel(*args, **kwargs)

        return count

    for module in ("obfuscator", "postproc"):
        monkeypatch.setattr(f"dualpuf.{module}.table_positions", counted("positions", table_positions))
        monkeypatch.setattr(f"dualpuf.{module}.lane_sums", counted("sums", lane_sums))
    real_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda *a: CountingStream(real_rng(*a), counts))

    def calls(action):
        counts.update(positions=0, sums=0, draws=0)
        action()
        return counts["positions"], counts["sums"], counts["draws"]

    assert calls(lambda: tag.respond(0x5A, 1, CountingStream(real_rng(1), counts))) == (0, 1, 1)
    assert calls(lambda: predict_response(registry, 0x5A, 0)) == (0, 1, 0)
    assert calls(lambda: collect_obfuscated_crps(lane, 500)) == (0, 1, 1)
    # the raw harvest places every challenge once, then sums and draws once
    # per lane
    assert calls(lambda: tag.raw_crp_table(CountingStream(real_rng(2), counts))) == (1, 8, 8)
    assert calls(lambda: collect_naked_crps(lane.lanes[0], 500)) == (1, 1, 0)


@given(
    order=st.integers(2, 62),
    rounds=st.integers(1, 12),
    k=st.sampled_from((1, 3)),
    draw_seed=st.integers(0, 2**32 - 1),
)
@example(order=2, rounds=1, k=1, draw_seed=0)
@example(order=62, rounds=12, k=3, draw_seed=1)
def test_seed_rows_are_linear_images_of_the_one_shift_walk(order, rounds, k, draw_seed):
    # a Galois shift and table_positions are linear over GF(2) and a lane's
    # table start sits in bits no position uses, so the XOR of a seed's
    # chunk rows is its candidates (and their absolute positions) at any
    # order and round count; the registers need not be maximal for that
    rng = np.random.default_rng(draw_seed)
    top = 1 << order - 1
    feeds = rng.integers(0, top, size=(k, 2)) | top
    pairs = [SimpleNamespace(feeds=tuple(f), order=order, rounds_per_response=rounds)
             for f in feeds.tolist()]
    sums = lane_tables(rng.standard_normal((k, order + 1)), rng.standard_normal(k))
    seeds = rng.integers(1, 1 << order, size=4)
    walked = np.empty((rounds, 2, seeds.size, k), dtype=np.int64)
    for (j, i, lane), seed in np.ndenumerate(np.broadcast_to(seeds[:, None], (2, 4, k))):
        state = int(seed)
        for r in range(rounds):
            state = walked[r, j, i, lane] = reference.shift(int(feeds[lane, j]), state)
    words = []

    def record(candidates):
        words.append(candidates)
        return np.zeros(candidates.shape[1:], dtype=np.uint8)

    rows = candidate_rows(feeds, order, rounds)
    run_rounds(rows, seeds, 1, record)
    run_rounds(rows, int(seeds[2]), 0, record)
    assert np.array_equal(words[0][0], walked) and np.array_equal(words[1][0], walked[:, :, 2])
    positions = table_positions(sums, walked)
    absolute = np.stack([p + start for p, start in zip(positions, sums.starts)])
    bank = LaneBank.build(pairs, sums)
    run_rounds(bank.rows, seeds, 1, record)
    assert np.array_equal(words[2], absolute)
    for lane in range(k):
        run_rounds(bank.lane(lane).rows, seeds, 1, record)
        assert np.array_equal(words[-1], absolute[..., lane])
    # table_positions itself: XOR in, XOR out, zero to zero
    other = rng.integers(0, 1 << order, size=walked.shape)
    mixed = table_positions(sums, walked ^ other)
    for a, b, both in zip(positions, table_positions(sums, other), mixed):
        assert np.array_equal(both, a ^ b)
    assert all(not p.any() for p in table_positions(sums, np.zeros(3, dtype=np.int64)))


@pytest.mark.parametrize("bad", [0, 1 << 8, -1, True, 2.5])
def test_a_session_pair_is_checked_as_the_same_array(bad):
    # the tuple fast path for a session's (C1, C2) and (1, t & 1) answers
    # every pair as the generic path answers it as a list and as an array;
    # NumPy casts a bool among ints to 1, so the array that keeps a bool is
    # an object array, and a bool anywhere is refused
    def outcome(challenge, mode):
        try:
            seeds, modes = check_external_challenge(challenge, 8, mode)
        except SimulationError as error:
            return type(error), str(error)
        return seeds.dtype, seeds.tolist(), modes.dtype, modes.tolist()

    def as_array(values):
        return np.array(values, dtype=object if bool in map(type, values) else None)

    cases = (((bad, bad), (1, 0)), ((5, bad), (1, 1)), ((bad, 6), (1, 0)), ((5, 6), (1, bad)))
    for challenge, mode in cases:
        got = outcome(challenge, mode)
        assert got == outcome(list(challenge), list(mode))
        assert got == outcome(as_array(challenge), as_array(mode))
        assert bad is not True or got[0] is InvalidParameter
    assert isinstance(outcome((bad, bad), (1, 0))[1], str)  # both raise
    assert outcome((5, 6), (1, 9)) == (np.int64, [5, 6], np.int64, [1, 1])
