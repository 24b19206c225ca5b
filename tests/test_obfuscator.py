"""Dual-register challenge generation: selection rule, traces, and the
shared vectorised engine against the scalar reference."""

import itertools

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import reference
from conftest import make_device
from dualpuf.adversary import collect_naked_crps, collect_obfuscated_crps
from dualpuf.apuf import features_from_ints, lane_sums, sample_instance, table_positions
from dualpuf.errors import WidthMismatch, ZeroSeed
from dualpuf.lfsr import LfsrSpec, pick_lfsr_pair
from dualpuf.obfuscator import DualLfsrSpec, run_rounds, shift_tables, trace_records
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

    folded = run_rounds(shift_tables(PAIR.feeds), 1, 1, len(bits), both_candidates)
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
        round_no = np.arange(rounds).reshape((rounds,) + (1,) * (candidates.ndim - 1))
        return votes[round_no, candidates]

    def walk(spec, seed, m):
        _, bits = reference.rounds(spec, int(seed), m, lambda r, c: int(votes[r, c]))
        return sum(bits) % 2

    expected = np.array([[[walk(spec, seed, m) for spec in specs] for seed in seeds]
                         for m in (0, 1)])  # (mode, S, k)
    lanes = shift_tables([spec.feeds for spec in specs])
    lanes_first = shift_tables([[spec.feeds] for spec in specs])
    scalar = run_rounds(shift_tables(specs[0].feeds), seeds[0], mode, rounds, evaluate)
    assert int(scalar) == expected[mode, 0, 0]
    batch = run_rounds(lanes, seeds[:, None], mode, rounds, evaluate)
    assert np.array_equal(batch, expected[mode])
    transposed = run_rounds(lanes_first, seeds[None, :], mode, rounds, evaluate)
    assert np.array_equal(transposed, expected[mode].T)
    both_modes = run_rounds(lanes, seeds[0], np.array([[0], [1]]), rounds, evaluate)
    assert np.array_equal(both_modes, expected[:, 0])
    assert calls == [np.int64] * 4  # one evaluator call per response batch


def test_engine_matches_scalar_loop_exhaustively():
    inst = sample_instance(3, 7)
    weights = inst.weights

    def noiseless(candidates):
        calls.append(candidates)
        phi = features_from_ints(candidates, 3)
        return (phi @ weights > 0).astype(np.uint8)

    for idx, mode in itertools.product((0, 1), (0, 1)):
        spec = DualLfsrSpec(pick_lfsr_pair(3, idx))
        seeds = np.arange(1, 8)
        calls = []
        folded = run_rounds(shift_tables(spec.feeds), seeds, mode, 5, noiseless)
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
    lanes_first = shift_tables([[s.feeds] for s in specs])
    seeds = np.array([1, 9, 14, 7])[None, :]
    inst = sample_instance(4, 5)
    weights = inst.weights

    def noiseless(candidates):
        return (features_from_ints(candidates, 4) @ weights > 0).astype(np.uint8)

    folded = run_rounds(lanes_first, seeds, 1, 5, noiseless)
    assert folded.shape == (3, 4)
    for i, spec in enumerate(specs):
        for j, seed in enumerate(seeds[0].tolist()):
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
    # every response finds the table entries of its 2R candidate challenges
    # in one table_positions call, sums them in one lane_sums call and draws
    # its noise at most once, so a per-round evaluation cannot creep back
    # into the tag, the model reader or the attacker
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

    assert calls(lambda: tag.respond(0x5A, 1, CountingStream(real_rng(1), counts))) == (1, 1, 1)
    assert calls(lambda: predict_response(registry, 0x5A, 0)) == (1, 1, 0)
    assert calls(lambda: collect_obfuscated_crps(lane, 500)) == (1, 1, 1)
    # the raw harvest places every challenge once, then sums and draws once
    # per lane
    assert calls(lambda: tag.raw_crp_table(CountingStream(real_rng(2), counts))) == (1, 8, 8)
    assert calls(lambda: collect_naked_crps(lane.lanes[0], 500)) == (1, 1, 0)
