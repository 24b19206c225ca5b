"""Tag lifecycle: manufacture, raw enrollment interface, fusing, the
obfuscated response path, session bookkeeping, and persistence."""

import copy
import itertools
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import reference
from conftest import make_device
from dualpuf.adversary import puf_metrics
from dualpuf.apuf import sample_instance
from dualpuf.device import (
    DeviceConfig,
    PufDevice,
    build_device,
    default_lane_pairs,
    load_device,
    save_device,
    serialize_response,
)
from dualpuf.errors import (
    InterfaceFused,
    InvalidParameter,
    NonMonotonicTicks,
    SimulationError,
    WidthMismatch,
    ZeroSeed,
)
from dualpuf.lfsr import LfsrSpec
from dualpuf.obfuscator import DualLfsrSpec
from dualpuf.postproc import randomness_adjust
from dualpuf.protocol import CHALLENGE, READER_TO_TAG, Frame


def test_default_lane_pairs_cycle():
    pairs = default_lane_pairs(3, 3)
    assert len(pairs) == 3
    assert pairs[0] != pairs[1]
    assert pairs[2] == pairs[0]  # only two ordered pairs at order 3
    assert all(p.order == 3 for p in pairs)


def test_config_validation():
    pairs = default_lane_pairs(8, 2)
    with pytest.raises(ValueError):
        DeviceConfig(k=0, n_stages=8, lane_pairs=())
    with pytest.raises(WidthMismatch):
        DeviceConfig(k=3, n_stages=8, lane_pairs=pairs)
    with pytest.raises(WidthMismatch):
        DeviceConfig(k=2, n_stages=9, lane_pairs=pairs)
    with pytest.raises(ValueError):
        DeviceConfig(k=2, n_stages=8, lane_pairs=pairs, voter_t=4)
    for bad in ({"voter_t": True}, {"voter_t": 3.0}, {"sigma_noise": True}):
        with pytest.raises(InvalidParameter):  # a bool once voted as 1
            DeviceConfig(k=2, n_stages=8, lane_pairs=pairs, **bad)
    with pytest.raises(WidthMismatch):
        # 9-stage lanes would answer from 9-bit features of 8-bit challenges
        PufDevice(DeviceConfig(k=2, n_stages=8, lane_pairs=pairs),
                  [sample_instance(9, 0), sample_instance(9, 1)])
    with pytest.raises(ValueError):
        # a non-maximal polynomial cannot form a register pair at all
        DualLfsrSpec((LfsrSpec(0b1111), LfsrSpec(0b1011)))


def test_build_is_deterministic():
    a = make_device(device_seed=3)
    b = make_device(device_seed=3)
    for la, lb in zip(a.lanes, b.lanes):
        assert np.array_equal(la.weights, lb.weights)
        assert (la.adjust_up, la.adjust_low) == (lb.adjust_up, lb.adjust_low)
    assert np.array_equal(a.respond(0x51, 1), b.respond(0x51, 1))


def test_build_propagates_noise_level(monkeypatch):
    # the config owns sigma; the build adjusts every lane at it
    seen = []

    def recording_adjust(lane, sigma, rng_seed):
        seen.append(sigma)
        return randomness_adjust(lane, sigma, rng_seed=rng_seed)

    monkeypatch.setattr("dualpuf.device.randomness_adjust", recording_adjust)
    make_device(sigma_noise=0.3)
    assert seen == [0.3] * 4


def test_raw_query_shape_and_bounds():
    dev = make_device()
    bits = dev.raw_crp_query(0)  # zero is legal on the naked path
    assert bits.shape == (4,) and set(np.unique(bits)) <= {0, 1}
    with pytest.raises(WidthMismatch):
        dev.raw_crp_query(1 << 8)


def test_raw_table_covers_all_nonzero_challenges():
    # the registry's layout: one column per raw challenge, column 0 unused
    dev = make_device(k=3)
    table = dev.raw_crp_table()
    assert table.shape == (3, 256) and table.dtype == np.uint8
    assert not table[:, 0].any()
    for challenge in (1, 77, 200, 255):
        assert np.array_equal(table[:, challenge], dev.raw_crp_query(challenge))


def test_raw_table_matches_the_per_lane_vote_loop():
    # reference: per lane, the raw arbiter evaluated once per vote column
    # and the majority written into the lane's row of the table
    dev = make_device(k=5, sigma_noise=0.3)
    rng = copy.deepcopy(dev._noise_rng)  # the harvest draws from the device's own stream
    table = dev.raw_crp_table()
    challenges = np.arange(1, 256)
    t = dev.config.voter_t
    expected = np.zeros((5, 256), dtype=np.uint8)
    for i, lane in enumerate(dev.lanes):
        draws = rng.standard_normal((challenges.size, t)) * dev.config.sigma_noise
        ones = sum(reference.raw_bits(lane, challenges, draws[:, col]) for col in range(t))
        expected[i, challenges] = 2 * ones > t
    assert np.array_equal(table, expected)
    assert len({serialize_response(column) for column in table[:, 1:].T}) > 1


def test_fuse_is_permanent_and_idempotent():
    dev = make_device()
    before = dev.respond(0x3C, 1)
    dev.fuse()
    dev.fuse()
    assert dev.fused
    with pytest.raises(InterfaceFused):
        dev.raw_crp_query(5)
    with pytest.raises(InterfaceFused):
        dev.raw_crp_table()
    assert np.array_equal(dev.respond(0x3C, 1), before)  # normal path alive


def test_respond_rejects_out_of_range_challenges():
    dev = make_device()
    for bad in (0, 1 << 8):
        with pytest.raises(ZeroSeed):
            dev.respond(bad, 1)


def test_respond_composes_register_selection_and_voting():
    # every lane against the scalar reference, noiseless at k=4
    dev = make_device()
    for challenge, mode in ((0x5A, 1), (0x5A, 0), (0x01, 1), (0xF3, 0)):
        response = dev.respond(challenge, mode)
        for i, lane in enumerate(dev.lanes):
            pair = dev.config.lane_pairs[i]
            assert response[i] == reference.response(pair, lane, challenge, mode)
    # with voting noise at k=1 the tag draws round by round and vote by
    # vote, as the reference does; the noise flips about a fifth of these
    noisy = make_device(k=1, sigma_noise=0.4)
    pair, lane, config = noisy.config.lane_pairs[0], noisy.lanes[0], noisy.config
    for challenge, mode in itertools.product(range(1, 256), (0, 1)):
        bit = noisy.bank.respond(
            challenge, mode, config.sigma_noise, config.voter_t, np.random.default_rng(challenge)
        )
        assert bit[0] == reference.response(
            pair, lane, challenge, mode, config.sigma_noise, config.voter_t,
            np.random.default_rng(challenge),
        )


def test_lanes_are_independent():
    dev = make_device()
    challenges = np.random.default_rng(4).integers(1, 256, size=20)
    before = np.stack([dev.respond(int(c), 1) for c in challenges])
    dev.lanes[2].weights *= -1
    dev.refresh_caches()
    after = np.stack([dev.respond(int(c), 1) for c in challenges])
    diff = before ^ after
    assert diff[:, [0, 1, 3]].sum() == 0
    assert diff[:, 2].sum() > 0


def test_a_noisy_batch_holds_one_noise_block_and_a_slice():
    # the noise of a batch is drawn up front, one (rounds, S, k, voter_t)
    # float64 block, and its words, sums and votes run a slice at a time,
    # so the batch's peak grows with the block alone
    dev = make_device(k=64, n_stages=16, device_seed=5, sigma_noise=0.03, voter_t=5)
    config = dev.config
    seeds = np.random.default_rng(4).integers(1, 1 << 16, size=2000)
    peaks = {}
    for count in (500, 2000):
        tracemalloc.start()
        dev.bank.respond(seeds[:count], 1, config.sigma_noise, config.voter_t, np.random.default_rng(1))
        peaks[count] = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    block_per_challenge = 8 * 5 * 64 * 5  # float64, rounds, lanes, votes
    assert peaks[2000] <= 48 << 20
    assert peaks[2000] - peaks[500] <= 1.1 * block_per_challenge * 1500


# -- serialization ------------------------------------------------------------


@given(st.lists(st.integers(0, 1), min_size=1, max_size=80))
def test_serialize_round_trip(bits):
    value = serialize_response(np.array(bits, dtype=np.uint8))
    assert reference.unpack(value, len(bits)).tolist() == bits


@pytest.mark.parametrize("k", [1, 8, 64, 65])
def test_serialize_round_trip_2d(k):
    # a (k, S) table packs column by column; the table itself is no response
    bits = np.random.default_rng(k).integers(0, 2, size=(k, 300), dtype=np.uint8)
    bits[:, 0] = 1  # the all-ones word, 2^k - 1
    words = [serialize_response(column) for column in bits.T]
    assert words[0] == (1 << k) - 1
    assert np.array_equal(np.stack([reference.unpack(word, k) for word in words], axis=1), bits)
    for shaped in (bits, bits[:, :1], bits[0, 0]):
        with pytest.raises(WidthMismatch):
            serialize_response(shaped)


def test_serialize_lane_zero_is_lsb():
    assert serialize_response(np.array([1, 0, 0, 1], dtype=np.uint8)) == 0b1001


# -- session bookkeeping -------------------------------------------------------


def frame_at(tick, payload):
    return Frame(tick, READER_TO_TAG, CHALLENGE, payload, 8)


def test_answer_challenge_extracts_mode_from_tick_gap():
    dev = make_device()
    dev.begin_session()
    assert dev.answer_challenge(frame_at(4, 0x11)) == serialize_response(
        dev.respond(0x11, 1)  # first challenge of a session
    )
    assert dev.answer_challenge(frame_at(9, 0x22)) == serialize_response(
        dev.respond(0x22, 1)  # gap 5, odd
    )
    dev.begin_session()
    dev.answer_challenge(frame_at(10, 0x11))
    assert dev.answer_challenge(frame_at(16, 0x22)) == serialize_response(
        dev.respond(0x22, 0)  # gap 6, even
    )
    with pytest.raises(NonMonotonicTicks):
        dev.answer_challenge(frame_at(16, 0x33))


# -- persistence ---------------------------------------------------------------


def test_device_file_round_trip(tmp_path):
    dev = make_device(device_seed=5)
    path = tmp_path / "tag.json"
    save_device(dev, str(path))
    back = load_device(str(path))
    assert back.config == dev.config
    assert not back.fused
    for la, lb in zip(dev.lanes, back.lanes):
        assert np.array_equal(la.weights, lb.weights)
        assert (la.adjust_up, la.adjust_low) == (lb.adjust_up, lb.adjust_low)
    for challenge in (1, 0x42, 0xFF):
        assert np.array_equal(back.respond(challenge, 0), dev.respond(challenge, 0))
    again = tmp_path / "tag2.json"
    save_device(back, str(again))
    assert path.read_bytes() == again.read_bytes()


def test_a_loaded_tag_measures_as_before(tmp_path):
    # the config is the one owner of the tag's sigma, so the file cannot
    # change the noise its lanes are measured at
    config = DeviceConfig(k=2, n_stages=8, lane_pairs=default_lane_pairs(8, 2), sigma_noise=0.3)
    dev = PufDevice(config, [sample_instance(8, 0), sample_instance(8, 1)])
    challenges = np.random.default_rng(1).integers(0, 256, size=1000)
    before = puf_metrics(dev.lanes, challenges, dev.config.sigma_noise)
    assert before.reliability < 1.0
    path = tmp_path / "tag.json"
    save_device(dev, str(path))
    back = load_device(str(path))
    assert puf_metrics(back.lanes, challenges, back.config.sigma_noise) == before


def test_load_refuses_another_compensation_unit(tmp_path):
    path = tmp_path / "tag.json"
    save_device(make_device(k=2), str(path))
    doc = json.loads(path.read_text())
    assert [lane["delta_unit"] for lane in doc["lanes"]] == [0.05, 0.05]
    doc["lanes"][1]["delta_unit"] = 0.3
    path.write_text(json.dumps(doc))
    with pytest.raises(SimulationError):
        load_device(str(path))


def test_malformed_device_files_raise_simulation_errors(tmp_path):
    # a float or a bool where an integer belongs, a fused flag that is not a
    # bool, a lane weight that is not finite and lane weights whose sums
    # overflow used to load; a float round count on a lane other than the
    # first was also saved back as a float
    path = tmp_path / "tag.json"
    save_device(make_device(k=2), str(path))
    doc = json.loads(path.read_text())
    first, second = doc["lanes"]
    broken = [{**doc, key: value} for key, value in (
        ("k", 2.0), ("n_stages", 8.0), ("device_seed", True), ("fused", "yes"), ("fused", 0),
    )]
    broken.append({**doc, "lane_pairs": [doc["lane_pairs"][0], {**doc["lane_pairs"][1], "rounds": 5.0}]})
    for weights in ([float("nan")] + second["weights"][1:], [float("inf")] + second["weights"][1:],
                    [1e308] * len(second["weights"])):
        broken.append({**doc, "lanes": [first, {**second, "weights": weights}]})
    for bad in broken:
        path.write_text(json.dumps(bad))
        with pytest.raises(SimulationError):
            load_device(str(path))


def test_fused_flag_survives_reload(tmp_path):
    dev = make_device()
    dev.fuse()
    path = tmp_path / "fused.json"
    save_device(dev, str(path))
    back = load_device(str(path))
    assert back.fused
    with pytest.raises(InterfaceFused):
        back.raw_crp_query(1)
