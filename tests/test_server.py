"""Reader-side registry: enrollment material, prediction, session draws,
comparison, and persistence."""

import base64
import hashlib
import json
import pickle
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import reference
from conftest import make_device
from dualpuf.adversary import collect_obfuscated_crps
from dualpuf.apuf import sample_instance
from dualpuf.device import default_lane_pairs, pack_bits, save_device
from dualpuf.errors import (
    InvalidParameter,
    SimulationError,
    WidthMismatch,
    ZeroSeed,
)
from dualpuf.lfsr import LfsrSpec
from dualpuf.obfuscator import RESPOND_SLICE, DualLfsrSpec, run_rounds
from dualpuf.persist import pair_to_json
from dualpuf.protocol import run_authentication, run_registration
from dualpuf.server import (
    DEFAULT_T_RANGE,
    MODEL_MODE,
    TABLE_MODE,
    ServerRegistry,
    compare,
    default_tau,
    gen_session,
    load_registry,
    predict_response,
    register_from_ttp,
    save_registry,
)

# the files the release that introduced the file formats wrote: two tags and
# two registries of version 0, before registry files had a version
DATA = Path(__file__).parent / "data"


def table_registry(dev, **kwargs):
    return register_from_ttp(
        dev.raw_crp_table(), dev.config.lane_pairs, tau=0, **kwargs
    )


def model_registry(dev, **kwargs):
    return register_from_ttp(list(dev.lanes), dev.config.lane_pairs, tau=0, **kwargs)


def test_default_tau():
    assert default_tau(64, 0.0) == 0
    assert default_tau(64, 0.5) == 7
    assert default_tau(10, 0.1) == 1
    assert default_tau(1, 0.1) == 0  # never all k lanes


def test_default_t_range_is_parity_balanced_and_wire_safe():
    t_min, t_max = DEFAULT_T_RANGE
    assert (t_min, t_max) == (2, 17)
    values = list(range(t_min, t_max + 1))
    assert sum(v % 2 for v in values) * 2 == len(values)


def test_registry_validation():
    dev = make_device(k=2)
    table = dev.raw_crp_table()
    good = dict(lane_pairs=dev.config.lane_pairs, tau=0, t_range=(2, 17), rng_seed=0)
    model = model_registry(dev)
    # one kind of lane material: a table, or weights and offsets
    with pytest.raises(InvalidParameter):
        ServerRegistry(table=table, weights=model.weights, offsets=model.offsets, **good)
    with pytest.raises(InvalidParameter):
        ServerRegistry(**good)
    with pytest.raises(ValueError):
        register_from_ttp(table, dev.config.lane_pairs, tau=2)  # tau >= k
    with pytest.raises(ValueError):
        register_from_ttp(table, dev.config.lane_pairs, tau=0, t_range=(0, 4))
    with pytest.raises(ValueError):
        # a gap of 1 would put C2 on the tick of the first response
        register_from_ttp(table, dev.config.lane_pairs, tau=0, t_range=(1, 4))
    with pytest.raises(WidthMismatch):
        register_from_ttp(list(dev.lanes[:1]), dev.config.lane_pairs, tau=0)
    with pytest.raises(WidthMismatch):
        # a 9-stage lane model among the pairs' order-8 lanes
        lanes = [sample_instance(8, 0), sample_instance(9, 0)]
        register_from_ttp(lanes, default_lane_pairs(8, 2), tau=0)
    with pytest.raises(WidthMismatch):
        register_from_ttp([], (), tau=0)  # no register pairs, no lanes
    with pytest.raises(WidthMismatch):
        ServerRegistry(table=table, **{**good, "lane_pairs": ()})


def test_a_table_registry_caps_at_order_20(tmp_path):
    # two primitive polynomials of order 21: the constructor refuses the
    # table before its shape, the loader before it decodes the string
    pair = DualLfsrSpec((LfsrSpec(1 << 21 | 0b101), LfsrSpec(1 << 21 | 0b100111)))
    settings = dict(lane_pairs=(pair,), tau=0, t_range=(2, 17), rng_seed=0)
    with pytest.raises(InvalidParameter, match="caps at order 20"):
        ServerRegistry(table=np.zeros((1, 2), dtype=np.uint8), **settings)
    path = tmp_path / "r.json"
    save_registry(table_registry(make_device(k=1)), str(path))
    doc = json.loads(path.read_text())
    doc.update(k=1, n_stages=21, lane_pairs=[pair_to_json(pair)], table="not base64!")
    path.write_text(json.dumps(doc))
    with pytest.raises(InvalidParameter, match="caps at order 20"):
        load_registry(str(path))


def test_register_table_mode_requires_full_coverage():
    dev = make_device(k=2)
    table = dev.raw_crp_table()
    registry = register_from_ttp(table, dev.config.lane_pairs, tau=0)
    assert registry.mode == TABLE_MODE
    with pytest.raises(WidthMismatch):
        register_from_ttp(np.delete(table, 137, axis=1), dev.config.lane_pairs, tau=0)


def test_register_table_mode_requires_bits():
    # the reader reads each table entry as the sign of a delay sum, so an
    # entry other than 0 or 1 is refused at registration, not misread
    pairs = default_lane_pairs(8, 4)
    bits = np.random.default_rng(3).integers(0, 2, size=(4, 256))
    expected = predict_response(register_from_ttp(bits.astype(np.uint8), pairs, tau=0), 0x5A, 1)
    for table in (bits.astype(bool), bits, bits.astype(np.uint16)):
        registry = register_from_ttp(table, pairs, tau=0)
        assert np.array_equal(predict_response(registry, 0x5A, 1), expected)
    negative = bits.copy()
    negative[2, 7] = -1
    for table in (np.full((4, 256), 2, dtype=np.uint8), bits.astype(np.float64),
                  bits.astype(object), negative):
        with pytest.raises(InvalidParameter):
            register_from_ttp(table, pairs, tau=0)


def test_harvest_is_the_registry_table():
    # registration stores the harvested array as is
    dev = make_device(k=8, sigma_noise=0.3)
    harvest = make_device(k=8, sigma_noise=0.3).raw_crp_table()
    registry = run_registration(dev, policy="full")
    assert registry.table.dtype == np.uint8
    assert np.array_equal(registry.table, harvest)
    assert register_from_ttp(harvest, dev.config.lane_pairs, tau=0).table is harvest


def test_table_and_model_modes_agree():
    dev = make_device()
    by_table = table_registry(dev)
    by_model = model_registry(dev)
    assert (by_table.mode, by_model.mode) == (TABLE_MODE, MODEL_MODE)
    rng = np.random.default_rng(7)
    for _ in range(100):
        challenge = int(rng.integers(1, 256))
        mode = int(rng.integers(0, 2))
        assert np.array_equal(
            predict_response(by_table, challenge, mode),
            predict_response(by_model, challenge, mode),
        )


def test_prediction_matches_the_tag():
    dev = make_device()
    registry = model_registry(dev)
    rng = np.random.default_rng(9)
    for _ in range(200):
        challenge = int(rng.integers(1, 256))
        mode = int(rng.integers(0, 2))
        assert np.array_equal(
            predict_response(registry, challenge, mode), dev.respond(challenge, mode)
        )


def test_tag_readers_and_attacker_agree_on_every_challenge_at_zero_noise():
    dev = make_device(k=8)
    by_table, by_model = table_registry(dev), model_registry(dev)
    challenges = range(1, 256)
    for mode in (0, 1):
        tag = np.array([dev.respond(c, mode) for c in challenges])
        assert np.array_equal(tag, [predict_response(by_table, c, mode) for c in challenges])
        assert np.array_equal(tag, [predict_response(by_model, c, mode) for c in challenges])
        for lane in range(dev.config.k):
            seen, labels = collect_obfuscated_crps(
                dev, 4000, mode=mode, rng_seed=lane, lane=lane
            )
            assert set(seen.tolist()) == set(challenges)
            assert np.array_equal(labels, tag[seen - 1, lane])


def test_prediction_rejects_out_of_range():
    registry = model_registry(make_device())
    bads = (0, 1 << 8, -1, 1 << 63, 1 << 70, -(1 << 70), [5, 0], [[3], [256]], [1, 1 << 64])
    for bad in bads:
        with pytest.raises(ZeroSeed):
            predict_response(registry, bad, 1)
        with pytest.raises(ZeroSeed):
            predict_response(registry, np.asarray(bad, dtype=object), 1)


def test_challenges_and_modes_must_be_integers():
    # a cast to int64 used to truncate 3.7 to 3 and "5" to 5, a float mode
    # ended in a bare TypeError, and a bool among ints was cast to 1
    dev = make_device()
    registry = model_registry(dev)
    bads = (3.7, 5.0, "5", np.float64(5.5), True, [5, 1.5], np.array([3.0]),
            (5, True), [5, True], [[5], [np.True_]])
    with pytest.raises(InvalidParameter):
        predict_response(registry, (5, True), (1, 0))
    for bad in bads:
        with pytest.raises(InvalidParameter):
            predict_response(registry, bad, 1)
        with pytest.raises(InvalidParameter):
            predict_response(registry, 5, bad)
        with pytest.raises(InvalidParameter):
            dev.respond(bad, 1)
        with pytest.raises(InvalidParameter):
            dev.respond(5, bad)
    for mode, bit in ((np.int8(3), 1), (np.uint64(1), 1), (1 << 70, 0)):
        assert np.array_equal(predict_response(registry, 5, mode), dev.respond(5, bit))
        assert np.array_equal(dev.respond(5, mode), dev.respond(5, bit))


def test_object_arrays_must_hold_integers():
    # an object array passed the dtype check whatever it held: a float
    # element was truncated by the int64 cast, and a float mode element
    # ended in a bare TypeError
    dev = make_device(k=8)
    registry = model_registry(dev)
    bads = ([5, 6.5], [5.0], [5, "6"], [np.float64(5.0)], [5, True], [[3], [None]])
    for bad in bads:
        with pytest.raises(InvalidParameter):
            predict_response(registry, np.array(bad, dtype=object), 1)
        with pytest.raises(InvalidParameter):
            predict_response(registry, 5, np.array(bad, dtype=object))
        with pytest.raises(InvalidParameter):
            dev.respond(np.array(bad, dtype=object), 1)
    mixed = np.array([5, np.int64(6), np.uint8(7)], dtype=object)
    modes = np.array([1, np.int16(0), 1 << 70], dtype=object)
    assert np.array_equal(predict_response(registry, mixed, modes),
                          predict_response(registry, [5, 6, 7], [1, 0, 0]))
    with pytest.raises(ZeroSeed):  # a Python int beyond int64
        predict_response(registry, np.array([5, 1 << 70], dtype=object), 1)


def test_array_prediction_matches_scalar_calls():
    # challenges (3, 40) broadcast against modes (40,): one S + (k,) array,
    # bit for bit what one scalar call per element gives
    dev = make_device(k=8)
    challenges = np.random.default_rng(4).integers(1, 256, size=(3, 40))
    modes = np.arange(40) % 2
    for registry in (model_registry(dev), table_registry(dev)):
        batch = predict_response(registry, challenges, modes)
        assert batch.shape == (3, 40, 8) and batch.dtype == np.uint8
        for (i, j), challenge in np.ndenumerate(challenges):
            single = predict_response(registry, int(challenge), int(modes[j]))
            assert single.shape == (8,) and np.array_equal(batch[i, j], single)
        assert predict_response(registry, [], 1).shape == (0, 8)


def test_a_session_pair_predicts_as_its_two_scalar_calls(monkeypatch):
    # run_authentication predicts R(C1, 1) and R(C2, t & 1) with two scalar
    # calls; one batched call on the pair, as a tuple, a list or an int64
    # array, gives the same two rows on either reader, session after session
    dev = make_device(k=16)
    calls = []

    def recorded(registry, challenge, mode):
        calls.append((challenge, mode, predict_response(registry, challenge, mode)))
        return calls[-1][2]

    monkeypatch.setattr("dualpuf.protocol.predict_response", recorded)
    for registry in (table_registry(dev), model_registry(dev)):
        for _ in range(1000):
            calls.clear()
            result = run_authentication(registry, dev)
            c1, c2, t = result.session
            assert result.passed and [call[:2] for call in calls] == [(c1, 1), (c2, t & 1)]
            scalar = np.array([row for *_, row in calls])
            for pair in (tuple, list, lambda v: np.array(v, dtype=np.int64)):
                batch = predict_response(registry, pair([c1, c2]), pair([1, t & 1]))
                assert batch.dtype == np.uint8 and np.array_equal(batch, scalar)


def test_prediction_in_slices_matches_scalar_calls(monkeypatch):
    # a batch of more than one slice goes through one run_rounds call per
    # slice, whichever axis is long, each gathering at most RESPOND_SLICE
    # words, and the bits are those of one scalar call per element
    dev = make_device(k=8)
    rng = np.random.default_rng(6)
    calls = []

    def counted(*args):
        calls.append(np.size(args[1]))  # a scalar challenge goes as an int
        return run_rounds(*args)

    monkeypatch.setattr("dualpuf.obfuscator.run_rounds", counted)
    for registry in (model_registry(dev), table_registry(dev)):
        # the words of one challenge: table chunks x rounds x 2 x lanes
        words = len(registry._bank.sums.entries) * 5 * 2 * 8
        step = RESPOND_SLICE // words
        count = 2 * step + 37
        challenges = rng.integers(1, 256, size=count)
        modes = rng.integers(0, 2, size=count)
        calls.clear()
        batch = predict_response(registry, challenges, modes)
        assert batch.shape == (count, 8) and batch.dtype == np.uint8
        assert calls == [step, step, 37]
        for row, challenge, mode in zip(batch, challenges.tolist(), modes.tolist()):
            assert np.array_equal(row, predict_response(registry, challenge, mode))
        # a short leading mode axis against the long challenge axis
        calls.clear()
        both = predict_response(registry, challenges, np.array([[0], [1]]))
        assert both.shape == (2, count, 8) and len(calls) == 5
        assert np.array_equal(both[modes, np.arange(count)], batch)


def test_tag_and_registries_survive_pickling():
    # the row tables are arrays and the evaluators are built per call, so
    # a pickled tag or registry answers as the original does
    dev = make_device(k=8)
    for registry in (model_registry(dev), table_registry(dev)):
        back = pickle.loads(pickle.dumps(registry))
        assert np.array_equal(predict_response(back, 0x5A, 1), predict_response(registry, 0x5A, 1))
    assert np.array_equal(pickle.loads(pickle.dumps(dev)).respond(0x5A, 0), dev.respond(0x5A, 0))


def test_gen_session_bounds_and_determinism():
    dev = make_device()
    a = table_registry(dev, rng_seed=42)
    b = table_registry(dev, rng_seed=42)
    draws = [gen_session(a) for _ in range(300)]
    assert draws == [gen_session(b) for _ in range(300)]
    for c1, c2, t in draws:
        assert 1 <= c1 < 256 and 1 <= c2 < 256
        assert 2 <= t <= 17


def test_gen_session_tick_gap_parity_is_balanced():
    registry = table_registry(make_device(), rng_seed=3, t_range=(2, 17))
    odd = sum(gen_session(registry)[2] % 2 for _ in range(6000))
    assert abs(odd / 6000 - 0.5) < 0.025  # 3-sigma binomial band is 0.019


def test_compare_thresholds():
    base = 0b01001101
    one_off = base ^ 1 << 3
    assert compare(base, base, 8, 0) == (1, 0)
    assert compare(base, one_off, 8, 0) == (0, 1)
    assert compare(base, one_off, 8, 1) == (1, 1)
    assert compare(base, np.int64(one_off), 8, 1) == (1, 1)
    for bad in (1 << 8, -1, 5.0, "5", [base], None):
        with pytest.raises(WidthMismatch):
            compare(base, bad, 8, 0)


def test_compare_refuses_a_bool_word():
    for expected, payload in ((1, True), (0, False)):
        with pytest.raises(WidthMismatch):
            compare(expected, payload, 8, 0)


NOT_INTEGERS = st.one_of(
    st.floats(), st.text(max_size=3), st.lists(st.integers(0, 1), max_size=3),
    st.none(), st.just(np.float64(1.0)), st.just(np.bool_(True)),
)


@given(k=st.integers(1, 130), data=st.data())
def test_word_compare_matches_the_bit_array_oracle(k, data):
    # the popcount of the XOR of two words is the lane distance of their
    # unpacked bits, at any k, beyond 64 lanes included
    tau = data.draw(st.integers(0, k - 1))
    expected = data.draw(st.integers(0, (1 << k) - 1))
    flips = data.draw(st.sets(st.integers(0, k - 1)))
    payload = expected ^ sum(1 << lane for lane in flips)
    if payload < 1 << 63 and data.draw(st.booleans()):
        payload = np.int64(payload)
    bits = reference.unpack(expected, k)
    decision, distance = compare(expected, payload, k, tau)
    assert decision == reference.compare(bits, reference.unpack(payload, k), tau)
    assert distance == len(flips)
    # out of range or not an integer: the bit-array path raised as well
    bad = data.draw(st.one_of(
        st.integers(1 << k, 1 << k + 70), st.integers(-(1 << k + 70), -1), NOT_INTEGERS,
    ))
    with pytest.raises(WidthMismatch):
        reference.compare(bits, reference.unpack(bad, k), tau)
    with pytest.raises(WidthMismatch):
        compare(expected, bad, k, tau)


def test_table_lookup():
    dev = make_device(k=3)
    raw = {c: dev.raw_crp_query(c) for c in (1, 99, 255)}
    registry = table_registry(dev)
    for challenge, bits in raw.items():
        assert np.array_equal(registry.table[:, challenge], bits)


def test_registry_persistence_round_trip(tmp_path):
    dev = make_device()
    for build, name in ((table_registry, "t.json"), (model_registry, "m.json")):
        registry = build(dev, rng_seed=11)
        path = tmp_path / name
        save_registry(registry, str(path))
        back = load_registry(str(path))
        assert (back.mode, back.k, back.n_stages) == (
            registry.mode, registry.k, registry.n_stages,
        )
        assert back.lane_pairs == registry.lane_pairs
        assert (back.tau, back.t_range) == (registry.tau, registry.t_range)
        if registry.mode == TABLE_MODE:
            assert np.array_equal(back.table, registry.table)
        else:
            assert np.array_equal(back.weights, registry.weights)
            assert np.array_equal(back.offsets, registry.offsets)
        rng = np.random.default_rng(1)
        for _ in range(50):
            challenge = int(rng.integers(1, 256))
            assert np.array_equal(
                predict_response(back, challenge, 1),
                predict_response(registry, challenge, 1),
            )
        # the reloaded generator restarts from the stored seed
        fresh = build(dev, rng_seed=11)
        assert [gen_session(back) for _ in range(20)] == [
            gen_session(fresh) for _ in range(20)
        ]


def test_malformed_registry_files_raise_simulation_errors(tmp_path):
    path = tmp_path / "r.json"
    doc = json.loads((DATA / "table.json").read_text())  # version 0, k=8
    broken = [
        {key: value for key, value in doc.items() if key != "tau"},
        {**doc, "table": doc["table"][:-1]},
        {**doc, "table": doc["table"][:-1] + ["zz"]},
        {**doc, "table": doc["table"][:-1] + ["1" + "0" * 4]},  # wider than k=8
        {**doc, "k": "4"},
        {**doc, "voter_t": 4.5},  # a width no tag votes with
        {key: value for key, value in doc.items() if key != "voter_t"},
        [doc],
    ]
    # a parameter registry with the last weight dropped from every row, an
    # infinite weight, which used to pass 8 sessions in 20, an offset that is
    # NaN, or weights whose delay sums overflow to infinities and NaNs
    model = doc = json.loads((DATA / "model.json").read_text())
    broken.append({**doc, "weights": [row[:-1] for row in doc["weights"]]})
    broken.append({**doc, "offsets": doc["offsets"][:-1]})
    third = doc["weights"][2]
    broken.append({**doc, "weights": doc["weights"][:2] + [[float("inf")] + third[1:]] + doc["weights"][3:]})
    broken.append({**doc, "offsets": doc["offsets"][:-1] + [float("nan")]})
    broken.append({**doc, "weights": [[1e308] * len(row) for row in doc["weights"]]})
    # version 1: k=4 at order 8, so the table is 128 bytes
    registry = table_registry(make_device())
    save_registry(registry, str(path))
    doc = json.loads(path.read_text())
    # a float or a bool where an integer belongs, in the version-0 table and
    # model and the version-1 table; a float k or n_stages used to load and
    # end the first session in a TypeError, a k of 2^70 a version-0 table in
    # an OverflowError; and a mode that names no registry kind, or a k or
    # n_stages that disagrees with the register pairs (8, 8 and 4 of order 8)
    for base in (json.loads((DATA / "table.json").read_text()), model, doc):
        for key, value in (("k", 8.0), ("n_stages", 8.0), ("k", 1 << 70), ("tau", 0.5),
                           ("tau", True), ("t_range", [2.5, 17]), ("rng_seed", True),
                           ("mode", "nonsense"), ("k", 7), ("n_stages", 9)):
            broken.append({**base, key: value})
    packed = pack_bits(registry.table.reshape(-1)).tobytes()
    broken += [
        {**doc, "table": list(packed)},
        {**doc, "table": 7},
        {**doc, "table": "not base64!"},
        {**doc, "table": doc["table"][:-1]},
        {**doc, "table": base64.b64encode(packed[:-1]).decode()},
        {**doc, "table": base64.b64encode(packed + b"\0").decode()},
        {**doc, "n_stages": 40},
        {key: value for key, value in doc.items() if key != "table"},
    ]
    broken += [{**doc, "version": version} for version in (2, -1, "1", 1.0, True, None)]
    for bad in broken:
        path.write_text(json.dumps(bad))
        with pytest.raises(SimulationError):
            load_registry(str(path))
    for text in ("{", "7", '"version"'):
        path.write_text(text)
        with pytest.raises(SimulationError):
            load_registry(str(path))
    with pytest.raises(SimulationError):
        load_registry(str(tmp_path / "missing.json"))


def test_file_formats_are_pinned(tmp_path):
    # sha256 of files written for fixed seeds; a codec change that moves one
    # byte fails here.  tests/data keeps the files of the release that
    # introduced these formats, before registry files had a version
    version_0 = {
        "tag.json": "be1058abc66a6d06faffc76735f816acc765ccc8783ba60e396204013245d34a",
        "table.json": "c25ee2332d46206db146b6a3ee735a2bfe2a13e682c1542d2f29c421e0a79054",
        "model.json": "6a39939cb556fb23960fd09d6352ddb8b9f5eb0f61eebc569b92f533d411bd34",
        # at sigma 0 the adjustment still draws one noise block per round
        "tag0.json": "3ffb919c9a05c25bb107de2fd80edac88f0e21dfbd98bf7208f7bf79982bf9ef",
    }
    pins = {
        "tag.json": version_0["tag.json"],
        "tag0.json": version_0["tag0.json"],
        "table.json": "5ced740927867c985481e99bc367a605dc6573470c742fade9a7b3cace49ce72",
        "model.json": "5c9ba616a037c2df2d38a13dff60290850b511cafb12e1a430bf04ae4acf4382",
    }
    for name, digest in version_0.items():
        assert hashlib.sha256((DATA / name).read_bytes()).hexdigest() == digest, name
    save_device(make_device(k=8, n_stages=8, device_seed=7), str(tmp_path / "tag0.json"))
    dev = make_device(k=8, n_stages=8, device_seed=7, sigma_noise=0.3)
    save_device(dev, str(tmp_path / "tag.json"))
    save_registry(run_registration(dev, policy="full", rng_seed=1), str(tmp_path / "table.json"))
    dev = make_device(k=8, n_stages=8, device_seed=7, sigma_noise=0.3)
    save_registry(run_registration(dev, policy="params", rng_seed=1), str(tmp_path / "model.json"))
    for name, digest in pins.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


def test_version_0_registries_load_as_registered(tmp_path):
    # each committed registry loads to what a fresh registration builds, and
    # is written back as the version-1 file of that registration
    for name, policy in (("table.json", "full"), ("model.json", "params")):
        dev = make_device(k=8, n_stages=8, device_seed=7, sigma_noise=0.3)
        fresh = run_registration(dev, policy=policy, rng_seed=1)
        save_registry(fresh, str(tmp_path / "fresh.json"))
        back = load_registry(str(DATA / name))
        for field in ("mode", "k", "n_stages", "lane_pairs", "tau", "t_range", "rng_seed"):
            assert getattr(back, field) == getattr(fresh, field), (name, field)
        for field in ("table", "weights", "offsets"):
            assert np.array_equal(getattr(back, field), getattr(fresh, field)), (name, field)
        assert [gen_session(back) for _ in range(20)] == [gen_session(fresh) for _ in range(20)]
        save_registry(back, str(tmp_path / "back.json"))
        assert (tmp_path / "back.json").read_bytes() == (tmp_path / "fresh.json").read_bytes()


def test_table_persistence_stays_within_the_table(tmp_path):
    # n=16, k=64: the table is 4 MiB of uint8 bits; saving may allocate at
    # most that much, and loading twice that, the loaded table included
    table = np.random.default_rng(5).integers(0, 2, (64, 1 << 16), dtype=np.uint8)
    registry = register_from_ttp(table, default_lane_pairs(16, 64), tau=0)
    path = str(tmp_path / "r.json")
    tracemalloc.start()
    try:
        save_registry(registry, path)
        saved = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        back = load_registry(path)
        loaded = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert saved <= table.nbytes, saved
    assert loaded <= 2 * table.nbytes, loaded
    assert np.array_equal(back.table, table)


def test_noise_order_is_pinned():
    # sha256 of noisy outputs taken before the lanes were evaluated all
    # rounds at once; an engine that draws or consumes noise in another
    # order fails here
    dev = make_device(k=64, n_stages=12, device_seed=7, sigma_noise=0.4, voter_t=5)
    rng = np.random.default_rng(11)
    challenges = rng.integers(1, 1 << 12, size=2000)
    modes = rng.integers(0, 2, size=2000)
    digest = hashlib.sha256()
    for challenge, mode in zip(challenges.tolist(), modes.tolist()):
        digest.update(dev.respond(challenge, mode).tobytes())
    assert digest.hexdigest() == "65c972b7b332f0e994431475bc732b2812584e40473fb5f51750c1f57c027eeb"

    dev = make_device(k=1, n_stages=12, device_seed=7, sigma_noise=0.4, voter_t=5)
    challenges, labels = collect_obfuscated_crps(dev, 5000, mode=1, rng_seed=3)
    text = "".join(f"{c} {y}\n" for c, y in zip(challenges.tolist(), labels.tolist()))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "f93432161abe9505f23030d4447000136fa449a1fdc22d173705107b34fb6cd7"
    )


def test_prediction_does_not_mutate_the_registry():
    registry = table_registry(make_device())
    snapshot = registry.table.copy()
    for challenge in (1, 50, 200):
        predict_response(registry, challenge, 1)
        predict_response(registry, challenge, 0)
    assert np.array_equal(registry.table, snapshot)
