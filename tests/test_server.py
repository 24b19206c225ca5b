"""Reader-side registry: enrollment material, prediction, session draws,
comparison, and persistence."""

import hashlib
import json
import pickle

import numpy as np
import pytest

from conftest import make_device
from dualpuf.adversary import collect_obfuscated_crps
from dualpuf.apuf import sample_instance
from dualpuf.device import default_lane_pairs, save_device
from dualpuf.errors import (
    SimulationError,
    WidthMismatch,
    ZeroSeed,
)
from dualpuf.obfuscator import run_rounds
from dualpuf.protocol import run_registration
from dualpuf.server import (
    DEFAULT_T_RANGE,
    MODEL_MODE,
    PREDICT_SLICE,
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


def test_default_t_range_is_parity_balanced_and_wire_safe():
    t_min, t_max = DEFAULT_T_RANGE
    assert (t_min, t_max) == (2, 17)
    values = list(range(t_min, t_max + 1))
    assert sum(v % 2 for v in values) * 2 == len(values)


def test_registry_validation():
    dev = make_device(k=2)
    table = dev.raw_crp_table()
    good = dict(
        k=2, n_stages=8, lane_pairs=dev.config.lane_pairs, rng_seed=0,
        t_range=(2, 17),
    )
    with pytest.raises(ValueError):
        ServerRegistry(mode="nonsense", tau=0, **good)
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


def test_register_table_mode_requires_full_coverage():
    dev = make_device(k=2)
    table = dev.raw_crp_table()
    registry = register_from_ttp(table, dev.config.lane_pairs, tau=0)
    assert registry.mode == TABLE_MODE
    with pytest.raises(WidthMismatch):
        register_from_ttp(np.delete(table, 137, axis=1), dev.config.lane_pairs, tau=0)


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


def test_prediction_in_slices_matches_scalar_calls(monkeypatch):
    # a batch of more than one slice goes through one run_rounds call per
    # slice, whichever axis is long, and the bits are those of one scalar
    # call per element
    dev = make_device(k=8)
    rng = np.random.default_rng(6)
    count = 2 * PREDICT_SLICE + 37
    challenges = rng.integers(1, 256, size=count)
    modes = rng.integers(0, 2, size=count)
    calls = []

    def counted(*args):
        calls.append(len(args[1]))
        return run_rounds(*args)

    monkeypatch.setattr("dualpuf.server.run_rounds", counted)
    for registry in (model_registry(dev), table_registry(dev)):
        calls.clear()
        batch = predict_response(registry, challenges, modes)
        assert batch.shape == (count, 8) and batch.dtype == np.uint8
        assert calls == [PREDICT_SLICE, PREDICT_SLICE, 37]
        for row, challenge, mode in zip(batch, challenges.tolist(), modes.tolist()):
            assert np.array_equal(row, predict_response(registry, challenge, mode))
        # a short leading mode axis against the long challenge axis
        calls.clear()
        both = predict_response(registry, challenges, np.array([[0], [1]]))
        assert both.shape == (2, count, 8) and len(calls) == 5
        assert np.array_equal(both[modes, np.arange(count)], batch)


def test_tag_and_registries_survive_pickling():
    # the shift tables are arrays and the evaluators are built per call, so
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
    base = np.array([1, 0, 1, 1, 0, 0, 1, 0], dtype=np.uint8)
    one_off = base.copy()
    one_off[3] ^= 1
    assert compare(base, base, 0) == 1
    assert compare(base, one_off, 0) == 0
    assert compare(base, one_off, 1) == 1
    with pytest.raises(WidthMismatch):
        compare(base, base[:4], 0)


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
        assert (back.tau, back.t_range, back.voter_t) == (
            registry.tau, registry.t_range, registry.voter_t,
        )
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
    save_registry(table_registry(make_device()), str(path))
    doc = json.loads(path.read_text())
    broken = [
        {key: value for key, value in doc.items() if key != "tau"},
        {**doc, "table": doc["table"][:-1]},
        {**doc, "table": doc["table"][:-1] + ["zz"]},
        {**doc, "table": doc["table"][:-1] + ["1" + "0" * 4]},  # wider than k=4
        {**doc, "k": "4"},
        [doc],
    ]
    # a parameter registry with the last weight dropped from every row
    save_registry(model_registry(make_device()), str(path))
    doc = json.loads(path.read_text())
    broken.append({**doc, "weights": [row[:-1] for row in doc["weights"]]})
    broken.append({**doc, "offsets": doc["offsets"][:-1]})
    for bad in broken:
        path.write_text(json.dumps(bad))
        with pytest.raises(SimulationError):
            load_registry(str(path))
    path.write_text("{")
    with pytest.raises(SimulationError):
        load_registry(str(path))
    with pytest.raises(SimulationError):
        load_registry(str(tmp_path / "missing.json"))


def test_file_formats_are_pinned(tmp_path):
    # sha256 of files written for fixed seeds by the release that introduced
    # these formats; a codec change that moves one byte fails here
    pins = {
        "tag.json": "be1058abc66a6d06faffc76735f816acc765ccc8783ba60e396204013245d34a",
        "table.json": "c25ee2332d46206db146b6a3ee735a2bfe2a13e682c1542d2f29c421e0a79054",
        "model.json": "6a39939cb556fb23960fd09d6352ddb8b9f5eb0f61eebc569b92f533d411bd34",
        # at sigma 0 the adjustment still draws one noise block per round
        "tag0.json": "3ffb919c9a05c25bb107de2fd80edac88f0e21dfbd98bf7208f7bf79982bf9ef",
    }
    save_device(make_device(k=8, n_stages=8, device_seed=7), str(tmp_path / "tag0.json"))
    dev = make_device(k=8, n_stages=8, device_seed=7, sigma_noise=0.3)
    save_device(dev, str(tmp_path / "tag.json"))
    run_registration(dev, str(tmp_path / "table.json"), policy="full", rng_seed=1)
    dev = make_device(k=8, n_stages=8, device_seed=7, sigma_noise=0.3)
    run_registration(dev, str(tmp_path / "model.json"), policy="params", rng_seed=1)
    for name, digest in pins.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


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
