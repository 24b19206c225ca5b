"""Exhaustive sigma-0 identity at small orders.

For a k=64 tag at each order 3-10, every (challenge, mode) input goes
through every evaluation path: the tag's PufDevice.respond one input at a
time, predict_response as one array call per registry (table and model
mode), and the pure-Python reference of tests/reference.py on a spread of
lanes.  At sigma 0 they must agree bit for bit on every input.  Under all
of them, the table kernel's delay sum has the sign of the einsum oracle's at
every raw challenge of every lane.  One figure
line per order is printed at the end of the run, after the acceptance
criteria.
"""

import time

import numpy as np
import pytest

import reference
from conftest import make_device
from dualpuf.apuf import lane_sums, lane_tables, stack_lanes, table_positions
from dualpuf.server import predict_response, register_from_ttp

LANES = 64
REFERENCE_LANES = 8  # the reference is plain Python; 8 lanes keep the module fast
FIGURE_LOG: list[str] = []


@pytest.mark.parametrize("order", range(3, 11))
def test_every_input_agrees_on_every_path(order):
    t0 = time.perf_counter()
    device = make_device(k=LANES, n_stages=order, device_seed=order)
    pairs = device.config.lane_pairs
    challenges = np.arange(1, 1 << order)
    tag = np.array([[device.respond(int(c), mode) for c in challenges] for mode in (0, 1)])
    assert 0 < tag.mean() < 1

    model = register_from_ttp(list(device.lanes), pairs, tau=0)
    table = register_from_ttp(device.raw_crp_table(), pairs, tau=0)
    modes = np.array([[0], [1]])  # broadcasts against the challenges to (2, 2^n - 1)
    for registry in (table, model):
        assert np.array_equal(predict_response(registry, challenges, modes), tag)

    for lane in np.linspace(0, LANES - 1, REFERENCE_LANES).astype(int):
        for mode in (0, 1):
            bits = [reference.response(pairs[lane], device.lanes[lane], c, mode)
                    for c in challenges.tolist()]
            assert bits == tag[mode, :, lane].tolist()

    weights, offsets = stack_lanes(device.lanes, order)
    raw = np.arange(1 << order)[:, None]
    tables = lane_tables(weights, offsets)
    positions = table_positions(tables, raw)
    sums = lane_sums(tables, [p + start for p, start in zip(positions, tables.starts)])
    assert np.array_equal(np.sign(sums), np.sign(reference.delay_sums(raw, weights, offsets)))

    mode_blind = int((tag[0] == tag[1]).all(axis=-1).sum())
    elapsed = time.perf_counter() - t0
    FIGURE_LOG.append(
        f"order {order:2d} PASS: {tag.shape[0] * tag.shape[1]} inputs x {LANES} lanes, "
        f"tag = table = model, reference on {REFERENCE_LANES} lanes, "
        f"{mode_blind} mode-blind challenges in {elapsed:.2f}s"
    )
