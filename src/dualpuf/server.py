"""Reader-side registry: per-lane prediction material harvested at
enrollment, session generation, and the thresholded response comparator.

Prediction mirrors the tag exactly: the same register pairs, the same
selection loop, the same serialization.  Lane material is either a full
naked-CRP table or the exact lane parameters evaluated noiselessly.  The
table is the (k, 2^n) uint8 array that PufDevice.raw_crp_table harvests,
one column per raw challenge (column 0 unused), practical up to order ~20.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .apuf import stack_lanes
from .device import DEFAULT_VOTER_T, deserialize_response, serialize_response
from .errors import InvalidParameter, WidthMismatch
from .obfuscator import (
    DualLfsrSpec, check_external_challenge, check_lane_pairs, run_rounds, shift_tables,
)
from .persist import atomic_write, pair_from_json, pair_to_json, reading
from .postproc import voted_round

TABLE_MODE = "table"
MODEL_MODE = "model"
MAX_TABLE_ORDER = 20
DEFAULT_T_RANGE = (2, 17)
PREDICT_SLICE = 256  # challenges of one predict_response batch per run_rounds call


def default_tau(k: int, sigma_noise: float) -> int:
    """0 for noiseless experiments, else a tight 10% of the lane count."""
    return 0 if sigma_noise == 0 else math.ceil(0.1 * k)


@dataclass
class ServerRegistry:
    """Everything the reader holds about one enrolled tag."""

    mode: str
    k: int
    n_stages: int
    lane_pairs: tuple[DualLfsrSpec, ...]
    tau: int
    t_range: tuple[int, int]
    rng_seed: int
    voter_t: int = DEFAULT_VOTER_T
    table: np.ndarray | None = None      # (k, 2^N) uint8, column 0 unused
    weights: np.ndarray | None = None    # (k, N+1)
    offsets: np.ndarray | None = None    # (k,)

    def __post_init__(self) -> None:
        if self.mode not in (TABLE_MODE, MODEL_MODE):
            raise InvalidParameter(f"unknown registry mode {self.mode!r}")
        if not 0 <= self.tau < self.k:
            raise InvalidParameter(f"tau {self.tau} outside [0, k={self.k})")
        t_min, t_max = self.t_range
        # a gap of 1 would put C2 on the tick of the first response, and
        # gen_session draws t as one int64
        if not 2 <= t_min <= t_max <= np.iinfo(np.int64).max:
            raise InvalidParameter(f"bad t range [{t_min}, {t_max}]")
        check_lane_pairs(self.lane_pairs, self.k, self.n_stages)
        if self.mode == TABLE_MODE and self.n_stages > MAX_TABLE_ORDER:
            raise InvalidParameter(
                f"table mode caps at order {MAX_TABLE_ORDER}, got {self.n_stages}"
            )
        if self.mode == TABLE_MODE and np.shape(self.table) != (self.k, 1 << self.n_stages):
            raise WidthMismatch(
                f"table shape {np.shape(self.table)} for k={self.k} at order {self.n_stages}"
            )
        if self.mode == MODEL_MODE and (
            np.shape(self.weights) != (self.k, self.n_stages + 1)
            or np.shape(self.offsets) != (self.k,)
        ):
            raise WidthMismatch(
                f"weights shape {np.shape(self.weights)}, offsets shape "
                f"{np.shape(self.offsets)} for k={self.k} at order {self.n_stages}"
            )
        self._rng = np.random.default_rng(self.rng_seed)
        self._tables = shift_tables([pair.feeds for pair in self.lane_pairs])
        # column c of lane i is word i * 2^n + c of the flattened table
        self._lane_starts = np.arange(self.k) << self.n_stages

    @property
    def rounds_per_response(self) -> int:
        return self.lane_pairs[0].rounds_per_response


def register_from_ttp(
    lane_data,
    lane_pairs: tuple[DualLfsrSpec, ...],
    tau: int,
    t_range: tuple[int, int] = DEFAULT_T_RANGE,
    rng_seed: int = 0,
    voter_t: int = DEFAULT_VOTER_T,
) -> ServerRegistry:
    """Build a registry from enrollment material.

    lane_data is either the (k, 2^n) uint8 naked-CRP table that
    PufDevice.raw_crp_table harvests, stored as is (table mode; the
    registry's shape check rejects a table missing a column), or a sequence
    of lane parameter instances (model mode; noise is irrelevant because the
    server predicts noiselessly).
    """
    if not lane_pairs:
        raise WidthMismatch("no register pairs, so no lanes to register")
    k, n_stages = len(lane_pairs), lane_pairs[0].order
    common = dict(
        k=k, n_stages=n_stages, lane_pairs=lane_pairs,
        tau=tau, t_range=t_range, rng_seed=rng_seed, voter_t=voter_t,
    )
    if isinstance(lane_data, np.ndarray):
        return ServerRegistry(mode=TABLE_MODE, table=lane_data, **common)
    lanes = list(lane_data)
    if len(lanes) != k:
        raise WidthMismatch(f"{len(lanes)} lane models for k={k}")
    weights, offsets = stack_lanes(lanes, n_stages)
    return ServerRegistry(mode=MODEL_MODE, weights=weights, offsets=offsets, **common)


def predict_response(registry: ServerRegistry, challenge, mode) -> np.ndarray:
    """R_m: the tag responses the server expects, lane axis last.

    challenge and mode broadcast to a shape S, and the S + (k,) uint8
    result comes from one run_rounds call per PREDICT_SLICE elements of S:
    a scalar pair gives one (k,) response, and run_authentication predicts
    a session's (C1, mode 1) and (C2, t & 1) together as soon as it draws
    them.  Any challenge outside the nonzero n-bit range raises ZeroSeed.
    """
    seeds = check_external_challenge(challenge, registry.n_stages)[..., None]
    if registry.mode == TABLE_MODE:
        table, lane_starts = registry.table, registry._lane_starts

        def naked(candidates: np.ndarray) -> np.ndarray:
            return table.take(candidates + lane_starts)

    else:
        naked = voted_round(registry.weights, registry.offsets)

    seeds, modes = np.broadcast_arrays(seeds, np.asarray(mode)[..., None] & 1)
    shape = seeds.shape[:-1] + (registry.k,)
    # noiseless, so slices of the rows give the same bits, whichever axis is
    # long, and hold one slice's candidates, features and sums at a time; an
    # empty batch still makes one call, on a (0, 1) slice
    seeds, modes = seeds.reshape(-1, 1), modes.reshape(-1, 1)
    rounds, tables = registry.rounds_per_response, registry._tables
    return np.concatenate([
        run_rounds(tables, seeds[i:i + PREDICT_SLICE], modes[i:i + PREDICT_SLICE], rounds, naked)
        for i in range(0, max(len(seeds), 1), PREDICT_SLICE)
    ]).reshape(shape)


def gen_session(registry: ServerRegistry) -> tuple[int, int, int]:
    """Draw (C1, C2, t): independent uniform nonzero challenges and a
    uniform tick gap from the registry's range."""
    rng = registry._rng
    size = 1 << registry.n_stages
    c1 = int(rng.integers(1, size))
    c2 = int(rng.integers(1, size))
    t_min, t_max = registry.t_range
    t = int(rng.integers(t_min, t_max + 1))
    return c1, c2, t


def compare(r_m: np.ndarray, r_p: np.ndarray, tau: int) -> int:
    """1 iff the responses differ in at most tau lanes."""
    r_m = np.asarray(r_m, dtype=np.uint8)
    r_p = np.asarray(r_p, dtype=np.uint8)
    if r_m.shape != r_p.shape:
        raise WidthMismatch(f"response widths differ: {r_m.shape} vs {r_p.shape}")
    return 1 if int((r_m ^ r_p).sum()) <= tau else 0


# -- persistence -------------------------------------------------------------


def save_registry(registry: ServerRegistry, path: str) -> None:
    """Persist a registry as a JSON document; a table is one hex word per
    challenge, lane 0 in bit 0."""
    doc = {
        "mode": registry.mode,
        "k": registry.k,
        "n_stages": registry.n_stages,
        "voter_t": registry.voter_t,
        "tau": registry.tau,
        "t_range": list(registry.t_range),
        "rng_seed": registry.rng_seed,
        "lane_pairs": [pair_to_json(p) for p in registry.lane_pairs],
    }
    if registry.mode == TABLE_MODE:
        doc["table"] = [f"{word:x}" for word in serialize_response(registry.table)]
    else:
        doc["weights"] = [[float(w) for w in row] for row in registry.weights]
        doc["offsets"] = [float(o) for o in registry.offsets]
    atomic_write(path, json.dumps(doc))


def load_registry(path: str) -> ServerRegistry:
    """Read back a registry written by save_registry.  A file that cannot
    be read, is not JSON, lacks a key or holds a value of the wrong type,
    range or shape raises SimulationError."""
    with reading(path, "registry file") as fh:
        doc = json.load(fh)
        kwargs = dict(
            mode=doc["mode"],
            k=doc["k"],
            n_stages=doc["n_stages"],
            lane_pairs=tuple(pair_from_json(p) for p in doc["lane_pairs"]),
            tau=doc["tau"],
            t_range=tuple(doc["t_range"]),
            rng_seed=doc["rng_seed"],
            voter_t=doc["voter_t"],
        )
        if doc["mode"] == TABLE_MODE:
            kwargs["table"] = deserialize_response([int(w, 16) for w in doc["table"]], doc["k"])
        else:
            kwargs["weights"] = np.array(doc["weights"])
            kwargs["offsets"] = np.array(doc["offsets"])
        return ServerRegistry(**kwargs)
