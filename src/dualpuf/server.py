"""Reader-side registry: per-lane prediction material harvested at
enrollment, session generation, and the thresholded response comparator.

Prediction mirrors the tag exactly: a LaneBank of the same register pairs
answers as the tag's does, at sigma 0.  Lane material, the bank's delay-sum
tables, is either the exact lane parameters' or a full naked-CRP table as
tables of one chunk: the (k, 2^n) 0/1 bits that PufDevice.raw_crp_table
harvests, one column per raw challenge (column 0 unused), up to order ~20.

A registry file is a JSON document.  save_registry writes version 1, where
a table is its bits packed lane after lane, eight to a byte, in one base64
string; load_registry also reads version 0, which has no version key, holds
the tag's voter width and stores a table as one hex word per challenge.
"""

from __future__ import annotations

import base64
import json
import math
from dataclasses import dataclass

import numpy as np

from .apuf import LaneTables, lane_tables, stack_lanes
from .device import pack_bits, unpack_bits
from .errors import InvalidParameter, WidthMismatch, is_integer
from .obfuscator import DualLfsrSpec, LaneBank, check_lane_pairs
from .persist import atomic_write, pair_from_json, pair_to_json, reading
from .postproc import voter_noise

TABLE_MODE = "table"
MODEL_MODE = "model"
MAX_TABLE_ORDER = 20
DEFAULT_T_RANGE = (2, 17)
FILE_VERSION = 1


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
    table: np.ndarray | None = None      # (k, 2^N) 0/1 bits, column 0 unused
    weights: np.ndarray | None = None    # (k, N+1)
    offsets: np.ndarray | None = None    # (k,)

    def __post_init__(self) -> None:
        if self.mode not in (TABLE_MODE, MODEL_MODE):
            raise InvalidParameter(f"unknown registry mode {self.mode!r}")
        t_min, t_max = self.t_range
        numbers = self.k, self.n_stages, self.tau, t_min, t_max, self.rng_seed
        if not all(map(is_integer, numbers)) or self.rng_seed < 0:
            raise InvalidParameter(f"k, n_stages, tau, t range, seed {numbers}: not integers >= 0")
        if not 0 <= self.tau < self.k:
            raise InvalidParameter(f"tau {self.tau} outside [0, k={self.k})")
        # a gap of 1 would put C2 on the tick of the first response, and
        # gen_session draws t as one int64
        if not 2 <= t_min <= t_max <= np.iinfo(np.int64).max:
            raise InvalidParameter(f"bad t range [{t_min}, {t_max}]")
        check_lane_pairs(self.lane_pairs, self.k, self.n_stages)
        if self.mode == MODEL_MODE:
            shapes = np.shape(self.weights), np.shape(self.offsets)
            if shapes != ((self.k, self.n_stages + 1), (self.k,)):
                raise WidthMismatch(
                    f"weights and offsets shapes {shapes} for k={self.k} at order {self.n_stages}"
                )
            sums = lane_tables(self.weights, self.offsets)
        else:
            table = np.asarray(self.table)
            if self.n_stages > MAX_TABLE_ORDER:
                raise InvalidParameter(
                    f"table mode caps at order {MAX_TABLE_ORDER}, got {self.n_stages}"
                )
            if table.shape != (self.k, 1 << self.n_stages):
                raise WidthMismatch(
                    f"table shape {table.shape} for k={self.k} at order {self.n_stages}"
                )
            # a bit outside 0 and 1 would read as the sign of a delay sum
            if table.dtype.kind not in "biu" or table.min() < 0 or table.max() > 1:
                raise InvalidParameter(f"table of {table.dtype} holds entries other than 0 and 1")
            # column c of lane i is entry i * 2^n + c of the one chunk
            starts = np.arange(self.k) << self.n_stages
            sums = LaneTables((self.n_stages,), (table.reshape(-1),), (starts,), ())
        self._bank = LaneBank.build(self.lane_pairs, sums)
        self._rng = np.random.default_rng(self.rng_seed)


def register_from_ttp(
    lane_data,
    lane_pairs: tuple[DualLfsrSpec, ...],
    tau: int,
    t_range: tuple[int, int] = DEFAULT_T_RANGE,
    rng_seed: int = 0,
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
        tau=tau, t_range=t_range, rng_seed=rng_seed,
    )
    if isinstance(lane_data, np.ndarray):
        return ServerRegistry(mode=TABLE_MODE, table=lane_data, **common)
    lanes = list(lane_data)
    if len(lanes) != k:
        raise WidthMismatch(f"{len(lanes)} lane models for k={k}")
    weights, offsets = stack_lanes(lanes, n_stages)
    return ServerRegistry(mode=MODEL_MODE, weights=weights, offsets=offsets, **common)


def predict_response(registry: ServerRegistry, challenge, mode) -> np.ndarray:
    """R_m: the tag responses the server expects, an S + (k,) uint8 array
    for a challenge and a mode that broadcast to a shape S.  run_authentication
    predicts a session's (C1, mode 1) and (C2, t & 1) in one call.  A
    challenge outside the nonzero n-bit range raises ZeroSeed, and a
    challenge or mode that is not an integer InvalidParameter."""
    return registry._bank.respond(challenge, mode)


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


def compare(expected: int, payload, k: int, tau: int) -> tuple[int, int]:
    """(1 iff a k-bit response word is within tau flipped lanes of the
    expected word, that lane distance).  A payload that is not an integer or
    does not fit k lanes raises WidthMismatch."""
    if not isinstance(payload, (int, np.integer)):
        raise WidthMismatch(f"response {payload!r} is not an integer word")
    word = int(payload)
    if not 0 <= word < 1 << k:
        raise WidthMismatch(f"response {word:#x} does not fit {k} lanes")
    distance = (expected ^ word).bit_count()
    return int(distance <= tau), distance


# -- persistence -------------------------------------------------------------


def save_registry(registry: ServerRegistry, path: str) -> None:
    """Persist a registry as a version-1 JSON document.  A table is
    pack_bits over its bits, lane after lane, as one base64 string, so its
    k * 2^n bits take about k * 2^n / 6 bytes of file."""
    doc = {
        "version": FILE_VERSION,
        "mode": registry.mode,
        "k": registry.k,
        "n_stages": registry.n_stages,
        "tau": registry.tau,
        "t_range": list(registry.t_range),
        "rng_seed": registry.rng_seed,
        "lane_pairs": [pair_to_json(p) for p in registry.lane_pairs],
    }
    if registry.mode == TABLE_MODE:
        packed = pack_bits(np.ravel(registry.table))
        doc["table"] = base64.b64encode(packed).decode("ascii")
    else:
        doc["weights"] = [[float(w) for w in row] for row in registry.weights]
        doc["offsets"] = [float(o) for o in registry.offsets]
    atomic_write(path, json.dumps(doc))


def _unpacked_table(text: str, k: int, n_stages: int) -> np.ndarray:
    """The (k, 2^n) bits of a version-1 table string."""
    if not 0 <= n_stages <= MAX_TABLE_ORDER:
        raise InvalidParameter(f"table mode caps at order {MAX_TABLE_ORDER}, got {n_stages}")
    packed = base64.b64decode(text, validate=True)
    count = k << n_stages
    if len(packed) != (count + 7) // 8:
        raise WidthMismatch(f"table of {len(packed)} bytes for k={k} at order {n_stages}")
    return unpack_bits(np.frombuffer(packed, dtype=np.uint8), count).reshape(k, -1)


def load_registry(path: str) -> ServerRegistry:
    """Read back a registry file of version 0 or 1.  A file that cannot be
    read, is not JSON, names another version, lacks a key or holds a value
    of the wrong type, range or shape raises SimulationError."""
    with reading(path, "registry file") as fh:
        doc = json.load(fh)
        version = doc["version"] if "version" in doc else 0
        if type(version) is not int or version not in (0, FILE_VERSION):
            raise InvalidParameter(f"registry file version {version!r} is not 0 or 1")
        if version == 0:  # the width of a voter the reader never ran
            voter_noise((), 0.0, doc["voter_t"], None)
        kwargs = dict(
            mode=doc["mode"],
            k=doc["k"],
            n_stages=doc["n_stages"],
            lane_pairs=tuple(pair_from_json(p) for p in doc["lane_pairs"]),
            tau=doc["tau"],
            t_range=tuple(doc["t_range"]),
            rng_seed=doc["rng_seed"],
        )
        if doc["mode"] == TABLE_MODE and version == 0:  # hex words, lane i in bit i
            k = len(kwargs["lane_pairs"])  # the registry checks the file's k against it
            words = [int(w, 16) for w in doc["table"]]
            if any(w >> k for w in words):  # a negative word shifts to -1
                raise WidthMismatch(f"table words do not all fit {k} lanes")
            raw = b"".join(w.to_bytes((k + 7) // 8, "little") for w in words)
            kwargs["table"] = unpack_bits(np.frombuffer(raw, np.uint8).reshape(len(words), -1), k).T
        elif doc["mode"] == TABLE_MODE:
            # the string goes as soon as it is decoded
            kwargs["table"] = _unpacked_table(doc.pop("table"), doc["k"], doc["n_stages"])
        else:
            kwargs["weights"] = np.array(doc["weights"])
            kwargs["offsets"] = np.array(doc["offsets"])
        return ServerRegistry(**kwargs)
