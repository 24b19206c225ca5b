"""The tag-side PUF device: k parallel arbiter lanes behind dual-LFSR
challenge obfuscation, a fusable raw-CRP interface for enrollment, and
parallel-to-serial response assembly.

Serial order is fixed: lane 0's bit leaves first, so a response integer
carries lane i in bit i.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .apuf import DELTA_UNIT, ApufInstance, lane_tables, sample_instance, stack_lanes
from .errors import InterfaceFused, InvalidParameter, NonMonotonicTicks, WidthMismatch, is_integer
from .lfsr import find_primitive, pair_indices
from .obfuscator import DEFAULT_ROUNDS, DualLfsrSpec, LaneBank, check_lane_pairs
from .persist import atomic_write, pair_from_json, pair_to_json, reading
from .postproc import randomness_adjust, vote_batch, voter_noise

DEFAULT_VOTER_T = 5


def default_lane_pairs(
    order: int, k: int, rounds_per_response: int = DEFAULT_ROUNDS
) -> tuple[DualLfsrSpec, ...]:
    """One register pair per lane, cycling through all ordered primitive
    pairs: lane i gets the primitives at pair_indices(order, i), from one
    search of the primitive prefix the k lanes read."""
    indices = [pair_indices(order, i) for i in range(k)]
    prims = find_primitive(order, max(map(max, indices), default=-1) + 1)
    return tuple(DualLfsrSpec((prims[i], prims[j]), rounds_per_response) for i, j in indices)


@dataclass(frozen=True)
class DeviceConfig:
    """Manufacturing parameters of one tag."""

    k: int
    n_stages: int
    lane_pairs: tuple[DualLfsrSpec, ...]
    voter_t: int = DEFAULT_VOTER_T
    sigma_noise: float = 0.0
    device_seed: int = 0

    def __post_init__(self) -> None:
        for name, low in (("k", 1), ("n_stages", 1), ("device_seed", 0)):
            value = getattr(self, name)
            if not is_integer(value) or value < low:
                raise InvalidParameter(f"{name} {value!r} is not an integer >= {low}")
        check_lane_pairs(self.lane_pairs, self.k, self.n_stages)
        voter_noise((), 0.0, self.voter_t, None)  # checks the width, draws nothing at sigma 0
        sigma = self.sigma_noise  # to NumPy a bool is no number
        if not np.issubdtype(type(sigma), np.number) or not 0 <= sigma < float("inf"):
            raise InvalidParameter(f"sigma_noise {sigma!r} is not a finite number >= 0")


@dataclass
class PufDevice:
    """A built tag.  fused only ever goes False -> True."""

    config: DeviceConfig
    lanes: list[ApufInstance]
    fused: bool = False
    last_challenge_tick: int | None = field(default=None, init=False)
    _noise_rng: np.random.Generator = field(init=False, repr=False, compare=False)
    bank: LaneBank = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if type(self.fused) is not bool:
            raise InvalidParameter(f"fused {self.fused!r} is not a bool")
        if len(self.lanes) != self.config.k:
            raise WidthMismatch(f"{len(self.lanes)} lanes for k={self.config.k}")
        self._noise_rng = np.random.default_rng(
            np.random.SeedSequence([self.config.device_seed, 0x5E55])
        )
        self.refresh_caches()

    def refresh_caches(self) -> None:
        """Rebuild the lane bank after a direct lane mutation."""
        sums = lane_tables(*stack_lanes(self.lanes, self.config.n_stages))
        self.bank = LaneBank.build(self.config.lane_pairs, sums)

    # -- enrollment-only raw path -------------------------------------------

    def _naked_bits(self, challenges, rng: np.random.Generator) -> np.ndarray:
        """(k, *challenges.shape) voted naked bits of every lane."""
        if self.fused:
            raise InterfaceFused("raw interface is fused")
        config = self.config
        return vote_batch(self.bank.sums, challenges, config.sigma_noise, config.voter_t, rng)

    def raw_crp_query(self, challenge: int) -> np.ndarray:
        """Voted naked response of every lane to one raw challenge.

        Bypasses the obfuscator entirely; the challenge may be zero here.
        Dead once the interface is fused.
        """
        if not 0 <= challenge < 1 << self.config.n_stages:
            raise WidthMismatch(
                f"challenge {challenge:#x} does not fit {self.config.n_stages} stages"
            )
        return self._naked_bits(challenge, self._noise_rng)

    def raw_crp_table(self, noise_stream: np.random.Generator | None = None) -> np.ndarray:
        """Full naked-CRP table in the registry's layout: a (k, 2^n) uint8
        array whose column c holds every lane's voted bit at raw challenge
        c.  Column 0, the zero challenge, is unused and 0."""
        challenges = np.arange(1, 1 << self.config.n_stages, dtype=np.int64)
        rng = noise_stream if noise_stream is not None else self._noise_rng
        return np.pad(self._naked_bits(challenges, rng), ((0, 0), (1, 0)))

    def fuse(self) -> None:
        """Permanently close the raw interface.  Idempotent."""
        self.fused = True

    # -- authenticated path --------------------------------------------------

    def respond(self, challenge: int, mode: int) -> np.ndarray:
        """k-bit obfuscated response, lane 0 first, as a uint8 array."""
        config, rng = self.config, self._noise_rng
        return self.bank.respond(challenge, mode, config.sigma_noise, config.voter_t, rng)

    # -- protocol responder interface ----------------------------------------

    def begin_session(self) -> None:
        self.last_challenge_tick = None

    def answer_challenge(self, frame) -> int:
        """Reply to one challenge frame: extract t from the tick gap, derive
        the mode bit (first challenge of a session runs in mode 1), respond,
        and serialize."""
        if self.last_challenge_tick is None:
            mode = 1
        else:
            t = frame.tick - self.last_challenge_tick
            if t <= 0:
                raise NonMonotonicTicks(
                    f"challenge tick {frame.tick} not after {self.last_challenge_tick}"
                )
            mode = t & 1
        self.last_challenge_tick = frame.tick
        return serialize_response(self.respond(frame.payload, mode))


def pack_bits(bits) -> np.ndarray:
    """The lane-bit codec: 0/1 bits packed eight to a byte along the last
    axis, the first bit in bit 0 of its byte, zeros padding the last byte."""
    return np.packbits(bits, axis=-1, bitorder="little")


def unpack_bits(packed, count: int) -> np.ndarray:
    """Inverse of pack_bits: the first count bits along the last axis."""
    return np.unpackbits(packed, axis=-1, count=count, bitorder="little")


def serialize_response(bits: np.ndarray) -> int:
    """Parallel-to-serial: lane i's bit of a (k,) array becomes bit i of
    the integer.  Any other shape raises WidthMismatch.  Python ints keep
    any k exact, k > 64 included."""
    bits = np.asarray(bits, dtype=np.uint8)
    if bits.ndim != 1:
        raise WidthMismatch(f"response bits of shape {bits.shape} are not one (k,) vector")
    return int.from_bytes(pack_bits(bits).tobytes(), "little")


def build_device(config: DeviceConfig) -> "PufDevice":
    """Manufacture and initialize a tag.

    Lane weights come from per-lane children of the device seed; each lane
    then runs the randomness adjustment so its raw path is balanced.
    Returns an unfused device.
    """
    children = np.random.SeedSequence(config.device_seed).spawn(2 * config.k)
    lanes = []
    for i in range(config.k):
        lane = sample_instance(config.n_stages, children[2 * i])
        randomness_adjust(lane, config.sigma_noise, int(children[2 * i + 1].generate_state(1)[0]))
        lanes.append(lane)
    return PufDevice(config=config, lanes=lanes)


# -- persistence -------------------------------------------------------------


def save_device(device: PufDevice, path: str) -> None:
    """Persist a tag, bit-exactly, as a JSON document."""
    doc = {
        "k": device.config.k,
        "n_stages": device.config.n_stages,
        "voter_t": device.config.voter_t,
        "sigma_noise": device.config.sigma_noise,
        "device_seed": device.config.device_seed,
        "lane_pairs": [pair_to_json(p) for p in device.config.lane_pairs],
        "fused": device.fused,
        "lanes": [
            {
                "weights": [float(w) for w in lane.weights],
                "adjust_up": lane.adjust_up,
                "adjust_low": lane.adjust_low,
                "delta_unit": DELTA_UNIT,
            }
            for lane in device.lanes
        ],
    }
    atomic_write(path, json.dumps(doc, indent=1))


def load_device(path: str) -> PufDevice:
    """Read back a tag written by save_device.  A file that cannot be read,
    is not JSON, lacks a key or holds a value of the wrong type or range (a
    lane saved with a compensation unit other than DELTA_UNIT included)
    raises SimulationError."""
    with reading(path, "device file") as fh:
        doc = json.load(fh)
        config = DeviceConfig(
            k=doc["k"],
            n_stages=doc["n_stages"],
            lane_pairs=tuple(pair_from_json(p) for p in doc["lane_pairs"]),
            voter_t=doc["voter_t"],
            sigma_noise=doc["sigma_noise"],
            device_seed=doc["device_seed"],
        )
        lanes = []
        for entry in doc["lanes"]:
            if entry["delta_unit"] != DELTA_UNIT:
                raise InvalidParameter(f"lane delta_unit {entry['delta_unit']} != {DELTA_UNIT}")
            lanes.append(ApufInstance(entry["weights"], entry["adjust_up"], entry["adjust_low"]))
        return PufDevice(config=config, lanes=lanes, fused=doc["fused"])
