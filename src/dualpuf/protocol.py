"""Registration and the two-time authentication protocol over a simulated
tick-based channel.

Logical integer ticks replace wall-clock time.  A session is: challenge C1
at some tick, tag response one tick later, challenge C2 exactly t ticks
after C1, tag response one tick after that.  The gap t is never carried in
any frame; the tag recovers it by observing both challenge ticks, and its
parity becomes the selection mode of the second response.  The first
response of a session always runs in mode 1.

The reader fixes C1, C2 and t before it sends anything, so it predicts both
responses it expects, R(C1, mode 1) and R(C2, t & 1), in one evaluation when
it draws the session, and packs them into the two k-bit words it expects.
A response word passes when the popcount of its XOR with the expected word
is at most tau.  Authentication passes only when both comparisons pass; a
failed first comparison rejects immediately and C2 is never sent.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .device import PufDevice, serialize_response
from .errors import ChannelTimeout, InterfaceFused, InvalidParameter, NonMonotonicTicks
from .persist import atomic_write, reading
from .server import (
    DEFAULT_T_RANGE,
    ServerRegistry,
    compare,
    default_tau,
    gen_session,
    predict_response,
    register_from_ttp,
)

READER_TO_TAG = "reader->tag"
TAG_TO_READER = "tag->reader"
CHALLENGE = "CHALLENGE"
RESPONSE = "RESPONSE"

#: largest order where registration enumerates the full naked-CRP table
FULL_TABLE_MAX_ORDER = 12


@dataclass(frozen=True)
class Frame:
    """One carrier burst.  width is the payload bit width (hex padding only)."""

    tick: int
    direction: str
    kind: str
    payload: int
    width: int

    def line(self) -> str:
        hex_width = (self.width + 3) // 4
        return f"{self.tick} {self.direction} {self.kind} {self.payload:0{hex_width}x}"

    @classmethod
    def parse(cls, line: str) -> "Frame":
        tick, direction, kind, payload_hex = line.split()
        return cls(
            tick=int(tick),
            direction=direction,
            kind=kind,
            payload=int(payload_hex, 16),
            width=4 * len(payload_hex),
        )


@dataclass
class SessionTranscript:
    """Everything that crossed the wire in one session, plus the verdict."""

    frames: list[Frame] = field(default_factory=list)
    d1: int = 0
    d2: int = 0
    passed: bool = False

    def challenge_frames(self) -> list[Frame]:
        return [f for f in self.frames if f.kind == CHALLENGE]

    def tick_gap(self) -> int:
        """t as an eavesdropper would recover it from the challenge ticks."""
        cf = self.challenge_frames()
        if len(cf) < 2:
            raise InvalidParameter("transcript holds fewer than two challenge frames")
        return cf[1].tick - cf[0].tick

    def save(self, path: str) -> None:
        lines = [f.line() for f in self.frames]
        lines.append(f"{self.d1} {self.d2} {int(self.passed)}")
        atomic_write(path, "\n".join(lines) + "\n")

    @classmethod
    def load(cls, path: str) -> "SessionTranscript":
        """Read back a transcript written by save.  A file that cannot be
        read or holds a malformed line raises SimulationError."""
        frames, d1, d2, passed = [], 0, 0, 0
        with reading(path, "transcript") as fh:
            for line in fh:
                tokens = line.split()
                if len(tokens) == 3:
                    d1, d2, passed = map(int, tokens)
                elif tokens:
                    frames.append(Frame.parse(line))
        return cls(frames=frames, d1=d1, d2=d2, passed=bool(passed))


@dataclass(frozen=True)
class AuthResult:
    """Outcome of one session; hd1 and hd2 are the lane distances the
    comparator found, None where no response was compared."""

    d1: int
    d2: int
    passed: bool
    transcript: SessionTranscript
    session: tuple[int, int, int]  # (C1, C2, drawn t)
    hd1: int | None
    hd2: int | None


class SimChannel:
    """Lossless ordered carrier with interceptor hooks.

    Interceptors see every transmitted frame in registration order; each may
    return the frame (tap), a replacement (man in the middle), or None
    (drop).  The log records what actually reached the far end.
    """

    def __init__(self) -> None:
        self.last_tick = -1
        self.interceptors: list = []
        self.log: list[Frame] = []

    def add_interceptor(self, interceptor) -> None:
        self.interceptors.append(interceptor)

    def transmit(self, frame: Frame) -> Frame | None:
        if frame.tick <= self.last_tick:
            raise NonMonotonicTicks(
                f"tick {frame.tick} not after {self.last_tick}"
            )
        self.last_tick = frame.tick
        for interceptor in self.interceptors:
            frame = interceptor(frame)
            if frame is None:
                return None
        self.log.append(frame)
        return frame

    def exchange(self, challenge_frame: Frame, responder, response_width: int) -> Frame:
        """Send one challenge and collect the tag's response one tick later.

        Raises ChannelTimeout when either direction is dropped or the
        responder stays silent.
        """
        delivered = self.transmit(challenge_frame)
        if delivered is None:
            raise ChannelTimeout(f"challenge at tick {challenge_frame.tick} was dropped")
        payload = responder.answer_challenge(delivered)
        if payload is None:
            raise ChannelTimeout(f"no response to challenge at tick {delivered.tick}")
        reply = Frame(
            tick=delivered.tick + 1,
            direction=TAG_TO_READER,
            kind=RESPONSE,
            payload=payload,
            width=response_width,
        )
        answered = self.transmit(reply)
        if answered is None:
            raise ChannelTimeout(f"response at tick {reply.tick} was dropped")
        return answered


def run_registration(
    device: PufDevice,
    policy: str = "auto",
    tau: int | None = None,
    t_range: tuple[int, int] = DEFAULT_T_RANGE,
    rng_seed: int = 0,
) -> ServerRegistry:
    """Enroll a device and permanently fuse its raw interface.

    policy "full" harvests the complete naked-CRP table through the raw
    interface; "params" transfers the exact lane parameters (the
    manufacturer-data route for widths where enumeration is impractical);
    "auto" picks by order.  save_registry writes the registry to a file.
    """
    if device.fused:
        raise InterfaceFused("device was already registered")
    if policy == "auto":
        policy = "full" if device.config.n_stages <= FULL_TABLE_MAX_ORDER else "params"
    if policy == "full":
        lane_data = device.raw_crp_table()
    elif policy == "params":
        lane_data = list(device.lanes)
    else:
        raise InvalidParameter(f"unknown registration policy {policy!r}")
    device.fuse()
    if tau is None:
        tau = default_tau(device.config.k, device.config.sigma_noise)
    return register_from_ttp(
        lane_data, device.config.lane_pairs, tau=tau, t_range=t_range, rng_seed=rng_seed
    )


def run_authentication(
    registry: ServerRegistry,
    responder,
    channel: SimChannel | None = None,
    forced_session: tuple[int, int, int] | None = None,
) -> AuthResult:
    """One two-time session against any responder (honest tag or attacker).

    forced_session injects (C1, C2, t) instead of drawing them; the harness
    hook for replay experiments.  Both responses are predicted before C1 is
    sent, so an out-of-range challenge raises ZeroSeed before any frame.
    Timeouts become a 0 decision, never an exception.
    """
    if channel is None:
        channel = SimChannel()
    c1, c2, t = forced_session if forced_session is not None else gen_session(registry)
    k, n = registry.k, registry.n_stages
    expected = list(map(serialize_response, predict_response(registry, (c1, c2), (1, t & 1))))
    responder.begin_session()
    log_start = len(channel.log)
    tick0 = channel.last_tick + 1

    def verdict(challenge: int, tick: int, expected_word: int) -> tuple[int, int | None]:
        frame = Frame(tick, READER_TO_TAG, CHALLENGE, challenge, n)
        try:
            reply = channel.exchange(frame, responder, response_width=k)
        except ChannelTimeout:
            return 0, None
        return compare(expected_word, reply.payload, k, registry.tau)

    d1, hd1 = verdict(c1, tick0, expected[0])
    d2, hd2 = verdict(c2, tick0 + t, expected[1]) if d1 == 1 else (0, None)
    passed = d1 == 1 and d2 == 1
    transcript = SessionTranscript(
        frames=list(channel.log[log_start:]), d1=d1, d2=d2, passed=passed
    )
    return AuthResult(d1, d2, passed, transcript, (c1, c2, t), hd1, hd2)
