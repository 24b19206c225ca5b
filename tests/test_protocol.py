"""Registration flow, the tick-based channel, and two-time authentication."""

import copy

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import reference
from conftest import make_device
from dualpuf.adversary import ReplayAttacker
from dualpuf.device import serialize_response
from dualpuf.errors import (
    ChannelTimeout, InterfaceFused, InvalidParameter, NonMonotonicTicks, SimulationError,
    WidthMismatch, ZeroSeed,
)
from dualpuf.obfuscator import candidate_rows, run_rounds
from dualpuf.protocol import (
    CHALLENGE,
    READER_TO_TAG,
    RESPONSE,
    TAG_TO_READER,
    Frame,
    SessionTranscript,
    SimChannel,
    run_authentication,
    run_registration,
)
from dualpuf.server import (
    MODEL_MODE,
    TABLE_MODE,
    load_registry,
    predict_response,
    save_registry,
)


# -- frames and transcripts ---------------------------------------------------


@given(
    tick=st.integers(0, 10**6),
    direction=st.sampled_from([READER_TO_TAG, TAG_TO_READER]),
    kind=st.sampled_from([CHALLENGE, RESPONSE]),
    nibbles=st.integers(1, 16),
    data=st.data(),
)
def test_frame_line_round_trip(tick, direction, kind, nibbles, data):
    width = 4 * nibbles
    payload = data.draw(st.integers(0, (1 << width) - 1))
    frame = Frame(tick, direction, kind, payload, width)
    assert Frame.parse(frame.line()) == frame


def test_frame_width_rounds_up_to_whole_hex_digits():
    frame = Frame(3, READER_TO_TAG, CHALLENGE, payload=5, width=6)
    parsed = Frame.parse(frame.line())
    assert parsed.width == 8
    assert (parsed.tick, parsed.payload) == (3, 5)


def test_transcript_round_trip_and_tick_gap(tmp_path):
    frames = [
        Frame(0, READER_TO_TAG, CHALLENGE, 0x2A, 8),
        Frame(1, TAG_TO_READER, RESPONSE, 0x9, 4),
        Frame(5, READER_TO_TAG, CHALLENGE, 0x15, 8),
        Frame(6, TAG_TO_READER, RESPONSE, 0xC, 4),
    ]
    transcript = SessionTranscript(frames=frames, d1=1, d2=0, passed=False)
    assert transcript.tick_gap() == 5
    assert [f.payload for f in transcript.challenge_frames()] == [0x2A, 0x15]
    path = tmp_path / "session.txt"
    transcript.save(str(path))
    back = SessionTranscript.load(str(path))
    assert back.frames == frames
    assert (back.d1, back.d2, back.passed) == (1, 0, False)


def test_unreadable_transcripts_raise_simulation_errors(tmp_path):
    path = tmp_path / "session.txt"
    with pytest.raises(SimulationError):
        SessionTranscript.load(str(path))
    for bad in ("0 reader->tag CHALLENGE zz\n", "0 reader->tag\n", "1 x 0\n"):
        path.write_text(bad)
        with pytest.raises(SimulationError):
            SessionTranscript.load(str(path))


def test_tick_gap_needs_two_challenges():
    partial = SessionTranscript(frames=[Frame(0, READER_TO_TAG, CHALLENGE, 1, 8)])
    with pytest.raises(SimulationError):
        partial.tick_gap()


# -- channel ------------------------------------------------------------------


def _frame(tick, payload=1):
    return Frame(tick, READER_TO_TAG, CHALLENGE, payload, 8)


def test_channel_enforces_monotone_ticks():
    channel = SimChannel()
    channel.transmit(_frame(4))
    with pytest.raises(NonMonotonicTicks):
        channel.transmit(_frame(4))
    with pytest.raises(NonMonotonicTicks):
        channel.transmit(_frame(2))
    channel.transmit(_frame(5))
    assert [f.tick for f in channel.log] == [4, 5]


def test_channel_log_skips_dropped_frames():
    channel = SimChannel()
    channel.add_interceptor(lambda f: None if f.tick == 1 else f)
    assert channel.transmit(_frame(0)) is not None
    assert channel.transmit(_frame(1)) is None
    assert channel.transmit(_frame(2)) is not None
    assert [f.tick for f in channel.log] == [0, 2]


class SilentResponder:
    def begin_session(self):
        pass

    def answer_challenge(self, frame):
        return None


def test_exchange_timeouts():
    drop_all = SimChannel()
    drop_all.add_interceptor(lambda f: None)
    with pytest.raises(ChannelTimeout):
        drop_all.exchange(_frame(0), SilentResponder(), response_width=4)

    silent = SimChannel()
    with pytest.raises(ChannelTimeout):
        silent.exchange(_frame(0), SilentResponder(), response_width=4)
    # the challenge was delivered before the tag stayed silent
    assert [f.kind for f in silent.log] == [CHALLENGE]


def test_exchange_returns_the_delivered_reply():
    device = make_device()
    expected = serialize_response(device.respond(0x2A, 1))  # first challenge: mode 1
    channel = SimChannel()
    device.begin_session()
    reply = channel.exchange(_frame(7, payload=0x2A), device, response_width=4)
    assert (reply.tick, reply.direction, reply.kind) == (8, TAG_TO_READER, RESPONSE)
    assert reply.payload == expected
    assert [f.tick for f in channel.log] == [7, 8]


def test_man_in_the_middle_replacement_is_what_gets_logged():
    device = make_device()
    swapped = []

    def corrupt(frame):
        if frame.kind == RESPONSE:
            replaced = Frame(frame.tick, frame.direction, frame.kind,
                             frame.payload ^ 1, frame.width)
            swapped.append((frame.payload, replaced.payload))
            return replaced
        return frame

    channel = SimChannel()
    channel.add_interceptor(corrupt)
    device.begin_session()
    reply = channel.exchange(_frame(0, payload=0x2A), device, response_width=4)
    (original, replaced), = swapped
    assert reply.payload == replaced == original ^ 1
    assert channel.log[1].payload == replaced


# -- registration -------------------------------------------------------------


def test_registration_full_table_and_fuse(tmp_path):
    device = make_device()
    path = tmp_path / "registry.json"
    registry = run_registration(device, rng_seed=6)
    save_registry(registry, str(path))
    assert registry.mode == TABLE_MODE          # order 8 enumerates fully
    assert registry.tau == 0                    # noiseless default
    assert device.fused
    with pytest.raises(InterfaceFused):
        device.raw_crp_query(1)
    with pytest.raises(InterfaceFused):
        run_registration(device)
    back = load_registry(str(path))
    assert np.array_equal(back.table, registry.table)


def test_registration_param_policy_and_order_cutover():
    by_params = run_registration(make_device(), policy="params")
    assert by_params.mode == MODEL_MODE
    wide = run_registration(make_device(k=2, n_stages=13))
    assert wide.mode == MODEL_MODE              # auto switches past order 12
    assert wide.n_stages == 13


def test_bad_registration_policy_leaves_the_interface_alive():
    device = make_device()
    with pytest.raises(SimulationError):
        run_registration(device, policy="bogus")
    assert not device.fused
    assert run_registration(device, policy="full").mode == TABLE_MODE


def test_a_refused_registration_leaves_the_tag_open():
    # the registry is built before the fuse blows, so a tau or a tick-gap
    # range the reader refuses costs the tag nothing
    device = make_device(k=8, n_stages=8)
    with pytest.raises(InvalidParameter):
        run_registration(device, tau=99)
    with pytest.raises(InvalidParameter):
        run_registration(device, policy="params", t_range=(1, 4))
    assert not device.fused
    assert run_registration(device).mode == TABLE_MODE
    assert device.fused


# -- authentication -----------------------------------------------------------


def honest_setup(**kwargs):
    device = make_device(**kwargs)
    registry = run_registration(device, rng_seed=5)
    return device, registry


def test_honest_session_passes_with_canonical_frames():
    device, registry = honest_setup()
    result = run_authentication(registry, device)
    assert result.passed and (result.d1, result.d2) == (1, 1)
    frames = result.transcript.frames
    assert [f.kind for f in frames] == [CHALLENGE, RESPONSE, CHALLENGE, RESPONSE]
    assert [f.direction for f in frames] == [
        READER_TO_TAG, TAG_TO_READER, READER_TO_TAG, TAG_TO_READER,
    ]
    ticks = [f.tick for f in frames]
    assert ticks == sorted(set(ticks)) and ticks[0] == 0
    c1, c2, t = result.session
    assert frames[0].payload == c1 and frames[2].payload == c2
    assert result.transcript.tick_gap() == t
    assert frames[1].tick == 1 and frames[3].tick == t + 1


def test_forced_session_and_minimum_gap():
    device, registry = honest_setup()
    result = run_authentication(registry, device, forced_session=(0x2A, 0x15, 4))
    assert result.passed and result.session == (0x2A, 0x15, 4)
    assert result.transcript.tick_gap() == 4

    device, registry = honest_setup()
    with pytest.raises(NonMonotonicTicks):
        # a gap of 1 would put C2 on the same tick as the first response
        run_authentication(registry, device, forced_session=(0x2A, 0x15, 1))


def test_out_of_range_challenge_raises_before_any_frame():
    # the reader predicts both responses before C1 goes on the wire
    device, registry = honest_setup()
    for session in ((0x2A, 0, 4), (0, 0x15, 4), (0x2A, 1 << 8, 4)):
        channel = SimChannel()
        with pytest.raises(ZeroSeed):
            run_authentication(registry, device, channel=channel, forced_session=session)
        assert channel.log == []


def counted_rounds(monkeypatch, registry, channel):
    """Count the run_rounds calls of the tags (device) and the reader
    (server), told apart by the row tables of the registry's lane bank, and
    note each reader call's seed and the frames on the channel by then."""
    counts = {"device": 0, "server": 0}
    reader_calls = []

    def counted(*args):
        if args[0] is registry._bank.rows:
            counts["server"] += 1
            reader_calls.append((type(args[1]), len(channel.log)))
        else:
            counts["device"] += 1
        return run_rounds(*args)

    monkeypatch.setattr("dualpuf.obfuscator.run_rounds", counted)
    return counts, reader_calls


def test_two_scalar_reader_evaluations_before_the_first_frame(monkeypatch):
    # the reader predicts R(C1, 1) and R(C2, t & 1) with one scalar call
    # each, both before C1 goes on the wire, whatever the session's outcome
    device, registry = honest_setup(k=16)
    clone = make_device(k=16, device_seed=32)
    channel = SimChannel()
    counts, reader_calls = counted_rounds(monkeypatch, registry, channel)
    assert run_authentication(registry, device, channel).passed
    assert counts == {"device": 2, "server": 2}
    assert reader_calls == [(int, 0), (int, 0)]

    counts.update(device=0, server=0)
    result = run_authentication(registry, clone, channel)
    assert (result.d1, result.d2) == (0, 0)
    assert counts == {"device": 1, "server": 2}
    assert reader_calls[2:] == [(int, 4), (int, 4)]
    assert [f.kind for f in result.transcript.frames] == [CHALLENGE, RESPONSE]

    counts.update(device=0, server=0)
    attacker = ReplayAttacker({f.payload: 0 for f in result.transcript.challenge_frames()})
    result = run_authentication(
        registry, attacker, channel, forced_session=(*result.session[:2], 4)
    )
    assert (result.d1, counts) == (0, {"device": 0, "server": 2})
    assert reader_calls[4:] == [(int, 6), (int, 6)]


def test_seed_rows_are_built_once_per_tag_and_registry(monkeypatch):
    builds = []

    def counted(*args):
        builds.append(len(args[0]))
        return candidate_rows(*args)

    monkeypatch.setattr("dualpuf.obfuscator.candidate_rows", counted)
    device, registry = honest_setup(k=16)
    assert builds == [16, 16]  # the tag's and the registry's, at construction
    for _ in range(50):
        assert run_authentication(registry, device).passed
    assert builds == [16, 16]


def test_first_rejection_suppresses_the_second_challenge():
    _, registry = honest_setup(k=16)
    result = run_authentication(registry, ReplayAttacker())  # empty store
    assert (result.d1, result.d2, result.passed) == (0, 0, False)
    assert [f.kind for f in result.transcript.frames] == [CHALLENGE]

    class OneBitLiar:
        def begin_session(self):
            pass

        def answer_challenge(self, frame):
            honest = predict_response(registry, frame.payload, 1)
            return serialize_response(honest) ^ 1

    result = run_authentication(registry, OneBitLiar())
    assert (result.d1, result.d2, result.passed) == (0, 0, False)
    assert [f.kind for f in result.transcript.frames] == [CHALLENGE, RESPONSE]


def test_wrong_device_never_authenticates():
    genuine = make_device(k=16, device_seed=31)
    registry = run_registration(genuine, rng_seed=17)
    clone = make_device(k=16, device_seed=32)
    outcomes = [run_authentication(registry, clone).passed for _ in range(20)]
    assert outcomes == [False] * 20


def test_sessions_share_a_channel_without_tick_reuse():
    device, registry = honest_setup()
    channel = SimChannel()
    first = run_authentication(registry, device, channel=channel)
    second = run_authentication(registry, device, channel=channel)
    assert first.passed and second.passed
    assert len(first.transcript.frames) == len(second.transcript.frames) == 4
    assert channel.log == first.transcript.frames + second.transcript.frames
    assert second.transcript.frames[0].tick > first.transcript.frames[-1].tick


def test_authentication_leaves_the_registry_untouched():
    device, registry = honest_setup()
    snapshot = registry.table.copy()
    run_authentication(registry, device)
    assert np.array_equal(registry.table, snapshot)


class Wayward:
    """A tag whose every answer is, by a draw of its own: the tag's word as
    a Python int or as a NumPy integer (np.int64 where it fits), the word
    with a few lanes flipped, a word that does not fit k lanes, or silence."""

    def __init__(self, device, seed):
        self.device, self.rng = device, np.random.default_rng(seed)

    def begin_session(self):
        self.device.begin_session()

    def answer_challenge(self, frame):
        word, k = self.device.answer_challenge(frame), self.device.config.k
        kind = int(self.rng.integers(0, 10))
        if kind == 0:
            return None
        if kind == 1:
            return (1 << k) + word if self.rng.integers(0, 2) else -1 - word
        if kind < 5:  # flip up to 3 lanes, some of them maybe twice
            for lane in self.rng.integers(0, k, int(self.rng.integers(1, 4))):
                word ^= 1 << int(lane)
        if kind % 2:
            return np.int64(word) if word < 1 << 63 else np.uint64(word)
        return word


def outcome(run):
    try:
        return run()
    except WidthMismatch as exc:
        return "WidthMismatch", str(exc)


@pytest.mark.parametrize("k, sigma, policy", [
    (64, 0.0, "full"), (64, 0.0, "params"), (8, 0.1, "full"), (8, 0.1, "params"),
])
def test_sessions_match_the_bit_array_reader(k, sigma, policy):
    # the reader on words gives the sessions, verdicts, distances and wire
    # lines of the reader on unpacked bits, also for NumPy integer, flipped,
    # out-of-range and missing answers; two copies of the tag and registry
    # draw the same sessions and noise
    device = make_device(k=k, sigma_noise=sigma, device_seed=41)
    registry = run_registration(device, policy=policy, rng_seed=9)
    assert registry.tau == (1 if sigma else 0)
    twin_device, twin_registry = copy.deepcopy((device, registry))
    words, bits = Wayward(device, 2), Wayward(twin_device, 2)

    def by_words():
        r = run_authentication(registry, words)
        lines = [f.line() for f in r.transcript.frames]
        assert (r.transcript.d1, r.transcript.d2, r.transcript.passed) == (r.d1, r.d2, r.passed)
        return r.session, r.d1, r.d2, r.passed, r.hd1, r.hd2, lines

    seen = set()
    for _ in range(150):
        got, want = outcome(by_words), outcome(lambda: reference.session(twin_registry, bits))
        assert got == want
        seen.add(got[0] if len(got) == 2 else (got[1], got[2], got[4]))
    # passes, rejections at either challenge, timeouts and refused words
    assert {(1, 1, 0), (0, 0, None), (1, 0, 0), "WidthMismatch"} <= seen
