"""Replay from a store of all recorded traffic: the coverage campaign.

The two-time scheme bounds the replay of one recorded session: its second
response is right for half of all tick gaps.  An eavesdropper who keeps
every session it hears, and reads the tick gaps too, is bounded only by the
challenge space.  Its store holds (challenge, mode) pairs.  A session's
first challenge always runs in mode 1 and its second in the parity of the
gap, so N sessions show about 1.5 N mode-1 and 0.5 N mode-0 draws from the
M = 2^n - 1 challenges.  A fresh session then passes with probability

    p1 (p1 + p0) / 2,  p1 = 1 - (1 - 1/M)^(1.5 N),  p0 = 1 - (1 - 1/M)^(0.5 N),

and about M recorded sessions pass half of all fresh sessions.  The store
keys strictly by mode, so a mode-blind C2 (one both modes answer alike)
serves it only at the parity it was heard at, and adds no term.
"""

import math
import time

import pytest

from conftest import make_device
from dualpuf.adversary import ReplayAttacker, replay_attack
from dualpuf.protocol import (
    CHALLENGE,
    RESPONSE,
    SimChannel,
    run_authentication,
    run_registration,
)

LANES = 64
FRESH = 2_000
FRACTIONS = (0.25, 1, 4)  # N as a multiple of M
Z_99 = 2.576  # two-sided 99 % point of the normal approximation to the binomial
SEEDS = {"device": 13, "registry": 17, "replay": 19}
FIGURE_LOG: list[str] = []


class TickAwareStore:
    """A replaying eavesdropper that reads tick gaps: it stores each response
    under (challenge, mode) and answers only a pair it has heard.  The mode is
    1 for the first challenge of a session and the parity of the gap between
    the two challenge ticks for the second, as the tag derives it."""

    def __init__(self, store=None):
        self.store = dict(store or {})
        self.first_tick = None

    def _key(self, frame):
        if self.first_tick is None:
            self.first_tick = frame.tick
            return frame.payload, 1
        mode, self.first_tick = (frame.tick - self.first_tick) & 1, None
        return frame.payload, mode

    def begin_session(self):
        self.first_tick = None

    def answer_challenge(self, frame):
        return self.store.get(self._key(frame))

    def tap(self):
        """Channel interceptor that stores every (challenge, mode) -> response
        it hears.  Every recorded session sends both challenges."""
        pending = []

        def intercept(frame):
            if frame.kind == CHALLENGE:
                pending[:] = [self._key(frame)]
            elif frame.kind == RESPONSE and pending:
                self.store[pending.pop()] = frame.payload
            return frame

        return intercept


def predicted_rate(sessions: int, space: int) -> float:
    miss = 1 - 1 / space
    p1, p0 = 1 - miss ** (1.5 * sessions), 1 - miss ** (0.5 * sessions)
    return p1 * (p1 + p0) / 2


def sessions_to_half(points) -> float:
    """The session count at which rate crosses 0.5, interpolated linearly in
    log N between the two (N, rate) points that bracket it."""
    for (n_lo, r_lo), (n_hi, r_hi) in zip(points, points[1:]):
        if r_lo <= 0.5 <= r_hi:
            return n_lo * (n_hi / n_lo) ** ((0.5 - r_lo) / (r_hi - r_lo))
    raise AssertionError(f"no bracket of 0.5 in {points}")


@pytest.mark.parametrize("order", (10, 12))
def test_a_store_of_all_traffic_passes_half_after_about_M_sessions(order):
    t0 = time.perf_counter()
    device = make_device(k=LANES, n_stages=order, device_seed=SEEDS["device"])
    registry = run_registration(device, policy="full", rng_seed=SEEDS["registry"])
    assert registry.tau == 0
    space = (1 << order) - 1
    counts = [round(f * space) for f in FRACTIONS]

    content, aware = ReplayAttacker(), TickAwareStore()
    channel = SimChannel()
    channel.add_interceptor(content.tap())
    channel.add_interceptor(aware.tap())
    snapshots = {}
    for i in range(1, counts[-1] + 1):
        assert run_authentication(registry, device, channel).passed
        if i in counts:
            snapshots[i] = dict(content.store), dict(aware.store)

    rows = []
    for n in counts:
        content_store, aware_store = snapshots[n]
        replayed = replay_attack(
            ReplayAttacker(content_store), registry, FRESH,
            reuse_challenges=False, rng_seed=SEEDS["replay"],
        )
        responder = TickAwareStore(aware_store)
        passes = sum(run_authentication(registry, responder).passed for _ in range(FRESH))
        rate, expected = passes / FRESH, predicted_rate(n, space)
        half_width = Z_99 * math.sqrt(expected * (1 - expected) / FRESH)
        assert abs(rate - expected) <= half_width, (order, n, rate, expected, half_width)
        rows.append((n, rate, expected, replayed.success_rate))

    measured = sessions_to_half([(n, rate) for n, rate, _, _ in rows])
    lo, hi = 1, 4 * space
    while hi - lo > 1:  # predicted_rate rises with N
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if predicted_rate(mid, space) < 0.5 else (lo, mid)
    elapsed = time.perf_counter() - t0
    aware_rates = "/".join(f"{rate:.3f}" for _, rate, _, _ in rows)
    predicted = "/".join(f"{expected:.3f}" for _, _, expected, _ in rows)
    content_rates = "/".join(f"{rate:.3f}" for *_, rate in rows)
    FIGURE_LOG.append(
        f"n={order} PASS: half of fresh sessions pass after {measured:.0f} recorded "
        f"sessions (predicted {hi}, M = {space}); at N = M/4, M, 4M tick-aware "
        f"{aware_rates} (predicted {predicted}), content-only {content_rates} "
        f"in {elapsed:.1f}s"
    )
