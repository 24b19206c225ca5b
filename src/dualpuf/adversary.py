"""Attack harnesses and PUF quality metrics.

The replay attacker is content-only: it stores challenge payload ->
response payload from observed traffic and answers verbatim, never reading
tick gaps.  The two-time scheme bounds the replay of one session to the
gap parity it was recorded at, not the replay of all traffic: a store that
also keys by parity passes half of fresh sessions after ~2^n recorded ones.
The modeling attacker is a single linear unit over parity
features, the known-strong attack against a bare arbiter lane; its input is
restricted by construction to CRPs: a challenge array and a label array.
It ignores the public register pairs; an attacker who steps a lane's pair
(tests/structure_attack.py) models the obfuscated interface too.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .apuf import ApufInstance, features_from_ints, lane_tables, stack_lanes
from .device import PufDevice
from .errors import EmptyDataset, EmptyStore, InsufficientSample, InvalidParameter, WidthMismatch
from .postproc import vote_batch
from .protocol import CHALLENGE, RESPONSE, SessionTranscript, run_authentication
from .server import ServerRegistry

# -- replay ------------------------------------------------------------------


@dataclass
class ReplayAttacker:
    """Stores observed (challenge, response) payloads and replays them."""

    store: dict[int, int] = field(default_factory=dict)

    def begin_session(self) -> None:
        pass

    def answer_challenge(self, frame) -> int | None:
        """Replay the stored response; silence on an unknown challenge."""
        return self.store.get(frame.payload)

    def tap(self):
        """Channel interceptor that eavesdrops pairs live, passing frames on."""
        pending: list[int | None] = [None]

        def intercept(frame):
            if frame.kind == CHALLENGE:
                pending[0] = frame.payload
            elif frame.kind == RESPONSE and pending[0] is not None:
                self.store[pending[0]] = frame.payload
                pending[0] = None
            return frame

        return intercept


def eavesdrop(attacker: ReplayAttacker, transcript: SessionTranscript) -> ReplayAttacker:
    """Fold a recorded transcript into the attacker's store, pairing frames
    exactly as the live tap does; tick gaps are deliberately not recorded."""
    intercept = attacker.tap()
    for frame in transcript.frames:
        intercept(frame)
    return attacker


@dataclass(frozen=True)
class AttackReport:
    """Replay campaign outcome with the parity breakdown.

    outcomes holds one (drawn_t, parity_matched, succeeded) triple per
    session; every tally is derived from them, so none can disagree.
    """

    trials: int = field(init=False)
    successes: int = field(init=False)
    success_rate: float = field(init=False)
    parity_match_trials: int = field(init=False)
    parity_match_successes: int = field(init=False)
    parity_mismatch_trials: int = field(init=False)
    parity_mismatch_successes: int = field(init=False)
    outcomes: tuple[tuple[int, int, int], ...] = field(repr=False)

    def __post_init__(self) -> None:
        match = [won for _, matched, won in self.outcomes if matched]
        mismatch = [won for _, matched, won in self.outcomes if not matched]
        trials, successes = len(self.outcomes), sum(match) + sum(mismatch)
        rate = successes / trials if trials else 0.0
        tallies = (trials, successes, rate, len(match), sum(match), len(mismatch), sum(mismatch))
        for name, value in zip(_TALLIES, tallies):
            object.__setattr__(self, name, value)

    def table_rows(self) -> list[tuple[str, str]]:
        return [
            ("sessions", str(self.trials)),
            ("successes", str(self.successes)),
            ("success rate", f"{self.success_rate:.4f}"),
            ("parity match", f"{self.parity_match_successes}/{self.parity_match_trials}"),
            ("parity mismatch", f"{self.parity_mismatch_successes}/{self.parity_mismatch_trials}"),
        ]


_TALLIES = tuple(f.name for f in fields(AttackReport))[:-1]  # in field order, outcomes last


def replay_attack(
    attacker: ReplayAttacker,
    registry: ServerRegistry,
    sessions: int,
    reuse_challenges: bool = True,
    recorded: SessionTranscript | None = None,
    parity_policy: str = "random",
    rng_seed: int = 0,
) -> AttackReport:
    """Run authentication sessions answered purely from the attacker's store.

    reuse_challenges forces the server to reissue the recorded session's
    (C1, C2) with a fresh t each time (recorded: the session's
    SessionTranscript); otherwise the server draws fresh challenges.
    parity_policy constrains the fresh t against the recorded one: "random"
    draws uniformly from the registry's range, "match"/"flip" force its
    parity.  The recorded t is harness ground truth for the breakdown; the
    attacker itself never sees it.
    """
    if not attacker.store:
        raise EmptyStore("attacker has not eavesdropped any session")
    if reuse_challenges and recorded is None:
        raise InvalidParameter("reuse_challenges needs the recorded session")
    if sessions < 0:
        raise InvalidParameter(f"session count {sessions} < 0")
    if parity_policy not in ("random", "match", "flip"):
        raise InvalidParameter(f"unknown parity policy {parity_policy!r}")
    if parity_policy != "random" and not reuse_challenges:
        raise InvalidParameter(
            f"parity policy {parity_policy!r} needs the recorded challenges reused"
        )
    rng = np.random.default_rng(rng_seed)
    t_min, t_max = registry.t_range
    if recorded is not None:
        t_rec = recorded.tick_gap()
        c1_rec, c2_rec = (f.payload for f in recorded.challenge_frames()[:2])
    if reuse_challenges:
        if parity_policy == "random":
            gaps = range(t_min, t_max + 1)
        else:  # the gaps of the recorded parity, or of the other one
            gaps = range(t_min + (t_min - t_rec + (parity_policy == "flip")) % 2, t_max + 1, 2)
        if not gaps:
            raise InvalidParameter(
                f"no tick gap in [{t_min}, {t_max}] fits parity policy {parity_policy!r}"
            )

    outcomes: list[tuple[int, int, int]] = []
    for _ in range(sessions):
        if reuse_challenges:
            # the draw of Generator.choice over the policy's gaps
            forced = (c1_rec, c2_rec, gaps[int(rng.integers(0, len(gaps)))])
        else:
            forced = None
        result = run_authentication(registry, attacker, forced_session=forced)
        t_drawn = result.session[2]
        matched = int(recorded is not None and t_drawn % 2 == t_rec % 2)
        outcomes.append((t_drawn, matched, int(result.passed)))
    return AttackReport(tuple(outcomes))


# -- modeling ----------------------------------------------------------------


@dataclass(frozen=True)
class LinearAttackModel:
    """A trained linear unit over parity features."""

    weights: np.ndarray = field(repr=False)
    train_size: int
    holdout_accuracy: float


def collect_naked_crps(
    instance: ApufInstance, count: int, rng_seed: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Noiseless raw-lane CRPs at uniform random challenges, as
    (challenges, labels) arrays."""
    if count < 0:
        raise InvalidParameter(f"CRP count {count} < 0")
    rng = np.random.default_rng(rng_seed)
    challenges = rng.integers(0, 1 << instance.n_stages, size=count)
    return challenges, vote_batch(lane_tables(instance.weights, instance.offset), challenges)


def collect_obfuscated_crps(
    device: PufDevice, count: int, mode: int = 1, rng_seed: int = 0, lane: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """External-interface CRPs: uniform nonzero external challenges and one
    lane's final folded bit for each at a fixed mode, as (challenges, labels)
    arrays."""
    config = device.config
    if not 0 <= lane < config.k:
        raise InvalidParameter(f"lane {lane} outside [0, k={config.k})")
    if count < 0:
        raise InvalidParameter(f"CRP count {count} < 0")
    rng = np.random.default_rng(rng_seed)
    seeds = rng.integers(1, 1 << config.n_stages, size=count)
    bank = device.bank.lane(lane)
    return seeds, bank.respond(seeds, mode, config.sigma_noise, config.voter_t, rng)


def train_linear_attack(
    challenges,
    labels,
    n_stages: int,
    split: float = 0.8,
    epochs: int = 300,
    learning_rate: float = 0.5,
    rng_seed: int = 0,
) -> LinearAttackModel:
    """Fit a logistic unit on the parity features of n_stages-bit challenges
    by full-batch gradient descent.

    Deterministic given rng_seed (which only shuffles the train/holdout
    split).  Reports accuracy on the held-out fraction.
    """
    challenges = np.asarray(challenges, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.float64)
    if challenges.size == 0:
        raise EmptyDataset("no CRPs to train on")
    if challenges.ndim != 1 or labels.shape != challenges.shape:
        raise WidthMismatch(f"{challenges.shape} challenges for {labels.shape} labels")
    if challenges.min() < 0 or challenges.max() >> n_stages:
        raise WidthMismatch(f"a challenge does not fit {n_stages} stages")
    if not 0 < split < 1:
        raise InvalidParameter(f"split {split} outside (0, 1)")
    if epochs < 0:
        raise InvalidParameter(f"epochs {epochs} < 0")
    if not 0 < learning_rate < float("inf"):  # nan fails too
        raise InvalidParameter(f"learning rate {learning_rate} is not a positive number")
    phi = features_from_ints(challenges, n_stages).astype(np.float64)

    order = np.random.default_rng(rng_seed).permutation(challenges.size)
    cut = int(round(split * challenges.size))
    if cut == 0:
        raise EmptyDataset(f"split {split} of {challenges.size} CRPs leaves none to train on")
    train_idx, hold_idx = order[:cut], order[cut:]
    x_train, y_train = phi[train_idx], labels[train_idx]
    x_hold, y_hold = phi[hold_idx], labels[hold_idx]

    w = np.zeros(n_stages + 1)
    for _ in range(epochs):
        z = x_train @ w
        p = 1.0 / (1.0 + np.exp(-z))
        w -= learning_rate * (x_train.T @ (p - y_train)) / len(y_train)

    if len(y_hold):
        predictions = (x_hold @ w > 0).astype(np.float64)
        accuracy = float((predictions == y_hold).mean())
    else:
        accuracy = float("nan")
    return LinearAttackModel(weights=w, train_size=len(y_train), holdout_accuracy=accuracy)


# -- metrics -----------------------------------------------------------------


@dataclass(frozen=True)
class MetricsRecord:
    """Standard PUF quality figures over a challenge sample."""

    uniformity: float
    reliability: float
    uniqueness: float
    n_lanes: int
    n_challenges: int
    repeats: int

    def table_rows(self) -> list[tuple[str, str]]:
        return [
            ("uniformity", f"{self.uniformity:.4f}"),
            ("reliability", f"{self.reliability:.4f}"),
            ("uniqueness", f"{self.uniqueness:.4f}"),
            ("lanes", str(self.n_lanes)),
            ("challenges", str(self.n_challenges)),
            ("repeats", str(self.repeats)),
        ]


def puf_metrics(
    lanes, challenges: np.ndarray, sigma: float = 0.0, repeats: int = 11, rng_seed: int = 0
) -> MetricsRecord:
    """Uniformity, reliability, and uniqueness over a common challenge sample.

    lanes is a sequence of lane instances of one width (a tag's are
    device.lanes, measured at device.config.sigma_noise), and every
    challenge must fit that width.  Reliability re-evaluates each lane
    `repeats` times with fresh noise of std sigma against its noiseless
    reference; at sigma 0 it is exactly 1.  Uniqueness averages pairwise
    Hamming fractions between lane references.
    """
    lanes = list(lanes)
    challenges = np.asarray(challenges, dtype=np.int64)
    if challenges.size < 1000:
        raise InsufficientSample(
            f"{challenges.size} challenges < 1000 needed for stated tolerances"
        )
    if not lanes:
        raise InsufficientSample("no lanes to measure")
    if repeats < 1:
        raise InvalidParameter(f"repeats {repeats} < 1")

    rng = np.random.default_rng(rng_seed)
    # one challenge sample serves lanes of one width only
    n_stages = lanes[0].n_stages
    if challenges.min() < 0 or challenges.max() >> n_stages:
        raise WidthMismatch(f"a challenge does not fit {n_stages} stages")
    tables = lane_tables(*stack_lanes(lanes, n_stages))
    reference = vote_batch(tables, challenges)
    flips = 0
    for lane, expected in enumerate(reference):
        for _ in range(repeats):
            noisy = vote_batch(tables.lane(lane), challenges, sigma, 1, rng)
            flips += int((noisy ^ expected).sum())
    uniformity = float(reference.mean())
    reliability = 1.0 - flips / (len(lanes) * repeats * challenges.size)

    pairs = [(i, j) for i in range(len(lanes)) for j in range(i + 1, len(lanes))]
    hamming = [float((reference[i] ^ reference[j]).mean()) for i, j in pairs]
    uniqueness = sum(hamming) / len(pairs) if pairs else float("nan")

    return MetricsRecord(
        uniformity=uniformity,
        reliability=reliability,
        uniqueness=uniqueness,
        n_lanes=len(lanes),
        n_challenges=int(challenges.size),
        repeats=repeats,
    )
