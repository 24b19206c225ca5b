"""The four workloads: set-up, the timed closed loop, and the output checks.

Each workload function returns a ``Result``.  One client drives the program
in a closed loop: the next operation starts when the previous one returns.
Set-up runs ``SETUP_REPEATS`` times, each from cleared ``lfsr`` caches as in
a fresh process, and the timed phase uses the objects of the last set-up.
Checks run after the timed phase and compare against ``oracle`` (which does
not import ``dualpuf``) or against properties the paper states.
"""

from __future__ import annotations

import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field

import oracle

SETUP_REPEATS = 3
LANES = 64
SAMPLE_EVERY = 16        # every 16th session is checked against the oracle ...
SAMPLE_CAP = 150         # ... up to this many sessions per run
BINOMIAL_SIGMAS = 5.0
# auth_model_noisy's noise: a response's distance to the noiseless one is
# about Poisson(0.3) here, so reaching tau + 1 = 8 lanes takes ~1e-9 odds;
# at 0.05 it is Poisson(0.5) and ~6e-8, a rejected honest session every few
# hundred runs.
NOISE_SIGMA = 0.03
CLI_SESSIONS = 50
CLI_STARTS = 15          # child start-ups timed for cli_lifecycle's setup_s
CLI_TIMEOUT_S = 80
CLI_MIN_LIFECYCLES = 2   # a lifecycle takes about as long as a run measures


@dataclass
class Result:
    latencies_ns: list[int] = field(default_factory=list)
    failed: int = 0
    setup_s: float = 0.0
    setup_windows: list[tuple[int, int]] = field(default_factory=list)
    timed_window: tuple[int, int] = (0, 0)
    errors: list[str] = field(default_factory=list)     # first failed operations
    problems: list[str] = field(default_factory=list)   # run-level check failures
    notes: dict = field(default_factory=dict)

    @property
    def ops_per_s(self) -> float:
        begin, end = self.timed_window
        return len(self.latencies_ns) / ((end - begin) / 1e9)

    def fail(self, why: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(why)


def clear_lfsr_caches() -> None:
    """Empty the memo caches of the primitive search and the period check,
    so each set-up pays for them as a fresh process does."""
    import dualpuf.lfsr as lfsr

    for name in ("find_primitive", "is_m_sequence"):
        fn = getattr(lfsr, name, None)
        while fn is not None and not hasattr(fn, "cache_clear"):
            fn = getattr(fn, "__wrapped__", None)
        if fn is not None:
            fn.cache_clear()


def _repeat_setup(make, result: Result):
    """Run set-up SETUP_REPEATS times; return the last state and the median time."""
    state, times = None, []
    for _ in range(SETUP_REPEATS):
        state = None  # the previous set-up's objects must not count in peak memory
        clear_lfsr_caches()
        start = time.perf_counter_ns()
        state = make()
        end = time.perf_counter_ns()
        result.setup_windows.append((start, end))
        times.append(end - start)
    return state, statistics.median(times) / 1e9


def _timed_loop(op, seconds: float, result: Result, min_ops: int = 1) -> None:
    """Call op(i) back to back for `seconds`, and at least `min_ops` times;
    op returns an error string or None."""
    lat = result.latencies_ns
    clock = time.perf_counter_ns
    begin = clock()
    deadline = begin + int(seconds * 1e9)
    i = 0
    now = begin
    while now < deadline or i < min_ops:
        try:
            err = op(i)
        except Exception as exc:  # a raising operation is a failed one; keep measuring
            err = f"op {i} raised {type(exc).__name__}: {exc}"
        end = clock()
        lat.append(end - now)
        if err:
            result.fail(err)
        now = end
        i += 1
    result.timed_window = (begin, now)


def _sampled(i: int) -> bool:
    return i % SAMPLE_EVERY == 0 and i // SAMPLE_EVERY < SAMPLE_CAP


def _device(n: int, sigma: float, seed: int):
    from dualpuf import DeviceConfig, build_device, default_lane_pairs

    return build_device(DeviceConfig(
        k=LANES, n_stages=n, lane_pairs=default_lane_pairs(n, LANES),
        voter_t=5, sigma_noise=sigma, device_seed=seed,
    ))


def _oracle_lanes(device) -> list[oracle.Lane]:
    """The oracle's view of a device: lane weights, offsets and register masks."""
    return [
        oracle.Lane(lane.weights, lane.offset, pair.pair[0].mask, pair.pair[1].mask,
                    pair.rounds_per_response)
        for lane, pair in zip(device.lanes, device.config.lane_pairs)
    ]


def _responses(transcript) -> list[int]:
    from dualpuf.protocol import RESPONSE

    return [f.payload for f in transcript.frames if f.kind == RESPONSE]


# -- auth_table ---------------------------------------------------------------


def auth_table(seed: int, seconds: float, workdir: str) -> Result:
    from dualpuf import predict_response, run_authentication, run_registration
    from dualpuf.device import load_device, save_device
    from dualpuf.server import load_registry, save_registry

    result = Result()
    tag_path = os.path.join(workdir, "tag.json")
    registry_path = os.path.join(workdir, "registry.json")

    def make():
        device = _device(12, 0.0, seed)
        registry = run_registration(device, policy="full", rng_seed=seed + 1)
        save_device(device, tag_path)
        save_registry(registry, registry_path)
        del device, registry  # only the copies loaded back stay alive
        return load_device(tag_path), load_registry(registry_path)

    (device, registry), result.setup_s = _repeat_setup(make, result)
    sessions: dict[int, tuple[int, int, int]] = {}

    def op(i: int):
        r = run_authentication(registry, device)
        if _sampled(i):
            sessions[i] = r.session
        return None if r.passed else f"honest session {i} {r.session} rejected"

    _timed_loop(op, seconds, result)

    lanes = oracle.lanes_from_tag_file(tag_path)
    undecided = 0
    for i, (c1, c2, t) in sessions.items():
        for challenge, mode in ((c1, 1), (c2, t & 1)):
            expected = oracle.response(lanes, challenge, mode)
            undecided += expected.count(None)
            tag = device.respond(challenge, mode)
            reader = predict_response(registry, challenge, mode)
            if oracle.distance(expected, tag) != 0 or oracle.distance(expected, reader) != 0:
                result.fail(f"session {i}: C={challenge:#x} mode={mode} differs from the oracle")
                break
    result.notes.update(oracle_sessions=len(sessions), undecided_lanes=undecided)
    return result


# -- auth_model_noisy ---------------------------------------------------------


def auth_model_noisy(seed: int, seconds: float, workdir: str) -> Result:
    from dualpuf import predict_response, run_authentication, run_registration

    result = Result()

    def make():
        device = _device(16, NOISE_SIGMA, seed)
        return device, run_registration(device, policy="params", rng_seed=seed + 1)

    (device, registry), result.setup_s = _repeat_setup(make, result)
    sampled: dict[int, tuple[tuple[int, int, int], list[int]]] = {}

    def op(i: int):
        r = run_authentication(registry, device)
        if _sampled(i):
            sampled[i] = (r.session, _responses(r.transcript))
        return None if r.passed else f"honest session {i} {r.session} rejected"

    _timed_loop(op, seconds, result)

    lanes = _oracle_lanes(device)
    distances = []
    for i, ((c1, c2, t), payloads) in sampled.items():
        for (challenge, mode), payload in zip(((c1, 1), (c2, t & 1)), payloads):
            expected = oracle.response(lanes, challenge, mode)
            if oracle.distance(expected, predict_response(registry, challenge, mode)) != 0:
                result.fail(f"session {i}: reader's C={challenge:#x} differs from the oracle")
                break
            d = oracle.distance(expected, oracle.unpack(payload, LANES))
            distances.append(d)
            if d > registry.tau:
                result.fail(f"session {i}: tag at distance {d} > tau={registry.tau}")
                break
    mean = statistics.fmean(distances) if distances else 0.0
    if not mean > 0:
        result.problems.append(f"noisy tag matched the oracle exactly on {len(distances)} responses")
    result.notes.update(
        oracle_responses=len(distances), mean_distance=mean,
        max_distance=max(distances, default=0), tau=registry.tau,
    )
    return result


# -- replay_campaign ----------------------------------------------------------


def replay_campaign(seed: int, seconds: float, workdir: str) -> Result:
    from dualpuf import (ReplayAttacker, eavesdrop, replay_attack,
                         run_authentication, run_registration)

    result = Result()

    def make():
        device = _device(12, 0.0, seed)
        registry = run_registration(device, policy="full", rng_seed=seed + 1)
        honest = run_authentication(registry, device)
        return registry, device, honest, eavesdrop(ReplayAttacker(), honest.transcript)

    (registry, device, honest, attacker), result.setup_s = _repeat_setup(make, result)
    c1, c2, t_rec = honest.session
    # A replayed C2 passes when the tag's response to it in the fresh gap's
    # mode equals the recorded one: on a parity match, and also in the other
    # mode when the two responses coincide.
    lanes = _oracle_lanes(device)
    by_mode = [oracle.response(lanes, c2, mode) for mode in (0, 1)]
    mode_blind = by_mode[0] == by_mode[1]
    expected = [oracle.response(lanes, c1, 1), by_mode[t_rec & 1]]
    sent = [oracle.unpack(p, LANES) for p in _responses(honest.transcript)]
    if not honest.passed or [oracle.distance(e, b) for e, b in zip(expected, sent)] != [0, 0]:
        result.problems.append(f"recorded session {honest.session} differs from the oracle")
    t_min, t_max = registry.t_range
    matches = [0]

    def op(i: int):
        report = replay_attack(attacker, registry, 1, reuse_challenges=True,
                               recorded=honest.transcript, parity_policy="random",
                               rng_seed=seed * 1_000_003 + i)
        t, _, passed = report.outcomes[0]
        matched = t % 2 == t_rec % 2
        matches[0] += matched
        if not t_min <= t <= t_max:
            return f"replay {i}: gap {t} outside [{t_min}, {t_max}]"
        if bool(passed) != (matched or mode_blind):
            return f"replay {i}: gap {t} vs recorded {t_rec}, passed={passed}"
        return None

    _timed_loop(op, seconds, result)
    n = len(result.latencies_ns)
    if abs(matches[0] - n / 2) > BINOMIAL_SIGMAS * math.sqrt(n) / 2:
        result.problems.append(f"{matches[0]} of {n} gaps matched parity, outside the binomial bound")
    result.notes.update(parity_matches=matches[0], recorded_gap=t_rec, mode_blind_c2=mode_blind)
    return result


# -- cli_lifecycle ------------------------------------------------------------


def _cli_argv(seed: int) -> list[tuple[str, list[str]]]:
    return [
        ("lfsr_primitive", ["lfsr", "primitive", "--order", "16"]),
        ("device_build", ["device", "build", "--stages", "16", "--lanes", str(LANES),
                          "--seed", str(seed), "--out", "tag.json"]),
        ("auth_register", ["auth", "register", "--device", "tag.json", "--policy", "full",
                           "--seed", str(seed + 1), "--out", "registry.json"]),
        ("auth_run", ["auth", "run", "--device", "tag.json", "--registry", "registry.json",
                      "--sessions", str(CLI_SESSIONS)]),
        ("attack_model_naked", ["attack", "model", "--stages", "16", "--seed", str(seed)]),
        ("attack_model_obfuscated", ["attack", "model", "--stages", "16", "--obfuscated",
                                    "--seed", str(seed)]),
    ]


CLI_COMMANDS = tuple(name for name, _ in _cli_argv(0))


def _holdout(text: str) -> float:
    for line in text.splitlines():
        key, _, value = line.partition("=")
        if key.strip() == "holdout_accuracy":
            return float(value)
    return float("nan")


def _check_command(name: str, out: str, seen: dict) -> str | None:
    """Property the command's output must show; None when it holds."""
    if name == "lfsr_primitive":
        masks = [int(tok, 0) for tok in out.split()]
        want = oracle.primitive_count(16)
        if len(masks) != want or len(set(masks)) != want or masks != sorted(masks):
            return f"lfsr primitive listed {len(masks)} masks, want {want} distinct ascending"
        if any(m & 1 == 0 or m >> 16 != 1 for m in masks):
            return "lfsr primitive listed a mask without bits 0 and 16 set"
    elif name == "auth_register":
        if "mode=table tau=0" not in out:
            return f"auth register said {out.strip()!r}"
    elif name == "auth_run":
        if out.strip() != f"pass={CLI_SESSIONS}/{CLI_SESSIONS}":
            return f"auth run said {out.strip()!r}"
    elif name == "attack_model_naked":
        seen["naked"] = _holdout(out)
        if not seen["naked"] >= 0.95:
            return f"naked attack holdout {seen['naked']} < 0.95"
    elif name == "attack_model_obfuscated":
        obf = _holdout(out)
        if not obf <= seen.get("naked", float("nan")) - 0.15:
            return f"obfuscated attack holdout {obf} not 0.15 below naked {seen.get('naked')}"
    return None


def cli_lifecycle(seed: int, seconds: float, workdir: str, env: dict, tracer) -> Result:
    """Six cold `python -m dualpuf` commands per lifecycle, in a fresh directory.

    With a tracer (the traced run) each command starts through `cli_shim.py`
    instead, which writes its spans to a file that the tracer then merges.
    """
    shim = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_shim.py")
    result = Result()
    starts = []
    for _ in range(CLI_STARTS):
        start = time.perf_counter_ns()
        subprocess.run([sys.executable, "-c", "import dualpuf"], env=env, check=True,
                       timeout=CLI_TIMEOUT_S, cwd=workdir)
        starts.append(time.perf_counter_ns() - start)
    result.setup_s = statistics.median(starts) / 1e9
    per_command: dict[str, list[float]] = {name: [] for name in CLI_COMMANDS}

    def op(i: int):
        lifecycle_dir = tempfile.mkdtemp(prefix=f"lifecycle{i}-", dir=workdir)
        try:
            seen: dict = {}
            for j, (name, argv) in enumerate(_cli_argv(seed * 1000 + i)):
                spans = os.path.join(lifecycle_dir, f"spans{j}.json")
                prefix = [shim, spans] if tracer else ["-m", "dualpuf"]
                start = time.perf_counter_ns()
                proc = subprocess.run([sys.executable, *prefix, *argv], env=env,
                                      cwd=lifecycle_dir, capture_output=True, text=True,
                                      timeout=CLI_TIMEOUT_S)
                per_command[name].append((time.perf_counter_ns() - start) / 1e9)
                if tracer and os.path.exists(spans):
                    tracer.merge(spans)
                if proc.returncode != 0:
                    return f"lifecycle {i}: {name} exited {proc.returncode}: {proc.stderr[-300:]}"
                err = _check_command(name, proc.stdout, seen)
                if err:
                    return f"lifecycle {i}: {err}"
            return None
        finally:
            shutil.rmtree(lifecycle_dir, ignore_errors=True)

    _timed_loop(op, seconds, result, min_ops=CLI_MIN_LIFECYCLES)
    result.notes["command_s"] = {
        name: statistics.median(times) for name, times in per_command.items() if times
    }
    return result


SESSION_WORKLOADS = {
    "auth_table": auth_table,
    "auth_model_noisy": auth_model_noisy,
    "replay_campaign": replay_campaign,
}
