"""Host-time benchmark of the dualpuf simulator.

    python3 perfbench/run.py --workload auth_table --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from ``src`` and
nothing needs installing.  With ``--trace 0`` the last line of standard
output is a JSON object with the end-to-end metrics; with ``--trace 1`` the
run wraps the package's layers (see ``tracing.py``) and reports the
per-layer metrics instead.  Details of every run, and the spans of a traced
run, are written under ``perfbench/out/``.
"""

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import oracle  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
WORKLOADS = ("auth_table", "auth_model_noisy", "replay_campaign", "cli_lifecycle")

# one client, one BLAS thread, at most one CLI child at a time
for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

# (metric, layer, scope); see README.md for what each scope divides by
PER_LAYER = (
    ("lfsr.find_primitive_s", "lfsr.find_primitive", "s_per_setup"),
    ("lfsr.is_m_sequence_s", "lfsr.is_m_sequence", "s_per_setup"),
    ("apuf.features_s", "apuf.features", "s_per_op"),
    ("apuf.feature_rows_per_op", "apuf.features", "work_per_op"),
    ("apuf.feature_rows_per_harvested_challenge", "device.raw_crp_table", "rows_per_harvest"),
    ("postproc.randomness_adjust_s", "postproc.randomness_adjust", "s_per_setup"),
    ("postproc.vote_batch_s", "postproc.vote_batch", "s_per_setup"),
    ("obfuscator.run_rounds_us", "obfuscator.run_rounds", "us_per_call"),
    ("obfuscator.run_rounds_calls_per_op", "obfuscator.run_rounds", "calls_per_op"),
    ("device.respond_us", "device.respond", "us_per_call"),
    ("device.raw_crp_table_s", "device.raw_crp_table", "s_per_setup"),
    ("device.build_device_s", "device.build_device", "s_per_setup"),
    ("device.persist_s", "device.persist", "s_per_setup"),
    ("server.predict_response_us", "server.predict_response", "us_per_call"),
    ("server.gen_session_us", "server.gen_session", "us_per_call"),
    ("server.compare_us", "server.compare", "us_per_call"),
    ("server.register_from_ttp_s", "server.register_from_ttp", "s_per_setup"),
    ("server.persist_s", "server.persist", "s_per_setup"),
    ("protocol.run_authentication_us", "protocol.run_authentication", "us_per_call"),
    ("protocol.exchange_us", "protocol.exchange", "us_per_call"),
    ("adversary.replay_attack_us", "adversary.replay_attack", "us_per_call"),
    ("adversary.collect_obfuscated_crps_s", "adversary.collect_obfuscated_crps", "s_per_setup"),
    ("adversary.train_linear_attack_s", "adversary.train_linear_attack", "s_per_setup"),
)
UNITS = {
    "s_per_setup": "s", "s_per_op": "s", "us_per_call": "us", "calls_per_op": "calls/op",
    "work_per_op": "rows/op", "rows_per_harvest": "rows/challenge",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def end_to_end(result, setup_s: float, rss_kib: int) -> dict:
    lat = sorted(result.latencies_ns)
    return {
        "ops_per_s": (result.ops_per_s, "op/s"),
        "op_p50_ms": (statistics.median(lat) / 1e6, "ms"),
        "op_p90_ms": (percentile(lat, 0.90) / 1e6, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mib": (rss_kib / 1024, "MiB"),
    }


def per_layer(tracer, result, workload: str) -> dict:
    ops = len(result.latencies_ns)
    timed = [result.timed_window]
    cli = workload == "cli_lifecycle"
    setup_windows, setups = (timed, ops) if cli else (result.setup_windows, len(result.setup_windows))
    in_timed = tracer.aggregate(timed)
    in_setup = tracer.aggregate(setup_windows)
    everywhere = tracer.aggregate([(0, 2**62)])
    empty = {"self_ns": 0, "calls": 0, "work": 0, "rows_below": 0}
    out = {}
    for metric, layer, scope in PER_LAYER:
        t = in_timed.get(layer, empty)
        if scope == "s_per_setup":
            value = in_setup.get(layer, empty)["self_ns"] / 1e9 / setups
        elif scope == "s_per_op":
            value = t["self_ns"] / 1e9 / ops
        elif scope == "us_per_call":
            value = t["self_ns"] / 1e3 / t["calls"] if t["calls"] else 0.0
        elif scope == "calls_per_op":
            value = t["calls"] / ops
        elif scope == "work_per_op":
            value = t["work"] / ops
        else:  # rows_per_harvest
            h = everywhere.get(layer, empty)
            value = h["rows_below"] / h["work"] if h["work"] else 0.0
        out[metric] = (value, UNITS[scope])
    command_s = result.notes.get("command_s", {})
    for name in workloads.CLI_COMMANDS:
        out[f"cli.{name}_s"] = (command_s.get(name, 0.0), "s")
    out["trace.ops_per_s"] = (result.ops_per_s, "op/s")
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "dualpuf" / "__init__.py").is_file():
        print(f"error: no dualpuf package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import dualpuf  # noqa: F401  (import time is part of setup_s)

    import_s = time.perf_counter() - PROCESS_START
    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    tracer = tracing.Tracer() if args.trace else None
    try:
        if args.workload == "cli_lifecycle":
            result = workloads.cli_lifecycle(args.seed, args.seconds, workdir, child_env(),
                                             tracer)
            setup_s = result.setup_s
        else:
            if tracer:
                tracer.install()
            result = workloads.SESSION_WORKLOADS[args.workload](args.seed, args.seconds, workdir)
            setup_s = import_s + result.setup_s
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    try:
        oracle.self_check()
    except AssertionError as exc:
        result.problems.append(f"oracle self-check: {exc}")
    rss_kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    if tracer:
        metrics = per_layer(tracer, result, args.workload)
        tracer.write(str(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.csv.gz"))
    else:
        metrics = end_to_end(result, setup_s, rss_kib)
    summary = {
        "correct": not result.problems,
        "attempted": len(result.latencies_ns),
        "failed": result.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    lat = sorted(result.latencies_ns)
    detail = dict(summary, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, import_s=import_s, op_p99_ms=percentile(lat, 0.99) / 1e6,
                  problems=result.problems, errors=result.errors, notes=result.notes)
    with open(OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w") as fh:
        json.dump(detail, fh, indent=1)
    for problem in result.problems + result.errors:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
