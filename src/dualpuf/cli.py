"""Command-line surface: register analysis, device lifecycle, protocol runs,
attacks, and metrics.  Every run is deterministic given its flags and seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

import numpy as np

from .adversary import (
    ReplayAttacker,
    collect_naked_crps,
    collect_obfuscated_crps,
    eavesdrop,
    puf_metrics,
    replay_attack,
    train_linear_attack,
)
from .apuf import sample_instance
from .device import (
    DEFAULT_VOTER_T,
    DeviceConfig,
    build_device,
    default_lane_pairs,
    load_device,
    save_device,
    serialize_response,
)
from .errors import InvalidParameter, SimulationError
from .lfsr import LfsrSpec, classify, find_primitive
from .obfuscator import DEFAULT_ROUNDS, DualLfsrSpec, trace_records
from .persist import atomic_write
from .protocol import run_authentication, run_registration
from .server import DEFAULT_T_RANGE, load_registry


def _flag(*names, **options) -> argparse.ArgumentParser:
    """A parent parser holding one shared flag."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(*names, **options)
    return parent


def build_parser() -> argparse.ArgumentParser:
    # each command takes only the shared flags it reads
    seed = _flag("--seed", type=int, default=0, help="run seed")
    style = _flag("--format", choices=("table", "records"), default="table",
                  help="report style: aligned table or key=value records")
    copy = _flag("--out", help="also write the report to this file")
    parser = argparse.ArgumentParser(
        prog="dualpuf",
        description="Simulation toolkit for a time-variant dual-LFSR arbiter "
        "PUF and its two-time authentication protocol.",
    )
    top = parser.add_subparsers(dest="group", required=True)

    lfsr = top.add_parser("lfsr", help="register and polynomial analysis")
    lfsr_sub = lfsr.add_subparsers(dest="command", required=True)
    p = lfsr_sub.add_parser("primitive", parents=[copy], help="list primitive polynomials")
    p.add_argument("--order", type=int, required=True)
    p = lfsr_sub.add_parser("classify", parents=[style, copy], help="cycles of a polynomial")
    p.add_argument("--poly", required=True, help="mask (0b1011) or human form (x^3+x+1)")
    p = lfsr_sub.add_parser("trace", parents=[copy], help="challenge trace for a vote history")
    p.add_argument("--poly", required=True)
    p.add_argument("--poly2", required=True)
    p.add_argument("--challenge", required=True, help="external challenge, any int literal")
    p.add_argument("--mode", type=int, choices=(0, 1), default=1)
    p.add_argument("--bits", required=True, help="per-round vote history, e.g. 00110")

    device = top.add_parser("device", help="tag lifecycle")
    device_sub = device.add_subparsers(dest="command", required=True)
    p = device_sub.add_parser("build", parents=[seed], help="manufacture and initialize a tag")
    p.add_argument("--out", dest="target", help="device file to write")
    p.add_argument("--stages", type=int, required=True)
    p.add_argument("--lanes", type=int, default=1)
    p.add_argument("--sigma", type=float, default=0.0)
    p.add_argument("--voter-t", type=int, default=DEFAULT_VOTER_T)
    p.add_argument("--rounds", type=int, default=DEFAULT_ROUNDS)
    p = device_sub.add_parser("fuse", parents=[copy], help="close the raw interface")
    p.add_argument("--device", required=True)
    p = device_sub.add_parser("crp", parents=[copy], help="raw naked query (pre-fuse only)")
    p.add_argument("--device", required=True)
    p.add_argument("--challenge", required=True)

    auth = top.add_parser("auth", help="registration and authentication")
    auth_sub = auth.add_subparsers(dest="command", required=True)
    p = auth_sub.add_parser("register", parents=[seed], help="enroll a device, fuse it")
    p.add_argument("--out", dest="target", help="registry file to write")
    p.add_argument("--device", required=True)
    p.add_argument("--policy", choices=("auto", "full", "params"), default="auto")
    p.add_argument("--tau", type=int)
    p.add_argument("--t-min", type=int, default=DEFAULT_T_RANGE[0])
    p.add_argument("--t-max", type=int, default=DEFAULT_T_RANGE[1])
    p = auth_sub.add_parser("run", parents=[copy], help="honest sessions")
    p.add_argument("--device", required=True)
    p.add_argument("--registry", required=True)
    p.add_argument("--sessions", type=int, default=100)
    p.add_argument("--tau", type=int, help="override the registered threshold")

    attack = top.add_parser("attack", help="adversary harnesses")
    attack_sub = attack.add_subparsers(dest="command", required=True)
    p = attack_sub.add_parser("replay", parents=[seed, style, copy], help="replay a recorded session")
    p.add_argument("--device", required=True)
    p.add_argument("--registry", required=True)
    p.add_argument("--sessions", type=int, default=2000)
    p.add_argument("--parity", choices=("random", "flip", "match"), default="random")
    p.add_argument("--no-reuse", action="store_true", help="server draws fresh challenges")
    p = attack_sub.add_parser("model", parents=[seed, style, copy], help="linear modeling attack",
                              description="The report is key = value lines in either --format.")
    p.add_argument("--stages", type=int, required=True)
    p.add_argument("--train", type=int, default=20000)
    p.add_argument("--test", type=int, default=5000)
    p.add_argument("--epochs", type=int, default=300)
    p.add_argument("--lr", type=float, default=0.5)
    p.add_argument("--obfuscated", action="store_true", help="attack the external interface")

    p = top.add_parser("metrics", parents=[seed, style, copy],
                       help="uniformity/reliability/uniqueness")
    p.add_argument("--stages", type=int, required=True)
    p.add_argument("--lanes", type=int, default=50)
    p.add_argument("--challenges", type=int, default=1000)
    p.add_argument("--repeats", type=int, default=11)
    p.add_argument("--sigma", type=float, default=0.0)
    return parser


def field_lines(report) -> list[str]:
    """key = value lines, one per dataclass field shown in the report's repr."""
    fields = (f.name for f in dataclasses.fields(report) if f.repr)
    return [f"{name} = {getattr(report, name)!r}" for name in fields]


def report_lines(report, style: str) -> list[str]:
    """A report in a --format style: its records, or its table_rows aligned."""
    if style == "records":
        return field_lines(report)
    rows = report.table_rows()
    width = max(len(name) for name, _ in rows)
    return [f"{name:<{width}}  {value}" for name, value in rows]


def _emit(args, lines: list[str]) -> None:
    text = "\n".join(lines)
    print(text)
    if getattr(args, "out", None):  # the report copy; artifact commands have none
        atomic_write(args.out, text + "\n")


def _int_literal(text: str, flag: str) -> int:
    """An integer flag written as any int literal (31, 0x1f, 0b11111)."""
    try:
        return int(text, 0)
    except ValueError:
        raise InvalidParameter(f"{flag} {text!r} is not an integer literal") from None


def _cmd_lfsr(args) -> list[str]:
    if args.command == "primitive":
        return [" ".join(spec.mask_str() for spec in find_primitive(args.order))]
    if args.command == "classify":
        spec = LfsrSpec.parse(args.poly)
        result = classify(spec)
        width = spec.order
        lines = [f"poly = {spec}", f"useless = {0:0{width}b}"]
        lines += [
            "useful = " + " ".join(f"{s:0{width}b}" for s in cycle)
            for cycle in result.useful
        ]
        lines += [
            "additional = " + " ".join(f"{s:0{width}b}" for s in cycle)
            for cycle in result.additional
        ]
        if args.format == "records":
            lines = [
                f"poly = {spec.mask_str()}",
                "useless_states = 1",
                f"useful_cycles = {len(result.useful)}",
                f"useful_states = {result.useful_count}",
                f"additional_cycles = {len(result.additional)}",
                f"additional_states = {result.additional_count}",
            ]
        return lines
    pair = DualLfsrSpec(
        (LfsrSpec.parse(args.poly), LfsrSpec.parse(args.poly2)),
        rounds_per_response=len(args.bits),
    )
    if not set(args.bits) <= {"0", "1"}:
        raise InvalidParameter(f"--bits {args.bits!r} is not a string of 0s and 1s")
    bits = [int(b) for b in args.bits]
    return trace_records(pair, _int_literal(args.challenge, "--challenge"), args.mode, bits)


def _cmd_device(args) -> list[str]:
    if args.command == "build":
        if not args.target:
            raise SimulationError("device build needs --out for the device file")
        config = DeviceConfig(
            k=args.lanes,
            n_stages=args.stages,
            lane_pairs=default_lane_pairs(args.stages, args.lanes, args.rounds),
            voter_t=args.voter_t,
            sigma_noise=args.sigma,
            device_seed=args.seed,
        )
        save_device(build_device(config), args.target)
        return [f"built k={args.lanes} stages={args.stages} -> {args.target}"]
    if args.command == "fuse":
        device = load_device(args.device)
        device.fuse()
        save_device(device, args.device)
        return ["fused"]
    device = load_device(args.device)
    value = serialize_response(device.raw_crp_query(_int_literal(args.challenge, "--challenge")))
    return [f"{value:0{(device.config.k + 3) // 4}x}"]


def _cmd_auth(args) -> list[str]:
    if args.command == "register":
        if not args.target:
            raise SimulationError("auth register needs --out for the registry file")
        device = load_device(args.device)
        registry = run_registration(
            device,
            registry_path=args.target,
            policy=args.policy,
            tau=args.tau,
            t_range=(args.t_min, args.t_max),
            rng_seed=args.seed,
        )
        save_device(device, args.device)  # persist the fused flag
        return [f"registered mode={registry.mode} tau={registry.tau} -> {args.target}"]
    if args.sessions < 0:
        raise InvalidParameter(f"--sessions {args.sessions} < 0")
    device = load_device(args.device)
    registry = load_registry(args.registry)
    if args.tau is not None:
        registry = dataclasses.replace(registry, tau=args.tau)
    passes = sum(
        run_authentication(registry, device).passed for _ in range(args.sessions)
    )
    return [f"pass={passes}/{args.sessions}"]


def _cmd_attack(args) -> list[str]:
    if args.command == "replay":
        device = load_device(args.device)
        registry = load_registry(args.registry)
        honest = run_authentication(registry, device)
        if not honest.passed:
            raise SimulationError("the recorded honest session did not pass")
        attacker = eavesdrop(ReplayAttacker(), honest.transcript)
        report = replay_attack(
            attacker,
            registry,
            sessions=args.sessions,
            reuse_challenges=not args.no_reuse,
            recorded=honest.transcript if not args.no_reuse else None,
            parity_policy=args.parity,
            rng_seed=args.seed,
        )
        return report_lines(report, args.format)

    if args.train < 1 or args.test < 1:
        raise InvalidParameter(
            f"--train {args.train} and --test {args.test} must each be at least 1"
        )
    total = args.train + args.test
    split = args.train / total
    if args.obfuscated:
        config = DeviceConfig(
            k=1,
            n_stages=args.stages,
            lane_pairs=default_lane_pairs(args.stages, 1),
            device_seed=args.seed,
        )
        challenges, labels = collect_obfuscated_crps(
            build_device(config), total, rng_seed=args.seed + 1
        )
    else:
        lane = sample_instance(args.stages, args.seed)
        challenges, labels = collect_naked_crps(lane, total, rng_seed=args.seed + 1)
    model = train_linear_attack(
        challenges, labels, args.stages, split=split, epochs=args.epochs,
        learning_rate=args.lr, rng_seed=args.seed,
    )
    return [f"target = {'obfuscated' if args.obfuscated else 'naked'}"] + field_lines(model)


def _cmd_metrics(args) -> list[str]:
    lanes = [
        sample_instance(args.stages, np.random.SeedSequence([args.seed, i]))
        for i in range(args.lanes)
    ]
    rng = np.random.default_rng(args.seed)
    challenges = rng.integers(0, 1 << args.stages, size=args.challenges)
    record = puf_metrics(lanes, challenges, args.sigma, repeats=args.repeats, rng_seed=args.seed + 1)
    return report_lines(record, args.format)


def dispatch(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.group == "lfsr":
            lines = _cmd_lfsr(args)
        elif args.group == "device":
            lines = _cmd_device(args)
        elif args.group == "auth":
            lines = _cmd_auth(args)
        elif args.group == "attack":
            lines = _cmd_attack(args)
        else:
            lines = _cmd_metrics(args)
        _emit(args, lines)
    except SimulationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
