"""Package surface: modules share only public names, every name the package
exports resolves, and the exported names are pinned."""

import ast
from dataclasses import fields
from pathlib import Path

import dualpuf
from dualpuf import errors

SOURCES = sorted(Path(dualpuf.__file__).parent.glob("*.py"))


def test_no_module_imports_another_modules_private_names():
    offenders = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                offenders += [
                    f"{path.name}: from .{node.module or ''} import {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
    assert offenders == []


def offenders_outside(allowed, flagged) -> list[str]:
    """file:line of every AST node that flagged(node) marks outside the
    (file, function) pairs in allowed; a method is named Class.method."""
    offenders = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        functions = []
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                functions.append((node.name, node))
            elif isinstance(node, ast.ClassDef):
                functions += [
                    (f"{node.name}.{item.name}", item)
                    for item in node.body
                    if isinstance(item, ast.FunctionDef)
                ]
        exempt = [
            range(node.lineno, node.end_lineno + 1)
            for name, node in functions
            if (path.name, name) in allowed
        ]
        offenders += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if flagged(node) and not any(node.lineno in lines for lines in exempt)
        ]
    return offenders


def calls(node, names) -> bool:
    return isinstance(node, ast.Call) and bool({
        getattr(node.func, "attr", None), getattr(node.func, "id", None)
    } & set(names))


def test_only_the_delay_sum_reduction_multiplies_lane_weights():
    # lane weights meet the parity signs in apuf.lane_tables alone, by
    # elementwise products in a fixed stage order, so the tag, the readers
    # and the attacker cannot round a delay sum apart; no BLAS product
    # reorders a sum, and the attacker's own linear unit holds no lane weights
    attacker = {("adversary.py", "train_linear_attack")}

    def blas(node) -> bool:
        matmul = isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult)
        return matmul or calls(node, ["einsum"])

    def scales_weights(node) -> bool:
        return isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult) and any(
            "weights" in ast.unparse(side) for side in (node.left, node.right)
        )

    assert offenders_outside(attacker, blas) == []
    assert offenders_outside(attacker | {("apuf.py", "lane_tables")}, scales_weights) == []


def test_one_raw_lane_evaluator():
    # challenges become delay sums and lane bits in LaneBank.respond
    # (candidate challenges of run_rounds) and vote_batch (raw challenges)
    # and nowhere else; the attacker's linear unit and the bit-array entry
    # point of the parity transform only build features.  LaneBank.build
    # places the rows of its candidates once, with table_positions alone
    allowed = {
        ("obfuscator.py", "LaneBank.respond"),
        ("postproc.py", "vote_batch"),
        ("apuf.py", "parity_features"),
        ("adversary.py", "train_linear_attack"),
    }

    def evaluates(node) -> bool:
        return calls(node, ["features_from_ints", "lane_sums", "lane_bits"])

    def places(node) -> bool:
        return calls(node, ["table_positions"])

    assert offenders_outside(allowed, evaluates) == []
    assert offenders_outside(allowed | {("obfuscator.py", "LaneBank.build")}, places) == []


def test_voter_noise_is_drawn_in_one_place():
    # voter_noise checks sigma and voter_t and draws every vote's noise, so
    # lane_bits only votes the block it is given; the adjustment loop keeps
    # its stream at sigma 0 with a draw of its own, and sample_instance
    # draws lane weights
    allowed = {
        ("postproc.py", "voter_noise"),
        ("postproc.py", "randomness_adjust"),
        ("apuf.py", "sample_instance"),
    }
    assert offenders_outside(allowed, lambda node: calls(node, ["standard_normal", "normal"])) == []


def test_one_caller_of_the_selection_engine():
    # the tag, both readers and the attacker answer through their lane bank;
    # trace_records replays a vote history through the engine itself
    allowed = {("obfuscator.py", "LaneBank.respond"), ("obfuscator.py", "trace_records")}
    assert offenders_outside(allowed, lambda node: calls(node, ["run_rounds"])) == []


def test_only_domain_errors_are_raised():
    # every failure raised on purpose is a class from errors.py, so the CLI
    # maps it to exit code 1; a bare raise re-raises what was caught
    domain = {name for name, value in vars(errors).items() if isinstance(value, type)}

    def raises_other(node) -> bool:
        if not isinstance(node, ast.Raise) or node.exc is None:
            return False
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        return getattr(exc, "id", None) not in domain

    assert offenders_outside(set(), raises_other) == []


def test_one_galois_shift():
    # registers step in lfsr.step_array alone, so (state >> 1) ^ feedback
    # is spelled once; the scalar oracle in tests/reference.py is not scanned
    def halves_and_xors(node) -> bool:
        return isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitXor) and any(
            isinstance(side, ast.BinOp) and isinstance(side.op, ast.RShift)
            and getattr(side.right, "value", None) == 1
            for side in (node.left, node.right)
        )

    assert offenders_outside({("lfsr.py", "step_array")}, halves_and_xors) == []


def test_one_parity_feature_kernel():
    # features_from_ints computes phi from the challenge integer; a running
    # product over the bits would be a second feature kernel
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if "cumprod" in (getattr(node, "attr", None), getattr(node, "id", None))
    ]
    assert offenders == []


def touches_files(node) -> bool:
    """True for open(, os.replace, os.rename and any use of tempfile."""
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        modules = [getattr(node, "module", None)] + [alias.name for alias in node.names]
        return "tempfile" in modules
    if isinstance(node, ast.Name):
        return node.id in ("open", "tempfile")
    return (
        isinstance(node, ast.Attribute)
        and node.attr in ("replace", "rename")
        and getattr(node.value, "id", None) == "os"
    )


def test_only_persist_touches_files():
    # persist.py opens, writes and renames every file the package touches
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        if path.name != "persist.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if touches_files(node)
    ]
    assert offenders == []
    persist = next(path for path in SOURCES if path.name == "persist.py")
    assert any(map(touches_files, ast.walk(ast.parse(persist.read_text()))))


def defaulted_parameters(node, prefix=""):
    """(function.parameter, position) of every parameter with a default in
    the functions and methods under node.  position counts the arguments a
    caller writes, so a method's self is not one; it is None for a
    keyword-only parameter."""
    found = []
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            found += defaulted_parameters(child, f"{prefix}{child.name}.")
        elif isinstance(child, ast.FunctionDef):
            name, args = prefix + child.name, child.args
            positional = args.posonlyargs + args.args
            if positional and positional[0].arg in ("self", "cls"):
                positional = positional[1:]
            found += [
                (f"{name}.{param.arg}", position)
                for position, param in enumerate(positional)
                if position >= len(positional) - len(args.defaults)
            ]
            found += [
                (f"{name}.{param.arg}", None)
                for param, default in zip(args.kwonlyargs, args.kw_defaults)
                if default is not None
            ]
            found += defaulted_parameters(child, f"{name}.")
    return found


def unpassed_parameters(defining, calling) -> list[str]:
    """Every defaulted parameter of the functions in the defining files
    that no call in the calling files passes, by keyword or by position.
    Calls match by the callee's last name; *args passes every position and
    **kwargs every keyword."""
    calls_by_name: dict[str, list[tuple[float, set]]] = {}
    for path in calling:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call):
                callee = getattr(node.func, "attr", None) or getattr(node.func, "id", None)
                starred = any(isinstance(arg, ast.Starred) for arg in node.args)
                keywords = {keyword.arg for keyword in node.keywords}
                calls_by_name.setdefault(callee, []).append(
                    (float("inf") if starred else len(node.args), keywords)
                )
    unpassed = []
    for path in defining:
        for qualified, position in defaulted_parameters(ast.parse(path.read_text())):
            function, param = qualified.split(".")[-2:]
            if not any(
                param in keywords or None in keywords
                or (position is not None and count > position)
                for count, keywords in calls_by_name.get(function, [])
            ):
                unpassed.append(qualified)
    return unpassed


def test_every_defaulted_parameter_is_passed_somewhere():
    # a default that no call in the package or the benchmark overrides is a
    # knob nobody turns: it becomes a constant or goes
    calling = SOURCES + sorted((Path(__file__).parents[1] / "perfbench").glob("*.py"))
    allowed = {
        # interceptor experiments put a tap on the channel
        "run_authentication.channel",
        # a per-lane attacker picks the mode and the lane it models
        "collect_obfuscated_crps.mode",
        "collect_obfuscated_crps.lane",
    }
    unpassed = set(unpassed_parameters(SOURCES, calling))
    assert sorted(unpassed - allowed) == []
    assert sorted(allowed - unpassed) == []  # an entry some call now passes goes


def test_a_lane_is_its_weights_and_counters():
    # manufacture fixes these; noise belongs to the operating point and the
    # compensation unit is the constant DELTA_UNIT
    assert [f.name for f in fields(dualpuf.ApufInstance)] == ["weights", "adjust_up", "adjust_low"]


def test_every_exported_name_resolves():
    assert len(set(dualpuf.__all__)) == len(dualpuf.__all__)
    assert [name for name in dualpuf.__all__ if not hasattr(dualpuf, name)] == []


def test_public_names_are_pinned():
    # adding or removing a public name means editing this list on purpose
    assert sorted(dualpuf.__all__) == [
        "AdjustReport",
        "ApufInstance",
        "AttackReport",
        "AuthResult",
        "DeviceConfig",
        "DualLfsrSpec",
        "Frame",
        "LfsrSpec",
        "LinearAttackModel",
        "MetricsRecord",
        "PufDevice",
        "ReplayAttacker",
        "ServerRegistry",
        "SessionTranscript",
        "SimChannel",
        "SimulationError",
        "build_device",
        "classify",
        "collect_naked_crps",
        "collect_obfuscated_crps",
        "compare",
        "default_lane_pairs",
        "default_tau",
        "eavesdrop",
        "find_primitive",
        "gen_session",
        "is_m_sequence",
        "load_device",
        "load_registry",
        "predict_response",
        "puf_metrics",
        "randomness_adjust",
        "register_from_ttp",
        "replay_attack",
        "run_authentication",
        "run_registration",
        "sample_instance",
        "save_device",
        "save_registry",
        "serialize_response",
        "trace_records",
        "train_linear_attack",
    ]
