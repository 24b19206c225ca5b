"""Package surface: modules share only public names, every name the package
exports resolves, and the exported names are pinned."""

import ast
from pathlib import Path

import dualpuf

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
    # lane weights meet parity features in apuf.delay_sums alone, so the
    # tag, the readers and the attacker cannot round a delay sum apart; the
    # attacker's own linear unit holds no lane weights
    allowed = {
        ("apuf.py", "delay_sums"),
        ("adversary.py", "LinearAttackModel.predict_batch"),
        ("adversary.py", "train_linear_attack"),
    }

    def product(node) -> bool:
        matmul = isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult)
        return matmul or calls(node, ["einsum"])

    assert offenders_outside(allowed, product) == []


def test_one_raw_lane_evaluator():
    # challenges become lane bits in voted_round, the tag's enrollment rows
    # and nowhere else; the attacker's linear unit and the bit-array entry
    # point of the parity transform only build features
    allowed = {
        ("postproc.py", "voted_round"),
        ("device.py", "PufDevice._naked_rows"),
        ("apuf.py", "parity_features"),
        ("adversary.py", "LinearAttackModel.predict_batch"),
        ("adversary.py", "train_linear_attack"),
    }

    def evaluates(node) -> bool:
        return calls(node, ["features_from_ints", "lane_bits"])

    assert offenders_outside(allowed, evaluates) == []


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


def test_every_exported_name_resolves():
    assert len(set(dualpuf.__all__)) == len(dualpuf.__all__)
    assert [name for name in dualpuf.__all__ if not hasattr(dualpuf, name)] == []


def test_public_names_are_pinned():
    # adding or removing a public name means editing this list on purpose
    assert sorted(dualpuf.__all__) == [
        "AdjustParams",
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
        "deserialize_response",
        "eavesdrop",
        "find_primitive",
        "gen_session",
        "is_m_sequence",
        "load_device",
        "load_registry",
        "parity_features",
        "pick_lfsr_pair",
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
