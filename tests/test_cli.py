"""Command-line behavior, via dispatch() plus real-process smoke tests."""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import dualpuf
import reference
from conftest import make_device
from dualpuf.cli import build_parser, dispatch
from dualpuf.device import default_lane_pairs, load_device, serialize_response
from dualpuf.errors import SimulationError
from dualpuf.lfsr import LfsrSpec
from dualpuf.obfuscator import DualLfsrSpec, trace_records
from dualpuf.persist import pair_to_json
from dualpuf.server import load_registry


def run_cli(capsys, *argv):
    code = dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out.splitlines(), captured.err


def records(lines):
    pairs = (line.partition(" = ") for line in lines)
    return {key: value for key, _, value in pairs}


def test_primitive_listing(capsys):
    code, out, _ = run_cli(capsys, "lfsr", "primitive", "--order", "3")
    assert code == 0
    assert out == ["0b1011 0b1101"]


def test_classify_records(capsys):
    code, out, _ = run_cli(
        capsys, "lfsr", "classify", "--poly", "0b1111", "--format", "records"
    )
    assert code == 0
    got = records(out)
    assert got["poly"] == "0b1111"
    assert got["useless_states"] == "1"
    assert got["useful_cycles"] == "1"
    assert got["useful_states"] == "4"
    assert got["additional_cycles"] == "2"
    assert got["additional_states"] == "3"


def test_classify_table_lists_every_cycle(capsys):
    code, out, _ = run_cli(capsys, "lfsr", "classify", "--poly", "0b1111")
    assert code == 0
    assert out[0] == "poly = x^3+x^2+x+1 (0b1111)"
    assert out[1] == "useless = 000"
    assert out[2] == "useful = 001 111 100 010"
    assert sorted(out[3:]) == ["additional = 011 110", "additional = 101"]


def test_trace_matches_the_library(capsys):
    code, out, _ = run_cli(
        capsys, "lfsr", "trace", "--poly", "0b1011", "--poly2", "0b1101",
        "--challenge", "0b001", "--mode", "1", "--bits", "00110",
    )
    assert code == 0
    pair = DualLfsrSpec((LfsrSpec(0b1011), LfsrSpec(0b1101)), 5)
    assert out == trace_records(pair, 1, 1, [0, 0, 1, 1, 0])


def test_device_auth_pipeline(capsys, tmp_path):
    dev = str(tmp_path / "dev.json")
    reg = str(tmp_path / "reg.json")

    code, out, _ = run_cli(
        capsys, "device", "build", "--stages", "8", "--lanes", "2",
        "--seed", "3", "--out", dev,
    )
    assert code == 0 and out == [f"built k=2 stages=8 -> {dev}"]

    twin = make_device(k=2)  # same manufacturing parameters and seed
    expected = serialize_response(twin.raw_crp_query(0x2A))
    code, out, _ = run_cli(capsys, "device", "crp", "--device", dev,
                           "--challenge", "0x2a")
    assert code == 0 and out == [f"{expected:01x}"]

    code, out, _ = run_cli(capsys, "auth", "register", "--device", dev, "--out", reg)
    assert code == 0 and out == [f"registered mode=table tau=0 -> {reg}"]

    code, out, _ = run_cli(
        capsys, "auth", "run", "--device", dev, "--registry", reg,
        "--sessions", "20",
    )
    assert code == 0 and out == ["pass=20/20"]

    # the fuse is in the persisted device file now
    code, out, err = run_cli(capsys, "device", "crp", "--device", dev,
                             "--challenge", "0x2a")
    assert code == 1 and out == [] and err.startswith("error:")

    code, _, err = run_cli(capsys, "auth", "register", "--device", dev, "--out", reg)
    assert code == 1 and err.startswith("error:")


def test_replay_attack_flip_parity_never_wins(capsys, tmp_path):
    dev = str(tmp_path / "dev.json")
    reg = str(tmp_path / "reg.json")
    run_cli(capsys, "device", "build", "--stages", "8", "--lanes", "16",
            "--seed", "31", "--out", dev)
    run_cli(capsys, "auth", "register", "--device", dev, "--out", reg,
            "--seed", "17")
    code, out, _ = run_cli(
        capsys, "attack", "replay", "--device", dev, "--registry", reg,
        "--sessions", "200", "--parity", "flip", "--seed", "4",
        "--format", "records",
    )
    assert code == 0
    got = records(out)
    assert got["trials"] == "200"
    assert got["successes"] == "0"
    assert got["parity_match_trials"] == "0"
    assert got["parity_mismatch_successes"] == "0"


def test_model_attack_on_a_bare_lane(capsys):
    code, out, _ = run_cli(
        capsys, "attack", "model", "--stages", "10", "--train", "2000",
        "--test", "500", "--epochs", "120", "--seed", "1",
    )
    assert code == 0
    got = records(out)
    assert got["target"] == "naked"
    assert got["train_size"] == "2000"
    assert float(got["holdout_accuracy"]) == pytest.approx(0.996, abs=1e-9)


def test_metrics_records(capsys):
    code, out, _ = run_cli(
        capsys, "metrics", "--stages", "8", "--lanes", "6",
        "--challenges", "1000", "--repeats", "2", "--format", "records",
    )
    assert code == 0
    got = records(out)
    assert got["reliability"] == "1.0"  # exact at zero noise
    assert 0.0 < float(got["uniformity"]) < 1.0
    assert 0.0 < float(got["uniqueness"]) < 1.0
    assert got["n_lanes"] == "6" and got["n_challenges"] == "1000"


NAKED_MODEL = ["target = naked", "train_size = 2000", "holdout_accuracy = 0.996"]
OBFUSCATED_MODEL = [
    "target = obfuscated", "train_size = 1000", "holdout_accuracy = 0.5966666666666667",
]
# exact report lines for fixed seeds: (argv, --format table, --format records)
PINNED_REPORTS = [
    (
        ["attack", "replay", "--sessions", "200", "--seed", "4"],
        ["sessions         200", "successes        95", "success rate     0.4750",
         "parity match     95/95", "parity mismatch  0/105"],
        ["trials = 200", "successes = 95", "success_rate = 0.475",
         "parity_match_trials = 95", "parity_match_successes = 95",
         "parity_mismatch_trials = 105", "parity_mismatch_successes = 0"],
    ),
    (
        ["attack", "model", "--stages", "10", "--train", "2000", "--test", "500",
         "--epochs", "120", "--seed", "1"],
        NAKED_MODEL,
        None,  # key = value lines in any style, so no --format
    ),
    (
        ["attack", "model", "--stages", "8", "--train", "1000", "--test", "300",
         "--epochs", "100", "--seed", "2", "--obfuscated"],
        OBFUSCATED_MODEL,
        None,
    ),
    (
        ["metrics", "--stages", "8", "--lanes", "6", "--challenges", "1000",
         "--repeats", "2"],
        ["uniformity   0.3457", "reliability  1.0000", "uniqueness   0.4632",
         "lanes        6", "challenges   1000", "repeats      2"],
        ["uniformity = 0.3456666666666667", "reliability = 1.0",
         "uniqueness = 0.4631999999999999", "n_lanes = 6", "n_challenges = 1000",
         "repeats = 2"],
    ),
    (
        ["metrics", "--stages", "8", "--lanes", "4", "--challenges", "1000",
         "--repeats", "3", "--sigma", "0.3", "--seed", "5"],
        ["uniformity   0.4793", "reliability  0.9745", "uniqueness   0.5405",
         "lanes        4", "challenges   1000", "repeats      3"],
        ["uniformity = 0.47925", "reliability = 0.9745",
         "uniqueness = 0.5404999999999999", "n_lanes = 4", "n_challenges = 1000",
         "repeats = 3"],
    ),
    (
        ["metrics", "--stages", "8", "--lanes", "1", "--challenges", "1000",
         "--repeats", "2", "--sigma", "0.3"],
        ["uniformity   0.3320", "reliability  0.9595", "uniqueness   nan",
         "lanes        1", "challenges   1000", "repeats      2"],
        ["uniformity = 0.332", "reliability = 0.9595", "uniqueness = nan",
         "n_lanes = 1", "n_challenges = 1000", "repeats = 2"],
    ),
]


def test_report_output_is_pinned(capsys, tmp_path):
    # a change to a report's figures or to either formatter moves a line here
    dev, reg = built_tag(capsys, tmp_path, register=True)
    for argv, table, recs in PINNED_REPORTS:
        if argv[:2] == ["attack", "replay"]:
            argv = argv + ["--device", dev, "--registry", reg]
        styles = [("--format", "table"), ("--format", "records")] if recs else [()]
        for style, want in zip(styles, (table, recs)):
            code, out, _ = run_cli(capsys, *argv, *style)
            assert (code, out) == (0, want), (argv, style)


def test_out_files_are_deterministic(capsys, tmp_path):
    a, b = str(tmp_path / "a.txt"), str(tmp_path / "b.txt")
    for path in (a, b):
        code, _, _ = run_cli(capsys, "lfsr", "primitive", "--order", "4",
                             "--out", path)
        assert code == 0
    assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()
    assert (tmp_path / "a.txt").read_text() == "0b10011 0b11001\n"


def test_exit_codes(capsys, tmp_path):
    assert dispatch([]) == 2  # argparse usage error
    capsys.readouterr()
    code, _, err = run_cli(capsys, "device", "build", "--stages", "8")
    assert code == 1 and err.startswith("error:")


def command_options(parser, words=()):
    """Every command of parser, as its words, mapped to its sorted option strings."""
    groups = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not groups:
        options = (o for a in parser._actions if a.dest != "help" for o in a.option_strings)
        return {" ".join(words): sorted(options)}
    return {
        command: options
        for name, sub in groups[0].choices.items()
        for command, options in command_options(sub, words + (name,)).items()
    }


def test_command_options_are_pinned():
    # each command takes only the shared --seed, --format and --out it reads
    # (attack model prints key = value lines and takes no --format);
    # adding or dropping a flag means editing this map on purpose
    assert command_options(build_parser()) == {
        "lfsr primitive": ["--order", "--out"],
        "lfsr classify": ["--format", "--out", "--poly"],
        "lfsr trace": ["--bits", "--challenge", "--mode", "--out", "--poly", "--poly2"],
        "device build": ["--lanes", "--out", "--rounds", "--seed", "--sigma", "--stages",
                         "--voter-t"],
        "device fuse": ["--device", "--out"],
        "device crp": ["--challenge", "--device", "--out"],
        "auth register": ["--device", "--out", "--policy", "--seed", "--t-max", "--t-min",
                          "--tau"],
        "auth run": ["--device", "--out", "--registry", "--sessions", "--tau"],
        "attack replay": ["--device", "--format", "--no-reuse", "--out", "--parity",
                          "--registry", "--seed", "--sessions"],
        "attack model": ["--epochs", "--lr", "--obfuscated", "--out", "--seed", "--stages",
                         "--test", "--train"],
        "metrics": ["--challenges", "--format", "--lanes", "--out", "--repeats", "--seed",
                    "--sigma", "--stages"],
    }


def test_a_flag_the_command_does_not_read_is_a_usage_error(capsys):
    # argparse refuses it before any file is opened
    assert dispatch(["auth", "run", "--device", "t.json", "--registry", "r.json",
                     "--seed", "1"]) == 2
    assert dispatch(["lfsr", "primitive", "--order", "3", "--format", "records"]) == 2
    assert dispatch(["attack", "model", "--stages", "8", "--format", "records"]) == 2
    capsys.readouterr()


# -- invalid flags and malformed files: error line and exit 1 -------------------


def assert_cli_error(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == []
    assert err.startswith("error:") and "Traceback" not in err


def built_tag(capsys, tmp_path, register=False):
    """Paths of a k=8, n=8 tag file and, when asked, its registry file."""
    dev, reg = str(tmp_path / "dev.json"), str(tmp_path / "reg.json")
    assert run_cli(capsys, "device", "build", "--stages", "8", "--lanes", "8",
                   "--seed", "2", "--out", dev)[0] == 0
    if register:
        assert run_cli(capsys, "auth", "register", "--device", dev, "--out", reg)[0] == 0
    return dev, reg


def drop_key(path, key):
    doc = json.loads(Path(path).read_text())
    del doc[key]
    Path(path).write_text(json.dumps(doc))


def test_fuse_closes_the_raw_interface(capsys, tmp_path):
    dev, _ = built_tag(capsys, tmp_path)
    assert run_cli(capsys, "device", "crp", "--device", dev, "--challenge", "5")[0] == 0
    assert run_cli(capsys, "device", "fuse", "--device", dev) == (0, ["fused"], "")
    assert json.loads(Path(dev).read_text())["fused"] is True
    assert_cli_error(capsys, "device", "crp", "--device", dev, "--challenge", "5")


def test_register_needs_an_out_file(capsys, tmp_path):
    dev, _ = built_tag(capsys, tmp_path)
    assert_cli_error(capsys, "auth", "register", "--device", dev)
    assert not json.loads(Path(dev).read_text())["fused"]


def test_replay_needs_an_honest_session_that_passed(capsys, tmp_path):
    # at sigma 0.8 the tag's votes miss the reader's noiseless prediction in
    # more than the default tau of 7 of its 64 lanes
    dev, reg = str(tmp_path / "dev.json"), str(tmp_path / "reg.json")
    assert run_cli(capsys, "device", "build", "--stages", "8", "--lanes", "64", "--sigma", "0.8",
                   "--seed", "1", "--out", dev)[0] == 0
    assert run_cli(capsys, "auth", "register", "--device", dev, "--out", reg)[0] == 0
    code, out, err = run_cli(capsys, "attack", "replay", "--device", dev, "--registry", reg)
    assert (code, out, err) == (1, [], "error: the recorded honest session did not pass\n")


def test_register_rejects_tau_of_k_or_more(capsys, tmp_path):
    dev, reg = built_tag(capsys, tmp_path)
    assert_cli_error(capsys, "auth", "register", "--device", dev, "--out", reg,
                     "--tau", "99")
    assert not json.loads(Path(dev).read_text())["fused"]


def test_a_noisy_single_lane_tag_registers_with_the_default_tau(capsys, tmp_path):
    # ceil(10% of one lane) is the one lane, which no tau may be
    dev, reg = str(tmp_path / "dev.json"), str(tmp_path / "reg.json")
    assert run_cli(capsys, "device", "build", "--stages", "8", "--sigma", "0.1",
                   "--out", dev)[0] == 0
    code, out, _ = run_cli(capsys, "auth", "register", "--device", dev, "--out", reg)
    assert code == 0 and out == [f"registered mode=table tau=0 -> {reg}"]


def test_an_order_below_2_is_no_register(capsys, tmp_path):
    for argv in (("lfsr", "primitive", "--order", "1"), ("lfsr", "primitive", "--order", "0"),
                 ("device", "build", "--stages", "1", "--out", str(tmp_path / "dev.json"))):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == [] and err.startswith("error: order") and "< 2" in err


def test_build_rejects_an_even_voter(capsys, tmp_path):
    assert_cli_error(capsys, "device", "build", "--stages", "8", "--voter-t", "4",
                     "--out", str(tmp_path / "dev.json"))


def test_build_rejects_zero_lanes(capsys, tmp_path):
    assert_cli_error(capsys, "device", "build", "--stages", "8", "--lanes", "0",
                     "--out", str(tmp_path / "dev.json"))


def test_run_rejects_tau_of_k_or_more(capsys, tmp_path):
    dev, reg = built_tag(capsys, tmp_path, register=True)
    assert_cli_error(capsys, "auth", "run", "--device", dev, "--registry", reg,
                     "--sessions", "3", "--tau", "99")


def test_device_file_missing_a_key(capsys, tmp_path):
    dev, _ = built_tag(capsys, tmp_path)
    drop_key(dev, "k")
    assert_cli_error(capsys, "device", "crp", "--device", dev, "--challenge", "1")


def test_registry_file_missing_a_key(capsys, tmp_path):
    dev, reg = built_tag(capsys, tmp_path, register=True)
    drop_key(reg, "tau")
    assert_cli_error(capsys, "auth", "run", "--device", dev, "--registry", reg,
                     "--sessions", "3")


def test_model_registry_with_short_weight_rows(capsys, tmp_path):
    dev, reg = built_tag(capsys, tmp_path)
    assert run_cli(capsys, "auth", "register", "--device", dev, "--out", reg,
                   "--policy", "params")[0] == 0
    doc = json.loads(Path(reg).read_text())
    doc["weights"] = [row[:-1] for row in doc["weights"]]
    Path(reg).write_text(json.dumps(doc))
    assert_cli_error(capsys, "auth", "run", "--device", dev, "--registry", reg,
                     "--sessions", "3")


def test_registry_file_with_pairs_of_another_order(capsys, tmp_path):
    # order-9 pairs against n_stages 8 used to index past the table
    dev, reg = built_tag(capsys, tmp_path, register=True)
    doc = json.loads(Path(reg).read_text())
    doc["lane_pairs"] = [pair_to_json(p) for p in default_lane_pairs(9, 8)]
    Path(reg).write_text(json.dumps(doc))
    with pytest.raises(SimulationError):
        load_registry(reg)
    assert_cli_error(capsys, "auth", "run", "--device", dev, "--registry", reg,
                     "--sessions", "3")


def test_device_file_with_mixed_round_counts(capsys, tmp_path):
    # lanes at [5, 3, 5, ...] rounds used to all run lane 0's 5 rounds
    dev, _ = built_tag(capsys, tmp_path)
    doc = json.loads(Path(dev).read_text())
    doc["lane_pairs"][1]["rounds"] = 3
    Path(dev).write_text(json.dumps(doc))
    with pytest.raises(SimulationError):
        load_device(dev)
    assert_cli_error(capsys, "device", "crp", "--device", dev, "--challenge", "1")


@pytest.mark.parametrize("counter, value", [("adjust_up", 1.5), ("adjust_low", True)])
def test_device_file_with_a_counter_that_is_not_an_integer(capsys, tmp_path, counter, value):
    # a fractional counter loaded as an offset off the DELTA_UNIT grid, and
    # a bool one loaded as 1 and was saved back as true
    dev, _ = built_tag(capsys, tmp_path)
    doc = json.loads(Path(dev).read_text())
    doc["lanes"][1][counter] = value
    Path(dev).write_text(json.dumps(doc))
    with pytest.raises(SimulationError):
        load_device(dev)
    assert_cli_error(capsys, "device", "crp", "--device", dev, "--challenge", "1")
    assert_cli_error(capsys, "auth", "register", "--device", dev,
                     "--out", str(tmp_path / "reg.json"))


@pytest.mark.parametrize("key, value", [("voter_t", 5.0), ("voter_t", True), ("sigma_noise", True)])
def test_device_file_with_a_voter_setting_that_is_not_a_number_of_its_kind(
    capsys, tmp_path, key, value
):
    # a width of 5.0 loaded and then failed inside NumPy at the first noisy
    # vote, so auth run ended in a traceback
    dev, reg = str(tmp_path / "dev.json"), str(tmp_path / "reg.json")
    assert run_cli(capsys, "device", "build", "--stages", "8", "--lanes", "8", "--seed", "2",
                   "--sigma", "0.05", "--out", dev)[0] == 0
    assert run_cli(capsys, "auth", "register", "--device", dev, "--out", reg)[0] == 0
    doc = json.loads(Path(dev).read_text())
    doc[key] = value
    Path(dev).write_text(json.dumps(doc))
    with pytest.raises(SimulationError):
        load_device(dev)
    assert_cli_error(capsys, "auth", "run", "--device", dev, "--registry", reg,
                     "--sessions", "3")


def test_numbers_of_the_wrong_kind_in_files_are_errors(capsys, tmp_path):
    # each of these files used to load and end the command in a TypeError or
    # an OverflowError traceback
    dev, reg = str(tmp_path / "dev.json"), str(tmp_path / "reg.json")
    assert run_cli(capsys, "device", "build", "--stages", "8", "--lanes", "8", "--seed", "3",
                   "--out", dev)[0] == 0
    assert run_cli(capsys, "auth", "register", "--device", dev, "--out", reg, "--seed", "4",
                   "--policy", "params")[0] == 0

    def changed(source, key, value):
        doc = json.loads(Path(source).read_text())
        target = tmp_path / f"{key}-{Path(source).name}"
        target.write_text(json.dumps({**doc, key: value}))
        return str(target)

    for key in ("k", "n_stages"):
        assert_cli_error(capsys, "auth", "run", "--device", dev, "--registry",
                         changed(reg, key, 8.0), "--sessions", "3")
    assert_cli_error(capsys, "device", "crp", "--device", changed(dev, "n_stages", 8.0),
                     "--challenge", "5")
    data = Path(__file__).parent / "data"
    assert_cli_error(capsys, "auth", "run", "--device", str(data / "tag.json"), "--registry",
                     changed(data / "table.json", "k", 1 << 70), "--sessions", "3")


def test_a_negative_seed_is_an_error(capsys, tmp_path):
    # NumPy refuses a negative seed with a ValueError, which every command
    # that takes --seed used to end in as a traceback
    dev, reg = built_tag(capsys, tmp_path, register=True)
    fresh = tmp_path / "fresh"
    fresh.mkdir()
    for argv in (["device", "build", "--stages", "8", "--out", str(tmp_path / "d.json")],
                 ["auth", "register", "--device", built_tag(capsys, fresh)[0],
                  "--out", str(fresh / "reg.json")],
                 ["attack", "replay", "--device", dev, "--registry", reg],
                 ["attack", "model", "--stages", "8"],
                 ["metrics", "--stages", "8"]):
        assert_cli_error(capsys, *argv, "--seed", "-1")


def test_replay_rejects_a_parity_policy_with_no_tick_gap(capsys, tmp_path):
    dev, reg = built_tag(capsys, tmp_path)
    assert run_cli(capsys, "auth", "register", "--device", dev, "--out", reg,
                   "--t-min", "4", "--t-max", "4")[0] == 0
    assert_cli_error(capsys, "attack", "replay", "--device", dev, "--registry", reg,
                     "--parity", "flip", "--sessions", "5")


def test_replay_refuses_a_parity_policy_without_reuse(capsys, tmp_path):
    # fresh challenges have no recorded gap for --parity to match or flip
    dev, reg = built_tag(capsys, tmp_path, register=True)
    assert_cli_error(capsys, "attack", "replay", "--device", dev, "--registry", reg,
                     "--no-reuse", "--parity", "flip", "--sessions", "5")


@pytest.mark.parametrize("sigma", ["nan", "inf"])
def test_build_rejects_a_sigma_that_is_not_finite(capsys, tmp_path, sigma):
    assert_cli_error(capsys, "device", "build", "--stages", "8", "--sigma", sigma,
                     "--out", str(tmp_path / "dev.json"))
    assert not (tmp_path / "dev.json").exists()


def test_metrics_rejects_a_nan_sigma(capsys):
    assert_cli_error(capsys, "metrics", "--stages", "8", "--lanes", "2", "--sigma", "nan")


def test_stages_beyond_int64_challenges_are_refused(capsys):
    assert_cli_error(capsys, "attack", "model", "--stages", "64", "--train", "10",
                     "--test", "10")
    assert_cli_error(capsys, "metrics", "--stages", "64")


def test_metrics_rejects_zero_repeats(capsys):
    assert_cli_error(capsys, "metrics", "--stages", "8", "--repeats", "0")


def test_run_rejects_a_negative_session_count(capsys, tmp_path):
    dev, reg = built_tag(capsys, tmp_path, register=True)
    assert_cli_error(capsys, "auth", "run", "--device", dev, "--registry", reg,
                     "--sessions", "-1")


def test_replay_rejects_a_negative_session_count(capsys, tmp_path):
    dev, reg = built_tag(capsys, tmp_path, register=True)
    assert_cli_error(capsys, "attack", "replay", "--device", dev, "--registry", reg,
                     "--sessions", "-1")


def test_missing_and_unwritable_files(capsys, tmp_path):
    dev, reg = built_tag(capsys, tmp_path, register=True)
    missing = str(tmp_path / "missing.json")
    assert_cli_error(capsys, "device", "crp", "--device", missing, "--challenge", "1")
    assert_cli_error(capsys, "auth", "run", "--device", dev, "--registry", missing)
    assert_cli_error(capsys, "device", "build", "--stages", "8",
                     "--out", str(tmp_path / "no" / "such" / "dir" / "tag.json"))
    # a report copy that cannot be written fails after the report is printed
    code, out, err = run_cli(capsys, "lfsr", "primitive", "--order", "3",
                             "--out", str(tmp_path / "no" / "report.txt"))
    assert code == 1 and out == ["0b1011 0b1101"]
    assert err.startswith("error:") and "Traceback" not in err


TRACE = ("lfsr", "trace", "--poly", "0b1011", "--poly2", "0b1101", "--challenge", "1")


def test_trace_takes_a_history_of_any_length(capsys):
    # seven rounds from a pair of the default five; no history is an error
    code, out, _ = run_cli(capsys, *TRACE, "--bits", "0011001")
    pair = DualLfsrSpec((LfsrSpec(0b1011), LfsrSpec(0b1101)), 7)
    expected, _ = reference.rounds(pair, 1, 1, lambda r, _: int("0011001"[r]))
    assert code == 0 and [int(line.split()[4], 2) for line in out] == expected
    assert_cli_error(capsys, *TRACE, "--bits", "")


def test_trace_rejects_a_vote_that_is_not_a_digit(capsys):
    assert_cli_error(capsys, *TRACE, "--bits", "0a1")


def test_trace_rejects_a_vote_above_one(capsys):
    # a 2 used to be masked to 0, so 021 traced as 001
    assert_cli_error(capsys, *TRACE, "--bits", "021")
    with pytest.raises(ValueError):
        trace_records(DualLfsrSpec((LfsrSpec(0b1011), LfsrSpec(0b1101)), 3), 1, 1, (0, 2, 1))


def test_trace_rejects_a_malformed_challenge(capsys):
    assert_cli_error(capsys, "lfsr", "trace", "--poly", "0b1011", "--poly2", "0b1101",
                     "--challenge", "zz", "--bits", "00000")


def test_classify_rejects_a_malformed_polynomial(capsys):
    # a bad literal ended in int()'s ValueError, and a huge term in a
    # MemoryError from forming 1 << exp
    for poly in ("zz", "0x", "x^99999999999999+1"):
        assert_cli_error(capsys, "lfsr", "classify", "--poly", poly)


def test_crp_rejects_a_malformed_challenge(capsys, tmp_path):
    dev, _ = built_tag(capsys, tmp_path)
    assert_cli_error(capsys, "device", "crp", "--device", dev, "--challenge", "zz")


def test_model_attack_rejects_an_empty_dataset(capsys):
    assert_cli_error(capsys, "attack", "model", "--stages", "8", "--train", "0", "--test", "0")


def test_model_attack_rejects_an_empty_holdout(capsys):
    assert_cli_error(capsys, "attack", "model", "--stages", "8", "--test", "0")


@pytest.mark.parametrize("argv", [
    ("metrics", "--stages", "8", "--challenges"),
    ("attack", "model", "--stages", "8", "--train"),
])
def test_a_count_no_machine_can_allocate_is_an_error(capsys, argv):
    # 10^15 int64 challenges are 7.1 PiB, beyond any address space
    code, out, err = run_cli(capsys, *argv, str(10**15))
    assert (code, out) == (1, [])
    assert err.startswith("error: Unable to allocate") and "Traceback" not in err


def test_register_rejects_a_tick_gap_beyond_int64(capsys, tmp_path):
    dev, reg = built_tag(capsys, tmp_path)
    assert_cli_error(capsys, "auth", "register", "--device", dev, "--out", reg,
                     "--t-max", "99999999999999999999")


def test_register_rejects_a_tick_gap_of_one(capsys, tmp_path):
    # a gap of 1 puts C2 on the tick of the first response
    dev, reg = built_tag(capsys, tmp_path)
    assert_cli_error(capsys, "auth", "register", "--device", dev, "--out", reg,
                     "--t-min", "1")


@pytest.mark.parametrize("rounds", [1, 7])
def test_single_round_and_multi_block_tags_authenticate(capsys, tmp_path, rounds):
    # one round is a short block; seven rounds are a full block of five and
    # a short one of two
    dev, reg = str(tmp_path / "dev.json"), str(tmp_path / "reg.json")
    assert run_cli(capsys, "device", "build", "--stages", "8", "--lanes", "8",
                   "--seed", "4", "--rounds", str(rounds), "--out", dev)[0] == 0
    assert run_cli(capsys, "auth", "register", "--device", dev, "--out", reg)[0] == 0
    code, out, _ = run_cli(capsys, "auth", "run", "--device", dev, "--registry", reg,
                           "--sessions", "20")
    assert code == 0 and out == ["pass=20/20"]


def test_replay_over_a_tick_gap_range_too_wide_to_list(capsys, tmp_path):
    # the registry accepts any range up to the int64 maximum; the replay
    # harness draws from it without listing its gaps
    dev, reg = built_tag(capsys, tmp_path)
    assert run_cli(capsys, "auth", "register", "--device", dev, "--out", reg,
                   "--t-max", "4611686018427387904")[0] == 0
    for parity in ("random", "match", "flip"):
        code, out, err = run_cli(capsys, "attack", "replay", "--device", dev,
                                 "--registry", reg, "--sessions", "5", "--parity", parity)
        assert code == 0 and err == "" and "Traceback" not in "\n".join(out)
        assert out[0].split() == ["sessions", "5"]


def test_model_attack_rejects_negative_epochs(capsys):
    assert_cli_error(capsys, "attack", "model", "--stages", "8", "--train", "10",
                     "--test", "10", "--epochs", "-1")


def test_model_attack_rejects_a_nan_learning_rate(capsys):
    assert_cli_error(capsys, "attack", "model", "--stages", "8", "--train", "10",
                     "--test", "10", "--lr", "nan")


def test_trace_period_check_up_to_order_62(capsys):
    bits = [0, 1, 1, 0, 1]
    for poly, poly2 in (("0x1000000af", "0x1000000c5"),
                        ("0x4000000000000069", "0x40000000000000af")):
        pair = DualLfsrSpec((LfsrSpec.parse(poly), LfsrSpec.parse(poly2)))
        for mode in (0, 1):
            t0 = time.perf_counter()
            code, out, _ = run_cli(capsys, "lfsr", "trace", "--poly", poly, "--poly2", poly2,
                                   "--challenge", "0x2b", "--mode", str(mode),
                                   "--bits", "".join(map(str, bits)))
            assert code == 0 and time.perf_counter() - t0 < 5.0
            expected, _ = reference.rounds(pair, 0x2B, mode, lambda i, _: bits[i])
            assert [int(line.split()[4], 2) for line in out] == expected
    # order 63 no longer fits run_rounds' int64 registers
    assert_cli_error(capsys, "lfsr", "trace", "--poly", hex(1 << 63 | 0b11),
                     "--poly2", hex(1 << 63 | 0b1001), "--challenge", "1", "--bits", "00000")


def source_tree_env():
    """Environment whose PYTHONPATH leads a child to the dualpuf imported here."""
    src = str(Path(dualpuf.__file__).resolve().parent.parent)
    inherited = os.environ.get("PYTHONPATH")
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join([src, inherited]) if inherited else src}


def test_console_script_process():
    proc = subprocess.run(
        [sys.executable, "-m", "dualpuf", "lfsr", "primitive", "--order", "3"],
        capture_output=True, text=True, timeout=60, env=source_tree_env(),
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "0b1011 0b1101"


@pytest.mark.skipif(shutil.which("dualpuf") is None,
                    reason="dualpuf console script not installed")
def test_installed_console_script():
    proc = subprocess.run(
        ["dualpuf", "lfsr", "primitive", "--order", "3"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "0b1011 0b1101"
