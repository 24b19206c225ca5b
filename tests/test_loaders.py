"""The loaders under fuzzing: one change to a valid device, registry or
transcript file ends in a SimulationError, or in an object that answers one
authentication with at most a SimulationError."""

import copy
import json
import re
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualpuf.adversary import ReplayAttacker, eavesdrop
from dualpuf.device import load_device
from dualpuf.errors import EvenVoterWidth, InvalidParameter, SimulationError, WidthMismatch
from dualpuf.protocol import SessionTranscript, run_authentication
from dualpuf.server import load_registry, save_registry

DATA = Path(__file__).parent / "data"

#: what a change writes in place of a value, besides the value's twin: every
#: JSON kind, the non-finite floats, the largest float and an int beyond int64
VALUES = [
    1 << 70, float("nan"), float("inf"), 1.7976931348623157e308, 0.5, -1, 0, 1, 3, True, False,
    None, "", "7", [], [1, 0],
]


def twins(node) -> list:
    """The values that compare equal to node but are of another kind: the
    float of an int, the int of a bool."""
    return [float(node)] if type(node) is int else [int(node)] if type(node) is bool else []


class Files(SimpleNamespace):
    def __repr__(self) -> str:  # a failing example prints its change, not these
        return "files"


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """The committed tag and version-0 registries, their version-1 rewrites
    and a recorded transcript, as texts, with a tag and a reader to run
    each loaded object against."""
    tmp = tmp_path_factory.mktemp("fuzz")
    texts = {"device": (DATA / "tag.json").read_text()}
    for mode in ("table", "model"):
        texts[f"{mode} v0"] = (DATA / f"{mode}.json").read_text()
        save_registry(load_registry(str(DATA / f"{mode}.json")), str(tmp / "v1.json"))
        texts[f"{mode} v1"] = (tmp / "v1.json").read_text()
    device, registry = load_device(str(DATA / "tag.json")), load_registry(str(DATA / "table.json"))
    honest = run_authentication(registry, device)
    while not honest.passed:  # the sigma=0.3 tag fails a session now and then
        honest = run_authentication(registry, device)
    honest.transcript.save(str(tmp / "session.txt"))
    texts["transcript"] = (tmp / "session.txt").read_text()
    return Files(texts=texts, sites=sites(texts), device=device, registry=registry,
                 path=tmp / "changed")


def changed(data, node):
    """node with one change at a place drawn by a walk down from it: a
    container is entered three times in four, and a value is replaced by a
    twin or one of VALUES, or its key dropped."""
    if isinstance(node, (dict, list)) and node and data.draw(st.integers(0, 3)):
        node = copy.copy(node)
        key = data.draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
        if isinstance(node, dict) and not data.draw(st.integers(0, 4)):
            del node[key]
        else:
            node[key] = changed(data, node[key])
        return node
    return data.draw(st.sampled_from(twins(node) + VALUES))


def sites(texts) -> list:
    """Where a change starts: each file's end, to truncate it, then each
    top-level key of a JSON file, or each line of the transcript."""
    found = [(kind, None) for kind in sorted(texts)]
    for kind, text in sorted(texts.items()):
        keys = range(len(text.splitlines())) if kind == "transcript" else json.loads(text)
        found += [(kind, key) for key in keys]
    return found


def changed_text(data, kind: str, key, text: str) -> str:
    """text truncated (key None), or with one change under the key of a JSON
    file, or with one token of a transcript line replaced or dropped."""
    if key is None:
        return text[:data.draw(st.integers(0, len(text) - 1))]
    if kind != "transcript":
        doc = json.loads(text)
        if data.draw(st.integers(0, 4)):
            doc[key] = changed(data, doc[key])
        else:
            del doc[key]
        return json.dumps(doc)
    lines = [line.split() for line in text.splitlines()]
    row = lines[key]
    at = data.draw(st.integers(0, len(row) - 1))
    row[at:at + 1] = [] if data.draw(st.booleans()) else [str(data.draw(st.sampled_from(VALUES)))]
    return "\n".join(" ".join(tokens) for tokens in lines) + "\n"


@settings(derandomize=True, max_examples=1000)
@given(data=st.data())
def test_one_change_to_a_file_ends_in_a_domain_error_or_a_working_object(files, data):
    kind, key = data.draw(st.sampled_from(files.sites))
    text = changed_text(data, kind, key, files.texts[kind])
    files.path.write_text(text)
    load = {"device": load_device, "transcript": SessionTranscript.load}.get(kind, load_registry)
    try:
        loaded = load(str(files.path))
    except SimulationError:
        return
    if kind == "device":  # the raw interface, and a session against the reader
        uses = [lambda: loaded.raw_crp_query(5), lambda: run_authentication(files.registry, loaded)]
    elif kind == "transcript":  # a replay of what it recorded
        uses = [lambda: run_authentication(files.registry, eavesdrop(ReplayAttacker(), loaded))]
    else:  # a session against the tag
        uses = [lambda: run_authentication(loaded, files.device)]
    for use in uses:
        try:
            use()
        except SimulationError:
            pass


@pytest.mark.parametrize("name, key, value, error", [
    ("model.json", "mode", "nonsense", InvalidParameter),
    ("table.json", "tau", 0.5, InvalidParameter),
    ("table.json", "k", 7, WidthMismatch),
    ("tag.json", "k", 2.0, InvalidParameter),
    ("tag.json", "voter_t", 4, EvenVoterWidth),
])
def test_a_loader_keeps_the_class_of_a_domain_error(tmp_path, name, key, value, error):
    # a caller that catches InvalidParameter from a loader sees it, and every
    # domain error names the file it came from
    doc = json.loads((DATA / name).read_text())
    path = tmp_path / name
    path.write_text(json.dumps({**doc, key: value}))
    load = load_device if name == "tag.json" else load_registry
    with pytest.raises(error, match=f"^cannot load .* {re.escape(str(path))}: ") as caught:
        load(str(path))
    assert type(caught.value) is error


@pytest.mark.parametrize("name", ["tag.json", "table.json", "model.json"])
@pytest.mark.parametrize("order, error", [
    (9, WidthMismatch), (7, WidthMismatch),
    (8.0, InvalidParameter), (True, InvalidParameter), ("8", InvalidParameter),
])
def test_a_pair_order_must_be_its_masks_order(tmp_path, name, order, error):
    # the masks give a pair's order; the file's copy is checked once, in
    # the pair codec, whichever file carries the pair
    doc = json.loads((DATA / name).read_text())
    doc["lane_pairs"][1]["order"] = order
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    load = load_device if name == "tag.json" else load_registry
    prefix = f"^cannot load .* {re.escape(str(path))}: register pair order "
    with pytest.raises(error, match=prefix) as caught:
        load(str(path))
    assert type(caught.value) is error
