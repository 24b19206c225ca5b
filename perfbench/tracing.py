"""Span tracing of ``dualpuf`` from outside the package.

``install()`` replaces each traced function with a wrapper wherever a
``dualpuf`` module looks the name up (modules import functions by name, so
``dualpuf.protocol.predict_response`` and ``dualpuf.server.predict_response``
are two bindings of one function), and traced methods on their class.  No
file of the package changes.

Each call records one span: layer, start and end (``perf_counter_ns``), the
enclosing span, and a work count (challenge rows for the parity transform,
challenges harvested for ``raw_crp_table``).  Spans stay in memory in a flat
integer array and are written out once, when the run ends.  A layer's self
time is its spans' durations minus the durations of their child spans.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
import time
from array import array

import numpy as np


def _rows(challenge, *_, **__) -> int:
    """Challenge rows the parity transform works on (an int is one row)."""
    if isinstance(challenge, (int, np.integer)):
        return 1
    shape = np.shape(challenge)
    return int(np.prod(shape[:-1])) if shape else 1


def _harvested(device, *_, **__) -> int:
    return (1 << device.config.n_stages) - 1


# (layer, module, attribute, work count) -- a dotted attribute is a method
TARGETS = (
    ("lfsr.find_primitive", "dualpuf.lfsr", "find_primitive", None),
    ("lfsr.is_m_sequence", "dualpuf.lfsr", "is_m_sequence", None),
    ("apuf.features", "dualpuf.apuf", "features_from_ints", None),
    ("apuf.features", "dualpuf.apuf", "parity_features", _rows),
    ("postproc.randomness_adjust", "dualpuf.postproc", "randomness_adjust", None),
    ("postproc.vote_batch", "dualpuf.postproc", "vote_batch", None),
    ("obfuscator.run_rounds", "dualpuf.obfuscator", "run_rounds", None),
    ("device.respond", "dualpuf.device", "PufDevice.respond", None),
    ("device.raw_crp_table", "dualpuf.device", "PufDevice.raw_crp_table", _harvested),
    ("device.build_device", "dualpuf.device", "build_device", None),
    ("device.persist", "dualpuf.device", "save_device", None),
    ("device.persist", "dualpuf.device", "load_device", None),
    ("server.predict_response", "dualpuf.server", "predict_response", None),
    ("server.gen_session", "dualpuf.server", "gen_session", None),
    ("server.compare", "dualpuf.server", "compare", None),
    ("server.register_from_ttp", "dualpuf.server", "register_from_ttp", None),
    ("server.persist", "dualpuf.server", "save_registry", None),
    ("server.persist", "dualpuf.server", "load_registry", None),
    ("protocol.run_authentication", "dualpuf.protocol", "run_authentication", None),
    ("protocol.exchange", "dualpuf.protocol", "SimChannel.exchange", None),
    ("adversary.replay_attack", "dualpuf.adversary", "replay_attack", None),
    ("adversary.collect_obfuscated_crps", "dualpuf.adversary", "collect_obfuscated_crps", None),
    ("adversary.train_linear_attack", "dualpuf.adversary", "train_linear_attack", None),
)

FIELDS = 5  # layer, start, end, parent, count


class Tracer:
    def __init__(self) -> None:
        self.layers: list[str] = []
        self.spans = array("q")
        self.stack: list[int] = []

    def _layer_id(self, layer: str) -> int:
        if layer not in self.layers:
            self.layers.append(layer)
        return self.layers.index(layer)

    def wrap(self, layer: str, fn, count=None):
        layer_id = self._layer_id(layer)
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans) // FIELDS
            spans.extend((layer_id, 0, 0, stack[-1] if stack else -1, 0))
            work = count(*args, **kwargs) if count is not None else 0
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                base = idx * FIELDS
                spans[base + 1] = start
                spans[base + 2] = end
                spans[base + 4] = work

        return traced

    def install(self) -> None:
        """Wrap every target.  A target this version of the package lacks
        raises ``LookupError`` before anything is wrapped: its layer would
        otherwise read 0, which looks like a speed-up."""
        missing = []
        for _, module_name, attr, _ in TARGETS:
            owner = importlib.import_module(module_name)
            for part in attr.split("."):
                if not hasattr(owner, part):
                    missing.append(f"{module_name}.{attr}")
                    break
                owner = getattr(owner, part)
        if missing:
            raise LookupError(f"traced targets missing from dualpuf: {', '.join(missing)}")
        modules = [m for name, m in list(sys.modules.items())
                   if name == "dualpuf" or name.startswith("dualpuf.")]
        for layer, module_name, attr, count in TARGETS:
            module = importlib.import_module(module_name)
            owner_name, _, method = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                setattr(owner, method, self.wrap(layer, getattr(owner, method), count))
                continue
            original = getattr(module, attr)
            traced = self.wrap(layer, original, count)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, traced)

    def count(self) -> int:
        return len(self.spans) // FIELDS

    def save(self, path: str) -> None:
        """Raw spans for another process to merge."""
        with open(path, "w") as fh:
            json.dump({"layers": self.layers, "spans": self.spans.tolist()}, fh)

    def merge(self, path: str) -> None:
        """Append the spans another process saved.  perf_counter_ns reads the
        system-wide monotonic clock, so their times compare with ours."""
        with open(path) as fh:
            doc = json.load(fh)
        offset = self.count()
        remap = [self._layer_id(layer) for layer in doc["layers"]]
        flat = doc["spans"]
        for i in range(0, len(flat), FIELDS):
            layer, start, end, parent, work = flat[i:i + FIELDS]
            self.spans.extend(
                (remap[layer], start, end, parent + offset if parent >= 0 else -1, work)
            )

    def write(self, path: str) -> None:
        """Spans as gzip'd CSV: layer,start_ns,end_ns,parent,count."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("layer,start_ns,end_ns,parent,count\n")
            s = self.spans
            for i in range(0, len(s), FIELDS):
                fh.write(f"{self.layers[s[i]]},{s[i + 1]},{s[i + 2]},{s[i + 3]},{s[i + 4]}\n")

    def aggregate(self, windows) -> dict:
        """Per-layer totals over spans that start inside any (start, end) window.

        Returns layer -> {"self_ns", "calls", "work", "rows_below"}, where
        rows_below sums the parity-transform rows of the span's descendants.
        """
        s = self.spans
        n = self.count()
        child_ns = [0] * n
        rows_below = [0] * n
        rows_layer = self.layers.index("apuf.features") if "apuf.features" in self.layers else -1
        for i in range(n - 1, -1, -1):
            base = i * FIELDS
            parent = s[base + 3]
            if parent >= 0:
                child_ns[parent] += s[base + 2] - s[base + 1]
                rows_below[parent] += rows_below[i] + (s[base + 4] if s[base] == rows_layer else 0)
        out: dict[str, dict[str, int]] = {}
        for i in range(n):
            base = i * FIELDS
            start = s[base + 1]
            if not any(lo <= start < hi for lo, hi in windows):
                continue
            entry = out.setdefault(
                self.layers[s[base]], {"self_ns": 0, "calls": 0, "work": 0, "rows_below": 0}
            )
            entry["self_ns"] += s[base + 2] - start - child_ns[i]
            entry["calls"] += 1
            entry["work"] += s[base + 4]
            entry["rows_below"] += rows_below[i]
        return out
