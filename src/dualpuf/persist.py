"""Persistence, the one module that opens, writes or renames a file: atomic
writes, one reader that turns read and decode failures into SimulationError,
and the JSON form of a register pair.  Each file format stays with its owner.
"""

import os
import tempfile
from contextlib import contextmanager

from .errors import InvalidParameter, SimulationError, WidthMismatch, is_integer
from .lfsr import LfsrSpec
from .obfuscator import DualLfsrSpec


def atomic_write(path: str, text: str) -> None:
    """Write text to path through a temporary file and a rename, so a
    reader never sees a half-written file.  A path that cannot be written
    raises SimulationError."""
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise SimulationError(f"cannot write {path}: {exc!r}") from exc


@contextmanager
def reading(path: str, what: str):
    """Open path for reading as text.  A SimulationError raised while the
    file is read or decoded inside the block keeps its class, its message
    prefixed "cannot load <what> <path>: "; an OSError, KeyError, TypeError
    or ValueError becomes SimulationError("cannot load <what> <path>: ...")."""
    try:
        with open(path) as fh:
            yield fh
    except SimulationError as exc:
        exc.args = (f"cannot load {what} {path}: {exc}",)
        raise
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise SimulationError(f"cannot load {what} {path}: {exc!r}") from exc


def pair_to_json(pair: DualLfsrSpec) -> dict:
    """JSON form of a register pair, shared by device and registry files."""
    return {
        "masks": [pair.pair[0].mask, pair.pair[1].mask],
        "order": pair.order,
        "rounds": pair.rounds_per_response,
    }


def pair_from_json(obj: dict) -> DualLfsrSpec:
    """Inverse of pair_to_json.  The masks give the order; the file's copy
    must be an integer (InvalidParameter) equal to it (WidthMismatch)."""
    a, b = obj["masks"]
    pair, order = DualLfsrSpec((LfsrSpec(a), LfsrSpec(b)), obj["rounds"]), obj["order"]
    if not is_integer(order):
        raise InvalidParameter(f"register pair order {order!r} is not an integer")
    if order != pair.order:
        raise WidthMismatch(f"register pair order {order} for masks of order {pair.order}")
    return pair
