"""Run one ``dualpuf`` command with the benchmark's span tracing installed.

    python3 perfbench/cli_shim.py SPANS.json lfsr primitive --order 16

The package comes from ``src`` of the checkout.  The spans are written to
SPANS.json when the command ends, whatever its exit code.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import dualpuf.cli  # noqa: E402

from tracing import Tracer  # noqa: E402


def main() -> None:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    sys.argv = ["dualpuf", *argv]
    try:
        dualpuf.cli.main()
    finally:
        tracer.save(spans_path)


if __name__ == "__main__":
    main()
