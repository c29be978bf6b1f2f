"""Entry point: pin the interpreter's environment, find the source tree, run.

Hash randomisation and BLAS/OpenMP thread pools are the two sources of
run-to-run variation a harness can remove before the first import:
``PYTHONHASHSEED`` only takes effect at interpreter start, so the entry
re-executes itself once with the pinned environment.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

_PINNED = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def main() -> None:
    """Run the benchmark CLI from a checkout (``src/`` beside ``benchmarks/``)."""
    if any(os.environ.get(key) != value for key, value in _PINNED.items()):
        os.environ.update(_PINNED)
        os.execv(sys.executable, [sys.executable, *sys.orig_argv[1:]])
    root = Path(__file__).resolve().parents[2]
    if not (root / "src" / "repro").is_dir():
        sys.exit(
            f"benchmarks.perf: no src/repro under {root}; the benchmark "
            "measures the program in its checkout and has nothing to run"
        )
    # The checkout's own sources win over any installed copy of ``repro``.
    sys.path[:0] = [str(root / "src"), str(root)]
    from benchmarks.perf.cli import main as cli_main

    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
