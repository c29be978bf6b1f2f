"""``python -m benchmarks.perf`` -- same entry as ``run.py``."""

from benchmarks.perf.run import main

main()
