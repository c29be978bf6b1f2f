"""The repo's performance benchmark: one seeded workload per run.

``python3 benchmarks/perf/run.py --workload NAME --seed S`` (or
``python -m benchmarks.perf``) drives one front of the system from
outside, checks its answers, and prints every metric ``BENCHMARK.json``
declares.  See ``README.md`` beside this file.
"""
