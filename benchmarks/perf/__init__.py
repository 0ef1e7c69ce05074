"""Repository performance benchmark: four user workloads, end-to-end and per-layer.

Run ``python -m benchmarks.perf run --workload forecast --seed 7`` from the
repository root; ``python -m benchmarks.perf compare A.json B.json``
compares two labelled result files.  See ``README.md`` in this directory.
"""
