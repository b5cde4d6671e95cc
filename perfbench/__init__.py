"""Seeded end-to-end benchmark of the ``repro`` simulator.

Run ``python3 perfbench/run.py --workload NAME --seed N --seconds S
--trace 0|1`` from the repository root; ``BENCHMARK.json`` lists the
workloads and metrics, ``perfbench/reference.json`` the seeds, the
recorded fingerprints and the per-layer -> end-to-end map.
"""
