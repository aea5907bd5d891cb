"""Benchmark of sclkit's pipeline: exact scl, ambient-pair certification and
fold-necklace rewriting, with a separately traced per-layer run.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root; see ``perfbench/run.py``.
"""
