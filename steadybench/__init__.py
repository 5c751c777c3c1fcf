"""Steady end-to-end benchmark for the NSC toolchain and its service.

``python3 steadybench/run.py --workload NAME --seed N --seconds S
--trace 0|1`` runs one workload from the root of a checkout and prints
its metrics; ``METRICS.md`` in this directory defines every one.
"""
