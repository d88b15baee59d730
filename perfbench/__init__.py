"""The repository benchmark: a serving SLO workload and the paper sweep.

Run from the repository root::

    python3 perfbench/run.py --workload serve-greedy-churn-workers --seed 1 --seconds 45 --trace 0

:mod:`perfbench.run` documents the workloads and every metric.
"""
