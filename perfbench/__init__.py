"""Performance benchmark for the smlr planner, kept outside the package.

``run.py`` is the entry point; see README.md for the workloads and metrics.
"""
