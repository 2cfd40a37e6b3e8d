"""The repository benchmark: ``python3 perfbench/run.py --workload NAME``.

See :mod:`perfbench.run` for the command line and :mod:`perfbench.workloads`
for what each workload runs and checks.
"""
