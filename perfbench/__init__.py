"""Wall-clock benchmark of the Deep Lake reproduction.

Run one workload with ``python3 perfbench/run.py --workload <name>
--seed <n> --seconds <s> --trace <0|1>`` from the repository root; see
``perfbench/README.md`` for the workloads and the metrics they report.
"""
