"""Host and modelled-time benchmark of the pLUTo request ladder.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one workload in fresh processes and prints one JSON
result line; ``python3 perfbench/run.py --all`` runs every workload
untraced, then traced, and writes one combined record.  The workloads,
metrics and their bounds are declared in ``BENCHMARK.json`` at the
repository root; ``perfbench/README.md`` explains each of them.
"""
