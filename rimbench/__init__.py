"""RIM benchmark: offline-batch, live-stream and fleet-ingest workloads.

Run one workload with ``python3 rimbench/run.py --workload NAME --seed N
--seconds S --trace 0|1`` from the repository root; see ``README.md``.
"""
