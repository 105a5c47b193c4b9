"""Benchmark harness: workload builders, per-algorithm sweep runner, memory
measurement (Table 1), and the paper-style table printer."""
