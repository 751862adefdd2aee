"""Benchmark of the Hive reproduction: workloads, span tracing, oracle checks."""
