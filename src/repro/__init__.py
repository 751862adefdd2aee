"""PySpark reproduction of "Apache Hive: From MapReduce to Enterprise-grade
Big Data Warehousing" (SIGMOD 2019).

Packages:

- :mod:`repro.metastore` — HMS substrate: catalog, HLL stats, transactions
- :mod:`repro.storage` — ACID base/delta layout, writer, reader, compactor
- :mod:`repro.core` — Calcite-like optimizer + HiveServer2 driver
- :mod:`repro.llap` — LLAP: LRFU cache, I/O elevator, daemon
- :mod:`repro.druid` / :mod:`repro.federation` — mini-Druid + pushdown
- :mod:`repro.workloads` — TPC-DS-lite and SSB-lite
- :mod:`repro.experiments` — the §7 evaluation harnesses
"""
