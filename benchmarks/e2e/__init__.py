"""End-to-end campaign benchmark: four paper workloads, measured from outside.

``benchmarks/e2e/run.py`` is the command ``BENCHMARK.json`` names (one
workload, one mode, one JSON result line); ``python -m benchmarks.e2e`` is the
same harness for people (every workload, both modes, tables, history,
``compare``).  See ``README.md`` in this directory for the metric glossary.
"""
