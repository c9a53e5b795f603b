"""The repository's benchmark: four fixed-work workloads (build, cold
read, hot read, durable write) with per-layer attribution.

Run it through ``python3 perf/run.py``; ``perf/README.md`` has the
metric glossary. Nothing here imports ``repro.bench`` or ``benchmarks/``.
"""
