"""The repo's end-to-end benchmark (contract: ``BENCHMARK.json`` at the
repo root, guide: ``bench_e2e/README.md``).

Everything here measures the library **from outside**, through its
public surface only; nothing under ``src/`` knows this package exists.
"""
