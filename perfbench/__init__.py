"""perfbench — the repository's one performance ledger.

Four workloads, six end-to-end metrics each, and a per-layer trace run,
all timed against a reference tick so that the numbers survive the
two-speed sandbox (see ``README.md`` in this directory).  Nothing here is
imported by :mod:`repro`; the benchmark drives the library from outside
through its public functions only.
"""
