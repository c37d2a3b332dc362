"""End-to-end and per-layer benchmark of the ``repro`` TBON.

``perfbench/run.py`` is the entry point; this package holds its parts:

* :mod:`.stats` — percentiles, medians and the host reference loop;
* :mod:`.workloads` — the four closed-loop workloads over the default
  socket transport, each checking every result;
* :mod:`.spans` — class-level wrappers that record spans at each layer
  boundary for the traced run, and their restoration;
* :mod:`.layers` — the per-layer metric table and its computation from
  spans and telemetry counters.
"""
