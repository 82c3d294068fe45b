"""Experiment harness reproducing the paper's evaluation (Figures 3 and 4).

Every figure has a dedicated module that defines the paper's
configurations, runs them on the discrete-event simulator and returns the
same series the paper plots:

* :mod:`repro.experiments.throughput` — Figure 3a (throughput vs latency).
* :mod:`repro.experiments.cpu` — Figure 3b (CPU usage).
* :mod:`repro.experiments.scalability` — Figure 3c (throughput vs replicas).
* :mod:`repro.experiments.resiliency` — Figure 4 (throughput, latency,
  failed views and QC sizes under crash faults).

Each performance figure is a declarative grid of
:class:`~repro.scenarios.spec.ScenarioSpec` cells built on
:func:`repro.experiments.specs.testbed_base` and fanned out through
:func:`repro.api.sweep`; the security figures grid their Monte-Carlo
cells over the same :func:`repro.experiments.runner.parallel_map` pool.

:mod:`repro.experiments.runner` holds the simulator deployment builder
the scenario engine compiles specs down to.
:mod:`repro.experiments.export` turns result rows into CSV/JSON/Markdown
artifacts and terminal plots; the same machinery backs the
``python -m repro`` command-line interface.
"""
