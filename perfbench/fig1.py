"""Workload ``fig1``: regenerate all six Figure-1 series.

S5 under Enhanced-Nbc, V = 6/9/12, M = 32/64.  Each series gets its own
saturation search and its model curve on the 7-point load grid of
:mod:`repro.experiments.figure1`; each also gets simulation points at
the three loads ``benchmarks/test_bench_figure1.py`` uses, on the array
engine with smoke windows (18 points in all).  Sim seeds derive from
the workload seed.
"""

from __future__ import annotations

import dataclasses
import time

from common import derive_seed, result_digest

#: Simulated loads as fractions of the panel's M=32 saturation rate
#: (the loads ``benchmarks/test_bench_figure1.py`` simulates).
SIM_FRACTIONS = (0.30, 0.60, 0.82)
#: The accuracy gate ``test_bench_figure1`` applies to every series.
MRE_GATE = 0.25
#: Typical seconds of one pass on a 2-vCPU x86 VM (12-16 s); a run makes
#: ``round(seconds / PASS_SECONDS)`` passes (at least one).
PASS_SECONDS = 13


def _counting_simulator():
    """ArraySimulator subclass counting calls of its public ``step``.

    ``step`` is the per-cycle driver the resident C loop falls back to;
    calls ÷ cycles is the share of cycles that re-entered Python.
    """
    from repro.simulation.kernels import ArraySimulator

    class CountingSimulator(ArraySimulator):
        steps = 0

        def step(self):
            self.steps += 1
            super().step()

    return CountingSimulator


def run_pass(seed, tracer, checks):
    """One regeneration of Figure 1; returns (outputs, series_seconds, points)."""
    from repro.core.model import StarLatencyModel
    from repro.core.pathstats import cached_path_statistics
    # The load grid Figure 1 is drawn on (fractions of the M=32 saturation).
    from repro.experiments.figure1 import _LOAD_FRACTIONS, FIGURE1_PANELS
    from repro.api.quality import sim_quality_config
    from repro.routing import EnhancedNbc
    from repro.simulation.kernels import ArraySimulator
    from repro.topology import StarGraph
    from repro.utils.exceptions import SimulationError
    from repro.validation.compare import OperatingPoint, compare_curves

    sim_cls = _counting_simulator() if tracer.enabled else ArraySimulator
    # Every pass starts from what a fresh process would hold.
    cached_path_statistics.cache_clear()
    outputs, series_s, points = [], [], []
    saturation = {}
    with tracer.span("pass"):
        with tracer.span("topology.build"):
            topology = StarGraph(5)
            algorithm = EnhancedNbc()
        for label, panel in FIGURE1_PANELS.items():
            with tracer.span("pathstats.build"):
                stats = cached_path_statistics(panel.n)
            sat32 = None
            for m in panel.message_lengths:
                t_series = time.perf_counter()
                model = StarLatencyModel(panel.n, m, panel.total_vcs, stats=stats)
                with tracer.span("core.saturation"):
                    search = model.saturation_search()
                tracer.count("core.saturation_evals", search.evaluations)
                saturation[(panel.total_vcs, m)] = search.rate
                if sat32 is None:
                    sat32 = search.rate  # the panel's x-axis anchor (M=32)
                rates = tuple(round(f * sat32, 6) for f in _LOAD_FRACTIONS)
                with tracer.span("core.evaluate"):
                    curve = [model.evaluate(r) for r in rates]
                tracer.count("core.evaluate_calls", len(curve))
                tracer.count("core.solver_iterations", sum(r.iterations for r in curve))
                stable = [r.latency for r in curve if not r.saturated]
                checks.check(stable == sorted(stable), f"fig1 {label} M={m}: latency not monotone")
                series_points = []
                for frac in SIM_FRACTIONS:
                    rate = round(frac * sat32, 6)
                    config = dataclasses.replace(
                        sim_quality_config(
                            "smoke",
                            message_length=m,
                            generation_rate=rate,
                            total_vcs=panel.total_vcs,
                            seed=derive_seed(seed, "fig1", label, m, frac),
                        ),
                        engine="array",
                    )
                    try:
                        with tracer.span("simulation.run"):
                            sim = sim_cls(topology, algorithm, config, profile=tracer.enabled)
                            result = sim.run()[0]
                    except SimulationError as exc:
                        checks.check(False, f"fig1 {label} M={m} rate={rate}: {exc}")
                        continue
                    checks.passed(1)
                    _count_sim(tracer, sim, result)
                    with tracer.span("core.evaluate"):
                        pred = model.evaluate(rate)
                    tracer.count("core.evaluate_calls", 1)
                    tracer.count("core.solver_iterations", pred.iterations)
                    outputs.append(result_digest(result))
                    series_points.append(
                        OperatingPoint(rate, pred.latency, result.mean_latency,
                                       pred.saturated, result.saturated)
                    )
                comparison = compare_curves(series_points)
                if comparison.stable_points:
                    checks.check(
                        comparison.mean_relative_error <= MRE_GATE,
                        f"fig1 {label} M={m}: model-vs-sim error "
                        f"{comparison.mean_relative_error:.3f} over {MRE_GATE}",
                    )
                points.extend(series_points)
                outputs.extend(result_digest(r) for r in curve)
                series_s.append(time.perf_counter() - t_series)
    _check_orderings(saturation, checks)
    return outputs, series_s, points


def _count_sim(tracer, sim, result) -> None:
    """Per-run simulation counters (traced pass only)."""
    if not tracer.enabled:
        return
    tracer.count("simulation.cycles", result.cycles_run)
    tracer.count("simulation.msgs", result.messages_completed)
    tracer.count("simulation.steps", sim.steps)
    for phase, ns in (result.phase_ns or {}).items():
        if phase in ("generation", "activation", "route", "complete", "other"):
            tracer.count(f"simulation.phase.{phase}_s", ns / 1e9)


def _check_orderings(sat, checks) -> None:
    """More VCs saturate later; M=64 saturates at about half M=32's rate."""
    for m in (32, 64):
        checks.check(
            sat[(6, m)] < sat[(9, m)] < sat[(12, m)],
            f"fig1: saturation not increasing in V at M={m}",
        )
    for v in (6, 9, 12):
        ratio = sat[(v, 64)] / sat[(v, 32)]
        checks.check(
            sat[(v, 64)] < sat[(v, 32)] and abs(ratio - 0.5) <= 0.15,
            f"fig1: M=64/M=32 saturation ratio {ratio:.3f} at V={v}",
        )
