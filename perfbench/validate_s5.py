"""Workload ``validate_s5``: the ``starnet validate --preset s5`` suite.

Uniform, ``hotspot(fraction=0.1)`` and ``uniform+onoff(duty=0.5,burst=4)``
on S5 (M=16, V=5, smoke windows, array engine), each on the shared rate
ladder at the CLI's default fractions and checked against the preset's
stated tolerance.  Per preset, a timed pass makes the calls the CLI's
validate path makes: ``validate_workloads`` on the preset's scenario,
then the default warmup-adequacy check (one probed array run at the top
fraction).  Sim seeds derive from the workload seed.

The traced pass makes the same work from the layer calls inside those
two entries (model build, saturation search, the campaign grids, the
probed run), so each layer can be timed from here.  Its operating points
and warmup verdicts must equal the timed pass's.
"""

from __future__ import annotations

import time

from common import derive_seed

#: ``starnet validate --fractions`` default.
FRACTIONS = (0.2, 0.4, 0.6)

#: Nominal seconds of one pass (measured: 7.5-9.5 s on a 2-vCPU x86 VM);
#: a run makes ``round(seconds / PASS_SECONDS)`` passes (at least one).
PASS_SECONDS = 7


def run_pass(seed, tracer, checks):
    """One run of the suite; returns (outputs, preset_seconds, points).

    ``outputs`` holds each preset's operating points and warmup verdict,
    exactly, so passes can be compared.
    """
    from repro.api.presets import preset_suite
    from repro.core.pathstats import cached_path_statistics
    from repro.workloads.flows import cached_flow_profile

    # Every pass starts from what a fresh process would hold.
    cached_path_statistics.cache_clear()
    cached_flow_profile.cache_clear()
    run_preset = _layer_preset if tracer.enabled else _entry_preset
    outputs, preset_s, points = [], [], []
    with tracer.span("pass"):
        for preset in preset_suite("s5"):
            t_preset = time.perf_counter()
            scenario = preset.scenario.replace(seed=derive_seed(seed, "validate_s5", preset.name))
            found = run_preset(scenario, tracer, checks)
            if found is None:
                continue
            comparison, warmup = found
            checks.check(
                comparison.stable_points > 0
                and comparison.mean_relative_error <= preset.tolerance,
                f"{preset.name}: error {comparison.mean_relative_error:.3f} "
                f"over tolerance {preset.tolerance}",
            )
            points.extend(comparison.points)
            outputs.append(repr((comparison.points, sorted(warmup.items()))))
            preset_s.append(time.perf_counter() - t_preset)
    return outputs, preset_s, points


def _entry_preset(scenario, tracer, checks):
    """One preset through the program's own entries, as the CLI runs it."""
    from repro.experiments.cli import _warmup_adequacy_report
    from repro.utils.exceptions import ConfigurationError, SimulationError
    from repro.validation.workloads import validate_workloads

    try:
        (record,) = validate_workloads(
            (scenario.workload,), scenario=scenario, load_fractions=FRACTIONS
        )
        warmup = _warmup_adequacy_report(scenario, FRACTIONS)
    except (ConfigurationError, SimulationError) as exc:
        checks.check(False, f"{scenario.workload}: {exc}")
        return None
    checks.passed(2 * len(record.rates) + 1)
    return record.comparison, warmup


def _layer_preset(scenario, tracer, checks):
    """The same preset from the layer calls inside those entries, traced."""
    from repro.api.scenario import run_units
    from repro.core.pathstats import cached_path_statistics
    from repro.core.spec import ModelSpec
    from repro.obs import adequacy_probe_interval, warmup_adequacy
    from repro.simulation.backends import simulate
    from repro.utils.exceptions import ConfigurationError, SimulationError
    from repro.validation.compare import OperatingPoint, compare_curves
    from repro.validation.workloads import validation_grids
    from repro.workloads.flows import cached_flow_profile
    from repro.workloads.spec import WorkloadSpec

    # The models below read these two caches; filling them first times
    # each on its own.
    workload = WorkloadSpec.coerce(scenario.workload)
    with tracer.span("pathstats.build"):
        cached_path_statistics(scenario.order)
    if workload.canonical != "uniform":  # the non-uniform model's input
        with tracer.span("workloads.flow_profile"):
            cached_flow_profile(scenario.order, workload.spatial_canonical)
    # The shared rate ladder: validate_workloads builds the workload-aware
    # model (for uniform too) and searches its saturation.
    spec = ModelSpec(
        topology="star",
        order=scenario.order,
        message_length=scenario.message_length,
        total_vcs=scenario.total_vcs,
        workload=workload.canonical,
    )
    with tracer.span("core.saturation"):
        search = spec.build().saturation_search()
    tracer.count("core.saturation_evals", search.evaluations)
    rates = tuple(round(f * search.rate, 6) for f in FRACTIONS)
    model_grid, sim_grid = validation_grids(
        (scenario.workload,),
        rates,
        order=scenario.order,
        message_length=scenario.message_length,
        total_vcs=scenario.total_vcs,
        quality=scenario.quality,
        seed=scenario.seed,
        engine=scenario.engine,
        scenario=scenario,
    )
    model_units, sim_units = model_grid.expand(), sim_grid.expand()
    units = model_units + sim_units
    try:
        with tracer.span("campaign.run_units"):
            campaign = run_units(units)
    except (ConfigurationError, SimulationError) as exc:
        checks.check(False, f"{scenario.workload}: {exc}")
        return None
    results, elapsed, n = campaign.results, campaign.unit_elapsed_s, len(model_units)
    tracer.count("campaign.units", len(units))
    tracer.count("campaign.overhead_s", campaign.elapsed_s - sum(elapsed))
    tracer.count("core.evaluate_s", sum(elapsed[:n]))
    tracer.count("core.evaluate_calls", n)
    tracer.count("core.solver_iterations", sum(r.iterations for r in results[:n]))
    tracer.count("simulation.run_s", sum(elapsed[n:]))
    tracer.count("simulation.cycles", sum(r.cycles_run for r in results[n:]))
    tracer.count("simulation.msgs", sum(r.messages_completed for r in results[n:]))
    comparison = compare_curves([
        OperatingPoint(rate, m.latency, s.mean_latency, m.saturated, s.saturated)
        for rate, m, s in zip(rates, results[:n], results[n:])
    ])

    # The warmup-adequacy check: the scenario's own model, then a probed
    # run at the top fraction.
    with tracer.span("core.saturation"):
        search = scenario.build_model().saturation_search()
    tracer.count("core.saturation_evals", search.evaluations)
    rate = round(max(FRACTIONS) * search.rate, 6)
    topo, algo, config = scenario.replace(engine="array").sim_spec(rate).build()
    horizon = config.warmup_cycles + config.measure_cycles
    with tracer.span("simulation.run"):
        result = simulate(topo, algo, config, probe_interval=adequacy_probe_interval(horizon))
    tracer.count("simulation.cycles", result.cycles_run)
    tracer.count("simulation.msgs", result.messages_completed)
    warmup = warmup_adequacy(result.timeseries, config.warmup_cycles, measure_end=horizon)
    warmup["rate"] = rate
    checks.passed(len(units) + 1)
    return comparison, warmup
