"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload {fig1,validate_s5,serve_zipf} \\
        --seed N --seconds S --trace {0,1}

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace
1`` runs the workload untraced and traced and reports the per-layer
metrics.  Every run checks the workload's outputs; failures
count in ``failed``.  A table of every metric goes to standard output,
and the last line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (name -> value and unit).  See README.md in
this directory for the metric definitions and first numbers.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import subprocess
import sys
import threading
import time
import uuid

from common import (
    BUILD,
    SRC,
    Checks,
    Tracer,
    median,
    peak_rss_mb,
    percentile,
    program_env,
    use_program_env,
)

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("fig1", "validate_s5", "serve_zipf")
#: Fresh processes timed per run for ``setup_s`` (median reported).
SETUP_REPEATS = 5

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "serve_p50_ms": "ms",
    "serve_peak_p50_ms": "ms",
}
PER_LAYER = {
    "core.evaluate_s": "s",
    "core.evaluate_calls": "count",
    "core.solver_iterations": "count",
    "core.saturation_s": "s",
    "core.saturation_evals": "count",
    "pathstats.build_s": "s",
    "topology.build_s": "s",
    "workloads.flow_profile_s": "s",
    "simulation.run_s": "s",
    "simulation.cycles": "count",
    "simulation.msgs": "count",
    "simulation.msgs_per_s": "1/s",
    "simulation.py_cycle_ratio": "ratio",
    "simulation.phase.generation_s": "s",
    "simulation.phase.activation_s": "s",
    "simulation.phase.route_s": "s",
    "simulation.phase.complete_s": "s",
    "simulation.phase.other_s": "s",
    "campaign.overhead_s": "s",
    "campaign.units": "count",
    "campaign.store_append_s": "s",
    "campaign.store_load_s": "s",
    "service.warm_ms_p50": "ms",
    "service.surrogate_ms_p50": "ms",
    "service.cold_ms_p50": "ms",
    "service.queries.warm": "count",
    "service.queries.surrogate": "count",
    "service.queries.cold": "count",
    "service.p99_ms": "ms",
    "service.peak_p99_ms": "ms",
    "service.transport_ms_p50": "ms",
    "service.refinements": "count",
    "service.refine_queue_end": "count",
    "loadgen.lag_ms_p99": "ms",
    "validation.model_sim_mre": "ratio",
    "trace.overhead_ratio": "ratio",
    "trace.coverage": "ratio",
}


def _setup_samples(repeats: int) -> list[float]:
    """Spawn-to-exit seconds of fresh processes bringing the program to ready."""
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "setup_probe.py"), "ready"],
            env=program_env(),
        )
        # A blocking wait, with a watchdog for the timeout: ``wait(timeout)``
        # polls at up to 50 ms intervals, which would quantize the sample.
        watchdog = threading.Timer(120, proc.kill)
        watchdog.start()
        code = proc.wait()
        samples.append(time.perf_counter() - t0)
        watchdog.cancel()
        if code != 0:
            raise subprocess.CalledProcessError(code, proc.args)
    return samples


def _layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer numbers from the traced pass's spans and counters."""
    totals = tracer.totals()
    counts = tracer.counts

    def span_s(name):
        return totals.get(name, {}).get("total_s", 0.0)

    out = {name: 0.0 for name in PER_LAYER}
    out.update({name: value for name, value in counts.items() if name in PER_LAYER})
    out["core.evaluate_s"] = span_s("core.evaluate") + counts.get("core.evaluate_s", 0.0)
    out["core.saturation_s"] = span_s("core.saturation")
    out["pathstats.build_s"] = span_s("pathstats.build")
    out["topology.build_s"] = span_s("topology.build")
    out["workloads.flow_profile_s"] = span_s("workloads.flow_profile")
    run_s = span_s("simulation.run") + counts.get("simulation.run_s", 0.0)
    out["simulation.run_s"] = run_s
    out["simulation.msgs_per_s"] = out["simulation.msgs"] / run_s if run_s else 0.0
    if counts.get("simulation.steps") and out["simulation.cycles"]:
        out["simulation.py_cycle_ratio"] = counts["simulation.steps"] / out["simulation.cycles"]
    out["campaign.store_append_s"] = span_s("campaign.store_append")
    out["campaign.store_load_s"] = span_s("campaign.store_load")
    out["trace.coverage"] = tracer.coverage("pass")
    return out


def run_batch(workload: str, seed: int, seconds: float, trace: bool, checks: Checks):
    """fig1 / validate_s5: timed passes, or untraced, traced and untraced again."""
    from repro.validation.compare import compare_curves

    module = __import__(workload)
    setup = [] if trace else _setup_samples(SETUP_REPEATS)
    # A fixed number of passes for a given --seconds (not one read off the
    # clock), so a slow host does not change how much work a run measures.
    passes = 1 if trace else max(1, round(seconds / module.PASS_SECONDS))
    walls, answers, first = [], [], None
    for _ in range(passes):
        t0 = time.perf_counter()
        outputs, answer_s, points = module.run_pass(seed, Tracer(False), checks)
        walls.append(time.perf_counter() - t0)
        answers += itertools.accumulate(answer_s)  # all due at the pass start
        if first is None:
            first, mre = outputs, compare_curves(points).mean_relative_error
        else:
            checks.check(outputs == first, f"{workload}: a repeated pass gave other results")
    if trace:
        tracer = Tracer(True, uuid.uuid4().hex)
        t0 = time.perf_counter()
        outputs, _, _ = module.run_pass(seed, tracer, checks)
        traced = time.perf_counter() - t0
        checks.check(outputs == first, f"{workload}: traced results differ from untraced ones")
        # The overhead baseline is an untraced pass run after the first
        # one, like the traced pass, so neither pays first-pass warm-up.
        t0 = time.perf_counter()
        outputs, _, _ = module.run_pass(seed, Tracer(False), checks)
        untraced = time.perf_counter() - t0
        checks.check(outputs == first, f"{workload}: a repeated pass gave other results")
        tracer.write(BUILD / f"trace-{workload}-{seed}.json")
        layers = _layer_metrics(tracer)
        layers["trace.overhead_ratio"] = traced / untraced
        layers["validation.model_sim_mre"] = mre
        return layers, {}
    p50 = median(answers) * 1e3
    metrics = {
        "setup_s": median(setup),
        "wall_s": median(walls),
        "peak_rss_mb": peak_rss_mb(),
        # A batch workload has no offered rate: its answers are the
        # Figure-1 series / validation presets, all due at the pass start
        # (latency = completion time in the pass), so nominal and peak
        # coincide.
        "serve_p50_ms": p50,
        "serve_peak_p50_ms": p50,
    }
    notes = {"model_sim_mre": mre, "passes": len(walls), "answers": len(answers)}
    return metrics, notes


def run_serve(seed: int, seconds: float, trace: bool, checks: Checks):
    """serve_zipf: set-up samples + one timed session, or a discarded set-up,
    then an untraced and a traced session."""
    import serve_zipf as serve

    tag = str(os.getpid())
    saturation = serve.reference_saturation()
    if not trace:
        setups = [
            serve.setup_time(seed, seconds, saturation, f"{tag}-{k}", checks)
            for k in range(serve.SETUP_REPEATS - 1)
        ]
        out = serve.session(seed, seconds, saturation, tag, Tracer(False), checks)
        setups.append(out["setup_s"])
        nominal, peak = out["nominal_ms"], out["peak_ms"]
        metrics = {
            "setup_s": median(setups),
            "wall_s": out["wall_s"],
            "peak_rss_mb": out["peak_rss_mb"],
            "serve_p50_ms": median(nominal),
            "serve_peak_p50_ms": median(peak),
        }
        notes = {
            "nominal_queries": len(nominal),
            "peak_queries": len(peak),
            "serve_p99_ms": percentile(nominal, 99),
            "serve_peak_p99_ms": percentile(peak, 99),
            "model_sim_mre": out["model_sim_mre"],
            "refined_points": out["refined_points"],
            "lag_ms_p99": percentile(out["lag_ms"], 99),
        }
        return metrics, notes
    # A discarded set-up first, so neither timed set-up pays first-use costs.
    serve.setup_time(seed, seconds, saturation, tag + "-w", checks)
    untraced = serve.session(seed, seconds, saturation, tag + "-u", Tracer(False), checks)
    tracer = Tracer(True, uuid.uuid4().hex)
    out = serve.session(seed, seconds, saturation, tag + "-t", tracer, checks)
    tracer.write(BUILD / f"trace-serve_zipf-{seed}.json")
    layers = _layer_metrics(tracer)
    stats = out["stats"]
    latency = stats.get("latency", {})
    for tier, counter in (("warm", "warm_hits"), ("surrogate", "surrogate_hits"),
                          ("cold", "cold_misses")):
        layers[f"service.{tier}_ms_p50"] = latency.get(tier, {}).get("p50_ms", 0.0)
        layers[f"service.queries.{tier}"] = stats[counter]
    layers["service.p99_ms"] = percentile(out["nominal_ms"], 99)
    layers["service.peak_p99_ms"] = percentile(out["peak_ms"], 99)
    layers["service.transport_ms_p50"] = median(out["transport_ms"])
    layers["service.refinements"] = out["refinements"]
    layers["service.refine_queue_end"] = out["refine_queue_end"]
    layers["loadgen.lag_ms_p99"] = percentile(out["lag_ms"], 99)
    # The benchmark opens no span while the replay runs, and the replay's
    # wall is fixed by its schedule, so both validity figures cover the
    # set-up (store seeding and server start), where the spans are.
    layers["trace.coverage"] = tracer.coverage("setup")
    layers["trace.overhead_ratio"] = out["setup_s"] / untraced["setup_s"]
    layers["validation.model_sim_mre"] = out["model_sim_mre"]
    return layers, {}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"run.py: no program source under {SRC}", file=sys.stderr)
        return 2
    use_program_env()
    BUILD.mkdir(exist_ok=True)
    # Compile the kernel and fill the service's disk caches (untimed).
    subprocess.run(
        [sys.executable, os.path.join(HERE, "setup_probe.py"), "prepare"],
        env=program_env(), check=True, timeout=900,
    )
    checks = Checks()
    trace = bool(args.trace)
    if args.workload == "serve_zipf":
        metrics, notes = run_serve(args.seed, args.seconds, trace, checks)
    else:
        metrics, notes = run_batch(args.workload, args.seed, args.seconds, trace, checks)
    units = PER_LAYER if trace else END_TO_END
    for name, value in metrics.items():
        print(f"{name:32s} {value:14.6g} {units[name]}")
    fail_ratio = checks.failed / max(checks.attempted, 1)
    print(f"{'fail_ratio':32s} {fail_ratio:14.6g} ratio "
          f"({checks.failed} of {checks.attempted} operations)")
    for name, value in notes.items():
        print(f"{'  ' + name:32s} {value:14.6g}")
    for reason in checks.reasons:
        print(f"FAILED: {reason}")
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
