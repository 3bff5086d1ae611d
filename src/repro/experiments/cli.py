"""Command-line entry point: ``starnet <command> [options]``.

Commands
--------
figure1      Reproduce a Figure-1 panel (model + optional simulation).
properties   Section-2 topology comparison table (star vs. hypercube).
scale        Large-n model-only study.
ablation     Run one of the named ablation studies.
distance     Average-distance table (Eq. 2 vs. exact enumeration).
campaign     Run a declarative parameter-grid campaign (parallel,
             resumable, cache-backed).
sim          Run one flit-level simulation with full workload control.
validate     Model-vs-sim accuracy per workload (campaign-backed);
             --bounds adds the network-calculus cross-check, --preset
             runs the standing S5/S6 suites with stated tolerances, and
             a probed warmup-adequacy check warns when the configured
             warmup window ends before the measured transient.
serve        Capacity-planning query service over a campaign store
             (warm store hits, saturation-aware surrogates, instant
             cold fallback + background refinement); --trace-events
             records every query's span tree.
profile      Per-phase kernel timing of one array-engine batch
             (--json for machine-readable output).
watch        Cycle-resolution time-series probes of one array-engine
             run: in-flight, throughput, backlog and VC occupancy as
             terminal sparklines/table or JSONL (--out).
trace        Trace-file tooling: ``trace export`` rewrites span events
             as Chrome trace-event JSON for chrome://tracing.
"""

from __future__ import annotations

import argparse
import sys

from repro.api.presets import available_presets
from repro.api.scenario import Scenario, run_units
from repro.campaign.grid import GridSpec
from repro.campaign.kinds import available_kinds
from repro.campaign.runner import pool_choice, to_payload
from repro.experiments import ablations
from repro.experiments.figure1 import FIGURE1_PANELS, panel_record, render_panel, reproduce_panel
from repro.experiments.tables import render_table
from repro.topology.properties import comparison_table
from repro.topology.star import StarGraph, star_average_distance_closed_form
from repro.utils.exceptions import ConfigurationError

__all__ = ["main", "build_parser"]

#: Scenario-flag defaults of ``starnet validate`` when --preset is not
#: used — the single source for both the help strings and the
#: None-resolution (argparse defaults stay None so --preset can reject
#: explicitly passed, conflicting flags).
_VALIDATE_DEFAULTS = {
    "order": 4,
    "message_length": 16,
    "vcs": 5,
    "quality": "quick",
    "seed": 0,
    "engine": "object",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="starnet",
        description="Star-graph wormhole latency model reproduction (IPDPS 2006)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fig = sub.add_parser("figure1", help="reproduce a Figure-1 panel")
    fig.add_argument("--panel", choices=sorted(FIGURE1_PANELS), default="a")
    fig.add_argument("--quality", choices=("smoke", "quick", "full"), default="quick")
    fig.add_argument("--no-sim", action="store_true", help="model curves only")
    fig.add_argument("--seed", type=int, default=0)
    fig.add_argument("--save", metavar="DIR", help="write a JSON record to DIR")
    fig.add_argument("--workers", type=int, default=1, help="process-pool width")

    sub.add_parser("properties", help="topology comparison table (section 2)")

    sc = sub.add_parser("scale", help="large-n model study")
    sc.add_argument("--max-n", type=int, default=9)
    sc.add_argument("--workers", type=int, default=1, help="process-pool width")
    sc.add_argument(
        "--out", metavar="FILE", help="also save the study as a ResultSet JSONL"
    )

    ab = sub.add_parser("ablation", help="run a named ablation")
    ab.add_argument(
        "name",
        choices=(
            "blocking",
            "routing",
            "vcsplit",
            "hypercube",
            "hypercube-model",
            "blocking-profile",
        ),
    )
    ab.add_argument("--workers", type=int, default=1, help="process-pool width")
    ab.add_argument(
        "--out",
        metavar="FILE",
        help="also save the study as a ResultSet JSONL (vcsplit only)",
    )

    dist = sub.add_parser("distance", help="average-distance table (Eq. 2)")
    dist.add_argument("--max-n", type=int, default=7)

    camp = sub.add_parser(
        "campaign",
        help="run a declarative parameter-grid campaign",
        description=(
            "Expand a parameter grid into content-hashed work units and run "
            "them through the campaign engine.  The grid comes from a "
            "TOML/JSON spec file (--spec) or from --kind/--axis/--set flags; "
            "with --out the results stream to a JSONL store that --resume "
            "reads back to skip completed units."
        ),
    )
    camp.add_argument("--spec", metavar="FILE", help="TOML/JSON grid-spec file")
    camp.add_argument("--kind", choices=available_kinds(), help="work-unit kind")
    camp.add_argument(
        "--axis",
        action="append",
        default=[],
        metavar="NAME=VALUES",
        help="swept axis: comma list (a,b,c) or linspace (lo:hi:count); repeatable",
    )
    camp.add_argument(
        "--set",
        action="append",
        default=[],
        dest="pinned",
        metavar="NAME=VALUE",
        help="pinned parameter shared by every unit; repeatable",
    )
    camp.add_argument(
        "--seeds", type=int, help="replication: adds a seed axis 0..N-1"
    )
    camp.add_argument("--workers", type=int, default=1, help="process-pool width")
    camp.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="in-process thread lanes instead of --workers processes "
        "(0 = one per core); best for array-engine units, whose compiled "
        "kernel releases the GIL",
    )
    camp.add_argument("--out", metavar="FILE", help="JSONL result store")
    camp.add_argument(
        "--resume",
        action="store_true",
        help="skip units already present in --out",
    )
    camp.add_argument(
        "--cache-dir", metavar="DIR", help="shared path-statistics disk cache"
    )
    camp.add_argument(
        "--no-table", action="store_true", help="print only the run summary"
    )
    camp.add_argument(
        "--events",
        metavar="FILE",
        help="append per-unit lifecycle events (queued/started/cached/"
        "finished plus periodic heartbeats) as JSONL to FILE",
    )

    prof = sub.add_parser(
        "profile",
        help="per-phase kernel timing of one array-engine batch",
        description=(
            "Run one profiled batch on the array engine and print where "
            "the kernel's wall time goes, phase by phase (generation / "
            "activation / route / complete).  Profiling is observational: "
            "results are bit-identical to an unprofiled run, and the "
            "instrumentation is compiled in but completely off unless this "
            "command (or profile=True) asks for it."
        ),
    )
    prof.add_argument("--topology", choices=("star", "hypercube"), default="star")
    prof.add_argument("--order", type=int, default=4, help="star n / hypercube k")
    prof.add_argument(
        "--algorithm", default="enhanced_nbc", help="routing-registry name"
    )
    prof.add_argument(
        "--rate",
        type=float,
        default=None,
        help="lambda_g, messages/cycle/node (default: --load of saturation)",
    )
    prof.add_argument(
        "--load",
        type=float,
        default=0.4,
        help="operating point as a fraction of the model's saturation rate, "
        "used when --rate is not given",
    )
    prof.add_argument("--message-length", type=int, default=16, help="M, flits")
    prof.add_argument("--vcs", type=int, default=6, help="V, virtual channels")
    prof.add_argument(
        "--workload", default="uniform", help="spatial[+temporal] workload string"
    )
    prof.add_argument("--seed", type=int, default=0)
    prof.add_argument(
        "--replications",
        type=int,
        default=8,
        metavar="R",
        help="batch width (all replications advance through the same "
        "vectorized passes; the table shows whole-batch time)",
    )
    prof.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="kernel worker threads (0 = one per core)",
    )
    prof.add_argument(
        "--quality", choices=("smoke", "quick", "full"), default="quick"
    )
    prof.add_argument("--warmup", type=int, help="override warmup cycles")
    prof.add_argument("--measure", type=int, help="override the measurement window")
    prof.add_argument("--drain", type=int, help="override the drain window")
    prof.add_argument(
        "--json",
        action="store_true",
        help="print one machine-readable JSON object instead of the table "
        "(phase nanoseconds plus the run's identifying parameters)",
    )

    watch = sub.add_parser(
        "watch",
        help="cycle-resolution time-series probes of one array-engine run",
        description=(
            "Run one probed batch on the array engine and render the "
            "sampled dynamics — in-flight messages, throughput, source "
            "backlog and per-channel VC occupancy — as terminal "
            "sparklines plus a sample table, or as JSONL with --out.  "
            "Probing is observational: results are bit-identical to an "
            "unprobed run.  The footer reports the MSER-based warmup "
            "adequacy check (see docs/observability.md)."
        ),
    )
    watch.add_argument("--topology", choices=("star", "hypercube"), default="star")
    watch.add_argument("--order", type=int, default=4, help="star n / hypercube k")
    watch.add_argument(
        "--algorithm", default="enhanced_nbc", help="routing-registry name"
    )
    watch.add_argument(
        "--rate",
        type=float,
        default=None,
        help="lambda_g, messages/cycle/node (default: --load of saturation)",
    )
    watch.add_argument(
        "--load",
        type=float,
        default=0.4,
        help="operating point as a fraction of the model's saturation rate, "
        "used when --rate is not given",
    )
    watch.add_argument("--message-length", type=int, default=16, help="M, flits")
    watch.add_argument("--vcs", type=int, default=6, help="V, virtual channels")
    watch.add_argument(
        "--workload", default="uniform", help="spatial[+temporal] workload string"
    )
    watch.add_argument("--seed", type=int, default=0)
    watch.add_argument(
        "--replications",
        type=int,
        default=4,
        metavar="R",
        help="batch width (series aggregate over the whole batch)",
    )
    watch.add_argument(
        "--quality", choices=("smoke", "quick", "full"), default="quick"
    )
    watch.add_argument("--warmup", type=int, help="override warmup cycles")
    watch.add_argument("--measure", type=int, help="override the measurement window")
    watch.add_argument("--drain", type=int, help="override the drain window")
    watch.add_argument(
        "--interval",
        type=int,
        default=None,
        metavar="K",
        help="probe stride in cycles (default: aimed at ~256 samples)",
    )
    watch.add_argument(
        "--rows",
        type=int,
        default=16,
        metavar="N",
        help="sample rows to print in the table (the series is thinned)",
    )
    watch.add_argument(
        "--out",
        metavar="FILE",
        help="write the samples as JSONL (one meta line, one line per "
        "sample) instead of rendering",
    )

    tr = sub.add_parser(
        "trace",
        help="trace-file tooling (export span events for chrome://tracing)",
    )
    trsub = tr.add_subparsers(dest="trace_command", required=True)
    texp = trsub.add_parser(
        "export",
        help="rewrite span events as Chrome trace-event JSON",
        description=(
            "Read a span-carrying event JSONL file (e.g. from starnet "
            "serve --trace-events) and write Chrome trace-event JSON "
            "loadable in chrome://tracing or Perfetto."
        ),
    )
    texp.add_argument("events", metavar="FILE", help="event JSONL file")
    texp.add_argument(
        "--out",
        metavar="FILE",
        help="output path (default: FILE with a .trace.json suffix)",
    )
    texp.add_argument(
        "--trace-id", default=None, help="export a single trace's tree"
    )

    sim = sub.add_parser(
        "sim",
        help="run one flit-level simulation",
        description=(
            "Run a single wormhole simulation with full workload control.  "
            "The workload string follows the spatial[+temporal] grammar, e.g. "
            "'hotspot(fraction=0.2)+onoff(duty=0.25,burst=8)'."
        ),
    )
    sim.add_argument("--topology", choices=("star", "hypercube"), default="star")
    sim.add_argument("--order", type=int, default=5, help="star n / hypercube k")
    sim.add_argument("--algorithm", default="enhanced_nbc", help="routing-registry name")
    sim.add_argument("--rate", type=float, default=0.001, help="lambda_g, messages/cycle/node")
    sim.add_argument("--message-length", type=int, default=32, help="M, flits")
    sim.add_argument("--vcs", type=int, default=6, help="V, virtual channels per channel")
    sim.add_argument("--workload", default="uniform", help="spatial[+temporal] workload string")
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument(
        "--engine",
        choices=("object", "array"),
        default="object",
        help="simulation backend (array = vectorized batch kernels)",
    )
    sim.add_argument(
        "--replications",
        type=int,
        default=1,
        metavar="R",
        help="independent seeds (seed..seed+R-1); R > 1 prints per-seed "
        "rows plus a pooled summary (one vectorized process on the "
        "array engine)",
    )
    sim.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="kernel worker threads for the array engine (0 = one per "
        "core; results are bit-identical for every value); overrides "
        "STARNET_THREADS, ignored by the object engine",
    )
    sim.add_argument("--quality", choices=("smoke", "quick", "full"), default="quick")
    sim.add_argument("--warmup", type=int, help="override the quality preset's warmup cycles")
    sim.add_argument("--measure", type=int, help="override the measurement window")
    sim.add_argument("--drain", type=int, help="override the drain window")
    sim.add_argument("--hops", action="store_true", help="also print per-hop blocking")

    val = sub.add_parser(
        "validate",
        help="model-vs-sim accuracy per workload",
        description=(
            "Sweep model and simulator over a shared rate ladder for each "
            "workload (a campaign grid with a workload axis) and report the "
            "per-workload accuracy in the mutually stable region."
        ),
    )
    val.add_argument(
        "--workload",
        action="append",
        default=[],
        metavar="SPEC",
        help="workload to validate (repeatable); default: a 3-workload suite",
    )
    # Scenario flags default to None so --preset can detect (and reject)
    # explicit values that would silently contradict the preset scenario;
    # without --preset they resolve through _VALIDATE_DEFAULTS.
    val.add_argument(
        "--order", type=int, default=None,
        help=f"star order n (default {_VALIDATE_DEFAULTS['order']})",
    )
    val.add_argument(
        "--message-length", type=int, default=None,
        help=f"M, flits (default {_VALIDATE_DEFAULTS['message_length']})",
    )
    val.add_argument(
        "--vcs", type=int, default=None,
        help=f"V (default {_VALIDATE_DEFAULTS['vcs']})",
    )
    val.add_argument(
        "--fractions",
        default="0.2,0.4,0.6",
        help="load points as fractions of the binding saturation rate",
    )
    val.add_argument(
        "--quality", choices=("smoke", "quick", "full"), default=None,
        help=f"simulation window preset (default {_VALIDATE_DEFAULTS['quality']})",
    )
    val.add_argument(
        "--warmup", type=int, default=None,
        help="override the quality preset's warmup cycles",
    )
    val.add_argument(
        "--measure", type=int, default=None,
        help="override the measurement window",
    )
    val.add_argument(
        "--drain", type=int, default=None, help="override the drain window"
    )
    val.add_argument(
        "--seed", type=int, default=None,
        help=f"master seed (default {_VALIDATE_DEFAULTS['seed']})",
    )
    val.add_argument(
        "--engine",
        choices=("object", "array"),
        default=None,
        help="simulation backend used for the sim side of the comparison "
        f"(default {_VALIDATE_DEFAULTS['engine']})",
    )
    val.add_argument("--workers", type=int, default=1, help="process-pool width")
    val.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="in-process thread lanes instead of --workers processes "
        "(0 = one per core); best with --engine array",
    )
    val.add_argument(
        "--tolerance",
        type=float,
        help="fail (exit 1) when a workload's mean relative error exceeds this",
    )
    val.add_argument(
        "--replications",
        type=int,
        default=1,
        metavar="R",
        help="pool R sim replications per point (sim_batch units with an "
        "across-replication CI) instead of one run",
    )
    val.add_argument(
        "--hops",
        action="store_true",
        help="also print measured per-hop blocking next to the model's "
        "P_block(k) prediction",
    )
    val.add_argument(
        "--bounds",
        action="store_true",
        help="also compute network-calculus delay bounds and print the "
        "model vs sim vs bound table (a finite bound below the simulated "
        "mean is flagged and fails the run)",
    )
    val.add_argument(
        "--preset",
        choices=available_presets(),
        help="run a standing cross-check suite (S5/S6 scenarios with "
        "stated tolerances) instead of the flag-built scenario; a "
        "workload exceeding its stated tolerance fails the run",
    )
    val.add_argument(
        "--out",
        metavar="FILE",
        help="save every model/sim/bound row as a ResultSet JSONL",
    )
    val.add_argument(
        "--cache-dir", metavar="DIR", help="shared campaign disk cache"
    )
    val.add_argument(
        "--no-warmup-check",
        action="store_true",
        help="skip the probed warmup-adequacy check (one extra array-"
        "engine run at the top load fraction per scenario, warning when "
        "the warmup window ends before the measured transient)",
    )

    srv = sub.add_parser(
        "serve",
        help="serve capacity queries over a campaign result store",
        description=(
            "Start the capacity-planning HTTP/JSON service: queries answer "
            "from the store when warm, through a saturation-aware surrogate "
            "when the rate falls inside a cached ladder, and from an instant "
            "model/bound evaluation otherwise (cold answers enqueue a "
            "simulation unit for background refinement).  A --store path "
            "ending in .jsonl opens the flat single-file layout; anything "
            "else opens (or creates) a sharded concurrent-writer store."
        ),
    )
    srv.add_argument(
        "--store",
        required=True,
        metavar="PATH",
        help="campaign result store (flat .jsonl file or sharded directory)",
    )
    srv.add_argument("--host", default="127.0.0.1")
    srv.add_argument("--port", type=int, default=8351)
    srv.add_argument(
        "--cache-dir", metavar="DIR", help="shared campaign disk cache"
    )
    srv.add_argument(
        "--no-refine",
        action="store_true",
        help="answer cold queries without enqueueing background simulation",
    )
    srv.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="thread lanes for draining the refinement queue "
        "(0 = one per core; queries are unaffected)",
    )
    srv.add_argument(
        "--trace-events",
        metavar="FILE",
        help="append span/lifecycle events as JSONL to FILE: every query "
        "emits a service.query span, refinements parent under the query "
        "that enqueued them ('starnet trace export' renders the file "
        "for chrome://tracing)",
    )
    return parser


def _record_table(rec) -> str:
    if not rec.rows:
        return "(no rows)"
    headers = list(rec.rows[0].keys())
    rows = [[row.get(h) for h in headers] for row in rec.rows]
    return render_table(headers, rows)


def _campaign_grid(args) -> GridSpec:
    if args.spec:
        grid = GridSpec.from_file(args.spec)
        if args.kind or args.axis or args.pinned or args.seeds is not None:
            raise ConfigurationError(
                "--spec cannot be combined with --kind/--axis/--set/--seeds"
            )
        return grid
    if not args.kind:
        raise ConfigurationError("campaign needs either --spec or --kind")
    return GridSpec.from_cli(args.kind, args.axis, args.pinned, args.seeds)


def _campaign_table(result) -> str:
    """Flatten params + payload of every unit into one aligned table."""
    flat_rows = []
    headers: list[str] = []
    for unit, res in zip(result.units, result.results):
        payload = to_payload(res)
        row = dict(unit.params)
        if isinstance(payload, dict):
            for k, v in payload.items():
                # Nested tables (e.g. pooled hop-blocking rows) don't
                # fit a flat text column; the JSONL store keeps them.
                if isinstance(v, (list, dict)):
                    continue
                row.setdefault(k, v)
        else:
            row["result"] = payload
        for key in row:
            if key not in headers:
                headers.append(key)
        flat_rows.append(row)
    table = [[row.get(h, "") for h in headers] for row in flat_rows]
    return render_table(headers, table)


def _run_campaign_command(args) -> int:
    try:
        if args.resume and not args.out:
            raise ConfigurationError("--resume requires --out (the store to resume from)")
        grid = _campaign_grid(args)
    except ConfigurationError as exc:
        print(f"starnet campaign: error: {exc}", file=sys.stderr)
        return 2
    units = grid.expand()
    try:
        width, executor = pool_choice(args.workers, args.jobs)
    except ConfigurationError as exc:
        print(f"starnet campaign: error: {exc}", file=sys.stderr)
        return 2
    result = run_units(
        units,
        workers=width,
        executor=executor,
        store=args.out,
        resume=args.resume,
        cache_dir=args.cache_dir,
        events=args.events,
    )
    print(f"campaign[{grid.kind}]: {result.summary()}")
    if result.store_path is not None:
        print(f"store: {result.store_path}")
    if args.events:
        print(f"events: {args.events}")
    if not args.no_table:
        print()
        print(_campaign_table(result))
    return 0


def _run_profile_command(args) -> int:
    from repro.simulation.backends import simulate_batch
    from repro.simulation.config import resolve_threads

    try:
        if args.replications < 1:
            raise ConfigurationError("--replications must be >= 1")
        if args.jobs is not None:
            resolve_threads(args.jobs, None)
        scenario = Scenario(
            topology=args.topology,
            order=args.order,
            algorithm=args.algorithm,
            message_length=args.message_length,
            total_vcs=args.vcs,
            workload=args.workload,
            quality=args.quality,
            warmup_cycles=args.warmup,
            measure_cycles=args.measure,
            drain_cycles=args.drain,
            engine="array",
            seed=args.seed,
        )
        rate = args.rate
        if rate is None:
            if not 0 < args.load < 1:
                raise ConfigurationError(
                    f"--load must be in (0, 1), got {args.load}"
                )
            rate = round(args.load * scenario.saturation_rate(), 6)
        spec = scenario.sim_spec(rate)
        topo, algo, run_config = spec.build()
        results = simulate_batch(
            topo,
            algo,
            run_config,
            args.replications,
            threads=args.jobs,
            profile=True,
        )
    except ConfigurationError as exc:
        print(f"starnet profile: error: {exc}", file=sys.stderr)
        return 2
    prof = results[0].phase_ns or {}
    total = prof.get("total", 0) or 1
    cycles = prof.get("cycles", 0)
    returns = {
        reason: int(prof.get(f"returns_{reason}", 0))
        for reason in ("stop", "punt", "sample", "error")
    }
    py_cycles = int(prof.get("py_cycles", 0))
    if args.json:
        import json

        record = {
            "command": "profile",
            "topology": args.topology,
            "order": args.order,
            "algorithm": args.algorithm,
            "workload": run_config.workload_spec().canonical,
            "rate": rate,
            "message_length": args.message_length,
            "total_vcs": args.vcs,
            "replications": args.replications,
            "cycles": int(cycles),
            "total_ns": int(total),
            "phases": {
                phase: int(prof.get(phase, 0))
                for phase in ("generation", "activation", "route", "complete", "other")
            },
            "returns": returns,
            "py_cycles": py_cycles,
        }
        print(json.dumps(record, sort_keys=True))
        return 0
    print(
        f"profile[{args.topology} order={args.order} {args.algorithm}] "
        f"workload={run_config.workload_spec().canonical} rate={rate} "
        f"M={args.message_length} V={args.vcs} "
        f"replications={args.replications} cycles={cycles}"
    )
    rows = []
    for phase in ("generation", "activation", "route", "complete", "other"):
        ns = int(prof.get(phase, 0))
        rows.append(
            [
                phase,
                ns,
                f"{100.0 * ns / total:.1f}%",
                round(ns / cycles, 1) if cycles else "",
            ]
        )
    rows.append(["total", int(total), "100.0%", round(total / cycles, 1) if cycles else ""])
    print()
    print(render_table(["phase", "ns", "share", "ns/cycle"], rows))
    share = f" ({100.0 * py_cycles / cycles:.1f}% of cycles)" if cycles else ""
    print()
    print(
        "resident-loop returns: "
        + ", ".join(f"{reason} {n}" for reason, n in returns.items())
        + f"; cycles run in Python: {py_cycles}{share}"
    )
    return 0


def _run_watch_command(args) -> int:
    import json

    from repro.obs import (
        default_probe_interval,
        series_rows,
        sparkline,
        warmup_adequacy,
    )
    from repro.simulation.backends import simulate_batch

    try:
        if args.replications < 1:
            raise ConfigurationError("--replications must be >= 1")
        scenario = Scenario(
            topology=args.topology,
            order=args.order,
            algorithm=args.algorithm,
            message_length=args.message_length,
            total_vcs=args.vcs,
            workload=args.workload,
            quality=args.quality,
            warmup_cycles=args.warmup,
            measure_cycles=args.measure,
            drain_cycles=args.drain,
            engine="array",
            seed=args.seed,
        )
        rate = args.rate
        if rate is None:
            if not 0 < args.load < 1:
                raise ConfigurationError(
                    f"--load must be in (0, 1), got {args.load}"
                )
            rate = round(args.load * scenario.saturation_rate(), 6)
        spec = scenario.sim_spec(rate)
        topo, algo, run_config = spec.build()
        horizon = run_config.warmup_cycles + run_config.measure_cycles
        interval = (
            args.interval
            if args.interval is not None
            else default_probe_interval(horizon)
        )
        results = simulate_batch(
            topo, algo, run_config, args.replications, probe_interval=interval
        )
    except ConfigurationError as exc:
        print(f"starnet watch: error: {exc}", file=sys.stderr)
        return 2
    series = results[0].timeseries or {}
    adequacy = warmup_adequacy(
        series, run_config.warmup_cycles, measure_end=horizon
    )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            meta = {
                "type": "meta",
                "topology": args.topology,
                "order": args.order,
                "algorithm": args.algorithm,
                "workload": run_config.workload_spec().canonical,
                "rate": rate,
                "replications": args.replications,
                "interval": series.get("interval", interval),
                "total_vcs": series.get("total_vcs", args.vcs),
                "samples": len(series.get("cycles", [])),
                "warmup_adequacy": adequacy,
            }
            handle.write(json.dumps(meta, sort_keys=True) + "\n")
            for i, cycle in enumerate(series.get("cycles", [])):
                handle.write(
                    json.dumps(
                        {
                            "type": "sample",
                            "cycle": cycle,
                            "in_flight": series["in_flight"][i],
                            "completed": series["completed"][i],
                            "throughput": series["throughput"][i],
                            "backlog": series["backlog"][i],
                            "occupancy": series["occupancy"][i],
                        },
                        sort_keys=True,
                    )
                    + "\n"
                )
        print(f"probes: {args.out} ({meta['samples']} samples)")
        return 0
    print(
        f"watch[{args.topology} order={args.order} {args.algorithm}] "
        f"workload={run_config.workload_spec().canonical} rate={rate} "
        f"M={args.message_length} V={args.vcs} "
        f"replications={args.replications} interval={interval} "
        f"samples={len(series.get('cycles', []))}"
    )
    print()
    for name in ("in_flight", "throughput", "backlog"):
        values = series.get(name, [])
        peak = max(values) if values else 0
        print(f"  {name:<11} {sparkline(values)}  peak={round(peak, 4)}")
    rows = series_rows(
        series, every=max(1, len(series.get("cycles", [])) // max(1, args.rows))
    )
    headers = ["cycle", "in_flight", "throughput", "backlog", "max_busy_vcs"]
    print()
    print(render_table(headers, [[row[h] for h in headers] for row in rows]))
    print()
    if adequacy["adequate"]:
        print(
            f"warmup: ok (warmup_cycles={adequacy['warmup_cycles']}, "
            f"MSER truncation at cycle {adequacy['truncation_cycle']})"
        )
    else:
        print(
            f"warmup: WARNING: warmup_cycles={adequacy['warmup_cycles']} ends "
            f"before the measured transient (MSER truncation at cycle "
            f"{adequacy['truncation_cycle']}, post-warmup effect "
            f"{adequacy['post_warmup_effect']} sd) — consider --warmup >= "
            f"{adequacy['truncation_cycle']}"
        )
    return 0


def _run_trace_command(args) -> int:
    from pathlib import Path

    from repro.obs import export_chrome_trace, read_events, span_tree

    if args.trace_command == "export":
        events_path = Path(args.events)
        if not events_path.exists():
            print(
                f"starnet trace: error: no event file at {events_path}",
                file=sys.stderr,
            )
            return 2
        out = (
            Path(args.out)
            if args.out
            else events_path.with_name(events_path.stem + ".trace.json")
        )
        doc = export_chrome_trace(events_path, out, trace_id=args.trace_id)
        spans = [e for e in read_events(events_path) if e.get("type") == "span"]
        if args.trace_id is not None:
            spans = [s for s in spans if s.get("trace_id") == args.trace_id]
        traces = {s.get("trace_id") for s in spans}
        roots = len(span_tree(spans).get(None, []))
        print(
            f"trace export: {len(doc['traceEvents'])} spans, "
            f"{len(traces)} trace(s), {roots} root span(s) -> {out}"
        )
        return 0
    return 2


def _run_sim_command(args) -> int:
    from repro.simulation import summarize_batch
    from repro.simulation.backends import simulate, simulate_batch
    from repro.simulation.config import resolve_threads

    try:
        if args.replications < 1:
            raise ConfigurationError("--replications must be >= 1")
        if args.jobs is not None:
            # Eager validation; the object engine ignores the value.
            resolve_threads(args.jobs, None)
        # One declarative description of the run — the Scenario facade
        # canonicalises the workload and builds the SimSpec.
        scenario = Scenario(
            topology=args.topology,
            order=args.order,
            algorithm=args.algorithm,
            message_length=args.message_length,
            total_vcs=args.vcs,
            workload=args.workload,
            quality=args.quality,
            warmup_cycles=args.warmup,
            measure_cycles=args.measure,
            drain_cycles=args.drain,
            engine=args.engine,
            seed=args.seed,
        )
        spec = scenario.sim_spec(args.rate)
        config = spec.config
        # Topology/algorithm names only resolve when the spec is built,
        # so run() failures are configuration errors too.
        topo, algo, run_config = spec.build()
        if args.replications == 1:
            result = simulate(topo, algo, run_config, threads=args.jobs)
            results = [result]
        else:
            results = simulate_batch(
                topo, algo, run_config, args.replications, threads=args.jobs
            )
            result = results[0]
    except ConfigurationError as exc:
        print(f"starnet sim: error: {exc}", file=sys.stderr)
        return 2
    print(
        f"sim[{args.topology} order={args.order} {args.algorithm}] "
        f"workload={config.workload_spec().canonical} rate={args.rate} "
        f"M={args.message_length} V={args.vcs} seed={args.seed} "
        f"engine={args.engine}"
        + (f" replications={args.replications}" if args.replications > 1 else "")
    )
    if args.replications > 1:
        headers = ["seed"] + list(results[0].as_dict().keys())
        rows = [
            [config.seed + i, *res.as_dict().values()]
            for i, res in enumerate(results)
        ]
        print(render_table(headers, rows))
        print()
        pooled = summarize_batch(results)
        scalars = [
            (k, v) for k, v in pooled.items() if not isinstance(v, (list, dict))
        ]
        print(render_table(["pooled metric", "value"], scalars))
    else:
        pooled = None
        rows = [[key, value] for key, value in result.as_dict().items()]
        print(render_table(["metric", "value"], rows))
    if args.hops:
        if pooled is not None:
            hop_rows = pooled.get("hop_blocking") or []
            title = f"pooled per-hop blocking ({args.replications} replications):"
        else:
            hop_rows = (
                result.hop_blocking.as_rows() if result.hop_blocking is not None else []
            )
            title = None
        if hop_rows:
            headers = list(hop_rows[0].keys())
            print()
            if title:
                print(title)
            print(render_table(headers, [[row[h] for h in headers] for row in hop_rows]))
    return 0


def _bound_check_table(scenario, record, cache_dir) -> tuple[str, bool, "object"]:
    """The model/sim/bound cross-check of one validated workload.

    Returns the rendered three-provenance table, whether any *finite*
    bound fell below the simulated mean (a soundness violation — upper
    bounds may be loose or infinite, never low), and the bound rows.
    """
    import math

    bound_rows = scenario.replace(workload=record.workload).bound(
        record.rates, cache_dir=cache_dir
    )
    table = []
    violated = False
    for point, brow in zip(record.comparison.points, bound_rows):
        bound = brow.latency
        worst = brow.meta.get("delay_bound_worst")
        flag = ""
        if math.isfinite(bound) and bound < point.sim_latency:
            flag = "BOUND<SIM!"
            violated = True
        table.append(
            [
                point.generation_rate,
                round(point.model_latency, 3),
                round(point.sim_latency, 3),
                "inf" if not math.isfinite(bound) else round(bound, 1),
                "inf" if brow.saturated or worst is None else round(worst, 1),
                flag,
            ]
        )
    rendered = render_table(
        ["rate", "model", "sim", "bound", "bound_worst", "check"], table
    )
    return rendered, violated, bound_rows


def _warmup_adequacy_report(scenario, fractions) -> dict:
    """Probe one array-engine run at the top load fraction and judge
    the scenario's warmup window against the measured transient."""
    from repro.obs import adequacy_probe_interval, warmup_adequacy
    from repro.simulation.backends import simulate

    rate = round(max(fractions) * scenario.saturation_rate(), 6)
    spec = scenario.replace(engine="array").sim_spec(rate)
    topo, algo, config = spec.build()
    horizon = config.warmup_cycles + config.measure_cycles
    result = simulate(
        topo, algo, config, probe_interval=adequacy_probe_interval(horizon)
    )
    report = warmup_adequacy(
        result.timeseries, config.warmup_cycles, measure_end=horizon
    )
    report["rate"] = rate
    return report


def _run_validate_command(args) -> int:
    from repro.api.presets import preset_suite
    from repro.api.results import ResultSet
    from repro.validation.workloads import (
        DEFAULT_WORKLOADS,
        model_hop_profile,
        validate_workloads,
    )

    try:
        if args.replications < 1:
            raise ConfigurationError("--replications must be >= 1")
        fractions = tuple(float(tok) for tok in args.fractions.split(","))
        if args.preset:
            # A standing cross-check suite: each preset is one scenario +
            # workload with a *stated* tolerance (overridable by
            # --tolerance); exceeding it fails the run.  Scenario flags
            # would silently contradict the preset, so they are rejected.
            conflicting = [
                flag
                for flag, value in (
                    ("--order", args.order),
                    ("--message-length", args.message_length),
                    ("--vcs", args.vcs),
                    ("--quality", args.quality),
                    ("--warmup", args.warmup),
                    ("--measure", args.measure),
                    ("--drain", args.drain),
                    ("--seed", args.seed),
                    ("--engine", args.engine),
                )
                if value is not None
            ]
            if args.workload:
                conflicting.append("--workload")
            if conflicting:
                raise ConfigurationError(
                    f"--preset fixes the scenario; drop {', '.join(conflicting)}"
                )
            jobs = [
                (
                    p.scenario,
                    (p.workload,),
                    p.tolerance if args.tolerance is None else args.tolerance,
                )
                for p in preset_suite(args.preset)
            ]
        else:
            # The shared validation knobs travel as one Scenario facade.
            def _resolve(name):
                value = getattr(args, name)
                return value if value is not None else _VALIDATE_DEFAULTS[name]

            scenario = Scenario(
                topology="star",
                order=_resolve("order"),
                message_length=_resolve("message_length"),
                total_vcs=_resolve("vcs"),
                quality=_resolve("quality"),
                warmup_cycles=args.warmup,
                measure_cycles=args.measure,
                drain_cycles=args.drain,
                seed=_resolve("seed"),
                engine=_resolve("engine"),
            )
            jobs = [
                (
                    scenario,
                    tuple(args.workload) if args.workload else DEFAULT_WORKLOADS,
                    args.tolerance,
                )
            ]
        results = []
        for scenario, workloads, tolerance in jobs:
            for record in validate_workloads(
                workloads,
                scenario=scenario,
                load_fractions=fractions,
                workers=args.workers,
                jobs=args.jobs,
                tolerance=tolerance,
                replications=args.replications,
                hops=args.hops,
                cache_dir=args.cache_dir,
            ):
                results.append((scenario, record))
    except (ConfigurationError, ValueError) as exc:
        print(f"starnet validate: error: {exc}", file=sys.stderr)
        return 2
    failed = False
    all_rows = ResultSet()
    for scenario, record in results:
        print(record.summary())
        for p in record.comparison.points:
            print(
                f"  rate={p.generation_rate:<10g} model={p.model_latency:<10.3f} "
                f"sim={p.sim_latency:<10.3f} err="
                + ("n/a" if p.relative_error != p.relative_error else f"{100 * p.relative_error:.1f}%")
            )
        if record.rows is not None:
            all_rows = all_rows + record.rows
        if args.bounds:
            try:
                rendered, violated, bound_rows = _bound_check_table(
                    scenario, record, args.cache_dir
                )
            except ConfigurationError as exc:
                print(f"starnet validate: error: {exc}", file=sys.stderr)
                return 2
            print("  model vs sim vs bound:")
            print(rendered)
            all_rows = all_rows + bound_rows
            if violated:
                failed = True
        if args.hops and record.hop_profiles:
            for rate, rows in record.hop_profiles:
                if not rows:
                    continue
                model_profile = model_hop_profile(
                    record.workload,
                    rate,
                    order=scenario.order,
                    message_length=scenario.message_length,
                    total_vcs=scenario.total_vcs,
                )
                headers = list(rows[0].keys()) + [
                    "model_p_block",
                    "model_blocking_delay",
                ]
                table = []
                for row in rows:
                    pred = model_profile.get(row["hop"], {})
                    table.append(
                        [*row.values(), pred.get("p_block", ""), pred.get("blocking_delay", "")]
                    )
                print(f"  per-hop blocking at rate={rate:g}:")
                print(render_table(headers, table))
        if record.passed is False:
            failed = True
    if not args.no_warmup_check:
        # One probed run per distinct scenario at the top load fraction:
        # warn (without failing) when the configured warmup window ends
        # before the MSER-detected transient.  Silent when adequate.
        seen: set[str] = set()
        for scenario, _record in results:
            fp = scenario.fingerprint()
            if fp in seen:
                continue
            seen.add(fp)
            try:
                report = _warmup_adequacy_report(scenario, fractions)
            except ConfigurationError:
                continue
            if not report["adequate"]:
                print(
                    f"warmup check: WARNING: warmup_cycles="
                    f"{report['warmup_cycles']} ends before the measured "
                    f"transient at rate={report['rate']:g} (MSER truncation "
                    f"at cycle {report['truncation_cycle']}, post-warmup "
                    f"effect {report['post_warmup_effect']} sd) — consider "
                    f"warmup >= {report['truncation_cycle']}"
                )
    if args.out:
        path = all_rows.save(args.out)
        print(f"rows: {path}")
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "figure1":
        series = reproduce_panel(
            args.panel,
            include_sim=not args.no_sim,
            quality=args.quality,
            seed=args.seed,
            workers=args.workers,
        )
        print(render_panel(series))
        if args.save:
            path = panel_record(series).save(args.save)
            print(f"\nsaved: {path}")
    elif args.command == "properties":
        rows = comparison_table()
        print(
            render_table(
                ["name", "nodes", "degree", "diameter", "avg distance"],
                [
                    [r.name, r.nodes, r.degree, r.diameter, r.average_distance]
                    for r in rows
                ],
            )
        )
    elif args.command == "scale":
        from repro.experiments.scale import scale_study_with_rows

        rec, rows = scale_study_with_rows(
            n_values=tuple(range(4, args.max_n + 1)), workers=args.workers
        )
        print(_record_table(rec))
        if args.out:
            path = rows.save(args.out)
            print(f"rows: {path}")
    elif args.command == "ablation":
        if args.out and args.name != "vcsplit":
            print(
                "starnet ablation: error: --out is only supported for the "
                "vcsplit ablation (campaign-kind rows)",
                file=sys.stderr,
            )
            return 2
        if args.name == "vcsplit" and args.out:
            # One campaign run feeds both the printed table and the rows.
            rec, rows = ablations.vc_split_study_with_rows(workers=args.workers)
            print(_record_table(rec))
            path = rows.save(args.out)
            print(f"rows: {path}")
            return 0
        runner = {
            "blocking": ablations.blocking_variant_study,
            "routing": ablations.routing_comparison,
            "vcsplit": ablations.vc_split_study,
            "hypercube": ablations.star_vs_hypercube,
            "hypercube-model": ablations.star_vs_hypercube_model,
            "blocking-profile": ablations.blocking_profile_study,
        }[args.name]
        print(_record_table(runner(workers=args.workers)))
    elif args.command == "distance":
        rows = []
        for n in range(3, args.max_n + 1):
            closed = star_average_distance_closed_form(n)
            exact = StarGraph(n).exact_average_distance() if n <= 7 else float("nan")
            rows.append([f"S{n}", closed, exact, abs(closed - exact)])
        print(render_table(["network", "Eq. (2)", "enumeration", "|diff|"], rows))
    elif args.command == "campaign":
        return _run_campaign_command(args)
    elif args.command == "serve":
        from repro.service.server import run_server

        try:
            run_server(
                args.store,
                host=args.host,
                port=args.port,
                cache_dir=args.cache_dir,
                refine=not args.no_refine,
                refine_jobs=args.jobs,
                trace_events=args.trace_events,
            )
        except ConfigurationError as exc:
            print(f"starnet serve: error: {exc}", file=sys.stderr)
            return 2
        return 0
    elif args.command == "sim":
        return _run_sim_command(args)
    elif args.command == "profile":
        return _run_profile_command(args)
    elif args.command == "watch":
        return _run_watch_command(args)
    elif args.command == "trace":
        return _run_trace_command(args)
    elif args.command == "validate":
        return _run_validate_command(args)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
