"""Workload ``serve_zipf``: an open-loop query replay against ``starnet serve``.

The benchmark seeds a sharded store with S5 model rate ladders, starts
``starnet serve`` on it as its own process, and replays a query stream
at two fixed rates (nominal, then peak) from one generator process with
two sender threads.  Queries pick a seeded family by a Zipf law and ask
either for a ladder rate (planned tier: warm) or for a rate strictly
inside the ladder (surrogate).  Every ``COLD_EVERY``-th query is cold:
a fresh unseeded S5/S6 uniform/hotspot family, never revisited and never
part of a ladder; every second S5 uniform one asks for background
refinement at a light load, so simulations, store appends and index
rebuilds run beside reads.  Latency is timed from each query's due time, not its send time.
"""

from __future__ import annotations

import http.client
import itertools
import json
import math
import random
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

from common import (
    BUILD,
    CACHE_DIR,
    ROOT,
    Tracer,
    derive_seed,
    process_peak_rss_mb,
    program_env,
)

#: The (order, spatial pattern) classes of the mix.  Every rate below is
#: a fraction of the class's model saturation rate at M=32, V=6 (worked
#: out once per run, untimed: ``setup_probe.py saturation``), scaled by
#: 32/M.
CLASSES = (
    (5, "uniform"),
    (5, "hotspot(fraction=0.1)"),
    (6, "uniform"),
    (6, "hotspot(fraction=0.1)"),
)

# The traffic mix.  The workload's definition fixes only its shape: Zipf
# over seeded families, mostly warm or surrogate answers, a fixed cold
# share.  The numbers are synthetic choices, each sized for what its
# comment names; the knee is the one measured figure.
#
# Seeded families: 8 S5 ladders (M, V and uniform/hotspot drawn from the
# seed), 6 rates each.  48 store rows keep store seeding within a second
# of ``setup_s`` and give the Zipf law 8 ranks to skew over.
#: Ladder rates, as fractions of saturation: all well below it, so every
#: seeded row is unsaturated (checked).
LADDER = (0.10, 0.20, 0.30, 0.40, 0.50, 0.60)
#: Zipf exponent over the families: the top family takes about 40% of
#: the warm and surrogate queries.
ZIPF_S = 1.1
#: One query in 16 is cold.  Sized for the tail: cold answers (model
#: solves of 10-40 ms) are then 6.25% of queries, so the p99 falls near
#: the 84th percentile of the cold tier, not on its slowest answer, and
#: a run at ``--seconds 20`` holds about 75 cold queries.
COLD_EVERY = 16
#: Cold queries ask for a rate well below saturation, so every cold
#: answer is a converged solve.
COLD_FRACTION = 0.35
#: Every second S5 uniform cold query (1 cold query in 8, about 10 a run
#: at ``--seconds 20``) asks for refinement at this light load.  One such
#: smoke sim takes 0.1-0.2 s on the array engine, so refinement holds
#: under a tenth of one core and its queue empties within the run.
REFINE_FRACTION = 0.1
#: Measured on a quiet 2-core x86 host with this mix: the offered rate
#: (queries/s) at which the backlog starts to grow.
KNEE_QPS = 180.0
#: The peak rate is 0.45 of the knee: below half of it, so CPU taken by
#: neighbours on a shared host does not tip the run into a growing
#: backlog.  The nominal rate is half the peak.
PEAK_QPS = 0.45 * KNEE_QPS
NOMINAL_QPS = PEAK_QPS / 2
CLIENT_THREADS = 2
SETUP_REPEATS = 3
DRAIN_TIMEOUT_S = 120.0


@dataclass(frozen=True)
class Planned:
    due: float  # seconds after the replay starts
    phase: str  # "nominal" or "peak"
    tier: str  # planned resolution tier
    query: object  # repro.service.query.Query
    body: bytes


def plan(seed: int, seconds: float, saturation: dict):
    """Seeded families (scenario, ladder) and the query stream, from ``seed``.

    ``saturation`` maps each of ``CLASSES`` to its model saturation rate
    at M=32, V=6.
    """
    from repro.api.scenario import Scenario
    from repro.service.query import Query

    rng = random.Random(derive_seed(seed, "serve_zipf"))
    used = set()

    def scenario(order, m, v, spatial):
        used.add((order, m, v, spatial))
        return Scenario(
            order=order, message_length=m, total_vcs=v, workload=spatial,
            quality="smoke", engine="array",
            seed=derive_seed(seed, "serve_zipf", order, m, v, spatial),
        )

    families = []
    while len(families) < 8:
        m, v = rng.choice((16, 24, 32, 48, 64)), rng.choice((6, 8, 9, 10, 12))
        spatial = "hotspot(fraction=0.1)" if rng.random() < 0.25 else "uniform"
        if (5, m, v, spatial) in used:
            continue
        base = saturation[(5, spatial)] * 32 / m
        families.append((scenario(5, m, v, spatial), tuple(round(f * base, 7) for f in LADDER)))
    weights = [1.0 / (k + 1) ** ZIPF_S for k in range(len(families))]

    stream: list[Planned] = []
    cold = 0
    start = 0.0
    for phase, qps in (("nominal", NOMINAL_QPS), ("peak", PEAK_QPS)):
        duration = seconds / 2
        for i in range(int(qps * duration)):
            if len(stream) % COLD_EVERY == COLD_EVERY - 1:
                # The cold sub-stream is the same for every seed: the classes
                # take turns at one relative load and each cold query gets a
                # family of its own (M steps through 24..56 at V=7, then V
                # moves on).  The p99 sits in the cold tier, and a seed-drawn
                # mix of model costs would move it more than the host does.
                order, spatial = CLASSES[cold % len(CLASSES)]
                slot = cold // len(CLASSES)
                cold += 1
                m = 24 + slot % 33
                v = 7 + slot // 33
                while (order, m, v, spatial) in used:
                    v += 1
                refine = (order, spatial) == (5, "uniform") and slot % 2 == 0
                fraction = REFINE_FRACTION if refine else COLD_FRACTION
                rate = round(fraction * saturation[(order, spatial)] * 32 / m, 7)
                tier, query = "cold", Query(scenario(order, m, v, spatial), rate, refine=refine)
            else:
                # Warm and surrogate split evenly, so each tier answers
                # over 500 queries a run at ``--seconds 20``.
                family, ladder = rng.choices(families, weights)[0]
                if rng.random() < 0.5:
                    tier, rate = "warm", rng.choice(ladder)
                else:
                    k = rng.randrange(len(ladder) - 1)
                    lo, hi = ladder[k], ladder[k + 1]
                    tier, rate = "surrogate", round(lo + rng.uniform(0.1, 0.9) * (hi - lo), 8)
                query = Query(family, rate, refine=False)
            body = json.dumps(query.to_dict()).encode()
            stream.append(Planned(start + i / qps, phase, tier, query, body))
        start += duration
    # Untimed warm-up: one cold query per class on families of their own
    # (M=100 is outside every range above), so the server has loaded its
    # flow profiles, path statistics and simulation kernel before timing.
    warmup = [
        Planned(0.0, "warmup", "cold", query, json.dumps(query.to_dict()).encode())
        for query in (
            Query(scenario(order, 100, 6, spatial),
                  round(REFINE_FRACTION * saturation[(order, spatial)] * 32 / 100, 7),
                  refine=(order, spatial) == (5, "uniform"))
            for order, spatial in CLASSES
        )
    ]
    return families, warmup, stream


# -- the server ---------------------------------------------------------


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _get(port: int, path: str) -> tuple[int, bytes]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request("GET", path)
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


class Server:
    """``starnet serve`` on a freshly seeded store, as a child process."""

    def __init__(self, families, tag: str, tracer, checks):
        from repro.api.scenario import run_units
        from repro.campaign.runner import to_payload
        from repro.campaign.store import open_store

        self.store_dir = BUILD / f"serve-store-{tag}"
        shutil.rmtree(self.store_dir, ignore_errors=True)
        units = [fam.model_unit(rate) for fam, ladder in families for rate in ladder]
        with tracer.span("campaign.run_units"):
            campaign = run_units(units)
        if tracer.enabled:
            elapsed = campaign.unit_elapsed_s
            tracer.count("campaign.units", len(units))
            tracer.count("campaign.overhead_s", campaign.elapsed_s - sum(elapsed))
            tracer.count("core.evaluate_s", sum(elapsed))
            tracer.count("core.evaluate_calls", len(units))
            tracer.count("core.solver_iterations", sum(r.iterations for r in campaign.results))
        for unit, result in zip(units, campaign.results):
            checks.check(not result.saturated, f"seeded ladder point saturated: {unit.params}")
        store = open_store(self.store_dir)
        try:
            with tracer.span("campaign.store_append"):
                for unit, result, elapsed in zip(units, campaign.results, campaign.unit_elapsed_s):
                    store.append(unit.key(), unit.kind, unit.params, to_payload(result), elapsed)
        finally:
            store.close()
        self.port = _free_port()
        self.tag = tag
        self.log = open(BUILD / f"serve-{tag}.log", "wb")
        with tracer.span("service.start"):
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro.experiments.cli", "serve",
                 "--store", str(self.store_dir), "--port", str(self.port),
                 "--cache-dir", str(CACHE_DIR)],
                env=program_env(), cwd=ROOT, stdout=self.log, stderr=subprocess.STDOUT,
            )
            try:
                self._wait_ready()
            except BaseException:
                self.close()
                raise

    def _wait_ready(self, timeout: float = 60.0) -> None:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"starnet serve exited with code {self.proc.returncode}")
            try:
                if _get(self.port, "/health")[0] == 200:
                    return
            except OSError:
                pass
            time.sleep(0.01)
        raise RuntimeError("starnet serve did not become ready")

    def stats(self) -> dict:
        return json.loads(_get(self.port, "/stats")[1])

    def metric(self, name: str) -> float:
        """One unlabelled sample from ``GET /metrics``."""
        for line in _get(self.port, "/metrics")[1].decode().splitlines():
            if line.startswith(name + " "):
                return float(line.split()[1])
        return math.nan

    def drain(self, expected_refined: int) -> bool:
        """Wait until background refinement has landed every refined row."""
        deadline = time.monotonic() + DRAIN_TIMEOUT_S
        while time.monotonic() < deadline:
            stats = self.stats()
            if stats["pending_refinements"] == 0 and stats["refined"] >= expected_refined:
                return True
            time.sleep(0.1)
        return False

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()
        log = BUILD / f"serve-{self.tag}.log"
        if self.proc.returncode not in (0, -signal.SIGINT):
            sys.stderr.write(log.read_text(errors="replace")[-4000:])
        log.unlink(missing_ok=True)
        shutil.rmtree(self.store_dir, ignore_errors=True)


# -- the load generator -------------------------------------------------


def replay(port: int, stream: list[Planned]):
    """Send every planned query at its due time; returns per-query records.

    Each record is ``(lag_s, latency_s, transport_s, status, served, body)``:
    lag is send time minus due time, latency is answer time minus due
    time, transport is answer time minus send time.
    """
    records = [None] * len(stream)
    counter = itertools.count()
    t0 = time.perf_counter() + 0.05

    def sender():
        while (i := next(counter)) < len(stream):
            due = t0 + stream[i].due
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            sent = time.perf_counter()
            status = served = None
            body = b""
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
            try:
                conn.request("POST", "/query", body=stream[i].body,
                             headers={"Content-Type": "application/json"})
                resp = conn.getresponse()
                body = resp.read()
                status, served = resp.status, resp.getheader("X-Served")
            except (OSError, http.client.HTTPException) as exc:
                body = str(exc).encode()
            finally:
                conn.close()
            done = time.perf_counter()
            records[i] = (sent - due, done - due, done - sent, status, served, body)

    threads = [threading.Thread(target=sender) for _ in range(CLIENT_THREADS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = max(stream[i].due + rec[1] for i, rec in enumerate(records))
    return records, wall


# -- one session: seed, serve, replay, drain, verify ---------------------


def reference_saturation() -> dict:
    """Each class's model saturation rate at M=32, V=6 (untimed).

    Worked out by a fresh process that reads the path statistics and
    flow profiles from the disk cache ``setup_probe.py prepare`` fills.
    """
    out = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "setup_probe.py"), "saturation"],
        env=program_env(), check=True, timeout=300, capture_output=True, text=True,
    )
    return dict(zip(CLASSES, json.loads(out.stdout.splitlines()[-1]), strict=True))


def setup_time(seed, seconds, saturation, tag, checks) -> float:
    """Seconds to seed a fresh store and bring ``starnet serve`` up on it."""
    families, _, _ = plan(seed, seconds, saturation)
    t0 = time.perf_counter()
    server = Server(families, tag, Tracer(False), checks)
    elapsed = time.perf_counter() - t0
    server.close()
    return elapsed


def session(seed, seconds, saturation, tag, tracer, checks):
    """Seed a store, serve it, replay the stream, then verify every answer."""
    from repro.campaign.store import open_store

    families, warmup, stream = plan(seed, seconds, saturation)
    refines = sum(1 for p in warmup + stream if p.query.refine)
    out = {}
    with tracer.span("pass"):
        t_setup = time.perf_counter()
        with tracer.span("setup"):
            server = Server(families, tag, tracer, checks)
        out["setup_s"] = time.perf_counter() - t_setup
        try:
            with tracer.span("service.warmup"):
                warm_records, _ = replay(server.port, warmup)
                server.drain(sum(1 for p in warmup if p.query.refine))
            with tracer.span("service.replay"):
                records, out["wall_s"] = replay(server.port, stream)
            stats = server.stats()
            out["refine_queue_end"] = stats["pending_refinements"]
            with tracer.span("service.drain"):
                checks.check(server.drain(refines), "refinement did not drain")
            out["stats"] = server.stats()
            out["refinements"] = server.metric("starnet_refinements_total")
            out["peak_rss_mb"] = process_peak_rss_mb(server.proc.pid)
        finally:
            with tracer.span("campaign.store_load"):
                records_on_disk = open_store(server.store_dir).load()
            server.close()
    out.update(_verify(warmup + stream, warm_records + records, records_on_disk, checks))
    for phase in ("nominal", "peak"):
        lat = [r[1] * 1e3 for p, r in zip(stream, records) if p.phase == phase]
        out[f"{phase}_ms"] = lat
    out["lag_ms"] = [r[0] * 1e3 for r in records]
    return out


def _verify(stream, records, stored, checks):
    """Planned tiers, warm rows against the store, cold rows against the model."""
    from repro.api.convert import row_from_unit
    from repro.api.results import ResultSet
    from repro.campaign.grid import WorkUnit
    from repro.validation.compare import OperatingPoint, compare_curves

    def comparable(row):
        data = row.to_dict()
        data["meta"] = {k: v for k, v in data["meta"].items() if k not in ("served", "service_ms")}
        return json.dumps(data, sort_keys=True)

    transport_ms, refined = [], []
    for planned, (lag, latency, transport, status, served, body) in zip(stream, records):
        what = f"{planned.tier} query {planned.query.to_dict()}"
        if not checks.check(status == 200 and served == planned.tier,
                            f"{what}: status {status}, served {served}"):
            continue
        row = ResultSet.from_jsonl(body.decode())[0]
        transport_ms.append(transport * 1e3 - row.meta["service_ms"])
        scenario, rate = planned.query.scenario, planned.query.rate
        if planned.tier == "warm":
            unit = scenario.model_unit(rate)
            record = stored.get(unit.key())
            checks.check(
                record is not None
                and comparable(row) == comparable(
                    row_from_unit(WorkUnit(kind=record["kind"], params=record["params"]),
                                  record["result"])),
                f"{what}: warm row differs from the stored row",
            )
        elif planned.tier == "cold":
            direct = scenario.model(rate, cache_dir=CACHE_DIR)[0]
            checks.check(comparable(row) == comparable(direct),
                         f"{what}: cold row differs from Scenario.model")
            if planned.query.refine:
                record = stored.get(scenario.sim_unit(rate).key())
                if checks.check(record is not None, f"{what}: refined row missing"):
                    sim = record["result"]
                    refined.append(OperatingPoint(rate, row.latency, sim["mean_latency"],
                                                  row.saturated, sim["saturated"]))
    comparison = compare_curves(refined)
    return {
        "model_sim_mre": comparison.mean_relative_error,
        "refined_points": comparison.stable_points,
        "transport_ms": transport_ms,
    }
