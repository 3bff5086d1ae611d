"""Route tables: equivalence with per-pair resolution, rejection, residency.

The array engine resolves every header's candidate VCs from a table
built once per (topology, algorithm, V) over the topology's pair
symmetry classes.  These tests pin that table to the definition it
replaces — ``ports(topology, cur, dst)`` × ``eligible(...)`` resolved
for the individual pair, in the same order — for every registered
algorithm, check that a state the algorithm rejects still raises the
algorithm's own error on every kernel path, and guard that the
resident C loop stays resident at the paper's size (S5).
"""

from __future__ import annotations

import pytest

from repro.api.quality import sim_quality_config
from repro.core.spec import ModelSpec
from repro.routing import EnhancedNbc, available_algorithms, make_algorithm
from repro.routing.base import MessageRouteState
from repro.simulation import ArraySimulator, SimulationConfig
from repro.simulation.ckernel import load_bundle
from repro.simulation.routes import route_table
from repro.topology import Hypercube, StarGraph
from repro.topology import permutations as pm
from repro.utils.exceptions import ConfigurationError

TOPOLOGIES = {"S3": StarGraph(3), "S4": StarGraph(4), "Q3": Hypercube(3)}


def _vcs(topology) -> int:
    """A VC count every registered algorithm accepts (two spare classes)."""
    return topology.min_escape_classes() + 2


class TestPairClasses:
    def test_star_class_is_rank_of_relative_permutation(self):
        g = TOPOLOGIES["S4"]
        classes, reps = g.pair_classes()
        for cur in range(g.num_nodes):
            for dst in range(g.num_nodes):
                rel = pm.relative_permutation(
                    g.permutation_of(cur), g.permutation_of(dst)
                )
                assert classes[cur, dst] == pm.permutation_rank(rel)
        for k, (cur, dst) in enumerate(reps.tolist()):
            assert classes[cur, dst] == k

    def test_hypercube_class_is_xor(self):
        g = TOPOLOGIES["Q3"]
        classes, reps = g.pair_classes()
        for cur in range(g.num_nodes):
            for dst in range(g.num_nodes):
                assert classes[cur, dst] == cur ^ dst
        assert [classes[c, d] for c, d in reps.tolist()] == list(range(g.num_nodes))

    def test_default_claims_no_symmetry(self):
        g = TOPOLOGIES["S3"]
        classes, reps = super(StarGraph, g)._pair_classes()
        assert sorted(classes.ravel().tolist()) == list(range(g.num_nodes**2))
        for k, (cur, dst) in enumerate(reps.tolist()):
            assert classes[cur, dst] == k


@pytest.mark.parametrize("topo_name", sorted(TOPOLOGIES))
@pytest.mark.parametrize("alg_name", available_algorithms())
def test_table_matches_per_pair_resolution(topo_name, alg_name):
    """Every (cur, dst, floor, hops): same candidate VCs, same order."""
    topology = TOPOLOGIES[topo_name]
    algorithm = make_algorithm(alg_name)
    V = _vcs(topology)
    cfg = algorithm.make_vc_config(V, topology)
    table = route_table(topology, algorithm, V)
    deg = topology.degree
    accepted = rejected = 0
    for cur in range(topology.num_nodes):
        base = cur * deg * V
        for dst in range(topology.num_nodes):
            if cur == dst:
                continue
            d = topology.distance(cur, dst)
            assert table.class_dist[table.pair_class[cur * topology.num_nodes + dst]] == d
            ports = algorithm.ports(topology, cur, dst)
            for floor in range(table.floors):
                for hops in range(table.hops):
                    state = MessageRouteState(escape_floor=floor, hops_taken=hops)
                    try:
                        es = algorithm.eligible(cfg, d, topology.color(cur) == 1, state)
                    except ConfigurationError as exc:
                        rejected += 1
                        with pytest.raises(ConfigurationError) as got:
                            table.lookup(topology, cur, dst, floor, hops)
                        assert str(got.value) == str(exc)
                        continue
                    accepted += 1
                    u = table.lookup(topology, cur, dst, floor, hops)
                    adaptive = [(cur * deg + p) * V + i for p in ports for i in es.adaptive]
                    escape = [(cur * deg + p) * V + i for p in ports for i in es.escape]
                    a, e = table.pools[u]
                    assert [base + o for o in a] == adaptive
                    assert [base + o for o in e] == escape
                    # The flat arrays the C kernel reads hold the same lists.
                    off, na, ne = int(table.off[u]), int(table.alen[u]), int(table.elen[u])
                    assert (table.cand[off : off + na] + base).tolist() == adaptive
                    assert (table.cand[off + na : off + na + ne] + base).tolist() == escape
    assert accepted > 0 and rejected > 0


class TestMemoization:
    def test_one_table_per_topology_algorithm_and_v(self, star4):
        a = route_table(star4, EnhancedNbc(), 6)
        assert route_table(star4, EnhancedNbc(), 6) is a
        assert route_table(star4, EnhancedNbc(), 7) is not a
        assert route_table(star4, make_algorithm("nbc"), 6) is not a

    def test_tables_are_read_only(self, star4):
        table = route_table(star4, EnhancedNbc(), 6)
        with pytest.raises(ValueError):
            table.combo[0] = 0


class _RejectsSecondHop(EnhancedNbc):
    """Enhanced-Nbc that rejects any header with one hop behind it."""

    name = "rejects_second_hop"

    def eligible(self, cfg, d_remaining, hop_negative, state):
        if state.hops_taken == 1:
            raise ConfigurationError("second hop rejected by the test algorithm")
        return super().eligible(cfg, d_remaining, hop_negative, state)


class TestRejectedStates:
    CFG = SimulationConfig(
        message_length=8,
        generation_rate=0.02,
        total_vcs=6,
        warmup_cycles=50,
        measure_cycles=200,
        drain_cycles=400,
        seed=3,
    )

    def _run(self, star4, mode, monkeypatch):
        if mode != "numpy" and load_bundle() is None:
            pytest.skip("compiled kernel unavailable")
        if mode == "per-cycle":
            monkeypatch.setenv("STARNET_NO_RESIDENT", "1")
        sim = ArraySimulator(star4, _RejectsSecondHop(), self.CFG)
        if mode == "numpy":
            sim._ck_bundle = None
            sim._ck = None
        sim.run()

    @pytest.mark.parametrize("mode", ["resident", "per-cycle", "numpy"])
    def test_reaching_a_rejected_state_raises_the_algorithm_error(
        self, star4, mode, monkeypatch
    ):
        with pytest.raises(ConfigurationError, match="second hop rejected"):
            self._run(star4, mode, monkeypatch)


def test_s5_resident_loop_stays_resident(star5):
    """S5 at 0.6 x saturation: at most 2% of cycles re-enter Python.

    Routing never needs Python (the table answers every state), so the
    only punts left are uniform-buffer and ejection-row refills; a route
    resolved lazily again would push most cycles through ``step()``.
    """
    if load_bundle() is None:
        pytest.skip("compiled kernel unavailable")
    sat = ModelSpec(order=5, message_length=32, total_vcs=6).build().saturation_rate()
    cfg = sim_quality_config(
        "smoke", message_length=32, generation_rate=round(0.6 * sat, 6), total_vcs=6
    )
    sim = ArraySimulator(star5, EnhancedNbc(), cfg)
    result = sim.run()[0]
    prof = sim.phase_profile()
    assert prof["cycles"] == result.cycles_run
    assert prof["returns_stop"] >= 1
    assert prof["py_cycles"] == prof["returns_punt"]
    assert prof["py_cycles"] <= 0.02 * prof["cycles"]
