"""Symmetry-reduced route tables: every routing decision, precomputed.

A header's candidate VCs are ``algorithm.ports`` × ``algorithm.eligible``
of its state (node, destination, escape floor, hops taken).  The ports
and remaining distance depend only on the pair's symmetry class
(:meth:`Topology.pair_classes`), eligibility on (distance, colour of the
node, floor, hops), so one table per (topology, algorithm, V) covers
every reachable state:

    state id = ((class * 2 + colour) * floors + floor) * hops + hops_taken

``combo[state id]`` names a deduplicated candidate list (class-a first,
each VC as an offset ``port * V + index`` from the node's first VC), or
is -1 where ``eligible`` rejects the state; a header reaching such a
state re-raises the algorithm's own error (:meth:`RouteTable.lookup`).
Built with one ``ports`` call per class and one ``eligible`` call per
(distance, colour, floor, hops); memoized per process, keyed weakly by
the topology instance.
"""

from __future__ import annotations

import itertools
import threading
import weakref
from dataclasses import dataclass

import numpy as np

from repro.routing.base import MessageRouteState, RoutingAlgorithm
from repro.routing.vc_classes import VcConfig
from repro.topology.base import Topology
from repro.utils.exceptions import ConfigurationError, SimulationError

__all__ = ["RouteTable", "route_table"]

#: Largest network the dense N x N pair-class map is built for (S7);
#: beyond it the map alone would take hundreds of megabytes.
MAX_TABLE_NODES = 5040

_TABLES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
_LOCK = threading.Lock()


@dataclass(frozen=True)
class RouteTable:
    """Dense candidate-VC table of one (topology, algorithm, V).

    Holds no reference to the topology (tables are memoized weakly by
    it); the methods that need it take it as an argument.
    """

    algorithm: RoutingAlgorithm
    vc_config: VcConfig
    #: Flattened N x N pair-class map (int32, ``cur * N + dst``).
    pair_class: np.ndarray
    #: Distance per pair class (int32).
    class_dist: np.ndarray
    #: Table extents: escape floors 0..floors-1, hops 0..hops-1.
    floors: int
    hops: int
    #: Candidate-list id per state id (int32, -1: rejected state).
    combo: np.ndarray
    #: Per candidate list: start in ``cand``, class-a and class-b counts.
    off: np.ndarray
    alen: np.ndarray
    elen: np.ndarray
    cand: np.ndarray
    #: Per candidate list: (adaptive, escape) offset tuples, for the
    #: Python allocation path.
    pools: tuple

    def lookup(self, topology: Topology, cur: int, dst: int, floor: int, hops: int) -> int:
        """Candidate-list id of a routing state.

        A state the algorithm rejects replays its ``eligible`` query, so
        the algorithm's own exception surfaces, as if resolved per pair.
        """
        if 0 <= floor < self.floors and 0 <= hops < self.hops:
            cls = int(self.pair_class[cur * topology.num_nodes + dst])
            colour = topology.color(cur)
            u = int(self.combo[((cls * 2 + colour) * self.floors + floor) * self.hops + hops])
            if u >= 0:
                return u
        state = MessageRouteState(escape_floor=floor, hops_taken=hops)
        d = topology.distance(cur, dst)
        self.algorithm.eligible(self.vc_config, d, topology.color(cur) == 1, state)
        raise SimulationError(
            f"routing state (node {cur}, destination {dst}, floor {floor}, "
            f"hops {hops}) lies outside the route table"
        )


def route_table(
    topology: Topology, algorithm: RoutingAlgorithm, total_vcs: int
) -> RouteTable:
    """The memoized route table of (topology, algorithm, V)."""
    # Instance attributes are part of the key: they may parametrise the
    # algorithm's ports/eligible answers.
    key = (type(algorithm), repr(sorted(vars(algorithm).items())), total_vcs)
    with _LOCK:
        tables = _TABLES.setdefault(topology, {})
        table = tables.get(key)
        if table is None:
            table = tables[key] = _build(topology, algorithm, total_vcs)
    return table


def _build(topology: Topology, algorithm: RoutingAlgorithm, V: int) -> RouteTable:
    N = topology.num_nodes
    if N > MAX_TABLE_NODES:
        raise ConfigurationError(
            f"the array engine's route tables cover up to {MAX_TABLE_NODES} "
            f"nodes; {topology.name} has {N} (use engine='object')"
        )
    cfg = algorithm.make_vc_config(V, topology)
    classes, reps = topology.pair_classes()
    # Floors reachable by the stock floor update: the used escape class
    # (at most num_escape - 1) plus one.  Headers still routing have at
    # least one hop left, so at most diameter - 1 hops are taken.
    floors = cfg.num_escape + 1
    hops = max(1, topology.diameter())

    port_ids: dict[tuple, int] = {}
    class_port = np.empty(len(reps), dtype=np.int64)
    class_dist = np.empty(len(reps), dtype=np.int32)
    for k, (cur, dst) in enumerate(reps.tolist()):
        ports = tuple(algorithm.ports(topology, cur, dst))
        class_port[k] = port_ids.setdefault(ports, len(port_ids))
        class_dist[k] = topology.distance(cur, dst)

    es_ids: dict[tuple, int] = {}
    es_of = np.full((int(class_dist.max()) + 1, 2, floors, hops), -1, dtype=np.int64)
    states = itertools.product(np.unique(class_dist).tolist(), (0, 1), range(floors), range(hops))
    for d, colour, f, h in states:
        state = MessageRouteState(escape_floor=f, hops_taken=h)
        try:
            es = algorithm.eligible(cfg, d, colour == 1, state)
        except Exception:  # noqa: BLE001 — rejected; replayed if a header gets here
            continue
        sets = (tuple(es.adaptive), tuple(es.escape))
        es_of[d, colour, f, h] = es_ids.setdefault(sets, len(es_ids))

    # Deduplicate (ports, eligible set) pairs into shared candidate lists.
    n_es = max(1, len(es_ids))
    es_state = es_of[class_dist]  # (classes, 2, floors, hops)
    valid = es_state >= 0
    pair_key = class_port[:, None, None, None] * n_es + es_state
    uniq, inverse = np.unique(pair_key[valid], return_inverse=True)
    combo = np.full(es_state.shape, -1, dtype=np.int32)
    combo[valid] = inverse
    port_list, es_list = list(port_ids), list(es_ids)
    pools = []
    for pk in uniq.tolist():
        ports = port_list[pk // n_es]
        pools.append(
            tuple(tuple(p * V + i for p in ports for i in idx) for idx in es_list[pk % n_es])
        )
    alen = np.array([len(a) for a, _ in pools], dtype=np.int32)
    elen = np.array([len(e) for _, e in pools], dtype=np.int32)
    arrays = dict(
        pair_class=np.ascontiguousarray(classes, dtype=np.int32).ravel(),
        class_dist=class_dist,
        combo=combo.ravel(),
        off=(np.cumsum(alen + elen) - alen - elen).astype(np.int32),
        alen=alen,
        elen=elen,
        cand=np.array([v for a, e in pools for v in a + e] or [0], dtype=np.int32),
    )
    for arr in arrays.values():
        arr.flags.writeable = False  # shared by every simulator
    return RouteTable(
        algorithm=algorithm,
        vc_config=cfg,
        floors=floors,
        hops=hops,
        pools=tuple(pools),
        **arrays,
    )
