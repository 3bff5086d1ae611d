"""Abstract topology interface shared by the simulator and the model.

A :class:`Topology` is a regular, undirected, connected graph presented as
directed channels: node ``u`` reaches ``neighbor(u, p)`` through *port*
``p`` (0 .. degree-1).  Minimal adaptive routing is exposed through
:meth:`profitable_ports`, the set of ports that strictly decrease the
distance to the destination — the quantity the paper calls the "number of
output channels" f(i, j, k).

Topologies used with hop-based (negative-hop) routing must also expose a
proper 2-colouring via :meth:`color`; both the star graph (parity of the
permutation) and the hypercube (parity of the weight) are bipartite.
"""

from __future__ import annotations

import abc
from functools import lru_cache

import numpy as np

from repro.utils.exceptions import TopologyError

__all__ = ["Topology"]


class Topology(abc.ABC):
    """A regular bipartite network topology with minimal adaptive routing."""

    #: Largest node count for which dense (cur, dst) routing tables are
    #: precomputed at construction; larger networks route on the fly.
    _DENSE_TABLE_LIMIT = 2500

    @property
    @abc.abstractmethod
    def num_nodes(self) -> int:
        """Number of nodes N."""

    @property
    @abc.abstractmethod
    def degree(self) -> int:
        """Number of ports (physical output channels) per node."""

    @property
    @abc.abstractmethod
    def name(self) -> str:
        """Human-readable identifier, e.g. ``S5`` or ``Q7``."""

    @abc.abstractmethod
    def neighbor(self, node: int, port: int) -> int:
        """The node reached from ``node`` through ``port``."""

    @abc.abstractmethod
    def distance(self, a: int, b: int) -> int:
        """Length of a shortest path from ``a`` to ``b``."""

    @abc.abstractmethod
    def color(self, node: int) -> int:
        """Bipartition colour (0 or 1) of ``node``."""

    @abc.abstractmethod
    def diameter(self) -> int:
        """The network diameter."""

    @abc.abstractmethod
    def average_distance(self) -> float:
        """Mean distance over ordered pairs of distinct nodes (paper's d̄)."""

    @abc.abstractmethod
    def _profitable_ports_uncached(self, cur: int, dst: int) -> tuple[int, ...]:
        """Ports at ``cur`` that strictly reduce the distance to ``dst``."""

    # ------------------------------------------------------------------
    # Concrete machinery built on the primitives above.
    # ------------------------------------------------------------------

    def __init__(self) -> None:
        self._neighbor_table: np.ndarray | None = None
        self._pair_class_cache: tuple[np.ndarray, np.ndarray] | None = None
        self._routing_table: dict[tuple[int, int], tuple[int, ...]] | None = None
        if self.num_nodes <= self._DENSE_TABLE_LIMIT:
            self._routing_table = {}
        # Per-instance memoised fallback for large networks.
        self._route_cache = lru_cache(maxsize=200_000)(self._profitable_ports_uncached)

    @property
    def neighbor_table(self) -> np.ndarray:
        """Dense ``[N, degree]`` int32 table of :meth:`neighbor` results."""
        if self._neighbor_table is None:
            table = np.empty((self.num_nodes, self.degree), dtype=np.int32)
            for u in range(self.num_nodes):
                for p in range(self.degree):
                    table[u, p] = self.neighbor(u, p)
            self._neighbor_table = table
        return self._neighbor_table

    def pair_classes(self) -> tuple[np.ndarray, np.ndarray]:
        """Symmetry classes of ordered node pairs, for per-class route tables.

        Returns ``(classes, reps)``: ``classes[cur, dst]`` (int32, N x N)
        is the class of the pair and ``reps[k]`` one ``(cur, dst)`` pair
        of class k.  Pairs share a class only when :meth:`distance` and
        :meth:`profitable_ports` (port numbers at ``cur``) answer
        identically for them.  The base class
        claims no symmetry — every pair is its own class; vertex-
        transitive topologies override :meth:`_pair_classes` with the
        coarser map their automorphisms give.  Cached per instance.
        """
        if self._pair_class_cache is None:
            self._pair_class_cache = self._pair_classes()
        return self._pair_class_cache

    def _pair_classes(self) -> tuple[np.ndarray, np.ndarray]:
        n = self.num_nodes
        pairs = np.arange(n * n, dtype=np.int32)
        reps = np.stack(np.divmod(pairs, n), axis=1).astype(np.int32)
        return pairs.reshape(n, n), reps

    def profitable_ports(self, cur: int, dst: int) -> tuple[int, ...]:
        """Minimal-routing port choices from ``cur`` towards ``dst``.

        Empty exactly when ``cur == dst``.  The result is cached — densely
        for small networks, through an LRU for large ones.
        """
        self._check_node(cur)
        self._check_node(dst)
        if cur == dst:
            return ()
        if self._routing_table is not None:
            hit = self._routing_table.get((cur, dst))
            if hit is None:
                hit = self._profitable_ports_uncached(cur, dst)
                self._routing_table[(cur, dst)] = hit
            return hit
        return self._route_cache(cur, dst)

    def validate_minimal_routing(self) -> None:
        """Cross-check profitable ports against distances (test helper).

        Verifies, for every pair, that each advertised port decreases the
        distance by exactly one and that no unadvertised port does.  Cost is
        O(N^2 * degree) — intended for small test topologies only.
        """
        for src in range(self.num_nodes):
            for dst in range(self.num_nodes):
                if src == dst:
                    continue
                d = self.distance(src, dst)
                good = set(self.profitable_ports(src, dst))
                for p in range(self.degree):
                    nd = self.distance(self.neighbor(src, p), dst)
                    if p in good and nd != d - 1:
                        raise TopologyError(
                            f"{self.name}: port {p} of {src}->{dst} advertised "
                            f"profitable but distance {d}->{nd}"
                        )
                    if p not in good and nd < d:
                        raise TopologyError(
                            f"{self.name}: port {p} of {src}->{dst} reduces "
                            "distance but was not advertised"
                        )

    def to_networkx(self):
        """Export as an undirected :mod:`networkx` graph (for analysis)."""
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(range(self.num_nodes))
        for u in range(self.num_nodes):
            for p in range(self.degree):
                g.add_edge(u, self.neighbor(u, p))
        return g

    def channel_index(self, node: int, port: int) -> int:
        """Dense index of the directed channel leaving ``node`` by ``port``."""
        self._check_node(node)
        if not (0 <= port < self.degree):
            raise TopologyError(f"port {port} out of range for {self.name}")
        return node * self.degree + port

    @property
    def num_channels(self) -> int:
        """Total number of directed network channels (excludes injection)."""
        return self.num_nodes * self.degree

    def _check_node(self, node: int) -> None:
        if not (0 <= node < self.num_nodes):
            raise TopologyError(
                f"node {node} out of range for {self.name} "
                f"({self.num_nodes} nodes)"
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(nodes={self.num_nodes}, "
            f"degree={self.degree}, diameter={self.diameter()})"
        )
