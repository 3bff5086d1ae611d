"""The star graph S_n — the paper's interconnection network.

S_n has n! nodes, one per permutation of 1..n; node ``v`` connects through
dimension i (2 <= i <= n) to the permutation obtained by interchanging the
first and i-th symbols.  Degree n-1, diameter ``floor(3(n-1)/2)``,
bipartite by permutation parity — the properties sections 2-3 of the paper
rely on.

Port convention: port ``p`` (0-based) is dimension ``p + 2``.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from repro.topology import permutations as pm
from repro.topology.base import Topology
from repro.utils.exceptions import TopologyError
from repro.utils.mathx import harmonic

__all__ = ["StarGraph", "star_average_distance_closed_form"]


def star_average_distance_closed_form(n: int) -> float:
    """Paper equation (2): mean hops of a uniformly destined message in S_n.

    Averaging the Akers-Krishnamurthy distance ``m + c - 2*[v1 != 1]`` over
    a uniformly random permutation gives

        E[d] = n + H_n - 4 + 2/n                      (over all n! nodes)

    (E[m] = n - 1 displaced symbols, E[c] = H_n - 1 non-trivial cycles,
    P[v1 != 1] = (n-1)/n).  The paper's d̄ averages over the n! - 1
    possible *destinations*, hence the n!/(n!-1) correction.
    """
    if n < 2:
        raise TopologyError(f"star average distance needs n >= 2, got {n}")
    nf = math.factorial(n)
    mean_over_all = n + harmonic(n) - 4.0 + 2.0 / n
    return mean_over_all * nf / (nf - 1)


class StarGraph(Topology):
    """The n-star interconnection network S_n.

    Parameters
    ----------
    n:
        Number of symbols; the network has ``n!`` nodes.  ``n >= 2``.

    Notes
    -----
    Nodes are indexed by the lexicographic rank of their permutation
    (:func:`repro.topology.permutations.permutation_rank`); index 0 is the
    identity, the canonical source node of the analytical model.
    """

    def __init__(self, n: int):
        if n < 2:
            raise TopologyError(f"StarGraph requires n >= 2, got {n}")
        if n > 9:
            raise TopologyError(
                f"StarGraph materialises permutations; n={n} (n! = "
                f"{math.factorial(n)}) is beyond the supported range (<= 9). "
                "Use the analytical cycle-type machinery for larger n."
            )
        self._n = n
        self._num_nodes = math.factorial(n)
        self._perms: list[pm.Perm] = [
            pm.permutation_unrank(r, n) for r in range(self._num_nodes)
        ]
        self._ranks: dict[pm.Perm, int] = {p: r for r, p in enumerate(self._perms)}
        self._colors = bytes(pm.parity(p) for p in self._perms)
        super().__init__()

    # ------------------------------------------------------------------
    # Topology interface
    # ------------------------------------------------------------------

    @property
    def n(self) -> int:
        """The symbol count n of S_n."""
        return self._n

    @property
    def num_nodes(self) -> int:
        return self._num_nodes

    @property
    def degree(self) -> int:
        return self._n - 1

    @property
    def name(self) -> str:
        return f"S{self._n}"

    def permutation_of(self, node: int) -> pm.Perm:
        """The permutation labelling ``node``."""
        self._check_node(node)
        return self._perms[node]

    def node_of(self, perm: pm.Perm | tuple[int, ...]) -> int:
        """The node index of a permutation label."""
        try:
            return self._ranks[tuple(perm)]
        except KeyError:
            raise TopologyError(f"{perm!r} is not a node of {self.name}") from None

    def neighbor(self, node: int, port: int) -> int:
        self._check_node(node)
        if not (0 <= port < self.degree):
            raise TopologyError(f"port {port} out of range for {self.name}")
        return self._ranks[pm.star_neighbor(self._perms[node], port + 2)]

    def distance(self, a: int, b: int) -> int:
        self._check_node(a)
        self._check_node(b)
        rel = pm.relative_permutation(self._perms[a], self._perms[b])
        return pm.star_distance(rel)

    def color(self, node: int) -> int:
        self._check_node(node)
        return self._colors[node]

    def diameter(self) -> int:
        """``floor(3(n-1)/2)`` (Akers-Krishnamurthy)."""
        return (3 * (self._n - 1)) // 2

    def average_distance(self) -> float:
        """Closed-form mean distance over destinations (paper Eq. 2)."""
        return star_average_distance_closed_form(self._n)

    def exact_average_distance(self) -> float:
        """Mean distance by full enumeration (cross-check of Eq. 2)."""
        total = sum(
            pm.star_distance(p) for p in self._perms
        )
        return total / (self._num_nodes - 1)

    def _profitable_ports_uncached(self, cur: int, dst: int) -> tuple[int, ...]:
        rel = pm.relative_permutation(self._perms[cur], self._perms[dst])
        return profitable_ports_of_relative(rel)

    def _pair_classes(self) -> tuple[np.ndarray, np.ndarray]:
        """S_n is a Cayley graph: a pair's routing depends only on the
        residual permutation ``relative_permutation(cur, dst)``, so the
        class is its rank.  The residual of (k, identity) is node k's own
        permutation, which makes (k, 0) the representative of class k.

        Vectorised: residual symbols are gathered from the inverse
        permutations, encoded as base-(n+1) integers (lexicographic
        order == numeric order) and ranked by binary search over the
        sorted node labels.
        """
        n, N = self._n, self._num_nodes
        perms = np.array(self._perms, dtype=np.int64)
        inv = np.empty_like(perms)
        inv[np.arange(N)[:, None], perms - 1] = np.arange(1, n + 1)
        weights = (n + 1) ** np.arange(n - 1, -1, -1, dtype=np.int64)
        keys = perms @ weights  # ascending: perms are in rank order
        classes = np.empty((N, N), dtype=np.int32)
        block = max(1, (1 << 22) // (N * n))
        for a0 in range(0, N, block):
            # rel(cur, dst)[i] = inv[dst][perm[cur][i] - 1]
            rel = inv[:, perms[a0 : a0 + block] - 1]  # (dst, cur, i)
            classes[a0 : a0 + block] = np.searchsorted(keys, rel @ weights).T
        nodes = np.arange(N, dtype=np.int32)
        return classes, np.stack([nodes, np.zeros_like(nodes)], axis=1)

    # ------------------------------------------------------------------
    # Star-specific queries used by the routing layer and the model
    # ------------------------------------------------------------------

    def distance_to_identity(self, node: int) -> int:
        """Distance from ``node`` to node 0 (the identity permutation)."""
        self._check_node(node)
        return pm.star_distance(self._perms[node])

    def distance_histogram(self) -> dict[int, int]:
        """Number of nodes at each distance from the identity."""
        hist: dict[int, int] = {}
        for p in self._perms:
            d = pm.star_distance(p)
            hist[d] = hist.get(d, 0) + 1
        return dict(sorted(hist.items()))

    def max_negative_hops(self) -> int:
        """Most negative hops any minimal route can take: ``ceil(H/2)``.

        S_n is bipartite with colours alternating every hop, so a route of
        length h contains ``ceil(h/2)`` negative hops in the worst starting
        colour; the maximum over routes is ``ceil(diameter/2)`` (paper
        section 3).
        """
        return (self.diameter() + 1) // 2

    def min_escape_classes(self) -> int:
        """Class-b virtual channels required for negative-hop routing.

        A message uses class ``l`` (negative hops completed) on each hop, so
        levels 0 .. max_negative_hops are needed in the worst case where a
        positive hop follows the final negative hop; in S_n routes end
        after at most ``ceil(H/2)`` negative hops and the class used never
        exceeds the number of negative hops *before* the final hop, giving
        ``floor(H/2) + 1`` classes.
        """
        return self.diameter() // 2 + 1


def profitable_ports_of_relative(rel: pm.Perm) -> tuple[int, ...]:
    """Ports that reduce the star distance of the residual permutation.

    From the Akers-Krishnamurthy distance ``m + c - 2*[rel_1 != 1]``:

    * first symbol displaced (``rel[0] = x != 1``): profitable moves are
      sending x home (dimension x) and swapping with any position in a
      *different* non-trivial cycle (merging cycles);
    * first symbol home: profitable moves are the positions of every
      displaced symbol (entering a cycle).

    Returns 0-based ports (port = dimension - 2), sorted ascending.
    """
    return _profitable_ports_cached(rel)


@lru_cache(maxsize=200_000)
def _profitable_ports_cached(rel: pm.Perm) -> tuple[int, ...]:
    first = rel[0]
    if first == 1:
        # Position 1 home: enter any non-trivial cycle.
        ports = [
            pos - 2
            for pos in range(2, len(rel) + 1)
            if rel[pos - 1] != pos
        ]
        return tuple(ports)
    ports = set()
    # Send the first symbol to its home position (dimension == symbol).
    ports.add(first - 2)
    # Merge with any other non-trivial cycle: profitable for every position
    # of that cycle.  Positions in the cycle containing position 1 are not
    # profitable (splitting the own cycle increases the distance).
    own_cycle = _positions_of_own_cycle(rel)
    for pos in range(2, len(rel) + 1):
        if rel[pos - 1] != pos and pos not in own_cycle:
            ports.add(pos - 2)
    return tuple(sorted(ports))


def _positions_of_own_cycle(rel: pm.Perm) -> frozenset[int]:
    """Positions (1-based) of the cycle of ``rel`` containing position 1."""
    positions = [1]
    j = rel[0]
    while j != 1:
        positions.append(j)
        j = rel[j - 1]
    return frozenset(positions)
