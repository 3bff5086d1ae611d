"""Binary hypercube Q_k, the comparison topology of paper section 2.

The paper motivates the star graph as "an attractive alternative to the
hypercube": with Θ(n!) nodes a hypercube needs degree/diameter Θ(n log n)
while S_n needs only n-1 / floor(3(n-1)/2).  We implement Q_k both for the
properties table and so that the wormhole simulator can run the paper's
stated future-work comparison (star vs. equivalent hypercube) — Q_k is
bipartite (weight parity), so the same negative-hop machinery applies.
"""

from __future__ import annotations

import numpy as np

from repro.topology.base import Topology
from repro.utils.exceptions import TopologyError

__all__ = ["Hypercube", "equivalent_hypercube_dimension"]


def equivalent_hypercube_dimension(num_nodes: int) -> int:
    """Smallest k with 2**k >= num_nodes (the paper's "equivalent" cube)."""
    if num_nodes < 1:
        raise TopologyError("node count must be positive")
    k = 0
    while (1 << k) < num_nodes:
        k += 1
    return max(k, 1)


class Hypercube(Topology):
    """The k-dimensional binary hypercube Q_k (2**k nodes, degree k)."""

    def __init__(self, k: int):
        if k < 1:
            raise TopologyError(f"Hypercube requires k >= 1, got {k}")
        if k > 20:
            raise TopologyError(f"Hypercube k={k} too large to materialise")
        self._k = k
        self._num_nodes = 1 << k
        super().__init__()

    @property
    def k(self) -> int:
        """Dimension count."""
        return self._k

    @property
    def num_nodes(self) -> int:
        return self._num_nodes

    @property
    def degree(self) -> int:
        return self._k

    @property
    def name(self) -> str:
        return f"Q{self._k}"

    def neighbor(self, node: int, port: int) -> int:
        self._check_node(node)
        if not (0 <= port < self._k):
            raise TopologyError(f"port {port} out of range for {self.name}")
        return node ^ (1 << port)

    def distance(self, a: int, b: int) -> int:
        self._check_node(a)
        self._check_node(b)
        return (a ^ b).bit_count()

    def color(self, node: int) -> int:
        self._check_node(node)
        return node.bit_count() & 1

    def diameter(self) -> int:
        return self._k

    def average_distance(self) -> float:
        """k * 2**(k-1) / (2**k - 1): mean Hamming distance to others."""
        return self._k * (1 << (self._k - 1)) / (self._num_nodes - 1)

    def _profitable_ports_uncached(self, cur: int, dst: int) -> tuple[int, ...]:
        diff = cur ^ dst
        return tuple(p for p in range(self._k) if diff >> p & 1)

    def _pair_classes(self) -> tuple[np.ndarray, np.ndarray]:
        """Q_k is a Cayley graph of (Z_2)^k: a pair's routing depends
        only on ``cur ^ dst``, and class k is represented by (k, 0)."""
        nodes = np.arange(self._num_nodes, dtype=np.int32)
        reps = np.stack([nodes, np.zeros_like(nodes)], axis=1)
        return np.bitwise_xor.outer(nodes, nodes), reps

    def max_negative_hops(self) -> int:
        """``ceil(k/2)`` — colours alternate every hop, as in the star."""
        return (self._k + 1) // 2

    def min_escape_classes(self) -> int:
        """``floor(k/2) + 1`` class-b VCs for negative-hop routing on Q_k."""
        return self._k // 2 + 1
