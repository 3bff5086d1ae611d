"""Deterministic random-number streams for reproducible simulations.

Each logical actor in the simulator (traffic source per node, the VC
allocator, the link arbiters) draws from its own named stream so that
changing one component's consumption pattern does not perturb the others —
the standard "independent streams" discipline for discrete-event
simulation.
"""

from __future__ import annotations

import numpy as np

__all__ = ["spawn_generator", "RngStreams", "ExponentialTape"]


def spawn_generator(seed: int | None, *key: int | str) -> np.random.Generator:
    """Create a generator keyed by ``seed`` plus a structured key.

    String components are hashed stably (FNV-1a) so stream identity does not
    depend on Python's randomized ``hash``.
    """
    material: list[int] = [0 if seed is None else int(seed) & 0xFFFFFFFF]
    for part in key:
        if isinstance(part, str):
            acc = 0x811C9DC5
            for ch in part.encode():
                acc = ((acc ^ ch) * 0x01000193) & 0xFFFFFFFF
            material.append(acc)
        else:
            material.append(int(part) & 0xFFFFFFFF)
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(material)))


class RngStreams:
    """A family of independent, reproducible random streams.

    Parameters
    ----------
    seed:
        Master seed. ``None`` selects OS entropy (irreproducible runs are
        allowed but discouraged; all experiment drivers pass explicit
        seeds).
    """

    def __init__(self, seed: int | None = 0):
        self.seed = seed
        self._cache: dict[tuple, np.random.Generator] = {}

    def get(self, *key: int | str) -> np.random.Generator:
        """Return (creating on first use) the stream for ``key``."""
        if key not in self._cache:
            self._cache[key] = spawn_generator(self.seed, *key)
        return self._cache[key]

    def traffic(self, node: int) -> np.random.Generator:
        """Stream that drives message generation at ``node``."""
        return self.get("traffic", node)

    def dest(self, node: int) -> np.random.Generator:
        """Stream that draws message destinations at ``node``.

        The object engine interleaves destination draws on the per-node
        :meth:`traffic` stream (historical layout); the array backend
        separates them onto this stream so arrival instants and
        destinations can be block-drawn independently.
        """
        return self.get("dest", node)

    def allocator(self) -> np.random.Generator:
        """Stream used by the header VC-allocation tie-breaker."""
        return self.get("allocator")

    def arbiter(self) -> np.random.Generator:
        """Stream used by per-link round-robin offset randomisation."""
        return self.get("arbiter")


class ExponentialTape:
    """One stream's standard-exponential variates, drawn once, replayed.

    ``Generator.exponential(scale)`` is ``scale * standard_exponential()``
    variate by variate, and a block draw consumes the bitstream exactly
    like scalar draws, so each :meth:`reader` reproduces the stream's
    ``exponential`` draws bit for bit at its own scale.  Only valid for
    consumers that draw nothing else from the stream.
    """

    def __init__(self, rng: np.random.Generator):
        self._rng = rng
        self._vals = np.empty(0)

    def _upto(self, n: int) -> np.ndarray:
        if n > self._vals.size:
            more = self._rng.standard_exponential(max(n, 2 * self._vals.size, 64) - self._vals.size)
            self._vals = np.concatenate((self._vals, more))
        return self._vals

    def reader(self) -> "_TapeReader":
        """An independent cursor over the tape (starts at its first variate)."""
        return _TapeReader(self)


class _TapeReader:
    def __init__(self, tape: ExponentialTape):
        self._tape = tape
        self._pos = 0

    def exponential(self, scale: float = 1.0, size: int | None = None):
        n = 1 if size is None else size
        vals = self._tape._upto(self._pos + n)[self._pos : self._pos + n]
        self._pos += n
        return float(scale * vals[0]) if size is None else scale * vals
