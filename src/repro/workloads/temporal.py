"""Temporal arrival processes: when messages are generated.

Every process implements the same arrival-clock contract the engine's
generation heap consumes (:meth:`peek` / :meth:`pop_next`) and declares
the squared coefficient of variation (SCV) of its inter-arrival times,
which the analytical model uses as the burstiness input of its G/G/1
waiting-time correction (Poisson has SCV 1 and the correction vanishes,
recovering the paper's M/G/1 formulas exactly).

All processes are parameterised by their *mean* rate in messages/cycle,
so swapping the temporal process changes variability, never offered load.
"""

from __future__ import annotations

import abc
import math
from typing import Any, Callable, Mapping

import numpy as np

from repro.utils.exceptions import ConfigurationError

__all__ = [
    "ArrivalProcess",
    "PoissonProcess",
    "OnOffProcess",
    "DeterministicProcess",
    "BatchProcess",
    "make_temporal",
    "available_temporal",
    "temporal_param_names",
    "temporal_scv",
    "ONOFF_DUTY_DEFAULT",
    "ONOFF_BURST_DEFAULT",
    "BATCH_SIZE_DEFAULT",
]

#: Default parameters of the parameterised processes — shared by the
#: registry below and by every layer that must describe the *same*
#: traffic (the bound engine's envelope constructors in
#: :mod:`repro.bounds.curves` read these, so sim and bound rows can
#: never drift onto different default processes).
ONOFF_DUTY_DEFAULT = 0.5
ONOFF_BURST_DEFAULT = 8.0
BATCH_SIZE_DEFAULT = 4


class ArrivalProcess(abc.ABC):
    """Arrival clock for one node: a stream of generation instants."""

    name: str = "abstract"
    #: True when the process draws only ``rng.exponential`` — then one
    #: stream can be replayed at several rates (``ExponentialTape``).
    exponential_only: bool = False

    def __init__(self, rate: float, rng: np.random.Generator):
        if rate < 0:
            raise ConfigurationError(f"arrival rate must be >= 0, got {rate}")
        self.rate = rate
        self._rng = rng
        self._next = math.inf if rate == 0 else self._first()

    @abc.abstractmethod
    def _first(self) -> float:
        """The first arrival instant (rate is known to be positive)."""

    @abc.abstractmethod
    def _advance(self) -> float:
        """The arrival instant after the current one."""

    def peek(self) -> float:
        """Time of the next arrival (not consumed)."""
        return self._next

    def pop_next(self) -> float:
        """Consume and return the next arrival instant."""
        t = self._next
        self._next = self._advance()
        return t

    def arrivals_until(self, t: float) -> list[float]:
        """Arrival instants with time <= ``t`` (consumed)."""
        out: list[float] = []
        while self._next <= t:
            out.append(self.pop_next())
        return out

    def draw_block(self, k: int) -> list[float]:
        """The next ``k`` arrival instants, consumed as one block.

        Exactly equivalent to ``[self.pop_next() for _ in range(k)]`` —
        same values, same RNG stream consumption — so a block-buffered
        consumer (the array backend's generation phase) reproduces the
        one-at-a-time stream bit for bit regardless of block size.
        Subclasses override only to batch the underlying generator calls;
        the variate sequence itself must stay identical.
        """
        return [self.pop_next() for _ in range(k)]


class PoissonProcess(ArrivalProcess):
    """Independent exponential inter-arrivals — the paper's assumption (b)."""

    name = "poisson"
    exponential_only = True

    def _first(self) -> float:
        return self._rng.exponential(1.0 / self.rate)

    def _advance(self) -> float:
        return self._next + self._rng.exponential(1.0 / self.rate)

    def draw_block(self, k: int) -> list[float]:
        """Vectorized block draw (one Generator call for k gaps).

        ``Generator.exponential(size=k)`` consumes the Philox bitstream
        exactly like k scalar ``exponential()`` calls (the ziggurat runs
        per-variate either way), and the instants are accumulated with
        the same left-to-right float additions as :meth:`pop_next`, so
        the block reproduces the scalar stream bit for bit.
        """
        if self.rate == 0 or k <= 0:
            return super().draw_block(k)
        gaps = self._rng.exponential(1.0 / self.rate, size=k).tolist()
        out = []
        t = self._next
        for g in gaps:
            out.append(t)
            t += g
        self._next = t
        return out

    @staticmethod
    def scv(params: Mapping[str, Any]) -> float:
        return 1.0


class OnOffProcess(ArrivalProcess):
    """Two-state bursty source (interrupted Poisson / MMPP-2).

    The source alternates between an ON state emitting Poisson arrivals at
    rate ``rate / duty`` and a silent OFF state; sojourns are exponential.

    Parameters
    ----------
    duty:
        Long-run fraction of time spent ON, in (0, 1].  ``duty = 1``
        degenerates to Poisson.
    burst:
        Mean number of messages emitted per ON period (> 0); larger
        bursts mean longer correlated busy periods at the same load.
    """

    name = "onoff"

    def __init__(
        self,
        rate: float,
        rng: np.random.Generator,
        duty: float = ONOFF_DUTY_DEFAULT,
        burst: float = ONOFF_BURST_DEFAULT,
    ):
        duty, burst = _check_onoff(duty, burst)
        self.duty = duty
        self.burst = burst
        if rate > 0 and duty < 1.0:
            self._rate_on = rate / duty
            self._alpha = self._rate_on / burst  # ON -> OFF
            self._beta = self._alpha * duty / (1.0 - duty)  # OFF -> ON
        else:
            self._rate_on = rate
            self._alpha = 0.0
            self._beta = math.inf
        super().__init__(rate, rng)

    def _first(self) -> float:
        # Start in the stationary state distribution.
        self._on = self._alpha == 0.0 or self._rng.random() < self.duty
        return self._next_arrival(0.0)

    def _advance(self) -> float:
        return self._next_arrival(self._next)

    def _next_arrival(self, t: float) -> float:
        if self._alpha == 0.0:  # degenerate: pure Poisson
            return t + self._rng.exponential(1.0 / self._rate_on)
        while True:
            if self._on:
                total = self._rate_on + self._alpha
                t += self._rng.exponential(1.0 / total)
                if self._rng.random() < self._rate_on / total:
                    return t
                self._on = False
            else:
                t += self._rng.exponential(1.0 / self._beta)
                self._on = True

    @staticmethod
    def scv(params: Mapping[str, Any]) -> float:
        """Inter-arrival SCV of the IPP (closed form, rate-invariant).

        Solves the first-passage first/second moment equations of the
        two-state chain at unit mean rate; the SCV depends only on
        ``duty`` and ``burst``.
        """
        duty, burst = _check_onoff(
            float(params.get("duty", ONOFF_DUTY_DEFAULT)),
            float(params.get("burst", ONOFF_BURST_DEFAULT)),
        )
        if duty >= 1.0:
            return 1.0
        lam_on = 1.0 / duty  # unit mean rate
        alpha = lam_on / burst
        beta = alpha * duty / (1.0 - duty)
        s = lam_on + alpha
        m1 = 1.0  # E[T | on] at unit rate
        m2 = 1.0 / beta + m1
        # S1 = 2/s^2 + (2 alpha / s^2) m2 + (alpha/s) S2,
        # S2 = 2/beta^2 + (2/beta) m1 + S1  =>  solve for S1.
        s1 = (
            2.0 / s**2
            + (2.0 * alpha / s**2) * m2
            + (alpha / s) * (2.0 / beta**2 + 2.0 * m1 / beta)
        ) * (s / lam_on)
        return s1 - 1.0  # SCV = E[T^2] * rate^2 - 1 with rate = 1


class DeterministicProcess(ArrivalProcess):
    """Perfectly periodic arrivals with a random phase (SCV 0)."""

    name = "deterministic"

    def _first(self) -> float:
        period = 1.0 / self.rate
        return self._rng.uniform(0.0, period)

    def _advance(self) -> float:
        return self._next + 1.0 / self.rate

    @staticmethod
    def scv(params: Mapping[str, Any]) -> float:
        return 0.0


class BatchProcess(ArrivalProcess):
    """Batch-Poisson arrivals: ``size`` messages per Poisson epoch.

    Epochs occur at rate ``rate / size`` so the mean message rate is
    unchanged; all messages of a batch share one generation instant.
    """

    name = "batch"

    def __init__(self, rate: float, rng: np.random.Generator, size: int = BATCH_SIZE_DEFAULT):
        self.size = _check_batch(size)
        self._left = 0
        super().__init__(rate, rng)

    def _first(self) -> float:
        self._left = self.size - 1
        return self._rng.exponential(self.size / self.rate)

    def _advance(self) -> float:
        if self._left > 0:
            self._left -= 1
            return self._next
        self._left = self.size - 1
        return self._next + self._rng.exponential(self.size / self.rate)

    @staticmethod
    def scv(params: Mapping[str, Any]) -> float:
        """SCV of message inter-arrival times: ``2*size - 1``."""
        return 2.0 * _check_batch(int(params.get("size", BATCH_SIZE_DEFAULT))) - 1.0


def _check_onoff(duty: float, burst: float) -> tuple[float, float]:
    if not (0.0 < duty <= 1.0):
        raise ConfigurationError(f"onoff duty must be in (0,1], got {duty}")
    if burst <= 0:
        raise ConfigurationError(f"onoff burst must be > 0, got {burst}")
    return duty, burst


def _check_batch(size: int) -> int:
    if size < 1:
        raise ConfigurationError(f"batch size must be >= 1, got {size}")
    return size


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

_REGISTRY: dict[str, tuple[Callable, frozenset[str], Callable]] = {
    "poisson": (
        lambda rate, rng, p: PoissonProcess(rate, rng),
        frozenset(),
        PoissonProcess.scv,
    ),
    "onoff": (
        lambda rate, rng, p: OnOffProcess(
            rate,
            rng,
            duty=float(p.get("duty", ONOFF_DUTY_DEFAULT)),
            burst=float(p.get("burst", ONOFF_BURST_DEFAULT)),
        ),
        frozenset({"duty", "burst"}),
        OnOffProcess.scv,
    ),
    "deterministic": (
        lambda rate, rng, p: DeterministicProcess(rate, rng),
        frozenset(),
        DeterministicProcess.scv,
    ),
    "batch": (
        lambda rate, rng, p: BatchProcess(rate, rng, size=int(p.get("size", BATCH_SIZE_DEFAULT))),
        frozenset({"size"}),
        BatchProcess.scv,
    ),
}


def available_temporal() -> tuple[str, ...]:
    """Registered temporal-process names, alphabetical."""
    return tuple(sorted(_REGISTRY))


def _entry(name: str) -> tuple[Callable, frozenset[str], Callable]:
    if name not in _REGISTRY:
        raise ConfigurationError(
            f"unknown temporal process {name!r}; expected one of "
            f"{', '.join(available_temporal())}"
        )
    return _REGISTRY[name]


def temporal_param_names(name: str) -> frozenset[str]:
    """Allowed parameter names for process ``name`` (raises if unknown)."""
    return _entry(name)[1]


def _check_params(name: str, params: Mapping[str, Any]) -> None:
    allowed = temporal_param_names(name)
    unknown = set(params) - allowed
    if unknown:
        raise ConfigurationError(
            f"unknown parameters for temporal process {name!r}: {sorted(unknown)}; "
            f"allowed: {sorted(allowed) or '(none)'}"
        )


def make_temporal(
    name: str,
    rate: float,
    rng: np.random.Generator,
    params: Mapping[str, Any] | None = None,
) -> ArrivalProcess:
    """Build an arrival process by name, rejecting unknown parameters."""
    params = dict(params or {})
    _check_params(name, params)
    return _entry(name)[0](rate, rng, params)


def temporal_scv(name: str, params: Mapping[str, Any] | None = None) -> float:
    """Inter-arrival SCV of process ``name`` (the model's burstiness input)."""
    params = dict(params or {})
    _check_params(name, params)
    return _entry(name)[2](params)
