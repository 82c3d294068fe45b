"""Seeded arrival models for open-loop client traffic.

An :class:`ArrivalModel` turns a :class:`random.Random` stream into
inter-arrival gaps.  The same models drive both substrates:

* the **sim workload** (:meth:`~repro.experiments.workloads.
  ClientWorkload.attach`) builds one aggregate-rate model and draws each
  gap as the virtual clock reaches the previous arrival, so the legacy
  Poisson schedule (``rng.expovariate(rate)`` per arrival) is reproduced
  bit for bit — the figure goldens pin it;
* the **live swarm** (:mod:`repro.clients.swarm`) builds one per-client
  model at ``rate / num_clients`` with a per-client RNG derived by
  :func:`client_rng`, so client ``i`` emits the same request times no
  matter which worker process hosts it.

Determinism contract: every model consumes its RNG only inside
:meth:`ArrivalModel.gap`, a fixed number of draws per returned gap for
the poisson/uniform/diurnal models and a loop-until-hit for ``bursty``
(still a pure function of the RNG stream).  A fixed ``(seed, rate,
model, shape)`` tuple therefore always yields the same schedule.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

__all__ = [
    "ARRIVAL_MODELS",
    "ArrivalModel",
    "BurstyArrivals",
    "DiurnalArrivals",
    "PoissonArrivals",
    "UniformArrivals",
    "client_rng",
    "make_arrival",
]

#: Every registered arrival model name accepted by :func:`make_arrival`
#: (and by ``WorkloadSpec.arrival``).
ARRIVAL_MODELS = ("poisson", "uniform", "bursty", "diurnal")

_TWO_PI = 2.0 * math.pi


def client_rng(seed: int, client_id: int) -> random.Random:
    """The per-client RNG: a stable mix of the workload seed and the
    client id, so client ``i``'s arrival stream is identical no matter
    how clients are sharded across worker processes."""
    return random.Random(((seed + 1) * 2654435761 + client_id * 40503) & 0xFFFFFFFFFFFF)


@dataclass(frozen=True)
class ArrivalModel:
    """Base class: an arrival process with mean rate ``rate`` req/s.

    Attributes:
        rate: Mean arrival rate (requests per second) this model emits —
            the aggregate rate for the sim scheduler, the per-client rate
            for the live swarm.
    """

    rate: float

    name = "abstract"

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise ValueError("arrival rate must be positive")

    def gap(self, rng: random.Random, elapsed: float) -> float:
        """Seconds from ``elapsed`` until the next arrival.

        ``elapsed`` is the time of the previous arrival (seconds since
        the process started); time-varying models key their phase off
        it.  Consumes ``rng`` deterministically.
        """
        raise NotImplementedError


@dataclass(frozen=True)
class PoissonArrivals(ArrivalModel):
    """Memoryless arrivals: exponential gaps at the configured rate.

    One ``rng.expovariate(rate)`` draw per arrival; the figure goldens
    pin this draw sequence, so it must not change.
    """

    name = "poisson"

    def gap(self, rng: random.Random, elapsed: float) -> float:
        return rng.expovariate(self.rate)


@dataclass(frozen=True)
class UniformArrivals(ArrivalModel):
    """Evenly spaced arrivals.

    Consumes no randomness: the gap is always ``1 / rate``.
    """

    name = "uniform"

    def gap(self, rng: random.Random, elapsed: float) -> float:
        return 1.0 / self.rate


@dataclass(frozen=True)
class BurstyArrivals(ArrivalModel):
    """On/off bursts: all traffic compressed into the head of each period.

    Every ``period`` seconds, the first ``period / burst_factor`` seconds
    are an "on" window running a Poisson process at ``rate *
    burst_factor``; the rest of the period is silent.  The long-run mean
    rate is exactly ``rate``, but instantaneous load spikes by
    ``burst_factor`` — the shape that exercises admission control and
    queue depth without raising offered load.

    Attributes:
        burst_factor: Peak-to-mean ratio (> 1); also the inverse duty
            cycle of the on window.
        period: Seconds per on/off cycle.
    """

    burst_factor: float = 4.0
    period: float = 1.0

    name = "bursty"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.burst_factor <= 1.0:
            raise ValueError("burst factor must exceed 1")
        if self.period <= 0:
            raise ValueError("burst period must be positive")

    def gap(self, rng: random.Random, elapsed: float) -> float:
        on_len = self.period / self.burst_factor
        burst_rate = self.rate * self.burst_factor
        at = elapsed
        while True:
            phase = at % self.period
            if phase >= on_len:  # inside the silent tail: skip to next window
                at += self.period - phase
                phase = 0.0
            draw = rng.expovariate(burst_rate)
            if phase + draw < on_len:
                return (at + draw) - elapsed
            at += on_len - phase  # window exhausted without an arrival

    # The while loop advances ``at`` by at least the remaining window (or a
    # full period) per iteration, so it terminates after a geometric number
    # of redraws with success probability 1 - exp(-rate * period).


@dataclass(frozen=True)
class DiurnalArrivals(ArrivalModel):
    """Sinusoidally modulated load: a compressed day/night cycle.

    The instantaneous rate is ``rate * (1 + amplitude * sin(2π t /
    period))``, floored at 1 % of the mean so the silent trough still
    makes progress.  Gaps are drawn exponentially at the instantaneous
    rate — an adiabatic approximation that is exact when ``period`` is
    long against the mean gap, which saturation sweeps satisfy.

    Attributes:
        amplitude: Peak deviation from the mean, in [0, 1).
        period: Seconds per full day/night cycle.
    """

    amplitude: float = 0.8
    period: float = 8.0

    name = "diurnal"

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0.0 <= self.amplitude < 1.0:
            raise ValueError("diurnal amplitude must be in [0, 1)")
        if self.period <= 0:
            raise ValueError("diurnal period must be positive")

    def gap(self, rng: random.Random, elapsed: float) -> float:
        instantaneous = self.rate * (
            1.0 + self.amplitude * math.sin(_TWO_PI * elapsed / self.period)
        )
        return rng.expovariate(max(instantaneous, self.rate * 0.01))


def make_arrival(
    name: str,
    rate: float,
    *,
    burst_factor: float = 4.0,
    period: float = 1.0,
) -> ArrivalModel:
    """Build the named arrival model (see :data:`ARRIVAL_MODELS`).

    ``burst_factor`` applies to ``bursty`` (peak-to-mean ratio) and
    ``diurnal`` (mapped to the sine amplitude ``1 - 1/burst_factor`` so
    the same knob scales both shapes); ``period`` is the cycle length of
    either time-varying model and is ignored by ``poisson``/``uniform``.
    """
    if name == "poisson":
        return PoissonArrivals(rate)
    if name == "uniform":
        return UniformArrivals(rate)
    if name == "bursty":
        return BurstyArrivals(rate, burst_factor=burst_factor, period=period)
    if name == "diurnal":
        amplitude = max(0.0, min(1.0 - 1.0 / burst_factor, 0.99))
        return DiurnalArrivals(rate, amplitude=amplitude, period=period)
    raise ValueError(
        f"unknown arrival model {name!r} (expected one of {', '.join(ARRIVAL_MODELS)})"
    )
