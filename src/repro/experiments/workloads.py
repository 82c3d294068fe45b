"""Client workload generation.

The paper's clients send fixed-size requests to the replicas and wait for
a quorum of replies; batching happens at the replicas.  The simulator
models the clients as an open-loop arrival process feeding the shared
mempool: the aggregate request rate, per-request payload size and the
arrival model (see :mod:`repro.clients.arrivals`) are the knobs the
evaluation sweeps.
"""

from __future__ import annotations

import random
import warnings
from dataclasses import dataclass
from typing import Optional

from repro.clients.arrivals import make_arrival
from repro.consensus.mempool import Mempool
from repro.simnet.events import Simulator

__all__ = ["ClientWorkload"]


@dataclass(frozen=True)
class ClientWorkload:
    """An open-loop client population.

    Attributes:
        rate: Aggregate request arrival rate (requests per second) across
            all clients.
        payload_size: Payload bytes per request (64 B / 128 B in the paper).
        num_clients: Number of logical clients the requests are attributed
            to (4 in the paper's base evaluation).
        arrival: Arrival model name — one of
            :data:`~repro.clients.arrivals.ARRIVAL_MODELS` (``"poisson"``,
            ``"uniform"``, ``"bursty"``, ``"diurnal"``).
        burst_factor: Peak-to-mean ratio of the time-varying models
            (ignored by ``poisson``/``uniform``).
        period: Cycle length of the time-varying models, seconds.
        jitter: Deprecated alias for the arrival model: ``True`` meant
            ``arrival="poisson"``, ``False`` meant ``arrival="uniform"``.
            Passing it explicitly warns and maps onto ``arrival``; it will
            be removed one release after the deprecation.
        seed: RNG seed for the arrival process.
    """

    rate: float
    payload_size: int = 64
    num_clients: int = 4
    jitter: Optional[bool] = None
    seed: int = 42
    arrival: str = "poisson"
    burst_factor: float = 4.0
    period: float = 1.0

    def __post_init__(self) -> None:
        if self.jitter is not None:
            warnings.warn(
                "ClientWorkload(jitter=...) is deprecated; pass "
                "arrival='poisson' (jitter=True) or arrival='uniform' "
                "(jitter=False) instead",
                DeprecationWarning,
                stacklevel=3,
            )
            object.__setattr__(self, "arrival", "poisson" if self.jitter else "uniform")
            # Reset the sentinel so round-tripping the dataclass (replace,
            # asdict/reconstruct) does not warn a second time.
            object.__setattr__(self, "jitter", None)

    def attach(self, simulator: Simulator, mempool: Mempool, duration: float) -> int:
        """Schedule all request submissions for a run of ``duration`` seconds.

        Returns the number of scheduled requests.  Scheduling everything up
        front keeps the hot loop allocation-free and the run deterministic.

        Iteration order is part of the determinism contract: arrivals are
        generated in one pass, strictly in arrival-time order, from a
        single ``random.Random(seed)`` stream, and client ids are assigned
        round-robin by schedule index.  A fixed ``(seed, rate, arrival,
        shape)`` tuple therefore yields a bit-identical schedule on every
        run and platform — the figure goldens pin the ``poisson`` stream
        (one ``expovariate(rate)`` draw per arrival).
        """
        if self.rate <= 0:
            return 0
        model = make_arrival(
            self.arrival,
            self.rate,
            burst_factor=self.burst_factor,
            period=self.period,
        )
        rng = random.Random(self.seed)
        scheduled = 0
        time = 0.0
        while True:
            time += model.gap(rng, time)
            if time >= duration:
                break
            client_id = scheduled % max(self.num_clients, 1)
            simulator.post_at(time, self._submit, mempool, time, client_id)
            scheduled += 1
        return scheduled

    def preload_into(self, mempool: Mempool, duration: float) -> int:
        """Submit the whole run's request volume at time zero.

        Exactly ``int(rate * duration)`` requests are submitted with
        ``submitted_at=0.0``, independent of the arrival RNG, so every
        replica of a replicated-pool (live) deployment — and a sim run of
        the same spec — sees an identical request sequence.  Returns the
        number of submitted requests.
        """
        return mempool.submit_many(
            count=int(self.rate * duration),
            time=0.0,
            size_bytes=self.payload_size,
            num_clients=self.num_clients,
        )

    def _submit(self, mempool: Mempool, time: float, client_id: int) -> None:
        mempool.submit(time=time, size_bytes=self.payload_size, client_id=client_id)
