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
from dataclasses import dataclass

from repro.clients.arrivals import ArrivalModel, make_arrival
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
        seed: RNG seed for the arrival process.
    """

    rate: float
    payload_size: int = 64
    num_clients: int = 4
    seed: int = 42
    arrival: str = "poisson"
    burst_factor: float = 4.0
    period: float = 1.0

    def attach(self, simulator: Simulator, mempool: Mempool, duration: float) -> None:
        """Feed ``mempool`` one request per arrival for ``duration`` seconds.

        Only the first arrival is posted here; each arrival, when the
        clock reaches it, submits its request, draws the next gap and
        posts the next arrival.  The simulator's heap therefore holds one
        pending arrival at a time, and deploying costs the same for a
        one-second run as for a one-minute one.

        Iteration order is part of the determinism contract: arrivals are
        generated strictly in arrival-time order from a single
        ``random.Random(seed)`` stream, one ``model.gap`` call per
        arrival, and client ids are assigned round-robin by arrival
        index.  A fixed ``(seed, rate, arrival, shape)`` tuple therefore
        yields a bit-identical stream on every run and platform — the
        figure goldens pin the ``poisson`` stream (one
        ``expovariate(rate)`` draw per arrival) and
        ``tests/experiments/golden_arrival_streams.json`` pins all four
        models.
        """
        if self.rate <= 0:
            return
        model = make_arrival(
            self.arrival,
            self.rate,
            burst_factor=self.burst_factor,
            period=self.period,
        )
        _Arrivals(
            simulator,
            mempool,
            model,
            random.Random(self.seed),
            duration,
            self.payload_size,
            max(self.num_clients, 1),
        ).post_next()

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


class _Arrivals:
    """A run's client stream, posted as its own next arrival.

    Calling it submits the request due now and posts the next arrival,
    if that still falls inside the run.  One object serves the whole run,
    so an arrival costs one heap tuple and no bound method or argument
    tuple.
    """

    __slots__ = (
        "simulator", "mempool", "model", "rng", "duration", "size", "clients", "time", "index"
    )

    def __init__(
        self,
        simulator: Simulator,
        mempool: Mempool,
        model: ArrivalModel,
        rng: random.Random,
        duration: float,
        size: int,
        clients: int,
    ) -> None:
        self.simulator = simulator
        self.mempool = mempool
        self.model = model
        self.rng = rng
        self.duration = duration
        self.size = size
        self.clients = clients
        self.time = 0.0
        self.index = 0

    def __call__(self) -> None:
        self.mempool.submit(self.time, self.size, self.index % self.clients)
        self.index += 1
        self.post_next()

    def post_next(self) -> None:
        """Draw the gap to the next arrival and post it, unless it falls
        at or past the end of the run."""
        time = self.time + self.model.gap(self.rng, self.time)
        if time < self.duration:
            self.time = time
            self.simulator.post_at(time, self)
