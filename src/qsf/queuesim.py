"""Event-driven simulator of a two-node M/G/1 network with Bernoulli feedback.

Node 1 and node 2 receive independent Poisson arrivals; customers finishing
node-1 service join node 2, and customers finishing node-2 service leave the
system with probability ``p_exit`` or rejoin node 1. Service durations are
uniform draws scaled by how far the node's parameter block sits from its
target:

    S_i = U * (1 + |theta_i - theta_target_i|^2) / R_i,   U ~ Uniform(0, 1).

The simulator implements the optimizer's black-box contract: ``step`` advances
to the next event (arrival or completion, FIFO, single server per node) and
returns the cost = total customers in system observed at that event epoch.

Randomness is split over five dedicated streams (two arrival, two service,
one routing) fixed at construction, so changing the parameter never shifts
the arrival or routing sequences. The ``rng`` argument of ``step`` is part of
the generic contract and is ignored here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from math import log

import numpy as np

from .rng import RngStream

_INF = math.inf

EVENT_COMPLETION_1 = "svc1"
EVENT_COMPLETION_2 = "svc2"
EVENT_ARRIVAL_1 = "arr1"
EVENT_ARRIVAL_2 = "arr2"

# Event codes, in the tie-break order of step().
_EV_SVC1, _EV_SVC2, _EV_ARR1, _EV_ARR2 = range(4)
_EVENT_NAMES = (EVENT_COMPLETION_1, EVENT_COMPLETION_2, EVENT_ARRIVAL_1, EVENT_ARRIVAL_2)
_EVENT_NODES = (1, 2, 1, 2)

# Streams, as indices into QueueNetwork._ahead, and their lookahead chunk sizes.
_ARR1, _ARR2, _SVC1, _SVC2, _ROUTE = range(5)
_FIRST_CHUNK = 16
_MAX_CHUNK = 1024


@dataclass(frozen=True)
class QueueNetworkConfig:
    """Arrival rates, routing, service scales and parameter-block layout."""

    lambda1: float = 0.2
    lambda2: float = 0.1
    p_exit: float = 0.4
    R1: float = 10.0
    R2: float = 20.0
    N1: int = 2
    N2: int = 2
    theta_target: np.ndarray = field(default=None)  # type: ignore[assignment]
    count_in_service: bool = True  # cost counts the customer being served

    def __post_init__(self):
        if self.lambda1 <= 0.0 or self.lambda2 <= 0.0 or self.R1 <= 0.0 or self.R2 <= 0.0:
            raise ValueError("rates and service scales must be strictly positive")
        if not 0.0 < self.p_exit < 1.0:
            raise ValueError(f"p_exit must be in (0, 1), got {self.p_exit}")
        if self.N1 < 1 or self.N2 < 1:
            raise ValueError("N1 and N2 must be >= 1")
        dim = self.N1 + self.N2
        target = np.ones(dim) if self.theta_target is None else np.asarray(self.theta_target, float)
        if target.shape != (dim,):
            raise ValueError(f"theta_target must have shape ({dim},), got {target.shape}")
        object.__setattr__(self, "theta_target", target)

    @property
    def dim(self) -> int:
        return self.N1 + self.N2


@dataclass(frozen=True)
class QueueState:
    """Snapshot of the live simulator for inspection and tests."""

    clock: float
    queue1: int
    queue2: int
    next_arrival1: float
    next_arrival2: float
    next_completion1: float | None
    next_completion2: float | None
    theta: np.ndarray


def service_time(u: float, theta_i: np.ndarray, theta_bar_i: np.ndarray, R_i: float) -> float:
    """One service duration u * (1 + |theta_i - theta_bar_i|^2) / R_i."""
    if not 0.0 < u < 1.0:
        raise ValueError(f"u must be in the open interval (0, 1), got {u}")
    gap = np.asarray(theta_i, float) - np.asarray(theta_bar_i, float)
    if gap.ndim != 1:
        raise ValueError("theta_i and theta_bar_i must be vectors")
    return u * (1.0 + float(gap @ gap)) / R_i


class QueueNetwork:
    """Mutable single-threaded simulator instance; one per trial.

    Each of the five streams is read through its own lookahead list, filled
    by :meth:`RngStream.random_list` in chunks that start at ``_FIRST_CHUNK``
    and double up to ``_MAX_CHUNK``. A list holds its chunk reversed, so the
    next draw is ``pop()``-ed off the end. Every draw of a stream, including
    the first arrivals of :meth:`reset`, comes through its list, so each
    stream is consumed in exactly the order of one ``random()`` per draw.
    """

    __slots__ = (
        "config", "_arr1", "_arr2", "_svc1", "_svc2", "_route", "_ahead", "_chunk",
        "clock", "queue1", "queue2", "_ta1", "_ta2", "_tc1", "_tc2",
        "_scale1", "_scale2", "_theta", "_target", "_shape", "_n1", "_r1", "_r2",
        "_lambda1", "_lambda2", "_p_exit", "_count_in_service",
        "external_arrivals", "departures", "node1_completions", "node2_completions", "exits",
        "_trace",
    )

    def __init__(self, config: QueueNetworkConfig, rng: RngStream, *, record_events: bool = False):
        self.config = config
        self._arr1 = rng.child("arrival", 1)
        self._arr2 = rng.child("arrival", 2)
        self._svc1 = rng.child("service", 1)
        self._svc2 = rng.child("service", 2)
        self._route = rng.child("routing")
        self._ahead = ([], [], [], [], [])  # indexed by _ARR1 ... _ROUTE
        self._chunk = [_FIRST_CHUNK] * 5
        self._trace = [] if record_events else None
        self._theta = config.theta_target.copy()
        self._target = config.theta_target
        self._shape = (config.dim,)
        self._n1 = config.N1
        self._r1 = config.R1
        self._r2 = config.R2
        self._scale1 = 1.0 / config.R1
        self._scale2 = 1.0 / config.R2
        self._lambda1 = config.lambda1
        self._lambda2 = config.lambda2
        self._p_exit = config.p_exit
        self._count_in_service = config.count_in_service
        self.reset()

    def _refill(self, k: int) -> float:
        """Refill stream ``k``'s empty lookahead list and pop its next draw."""
        n = self._chunk[k]
        self._chunk[k] = min(2 * n, _MAX_CHUNK)
        stream = (self._arr1, self._arr2, self._svc1, self._svc2, self._route)[k]
        ahead = self._ahead[k]
        ahead.extend(reversed(stream.random_list(n)))
        return ahead.pop()

    def reset(self) -> None:
        """Empty both queues, zero the clock, draw fresh first arrivals."""
        ahead = self._ahead
        self.clock = 0.0
        self.queue1 = 0
        self.queue2 = 0
        u1 = ahead[_ARR1].pop() if ahead[_ARR1] else self._refill(_ARR1)
        self._ta1 = -log(u1) / self._lambda1
        u2 = ahead[_ARR2].pop() if ahead[_ARR2] else self._refill(_ARR2)
        self._ta2 = -log(u2) / self._lambda2
        self._tc1 = _INF
        self._tc2 = _INF
        self.external_arrivals = 0
        self.departures = 0
        self.node1_completions = 0
        self.node2_completions = 0
        self.exits = 0
        if self._trace is not None:
            self._trace.clear()

    def set_parameter(self, theta: np.ndarray) -> None:
        """Install theta = (theta_1, theta_2) for services started from now on.

        The vector is split as the first N1 and last N2 components. Values may
        lie outside any feasibility box (perturbed parameters are legal); the
        in-progress services keep their committed durations.
        """
        theta = np.array(theta, dtype=float)  # a copy: the caller may reuse its array
        if theta.shape != self._shape:
            raise ValueError(f"theta must have shape {self._shape}, got {theta.shape}")
        self._theta = theta
        gap = theta - self._target
        g1 = gap[: self._n1]
        g2 = gap[self._n1 :]
        # Single-vector NumPy dot products, as everywhere the bits matter
        # (see optimizer._run_loop): a Python sum of squares rounds differently.
        self._scale1 = (1.0 + float(g1 @ g1)) / self._r1
        self._scale2 = (1.0 + float(g2 @ g2)) / self._r2

    @property
    def state(self) -> QueueState:
        return QueueState(
            clock=self.clock,
            queue1=self.queue1,
            queue2=self.queue2,
            next_arrival1=self._ta1,
            next_arrival2=self._ta2,
            next_completion1=None if self._tc1 == _INF else self._tc1,
            next_completion2=None if self._tc2 == _INF else self._tc2,
            theta=self._theta.copy(),
        )

    @property
    def in_system(self) -> int:
        return self.queue1 + self.queue2

    def step(self, rng: RngStream | None = None) -> float:
        """Process the earliest pending event and return the cost sample.

        Ties (probability zero, but possible in floating point) break in the
        fixed order: node-1 completion, node-2 completion, node-1 arrival,
        node-2 arrival.
        """
        # Each branch reads and writes only the state its event touches; the
        # next uniform of a stream is `ahead.pop() if ahead else self._refill(k)`.
        t = self._tc1
        ev = _EV_SVC1
        if self._tc2 < t:
            t, ev = self._tc2, _EV_SVC2
        if self._ta1 < t:
            t, ev = self._ta1, _EV_ARR1
        if self._ta2 < t:
            t, ev = self._ta2, _EV_ARR2
        self.clock = t
        if ev == _EV_ARR1:
            q1 = self.queue1 = self.queue1 + 1
            q2 = self.queue2
            self.external_arrivals += 1
            ahead = self._ahead[_ARR1]
            self._ta1 = t + (-log(ahead.pop() if ahead else self._refill(_ARR1)) / self._lambda1)
            if q1 == 1:
                ahead = self._ahead[_SVC1]
                self._tc1 = t + (ahead.pop() if ahead else self._refill(_SVC1)) * self._scale1
        elif ev == _EV_ARR2:
            q1 = self.queue1
            q2 = self.queue2 = self.queue2 + 1
            self.external_arrivals += 1
            ahead = self._ahead[_ARR2]
            self._ta2 = t + (-log(ahead.pop() if ahead else self._refill(_ARR2)) / self._lambda2)
            if q2 == 1:
                ahead = self._ahead[_SVC2]
                self._tc2 = t + (ahead.pop() if ahead else self._refill(_SVC2)) * self._scale2
        elif ev == _EV_SVC1:  # the customer moves on to node 2
            q1 = self.queue1 = self.queue1 - 1
            self.node1_completions += 1
            if q1 > 0:
                ahead = self._ahead[_SVC1]
                self._tc1 = t + (ahead.pop() if ahead else self._refill(_SVC1)) * self._scale1
            else:
                self._tc1 = _INF
            q2 = self.queue2 = self.queue2 + 1
            if q2 == 1:
                ahead = self._ahead[_SVC2]
                self._tc2 = t + (ahead.pop() if ahead else self._refill(_SVC2)) * self._scale2
        else:  # the customer exits or feeds back to node 1
            q2 = self.queue2 = self.queue2 - 1
            self.node2_completions += 1
            if q2 > 0:
                ahead = self._ahead[_SVC2]
                self._tc2 = t + (ahead.pop() if ahead else self._refill(_SVC2)) * self._scale2
            else:
                self._tc2 = _INF
            ahead = self._ahead[_ROUTE]
            if (ahead.pop() if ahead else self._refill(_ROUTE)) < self._p_exit:
                q1 = self.queue1
                self.departures += 1
                self.exits += 1
            else:
                q1 = self.queue1 = self.queue1 + 1
                if q1 == 1:
                    ahead = self._ahead[_SVC1]
                    self._tc1 = t + (ahead.pop() if ahead else self._refill(_SVC1)) * self._scale1
        if self._count_in_service:
            cost = float(q1 + q2)
        else:
            cost = float(max(q1 - (self._tc1 != _INF), 0) + max(q2 - (self._tc2 != _INF), 0))
        if self._trace is not None:
            self._trace.append((t, _EVENT_NAMES[ev], _EVENT_NODES[ev], q1, q2, cost))
        return cost

    @property
    def event_trace(self) -> list | None:
        return self._trace

    def write_event_trace(self, path) -> None:
        """Dump the recorded event log as CSV (debug aid for small horizons)."""
        if self._trace is None:
            raise ValueError("network was not constructed with record_events=True")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("clock,event_type,node,q1,q2,cost\n")
            for clock, name, node, q1, q2, cost in self._trace:
                fh.write(f"{clock!r},{name},{node},{q1},{q2},{cost!r}\n")
