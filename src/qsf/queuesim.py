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
the arrival or routing sequences. ``step`` takes no argument: the network
draws only from its own streams.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from math import isfinite, log

import numpy as np

from .rng import RngStream

_INF = math.inf

# Event codes, in the tie-break order of step().
_EV_SVC1, _EV_SVC2, _EV_ARR1, _EV_ARR2 = range(4)

# Streams, as indices into QueueNetwork._ahead, and the first and the largest
# lookahead chunk. A short run reads only tens of draws from a stream.
_ARR1, _ARR2, _SVC1, _SVC2, _ROUTE = range(5)
_FIRST_CHUNK = 32
_CHUNK = 512


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
        if not all(x > 0.0 for x in (self.lambda1, self.lambda2, self.R1, self.R2)):  # NaN fails too
            raise ValueError("rates and service scales must be strictly positive")
        if not 0.0 < self.p_exit < 1.0:
            raise ValueError(f"p_exit must be in (0, 1), got {self.p_exit}")
        if not (self.N1 >= 1 and self.N2 >= 1):
            raise ValueError("N1 and N2 must be >= 1")
        dim = self.N1 + self.N2
        target = np.ones(dim) if self.theta_target is None else np.asarray(self.theta_target, float)
        if target.shape != (dim,):
            raise ValueError(f"theta_target must have shape ({dim},), got {target.shape}")
        if not np.all(np.isfinite(target)):
            raise ValueError(f"theta_target must be finite, got {target.tolist()}")
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


def _service_scales(gaps: np.ndarray, r: float) -> list:
    """(1 + |gap|^2) / R for each row of ``gaps``, as Python floats.

    ``np.vecdot`` gives every row the bits of that row's own ``gap @ gap``
    (tests/test_optimizer.py gates this); a Python sum of squares, or a
    rowwise einsum, rounds differently. The add and the divide are IEEE
    operations, so on the array they round as on each row's float.
    """
    return ((1.0 + np.vecdot(gaps, gaps)) / r).tolist()


class QueueNetwork:
    """Mutable single-threaded simulator instance; one per trial.

    Each of the five streams is read through its own lookahead, an
    ``array('d')`` filled from :meth:`RngStream.random_array` in chunks that
    double from ``_FIRST_CHUNK`` to ``_CHUNK`` values (at most 4 KB, where a
    list of 512 floats took 16 KB). It holds its chunk reversed, so the next
    draw is ``pop()``-ed off the end. Every draw of a stream, including the
    first arrivals of :meth:`reset`, comes through its lookahead, so each
    stream is consumed in exactly the order of one ``random()`` per draw.
    """

    __slots__ = (
        "config", "_arr1", "_arr2", "_svc1", "_svc2", "_route", "_ahead", "_chunks",
        "clock", "queue1", "queue2", "_ta1", "_ta2", "_tc1", "_tc2",
        "_scale1", "_scale2", "_theta",
        "_lambda1", "_lambda2", "_p_exit", "_count_in_service",
        "external_arrivals", "node1_completions", "node2_completions", "exits",
    )

    def __init__(self, config: QueueNetworkConfig, rng: RngStream):
        self.config = config
        self._arr1 = rng.child("arrival", 1)
        self._arr2 = rng.child("arrival", 2)
        self._svc1 = rng.child("service", 1)
        self._svc2 = rng.child("service", 2)
        self._route = rng.child("routing")
        self._ahead = tuple(array("d") for _ in range(5))  # indexed by _ARR1 ... _ROUTE
        self._chunks = [_FIRST_CHUNK] * 5  # the next refill's size, per stream
        # theta_target itself, as set_parameter would install it: a zero
        # gap gives the scales (1 + 0) / R
        self._theta = config.theta_target.copy()
        self._scale1 = 1.0 / config.R1
        self._scale2 = 1.0 / config.R2
        self._lambda1 = config.lambda1
        self._lambda2 = config.lambda2
        self._p_exit = config.p_exit
        self._count_in_service = config.count_in_service
        self.reset()

    def _refill(self, k: int) -> float:
        """Refill stream ``k``'s empty lookahead and pop its next draw."""
        stream = (self._arr1, self._arr2, self._svc1, self._svc2, self._route)[k]
        ahead = self._ahead[k]
        n = self._chunks[k]
        self._chunks[k] = min(2 * n, _CHUNK)
        ahead.frombytes(stream.random_array(n)[::-1].tobytes())
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
        self.node1_completions = 0
        self.node2_completions = 0
        self.exits = 0

    def set_parameter(self, theta: np.ndarray) -> None:
        """Install theta = (theta_1, theta_2) for services started from now on.

        The vector is split as the first N1 and last N2 components. Values may
        lie outside any feasibility box (perturbed parameters are legal); the
        in-progress services keep their committed durations. A theta of
        another shape, or one that is not finite, raises ValueError.
        """
        theta = np.array(theta, dtype=float)  # a copy: the caller may reuse its array
        if theta.shape != (self.config.dim,):
            raise ValueError(f"parameter must have shape ({self.config.dim},), got {theta.shape}")
        QueueNetwork.set_parameters((self,), theta[None])

    @staticmethod
    def set_parameters(networks, thetas: np.ndarray) -> None:
        """:meth:`set_parameter` for a batch: row k of the (K, dim) array
        ``thetas`` goes to ``networks[k]``. The networks must be built from
        one config, and the caller must not change ``thetas`` afterwards:
        each network keeps its row as its parameter. A row that is not
        finite, or whose service scale overflows, raises ValueError naming
        the row, and no network is changed."""
        config = networks[0].config
        if thetas.shape != (len(networks), config.dim):
            raise ValueError(f"parameters must have shape ({len(networks)}, {config.dim}), "
                             f"got {thetas.shape}")
        gap = thetas - config.theta_target
        scales1 = _service_scales(gap[:, : config.N1], config.R1)
        scales2 = _service_scales(gap[:, config.N1 :], config.R2)
        # A NaN or infinite component makes its row's scale NaN or infinite.
        # The scales are positive, so one sum on the Python floats finds that
        # (a sum of finite scales that overflows finds no row to refuse).
        if not isfinite(sum(scales1, sum(scales2))):
            for k, (scale1, scale2) in enumerate(zip(scales1, scales2)):
                if not (isfinite(scale1) and isfinite(scale2)):
                    raise ValueError(f"parameter row {k} must be finite with finite service "
                                     f"scales, got {thetas[k].tolist()}")
        for net, theta, scale1, scale2 in zip(networks, thetas, scales1, scales2):
            net._theta = theta
            net._scale1 = scale1
            net._scale2 = scale2

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

    def step(self) -> float:
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
                self.exits += 1
            else:
                q1 = self.queue1 = self.queue1 + 1
                if q1 == 1:
                    ahead = self._ahead[_SVC1]
                    self._tc1 = t + (ahead.pop() if ahead else self._refill(_SVC1)) * self._scale1
        if self._count_in_service:
            return float(q1 + q2)
        return float(max(q1 - (self._tc1 != _INF), 0) + max(q2 - (self._tc2 != _INF), 0))
