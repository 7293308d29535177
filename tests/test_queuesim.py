import math
from array import array
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from qsf.queuesim import QueueNetwork, QueueNetworkConfig
from qsf.rng import RngStream
from helpers import HeadStream


def make_net(seed=1, theta=None, **cfg_kw):
    net = QueueNetwork(QueueNetworkConfig(**cfg_kw), RngStream(seed))
    if theta is not None:
        net.set_parameter(np.asarray(theta, dtype=float))
    return net


# ---------------------------------------------------------------------------
# service-time law


def test_service_time_examples():
    # a service takes u * scale for its node's uniform u, with the scale
    # (1 + |theta_i - target_i|^2) / R_i
    net = make_net(seed=3, theta=np.ones(4))
    assert 0.5 * net._scale1 == pytest.approx(0.05, rel=1e-15)
    assert 0.5 * net._scale2 == pytest.approx(0.025, rel=1e-15)
    # |theta - target|^2 = 32 at the benchmark start point
    net.set_parameter(np.full(4, 5.0))
    assert 0.5 * net._scale1 == pytest.approx(1.65, rel=1e-12)
    # supremum as u -> 1
    net.set_parameter(np.ones(4))
    near_one = math.nextafter(1.0, 0.0)
    assert near_one * net._scale2 < 0.05
    assert near_one * net._scale2 == pytest.approx(0.05, rel=1e-9)


@given(u=st.floats(min_value=1e-6, max_value=1.0, exclude_max=True),
       gap=st.floats(min_value=-4.0, max_value=4.0))
@settings(max_examples=50, deadline=None)
def test_service_time_positive_and_monotone_in_distance(u, gap):
    net = make_net(seed=4, theta=np.ones(4))
    base = u * net._scale1
    net.set_parameter(np.array([1.0 + gap, 1.0, 1.0, 1.0]))
    shifted = u * net._scale1
    assert base > 0.0
    assert shifted >= base


def test_empirical_service_mean():
    # mean of U(0,1) is 1/2, so the mean service time is (1+|gap|^2)/(2R)
    net = make_net(seed=5, theta=[3.0, 1.0, 1.0, 1.0])
    scale = net._scale1
    assert scale == pytest.approx((1.0 + 4.0) / 10.0, rel=1e-12)
    draws = np.array([net._svc1.random() * scale for _ in range(1_000_000)])
    assert draws.mean() == pytest.approx(scale / 2.0, rel=0.01)


# ---------------------------------------------------------------------------
# reset and arrivals


def test_reset_empties_system():
    net = make_net(seed=2)
    for _ in range(50):
        net.step()
    net.reset()
    assert net.queue1 == net.queue2 == 0
    assert net.clock == 0.0
    st0 = net.state
    assert st0.next_completion1 is None and st0.next_completion2 is None
    # first processed event must be an external arrival, giving cost 1
    assert net.step() == 1.0


def test_first_arrival_mean_matches_rate():
    firsts = []
    for seed in range(4000):
        net = make_net(seed=seed)
        firsts.append(net.state.next_arrival1)
    assert np.mean(firsts) == pytest.approx(1.0 / 0.2, rel=0.05)


def test_inter_arrival_times_exponential():
    cfg = QueueNetworkConfig()
    net, ref = QueueNetwork(cfg, RngStream(9)), ReferenceNetwork(cfg, RngStream(9))
    for _ in range(200_000):
        assert step_and_state(net) == step_and_state(ref)
    arr1_clocks = [e[0] for e in ref.trace if e[1] == "arr1"]
    gaps = np.diff(arr1_clocks)
    assert len(gaps) > 5000
    assert np.mean(gaps) == pytest.approx(5.0, rel=0.02)
    assert stats.kstest(gaps, stats.expon(scale=5.0).cdf).pvalue > 0.01


def test_distinct_streams_give_distinct_arrivals():
    a = make_net(seed=3).state.next_arrival1
    b = make_net(seed=4).state.next_arrival1
    assert a != b


def test_same_seed_reproduces_cost_sequence():
    run1 = [make_net(seed=6).step() for _ in range(1)]
    net1, net2 = make_net(seed=6), make_net(seed=6)
    seq1 = [net1.step() for _ in range(500)]
    seq2 = [net2.step() for _ in range(500)]
    assert seq1 == seq2


def test_parameter_changes_do_not_shift_arrivals():
    # arrival times live on their own streams: perturbing theta mid-run must
    # leave the external arrival clock sequence untouched
    def arrival_clocks(perturb):
        cfg = QueueNetworkConfig()
        net, ref = QueueNetwork(cfg, RngStream(7)), ReferenceNetwork(cfg, RngStream(7))
        for k in range(5000):
            if perturb and k % 50 == 0:
                theta = np.array([5.0, 0.3, 2.0, 4.0]) * ((k % 100) / 99 + 0.5)
                net.set_parameter(theta)
                ref.set_parameter(theta)
            assert step_and_state(net) == step_and_state(ref)
        return [e[0] for e in ref.trace if e[1] in ("arr1", "arr2")][:400]

    assert arrival_clocks(False) == arrival_clocks(True)


# ---------------------------------------------------------------------------
# event dynamics


def test_empty_system_first_event_cost_one():
    net = make_net(seed=8)
    assert net.step() == 1.0
    assert net.queue1 + net.queue2 == 1


def test_routing_fraction():
    net = make_net(seed=10)
    while net.node2_completions < 1_000_000:
        net.step()
    frac = net.exits / net.node2_completions
    assert frac == pytest.approx(0.4, abs=0.002)


def test_flow_balance_throughput():
    # solving r1 = lambda1 + (1-p)(r1 + lambda2) gives r1 = 0.26/0.4 = 0.65
    net = make_net(seed=11)
    for _ in range(1_000_000):
        net.step()
    rate = net.node1_completions / net.clock
    assert rate == pytest.approx(0.65, rel=0.02)


@given(seed=st.integers(min_value=0, max_value=10**6))
@settings(max_examples=15, deadline=None)
def test_conservation_and_clock_monotonicity(seed):
    net = make_net(seed=seed, theta=[4.0, 2.0, 0.5, 1.5])
    prev = 0.0
    for _ in range(600):
        net.step()
        assert net.clock >= prev
        prev = net.clock
        assert net.queue1 >= 0 and net.queue2 >= 0
        assert net.external_arrivals - net.exits == net.queue1 + net.queue2
        snap = net.state
        assert snap.next_arrival1 >= snap.clock and snap.next_arrival2 >= snap.clock
        assert (snap.next_completion1 is not None) == (snap.queue1 > 0)
        assert (snap.next_completion2 is not None) == (snap.queue2 > 0)


def test_unstable_start_point_drifts():
    # at the benchmark start the node-1 offered load is about 1.07, so the
    # backlog grows roughly linearly under a frozen parameter
    net = make_net(seed=12, theta=[5.0, 5.0, 5.0, 5.0])
    counts = []
    for _ in range(10):
        for _ in range(100_000):
            net.step()
        counts.append(net.queue1 + net.queue2)
    assert counts[-1] > 5000
    assert counts[-1] > counts[4] > counts[0]
    growth = np.diff(counts)
    assert np.mean(growth > 0) >= 0.8


# ---------------------------------------------------------------------------
# parameter handling


def test_set_parameter_splits_blocks():
    net = make_net(seed=13)
    net.set_parameter(np.array([3.0, 1.0, 1.0, 2.0]))
    assert net._scale1 == pytest.approx((1.0 + 4.0) / 10.0, rel=1e-12)
    assert net._scale2 == pytest.approx((1.0 + 1.0) / 20.0, rel=1e-12)


def test_set_parameter_accepts_unclamped_values():
    net = make_net(seed=14)
    net.set_parameter(np.array([7.5, -2.0, 9.0, -1.0]))
    assert net._scale1 == pytest.approx((1.0 + 6.5**2 + 3.0**2) / 10.0, rel=1e-12)


def test_set_parameter_last_one_wins():
    net = make_net(seed=15)
    net.set_parameter(np.array([4.0, 4.0, 4.0, 4.0]))
    net.set_parameter(np.ones(4))
    assert net._scale1 == pytest.approx(0.1, rel=1e-12)
    assert net._scale2 == pytest.approx(0.05, rel=1e-12)


def test_set_parameter_dimension_mismatch():
    # the one-network install names the vector shapes, not the batch's
    net = make_net(seed=16)
    with pytest.raises(ValueError, match=r"must have shape \(4,\), got \(3,\)"):
        net.set_parameter(np.ones(3))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 1e200])
def test_set_parameter_refuses_a_non_finite_theta(bad):
    # installed, theta_3 = NaN would make node 2's services never complete
    # and its queue only grow; 1e200 is finite but its scale overflows
    net = make_net(seed=21)
    theta = np.array([2.0, 3.0, bad, 0.5])
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="parameter row 0 must be finite"):
        net.set_parameter(theta)
    assert np.array_equal(net.state.theta, net.config.theta_target)  # unchanged


def test_set_parameters_names_the_non_finite_row_and_changes_no_network():
    nets = [make_net(seed=22 + k) for k in range(4)]
    thetas = np.ones((4, 4))
    thetas[2, 3] = math.nan
    with pytest.raises(ValueError, match=r"parameter row 2 must be finite.*nan"):
        QueueNetwork.set_parameters(nets, thetas)
    for net in nets:
        assert np.array_equal(net.state.theta, net.config.theta_target)


def scales_by_the_old_expression(cfg, theta):
    theta = np.asarray(theta, dtype=float)
    g1 = theta[: cfg.N1] - cfg.theta_target[: cfg.N1]
    g2 = theta[cfg.N1 :] - cfg.theta_target[cfg.N1 :]
    return (1.0 + float(g1 @ g1)) / cfg.R1, (1.0 + float(g2 @ g2)) / cfg.R2


@pytest.mark.parametrize("n1,n2", [(1, 3), (2, 2), (3, 1)])
def test_set_parameter_scales_are_bit_exact(n1, n2):
    cfg = QueueNetworkConfig(N1=n1, N2=n2, R1=7.0, R2=3.0,
                             theta_target=np.array([1.0, 0.3, 2.5, 4.0]))
    net = QueueNetwork(cfg, RngStream(18))
    thetas = np.random.default_rng(18).uniform(-3.0, 8.0, (2000, 4))
    for theta in thetas:
        want = scales_by_the_old_expression(cfg, theta)
        for given_as in (theta, theta.tolist()):
            net.set_parameter(given_as)
            assert (net._scale1, net._scale2) == want
    with pytest.raises(ValueError):
        net.set_parameter(np.ones(5))
    with pytest.raises(ValueError):
        net.set_parameter(np.ones((1, 4)))


@pytest.mark.parametrize("n1,n2", [(1, 3), (2, 2), (3, 1)])
def test_set_parameters_batch_scales_equal_per_row_form(n1, n2):
    # the batch install takes (1 + |gap|^2) / R on arrays; every network must
    # get the bits of its own row's (1 + gap @ gap) / R in Python floats
    cfg = QueueNetworkConfig(N1=n1, N2=n2, R1=7.0, R2=3.0,
                             theta_target=np.array([1.0, 0.3, 2.5, 4.0]))
    nets = [QueueNetwork(cfg, RngStream(20, k)) for k in range(250)]
    draws = np.random.default_rng(20).uniform(-3.0, 8.0, (8, len(nets), 4))
    for thetas in draws:
        QueueNetwork.set_parameters(nets, thetas)
        for net, theta in zip(nets, thetas):
            assert (net._scale1, net._scale2) == scales_by_the_old_expression(cfg, theta)
            assert type(net._scale1) is float and np.array_equal(net._theta, theta)
    with pytest.raises(ValueError):
        QueueNetwork.set_parameters(nets, draws[0][:-1])


def test_set_parameter_keeps_its_own_copy():
    net = make_net(seed=19)
    theta = np.array([2.0, 3.0, 1.0, 0.5])
    net.set_parameter(theta)
    theta[0] = 9.0
    seen = net.state.theta
    assert np.array_equal(seen, [2.0, 3.0, 1.0, 0.5])
    seen[1] = 9.0
    assert np.array_equal(net.state.theta, [2.0, 3.0, 1.0, 0.5])


def test_in_progress_service_unaffected():
    net = make_net(seed=17)
    while net.state.next_completion1 is None:
        net.step()
    before = net.state.next_completion1
    net.set_parameter(np.array([5.0, 5.0, 1.0, 1.0]))
    assert net.state.next_completion1 == before


# ---------------------------------------------------------------------------
# lookahead lists against one random() call per draw


class ReferenceNetwork:
    """The feedback network drawn with one RngStream.random() per uniform.

    It keeps its own event list, one (clock, kind, node, q1, q2, cost) row
    per step."""

    def __init__(self, config, rng):
        self.cfg = config
        self.arr1, self.arr2 = rng.child("arrival", 1), rng.child("arrival", 2)
        self.svc1, self.svc2 = rng.child("service", 1), rng.child("service", 2)
        self.route = rng.child("routing")
        self.scale1, self.scale2 = 1.0 / config.R1, 1.0 / config.R2
        self.trace = []
        self.reset()

    def reset(self):
        self.q1 = self.q2 = 0
        self.ta1 = self.arr1.exponential(self.cfg.lambda1)
        self.ta2 = self.arr2.exponential(self.cfg.lambda2)
        self.tc1 = self.tc2 = math.inf

    def set_parameter(self, theta):
        gap = theta - self.cfg.theta_target
        g1, g2 = gap[: self.cfg.N1], gap[self.cfg.N1 :]
        self.scale1 = (1.0 + float(g1 @ g1)) / self.cfg.R1
        self.scale2 = (1.0 + float(g2 @ g2)) / self.cfg.R2

    def step(self):
        t, ev = min((self.tc1, 0), (self.tc2, 1), (self.ta1, 2), (self.ta2, 3))
        if ev == 2:
            self.q1 += 1
            self.ta1 = t + self.arr1.exponential(self.cfg.lambda1)
            if self.q1 == 1:
                self.tc1 = t + self.svc1.random() * self.scale1
        elif ev == 3:
            self.q2 += 1
            self.ta2 = t + self.arr2.exponential(self.cfg.lambda2)
            if self.q2 == 1:
                self.tc2 = t + self.svc2.random() * self.scale2
        elif ev == 0:
            self.q1 -= 1
            self.tc1 = t + self.svc1.random() * self.scale1 if self.q1 else math.inf
            self.q2 += 1
            if self.q2 == 1:
                self.tc2 = t + self.svc2.random() * self.scale2
        else:
            self.q2 -= 1
            self.tc2 = t + self.svc2.random() * self.scale2 if self.q2 else math.inf
            if not self.route.random() < self.cfg.p_exit:
                self.q1 += 1
                if self.q1 == 1:
                    self.tc1 = t + self.svc1.random() * self.scale1
        if self.cfg.count_in_service:
            cost = float(self.q1 + self.q2)
        else:
            cost = float(max(self.q1 - (self.tc1 != math.inf), 0)
                         + max(self.q2 - (self.tc2 != math.inf), 0))
        name = ("svc1", "svc2", "arr1", "arr2")[ev]
        self.trace.append((t, name, 1 + ev % 2, self.q1, self.q2, cost))
        self.clock, self.queue1, self.queue2 = t, self.q1, self.q2
        return cost


def step_and_state(net):
    """One step of a QueueNetwork or a ReferenceNetwork, as (clock, queue1,
    queue2, cost) after it."""
    cost = net.step()
    return net.clock, net.queue1, net.queue2, cost


@pytest.mark.parametrize("count_in_service", [True, False])
def test_lookahead_lists_match_one_draw_per_call(count_in_service):
    cfg = QueueNetworkConfig(count_in_service=count_in_service)
    net = QueueNetwork(cfg, RngStream(21))
    ref = ReferenceNetwork(cfg, RngStream(21))
    thetas = np.random.default_rng(0).uniform(-1.0, 6.0, size=(100, 4))
    steps, ref_steps = [], []
    # 100 blocks of 500 events: every stream refills its 512-draw list several times
    for block, theta in enumerate(thetas):
        if block in (33, 67):
            net.reset()
            ref.reset()
        net.set_parameter(theta)
        ref.set_parameter(theta)
        steps += [step_and_state(net) for _ in range(500)]
        ref_steps += [step_and_state(ref) for _ in range(500)]
    assert steps == ref_steps
    # each event of a kind took at least one draw from its stream, and more
    # than 2032 draws take at least four refills of 512
    assert min(Counter(e[1] for e in ref.trace).values()) > 2032


class ZeroHeads(RngStream):
    """A seed whose child streams all start with ``HEAD``, then run on."""

    HEAD = np.random.default_rng(22).uniform(0.01, 0.99, 300)
    # exact zeros, at the edges of the growing lookahead chunks among others
    HEAD[[0, 31, 32, 33, 95, 96, 150, 223, 224]] = 0.0

    def child(self, *tags):
        stream = super().child(*tags)
        return HeadStream(stream.seed, self.HEAD, stream.stream_id)


@pytest.mark.parametrize("count_in_service", [True, False])
def test_lookahead_arrays_skip_exact_zeros_as_random_does(count_in_service):
    cfg = QueueNetworkConfig(count_in_service=count_in_service)
    net = QueueNetwork(cfg, ZeroHeads(23))
    ref = ReferenceNetwork(cfg, ZeroHeads(23))
    assert all(isinstance(ahead, array) and ahead.typecode == "d" for ahead in net._ahead)
    steps, ref_steps = [], []
    for theta in np.random.default_rng(1).uniform(-1.0, 6.0, size=(12, 4)):
        net.set_parameter(theta)
        ref.set_parameter(theta)
        steps += [step_and_state(net) for _ in range(500)]
        ref_steps += [step_and_state(ref) for _ in range(500)]
    assert steps == ref_steps
    # each kind of event drew from its stream past the scripted head
    assert min(Counter(e[1] for e in ref.trace).values()) > len(ZeroHeads.HEAD)


# ---------------------------------------------------------------------------
# config


def test_config_validation():
    with pytest.raises(ValueError):
        QueueNetworkConfig(lambda1=0.0)
    for key in ("lambda1", "lambda2", "R1", "R2"):  # NaN fails every comparison
        with pytest.raises(ValueError):
            QueueNetworkConfig(**{key: math.nan})
    with pytest.raises(ValueError):
        QueueNetworkConfig(p_exit=1.0)
    with pytest.raises(ValueError):
        QueueNetworkConfig(N1=0)
    with pytest.raises(ValueError):
        QueueNetworkConfig(theta_target=np.ones(3))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_config_refuses_a_non_finite_theta_target(bad):
    # the network installs its target with no check of its own, so the
    # config is where a non-finite one is refused
    with pytest.raises(ValueError, match=r"theta_target must be finite, got \[1\.0, 2\.0, "):
        QueueNetworkConfig(theta_target=np.array([1.0, 2.0, bad, 1.0]))


@pytest.mark.parametrize("n1,n2", [(1, 3), (2, 2), (3, 1)])
def test_network_starts_at_its_target_with_the_bits_of_an_install(n1, n2):
    cfg = QueueNetworkConfig(N1=n1, N2=n2, R1=7.0, R2=3.0, theta_target=np.array([1.0, 0.3, 2.5, 4.0]))
    built, installed = QueueNetwork(cfg, RngStream(19)), QueueNetwork(cfg, RngStream(19))
    installed.set_parameter(cfg.theta_target)
    assert (built._scale1, built._scale2) == (installed._scale1, installed._scale2) == (1.0 / 7.0, 1.0 / 3.0)
    assert built.state.theta.tobytes() == cfg.theta_target.tobytes()
    assert not np.shares_memory(built._theta, cfg.theta_target)
    assert [built.step() for _ in range(500)] == [installed.step() for _ in range(500)]


def test_count_in_service_flag():
    busy = make_net(seed=18)
    idle_counted = QueueNetwork(
        QueueNetworkConfig(count_in_service=False), RngStream(18)
    )
    c1 = [busy.step() for _ in range(200)]
    c2 = [idle_counted.step() for _ in range(200)]
    # waiting-room counts are never larger and differ once servers are busy
    assert all(b <= a for a, b in zip(c1, c2))
    assert any(b < a for a, b in zip(c1, c2))

