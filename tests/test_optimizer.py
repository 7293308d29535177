import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsf import qgauss
from qsf.errors import DivergenceError
from qsf.optimizer import (
    IterationRecord,
    OptimizerSettings,
    RunTrace,
    TwoTimescaleConfig,
    fast_timescale_diagnostic,
    project,
    run_gaussian_sf,
    run_lanes,
    run_qsf,
    step_size_a,
    step_size_b,
)
from qsf.oracles import lambda_q, smoothed_gradient_1d
from qsf.qgauss import QGaussianSpec
from qsf.queuesim import QueueNetwork, QueueNetworkConfig
from qsf.rng import RngStream
from helpers import HeadStream, ndarray_loop, scripted_stream
from test_qgauss import BAD_BETA, BAD_Q


class QuadraticSystem:
    """Deterministic black box: cost = |effective parameter - target|^2."""

    def __init__(self, target=1.0):
        self.target = target
        self.theta = None

    def set_parameter(self, theta):
        self.theta = np.asarray(theta, dtype=float)

    def step(self):
        return float(np.sum((self.theta - self.target) ** 2))


class ConstantSystem:
    def __init__(self, cost=3.0):
        self.cost = cost

    def set_parameter(self, theta):
        pass

    def step(self):
        return self.cost


class ExplodingSystem:
    def __init__(self):
        self.cost = 1.0

    def set_parameter(self, theta):
        pass

    def step(self):
        self.cost *= 4.0
        return self.cost


def make_cfg(q=1.5, beta=0.1, m=200, ell=5, seed=1, dim=1, **kw):
    return TwoTimescaleConfig(
        num_iterations=m,
        samples_per_iteration=ell,
        q=q,
        beta=beta,
        box_min=np.zeros(dim),
        box_max=np.full(dim, 5.0),
        theta0=np.full(dim, 5.0) if "theta0" not in kw else kw.pop("theta0"),
        seed=RngStream(seed),
        **kw,
    )


# ---------------------------------------------------------------------------
# step-size schedules


def test_step_size_values():
    assert step_size_a(0) == 1.0
    assert step_size_a(3) == 0.25
    assert step_size_b(0) == 1.0
    assert step_size_b(7) == pytest.approx(0.25, rel=1e-12)


def test_timescale_separation():
    ratios = [step_size_a(n) / step_size_b(n) for n in (0, 10, 1000, 10**6)]
    assert all(r2 < r1 for r1, r2 in zip(ratios, ratios[1:]))
    assert ratios[-1] == pytest.approx((10**6 + 1) ** (-1 / 3), rel=1e-12)


def test_schedule_sums_smoke():
    # divergent sums with square-summable tails, checked on partial sums
    n = np.arange(0, 10**6, dtype=float)
    a = 1.0 / (n + 1.0)
    b = (n + 1.0) ** (-2.0 / 3.0)
    assert a.sum() > 10.0 and b.sum() > 100.0  # grow without bound (log / cube root)
    assert np.sum(a**2) < math.pi**2 / 6.0 + 1e-9  # classical bound
    assert np.sum(b[10**3 :] ** 2) < np.sum(b[: 10**3] ** 2)  # square-summable tail


# ---------------------------------------------------------------------------
# projection


def test_project_clamp_example():
    out = project(np.array([6.0, -1.0]), np.zeros(2), np.full(2, 5.0))
    assert np.array_equal(out, np.array([5.0, 0.0]))


@given(st.lists(st.floats(min_value=-100, max_value=100), min_size=1, max_size=4))
@settings(max_examples=50, deadline=None)
def test_project_idempotent_and_feasible(vals):
    theta = np.array(vals)
    lo, hi = np.full(len(vals), -2.0), np.full(len(vals), 3.0)
    once = project(theta, lo, hi)
    assert np.all(once >= lo) and np.all(once <= hi)
    assert np.array_equal(project(once, lo, hi), once)
    inside = np.clip(theta, -1.9, 2.9)
    assert np.array_equal(project(inside, lo, hi), inside)


# ---------------------------------------------------------------------------
# config validation


def test_config_validation():
    for q in BAD_Q:
        with pytest.raises(ValueError, match="q must be"):
            make_cfg(q=q)
    for beta in BAD_BETA:
        with pytest.raises(ValueError, match="beta must be"):
            make_cfg(beta=beta)
    with pytest.raises(ValueError):
        make_cfg(theta0=np.array([6.0]))  # outside the box
    with pytest.raises(ValueError):
        OptimizerSettings(theta0=[math.nan, 5.0, 5.0, 5.0])  # NaN fails every comparison
    for name, key in (("num_iterations", "m"), ("samples_per_iteration", "ell")):
        for size in (2.5, True, 0):  # a bool is not a size
            with pytest.raises(ValueError, match=f"{name} must be an integer >= 1"):
                make_cfg(**{key: size})
    with pytest.raises(ValueError):
        TwoTimescaleConfig(
            num_iterations=1, samples_per_iteration=1, q=1.0, beta=0.1,
            box_min=np.array([1.0]), box_max=np.array([0.0]),
            theta0=np.array([0.5]), seed=RngStream(0),
        )


# ---------------------------------------------------------------------------
# the full loop


def test_trace_shape_and_feasibility():
    cfg = make_cfg(m=50, ell=3)
    trace = run_qsf(QuadraticSystem(), cfg)
    assert len(trace.records) == 51
    assert np.array_equal(trace.records[0].theta, cfg.theta0)
    assert np.array_equal(trace.records[0].z, np.zeros(1))
    assert math.isnan(trace.records[0].block_mean_cost)
    for rec in trace.records:
        assert np.all(rec.theta >= cfg.box_min) and np.all(rec.theta <= cfg.box_max)
    for rec in trace.records[1:]:
        assert math.isfinite(rec.block_mean_cost)
    assert np.array_equal(trace.final_theta, trace.records[-1].theta)


def test_run_is_deterministic():
    t1 = run_qsf(QuadraticSystem(), make_cfg(seed=42))
    t2 = run_qsf(QuadraticSystem(), make_cfg(seed=42))
    assert np.array_equal(t1.thetas(), t2.thetas())
    t3 = run_qsf(QuadraticSystem(), make_cfg(seed=43))
    assert not np.array_equal(t1.thetas(), t3.thetas())


def test_toy_quadratic_converges_with_descent_oracle():
    # oracle: exact projected gradient descent with the same slow schedule on
    # the same cost shows the schedule reaches the minimizer
    for q in (0.9, 1.5):
        theta, lam = 5.0, lambda_q(q, 1)
        for n in range(2000):
            theta = min(max(theta - step_size_a(n) * lam * 2.0 * (theta - 1.0), 0.0), 5.0)
        assert abs(theta - 1.0) < 0.05
        trace = run_qsf(QuadraticSystem(), make_cfg(q=q, m=2000, ell=10, seed=7))
        assert abs(trace.final_theta[0] - 1.0) < 0.2


def test_constant_cost_has_no_drift():
    # gradient of a flat cost is zero and the perturbations have zero q-mean,
    # so displacements over seeds must be centered on zero
    disps = []
    for seed in range(20):
        cfg = make_cfg(q=1.5, beta=0.2, m=100, ell=2, seed=100 + seed,
                       theta0=np.array([2.5]))
        trace = run_qsf(ConstantSystem(), cfg)
        disps.append(trace.final_theta[0] - 2.5)
    disps = np.array(disps)
    se = disps.std(ddof=1) / math.sqrt(len(disps))
    assert abs(disps.mean()) < 3.0 * se


def test_q1_matches_gaussian_baseline_bitwise():
    cfg = make_cfg(q=1.0, beta=0.25, m=150, ell=4, seed=11)
    a = run_qsf(QuadraticSystem(), cfg)
    b = run_gaussian_sf(QuadraticSystem(), cfg)
    assert np.array_equal(a.thetas(), b.thetas())
    for ra, rb in zip(a.records, b.records):
        assert np.array_equal(ra.z, rb.z)


def test_gaussian_baseline_ignores_q():
    cfg_a = make_cfg(q=1.0, seed=12)
    cfg_b = make_cfg(q=2.0, seed=12)
    a = run_gaussian_sf(QuadraticSystem(), cfg_a)
    b = run_gaussian_sf(QuadraticSystem(), cfg_b)
    assert np.array_equal(a.thetas(), b.thetas())


def test_block_start_flag_changes_update():
    latest = run_qsf(QuadraticSystem(), make_cfg(seed=13))
    stale = run_qsf(QuadraticSystem(), make_cfg(seed=13, use_block_start_z=True))
    assert not np.array_equal(latest.thetas(), stale.thetas())
    # the very first update uses Z(0) = 0 under the block-start reading
    assert np.array_equal(stale.records[1].theta, stale.records[0].theta)


def test_divergence_guard_records_diagnostics():
    # the costs grow fourfold a step and push Z past the 1e12 band
    cfg = make_cfg(m=400, ell=5, seed=14)
    with pytest.raises(DivergenceError) as exc_info:
        run_qsf(ExplodingSystem(), cfg)
    err = exc_info.value
    assert 0 <= err.iteration < 400
    assert err.perturbation.shape == (1,)
    assert err.cost > 0.0
    assert np.max(np.abs(err.z)) > 1e12 or not np.all(np.isfinite(err.z))


class NanSystem(ConstantSystem):
    def step(self):
        return math.nan


def test_divergence_guard_trips_on_nan_and_reports_last_cost():
    with pytest.raises(DivergenceError) as exc_info:
        run_qsf(NanSystem(), make_cfg(m=10, ell=3, seed=14))
    assert exc_info.value.iteration == 0 and math.isnan(exc_info.value.cost)
    system = ExplodingSystem()
    with pytest.raises(DivergenceError) as exc_info:
        run_qsf(system, make_cfg(m=400, ell=5, seed=14))
    assert exc_info.value.cost == system.cost


def test_fast_timescale_divergence_reports_last_cost():
    system = ExplodingSystem()
    cfg = make_cfg(m=400, ell=5, seed=14)
    with pytest.raises(DivergenceError) as exc_info:
        fast_timescale_diagnostic(system, np.array([2.0]), cfg)
    assert exc_info.value.cost == system.cost
    with pytest.raises(DivergenceError):
        fast_timescale_diagnostic(NanSystem(), np.array([2.0]), cfg)


def test_run_without_records_keeps_the_final_point():
    # the sweep's lanes keep no records
    cfg = make_cfg(q=0.9, m=60, ell=4, seed=17, dim=3)
    full = run_qsf(QuadraticSystem(), cfg)
    (bare,) = run_lanes([QuadraticSystem()], cfg, [(cfg.q, cfg.beta, cfg.seed)])
    assert bare.records == ()
    assert np.array_equal(bare.final_theta, full.final_theta)


def test_distances_helper():
    cfg = make_cfg(m=20, ell=2, seed=15)
    trace = run_qsf(QuadraticSystem(), cfg)
    d = trace.distances(np.array([1.0]))
    assert d.shape == (21,)
    assert d[0] == pytest.approx(4.0)


# ---------------------------------------------------------------------------
# fast-timescale tracker


def test_fast_timescale_constant_cost_tracks_zero():
    cfg = make_cfg(q=1.5, beta=0.2, m=20000, ell=1, seed=16)
    z = fast_timescale_diagnostic(ConstantSystem(5.0), np.array([2.0]), cfg)
    assert abs(z[0]) < 0.2


@pytest.mark.parametrize("q,seed,tol", [(1.0, 21, 0.25), (2.0, 23, 0.3)])
def test_fast_timescale_tracks_scaled_smoothed_gradient(q, seed, tol):
    # short-horizon check; the acceptance suite runs the long-horizon version
    theta, beta = 2.0, 0.5
    cfg = make_cfg(q=q, beta=beta, m=20000, ell=1, seed=seed)
    z = fast_timescale_diagnostic(QuadraticSystem(), np.array([theta]), cfg)
    target = (3.0 - q) / 2.0 * smoothed_gradient_1d(
        lambda t: (t - 1.0) ** 2, theta, q, beta
    )
    assert abs(z[0] - target) < tol * abs(target)


# ---------------------------------------------------------------------------
# bit-exactness of the lane loop against the per-block ndarray reference


def outcome(run):
    """The bits of a run: every record, or the diagnostics of its divergence."""
    try:
        trace = run()
    except DivergenceError as err:
        return ("diverged", err.iteration, err.perturbation.tobytes(), repr(err.cost), err.z.tobytes())
    rows = [(r.n, r.theta.tobytes(), r.z.tobytes(), repr(r.block_mean_cost)) for r in trace.records]
    return ("ran", trace.final_theta.tobytes(), trace.final_z.tobytes(), rows)


def final_outcome(run):
    """:func:`outcome` without the records, for runs that keep none."""
    got = outcome(run)
    return got[:3] if got[0] == "ran" else got


def network_cfg(q, seed, block_start, m=150, ell=3, beta=0.25):
    return TwoTimescaleConfig(
        num_iterations=m, samples_per_iteration=ell, q=q, beta=beta,
        box_min=np.zeros(4), box_max=np.full(4, 5.0), theta0=np.full(4, 5.0),
        seed=RngStream(seed), use_block_start_z=block_start,
    )


def fresh_network(seed):
    return QueueNetwork(QueueNetworkConfig(), RngStream(seed, 1))


@pytest.mark.parametrize("block_start", [False, True])
@pytest.mark.parametrize("q", [0.0, 0.5, 0.9, 1.0, 1.5, 2.5])
def test_run_loop_matches_ndarray_loop_bitwise(q, block_start):
    for seed, beta in ((31, 0.25), (32, 2.5)):
        cfg = network_cfg(q, seed, block_start, beta=beta)
        want = outcome(lambda: ndarray_loop(fresh_network(seed), cfg, q, True))
        assert outcome(lambda: run_qsf(fresh_network(seed), cfg)) == want
        assert want[0] == "ran" and len(want[3]) == cfg.num_iterations + 1
        # the Gaussian baseline is the unweighted loop at q = 1, whatever cfg.q is
        want = outcome(lambda: ndarray_loop(fresh_network(seed), cfg, 1.0, False))
        assert outcome(lambda: run_gaussian_sf(fresh_network(seed), cfg)) == want
    # dim 1, with clamping at both ends of the box
    cfg = make_cfg(q=q, beta=1.5, m=300, ell=2, seed=33, use_block_start_z=block_start,
                   theta0=np.array([0.5]))
    want = outcome(lambda: ndarray_loop(QuadraticSystem(target=4.8), cfg, q, True))
    assert outcome(lambda: run_qsf(QuadraticSystem(target=4.8), cfg)) == want


@pytest.mark.parametrize("q", [0.5, 1.0, 2.0])
def test_frozen_run_matches_ndarray_tracker_bitwise(q):
    cfg = network_cfg(q, 34, False, m=400, ell=2)
    theta = np.array([1.5, 0.5, 2.0, 3.0])
    want = ndarray_loop(fresh_network(34), cfg, q, True, frozen_theta=theta).final_z
    got = fast_timescale_diagnostic(fresh_network(34), theta, cfg)
    assert got.tobytes() == want.tobytes()


class InfSystem(ConstantSystem):
    def __init__(self, after):
        self.left = after

    def step(self):
        self.left -= 1
        return math.inf if self.left < 0 else 2.0


@pytest.mark.parametrize("make_system", [NanSystem, lambda: InfSystem(37), ExplodingSystem],
                         ids=["nan", "inf", "exploding"])
@pytest.mark.parametrize("q", [0.5, 1.5])
def test_guard_trips_as_in_ndarray_loop(make_system, q):
    cfg = make_cfg(q=q, m=400, ell=5, seed=35, dim=4)
    want = outcome(lambda: ndarray_loop(make_system(), cfg, q, True))
    assert want[0] == "diverged"
    assert outcome(lambda: run_qsf(make_system(), cfg)) == want
    frozen = np.full(4, 2.0)
    want = outcome(lambda: ndarray_loop(make_system(), cfg, q, True, frozen_theta=frozen))
    assert outcome(lambda: fast_timescale_diagnostic(make_system(), frozen, cfg)) == want


# ---------------------------------------------------------------------------
# lanes: K recursions in lockstep


def test_vecdot_rows_equal_per_row_matmul():
    # The lane loop and QueueNetwork.set_parameters take their row dot
    # products with np.vecdot; every row must get the bits of its own `@`.
    g = np.random.default_rng(41).uniform(-3.0, 8.0, (100_000, 4))
    for rows in [g] + [part for n1 in (1, 2, 3) for part in (g[:, :n1], g[:, n1:])]:
        contiguous = np.ascontiguousarray(rows)
        want = np.array([r @ r for r in contiguous]).tobytes()
        assert np.vecdot(rows, rows).tobytes() == want
        assert np.vecdot(contiguous, contiguous).tobytes() == want
        stacked = contiguous.reshape(1000, 100, -1)  # (blocks, lanes, dim), as the perturbations
        assert np.vecdot(stacked, stacked).tobytes() == want


class ScriptedSeed(RngStream):
    """A seed whose perturbation stream starts with ``head``, then runs on."""

    __slots__ = ("head",)

    def __init__(self, seed, head):
        super().__init__(seed)
        self.head = head

    def child(self, *tags):
        stream = super().child(*tags)
        if tags == ("perturbation",):
            return HeadStream(stream.seed, self.head, stream.stream_id)
        return stream


def lane_cfg(q, beta, seed, m=150):
    # Uniforms for 40 blocks in dim 4: an exact zero in block 3, which the
    # stream's reader skips, and for q < 1 a draw on the support radius in
    # block 6 (u1 -> 0, u2 = 1/2 give |z| = sqrt((3-q)/(1-q))), which the
    # lane keeps.
    raw = np.random.default_rng(seed).uniform(0.05, 0.95, (40, 2, 4))
    raw[3, 1, 2] = 0.0
    if q < 1.0:
        raw[6, 0, 1], raw[6, 1, 1] = 1e-300, 0.5
    return replace(network_cfg(q, seed, False, m=m, beta=beta), seed=ScriptedSeed(seed, raw.ravel()))


LANE_QS = (0.0, 0.5, 0.9, 1.0, 1.5, 2.5)


def replay(result):
    """A run that returns a lane's trace, or raises its DivergenceError."""
    def run():
        if isinstance(result, DivergenceError):
            raise result
        return result
    return run


def test_lanes_match_one_lane_runs_bitwise():
    cells = [(q, beta) for q in LANE_QS for beta in (0.25, 2.5)]
    cfgs = [lane_cfg(q, beta, 50 + i) for i, (q, beta) in enumerate(cells)]
    lanes = run_lanes([fresh_network(i) for i in range(len(cfgs))], cfgs[0],
                      [(c.q, c.beta, c.seed) for c in cfgs], keep_records=True)
    for i, (cfg, lane) in enumerate(zip(cfgs, lanes)):
        got = outcome(replay(lane))
        assert got[0] == "ran" and len(got[3]) == cfg.num_iterations + 1
        assert got == outcome(lambda: run_qsf(fresh_network(i), cfg))
        assert got == outcome(lambda: ndarray_loop(fresh_network(i), cfg, cfg.q, True))


class FiniteRowSystem(QuadraticSystem):
    """A quadratic system whose batch install refuses a non-finite row."""

    @staticmethod
    def set_parameters(systems, thetas):
        assert np.isfinite(thetas).all(), thetas
        for system, theta in zip(systems, thetas):
            system.set_parameter(theta)


@pytest.mark.parametrize("q", [-1.0, -1e6])
def test_an_extreme_draw_of_a_negative_q_is_stopped_by_the_guard(q):
    # The first draw is the most extreme Philox can give, u1 = 2^-53 with
    # u2 = 1/2: |eta| lies within 1e-15 of the radius, and the lane keeps
    # it. Its weight, about 4.5e15 in size, takes the tracker past the band
    # at iteration 0, with no NumPy warning and no non-finite row installed.
    cfg = replace(make_cfg(q=q, m=64), seed=ScriptedSeed(5, [2.0**-53, 0.5]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DivergenceError) as err:
            run_qsf(FiniteRowSystem(), cfg)
    assert err.value.iteration == 0
    eta = err.value.perturbation
    assert abs(eta[0]) == pytest.approx(QGaussianSpec(q).radius, rel=1e-14)
    assert abs(1.0 / qgauss.weight_base(eta @ eta, q)) > 1e15


@pytest.mark.parametrize("cost", [3.0, 0.0])
def test_a_draw_on_the_support_radius_is_stopped_by_the_guard_without_a_warning(cost):
    # u1 = 2^-53 with u2 = 1/2 puts a dim-1 value of many q < 0 exactly on
    # the radius; a search over q in [-50, 0) found -49.975 to be one. The
    # bracket is 0 there, so the weight would be 1/0, and with a zero cost
    # the tracker update would take inf * 0. The guard drops the lane at
    # iteration 0, and NumPy warns of neither.
    q = -49.975
    eta = qgauss.sample_batch(scripted_stream([2.0**-53, 0.5]), q, 1)
    assert qgauss.weight_base(eta @ eta, q) == 0.0
    cfg = replace(make_cfg(q=q, m=1, ell=1), seed=ScriptedSeed(5, [2.0**-53, 0.5]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DivergenceError) as err:
            run_qsf(ConstantSystem(cost), cfg)
    assert err.value.iteration == 0
    assert err.value.perturbation.tobytes() == eta.tobytes()
    assert not np.isfinite(err.value.z).any()


class BlowUpNetwork(QueueNetwork):
    """A queue network whose cost turns infinite after ``after`` steps."""

    __slots__ = ("left",)

    def __init__(self, config, rng, after):
        super().__init__(config, rng)
        self.left = after

    def step(self):
        self.left -= 1
        return math.inf if self.left < 0 else super().step()


def test_a_diverging_lane_is_dropped_and_the_others_keep_their_bits():
    cfgs = [network_cfg(q, 60 + i, False) for i, q in enumerate((0.5, 1.0, 1.5, 2.5))]

    def system(i):
        if i == 1:
            return BlowUpNetwork(QueueNetworkConfig(), RngStream(i, 1), after=200)
        return fresh_network(i)

    lanes = run_lanes([system(i) for i in range(4)], cfgs[0], [(c.q, c.beta, c.seed) for c in cfgs])
    assert isinstance(lanes[1], DivergenceError)
    for i, (cfg, lane) in enumerate(zip(cfgs, lanes)):
        alone = final_outcome(lambda: run_qsf(system(i), cfg))
        assert final_outcome(replay(lane)) == alone
        assert alone[0] == ("diverged" if i == 1 else "ran")
    assert lanes[1].iteration == 200 // cfgs[1].samples_per_iteration


@pytest.mark.parametrize("field,value", [
    ("num_iterations", 500), ("samples_per_iteration", 4), ("box_min", np.full(4, -1.0)),
    ("box_max", np.full(4, 6.0)), ("theta0", np.ones(4)), ("use_block_start_z", True),
])
def test_lanes_must_share_the_loop_settings(field, value):
    # one settings object serves every lane: each lane runs under the
    # changed value exactly as the reference loop does with it. The second
    # lane's small beta drives theta onto the box, so every value here
    # changes that lane's outcome.
    cfgs = [replace(network_cfg(q, seed, False, m=70, beta=beta), **{field: value})
            for q, seed, beta in ((1.5, 80, 0.25), (0.5, 81, 1e-5))]
    lanes = run_lanes([fresh_network(0), fresh_network(1)], cfgs[0],
                      [(c.q, c.beta, c.seed) for c in cfgs], keep_records=True)
    for i, (cfg, lane) in enumerate(zip(cfgs, lanes)):
        assert outcome(replay(lane)) == outcome(lambda: ndarray_loop(fresh_network(i), cfg, cfg.q, True))
