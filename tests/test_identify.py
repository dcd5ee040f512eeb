import dataclasses
import logging
import math

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from esnkit import (Activation, FrozenCovs, LtiModel, NoiseModel, Readout,
                    ReservoirParams, SmoothedPosterior, StructuredBasis,
                    Verdict, ekf_filter, em_run, em_step, jacobians_at,
                    kalman_filter, project_structured, readout_bayes,
                    readout_ml, rts_smoother, simulate, subspace_shape)
from esnkit import identify, predictive
from esnkit.core import leaky_jacobians

from conftest import count_step_helpers, counts_by_horizon, make_reservoir, \
    traced_peak_mib
from oracles import ekf_reference, joint_gaussian_posterior, \
    kalman_rts_reference, m_step_reference, posterior_blocks, \
    random_stable_system

POSTERIOR_ARRAYS = ("filtered_means", "filtered_covs", "predicted_means",
                    "predicted_covs", "smoothed_means", "smoothed_covs",
                    "cross_covs")
COVARIANCE_FIELDS = ("filtered_covs", "predicted_covs", "smoothed_covs",
                     "cross_covs")


def assert_reads_like(got, want, indices, rel):
    """The FrozenCovs ``got`` reads like the full array ``want``:
    its length, the given indices (skipped when out of range), the slices
    [:], [1:] and [:-1] and their sums over axis 0, each to ``rel``."""
    scale = np.abs(want).max()
    assert len(got) == len(want)
    for i in indices:
        if -len(want) <= i < len(want):
            assert np.abs(got[i] - want[i]).max() <= rel * scale, i
            assert np.abs(got[i, 0] - want[i, 0]).max() <= rel * scale, i
    for key in (slice(None), slice(1, None), slice(None, -1)):
        part, whole = got[key], want[key]
        assert len(part) == len(whole)
        assert np.abs(np.asarray(part) - whole).max() <= rel * scale, key
        total = whole.sum(axis=0)
        assert (np.abs(part.sum(axis=0) - total).max()
                <= rel * np.abs(whole).sum(axis=0).max()), key


def steady_step(post):
    """The step t at which the filter froze its covariance recursion, read
    off the counts (the last filtered block, for step t + 1, repeats), or
    None."""
    counts = post.filtered_covs.counts
    return len(counts) - 2 if counts[-1] > 1 else None


def scalar_system(a=0.5, q=0.1, c=1.0, r=0.1):
    lti = LtiModel(A=[[a]], B=[[0.0]], C=[[c]], D=[[0.0]])
    noise = NoiseModel(Q=[[q]], R=[[r]])
    return lti, noise


@st.composite
def frozen_covs(draw):
    """A FrozenCovs of k <= 5 random (n, n) blocks, n <= 3, each repeated
    0..4 times, and the full array it stands for."""
    counts = draw(st.lists(st.integers(0, 4), max_size=5))
    n = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    mats = rng.standard_normal((len(counts), n, n))
    return FrozenCovs(mats, counts), np.repeat(mats, counts, axis=0)


class TestFrozenCovs:
    def test_full_array_layout(self):
        mats = np.arange(12.0).reshape(3, 2, 2)
        seq = FrozenCovs(mats, [2, 0, 3])
        assert len(seq) == 5
        assert np.array_equal(np.asarray(seq), mats[[0, 0, 2, 2, 2]])
        with pytest.raises(ValueError, match=r"mats must be \(k, n, n\)"):
            FrozenCovs(mats[0], [1, 1])
        for counts in ([1, 1], [1, -1, 1], [1.0, 1.0, 1.0]):
            with pytest.raises(ValueError, match="counts must be 3 integers"):
                FrozenCovs(mats, counts)

    def test_sums_over_the_step_axis_only(self):
        seq = FrozenCovs(np.eye(2)[None], [3])
        assert np.array_equal(seq.sum(), 3.0 * np.eye(2))
        with pytest.raises(ValueError, match="^FrozenCovs sums over axis 0 only$"):
            seq.sum(axis=1)

    @settings(max_examples=30)
    @given(frozen_covs())
    def test_every_index_and_slice_matches_the_array(self, pair):
        seq, full = pair
        size = len(full)
        assert len(seq) == size
        for i in range(-size, size):
            assert np.array_equal(seq[i], full[i])
            for row in range(full.shape[1]):
                assert np.array_equal(seq[i, row], full[i, row])
                assert np.array_equal(seq[i, row, 0], full[i, row, 0])
        # the sums differ only in rounding, of at most 20 terms <= max|mats|
        tol = 1e-14 * np.abs(full).max(initial=1.0)
        for start in [None, *range(-size - 1, size + 2)]:
            for stop in [None, *range(-size - 1, size + 2)]:
                part, want = seq[start:stop], full[start:stop]
                assert isinstance(part, FrozenCovs)
                assert part.mats.base is seq.mats.base
                assert len(part) == len(want)
                assert np.array_equal(np.asarray(part), want)
                assert np.abs(part.sum(axis=0) - want.sum(axis=0)).max() <= tol

    def test_read_only_and_unsupported_access(self):
        seq = FrozenCovs(np.ones((2, 2, 2)), [3, 1])
        with pytest.raises(ValueError, match="read-only"):
            seq[1][0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            seq.counts[0] = 0
        with pytest.raises(IndexError):
            seq[4]
        with pytest.raises(IndexError):
            seq[-5, 0]
        with pytest.raises(TypeError, match="np.asarray"):
            seq[::2]
        with pytest.raises(TypeError, match="np.asarray"):
            seq[:, 0, 0]
        with pytest.raises(ValueError, match="must be copied"):
            np.asarray(seq, copy=False)

    @pytest.mark.parametrize("path", ["frozen", "ekf"])
    def test_iteration_walks_the_blocks(self, path, monkeypatch):
        # each block is yielded count times, with no integer lookup
        rng = np.random.default_rng(38)
        inputs, outputs = np.zeros((200, 1)), rng.standard_normal((200, 1))
        lti, noise = scalar_system()
        prior = (np.zeros(1), np.eye(1))
        if path == "ekf":
            post = ekf_filter(make_reservoir(n=1, m=1, seed=38),
                              Readout(C=[[1.0]]), noise, inputs, outputs,
                              prior)
        else:
            post = rts_smoother(kalman_filter(lti, noise, inputs, outputs,
                                              prior), lti, noise)
            assert (post.filtered_covs.counts > 1).any()
        fields = [getattr(post, name) for name in COVARIANCE_FIELDS
                  if getattr(post, name) is not None]
        wants = [list(np.asarray(covs)) for covs in fields]
        lookups = []
        getitem = FrozenCovs.__getitem__
        monkeypatch.setattr(FrozenCovs, "__getitem__",
                            lambda *args: lookups.append(1) or getitem(*args))
        for covs, want in zip(fields, wants):
            got = list(covs)
            assert len(got) == len(want)
            assert all(np.array_equal(g, w) for g, w in zip(got, want))
        assert lookups == []

    @pytest.mark.parametrize("path", ["frozen", "unfrozen", "T=0", "n=0",
                                      "ekf", "hand-built"])
    def test_every_posterior_covariance_field_is_one(self, path):
        # an array given to SmoothedPosterior becomes one block per step, so
        # every filter and smoother pass returns the one type; only a frozen
        # LTI run repeats its last block
        rng = np.random.default_rng(37)
        horizon = {"frozen": 200, "T=0": 0}.get(path, 3)
        inputs = np.zeros((horizon, 1))
        outputs = rng.standard_normal((horizon, 1))
        lti, noise = scalar_system()
        prior = (np.zeros(1), np.eye(1))
        if path == "n=0":
            lti = LtiModel(A=np.zeros((0, 0)), B=np.zeros((0, 1)),
                           C=np.zeros((1, 0)), D=np.zeros((1, 1)))
            noise = NoiseModel(Q=np.zeros((0, 0)), R=[[0.1]])
            prior = (np.zeros(0), np.zeros((0, 0)))
        if path == "ekf":
            filt = ekf_filter(make_reservoir(n=1, m=1, seed=37),
                              Readout(C=[[1.0]]), noise, inputs, outputs,
                              prior)
        elif path == "hand-built":
            given = {"filtered_covs": rng.uniform(1, 2, (4, 1, 1)),
                     "predicted_covs": rng.uniform(1, 2, (3, 1, 1))}
            filt = SmoothedPosterior(filtered_means=np.zeros((4, 1)),
                                     predicted_means=np.zeros((3, 1)),
                                     loglik=0.0, **given)
            for name, covs in given.items():
                assert np.array_equal(np.asarray(getattr(filt, name)), covs)
        else:
            filt = kalman_filter(lti, noise, inputs, outputs, prior)
        post = rts_smoother(filt, lti, noise)
        assert filt.smoothed_covs is None and filt.cross_covs is None
        for name in COVARIANCE_FIELDS:
            assert isinstance(getattr(post, name), FrozenCovs), name
            assert (getattr(post, name).counts == 1).all() != (
                path == "frozen"), name
        assert len(post.smoothed_covs) == horizon + 1
        assert len(post.cross_covs) == horizon


class TestKalmanFilter:
    def test_scalar_hand_computed_step(self):
        # prior N(0,1), A=0.5, Q=0.1, C=1, R=0.1, y_1 = 1:
        # predicted (0, 0.35), gain 7/9, filtered (7/9, 0.35 * 2/9)
        lti, noise = scalar_system()
        post = kalman_filter(lti, noise, np.zeros((1, 1)), np.array([[1.0]]),
                             (np.zeros(1), np.eye(1)))
        assert post.predicted_means[0, 0] == pytest.approx(0.0, abs=1e-15)
        assert post.predicted_covs[0, 0, 0] == pytest.approx(0.35, rel=1e-12)
        assert post.filtered_means[1, 0] == pytest.approx(7.0 / 9.0, rel=1e-12)
        assert post.filtered_covs[1, 0, 0] == pytest.approx(0.35 * 2.0 / 9.0,
                                                            rel=1e-12)
        # innovations likelihood of y_1 ~ N(0, 0.45)
        expect_ll = -0.5 * (np.log(2 * np.pi) + np.log(0.45) + 1.0 / 0.45)
        assert post.loglik == pytest.approx(expect_ll, rel=1e-12)

    def test_uninformative_measurement_limit(self):
        lti, _ = scalar_system()
        noise = NoiseModel(Q=[[0.1]], R=[[1e12]])
        rng = np.random.default_rng(0)
        outputs = rng.standard_normal((20, 1))
        post = kalman_filter(lti, noise, np.zeros((20, 1)), outputs,
                             (np.zeros(1), np.eye(1)))
        gap = np.abs(post.filtered_means[1:] - post.predicted_means)
        assert gap.max() <= 1e-6

    def test_exact_observation_limit(self):
        n = 3
        a, b, c = random_stable_system(n, 1, n, seed=1)
        lti = LtiModel(A=a, B=b, C=np.eye(n), D=np.zeros((n, 1)))
        noise = NoiseModel(Q=0.2 * np.eye(n), R=1e-12 * np.eye(n))
        rng = np.random.default_rng(2)
        outputs = rng.standard_normal((15, n))
        post = kalman_filter(lti, noise, rng.standard_normal((15, 1)), outputs,
                             (np.zeros(n), np.eye(n)))
        assert np.abs(post.filtered_means[1:] - outputs).max() <= 1e-5

    def test_rejects_feedthrough(self):
        lti = LtiModel(A=[[0.5]], B=[[1.0]], C=[[1.0]], D=[[1.0]])
        with pytest.raises(ValueError, match="D = 0"):
            kalman_filter(lti, NoiseModel(Q=[[0.1]], R=[[0.1]]),
                          np.zeros((2, 1)), np.zeros((2, 1)),
                          (np.zeros(1), np.eye(1)))

    def test_innovation_not_positive_definite_after_jitter(self):
        # no state uncertainty, so S = R, whose eigenvalue -9e-7 passes the
        # PSD check (floor -1e-12 * 1e6) but stays negative after the jitter
        # 1e-12 * trace(R) / 2 = 5e-7
        lti = LtiModel(A=[[0.5]], B=[[0.0]], C=[[1.0], [1.0]],
                       D=[[0.0], [0.0]])
        noise = NoiseModel(Q=[[0.0]], R=np.diag([1e6, -9e-7]))
        with pytest.raises(ValueError,
                           match="not positive definite at time index 1$"):
            kalman_filter(lti, noise, np.zeros((3, 1)), np.ones((3, 2)),
                          (np.zeros(1), np.zeros((1, 1))))

    # A = 3 I with the second coordinate unobserved and Q = 0: its mean
    # grows as 3^t.  From mu0 = (0, 1) with P0 = 0 the covariances stay 0
    # and freeze at t = 1, and the mean overflows at t = 647 (3^647 >
    # 1.8e308); from mu0 = (0, 1e300) with P0 = I the unobserved variance
    # grows as 9^t, so the covariances never freeze, and the mean overflows
    # at t = 18.
    @pytest.mark.parametrize("mu0, p0, frozen, index", [
        pytest.param(1.0, 0.0, True, 647, id="frozen"),
        pytest.param(1e300, 1.0, False, 18, id="per-step")])
    def test_diverging_model_raises_with_time_index(self, mu0, p0, frozen,
                                                    index):
        lti = LtiModel(A=3.0 * np.eye(2), B=np.zeros((2, 1)),
                       C=[[1.0, 0.0]], D=[[0.0]])
        noise = NoiseModel(Q=np.zeros((2, 2)), R=np.eye(1))
        rng = np.random.default_rng(9)
        args = (noise, np.zeros((1000, 1)), rng.standard_normal((1000, 1)),
                (np.array([0.0, mu0]), p0 * np.eye(2)))
        short = kalman_filter(lti, *args[:1], args[1][:index - 1],
                              args[2][:index - 1], args[3])
        assert (steady_step(short) is not None) == frozen
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError,
                               match=f"non-finite .* time index {index}$"):
                kalman_filter(lti, *args)


class TestNoiseDimensions:
    # numpy broadcasts a 1 x 1 Q or R against the n x n or p x p
    # covariances without an error; each entry point must refuse it
    @pytest.mark.parametrize("bad", ["Q", "R"])
    @pytest.mark.parametrize("call", ["kalman_filter", "ekf_filter",
                                      "em_step", "predictive"])
    def test_mismatched_noise_raises(self, call, bad):
        n, p = 3, 2
        params = make_reservoir(n=n, m=1, seed=3)
        readout = Readout(C=np.ones((p, n)))
        lti = jacobians_at(params, np.zeros(n), np.zeros(1), readout)
        covs = {"Q": 0.1 * np.eye(n), "R": 0.1 * np.eye(p), bad: [[0.1]]}
        noise = NoiseModel(**covs)
        rng = np.random.default_rng(0)
        inputs = rng.standard_normal((10, 1))
        outputs = rng.standard_normal((10, p))
        prior = (np.zeros(n), np.eye(n))
        with pytest.raises(ValueError, match="noise"):
            if call == "kalman_filter":
                kalman_filter(lti, noise, inputs, outputs, prior)
            elif call == "ekf_filter":
                ekf_filter(params, readout, noise, inputs, outputs, prior)
            elif call == "em_step":
                em_step(lti, noise, inputs, outputs, prior)
            else:
                predictive(lti, noise, prior, inputs)

    def test_empty_process_noise(self):
        noise = NoiseModel(Q=np.zeros((0, 0)), R=np.eye(1))
        assert noise.Q.shape == (0, 0)


class TestStatelessModel:
    # n = 0: empty means and covariances, and the log-likelihood of the
    # outputs (less the readout offset) as independent N(0, R) draws
    R = np.array([[0.5, 0.1], [0.1, 0.3]])
    D = np.array([0.2, -0.4])
    OUTPUTS = np.array([[0.3, -1.0], [1.2, 0.4], [-0.7, 0.9]])
    PRIOR = (np.zeros(0), np.zeros((0, 0)))
    NOISE = NoiseModel(Q=np.zeros((0, 0)), R=R)
    LTI = LtiModel(A=np.zeros((0, 0)), B=np.zeros((0, 1)), C=np.zeros((2, 0)),
                   D=np.zeros((2, 1)))

    def check(self, post, offset):
        assert post.filtered_means.shape == (4, 0)
        assert post.predicted_means.shape == (3, 0)
        assert np.shape(post.filtered_covs) == (4, 0, 0)
        assert np.shape(post.predicted_covs) == (3, 0, 0)
        resid = self.OUTPUTS - offset
        want = -0.5 * sum(2 * np.log(2 * np.pi) + np.linalg.slogdet(self.R)[1]
                          + e @ np.linalg.solve(self.R, e) for e in resid)
        assert post.loglik == pytest.approx(want, rel=1e-12)

    def test_kalman_filter(self):
        post = kalman_filter(self.LTI, self.NOISE, np.ones((3, 1)),
                             self.OUTPUTS, self.PRIOR)
        self.check(post, 0.0)
        assert post.transition_seq is None

    def test_ekf_filter(self):
        params = ReservoirParams(W=np.zeros((0, 0)), U=np.zeros((0, 1)),
                                 b=np.zeros(0), leak=0.5)
        post = ekf_filter(params, Readout(C=np.zeros((2, 0)), d=self.D),
                          self.NOISE, np.ones((3, 1)), self.OUTPUTS, self.PRIOR)
        self.check(post, self.D)
        assert post.transition_seq.shape == (3, 0, 0)

    def test_rts_smoother(self):
        filtered = SmoothedPosterior(
            filtered_means=np.zeros((4, 0)), filtered_covs=np.zeros((4, 0, 0)),
            predicted_means=np.zeros((3, 0)),
            predicted_covs=np.zeros((3, 0, 0)), loglik=-1.5)
        post = rts_smoother(filtered, self.LTI, self.NOISE)
        assert post.smoothed_means.shape == (4, 0)
        assert np.shape(post.smoothed_covs) == (4, 0, 0)
        assert np.shape(post.cross_covs) == (3, 0, 0)
        assert post.loglik == -1.5


class TestRtsSmoother:
    def test_single_step_smoothed_equals_filtered(self):
        lti, noise = scalar_system()
        post = rts_smoother(
            kalman_filter(lti, noise, np.zeros((1, 1)), np.array([[1.0]]),
                          (np.zeros(1), np.eye(1))), lti, noise)
        assert post.smoothed_means[1, 0] == post.filtered_means[1, 0]
        assert post.smoothed_covs[1, 0, 0] == post.filtered_covs[1, 0, 0]

    def test_deterministic_dynamics_recovers_truth(self):
        n = 2
        a, b, _ = random_stable_system(n, 1, 1, seed=3)
        lti = LtiModel(A=a, B=b, C=np.eye(n), D=np.zeros((n, 1)))
        noise = NoiseModel(Q=np.zeros((n, n)), R=1e-10 * np.eye(n))
        rng = np.random.default_rng(4)
        inputs = rng.standard_normal((12, 1))
        x = rng.standard_normal(n)
        states = [x]
        for t in range(12):
            x = a @ x + b @ inputs[t]
            states.append(x)
        states = np.array(states)
        post = rts_smoother(
            kalman_filter(lti, noise, inputs, states[1:],
                          (states[0], 1e-10 * np.eye(n))), lti, noise)
        assert np.abs(post.smoothed_means - states).max() <= 1e-6

    # the long horizons run past the point where the filter freezes its
    # covariance recursion, so the steady-state path is checked as well
    @pytest.mark.parametrize("seed, long_horizon", [
        *(pytest.param(seed, None, id=str(seed)) for seed in range(6)),
        pytest.param(6, 80, id="steady-80"),
        pytest.param(7, 150, id="steady-150")])
    def test_matches_joint_gaussian_conditioning(self, seed, long_horizon):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 4))
        m, p = 1, int(rng.integers(1, 3))
        horizon = int(rng.integers(2, 9))
        rho = 0.85
        if long_horizon is not None:
            horizon, rho = long_horizon, 0.5
        a, b, c = random_stable_system(n, m, p, seed=100 + seed, rho=rho)
        root_q = rng.standard_normal((n, n)) * 0.3
        q = root_q @ root_q.T + 0.05 * np.eye(n)
        root_r = rng.standard_normal((p, p)) * 0.3
        r = root_r @ root_r.T + 0.05 * np.eye(p)
        mu0 = rng.standard_normal(n)
        p0 = np.eye(n)
        inputs = rng.standard_normal((horizon, m))
        outputs = rng.standard_normal((horizon, p))

        lti = LtiModel(A=a, B=b, C=c, D=np.zeros((p, m)))
        post = rts_smoother(
            kalman_filter(lti, NoiseModel(Q=q, R=r), inputs, outputs,
                          (mu0, p0)),
            lti, NoiseModel(Q=q, R=r))
        if long_horizon is not None:
            assert steady_step(post) is not None
        means, cov = joint_gaussian_posterior(a, b, c, q, r, mu0, p0, inputs,
                                              outputs)
        assert np.abs(post.smoothed_means - means).max() <= 1e-8
        for t in range(horizon + 1):
            np.testing.assert_allclose(post.smoothed_covs[t],
                                       posterior_blocks(cov, n, t, t),
                                       atol=1e-7)
        for t in range(horizon):
            np.testing.assert_allclose(post.cross_covs[t],
                                       posterior_blocks(cov, n, t, t + 1),
                                       atol=1e-7)


    @settings(max_examples=40)
    @given(n=st.integers(1, 16), p=st.integers(1, 3),
           horizon=st.integers(2, 400), seed=st.integers(0, 2 ** 32 - 1))
    # a long frozen run: its means come from the chunked scan
    @example(n=16, p=2, horizon=5000, seed=10)
    def test_matches_per_step_reference(self, n, p, horizon, seed):
        rng = np.random.default_rng(seed)
        a, b, c = random_stable_system(n, 1, p, seed=seed,
                                       rho=rng.uniform(0.1, 0.95))
        root_q = rng.standard_normal((n, n)) * 0.3
        q = root_q @ root_q.T + 0.05 * np.eye(n)
        root_r = rng.standard_normal((p, p)) * 0.3
        r = root_r @ root_r.T + 0.05 * np.eye(p)
        mu0 = rng.standard_normal(n)
        inputs = rng.standard_normal((horizon, 1))
        outputs = rng.standard_normal((horizon, p))
        lti = LtiModel(A=a, B=b, C=c, D=np.zeros((p, 1)))
        noise = NoiseModel(Q=q, R=r)
        post = rts_smoother(kalman_filter(lti, noise, inputs, outputs,
                                          (mu0, np.eye(n))), lti, noise)
        steady = steady_step(post)
        event(f"steady state reached: {steady is not None}")
        ref = kalman_rts_reference(a, b, c, q, r, mu0, np.eye(n), inputs,
                                   outputs)
        for name in POSTERIOR_ARRAYS:
            got, want = np.asarray(getattr(post, name)), ref[name]
            assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max(), name
        assert post.loglik == pytest.approx(ref["loglik"], rel=1e-10)
        indices = [0, -1] + ([] if steady is None
                             else [steady - 1, steady, steady + 1])
        for name in COVARIANCE_FIELDS:
            assert_reads_like(getattr(post, name), ref[name], indices, 1e-10)

    def test_singular_predicted_cov_before_freeze_names_time_index(self):
        a, b, c = random_stable_system(2, 1, 1, seed=26, rho=0.5)
        lti = LtiModel(A=a, B=b, C=c, D=np.zeros((1, 1)))
        noise = NoiseModel(Q=0.1 * np.eye(2), R=[[0.1]])
        rng = np.random.default_rng(27)
        filt = kalman_filter(lti, noise, rng.standard_normal((100, 1)),
                             rng.standard_normal((100, 1)),
                             (np.zeros(2), np.eye(2)))
        assert steady_step(filt) > 3
        # indefinite: the eigenvalue -9e-7 stays negative after the relative
        # jitter 1e-12 * trace / 2 = 5e-7
        p_covs = filt.predicted_covs
        mats = p_covs.mats.copy()
        mats[2] = np.diag([1e6, -9e-7])
        broken = dataclasses.replace(
            filt, predicted_covs=FrozenCovs(mats, p_covs.counts))
        with pytest.raises(ValueError, match="time index 3$"):
            rts_smoother(broken, lti, noise)

    def test_frozen_blocks_must_be_the_filter_steps(self):
        # the per-step pass reads filter block t as step t: an empty block
        # before the frozen ones, or predicted counts that are not the
        # filtered ones from block 1 on, would be read as a step
        lti, noise = scalar_system()
        outputs = np.random.default_rng(28).standard_normal((50, 1))
        filt = kalman_filter(lti, noise, np.zeros((50, 1)), outputs,
                             (np.zeros(1), np.eye(1)))
        at = steady_step(filt) + 1
        assert at == len(filt.filtered_covs.mats) - 1
        padded = {}
        for name, block in (("filtered_covs", at), ("predicted_covs", at - 1)):
            covs = getattr(filt, name)
            padded[name] = FrozenCovs(np.insert(covs.mats, block, 0.0, axis=0),
                                      np.insert(covs.counts, block, 0))
            assert np.array_equal(np.asarray(padded[name]), np.asarray(covs))
        with pytest.raises(ValueError, match="only on an LTI pass$"):
            rts_smoother(dataclasses.replace(filt, **padded), lti, noise)
        # the full filtered array, one block per step, against the frozen
        # predicted blocks
        with pytest.raises(ValueError, match="only on an LTI pass$"):
            rts_smoother(dataclasses.replace(
                filt, filtered_covs=np.asarray(filt.filtered_covs)), lti,
                noise)

    def test_last_steps_read_from_the_blocks(self, monkeypatch):
        # the backward pass starts from the last filtered and predicted
        # blocks, read from mats with no integer lookup; an empty block
        # after them is not a filter layout, and an EKF pass, whose
        # transitions vary, has no repeated last block
        lti, noise = scalar_system()
        outputs = np.random.default_rng(28).standard_normal((50, 1))
        filt = kalman_filter(lti, noise, np.zeros((50, 1)), outputs,
                             (np.zeros(1), np.eye(1)))
        lookups, getitem = [], FrozenCovs.__getitem__

        def counted(self, key):
            lookups.append(key)
            return getitem(self, key)
        monkeypatch.setattr(FrozenCovs, "__getitem__", counted)
        rts_smoother(filt, lti, noise)
        assert not [key for key in lookups
                    if isinstance(key, (int, np.integer))]
        for name in ("filtered_covs", "predicted_covs"):
            covs = getattr(filt, name)
            padded = FrozenCovs(
                np.append(covs.mats, 2.0 * covs.mats[-1:], axis=0),
                np.append(covs.counts, 0))
            with pytest.raises(ValueError, match="only on an LTI pass$"):
                rts_smoother(dataclasses.replace(filt, **{name: padded}),
                             lti, noise)
        ekf_like = dataclasses.replace(
            filt, transition_seq=np.broadcast_to(lti.A, (50, 1, 1)))
        with pytest.raises(ValueError, match="only on an LTI pass$"):
            rts_smoother(ekf_like, lti, noise)
        # layouts whose counts agree but do not end at t = T: both last
        # blocks one step longer, or an empty block after both last steps
        # of a run that never froze
        def longer(covs):
            return FrozenCovs(covs.mats, np.append(covs.counts[:-1],
                                                   covs.counts[-1] + 1))

        def emptied(covs):
            return FrozenCovs(np.append(covs.mats, covs.mats[-1:], axis=0),
                              np.append(covs.counts, 0))
        short = kalman_filter(lti, noise, np.zeros((3, 1)), outputs[:3],
                              (np.zeros(1), np.eye(1)))
        for post, layout in ((filt, longer), (short, emptied)):
            bad = {name: layout(getattr(post, name))
                   for name in ("filtered_covs", "predicted_covs")}
            with pytest.raises(ValueError, match="only on an LTI pass$"):
                rts_smoother(dataclasses.replace(post, **bad), lti, noise)

    def test_large_singular_prior_is_smoothed(self):
        # the prior 1e6 * ones is exactly singular; its jitter must be
        # relative to its scale, as an absolute 1e-12 is below one ulp
        lti = LtiModel(A=np.eye(2), B=np.zeros((2, 1)), C=[[1.0, 0.0]],
                       D=np.zeros((1, 1)))
        noise = NoiseModel(Q=np.zeros((2, 2)), R=[[1.0]])
        outputs = np.random.default_rng(31).standard_normal((5, 1))
        post = rts_smoother(
            kalman_filter(lti, noise, np.zeros((5, 1)), outputs,
                          (np.zeros(2), 1e6 * np.ones((2, 2)))), lti, noise)
        assert np.isfinite(post.smoothed_means).all()
        assert np.isfinite(np.asarray(post.smoothed_covs)).all()
        assert np.isfinite(np.asarray(post.cross_covs)).all()


class TestFilterEvents:
    def _events(self, caplog, name):
        return [rec.getMessage() for rec in caplog.records
                if rec.name == "esnkit.identify"
                and rec.levelno == logging.DEBUG
                and rec.getMessage().split()[0] == name]

    def test_steady_state_reported_once(self, caplog):
        lti, noise = scalar_system()
        rng = np.random.default_rng(28)
        with caplog.at_level(logging.DEBUG, logger="esnkit.identify"):
            post = kalman_filter(lti, noise, np.zeros((200, 1)),
                                 rng.standard_normal((200, 1)),
                                 (np.zeros(1), np.eye(1)))
        assert steady_step(post) is not None
        assert self._events(caplog, "kalman.steady_state") == [
            f"kalman.steady_state steady_from={steady_step(post)}"]

    def test_innovation_jitter_reported_with_time_index(self, caplog):
        # two noiseless copies of one measurement: S = [[1, 1], [1, 1]] is
        # exactly singular, so the Cholesky factorization needs the jitter
        lti = LtiModel(A=[[0.5]], B=[[0.0]], C=[[1.0], [1.0]],
                       D=[[0.0], [0.0]])
        noise = NoiseModel(Q=[[1.0]], R=np.zeros((2, 2)))
        with caplog.at_level(logging.DEBUG, logger="esnkit.identify"):
            kalman_filter(lti, noise, np.zeros((3, 1)), np.ones((3, 2)),
                          (np.zeros(1), np.zeros((1, 1))))
        found = self._events(caplog, "kalman.innovation_jitter")
        assert found and found[0].split()[1] == "time_index=1"

    def test_smoother_jitter_reported_with_time_index(self, caplog):
        # no process noise and an exact prior: the predicted covariance is 0
        lti, _ = scalar_system()
        noise = NoiseModel(Q=[[0.0]], R=[[0.1]])
        filt = kalman_filter(lti, noise, np.zeros((1, 1)), np.ones((1, 1)),
                             (np.zeros(1), np.zeros((1, 1))))
        with caplog.at_level(logging.DEBUG, logger="esnkit.identify"):
            rts_smoother(filt, lti, noise)
        found = self._events(caplog, "rts.predicted_cov_jitter")
        assert [msg.split()[1] for msg in found] == ["time_index=1"]

    def test_logging_does_not_change_results(self, caplog):
        a, b, c = random_stable_system(3, 1, 2, seed=29, rho=0.6)
        lti = LtiModel(A=a, B=b, C=c, D=np.zeros((2, 1)))
        noise = NoiseModel(Q=0.05 * np.eye(3), R=0.05 * np.eye(2))
        rng = np.random.default_rng(30)
        args = (rng.standard_normal((300, 1)), rng.standard_normal((300, 2)),
                (np.zeros(3), np.eye(3)))
        runs = []
        for level in (logging.WARNING, logging.DEBUG):
            with caplog.at_level(level, logger="esnkit.identify"):
                runs.append(rts_smoother(kalman_filter(lti, noise, *args),
                                         lti, noise))
        assert self._events(caplog, "kalman.steady_state")
        quiet, loud = runs
        assert quiet.loglik == loud.loglik
        assert steady_step(quiet) == steady_step(loud)
        for name in POSTERIOR_ARRAYS:
            assert np.array_equal(getattr(quiet, name), getattr(loud, name))


class TestEkf:
    def test_identity_activation_matches_linear_filter(self):
        p = make_reservoir(n=3, m=1, leak=0.8, seed=11,
                           activation=Activation.identity())
        ro = Readout(C=np.array([[1.0, 0.5, -0.2]]))
        noise = NoiseModel(Q=0.05 * np.eye(3), R=[[0.1]])
        rng = np.random.default_rng(5)
        inputs = rng.standard_normal((25, 1))
        outputs = rng.standard_normal((25, 1))
        prior = (np.zeros(3), np.eye(3))
        ekf = ekf_filter(p, ro, noise, inputs, outputs, prior)
        lti = jacobians_at(p, np.zeros(3), np.zeros(1), ro)
        kf = kalman_filter(lti, noise, inputs, outputs, prior)
        assert np.abs(ekf.filtered_means - kf.filtered_means).max() <= 1e-10
        assert np.abs(np.asarray(ekf.filtered_covs)
                      - np.asarray(kf.filtered_covs)).max() <= 1e-10
        assert ekf.transition_seq is not None

    def test_zero_noise_exact_init_tracks_truth(self):
        p = make_reservoir(n=4, m=2, seed=12, w_scale=0.8)
        ro = Readout(C=np.eye(4))
        rng = np.random.default_rng(6)
        inputs = rng.uniform(-1, 1, (30, 2))
        traj = simulate(p, rng.standard_normal(4) * 0.2, inputs, readout=ro)
        noise = NoiseModel(Q=np.zeros((4, 4)), R=1e-9 * np.eye(4))
        post = ekf_filter(p, ro, noise, inputs, traj.outputs,
                          (traj.states[0], np.zeros((4, 4))))
        assert np.abs(post.filtered_means - traj.states).max() <= 1e-8

    def test_three_sigma_consistency_under_noise(self):
        # filtered means stay within 3 sigma of the true simulated states on
        # >= 95% of steps across seeded runs
        p = make_reservoir(n=4, m=1, seed=13, w_scale=0.7, leak=0.8)
        ro = Readout(C=np.array([[1.0, 0.0, 0.5, 0.0],
                                 [0.0, 1.0, 0.0, -0.5]]))
        q = 0.002 * np.eye(4)
        r = 0.002 * np.eye(2)
        noise = NoiseModel(Q=q, R=r)
        hits = total = 0
        for run in range(100):
            rng = np.random.default_rng(1000 + run)
            inputs = rng.uniform(-1, 1, (40, 1))
            traj = simulate(p, np.zeros(4), inputs, readout=ro,
                            process_noise=(q, 2000 + run),
                            measurement_noise=(r, 3000 + run))
            post = ekf_filter(p, ro, noise, inputs, traj.outputs,
                              (np.zeros(4), 0.01 * np.eye(4)))
            sigma = np.sqrt(np.einsum("tii->ti", post.filtered_covs[1:]))
            err = np.abs(post.filtered_means[1:] - traj.states[1:])
            hits += int((err <= 3 * sigma + 1e-12).sum())
            total += err.size
        assert hits / total >= 0.95

    def test_covariances_and_transitions_share_one_block(self):
        # the filtered and predicted covariances and the transitions are
        # views of one (3T + 1, n, n) array, written in place step by step
        p = make_reservoir(n=3, m=1, seed=15, w_scale=0.7, leak=0.8)
        ro = Readout(C=np.array([[1.0, 0.0, 0.5]]))
        noise = NoiseModel(Q=0.01 * np.eye(3), R=[[0.1]])
        rng = np.random.default_rng(7)
        post = ekf_filter(p, ro, noise, rng.uniform(-1, 1, (20, 1)),
                          rng.standard_normal((20, 1)),
                          (np.zeros(3), np.eye(3)))
        f_mats, p_mats = post.filtered_covs.mats, post.predicted_covs.mats
        a_seq = post.transition_seq
        assert (len(f_mats), len(p_mats), len(a_seq)) == (21, 20, 20)
        block = a_seq.base
        assert block.shape == (61, 3, 3)
        assert f_mats.base is p_mats.base is block
        assert all(np.shares_memory(part, block)
                   for part in (f_mats, p_mats, a_seq))

    def test_never_freezes_on_tanh_reservoir(self):
        p = make_reservoir(n=4, m=1, seed=15, w_scale=0.7, leak=0.8)
        ro = Readout(C=np.array([[1.0, 0.0, 0.5, 0.0]]))
        noise = NoiseModel(Q=0.002 * np.eye(4), R=[[0.002]])
        rng = np.random.default_rng(31)
        inputs = rng.uniform(-1, 1, (600, 1))
        traj = simulate(p, np.zeros(4), inputs, readout=ro,
                        process_noise=(noise.Q, 32),
                        measurement_noise=(noise.R, 33))
        post = ekf_filter(p, ro, noise, inputs, traj.outputs,
                          (np.zeros(4), 0.01 * np.eye(4)))
        assert steady_step(post) is None
        assert post.transition_seq.shape == (600, 4, 4)
        steps = np.abs(np.diff(post.transition_seq, axis=0))
        assert steps.max(axis=(1, 2)).min() > 0.0

    @settings(max_examples=40)
    @given(n=st.integers(2, 8), p=st.integers(1, 3),
           horizon=st.integers(1, 60), seed=st.integers(0, 2 ** 32 - 1),
           kind=st.sampled_from(["tanh", "leaky_slope"]),
           negative_slope=st.floats(0.0, 2.0), leak=st.floats(0.1, 1.0))
    def test_matches_per_step_reference(self, n, p, horizon, seed, kind,
                                        negative_slope, leak):
        # ||W|| L_sigma = 0.9 keeps the reservoir contracting
        act = Activation(kind, negative_slope=negative_slope)
        res = make_reservoir(n=n, m=2, seed=seed % 2 ** 31, leak=leak,
                             w_scale=0.9 / act.lipschitz, activation=act,
                             bias_scale=0.5)
        rng = np.random.default_rng(seed)
        ro = Readout(C=rng.standard_normal((p, n)), d=rng.standard_normal(p))
        root_q = rng.standard_normal((n, n)) * 0.3
        q = root_q @ root_q.T + 0.05 * np.eye(n)
        root_r = rng.standard_normal((p, p)) * 0.3
        r = root_r @ root_r.T + 0.05 * np.eye(p)
        mu0 = rng.standard_normal(n)
        inputs = rng.standard_normal((horizon, 2))
        outputs = rng.standard_normal((horizon, p))
        post = ekf_filter(res, ro, NoiseModel(Q=q, R=r), inputs, outputs,
                          (mu0, np.eye(n)))
        ref = ekf_reference(res.W, res.U, res.b, leak, kind, negative_slope,
                            ro.C, ro.d, q, r, mu0, np.eye(n), inputs, outputs)
        for name in ("filtered_means", "filtered_covs", "predicted_means",
                     "predicted_covs", "transition_seq"):
            got, want = np.asarray(getattr(post, name)), ref[name]
            assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max(), name
        assert post.loglik == pytest.approx(ref["loglik"], rel=1e-10)
        assert steady_step(post) is None

    @pytest.mark.parametrize("act", [
        Activation.tanh(), Activation.identity(), Activation.leaky_slope(0.3),
        Activation.leaky_slope(1.7)],
        ids=["tanh", "identity", "leaky_0.3", "leaky_1.7"])
    def test_transitions_are_jacobians_at_filtered_means(self, act):
        # A_t comes from leak * W times the slope; leaky_jacobians, the one
        # definition, scales the product instead: rounding apart, the same
        n = 5
        p = make_reservoir(n=n, m=2, seed=17, w_scale=0.9 / act.lipschitz,
                           activation=act, bias_scale=0.5)
        rng = np.random.default_rng(17)
        ro = Readout(C=rng.standard_normal((2, n)))
        noise = NoiseModel(Q=0.01 * np.eye(n), R=0.1 * np.eye(2))
        inputs = rng.standard_normal((80, 2))
        post = ekf_filter(p, ro, noise, inputs, rng.standard_normal((80, 2)),
                          (rng.standard_normal(n), np.eye(n)))
        slope = act.evaluate(post.filtered_means[:-1] @ p.W.T
                             + (inputs @ p.U.T + p.b))[1]
        for got, want in zip(post.transition_seq, leaky_jacobians(p, slope)[0]):
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

    @pytest.mark.parametrize("kind", ["tanh", "identity", "leaky_slope"])
    def test_step_loop_calls_no_python_helper(self, kind, monkeypatch):
        # each step calls only ufuncs, BLAS and LAPACK, so the calls of the
        # activation's methods and of _transition do not grow with T
        p = make_reservoir(n=4, m=1, seed=13, w_scale=0.7, bias_scale=0.5,
                           activation=Activation(kind, negative_slope=0.3))
        ro = Readout(C=np.array([[1.0, 0.0, 0.5, 0.0]]))
        noise = NoiseModel(Q=0.002 * np.eye(4), R=[[0.002]])
        rng = np.random.default_rng(14)
        counts = count_step_helpers(monkeypatch)
        small, large = counts_by_horizon(counts, lambda horizon: ekf_filter(
            p, ro, noise, rng.standard_normal((horizon, 1)),
            rng.standard_normal((horizon, 1)), (np.zeros(4), np.eye(4))))
        assert small == large

    def test_high_snr_covariances_exactly_symmetric_and_psd(self):
        # R = 1e-12 I: each update removes almost all variance along the rows
        # of C, where the covariance update cancels the most
        n = 6
        p = make_reservoir(n=n, m=1, seed=21, w_scale=0.8, bias_scale=0.3)
        rng = np.random.default_rng(21)
        ro = Readout(C=rng.standard_normal((2, n)))
        noise = NoiseModel(Q=1e-3 * np.eye(n), R=1e-12 * np.eye(2))
        inputs = rng.uniform(-1, 1, (300, 1))
        traj = simulate(p, np.zeros(n), inputs, readout=ro,
                        process_noise=(noise.Q, 22),
                        measurement_noise=(noise.R, 23))
        post = ekf_filter(p, ro, noise, inputs, traj.outputs,
                          (np.zeros(n), np.eye(n)))
        eps = np.finfo(float).eps
        for cov in np.concatenate([post.filtered_covs, post.predicted_covs]):
            assert np.array_equal(cov, cov.T)
            floor = -4 * n * eps * np.abs(cov).max()
            assert np.linalg.eigvalsh(cov)[0] >= floor

    def test_diverging_reservoir_raises(self):
        # A = 3 I with no covariance to correct it: the unobserved mean
        # coordinate overflows at step 325, which must raise, not yield NaN
        p = ReservoirParams(W=3.0 * np.eye(2), U=np.ones((2, 1)),
                            b=np.zeros(2), leak=1.0,
                            activation=Activation.identity())
        ro = Readout(C=np.array([[1.0, 0.0]]))
        noise = NoiseModel(Q=np.zeros((2, 2)), R=np.eye(1))
        rng = np.random.default_rng(8)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError,
                               match="non-finite .* time index 325$"):
                ekf_filter(p, ro, noise, rng.standard_normal((1000, 1)),
                           rng.standard_normal((1000, 1)),
                           (np.ones(2), np.zeros((2, 2))))

    def test_diverging_mean_raises_at_its_first_step(self):
        # the per-step kalman_filter case on the reservoir: from mu0 =
        # (0, 1e300) the unobserved mean overflows at t = 18; the filter is
        # not stopped there, and the error still names t = 18
        p = ReservoirParams(W=3.0 * np.eye(2), U=np.zeros((2, 1)),
                            b=np.zeros(2), leak=1.0,
                            activation=Activation.identity())
        ro = Readout(C=np.array([[1.0, 0.0]]))
        noise = NoiseModel(Q=np.zeros((2, 2)), R=np.eye(1))
        rng = np.random.default_rng(9)
        outputs = rng.standard_normal((1000, 1))
        prior = (np.array([0.0, 1e300]), np.eye(2))
        ekf_filter(p, ro, noise, np.zeros((17, 1)), outputs[:17], prior)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError,
                               match="non-finite .* time index 18$"):
                ekf_filter(p, ro, noise, np.zeros((1000, 1)), outputs, prior)

    def test_divergence_reported_before_a_later_failure(self, monkeypatch):
        # C x_1 overflows, so the log-likelihood is not finite at t = 1; the
        # NaN mean then makes A_2 and the innovation covariance at t = 2 NaN.
        # LAPACK builds that report a NaN pivot fail there (this one is made
        # to): the filter runs on past t = 1, and t = 1 must still be the error
        factor = identify._jittered_chol

        def nan_pivot_fails(s, t, smoother=False):
            if np.isnan(s).any():
                raise ValueError("innovation covariance not positive "
                                 f"definite at time index {t}")
            return factor(s, t, smoother)

        monkeypatch.setattr(identify, "_jittered_chol", nan_pivot_fails)
        p = ReservoirParams(W=0.5 * np.eye(2), U=np.zeros((2, 1)),
                            b=np.zeros(2), leak=0.5)
        ro = Readout(C=np.array([[4.0, 0.0]]))
        noise = NoiseModel(Q=0.01 * np.eye(2), R=np.eye(1))
        prior = (np.array([1e308, 0.0]), 0.01 * np.eye(2))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError,
                               match="non-finite .* time index 1$"):
                ekf_filter(p, ro, noise, np.zeros((5, 1)), np.zeros((5, 1)),
                           prior)


class TestEmStep:
    def test_perfect_states_recover_dynamics(self):
        # noiseless data with zero posterior covariance: A, B recovered
        # exactly and the Q update collapses to (numerical) zero
        n, m = 3, 2
        a, b, _ = random_stable_system(n, m, 1, seed=21)
        rng = np.random.default_rng(7)
        inputs = rng.standard_normal((200, m))
        x = rng.standard_normal(n)
        states = [x]
        for t in range(200):
            x = a @ x + b @ inputs[t]
            states.append(x)
        states = np.array(states)
        lti = LtiModel(A=a, B=b, C=np.eye(n), D=np.zeros((n, m)))
        noise = NoiseModel(Q=1e-16 * np.eye(n), R=1e-16 * np.eye(n))
        step = em_step(lti, noise, inputs, states[1:],
                       (states[0], 1e-16 * np.eye(n)))
        assert np.abs(step.lti.A - a).max() <= 1e-8
        assert np.abs(step.lti.B - b).max() <= 1e-8
        assert np.abs(step.noise.Q).max() <= 1e-8

    def test_r_update_with_zero_readout(self):
        # C = 0 makes the residual the output itself: R = (1/T) sum y y'
        n, p = 2, 2
        lti = LtiModel(A=0.5 * np.eye(n), B=np.zeros((n, 1)),
                       C=np.zeros((p, n)), D=np.zeros((p, 1)))
        noise = NoiseModel(Q=0.1 * np.eye(n), R=np.eye(p))
        rng = np.random.default_rng(8)
        outputs = rng.standard_normal((50, p))
        step = em_step(lti, noise, rng.standard_normal((50, 1)), outputs,
                       (np.zeros(n), np.eye(n)))
        np.testing.assert_allclose(step.noise.R, outputs.T @ outputs / 50,
                                   atol=1e-10)

    def test_zero_gram_gets_a_nonzero_ridge(self, caplog):
        # zero prior covariance, Q = 0 and zero data make the regression
        # Gram exactly zero; its ridge must still make it invertible
        n, p = 2, 1
        lti = LtiModel(A=0.5 * np.eye(n), B=np.ones((n, 1)),
                       C=np.ones((p, n)), D=np.zeros((p, 1)))
        noise = NoiseModel(Q=np.zeros((n, n)), R=np.eye(p))
        with caplog.at_level(logging.WARNING, logger="esnkit.identify"):
            step = em_step(lti, noise, np.zeros((5, 1)), np.zeros((5, p)),
                           (np.zeros(n), np.zeros((n, n))))
        assert "em.ridge ridge=1.000e-10" in caplog.messages
        assert not step.lti.A.any() and not step.lti.B.any()
        np.testing.assert_array_equal(step.noise.Q, 1e-12 * np.eye(n))

    def test_singular_gram_test_reads_the_same_in_any_units(self, caplog):
        # the same record in units 1e-9 times as large, with the noise and
        # prior covariances scaled by s^2: its regression Gram (about 4e-16)
        # is as well conditioned as at s = 1, so no ridge, and the same A, B
        a, b, c = np.array([[0.8, 0.1], [0.0, 0.5]]), np.array([[1.0], [0.5]]), np.eye(2)
        rng = np.random.default_rng(0)
        inputs = rng.standard_normal((400, 1))
        x, outputs = np.zeros(2), np.empty((400, 2))
        for t in range(400):
            x = a @ x + b @ inputs[t] + 0.1 * rng.standard_normal(2)
            outputs[t] = c @ x + 0.1 * rng.standard_normal(2)
        lti = LtiModel(A=a, B=b, C=c, D=np.zeros((2, 1)))
        steps = []
        with caplog.at_level(logging.WARNING, logger="esnkit.identify"):
            for s in (1.0, 1e-9):
                noise = NoiseModel(Q=0.01 * s ** 2 * np.eye(2),
                                   R=0.01 * s ** 2 * np.eye(2))
                steps.append(em_step(lti, noise, s * inputs, s * outputs,
                                     (np.zeros(2), s ** 2 * np.eye(2))))
        assert not [msg for msg in caplog.messages if msg.startswith("em.ridge")]
        for name in "AB":
            want, got = (getattr(step.lti, name) for step in steps)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), name

    def test_record_without_steps_rejected(self):
        n, p = 2, 1
        lti = LtiModel(A=0.5 * np.eye(n), B=np.ones((n, 1)),
                       C=np.ones((p, n)), D=np.zeros((p, 1)))
        noise = NoiseModel(Q=np.eye(n), R=np.eye(p))
        with pytest.raises(ValueError, match=r"T >= 1"):
            em_step(lti, noise, np.zeros((0, 1)), np.zeros((0, p)),
                    (np.zeros(n), np.eye(n)))

    def test_q_update_psd(self):
        for seed in range(5):
            n, m, p = 3, 1, 2
            a, b, c = random_stable_system(n, m, p, seed=40 + seed)
            lti = LtiModel(A=a, B=b, C=c, D=np.zeros((p, m)))
            noise = NoiseModel(Q=0.1 * np.eye(n), R=0.1 * np.eye(p))
            rng = np.random.default_rng(seed)
            step = em_step(lti, noise, rng.standard_normal((60, m)),
                           rng.standard_normal((60, p)),
                           (np.zeros(n), np.eye(n)))
            assert np.linalg.eigvalsh(step.noise.Q).min() >= 1e-13

    @pytest.mark.parametrize("horizon, settles", [(6, False), (300, True)])
    def test_matches_full_array_reference(self, horizon, settles):
        # a short run never freezes and holds one block per step; a long one
        # repeats its frozen block; both must give the M-step and the readout
        # that the full reference arrays give, and so must a posterior built
        # by hand from those arrays
        n, p = 3, 2
        a, b, c = random_stable_system(n, 1, p, seed=33, rho=0.6)
        lti = LtiModel(A=a, B=b, C=c, D=np.zeros((p, 1)))
        noise = NoiseModel(Q=0.05 * np.eye(n), R=0.05 * np.eye(p))
        rng = np.random.default_rng(34)
        inputs = rng.standard_normal((horizon, 1))
        outputs = rng.standard_normal((horizon, p))
        prior = (np.zeros(n), np.eye(n))
        post = rts_smoother(kalman_filter(lti, noise, inputs, outputs, prior),
                            lti, noise)
        assert (steady_step(post) is not None) == settles
        ref = kalman_rts_reference(a, b, c, noise.Q, noise.R, *prior, inputs,
                                   outputs)
        step = em_step(lti, noise, inputs, outputs, prior)
        want = m_step_reference(ref, inputs, outputs, c)
        got = (step.lti.A, step.lti.B, step.noise.Q, step.noise.R)
        for name, g, w in zip("ABQR", got, want):
            assert np.abs(g - w).max() <= 1e-10 * np.abs(w).max(), name

        hand = SmoothedPosterior(loglik=ref["loglik"],
                                 **{name: ref[name] for name in POSTERIOR_ARRAYS})
        xs, covs = ref["smoothed_means"][1:], ref["smoothed_covs"][1:]
        xc, yc = xs - xs.mean(axis=0), outputs - outputs.mean(axis=0)
        c_want = np.linalg.solve(xc.T @ xc + covs.sum(axis=0), xc.T @ yc).T
        for states in (post, hand):
            ro = readout_ml(states, outputs)
            assert np.abs(ro.C - c_want).max() <= 1e-10 * np.abs(c_want).max()


class TestPosteriorMemory:
    def test_frozen_covariances_bound_em_step_peak(self):
        # at n = 32, T = 10^4 the four full covariance arrays alone would take
        # 328 MB; the means, inputs and outputs take about 8 MB per posterior
        n, p, horizon = 32, 2, 10_000
        a, b, c = random_stable_system(n, 1, p, seed=35, rho=0.8)
        lti = LtiModel(A=a, B=b, C=c, D=np.zeros((p, 1)))
        noise = NoiseModel(Q=0.05 * np.eye(n), R=0.05 * np.eye(p))
        rng = np.random.default_rng(36)
        args = (rng.standard_normal((horizon, 1)),
                rng.standard_normal((horizon, p)), (np.zeros(n), np.eye(n)))

        def pipeline():
            post = rts_smoother(kalman_filter(lti, noise, *args), lti, noise)
            return post, em_step(lti, noise, *args)

        (post, _), peak = traced_peak_mib(pipeline)
        assert steady_step(post) is not None
        assert peak <= 32.0

    def test_smoother_writes_its_blocks_once(self):
        # the smoother returns the means and the two block arrays; until it
        # writes them it also holds the backward tails as lists, here under
        # half the blocks.  Building the blocks twice, as concatenating the
        # per-step rows and the tails does, adds about half of them again
        n, p, horizon = 16, 2, 2000
        a, b, c = random_stable_system(n, 1, p, seed=40, rho=0.9)
        lti = LtiModel(A=a, B=b, C=c, D=np.zeros((p, 1)))
        noise = NoiseModel(Q=1e-3 * np.eye(n), R=1e-2 * np.eye(p))
        rng = np.random.default_rng(0)
        filt = kalman_filter(lti, noise, rng.standard_normal((horizon, 1)),
                             rng.standard_normal((horizon, p)),
                             (np.zeros(n), 1e-2 * np.eye(n)))
        post, peak = traced_peak_mib(rts_smoother, filt, lti, noise)
        mats = post.smoothed_covs.mats
        assert len(mats) - len(filt.filtered_covs.mats) + 1 < len(mats) / 2
        blocks = mats.nbytes + post.cross_covs.mats.nbytes
        assert peak * 2 ** 20 <= post.smoothed_means.nbytes + 1.75 * blocks


class TestEmEvents:
    def _events(self, caplog, name, level):
        return [rec.getMessage() for rec in caplog.records
                if rec.name == "esnkit.identify" and rec.levelno == level
                and rec.getMessage().split()[0] == name]

    def _run(self):
        # noiseless decaying states with no input: the input block of the
        # regression Gram is zero (ridge) and the Q, R updates are zero (floor)
        n = 3
        a, b, _ = random_stable_system(n, 1, 1, seed=21)
        x = np.random.default_rng(7).standard_normal(n)
        states = [x]
        for _ in range(60):
            x = a @ x
            states.append(x)
        states = np.array(states)
        lti = LtiModel(A=a, B=b, C=np.eye(n), D=np.zeros((n, 1)))
        noise = NoiseModel(Q=1e-16 * np.eye(n), R=1e-16 * np.eye(n))
        return em_step(lti, noise, np.zeros((60, 1)), states[1:],
                       (states[0], 1e-16 * np.eye(n)))

    def test_ridge_reported_as_warning(self, caplog):
        with caplog.at_level(logging.WARNING, logger="esnkit.identify"):
            self._run()
        found = self._events(caplog, "em.ridge", logging.WARNING)
        assert len(found) == 1
        assert float(found[0].split()[1].removeprefix("ridge=")) > 0.0

    def test_psd_floor_reported_as_debug(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="esnkit.identify"):
            self._run()
        found = self._events(caplog, "em.psd_floor", logging.DEBUG)
        assert len(found) == 2          # the Q and the R update
        assert all(float(msg.split()[1].removeprefix("shift=")) > 0.0
                   for msg in found)

    def test_events_do_not_change_results(self, caplog):
        runs = []
        for level in (logging.ERROR, logging.DEBUG):
            with caplog.at_level(level, logger="esnkit.identify"):
                runs.append(self._run())
        assert self._events(caplog, "em.ridge", logging.WARNING)
        assert self._events(caplog, "em.psd_floor", logging.DEBUG)
        quiet, loud = runs
        assert quiet.loglik == loud.loglik
        for name in ("A", "B"):
            assert np.array_equal(getattr(quiet.lti, name), getattr(loud.lti, name))
        for name in ("Q", "R"):
            assert np.array_equal(getattr(quiet.noise, name),
                                  getattr(loud.noise, name))


class TestStructuredProjection:
    def test_trace_zero_basis_exact_coordinates(self):
        rng = np.random.default_rng(9)
        w_bar = rng.standard_normal((4, 4))
        w_bar -= np.trace(w_bar) / 4 * np.eye(4)   # trace-zero basis
        w_bar /= np.linalg.norm(w_bar, 2)
        basis = StructuredBasis(W_bar=w_bar, l_sigma=1.0)
        a_ls = 0.3 * np.eye(4) + 0.4 * w_bar
        theta = project_structured(a_ls, basis)
        assert theta.lam == pytest.approx(0.7, abs=1e-12)
        assert theta.alpha == pytest.approx(0.4 / 0.7, abs=1e-12)
        assert not theta.clamped
        np.testing.assert_allclose(theta.A, a_ls, atol=1e-12)

    def test_feasibility_scaling_binds(self):
        w_bar = np.diag([1.0, 1.0, -1.0])       # not parallel to I
        basis = StructuredBasis(W_bar=w_bar, l_sigma=1.0)
        # coordinates (0.2, 1.5): lam = 0.8, alpha = 1.875 -> margin violated
        theta = project_structured(0.2 * np.eye(3) + 1.5 * w_bar, basis)
        assert theta.clamped
        margin = (1 - theta.lam) + theta.lam * theta.alpha
        assert margin <= 1 - 1e-6 + 1e-12

    def test_lambda_clamp(self):
        w_bar = np.array([[0.0, 1.0], [1.0, 0.0]])
        basis = StructuredBasis(W_bar=w_bar)
        # theta = (1.5, 0.1) would set lam = -0.5; the nearest point of the
        # triangle theta >= 0, theta_1 + theta_2 <= 1 - 1e-6 is its vertex
        # (1 - 1e-6, 0)
        theta = project_structured(1.5 * np.eye(2) + 0.1 * w_bar, basis)
        assert theta.lam == pytest.approx(1e-6)
        assert theta.alpha == 0.0
        assert theta.clamped
        assert theta.feasible

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), rank=st.integers(0, 2),
           w_norm=st.floats(0.1, 3.0), l_sigma=st.floats(0.5, 2.0))
    def test_nearest_feasible_meets_kkt(self, seed, rank, w_norm, l_sigma):
        # f = theta' h theta - 2 g' theta is convex, so a feasible theta is
        # its minimum over the triangle iff grad f makes a product >= 0 with
        # the direction to each vertex
        rng = np.random.default_rng(seed)
        w_bar = rng.standard_normal((3, 3))
        basis = StructuredBasis(W_bar=w_bar * (w_norm / np.linalg.norm(w_bar, 2)),
                                l_sigma=l_sigma)
        factor = rng.standard_normal((2, rank)) * rng.uniform(0.1, 10.0)
        h = factor @ factor.T
        g = h @ (3.0 * rng.standard_normal(2))      # in the range of h
        theta = identify._nearest_feasible(h, g, basis)
        point = np.array([1.0 - theta.lam, theta.lam * theta.alpha])
        top, gain = 1.0 - 1e-6, basis.l_sigma * basis.w_norm
        vertices = np.array([[0.0, 0.0], [top, 0.0], [0.0, top / gain]])
        reach = np.abs(vertices).max()
        tol = 1e-12 * (1.0 + np.abs(h).max() * reach ** 2 + np.abs(g).max() * reach)
        assert theta.feasible
        assert point.min() >= -1e-15 * reach
        assert point[0] + gain * point[1] <= top + 1e-15 * reach
        assert ((vertices - point) @ (h @ point - g)).min() >= -tol
        if not theta.clamped:
            assert np.abs(h @ point - g).max() <= tol

    @pytest.mark.parametrize("scale", [0.0, -2.0, -0.5, 0.5, 2.0])
    @pytest.mark.parametrize("shift", [-3.0, -0.8, 0.3, 0.9, 3.0])
    def test_degenerate_basis_takes_the_nearest_scalar(self, scale, shift):
        # with W_bar = scale I every structured A is c I, c in [-1 + 1e-6,
        # 1 - 1e-6] when scale < 0, else in [0, 1 - 1e-6]; the nearest to
        # A in the Frobenius norm has c = tr A / n clipped to that range
        n = 3
        a = shift * np.eye(n) + np.random.default_rng(1).standard_normal((n, n))
        theta = project_structured(a, StructuredBasis(W_bar=scale * np.eye(n)))
        top = 1.0 - 1e-6
        want = np.clip(np.trace(a) / n, -top if scale < 0.0 else 0.0, top)
        np.testing.assert_allclose(theta.A, want * np.eye(n), atol=1e-12)
        assert theta.feasible and 0.0 < theta.lam <= 1.0


class TestEmRun:
    def _make_dataset(self, n=2, m=1, p=2, horizon=300, seed=0):
        a, b, c = random_stable_system(n, m, p, seed=seed, rho=0.7)
        q = 0.05 * np.eye(n)
        r = 0.05 * np.eye(p)
        rng = np.random.default_rng(seed + 500)
        inputs = rng.standard_normal((horizon, m))
        x = rng.standard_normal(n)
        outputs = np.empty((horizon, p))
        chol_q = np.linalg.cholesky(q)
        chol_r = np.linalg.cholesky(r)
        for t in range(horizon):
            x = a @ x + b @ inputs[t] + chol_q @ rng.standard_normal(n)
            outputs[t] = c @ x + chol_r @ rng.standard_normal(p)
        return (LtiModel(A=a, B=b, C=c, D=np.zeros((p, m))),
                NoiseModel(Q=q, R=r), inputs, outputs)

    def test_loglik_nondecreasing_unconstrained(self):
        lti, noise, inputs, outputs = self._make_dataset(seed=1)
        # deliberately wrong starting dynamics
        start = LtiModel(A=0.2 * np.eye(lti.n), B=np.zeros_like(lti.B),
                         C=lti.C, D=lti.D)
        result = em_run(start, NoiseModel(Q=np.eye(lti.n), R=np.eye(lti.p)),
                        inputs, outputs, (np.zeros(lti.n), np.eye(lti.n)),
                        max_iters=40)
        diffs = np.diff(result.loglik_trace)
        assert diffs.min() >= -1e-9
        assert result.loglik_trace[-1] > result.loglik_trace[0]

    @pytest.mark.parametrize("max_iters", [True, 2.0, 3.5])
    def test_rejects_non_integer_max_iters(self, max_iters):
        # True would run one iteration and 2.0 two: a count is an integer
        lti, noise, inputs, outputs = self._make_dataset(horizon=20)
        with pytest.raises(TypeError, match="max_iters must be an integer"):
            em_run(lti, noise, inputs, outputs,
                   (np.zeros(lti.n), np.eye(lti.n)), max_iters=max_iters)

    def test_fixed_point_at_truth(self):
        # initialized at the generating parameters of a long run, one EM step
        # barely moves them and barely changes the likelihood
        lti, noise, inputs, outputs = self._make_dataset(horizon=20000, seed=2)
        prior = (np.zeros(lti.n), np.eye(lti.n))
        result = em_run(lti, noise, inputs, outputs, prior, max_iters=2)
        first = em_step(lti, noise, inputs, outputs, prior)
        rel_move = (np.abs(first.lti.A - lti.A).max()
                    / max(np.abs(lti.A).max(), 1.0))
        assert rel_move <= 2e-2
        rel_ll = abs(np.diff(result.loglik_trace)[0] / result.loglik_trace[0])
        assert rel_ll <= 1e-3

    def test_unconstrained_run_reports_no_repair(self):
        lti, noise, inputs, outputs = self._make_dataset(seed=1)
        result = em_run(lti, noise, inputs, outputs,
                        (np.zeros(lti.n), np.eye(lti.n)), max_iters=4,
                        rel_tol=0.0)
        assert result.constrained_steps == (False,) * 4

    def test_structured_run_reports_clamped_steps(self):
        # data from A = 0.1 I + 0.8 W_bar: rho(A) = 0.5, but ||W_bar|| =
        # 2.12 puts it outside the small-gain triangle (0.1 + 0.8 ||W_bar||
        # = 1.79); from A = 0.2 I the first three steps end inside the
        # triangle, the later ones on its margin, and the likelihood rises
        w_bar = np.array([[0.5, 2.0], [0.0, -0.5]])
        b, c = np.array([[1.0], [0.5]]), np.array([[1.0, 0.3], [0.2, 1.0]])
        rng = np.random.default_rng(503)
        inputs = rng.standard_normal((300, 1))
        x, outputs = rng.standard_normal(2), np.empty((300, 2))
        for t in range(300):
            x = (0.1 * np.eye(2) + 0.8 * w_bar) @ x + b @ inputs[t] \
                + np.sqrt(0.05) * rng.standard_normal(2)
            outputs[t] = c @ x + np.sqrt(0.05) * rng.standard_normal(2)
        basis = StructuredBasis(W_bar=w_bar)
        model = LtiModel(A=0.2 * np.eye(2), B=b, C=c, D=np.zeros((2, 1)))
        noise = NoiseModel(Q=0.05 * np.eye(2), R=0.05 * np.eye(2))
        prior = (np.zeros(2), np.eye(2))
        result = em_run(model, noise, inputs, outputs, prior,
                        structure=basis, max_iters=6, rel_tol=0.0)
        flags = []
        for _ in range(6):
            step = em_step(model, noise, inputs, outputs, prior, basis)
            flags.append(step.theta.clamped)
            model, noise = step.lti, step.noise
            margin = (1.0 - step.theta.lam
                      + step.theta.lam * step.theta.alpha * basis.w_norm)
            assert margin <= 1.0 - 1e-6 + 1e-12
            assert step.theta.clamped == (margin > 1.0 - 1e-6 - 1e-12)
        assert flags == [False] * 3 + [True] * 3
        assert np.all(np.diff(result.loglik_trace) > 0.0)
        assert result.constrained_steps == tuple(flags)

    def test_loose_tolerance_stops_early(self):
        lti, noise, inputs, outputs = self._make_dataset(seed=1)
        start = LtiModel(A=0.2 * np.eye(lti.n), B=np.zeros_like(lti.B),
                         C=lti.C, D=lti.D)
        rel_tol = 1e-3
        result = em_run(start, NoiseModel(Q=np.eye(lti.n), R=np.eye(lti.p)),
                        inputs, outputs, (np.zeros(lti.n), np.eye(lti.n)),
                        max_iters=40, rel_tol=rel_tol)
        trace = result.loglik_trace
        small = np.abs(np.diff(trace)) < rel_tol * np.maximum(
            np.abs(trace[:-1]), 1.0)
        # it stops at the first step whose improvement is below the tolerance
        assert 2 <= result.iterations < 40
        assert small[-1] and not small[:-1].any()

    @staticmethod
    def _scripted_steps(monkeypatch, steps):
        """Make em_step return the scripted ``(loglik, theta)`` pairs in
        turn, leaving the model unchanged."""
        script = iter(steps)

        def em_step(lti, noise, inputs, outputs, prior, structure=None):
            loglik, theta = next(script)
            return identify.EmStepResult(lti=lti, noise=noise, loglik=loglik,
                                         theta=theta)

        monkeypatch.setattr(identify, "em_step", em_step)

    def test_unconstrained_decrease_raises(self, monkeypatch):
        lti, noise = scalar_system()
        self._scripted_steps(monkeypatch, [(-10.0, None), (-10.5, None)])
        with pytest.raises(RuntimeError, match="decreased by 5.000e-01"):
            em_run(lti, noise, np.zeros((3, 1)), np.zeros((3, 1)),
                   (np.zeros(1), np.eye(1)), max_iters=4, rel_tol=0.0)

    @pytest.mark.parametrize("rel_tol", [-1.0, math.nan, math.inf])
    def test_rejects_a_tolerance_outside_zero_to_inf(self, rel_tol):
        # a negative or NaN tolerance never ends the run
        lti, noise = scalar_system()
        with pytest.raises(ValueError, match="rel_tol must be finite and >= 0"):
            em_run(lti, noise, np.zeros((3, 1)), np.zeros((3, 1)),
                   (np.zeros(1), np.eye(1)), max_iters=7, rel_tol=rel_tol)

    def test_structured_decrease_raises_after_the_first_step(self, monkeypatch):
        # the first step starts from the caller's model, which may lie
        # outside the family, so its fall stands; every later step
        # maximises over the family, so a fall there is a bug
        lti, noise = scalar_system()
        basis = StructuredBasis(W_bar=np.eye(1))
        thetas = [identify.StructuredTheta(lam=0.5, alpha=0.5, basis=basis,
                                           clamped=clamped)
                  for clamped in (True, False, False, False)]
        logliks = [-9.0, -10.0, -9.5, -9.8]
        self._scripted_steps(monkeypatch, list(zip(logliks, thetas)))
        result = em_run(lti, noise, np.zeros((3, 1)), np.zeros((3, 1)),
                        (np.zeros(1), np.eye(1)), structure=basis,
                        max_iters=3, rel_tol=0.0)
        assert result.constrained_steps == (True, False, False)
        assert result.loglik_trace.tolist() == logliks[:3]
        assert result.theta is thetas[2]
        self._scripted_steps(monkeypatch, list(zip(logliks, thetas)))
        with pytest.raises(RuntimeError, match="decreased by 3.000e-01 at step 3"):
            em_run(lti, noise, np.zeros((3, 1)), np.zeros((3, 1)),
                   (np.zeros(1), np.eye(1)), structure=basis,
                   max_iters=4, rel_tol=0.0)

    @settings(max_examples=30, deadline=None)
    @example(n=2, m=1, p=2, horizon=256, lam=0.1255, share=0.1181, seed=35580840)
    @example(n=2, m=2, p=2, horizon=338, lam=0.5461, share=0.8016, seed=2574648163)
    @given(n=st.integers(2, 4), m=st.integers(1, 2), p=st.integers(1, 3),
           horizon=st.integers(150, 400), lam=st.floats(0.1, 1.0),
           share=st.floats(0.0, 0.95), seed=st.integers(0, 2 ** 32 - 1))
    def test_structured_likelihood_never_falls_after_the_first_step(
            self, n, m, p, horizon, lam, share, seed):
        # data from a feasible (lam, alpha): alpha is a share of the largest
        # one the margin allows at ||W_bar|| = 1
        rng = np.random.default_rng(seed)
        w_bar = rng.standard_normal((n, n))
        w_bar /= np.linalg.norm(w_bar, 2)
        alpha = share * (lam - 1e-6) / lam
        a = (1.0 - lam) * np.eye(n) + lam * alpha * w_bar
        b, c = rng.standard_normal((n, m)), rng.standard_normal((p, n))
        inputs = rng.standard_normal((horizon, m))
        x, outputs = np.zeros(n), np.empty((horizon, p))
        for t in range(horizon):
            x = a @ x + b @ inputs[t] + 0.15 * rng.standard_normal(n)
            outputs[t] = c @ x + 0.15 * rng.standard_normal(p)
        start = LtiModel(A=0.5 * np.eye(n), B=np.zeros((n, m)), C=c,
                         D=np.zeros((p, m)))
        result = em_run(start, NoiseModel(Q=0.1 * np.eye(n), R=0.1 * np.eye(p)),
                        inputs, outputs, (np.zeros(n), np.eye(n)),
                        structure=StructuredBasis(W_bar=w_bar), max_iters=8,
                        rel_tol=0.0)
        assert result.iterations == 8
        assert np.diff(result.loglik_trace)[1:].min() >= -1e-9

    def test_structured_likelihood_never_falls_at_benchmark_size(self):
        # instance 1 of seed 0 of the identify benchmark, built as that
        # workload builds its inputs, and 20 structured steps from its start
        rng = np.random.default_rng(np.random.SeedSequence([0, 1]).generate_state(1)[0])
        n, m, p, horizon, q, r = 16, 1, 2, 2000, 1e-3, 1e-2
        leak = rng.uniform(0.3, 0.7)
        leak0 = float(np.clip(leak * rng.uniform(0.7, 1.3), 0.05, 1.0))
        w = rng.standard_normal((n, n))
        w *= rng.uniform(0.7, 0.95) / np.linalg.norm(w, 2)
        u_mat = rng.standard_normal((n, m))
        readout = Readout(C=rng.standard_normal((p, n)) / math.sqrt(n))
        inputs = rng.standard_normal((horizon, m))
        seeds = rng.integers(2 ** 31, size=2)
        a0 = (1.0 - leak0) * np.eye(n) + leak0 * rng.uniform(0.7, 1.1) * w
        b0 = leak * u_mat + 0.1 * rng.standard_normal((n, m))
        params = ReservoirParams(W=w, U=u_mat, b=np.zeros(n), leak=leak,
                                 activation=Activation.identity())
        traj = simulate(params, np.zeros(n), inputs, readout,
                        process_noise=(q * np.eye(n), int(seeds[0])),
                        measurement_noise=(r * np.eye(p), int(seeds[1])))
        result = em_run(LtiModel(A=a0, B=b0, C=readout.C, D=np.zeros((p, m))),
                        NoiseModel(Q=3.0 * q * np.eye(n), R=3.0 * r * np.eye(p)),
                        inputs, traj.outputs, (np.zeros(n), 1e-2 * np.eye(n)),
                        structure=StructuredBasis(w), max_iters=20, rel_tol=0.0)
        assert result.iterations == 20
        assert np.diff(result.loglik_trace)[1:].min() >= -1e-9

    def test_structured_recovery_single_seed(self):
        rng = np.random.default_rng(30)
        n, m, p = 4, 1, 3
        w_bar = rng.standard_normal((n, n))
        w_bar -= np.trace(w_bar) / n * np.eye(n)
        w_bar /= np.linalg.norm(w_bar, 2)
        lam_true, alpha_true = 0.6, 0.8
        a_true = (1 - lam_true) * np.eye(n) + lam_true * alpha_true * w_bar
        b_true = rng.standard_normal((n, m))
        c_true = rng.standard_normal((p, n))
        q = 0.02 * np.eye(n)
        r = 0.02 * np.eye(p)
        inputs = rng.standard_normal((3000, m))
        x = np.zeros(n)
        outputs = np.empty((3000, p))
        chol_q, chol_r = np.linalg.cholesky(q), np.linalg.cholesky(r)
        for t in range(3000):
            x = a_true @ x + b_true @ inputs[t] + chol_q @ rng.standard_normal(n)
            outputs[t] = c_true @ x + chol_r @ rng.standard_normal(p)

        basis = StructuredBasis(W_bar=w_bar, l_sigma=1.0)
        init = LtiModel(A=0.5 * np.eye(n), B=np.zeros((n, m)), C=c_true,
                        D=np.zeros((p, m)))
        result = em_run(init, NoiseModel(Q=0.1 * np.eye(n), R=0.1 * np.eye(p)),
                        inputs, outputs, (np.zeros(n), np.eye(n)),
                        structure=basis, max_iters=30, rel_tol=1e-7)
        assert result.theta is not None
        assert abs(result.theta.lam - lam_true) <= 0.05
        assert abs(result.theta.alpha - alpha_true) <= 0.1


class TestReadouts:
    def test_mirrored_unit_gram(self):
        # states +-e_i / sqrt(2): zero mean, unit Gram -> C = sum y x'
        n, p = 3, 2
        basis = np.vstack([np.eye(n), -np.eye(n)]) / np.sqrt(2.0)
        rng = np.random.default_rng(10)
        y = rng.standard_normal((2 * n, p))
        ro = readout_ml(basis, y)
        np.testing.assert_allclose(ro.C, (y.T @ basis), atol=1e-12)

    def test_exact_recovery_no_noise(self):
        rng = np.random.default_rng(11)
        c_true = rng.standard_normal((2, 4))
        d_true = rng.standard_normal(2)
        states = rng.standard_normal((100, 4))
        y = states @ c_true.T + d_true
        ro = readout_ml(states, y, ridge=0.0)
        np.testing.assert_allclose(ro.C, c_true, atol=1e-10)
        np.testing.assert_allclose(ro.d, d_true, atol=1e-10)

    def test_ridge_shrinkage_limit(self):
        rng = np.random.default_rng(12)
        states = rng.standard_normal((50, 3))
        y = rng.standard_normal((50, 2))
        ro = readout_ml(states, y, ridge=1e12)
        cross = (y - y.mean(0)).T @ (states - states.mean(0))
        assert np.linalg.norm(ro.C) <= 1e-6 * np.linalg.norm(cross)

    def test_unsmoothed_posterior_and_singular_gram_rejected(self):
        lti, noise = scalar_system()
        outputs = np.random.default_rng(13).standard_normal((20, 1))
        filtered = kalman_filter(lti, noise, np.zeros((20, 1)), outputs,
                                 (np.zeros(1), np.eye(1)))
        with pytest.raises(ValueError, match="^posterior has no smoothed "
                                             "estimates; run the smoother$"):
            readout_ml(filtered, outputs)
        # a constant state coordinate has zero centered second moment
        states = np.column_stack([np.arange(20.0), np.ones(20)])
        with pytest.raises(ValueError,
                           match="^singular readout Gram; set ridge > 0$"):
            readout_ml(states, outputs)

    def test_numerically_singular_gram_rejected(self):
        # a fourth state coordinate 3 x_1 + 0.7 x_2: the centered Gram's
        # sigma_min / sigma_max is 1.7e-16, which LU does not see as singular
        rng = np.random.default_rng(1)
        x = rng.standard_normal((200, 3))
        states = np.column_stack([x, 3.0 * x[:, 0] + 0.7 * x[:, 1]])
        outputs = x @ rng.standard_normal((3, 2)) + 0.1 * rng.standard_normal((200, 2))
        with pytest.raises(ValueError,
                           match="^singular readout Gram; set ridge > 0$"):
            readout_ml(states, outputs)
        # a ridge fits it: the least-squares predictions (C itself is free
        # along the null direction)
        ro = readout_ml(states, outputs, ridge=1e-8)
        xc, yc = states - states.mean(axis=0), outputs - outputs.mean(axis=0)
        want = xc @ np.linalg.lstsq(xc, yc, rcond=None)[0]
        got = states @ ro.C.T + ro.d - outputs.mean(axis=0)
        assert np.abs(got - want).max() <= 1e-8 * np.abs(want).max()

    def test_bayes_rejects_a_singular_noise_covariance(self):
        rng = np.random.default_rng(14)
        with pytest.raises(ValueError, match="^R must be positive definite$"):
            readout_bayes(rng.standard_normal((20, 2)),
                          rng.standard_normal((20, 2)), 1.0, np.diag([1.0, 0.0]))

    @pytest.mark.parametrize("tau_p", [math.inf, math.nan])
    def test_bayes_rejects_a_nonfinite_prior_precision(self, tau_p):
        rng = np.random.default_rng(12)
        with pytest.raises(ValueError,
                           match="tau_p must be positive and finite"):
            readout_bayes(rng.standard_normal((50, 3)),
                          rng.standard_normal((50, 2)), tau_p=tau_p,
                          R=np.eye(2))

    @pytest.mark.parametrize("ridge", [-1.0, math.nan, math.inf])
    def test_rejects_a_ridge_outside_zero_to_inf(self, ridge):
        rng = np.random.default_rng(12)
        with pytest.raises(ValueError, match="ridge must be finite and >= 0"):
            readout_ml(rng.standard_normal((50, 3)), rng.standard_normal((50, 2)),
                       ridge=ridge)

    def test_posterior_uses_state_covariance(self):
        p = make_reservoir(n=3, m=1, seed=14, w_scale=0.7)
        ro_true = Readout(C=np.array([[1.0, -0.5, 0.2]]), d=np.array([0.3]))
        rng = np.random.default_rng(13)
        inputs = rng.uniform(-1, 1, (300, 1))
        q = 0.01 * np.eye(3)
        r = np.array([[0.01]])
        traj = simulate(p, np.zeros(3), inputs, readout=ro_true,
                        process_noise=(q, 1), measurement_noise=(r, 2))
        lti = jacobians_at(p, np.zeros(3), np.zeros(1), ro_true)
        post = rts_smoother(
            kalman_filter(lti, NoiseModel(Q=q, R=r), inputs, traj.outputs,
                          (np.zeros(3), 0.1 * np.eye(3))),
            lti, NoiseModel(Q=q, R=r))
        ro = readout_ml(post, traj.outputs, ridge=1e-8)
        assert np.abs(ro.C - ro_true.C).max() <= 0.2

    def test_bayes_prior_dominates(self):
        rng = np.random.default_rng(15)
        states = rng.standard_normal((50, 3))
        y = rng.standard_normal((50, 2))
        ro, _ = readout_bayes(states, y, tau_p=1e12, R=np.eye(2))
        assert np.abs(ro.C).max() <= 1e-8

    def test_bayes_r_must_match_the_outputs(self):
        rng = np.random.default_rng(19)
        with pytest.raises(ValueError,
                           match=r"^R must be \(2, 2\), got \(3, 3\)$"):
            readout_bayes(rng.standard_normal((20, 3)),
                          rng.standard_normal((20, 2)), tau_p=1.0, R=np.eye(3))

    def test_bayes_reduces_to_ridge_scalar_output(self):
        rng = np.random.default_rng(16)
        states = rng.standard_normal((80, 4))
        y = rng.standard_normal((80, 1))
        tau = 0.7
        ml = readout_ml(states, y, ridge=tau)
        bayes, _ = readout_bayes(states, y, tau_p=tau, R=np.eye(1))
        assert np.abs(ml.C - bayes.C).max() <= 1e-10
        assert np.abs(ml.d - bayes.d).max() <= 1e-10

    def test_posterior_variance_decreases_with_data(self):
        # interleaved mirrored pairs: every even prefix has exactly zero mean,
        # so the precision blocks are nested and each entry variance shrinks
        rng = np.random.default_rng(17)
        half = rng.standard_normal((100, 3))
        states = np.empty((200, 3))
        states[0::2] = half
        states[1::2] = -half
        c_true = rng.standard_normal((2, 3))
        y = states @ c_true.T
        variances = []
        for t in (50, 100, 200):
            _, post = readout_bayes(states[:t], y[:t], tau_p=0.5, R=np.eye(2))
            variances.append(np.diag(np.linalg.inv(post.dense_precision())))
        assert np.all(variances[1] <= variances[0] + 1e-12)
        assert np.all(variances[2] <= variances[1] + 1e-12)

    def test_dense_precision_size_guard(self):
        rng = np.random.default_rng(18)
        states = rng.standard_normal((30, 3))
        y = rng.standard_normal((30, 2))
        _, post = readout_bayes(states, y, tau_p=1.0, R=np.eye(2))
        pre = post.dense_precision()
        assert pre.shape == (6, 6)
        big = type(post)(tau=1.0, state_moment=np.eye(200),
                         r_inv=np.eye(200))
        with pytest.raises(ValueError, match="1e4"):
            big.dense_precision()


class TestSubspace:
    def test_excitation_statistics(self):
        # white inputs excite the default depth, constant ones no depth > 1
        rng = np.random.default_rng(19)
        m, p = 2, 1
        a, b, c = random_stable_system(2, m, p, seed=19, rho=0.6)
        white = rng.standard_normal((90, m))
        x, outputs = np.zeros(2), np.empty((90, p))
        for t in range(90):
            x = a @ x + b @ white[t]
            outputs[t] = c @ x
        basis = StructuredBasis(W_bar=np.eye(2))
        assert subspace_shape(2, basis, inputs=white,
                              outputs=outputs).markov.shape == (20, p, m)
        constant = np.ones((90, m))
        with pytest.raises(ValueError, match="persistently exciting"):
            subspace_shape(2, basis, inputs=constant,
                           outputs=np.ones((90, p)))

    def test_record_shorter_than_its_toeplitz_rows_is_not_enough_data(self):
        # depth 3 on 8 samples of 2 inputs: 5 regressor rows for 6 columns,
        # which no excitation can make full rank; the record is too short
        rng = np.random.default_rng(3)
        with pytest.raises(ValueError, match=r"^not enough data for the "
                           r"requested Markov horizon: T = 8 samples, need "
                           r"more than L \(m \+ 1\) = 9$"):
            subspace_shape(1, StructuredBasis(W_bar=np.eye(1)),
                           inputs=rng.standard_normal((8, 2)),
                           outputs=rng.standard_normal((8, 1)), n_markov=3)

    @pytest.mark.parametrize("samples", [8, 9])
    def test_short_record_is_rejected_before_any_solve(self, monkeypatch, samples):
        # T <= L (m + 1) leaves the regressor wide or square: rejected on its
        # length alone, where the square case was solved, found exciting and
        # then rejected
        solves = []
        lstsq = np.linalg.lstsq
        monkeypatch.setattr(np.linalg, "lstsq",
                            lambda *args, **kw: solves.append(1) or lstsq(*args, **kw))
        rng = np.random.default_rng(3)
        with pytest.raises(ValueError, match="^not enough data"):
            subspace_shape(1, StructuredBasis(W_bar=np.eye(1)),
                           inputs=rng.standard_normal((samples, 2)),
                           outputs=rng.standard_normal((samples, 1)), n_markov=3)
        assert solves == []

    @pytest.mark.parametrize("order", [2, 4])
    def test_order_must_match_the_basis_before_any_solve(self, monkeypatch,
                                                          order):
        # the projection needs an A the size of W_bar; any other order was
        # regressed and realized, then refused by project_structured
        solves = []
        lstsq = np.linalg.lstsq
        monkeypatch.setattr(np.linalg, "lstsq",
                            lambda *args, **kw: solves.append(1) or lstsq(*args, **kw))
        rng = np.random.default_rng(5)
        with pytest.raises(ValueError, match=f"^order {order} must equal the "
                                             f"basis size 3$"):
            subspace_shape(order, StructuredBasis(W_bar=np.eye(3)),
                           inputs=rng.standard_normal((400, 1)),
                           outputs=rng.standard_normal((400, 2)))
        assert solves == []

    def test_excitation_reads_the_same_in_any_units(self):
        # white inputs excite 20 lags whatever their units: the record scaled
        # by 1e-12 (regressor sigma_min about 1e-11) gives the same Markov
        # parameters
        rng = np.random.default_rng(5)
        w = rng.standard_normal((4, 4))
        w *= 0.8 / np.linalg.norm(w, 2)
        params = ReservoirParams(W=w, U=rng.standard_normal((4, 1)),
                                 b=np.zeros(4), leak=0.5,
                                 activation=Activation.identity())
        inputs = rng.standard_normal((400, 1))
        outputs = simulate(params, np.zeros(4), inputs,
                           Readout(C=rng.standard_normal((2, 4)))).outputs
        basis = StructuredBasis(w)
        want = subspace_shape(4, basis, inputs=inputs, outputs=outputs).markov
        got = subspace_shape(4, basis, inputs=1e-12 * inputs,
                             outputs=1e-12 * outputs).markov
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_markov_depth_is_checked_before_estimating(self, monkeypatch):
        # order 2 needs 5 Markov blocks from either source; the data are not
        # regressed on a depth that is then refused
        monkeypatch.setattr(identify, "_markov_from_io", None)
        basis = StructuredBasis(W_bar=np.eye(2))
        message = "^need at least 2 \\* order \\+ 1 = 5 Markov blocks, got 4$"
        with pytest.raises(ValueError, match=message):
            subspace_shape(2, basis, impulse=np.ones((4, 1, 1)))
        rng = np.random.default_rng(4)
        with pytest.raises(ValueError, match=message):
            subspace_shape(2, basis, inputs=rng.standard_normal((50, 1)),
                           outputs=rng.standard_normal((50, 1)), n_markov=4)

    def test_needs_impulse_or_data(self):
        with pytest.raises(ValueError, match="^provide either impulse data "
                                             "or inputs/outputs$"):
            subspace_shape(1, StructuredBasis(W_bar=np.eye(1)),
                           inputs=np.ones((50, 1)))

    def test_excitation_is_checked_at_the_regression_depth(self):
        # a sinusoid excites depth 2 (sigma_min of its two-lag regressor
        # 3.7) but not the 20 lags the Markov parameters are regressed on
        # (sigma_min 1.5e-14)
        inputs = np.sin(0.3 * np.arange(600))[:, None]
        two_lags = np.hstack([inputs[1:-1], inputs[:-2]])
        assert np.linalg.svd(two_lags, compute_uv=False)[-1] > 1.0
        w = np.array([[0.5, 0.3], [-0.2, 0.6]])
        p = ReservoirParams(W=w, U=np.array([[1.0], [0.5]]), b=np.zeros(2),
                            leak=0.5, activation=Activation.identity())
        traj = simulate(p, np.zeros(2), inputs,
                        Readout(C=np.array([[1.0, 0.0]])))
        with pytest.raises(ValueError,
                           match="not persistently exciting at depth 20"):
            subspace_shape(2, StructuredBasis(w), inputs=inputs,
                           outputs=traj.outputs)

    def test_one_dimensional_inputs_rejected(self):
        with pytest.raises(ValueError,
                           match=r"^inputs must be \(T, m\), got \(50,\)$"):
            subspace_shape(2, StructuredBasis(W_bar=np.eye(2)),
                           inputs=np.ones(50), outputs=np.ones((50, 1)))

    @pytest.mark.parametrize("kwargs, error, message", [
        (dict(order=2.5), TypeError, "order must be an integer, got 2.5"),
        (dict(order=True), TypeError, "order must be an integer, got True"),
        (dict(order=0), ValueError, "order must be >= 1, got 0"),
        (dict(n_markov=2.5), TypeError, "n_markov must be an integer, got 2.5"),
        (dict(n_markov=-3), ValueError, "n_markov must be >= 1, got -3"),
        (dict(n_markov=0), ValueError, "n_markov must be >= 1, got 0"),
    ], ids=["order-float", "order-bool", "order-0", "n_markov-float",
            "n_markov-negative", "n_markov-0"])
    def test_order_and_depth_are_checked_up_front(self, kwargs, error,
                                                  message):
        rng = np.random.default_rng(22)
        kwargs = dict(dict(order=2), **kwargs)
        with pytest.raises(error, match=f"^{message}$"):
            subspace_shape(basis=StructuredBasis(W_bar=np.eye(2)),
                           inputs=rng.standard_normal((200, 1)),
                           outputs=rng.standard_normal((200, 1)), **kwargs)

    def test_outputs_shorter_than_inputs_rejected(self):
        rng = np.random.default_rng(20)
        with pytest.raises(ValueError,
                           match=r"^outputs must be \(200, p\), got \(150, 1\)$"):
            subspace_shape(2, StructuredBasis(W_bar=np.eye(2)),
                           inputs=rng.standard_normal((200, 1)),
                           outputs=rng.standard_normal((150, 1)))

    def test_noiseless_impulse_recovery(self):
        n, m, p = 4, 1, 2
        a, b, c = random_stable_system(n, m, p, seed=23, rho=0.75)
        blocks = []
        x = b.copy()
        for _ in range(25):
            blocks.append(c @ x)
            x = a @ x
        blocks = np.array(blocks)
        basis = StructuredBasis(W_bar=np.eye(n))
        res = subspace_shape(n, basis, impulse=blocks)
        np.testing.assert_array_equal(res.markov, blocks)
        x = res.B.copy()
        for k in range(51):
            true_h = c @ np.linalg.matrix_power(a, k) @ b
            assert np.abs(res.C @ x - true_h).max() <= 1e-6
            x = res.A @ x
        assert res.certificate.verdict in (Verdict.PASS, Verdict.FAIL)

    def test_io_route_matches_impulse_route(self):
        n, m, p = 3, 2, 2
        a, b, c = random_stable_system(n, m, p, seed=24, rho=0.6)
        lti = LtiModel(A=a, B=b, C=c, D=np.zeros((p, m)))
        rng = np.random.default_rng(20)
        inputs = rng.standard_normal((4000, m))
        x = np.zeros(n)
        outputs = np.empty((4000, p))
        for t in range(4000):
            x = a @ x + b @ inputs[t]
            outputs[t] = c @ x
        basis = StructuredBasis(W_bar=np.eye(n))
        res = subspace_shape(n, basis, inputs=inputs, outputs=outputs,
                             n_markov=30)
        # noiseless data: the least-squares Markov blocks are C A^k B up to
        # the kernel truncated after 30 lags (rho(A)^30 ~ 2e-7)
        assert res.markov.shape == (30, p, m)
        for k in range(30):
            true_h = c @ np.linalg.matrix_power(a, k) @ b
            assert np.abs(res.markov[k] - true_h).max() <= 1e-5
        xb = res.B.copy()
        for k in range(20):
            true_h = c @ np.linalg.matrix_power(a, k) @ b
            assert np.abs(res.C @ xb - true_h).max() <= 1e-5
            xb = res.A @ xb

    def test_certificate_always_attached(self):
        n = 3
        a, b, c = random_stable_system(n, 1, 1, seed=25, rho=0.7)
        blocks = []
        x = b.copy()
        for _ in range(15):
            blocks.append(c @ x)
            x = a @ x
        rng = np.random.default_rng(21)
        w_bar = rng.standard_normal((n, n))
        w_bar /= np.linalg.norm(w_bar, 2)
        res = subspace_shape(n, StructuredBasis(W_bar=w_bar),
                             impulse=np.array(blocks))
        cert = res.certificate
        if cert.verdict is Verdict.PASS:
            assert cert.kappa < 1.0
        else:
            assert cert.kappa >= 1.0 - 1e-6

    def test_hankel_rank_guard(self):
        # rank-1 kernel cannot support an order-2 realization
        blocks = np.array([[[0.5 ** k]] for k in range(9)])
        with pytest.raises(ValueError, match="rank"):
            subspace_shape(2, StructuredBasis(W_bar=np.eye(2)),
                           impulse=blocks)


class TestScaleEquivariance:
    @settings(max_examples=30)
    @given(n=st.integers(1, 4), m=st.integers(1, 2), p=st.integers(1, 3),
           k=st.integers(-9, 3), seed=st.integers(0, 2 ** 32 - 1))
    def test_estimates_do_not_depend_on_the_data_units(self, n, m, p, k, seed):
        # inputs, states and outputs times s = 10^k, the noise and prior
        # covariances times s^2: A, B, C and the Markov parameters map inputs
        # to states to outputs, so each must come back unscaled.  One em_step
        # only: its Q and R floor is absolute
        s = 10.0 ** k
        a, b, c = random_stable_system(n, m, p, seed=seed)
        rng = np.random.default_rng(seed)
        inputs = rng.standard_normal((200, m))
        states, outputs = np.zeros((201, n)), np.empty((200, p))
        for t in range(200):
            states[t + 1] = a @ states[t] + b @ inputs[t] + 0.1 * rng.standard_normal(n)
            outputs[t] = c @ states[t + 1] + 0.1 * rng.standard_normal(p)
        lti = LtiModel(A=a, B=b, C=c, D=np.zeros((p, m)))
        basis = StructuredBasis(W_bar=a)
        got = []
        for scale in (1.0, s):
            noise = NoiseModel(Q=0.01 * scale ** 2 * np.eye(n),
                               R=0.01 * scale ** 2 * np.eye(p))
            step = em_step(lti, noise, scale * inputs, scale * outputs,
                           (np.zeros(n), scale ** 2 * np.eye(n)))
            got.append({"A": step.lti.A, "B": step.lti.B,
                        "C": readout_ml(scale * states[1:], scale * outputs).C,
                        "markov": subspace_shape(n, basis, inputs=scale * inputs,
                                                 outputs=scale * outputs).markov})
        want, scaled = got
        for name, value in want.items():
            assert (np.abs(scaled[name] - value).max()
                    <= 1e-9 * np.abs(value).max()), name
