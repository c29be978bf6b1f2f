"""Unit tests for the discrete Kalman filter core."""

import gc
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import (
    DimensionError,
    DivergenceError,
    NonFiniteMeasurementError,
    NotPositiveDefiniteError,
)
from repro.filters.kalman import KalmanFilter, check_covariance, resolve_matrix
from repro.filters.models import constant_model, linear_model


def scalar_filter(q=0.05, r=0.05, x0=0.0, p0=1.0):
    return KalmanFilter(
        phi=np.eye(1),
        h=np.eye(1),
        q=np.array([[q]]),
        r=np.array([[r]]),
        x0=np.array([x0]),
        p0=np.array([[p0]]),
    )


class TestConstruction:
    def test_dimensions_recorded(self):
        kf = KalmanFilter(
            phi=np.eye(4),
            h=np.zeros((2, 4)),
            q=np.eye(4),
            r=np.eye(2),
            x0=np.zeros(4),
        )
        assert kf.state_dim == 4
        assert kf.measurement_dim == 2
        assert kf.k == 0

    def test_default_p0_is_identity(self):
        kf = KalmanFilter(np.eye(2), np.eye(2), np.eye(2), np.eye(2), np.zeros(2))
        assert np.array_equal(kf.p, np.eye(2))

    def test_rejects_non_square_phi(self):
        with pytest.raises(DimensionError):
            KalmanFilter(np.zeros((2, 3)), np.eye(2), np.eye(2), np.eye(2), np.zeros(2))

    def test_rejects_wrong_x0(self):
        with pytest.raises(DimensionError):
            KalmanFilter(np.eye(2), np.eye(2), np.eye(2), np.eye(2), np.zeros(3))

    def test_rejects_wrong_h_columns(self):
        with pytest.raises(DimensionError):
            KalmanFilter(np.eye(2), np.eye(3), np.eye(2), np.eye(3), np.zeros(2))

    def test_rejects_wrong_q_shape(self):
        with pytest.raises(DimensionError):
            KalmanFilter(np.eye(2), np.eye(2), np.eye(3), np.eye(2), np.zeros(2))

    def test_rejects_wrong_r_shape(self):
        with pytest.raises(DimensionError):
            KalmanFilter(np.eye(2), np.eye(2), np.eye(2), np.eye(3), np.zeros(2))

    def test_rejects_indefinite_p0(self):
        with pytest.raises(NotPositiveDefiniteError):
            KalmanFilter(
                np.eye(2),
                np.eye(2),
                np.eye(2),
                np.eye(2),
                np.zeros(2),
                p0=np.array([[1.0, 0.0], [0.0, -1.0]]),
            )


class TestResolveMatrix:
    def test_constant_passthrough(self):
        m = np.eye(2)
        assert np.array_equal(resolve_matrix(m, 5), m)

    def test_callable_evaluated_at_k(self):
        result = resolve_matrix(lambda k: np.eye(2) * k, 3)
        assert np.array_equal(result, np.eye(2) * 3)

    def test_result_is_float(self):
        assert resolve_matrix(np.eye(2, dtype=int), 0).dtype == float


class TestCheckCovariance:
    def test_symmetrises(self):
        p = np.array([[1.0, 0.1], [0.0, 1.0]])
        sym = check_covariance(p)
        assert np.allclose(sym, sym.T)

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(NotPositiveDefiniteError):
            check_covariance(np.array([[1.0, 0.0], [0.0, -0.5]]))

    def test_rejects_non_square(self):
        with pytest.raises(DimensionError):
            check_covariance(np.zeros((2, 3)))

    def test_accepts_psd_boundary(self):
        check_covariance(np.zeros((3, 3)))  # PSD with zero eigenvalues.


class TestPredict:
    def test_state_propagates_through_phi(self):
        kf = KalmanFilter(
            phi=np.array([[1.0, 1.0], [0.0, 1.0]]),
            h=np.array([[1.0, 0.0]]),
            q=np.zeros((2, 2)),
            r=np.eye(1),
            x0=np.array([0.0, 2.0]),
        )
        kf.predict()
        assert np.allclose(kf.x, [2.0, 2.0])
        kf.predict()
        assert np.allclose(kf.x, [4.0, 2.0])

    def test_covariance_grows_by_q(self):
        kf = scalar_filter(q=0.5, p0=1.0)
        kf.predict()
        assert np.isclose(kf.p[0, 0], 1.5)

    def test_clock_advances(self):
        kf = scalar_filter()
        kf.predict()
        kf.predict()
        assert kf.k == 2

    def test_coasting_posterior_equals_prior(self):
        kf = scalar_filter()
        kf.predict()
        assert np.array_equal(kf.x, kf.x_prior)
        assert np.array_equal(kf.p, kf.p_prior)


class TestUpdate:
    def test_hand_computed_scalar_cycle(self):
        # One predict/correct cycle, checked against the closed-form
        # equations (Eq. 8, 11, 12) computed by hand.
        kf = scalar_filter(q=0.1, r=0.2, x0=1.0, p0=0.5)
        kf.predict()  # x- = 1.0, P- = 0.6
        z = 2.0
        k_gain = 0.6 / (0.6 + 0.2)  # = 0.75
        expected_x = 1.0 + k_gain * (z - 1.0)  # = 1.75
        expected_p = (1 - k_gain) * 0.6  # = 0.15
        kf.update(np.array([z]))
        assert np.isclose(kf.x[0], expected_x)
        assert np.isclose(kf.p[0, 0], expected_p)

    def test_update_moves_toward_measurement(self):
        kf = scalar_filter(x0=0.0)
        kf.predict()
        kf.update(np.array([10.0]))
        assert 0.0 < kf.x[0] < 10.0

    def test_small_r_trusts_measurement(self):
        kf = scalar_filter(r=1e-12, x0=0.0)
        kf.predict()
        kf.update(np.array([10.0]))
        assert np.isclose(kf.x[0], 10.0, atol=1e-6)

    def test_large_r_ignores_measurement(self):
        kf = scalar_filter(r=1e12, x0=0.0, p0=1.0)
        kf.predict()
        kf.update(np.array([10.0]))
        assert abs(kf.x[0]) < 1e-6

    def test_rejects_wrong_measurement_shape(self):
        kf = scalar_filter()
        kf.predict()
        with pytest.raises(DimensionError):
            kf.update(np.array([1.0, 2.0]))

    def test_rejects_nan_measurement(self):
        kf = scalar_filter()
        kf.predict()
        with pytest.raises(DivergenceError):
            kf.update(np.array([np.nan]))

    def test_joseph_form_keeps_covariance_symmetric(self):
        rng = np.random.default_rng(0)
        kf = KalmanFilter(
            phi=np.array([[1.0, 0.1], [0.0, 1.0]]),
            h=np.array([[1.0, 0.0]]),
            q=np.eye(2) * 0.05,
            r=np.eye(1) * 0.05,
            x0=np.zeros(2),
        )
        for _ in range(200):
            kf.predict()
            kf.update(rng.normal(size=1))
        assert np.allclose(kf.p, kf.p.T)
        assert np.linalg.eigvalsh(kf.p).min() >= -1e-12


class TestStep:
    def test_step_without_measurement_coasts(self):
        kf = scalar_filter(x0=5.0)
        record = kf.step()
        assert not record.updated
        assert record.innovation is None
        assert np.isclose(record.z_pred[0], 5.0)

    def test_step_with_measurement_updates(self):
        kf = scalar_filter(x0=0.0)
        record = kf.step(np.array([1.0]))
        assert record.updated
        assert np.isclose(record.innovation[0], 1.0)
        assert record.gain is not None

    def test_step_records_time_index(self):
        kf = scalar_filter()
        assert kf.step().k == 0
        assert kf.step().k == 1

    def test_step_equivalent_to_predict_update(self):
        kf1 = scalar_filter(x0=1.0)
        kf2 = scalar_filter(x0=1.0)
        kf1.step(np.array([3.0]))
        kf2.predict()
        kf2.update(np.array([3.0]))
        assert np.allclose(kf1.x, kf2.x)
        assert np.allclose(kf1.p, kf2.p)


class TestForecast:
    def test_linear_extrapolation(self):
        kf = KalmanFilter(
            phi=np.array([[1.0, 1.0], [0.0, 1.0]]),
            h=np.array([[1.0, 0.0]]),
            q=np.zeros((2, 2)),
            r=np.eye(1),
            x0=np.array([0.0, 3.0]),
        )
        forecast = kf.forecast(4)
        assert np.allclose(forecast[:, 0], [3.0, 6.0, 9.0, 12.0])

    def test_forecast_does_not_mutate(self):
        kf = scalar_filter(x0=7.0)
        x_before = kf.x
        kf.forecast(10)
        assert np.array_equal(kf.x, x_before)
        assert kf.k == 0

    def test_zero_steps(self):
        assert scalar_filter().forecast(0).shape == (0, 1)

    def test_negative_steps_rejected(self):
        with pytest.raises(ValueError):
            scalar_filter().forecast(-1)


class TestTimeVarying:
    def test_callable_phi_uses_clock(self):
        seen = []

        def phi(k):
            seen.append(k)
            return np.eye(1)

        kf = KalmanFilter(phi, np.eye(1), np.eye(1) * 0.1, np.eye(1), np.zeros(1))
        kf.predict()
        kf.predict()
        assert 0 in seen and 1 in seen


class TestTimeVaryingForecast:
    def test_forecast_uses_future_time_indices(self):
        """A time-varying phi must be evaluated at the *future* indices
        during forecasting, not frozen at the current clock."""
        seen = []

        def phi(k):
            seen.append(k)
            return np.eye(1)

        kf = KalmanFilter(phi, np.eye(1), np.eye(1) * 0.1, np.eye(1), np.zeros(1))
        kf.predict()  # consumes phi(0); clock now 1
        seen.clear()
        kf.forecast(3)
        assert seen == [1, 2, 3]

    def test_sinusoidal_forecast_oscillates(self):
        """Forecasting through the Example 2 model produces a curved,
        non-monotone trajectory -- impossible with a cached value."""
        import math

        from repro.filters.models import sinusoidal_model

        omega = 2 * math.pi / 24
        model = sinusoidal_model(omega=omega, theta=0.0)
        kf = model.build_filter(np.array([100.0]))
        kf.set_state(np.array([100.0, 50.0 * omega]))
        forecast = kf.forecast(48)[:, 0]
        diffs = np.diff(forecast)
        assert (diffs > 0).any() and (diffs < 0).any()


class TestCopyAndDigest:
    def test_copy_is_independent(self):
        kf = scalar_filter(x0=1.0)
        clone = kf.copy()
        kf.predict()
        kf.update(np.array([5.0]))
        assert np.isclose(clone.x[0], 1.0)
        assert clone.k == 0

    def test_digest_matches_for_identical_histories(self):
        a, b = scalar_filter(x0=1.0), scalar_filter(x0=1.0)
        for z in (1.5, 2.5, 0.5):
            a.predict()
            a.update(np.array([z]))
            b.predict()
            b.update(np.array([z]))
        assert a.state_digest() == b.state_digest()

    def test_digest_differs_after_divergent_input(self):
        a, b = scalar_filter(x0=1.0), scalar_filter(x0=1.0)
        a.predict()
        a.update(np.array([2.0]))
        b.predict()
        b.update(np.array([3.0]))
        assert a.state_digest() != b.state_digest()


class TestDivergenceDetection:
    def test_unstable_system_raises(self):
        kf = KalmanFilter(
            phi=np.array([[1e200]]),
            h=np.eye(1),
            q=np.eye(1),
            r=np.eye(1),
            x0=np.array([1.0]),
        )
        with pytest.raises(DivergenceError):
            kf.predict()
            kf.predict()


class TestInnovationCovariance:
    def test_formula(self):
        kf = scalar_filter(q=0.1, r=0.2, p0=0.5)
        kf.predict()
        # S = H P H^T + R = 0.6 + 0.2
        assert np.isclose(kf.innovation_covariance()[0, 0], 0.8)


class TestSetState:
    def test_overwrites_state(self):
        kf = scalar_filter()
        kf.set_state(np.array([9.0]), np.array([[2.0]]))
        assert kf.x[0] == 9.0
        assert kf.p[0, 0] == 2.0

    def test_keeps_covariance_when_omitted(self):
        kf = scalar_filter(p0=3.0)
        kf.set_state(np.array([1.0]))
        assert kf.p[0, 0] == 3.0

    def test_rejects_bad_shape(self):
        with pytest.raises(DimensionError):
            scalar_filter().set_state(np.array([1.0, 2.0]))


class TestNonFiniteMeasurements:
    def test_nan_measurement_raises_typed_error(self):
        from repro.errors import NonFiniteMeasurementError

        kf = scalar_filter()
        kf.predict()
        with pytest.raises(NonFiniteMeasurementError):
            kf.update(np.array([np.nan]))

    def test_inf_measurement_raises_typed_error(self):
        from repro.errors import NonFiniteMeasurementError

        kf = scalar_filter()
        kf.predict()
        with pytest.raises(NonFiniteMeasurementError):
            kf.update(np.array([np.inf]))

    def test_rejected_measurement_leaves_state_untouched(self):
        from repro.errors import NonFiniteMeasurementError

        kf = scalar_filter()
        kf.predict()
        kf.update(np.array([1.0]))
        kf.predict()
        x_before = kf.x.copy()
        p_before = kf.p.copy()
        k_before = kf.k
        with pytest.raises(NonFiniteMeasurementError):
            kf.update(np.array([np.nan]))
        assert np.array_equal(kf.x, x_before)
        assert np.array_equal(kf.p, p_before)
        assert kf.k == k_before
        # The filter keeps working after the reject.
        kf.update(np.array([1.1]))
        assert np.all(np.isfinite(kf.x))

    def test_nonfinite_is_a_divergence_error(self):
        # Callers catching the broad divergence family keep working.
        from repro.errors import NonFiniteMeasurementError

        assert issubclass(NonFiniteMeasurementError, DivergenceError)


# ---------------------------------------------------------------------------
# Shared constant matrices: same bits as per-instant resolution, less memory
# ---------------------------------------------------------------------------

MODELS = {
    "constant-1d": constant_model(1),
    "constant-2d": constant_model(2),
    "linear-1d": linear_model(dims=1, dt=0.1),
    # 4 states, m = 2, dense P after a set_state: the case where the
    # vector bank is only 1e-10 close to this filter, not bit-equal.
    "linear-2d": linear_model(dims=2, dt=0.1),
}
_finite = st.floats(-1e3, 1e3, allow_nan=False, width=64)
_op = st.tuples(
    st.sampled_from(
        ("predict", "predict", "update", "nonfinite", "step", "set_state",
         "set_clock", "forecast")
    ),
    st.lists(_finite, min_size=20, max_size=20),
    st.integers(0, 40),
    st.booleans(),
)


def _callable_twin(model, z0, p0_scale):
    """The same model with every matrix behind ``lambda k: matrix``, so the
    filter resolves its matrices per instant instead of sharing them."""
    matrices = (model.phi, model.h, model.q, model.r)
    return KalmanFilter(
        *(lambda k, a=a: a for a in matrices),
        model.initial_state(z0),
        np.eye(model.state_dim) * p0_scale,
    )


def _apply(flt, kind, floats, number, flag, n, m):
    """One op on one filter; returns whatever the op returns, as bytes."""
    z = np.array(floats[:m])
    if kind == "predict":
        return flt.predict().tobytes()
    if kind == "update":
        return flt.update(z).tobytes()
    if kind == "nonfinite":
        z[number % m] = (np.nan, np.inf, -np.inf)[number % 3]
        with pytest.raises(NonFiniteMeasurementError):
            flt.update(z)
        return b""
    if kind == "step":
        step = flt.step(None if flag else z)
        fields = (step.x_prior, step.x_post, step.z_pred)
        extra = () if flag else (step.innovation, step.gain)
        return b"|".join(a.tobytes() for a in (*fields, *extra))
    if kind == "set_state":
        a = np.array(floats[: n * n] * n)[: n * n].reshape(n, n)
        p = a @ a.T / 1e3 + np.eye(n) * 0.5
        flt.set_state(np.array((floats * n)[-n:]), p if flag else None)
        return b""
    if kind == "set_clock":
        flt.set_clock(number)
        return b""
    return flt.forecast(number % 4).tobytes()


def _observe(flt):
    k, digest = flt.state_digest()
    arrays = (
        flt.x, flt.p, flt.x_prior, flt.p_prior,
        flt.predict_measurement(), flt.innovation_covariance(),
    )
    return flt.k, k, digest, [a.tobytes() for a in arrays]


@pytest.mark.parametrize("model_name", sorted(MODELS))
@settings(max_examples=60, deadline=None)
@given(
    z0=st.lists(_finite, min_size=2, max_size=2),
    p0_scale=st.floats(0.1, 10.0),
    ops=st.lists(_op, min_size=1, max_size=40),
)
def test_shared_matrices_give_the_bits_of_per_instant_resolution(
    model_name, z0, p0_scale, ops
):
    model = MODELS[model_name]
    n, m = model.state_dim, model.measurement_dim
    z0 = np.array(z0[:m])
    shared = model.build_filter(z0, p0_scale=p0_scale)
    twin = _callable_twin(model, z0, p0_scale)
    assert _observe(shared) == _observe(twin)
    prior = None
    for kind, floats, number, flag in ops:
        got = _apply(shared, kind, floats, number, flag, n, m)
        assert got == _apply(twin, kind, floats, number, flag, n, m)
        assert _observe(shared) == _observe(twin)
        # The prior shares its arrays with the posterior until update()
        # replaces them: no later op may write through to it.
        if kind in ("predict", "step"):
            prior = shared.x_prior.tobytes(), shared.p_prior.tobytes()
        elif prior is not None:
            assert (shared.x_prior.tobytes(), shared.p_prior.tobytes()) == prior


#: Per-filter bytes of 1000 ``linear_model(dims=2)`` filters after one
#: predict + update: ~995 B with one bundle per model, ~1365 B with one
#: per filter (two transposed views and the bundle object).
_FILTER_BYTES = 1150
#: Per-copy bytes: ~1390 B sharing the bundle, ~2180 B duplicating it.
_COPY_BYTES = 1750


def _traced_bytes_per_item(make, count):
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        items = [make(i) for i in range(count)]
        gc.collect()
        used = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    return items, used / count


def test_filters_of_one_model_share_its_matrices():
    model = linear_model(dims=2, dt=0.1)
    z = np.array([1.0, 2.0])
    model.build_filter(z)  # resolve the model's bundle before measuring

    def build(i):
        flt = model.build_filter(z + i)
        flt.predict()
        flt.update(z)
        return flt

    filters, per_filter = _traced_bytes_per_item(build, 1000)
    assert per_filter < _FILTER_BYTES

    clones, per_copy = _traced_bytes_per_item(lambda i: filters[i].copy(), 1000)
    assert per_copy < _COPY_BYTES
    for flt, clone in zip(filters[:10], clones):
        assert _observe(clone) == _observe(flt)
        flt.predict()
        clone.predict()
        clone.update(z + 1)
        assert _observe(clone) != _observe(flt)
        flt.update(z + 1)
        assert _observe(clone) == _observe(flt)
