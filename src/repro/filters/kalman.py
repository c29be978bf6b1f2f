"""Discrete Kalman filter (paper Section 3, Eq. 3-12), built from scratch.

The system model is::

    x_{k+1} = phi_k x_k + w_k          (state propagation, Eq. 3)
    z_k     = H_k x_k + v_k            (measurement, Eq. 4)

with ``w_k ~ N(0, Q_k)`` and ``v_k ~ N(0, R_k)`` mutually uncorrelated white
noise (Eq. 5-7).  Each cycle of the filter performs

* *prediction* -- propagate the posterior through ``phi`` to obtain the
  a-priori estimate ``x^-`` and covariance ``P^- = phi P phi^T + Q``;
* *correction* -- on receipt of a measurement ``z``, compute the Kalman gain
  ``K = P^- H^T (H P^- H^T + R)^{-1}`` (Eq. 11), fold the innovation
  ``z - H x^-`` into the estimate (Eq. 8), and update the covariance
  (Eq. 12, implemented in the numerically robust Joseph form).

The class is deliberately deterministic: given the same inputs it produces
bit-identical outputs, which is what lets the DKF protocol run an exact
mirror of the server filter at the remote source without communication.

Time-varying models are supported by passing callables ``k -> matrix`` for
``phi``/``H``/``Q``/``R`` (the sinusoidal power-load model of Section 4.2
has ``phi_k`` depend on the time index).

Constant matrices are resolved once per *model*: every filter a
:class:`~repro.filters.models.StateSpaceModel` builds shares its one
:class:`ModelMatrices` bundle, which nothing writes.  A time-varying model
resolves a bundle per instant and runs the same arithmetic on it.
"""

from __future__ import annotations

import copy
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from repro.errors import (
    ConfigurationError,
    DimensionError,
    DivergenceError,
    NonFiniteMeasurementError,
    NotPositiveDefiniteError,
)

MatrixLike = np.ndarray | Callable[[int], np.ndarray]

__all__ = [
    "KalmanFilter",
    "KalmanStep",
    "ModelMatrices",
    "resolve_matrix",
    "check_covariance",
    "phi_power",
]

#: Memoised transition-matrix powers keyed by ``(phi bytes, shape, k)``.
#: The server-side multi-step prediction (``predict_k``, the vector bank's
#: ``forecast_k``) asks for the same ``F^k`` for every stream sharing a
#: model, so recomputing the power per call is pure waste on the hot path.
_PHI_POWER_CACHE: dict[tuple[bytes, tuple[int, ...], int], np.ndarray] = {}
#: Cache ceiling: distinct (model, horizon) pairs are few in practice, but
#: a runaway sweep must not grow the cache without bound.
_PHI_POWER_CACHE_MAX = 512


def phi_power(phi: np.ndarray, k: int) -> np.ndarray:
    """Memoised ``phi ** k`` (matrix power) for a constant transition matrix.

    The cache is keyed by the matrix bytes and the exponent, so every
    filter (and every stream in a vectorised bank) sharing a model reuses
    one computation.  Powers are built incrementally from the largest
    cached power of the same matrix, so a sweep over horizons 1..K costs
    K multiplications total instead of O(K^2).
    """
    if k < 0:
        raise ConfigurationError("matrix power exponent must be non-negative")
    phi = np.asarray(phi, dtype=float)
    if k == 0:
        return np.eye(phi.shape[0])
    if k == 1:
        return phi
    key = (phi.tobytes(), phi.shape, k)
    cached = _PHI_POWER_CACHE.get(key)
    if cached is not None:
        return cached
    # Build up from the largest smaller cached power (usually k-1).
    best_k, best = 1, phi
    for exponent in range(k - 1, 1, -1):
        hit = _PHI_POWER_CACHE.get((key[0], key[1], exponent))
        if hit is not None:
            best_k, best = exponent, hit
            break
    result = best
    for _ in range(k - best_k):
        result = result @ phi
    if len(_PHI_POWER_CACHE) >= _PHI_POWER_CACHE_MAX:
        _PHI_POWER_CACHE.clear()
    _PHI_POWER_CACHE[key] = result
    return result


def resolve_matrix(m: MatrixLike, k: int) -> np.ndarray:
    """Return the matrix value of ``m`` at discrete time index ``k``.

    ``m`` may be a constant ndarray or a callable ``k -> ndarray`` for
    time-varying models.  The result is always a float64 ndarray.
    """
    value = m(k) if callable(m) else m
    return np.asarray(value, dtype=float)


@lru_cache(maxsize=None)
def _identity(n: int) -> np.ndarray:
    eye = np.eye(n)
    eye.flags.writeable = False
    return eye


class ModelMatrices:
    """``phi``, ``phi^T``, ``H``, ``H^T``, ``Q``, ``R`` and ``I_n`` at one instant.

    The transposes are views, so each product reads the layout an inline
    ``phi.T`` would.  Never written once built; a deep copy returns it.
    """

    __slots__ = ("phi", "phi_t", "h", "h_t", "q", "r", "eye")

    def __init__(self, phi: MatrixLike, h: MatrixLike, q: MatrixLike,
                 r: MatrixLike, k: int = 0) -> None:
        self.phi, self.h = resolve_matrix(phi, k), resolve_matrix(h, k)
        self.q, self.r = resolve_matrix(q, k), resolve_matrix(r, k)
        self.phi_t, self.h_t = self.phi.T, self.h.T
        self.eye = _identity(self.phi.shape[0])

    def __deepcopy__(self, memo: dict) -> "ModelMatrices":
        return self

    @staticmethod
    def shared(*matrices: MatrixLike) -> "ModelMatrices | None":
        """A constant model's bundle, for its filters to share; None if time-varying."""
        return None if any(map(callable, matrices)) else ModelMatrices(*matrices)


def check_covariance(p: np.ndarray, name: str = "covariance") -> np.ndarray:
    """Validate that ``p`` is a symmetric positive semi-definite matrix.

    Returns the symmetrised matrix.  Raises
    :class:`~repro.errors.NotPositiveDefiniteError` when an eigenvalue is
    meaningfully negative (tolerance scaled to the matrix magnitude).
    """
    p = np.asarray(p, dtype=float)
    if p.ndim != 2 or p.shape[0] != p.shape[1]:
        raise DimensionError(f"{name} must be square, got shape {p.shape}")
    sym = 0.5 * (p + p.T)
    eigvals = np.linalg.eigvalsh(sym)
    tol = 1e-9 * max(1.0, float(np.abs(sym).max()))
    if eigvals.min() < -tol:
        raise NotPositiveDefiniteError(
            f"{name} has negative eigenvalue {eigvals.min():.3e}"
        )
    return sym


@dataclass(frozen=True)
class KalmanStep:
    """Immutable record of one filter cycle, for logging and diagnostics.

    Attributes:
        k: Discrete time index of the cycle.
        x_prior: A-priori state estimate (after prediction).
        x_post: A-posteriori estimate (equals ``x_prior`` when no
            measurement was applied).
        z_pred: Predicted measurement ``H x^-``.
        innovation: ``z - H x^-`` when a measurement was applied, else None.
        updated: Whether a measurement correction happened this cycle.
        gain: Kalman gain used in the correction, else None.
    """

    k: int
    x_prior: np.ndarray
    x_post: np.ndarray
    z_pred: np.ndarray
    innovation: np.ndarray | None = None
    updated: bool = False
    gain: np.ndarray | None = field(default=None, repr=False)


class KalmanFilter:
    """Standard discrete Kalman filter over a linear-Gaussian system.

    Args:
        phi: State transition matrix (``n x n``), or callable ``k -> matrix``.
        h: Measurement matrix (``m x n``), or callable ``k -> matrix``.
        q: Process noise covariance (``n x n``), or callable.
        r: Measurement noise covariance (``m x m``), or callable.
        x0: Initial state estimate (``n``,).
        p0: Initial estimate covariance (``n x n``).  Defaults to identity.
        matrices: The model's :meth:`ModelMatrices.shared` bundle, shared
            by its filters; resolved here when omitted.

    The filter's clock starts at ``k = 0`` (the index of the *next* cycle).
    Call :meth:`predict` once per sampling instant; call :meth:`update`
    afterwards if a measurement is available for that instant.  The
    convenience method :meth:`step` does both.
    """

    # Optional telemetry span timers (see :meth:`instrument`).  A class
    # attribute so uninstrumented filters pay one attribute load and one
    # ``is None`` branch per predict/update -- nothing else.
    _timers = None

    def __init__(
        self,
        phi: MatrixLike,
        h: MatrixLike,
        q: MatrixLike,
        r: MatrixLike,
        x0: np.ndarray,
        p0: np.ndarray | None = None,
        matrices: ModelMatrices | None = None,
    ) -> None:
        self._phi = phi
        self._h = h
        self._q = q
        self._r = r
        # None: time-varying, so each call resolves its instant's bundle.
        self._shared = matrices or ModelMatrices.shared(phi, h, q, r)

        x0 = np.asarray(x0, dtype=float).reshape(-1)
        m0 = self._shared or self._resolve(0)
        n = m0.phi.shape[0]
        if m0.phi.shape != (n, n):
            raise DimensionError(f"phi must be square, got {m0.phi.shape}")
        if x0.shape != (n,):
            raise DimensionError(f"x0 must have shape ({n},), got {x0.shape}")
        if m0.h.shape[1] != n:
            raise DimensionError(
                f"H must have {n} columns to match the state, got {m0.h.shape}"
            )
        self._n = n
        self._m = m0.h.shape[0]

        if m0.q.shape != (n, n):
            raise DimensionError(f"Q must have shape ({n},{n}), got {m0.q.shape}")
        if m0.r.shape != (self._m, self._m):
            raise DimensionError(
                f"R must have shape ({self._m},{self._m}), got {m0.r.shape}"
            )

        if p0 is None:
            p0 = np.eye(n)
        self._x = x0.copy()
        self._p = check_covariance(p0, "P0")
        self._k = 0
        # Prior and posterior share arrays until update(); none is written.
        self._x_prior = self._x
        self._p_prior = self._p

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def state_dim(self) -> int:
        """Number of state variables ``n``."""
        return self._n

    @property
    def measurement_dim(self) -> int:
        """Number of measured variables ``m``."""
        return self._m

    @property
    def k(self) -> int:
        """Discrete time index of the next cycle."""
        return self._k

    @property
    def x(self) -> np.ndarray:
        """Current a-posteriori state estimate (copy)."""
        return self._x.copy()

    @property
    def p(self) -> np.ndarray:
        """Current a-posteriori error covariance (copy)."""
        return self._p.copy()

    @property
    def x_prior(self) -> np.ndarray:
        """A-priori state estimate from the most recent prediction (copy)."""
        return self._x_prior.copy()

    @property
    def p_prior(self) -> np.ndarray:
        """A-priori covariance from the most recent prediction (copy)."""
        return self._p_prior.copy()

    def instrument(self, timers) -> None:
        """Attach span timers to the predict/correct hot paths.

        ``timers`` is a :class:`~repro.obs.timing.SpanTimers` (or None to
        detach).  The DKF endpoints call this when telemetry is enabled;
        by default the filter carries no timers and the hot paths run at
        seed speed.
        """
        self._timers = timers

    def _resolve(self, k: int) -> ModelMatrices:
        return ModelMatrices(self._phi, self._h, self._q, self._r, k)

    def phi_at(self, k: int) -> np.ndarray:
        """State transition matrix at time index ``k``."""
        return resolve_matrix(self._phi, k)

    def h_at(self, k: int) -> np.ndarray:
        """Measurement matrix at time index ``k``."""
        return resolve_matrix(self._h, k)

    def q_at(self, k: int) -> np.ndarray:
        """Process noise covariance at time index ``k``."""
        return resolve_matrix(self._q, k)

    def r_at(self, k: int) -> np.ndarray:
        """Measurement noise covariance at time index ``k``."""
        return resolve_matrix(self._r, k)

    # ------------------------------------------------------------------
    # Core cycle
    # ------------------------------------------------------------------

    def predict(self) -> np.ndarray:
        """Propagate the state one step: the *prediction* half of the cycle.

        Computes ``x^- = phi_k x`` and ``P^- = phi_k P phi_k^T + Q_k`` for
        the current time index, advances the clock, and leaves the filter in
        the "prior" state.  If no measurement follows, the prior simply
        becomes the posterior (the filter coasts).

        Returns:
            The a-priori state estimate ``x^-`` (copy).
        """
        timers = self._timers
        if timers is not None:
            timers.start("kalman.predict")
        try:
            m = self._shared or self._resolve(self._k)
            # Coast by default: posterior mirrors the prior until update()
            # runs.
            self._x = self._x_prior = m.phi @ self._x
            self._p = self._p_prior = m.phi @ self._p @ m.phi_t + m.q
            self._k += 1
            if not np.isfinite(self._x).all():
                raise DivergenceError(f"state became non-finite at k={self._k}")
            return self._x_prior.copy()
        finally:
            if timers is not None:
                timers.stop("kalman.predict")

    def predict_measurement(self) -> np.ndarray:
        """Predicted measurement ``H x`` for the current estimate.

        After :meth:`predict` this is the one-step-ahead measurement
        prediction the DKF protocol compares against the sensor reading.
        """
        return (self._shared or self._resolve(max(self._k - 1, 0))).h @ self._x

    def update(self, z: np.ndarray) -> np.ndarray:
        """Fold measurement ``z`` into the estimate: the *correction* half.

        Implements Eq. 8, 11 and 12.  The covariance update uses the Joseph
        form ``P = (I - K H) P^- (I - K H)^T + K R K^T``, which preserves
        symmetry and positive semi-definiteness under roundoff.

        Args:
            z: Measurement vector of shape ``(m,)`` (scalars accepted).

        Returns:
            The a-posteriori state estimate (copy).
        """
        timers = self._timers
        if timers is not None:
            timers.start("kalman.update")
        try:
            z = np.asarray(z, dtype=float).reshape(-1)
            if z.shape != (self._m,):
                raise DimensionError(
                    f"z must have shape ({self._m},), got {z.shape}"
                )
            if not np.isfinite(z).all():
                # Reject before touching any state: the caller can discard
                # the reading and the filter remains usable.
                raise NonFiniteMeasurementError(
                    "measurement contains NaN or infinity"
                )
            m = self._shared or self._resolve(max(self._k - 1, 0))
            innovation = z - m.h @ self._x
            s = m.h @ self._p @ m.h_t + m.r
            # K = P H^T S^{-1}, solved without forming an explicit inverse.
            gain = np.linalg.solve(s.T, (self._p @ m.h_t).T).T

            self._x = self._x + gain @ innovation
            i_kh = m.eye - gain @ m.h
            p = i_kh @ self._p @ i_kh.T + gain @ m.r @ gain.T
            self._p = 0.5 * (p + p.T)
            if not np.isfinite(self._x).all():
                raise DivergenceError(f"state became non-finite at k={self._k}")
            return self._x.copy()
        finally:
            if timers is not None:
                timers.stop("kalman.update")

    def step(self, z: np.ndarray | None = None) -> KalmanStep:
        """Run one full predict(-correct) cycle and return a step record.

        Args:
            z: Measurement for this instant, or None to coast on prediction.
        """
        k = self._k
        x_prior = self.predict()
        z_pred = self.predict_measurement()
        if z is None:
            return KalmanStep(k=k, x_prior=x_prior, x_post=self.x, z_pred=z_pred)
        innovation = np.atleast_1d(np.asarray(z, dtype=float)) - z_pred
        m = self._shared or self._resolve(k)
        p_prior = self._p
        s = m.h @ p_prior @ m.h_t + m.r
        gain = np.linalg.solve(s.T, (p_prior @ m.h_t).T).T
        self.update(z)
        return KalmanStep(
            k=k,
            x_prior=x_prior,
            x_post=self.x,
            z_pred=z_pred,
            innovation=innovation,
            updated=True,
            gain=gain,
        )

    # ------------------------------------------------------------------
    # Multi-step prediction & utilities
    # ------------------------------------------------------------------

    def forecast(self, steps: int) -> np.ndarray:
        """Extrapolate the measurement ``steps`` cycles ahead without
        mutating the filter.

        Returns an array of shape ``(steps, m)`` with the predicted
        measurements at ``k, k+1, ..., k+steps-1``.
        """
        if steps < 0:
            raise ValueError("steps must be non-negative")
        x = self._x.copy()
        out = np.empty((steps, self._m))
        for i in range(steps):
            k_idx = self._k + i
            x = resolve_matrix(self._phi, k_idx) @ x
            out[i] = resolve_matrix(self._h, k_idx) @ x
        return out

    def predict_k(self, steps: int) -> np.ndarray:
        """Measurement prediction ``steps`` cycles ahead, without mutation.

        Unlike :meth:`forecast` (which returns the whole horizon and always
        loops), this returns only the endpoint ``H phi^steps x`` and, for
        constant transition matrices, jumps there in a single multiply
        using the memoised :func:`phi_power` cache -- the shape the server
        hot path wants when checking whether a source's δ bound will hold
        ``steps`` ticks out.

        Time-varying models cannot reuse powers (``phi_k`` differs per
        step) and fall back to the per-step loop.

        Returns:
            Predicted measurement of shape ``(m,)`` at ``k + steps - 1``
            (``steps=0`` returns the current predicted measurement).
        """
        if steps < 0:
            raise ValueError("steps must be non-negative")
        if steps == 0:
            return self.predict_measurement()
        if callable(self._phi):
            x = self._x.copy()
            for i in range(steps):
                x = resolve_matrix(self._phi, self._k + i) @ x
        else:
            x = phi_power(np.asarray(self._phi, dtype=float), steps) @ self._x
        h = resolve_matrix(self._h, self._k + steps - 1)
        return h @ x

    def innovation_covariance(self) -> np.ndarray:
        """Innovation covariance ``S = H P H^T + R`` at the current step."""
        m = self._shared or self._resolve(max(self._k - 1, 0))
        return m.h @ self._p @ m.h_t + m.r

    def set_state(self, x: np.ndarray, p: np.ndarray | None = None) -> None:
        """Overwrite the posterior estimate (used when re-seeding a filter).

        Args:
            x: New state estimate of shape ``(n,)``.
            p: New covariance; kept unchanged when None.
        """
        x = np.asarray(x, dtype=float).reshape(-1)
        if x.shape != (self._n,):
            raise DimensionError(f"x must have shape ({self._n},), got {x.shape}")
        self._x = x.copy()
        if p is not None:
            self._p = check_covariance(p, "P")

    def set_clock(self, k: int) -> None:
        """Move the filter's discrete clock (checkpoint restore only).

        Time-varying models resolve ``phi``/``H``/``Q``/``R`` from the
        clock, so a filter rebuilt from a checkpoint must resume at the
        checkpointed index for its arithmetic to stay deterministic.
        """
        if k < 0:
            raise ConfigurationError("filter clock must be non-negative")
        self._k = int(k)

    def copy(self) -> "KalmanFilter":
        """Deep copy of the filter, including its clock and covariances.

        The DKF protocol creates the mirror filter this way so that both
        sides start from bit-identical state; the model's matrices are shared.
        """
        shared = (self._phi, self._h, self._q, self._r)
        return copy.deepcopy(self, {id(m): m for m in shared})

    def state_digest(self) -> tuple[int, bytes]:
        """Cheap fingerprint ``(k, bytes(x))`` used for desync detection."""
        return self._k, self._x.tobytes()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"KalmanFilter(n={self._n}, m={self._m}, k={self._k}, "
            f"x={np.array2string(self._x, precision=4)})"
        )
