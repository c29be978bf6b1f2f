"""State-space model zoo (paper Section 4).

A :class:`StateSpaceModel` bundles the four matrices (``phi``, ``H``, ``Q``,
``R``) plus an initial state builder, and knows how to instantiate a
:class:`~repro.filters.kalman.KalmanFilter`.  The models the paper uses:

* :func:`constant_model` -- Eq. 15: the state is the measured value itself
  and the best prediction is the last estimate.  Conceptually equivalent to
  the cached-approximation baseline.
* :func:`linear_model` -- Eq. 13/14: constant-velocity kinematics; position
  and rate-of-change per tracked coordinate.
* :func:`acceleration_model` / :func:`jerk_model` -- the higher-order
  extensions sketched at the end of Section 4.1 (state ``[P, P', P'', P''']``).
* :func:`sinusoidal_model` -- Eq. 17: power-load model with a sinusoidal
  trend; ``phi_k`` is time-varying.
* :func:`smoothing_model` -- Section 4.3: scalar constant model whose
  process covariance is the user smoothing factor ``F``.

All builders take the measured dimensionality and noise levels as keyword
arguments with the paper's defaults (diagonal ``Q``/``R`` with value 0.05,
Section 4.1).
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.errors import ConfigurationError, DimensionError
from repro.filters.kalman import KalmanFilter, MatrixLike, ModelMatrices, resolve_matrix

__all__ = [
    "StateSpaceModel",
    "constant_model",
    "linear_model",
    "acceleration_model",
    "jerk_model",
    "sinusoidal_model",
    "smoothing_model",
    "kinematic_model",
]

# Paper Section 4.1: "we keep the Q and R matrices as diagonal matrices
# with value 0.05".
DEFAULT_NOISE = 0.05


@dataclass(frozen=True)
class StateSpaceModel:
    """A named, fully specified linear(ised) state-space model.

    Attributes:
        name: Human-readable identifier (used in experiment tables).
        phi: State transition matrix or callable ``k -> matrix``.
        h: Measurement matrix or callable.
        q: Process noise covariance or callable.
        r: Measurement noise covariance or callable.
        state_dim: Number of state variables ``n``.
        measurement_dim: Number of measured variables ``m``.
        initializer: Maps the first measurement ``z0`` to an initial state
            vector; defaults to embedding ``z0`` via the pseudo-inverse of
            ``H`` (measured components seeded, derivatives start at zero).
    """

    name: str
    phi: MatrixLike
    h: MatrixLike
    q: MatrixLike
    r: MatrixLike
    state_dim: int
    measurement_dim: int
    initializer: Callable[[np.ndarray], np.ndarray] | None = field(default=None)

    @cached_property
    def matrices(self) -> ModelMatrices | None:
        """The bundle every filter of this model shares (None: time-varying)."""
        return ModelMatrices.shared(self.phi, self.h, self.q, self.r)

    def initial_state(self, z0: np.ndarray) -> np.ndarray:
        """Initial state vector derived from the first measurement."""
        z0 = np.atleast_1d(np.asarray(z0, dtype=float)).reshape(-1)
        if z0.shape != (self.measurement_dim,):
            raise DimensionError(
                f"first measurement must have shape ({self.measurement_dim},), "
                f"got {z0.shape}"
            )
        if self.initializer is not None:
            x0 = np.asarray(self.initializer(z0), dtype=float).reshape(-1)
            if x0.shape != (self.state_dim,):
                raise DimensionError(
                    f"initializer returned shape {x0.shape}, "
                    f"expected ({self.state_dim},)"
                )
            return x0
        h0 = resolve_matrix(self.h, 0)
        return np.linalg.pinv(h0) @ z0

    def build_filter(
        self,
        z0: np.ndarray,
        p0: np.ndarray | None = None,
        p0_scale: float = 1.0,
    ) -> KalmanFilter:
        """Instantiate a :class:`KalmanFilter`, seeded from ``z0``.

        Args:
            z0: First measurement from the stream.
            p0: Explicit initial covariance; overrides ``p0_scale``.
            p0_scale: Scale of the default identity initial covariance.
        """
        x0 = self.initial_state(z0)
        if p0 is None:
            p0 = np.eye(self.state_dim) * p0_scale
        return KalmanFilter(self.phi, self.h, self.q, self.r, x0, p0, self.matrices)


def _diag(value: float | np.ndarray, size: int, name: str) -> np.ndarray:
    """Diagonal covariance from a scalar or per-component vector."""
    arr = np.atleast_1d(np.asarray(value, dtype=float))
    if arr.size == 1:
        arr = np.full(size, float(arr[0]))
    if arr.shape != (size,):
        raise DimensionError(f"{name} must be scalar or length {size}")
    if np.any(arr < 0):
        raise ConfigurationError(f"{name} must be non-negative")
    return np.diag(arr)


def constant_model(
    dims: int = 1,
    q: float | np.ndarray = DEFAULT_NOISE,
    r: float | np.ndarray = DEFAULT_NOISE,
) -> StateSpaceModel:
    """Constant state model (paper Eq. 15): ``x_k = x_{k-1}``.

    The latest estimate is the best prediction of the future, which makes
    the DKF behave like the cached-approximation baseline -- the paper's
    "worst-case" model used to show DKF never does worse than caching.

    Args:
        dims: Number of measured coordinates (2 for the moving object).
        q: Process noise variance (scalar or per-coordinate).
        r: Measurement noise variance.
    """
    eye = np.eye(dims)
    return StateSpaceModel(
        name=f"constant[{dims}d]",
        phi=eye,
        h=eye.copy(),
        q=_diag(q, dims, "q"),
        r=_diag(r, dims, "r"),
        state_dim=dims,
        measurement_dim=dims,
    )


def kinematic_model(
    order: int,
    dims: int = 2,
    dt: float = 1.0,
    q: float | np.ndarray = DEFAULT_NOISE,
    r: float | np.ndarray = DEFAULT_NOISE,
    name: str | None = None,
) -> StateSpaceModel:
    """Generic kinematic model with ``order`` derivatives per coordinate.

    ``order=1`` gives the paper's linear (constant-velocity) model of
    Eq. 13/14; ``order=2`` constant acceleration; ``order=3`` constant jerk
    (the Section 4.1 extension ``P_k = P + P' dt + P'' dt^2/2 + P''' dt^3/6``).

    State layout per coordinate ``c``: ``[c, c', c'', ...]``; coordinates are
    stacked, matching Eq. 13's ``[x, x', y, y']`` layout for order 1.

    Args:
        order: Number of derivatives tracked (>= 0).
        dims: Number of measured coordinates.
        dt: Sampling interval ``delta t``.
        q: Process noise variance per state variable (scalar or vector of
            length ``dims * (order + 1)``).
        r: Measurement noise variance per coordinate.
        name: Override the auto-generated model name.
    """
    if order < 0:
        raise ConfigurationError("order must be non-negative")
    if dims < 1:
        raise ConfigurationError("dims must be positive")
    block_n = order + 1
    # Taylor-series block: phi[i, j] = dt^(j-i) / (j-i)! for j >= i.
    block = np.zeros((block_n, block_n))
    for i in range(block_n):
        for j in range(i, block_n):
            block[i, j] = dt ** (j - i) / math.factorial(j - i)
    n = dims * block_n
    phi = np.kron(np.eye(dims), block)
    h = np.zeros((dims, n))
    for d in range(dims):
        h[d, d * block_n] = 1.0
    label = name or {0: "constant", 1: "linear", 2: "acceleration", 3: "jerk"}.get(
        order, f"order{order}"
    )
    return StateSpaceModel(
        name=f"{label}[{dims}d,dt={dt:g}]",
        phi=phi,
        h=h,
        q=_diag(q, n, "q"),
        r=_diag(r, dims, "r"),
        state_dim=n,
        measurement_dim=dims,
    )


def linear_model(
    dims: int = 2,
    dt: float = 1.0,
    q: float | np.ndarray = DEFAULT_NOISE,
    r: float | np.ndarray = DEFAULT_NOISE,
) -> StateSpaceModel:
    """Constant-velocity model (paper Eq. 13/14).

    For ``dims=2`` the state is ``[x, x', y, y']`` with transition matrix
    Eq. 14 and measurement matrix Eq. 16 (positions observed, rates hidden).
    """
    return kinematic_model(order=1, dims=dims, dt=dt, q=q, r=r, name="linear")


def acceleration_model(
    dims: int = 2,
    dt: float = 1.0,
    q: float | np.ndarray = DEFAULT_NOISE,
    r: float | np.ndarray = DEFAULT_NOISE,
) -> StateSpaceModel:
    """Constant-acceleration kinematics (Section 4.1 higher-order extension)."""
    return kinematic_model(order=2, dims=dims, dt=dt, q=q, r=r, name="acceleration")


def jerk_model(
    dims: int = 2,
    dt: float = 1.0,
    q: float | np.ndarray = DEFAULT_NOISE,
    r: float | np.ndarray = DEFAULT_NOISE,
) -> StateSpaceModel:
    """Constant-jerk kinematics: state ``[P, P', P'', P''']`` per coordinate."""
    return kinematic_model(order=3, dims=dims, dt=dt, q=q, r=r, name="jerk")


def sinusoidal_model(
    omega: float,
    theta: float = 0.0,
    gamma: float = 1.0,
    q: float | np.ndarray = DEFAULT_NOISE,
    r: float | np.ndarray = DEFAULT_NOISE,
) -> StateSpaceModel:
    """Sinusoidal trend model (paper Section 4.2, Eq. 17).

    The measured value ``x_k`` carries a sinusoidal component and ``s_k``
    its (constant) rate parameter::

        x_k = x_{k-1} + gamma * cos(omega * k + theta) * s_{k-1}
        s_k = s_{k-1}

    so ``phi_k = [[1, gamma cos(omega k + theta)], [0, 1]]`` is
    time-varying and ``H = [1, 0]`` (Eq. 18).

    Args:
        omega: Angular frequency of the trend (e.g. ``2 pi / 24`` for a
            diurnal cycle on hourly data; the paper reports ``18/pi``).
        theta: Phase offset.
        gamma: Amplitude coupling of the rate component.
        q: Process noise variance (scalar applied to both state variables,
            or a length-2 vector).
        r: Measurement noise variance (scalar).
    """

    def phi(k: int) -> np.ndarray:
        return np.array(
            [[1.0, gamma * math.cos(omega * k + theta)], [0.0, 1.0]]
        )

    return StateSpaceModel(
        name=f"sinusoidal[w={omega:g}]",
        phi=phi,
        h=np.array([[1.0, 0.0]]),
        q=_diag(q, 2, "q"),
        r=_diag(r, 1, "r"),
        state_dim=2,
        measurement_dim=1,
        initializer=lambda z0: np.array([float(z0[0]), 1.0]),
    )


def smoothing_model(
    f: float,
    r: float = 1.0,
) -> StateSpaceModel:
    """Scalar smoothing model for ``KF_c`` (paper Section 4.3).

    A constant model whose single-element process covariance is the user
    smoothing factor ``F``.  Small ``F`` means the filter trusts its state
    and heavily smooths the input (``F = 1e-9`` tracks a moving average,
    Fig. 10); large ``F`` follows the raw data.

    Args:
        f: Smoothing factor -- the process noise variance.
        r: Measurement noise variance (the relative scale of ``f`` to ``r``
            sets the effective bandwidth).
    """
    if f < 0:
        raise ConfigurationError("smoothing factor F must be non-negative")
    return StateSpaceModel(
        name=f"smoothing[F={f:g}]",
        phi=np.eye(1),
        h=np.eye(1),
        q=np.array([[float(f)]]),
        r=_diag(r, 1, "r"),
        state_dim=1,
        measurement_dim=1,
    )
