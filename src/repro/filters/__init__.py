"""Filtering substrate: discrete Kalman filter (paper Section 3) plus the
customisations Section 3.2 calls for -- EKF for non-linear systems,
recursive least squares for confidence-free measurements, steady-state
(Riccati) filtering for stationary noise, on-line smoothing, innovation
monitoring, adaptive noise estimation, and multiple-model banks.
"""

from repro.filters.adaptive import AdaptiveNoiseKalmanFilter
from repro.filters.ekf import (
    ExtendedKalmanFilter,
    NonlinearModel,
    coordinated_turn_model,
)
from repro.filters.information import InformationFilter
from repro.filters.innovation import (
    AdaptiveSamplingController,
    InnovationMonitor,
    InnovationStats,
)
from repro.filters.kalman import KalmanFilter, KalmanStep, check_covariance
from repro.filters.least_squares import RecursiveLeastSquares, batch_least_squares
from repro.filters.model_bank import ModelBank, ModelPosterior
from repro.filters.models import (
    DEFAULT_NOISE,
    StateSpaceModel,
    acceleration_model,
    constant_model,
    jerk_model,
    kinematic_model,
    linear_model,
    sinusoidal_model,
    smoothing_model,
)
from repro.filters.riccati import (
    SteadyStateKalmanFilter,
    solve_dare,
    steady_state_gain,
)
from repro.filters.rts import OfflineKalmanSmoother, SmoothedTrajectory, rts_smooth
from repro.filters.smoothing import StreamSmoother, VectorSmoother, smooth_series
from repro.filters.ukf import UnscentedKalmanFilter

__all__ = [
    "AdaptiveNoiseKalmanFilter",
    "AdaptiveSamplingController",
    "DEFAULT_NOISE",
    "ExtendedKalmanFilter",
    "InformationFilter",
    "InnovationMonitor",
    "InnovationStats",
    "KalmanFilter",
    "KalmanStep",
    "OfflineKalmanSmoother",
    "SmoothedTrajectory",
    "VectorSmoother",
    "rts_smooth",
    "ModelBank",
    "ModelPosterior",
    "NonlinearModel",
    "RecursiveLeastSquares",
    "StateSpaceModel",
    "SteadyStateKalmanFilter",
    "UnscentedKalmanFilter",
    "StreamSmoother",
    "acceleration_model",
    "batch_least_squares",
    "check_covariance",
    "constant_model",
    "coordinated_turn_model",
    "jerk_model",
    "kinematic_model",
    "linear_model",
    "sinusoidal_model",
    "smooth_series",
    "smoothing_model",
    "solve_dare",
    "steady_state_gain",
]
