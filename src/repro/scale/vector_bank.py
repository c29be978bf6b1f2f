"""Vectorized Kalman filter bank: N homogeneous streams in stacked arrays.

The scalar :class:`~repro.filters.kalman.KalmanFilter` resolves its model's
matrices once per model, so a cycle costs its arithmetic: some twenty numpy
calls on 1x1 to 4x4 matrices at a fixed 1-3 µs each (shared 2-vCPU Xeon VM,
linear model with ``dims=2``: ~7 µs per ``predict``, ~31 µs per ``update``,
~11 µs of it ``np.linalg.solve``).  :class:`VectorKalmanBank` stacks N
streams of one :class:`~repro.filters.models.StateSpaceModel` into
``(N, n)`` / ``(N, n, n)`` arrays and runs the *same* arithmetic --
identical operation order and associativity -- as batched matmul and einsum
calls, paying each call's fixed cost once for the whole bank.

Exactness contract: every batched expression below mirrors the scalar
filter's evaluation order (e.g. ``(phi @ P) @ phi.T + Q`` rather than an
algebraically equal regrouping), so a bank row and an independent scalar
filter fed the same inputs stay within a few ULP of each other.  The
property test in ``tests/scale/test_vector_bank.py`` pins this at 1e-10
over hundreds of ticks with random masked updates.

Only constant-matrix models are supported: a time-varying ``phi_k`` (the
sinusoidal power-load model) would need per-row matrix resolution, which
defeats batching.  Such models stay on the scalar engine.
"""

from __future__ import annotations

import numpy as np

from repro.errors import (
    ConfigurationError,
    DimensionError,
    DivergenceError,
    NonFiniteMeasurementError,
    NotPositiveDefiniteError,
)
from repro.filters.kalman import phi_power
from repro.filters.models import StateSpaceModel

__all__ = ["VectorKalmanBank", "model_signature", "require_static_model"]

#: PSD tolerance matching :func:`repro.filters.kalman.check_covariance`.
_PSD_TOL = 1e-9


def require_static_model(model: StateSpaceModel) -> None:
    """Reject models the bank cannot batch (callable matrices)."""
    for name in ("phi", "h", "q", "r"):
        if callable(getattr(model, name)):
            raise ConfigurationError(
                f"model {model.name!r} has a time-varying {name!r} matrix; "
                "the vector bank batches constant-matrix models only -- "
                "use the scalar StreamEngine for this model"
            )


def model_signature(model: StateSpaceModel) -> tuple:
    """Hashable batching key: rows with equal signatures share a bank.

    Two models batch together exactly when every filter matrix is
    byte-identical (same F/H/Q/R values and shapes) and any custom
    initializer is the same object.  Time-varying models have no
    signature -- they cannot batch.
    """
    require_static_model(model)
    parts: list = [model.state_dim, model.measurement_dim]
    for name in ("phi", "h", "q", "r"):
        a = np.ascontiguousarray(np.asarray(getattr(model, name), dtype=float))
        parts.append((a.shape, a.tobytes()))
    if model.initializer is not None:
        parts.append(id(model.initializer))
    return tuple(parts)


class VectorKalmanBank:
    """Batched Kalman filters over one shared state-space model.

    Rows are appended with :meth:`add_rows` and addressed by integer index
    everywhere else.  All mutating methods take a ``rows`` index array and
    touch only those rows (the masked-update path), so a tick where only a
    handful of streams transmitted pays correction cost for exactly that
    subset.

    Row lifecycle mirrors the scalar DKF filters: a row starts *unprimed*
    (no state), is primed from its first finite measurement exactly like
    ``StateSpaceModel.build_filter``, and then cycles predict/update.
    """

    def __init__(self, model: StateSpaceModel) -> None:
        require_static_model(model)
        self._model = model
        self._phi = np.asarray(model.phi, dtype=float)
        self._h = np.asarray(model.h, dtype=float)
        self._q = np.asarray(model.q, dtype=float)
        self._r = np.asarray(model.r, dtype=float)
        n = self._phi.shape[0]
        m = self._h.shape[0]
        if self._phi.shape != (n, n) or self._h.shape[1] != n:
            raise DimensionError(
                f"inconsistent model shapes: phi {self._phi.shape}, "
                f"h {self._h.shape}"
            )
        self._n = n
        self._m = m
        self._phi_t = self._phi.T.copy()
        self._h_t = self._h.T.copy()
        self._eye = np.eye(n)
        self._pinv_h = np.linalg.pinv(self._h)

        self._x = np.zeros((0, n))
        self._p = np.zeros((0, n, n))
        self._k = np.zeros(0, dtype=np.int64)
        self._primed = np.zeros(0, dtype=bool)
        self._p0_scale = np.zeros(0)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def model(self) -> StateSpaceModel:
        """The shared state-space model every row runs."""
        return self._model

    @property
    def state_dim(self) -> int:
        """State dimension ``n`` of the shared model."""
        return self._n

    @property
    def measurement_dim(self) -> int:
        """Measurement dimension ``m`` of the shared model."""
        return self._m

    @property
    def rows(self) -> int:
        """Number of rows in the bank."""
        return self._x.shape[0]

    @property
    def x(self) -> np.ndarray:
        """Stacked state estimates ``(N, n)`` (copy)."""
        return self._x.copy()

    @property
    def p(self) -> np.ndarray:
        """Stacked covariances ``(N, n, n)`` (copy)."""
        return self._p.copy()

    @property
    def k(self) -> np.ndarray:
        """Per-row discrete clocks ``(N,)`` (copy)."""
        return self._k.copy()

    @property
    def primed(self) -> np.ndarray:
        """Per-row primed mask ``(N,)`` (copy)."""
        return self._primed.copy()

    def x_row(self, row: int) -> np.ndarray:
        """One row's state estimate ``(n,)`` (copy)."""
        return self._x[row].copy()

    def p_row(self, row: int) -> np.ndarray:
        """One row's covariance ``(n, n)`` (copy)."""
        return self._p[row].copy()

    def k_row(self, row: int) -> int:
        """One row's discrete filter clock."""
        return int(self._k[row])

    def is_primed(self, row: int) -> bool:
        """Whether the row has absorbed its priming measurement."""
        return bool(self._primed[row])

    def primed_rows(self, rows: np.ndarray) -> np.ndarray:
        """The primed flags of ``rows`` (no copy of the whole mask)."""
        return self._primed[rows]

    def p0_row(self, row: int) -> np.ndarray:
        """One row's configured initial covariance ``I * p0_scale``."""
        return self._eye * self._p0_scale[row]

    def innovation_covariance_row(self, row: int) -> np.ndarray:
        """``S = (H P) H^T + R`` of one row, by scalar indexing.

        The by-id read path (one query, one source) calls this; it is
        the scalar filter's contraction order on a plain ``(n, n)``
        matrix, without the one-element index arrays of the batched
        form.
        """
        return (self._h @ self._p[row]) @ self._h_t + self._r

    def forecast_row(self, row: int, steps: int) -> np.ndarray:
        """Measurement horizon ``(steps, m)`` of one row, no mutation.

        The per-step ``phi x`` loop of :meth:`KalmanFilter.forecast`,
        so a bank row and a scalar filter in the same state forecast
        the same bits.
        """
        if steps < 0:
            raise ValueError("steps must be non-negative")
        x = self._x[row].copy()
        out = np.empty((steps, self._m))
        for i in range(steps):
            x = self._phi @ x
            out[i] = self._h @ x
        return out

    # ------------------------------------------------------------------
    # Row management
    # ------------------------------------------------------------------

    def add_rows(self, count: int, p0_scale: float = 1.0) -> int:
        """Append ``count`` unprimed rows in one allocation.

        Returns the index of the first new row.
        """
        if p0_scale <= 0:
            raise ConfigurationError("p0_scale must be positive")
        first = self.rows
        self._x = np.concatenate([self._x, np.zeros((count, self._n))])
        self._p = np.concatenate(
            [self._p, np.zeros((count, self._n, self._n))]
        )
        self._k = np.concatenate([self._k, np.zeros(count, dtype=np.int64)])
        self._primed = np.concatenate(
            [self._primed, np.zeros(count, dtype=bool)]
        )
        self._p0_scale = np.concatenate(
            [self._p0_scale, np.full(count, float(p0_scale))]
        )
        return first

    def add_row(self, p0_scale: float = 1.0) -> int:
        """Append one unprimed row; returns its index."""
        return self.add_rows(1, p0_scale)

    def reset_row(self, row: int) -> None:
        """Return a row to the unprimed state (source restart)."""
        self._x[row] = 0.0
        self._p[row] = 0.0
        self._k[row] = 0
        self._primed[row] = False

    def take_rows(self, rows: np.ndarray) -> "VectorKalmanBank":
        """New bank holding copies of ``rows`` (shard splitting)."""
        rows = np.asarray(rows, dtype=np.intp)
        out = VectorKalmanBank(self._model)
        out._x = self._x[rows].copy()
        out._p = self._p[rows].copy()
        out._k = self._k[rows].copy()
        out._primed = self._primed[rows].copy()
        out._p0_scale = self._p0_scale[rows].copy()
        return out

    def concat(self, other: "VectorKalmanBank") -> "VectorKalmanBank":
        """New bank with this bank's rows followed by ``other``'s.

        The inverse of :meth:`take_rows` (shard merging).  Both banks
        must run byte-identical model matrices -- the same condition
        :func:`~repro.scale.shard.model_signature` enforces for shard
        placement.
        """
        for name in ("_phi", "_h", "_q", "_r"):
            if not np.array_equal(getattr(self, name), getattr(other, name)):
                raise ConfigurationError(
                    "cannot concat banks with different model matrices"
                )
        out = VectorKalmanBank(self._model)
        out._x = np.concatenate([self._x, other._x])
        out._p = np.concatenate([self._p, other._p])
        out._k = np.concatenate([self._k, other._k])
        out._primed = np.concatenate([self._primed, other._primed])
        out._p0_scale = np.concatenate([self._p0_scale, other._p0_scale])
        return out

    # ------------------------------------------------------------------
    # Core cycle (masked)
    # ------------------------------------------------------------------

    def prime(self, rows: np.ndarray, z: np.ndarray) -> None:
        """Seed ``rows`` from their first measurements.

        Matches ``StateSpaceModel.build_filter``: ``x0`` from the model's
        initializer (pseudo-inverse embedding by default) and
        ``P0 = I * p0_scale``.
        """
        rows = np.asarray(rows, dtype=np.intp)
        if rows.size == 0:
            return
        z = np.asarray(z, dtype=float).reshape(rows.size, self._m)
        if self._model.initializer is not None:
            x0 = np.stack(
                [self._model.initial_state(z[i]) for i in range(rows.size)]
            )
        else:
            # pinv(H) @ z per row, same contraction order as the scalar path.
            x0 = z @ self._pinv_h.T
        self._x[rows] = x0
        self._p[rows] = self._eye * self._p0_scale[rows, None, None]
        self._k[rows] = 0
        self._primed[rows] = True

    def predict(self, rows: np.ndarray) -> None:
        """Batched prediction half-cycle for ``rows``.

        ``x^- = phi x`` and ``P^- = (phi P) phi^T + Q``, clock advanced,
        exactly as the scalar :meth:`KalmanFilter.predict`.
        """
        rows = np.asarray(rows, dtype=np.intp)
        if rows.size == 0:
            return
        # x @ phi.T contracts over the same index order as phi @ x.
        self._x[rows] = self._x[rows] @ self._phi_t
        self._p[rows] = (self._phi @ self._p[rows]) @ self._phi_t + self._q
        self._k[rows] += 1
        bad = ~np.isfinite(self._x[rows]).all(axis=1)
        if bad.any():
            first = int(rows[bad][0])
            raise DivergenceError(
                f"state became non-finite at k={int(self._k[first])} "
                f"(bank row {first})"
            )

    def update(self, rows: np.ndarray, z: np.ndarray) -> np.ndarray:
        """Batched Joseph-form correction for ``rows``; returns the gains.

        Mirrors the scalar :meth:`KalmanFilter.update` term by term:
        ``S = (H P) H^T + R``, ``K`` via ``solve(S^T, (P H^T)^T)^T``,
        ``P = ((I-KH) P)(I-KH)^T + (K R) K^T``, then symmetrisation.

        Returns:
            Gain stack of shape ``(len(rows), n, m)`` -- the property-test
            hook for gain parity with scalar filters.
        """
        rows = np.asarray(rows, dtype=np.intp)
        if rows.size == 0:
            return np.zeros((0, self._n, self._m))
        z = np.asarray(z, dtype=float).reshape(rows.size, self._m)
        if not np.isfinite(z).all():
            raise NonFiniteMeasurementError(
                "measurement contains NaN or infinity"
            )
        x = self._x[rows]
        p = self._p[rows]
        innovation = z - x @ self._h_t
        s = (self._h @ p) @ self._h_t + self._r
        pht = p @ self._h_t
        gain = np.linalg.solve(
            np.swapaxes(s, 1, 2), np.swapaxes(pht, 1, 2)
        )
        gain = np.swapaxes(gain, 1, 2)
        x = x + np.einsum("rij,rj->ri", gain, innovation)
        i_kh = self._eye - gain @ self._h
        p = (i_kh @ p) @ np.swapaxes(i_kh, 1, 2) + (
            gain @ self._r
        ) @ np.swapaxes(gain, 1, 2)
        p = 0.5 * (p + np.swapaxes(p, 1, 2))
        bad = ~np.isfinite(x).all(axis=1)
        if bad.any():
            first = int(rows[bad][0])
            raise DivergenceError(
                f"state became non-finite at k={int(self._k[first])} "
                f"(bank row {first})"
            )
        self._x[rows] = x
        self._p[rows] = p
        return gain

    def measurement(self, rows: np.ndarray) -> np.ndarray:
        """Predicted measurements ``H x`` for ``rows``, shape ``(len, m)``."""
        rows = np.asarray(rows, dtype=np.intp)
        return self._x[rows] @ self._h_t

    def innovation_covariance(self, rows: np.ndarray) -> np.ndarray:
        """``S = (H P) H^T + R`` per row, shape ``(len, m, m)``."""
        rows = np.asarray(rows, dtype=np.intp)
        return (self._h @ self._p[rows]) @ self._h_t + self._r

    def forecast_k(self, rows: np.ndarray, steps: int) -> np.ndarray:
        """Measurement predictions ``steps`` cycles ahead, no mutation.

        ``H (phi^steps x)`` per row via the shared memoised
        :func:`~repro.filters.kalman.phi_power` cache -- one power
        computation serves the whole bank (and every scalar filter of the
        same model).  Matches :meth:`KalmanFilter.predict_k`.
        """
        if steps < 0:
            raise ValueError("steps must be non-negative")
        rows = np.asarray(rows, dtype=np.intp)
        if steps == 0:
            return self.measurement(rows)
        power = phi_power(self._phi, steps)
        return (self._x[rows] @ power.T) @ self._h_t

    # ------------------------------------------------------------------
    # State injection / extraction
    # ------------------------------------------------------------------

    def set_state(
        self, rows: np.ndarray, x: np.ndarray, p: np.ndarray
    ) -> None:
        """Overwrite posterior state for ``rows`` (resync / reprime).

        Covariances are validated and symmetrised exactly like
        :func:`~repro.filters.kalman.check_covariance` (batched eigvalsh).
        Clocks are left unchanged, matching ``KalmanFilter.set_state``.
        """
        rows = np.asarray(rows, dtype=np.intp)
        if rows.size == 0:
            return
        x = np.asarray(x, dtype=float).reshape(rows.size, self._n)
        p = np.asarray(p, dtype=float).reshape(rows.size, self._n, self._n)
        sym = 0.5 * (p + np.swapaxes(p, 1, 2))
        eigvals = np.linalg.eigvalsh(sym)
        tol = _PSD_TOL * np.maximum(
            1.0, np.abs(sym).reshape(rows.size, -1).max(axis=1)
        )
        bad = eigvals[:, 0] < -tol
        if bad.any():
            worst = float(eigvals[bad, 0].min())
            raise NotPositiveDefiniteError(
                f"covariance has negative eigenvalue {worst:.3e}"
            )
        self._x[rows] = x
        self._p[rows] = sym
        self._primed[rows] = True

    def set_clock(self, rows: np.ndarray, k: np.ndarray | int) -> None:
        """Move per-row clocks (checkpoint restore / resync)."""
        rows = np.asarray(rows, dtype=np.intp)
        k = np.asarray(k, dtype=np.int64)
        if np.any(k < 0):
            raise ConfigurationError("filter clock must be non-negative")
        self._k[rows] = k

    def export_row(self, row: int) -> dict | None:
        """Checkpoint payload for one row: ``{"x", "p", "k"}`` or None.

        Shape-compatible with the scalar server's per-source filter export
        so batch and scalar checkpoints interchange.
        """
        if not self._primed[row]:
            return None
        return {
            "x": self._x[row].tolist(),
            "p": self._p[row].tolist(),
            "k": int(self._k[row]),
        }

    def import_row(self, row: int, payload: dict) -> None:
        """Restore one row from an :meth:`export_row` payload."""
        self.set_state(
            np.array([row]),
            np.asarray(payload["x"], dtype=float)[None, :],
            np.asarray(payload["p"], dtype=float)[None, :, :],
        )
        self.set_clock(np.array([row]), int(payload["k"]))

    # ------------------------------------------------------------------
    # Vectorized health battery (watchdog support)
    # ------------------------------------------------------------------

    def health_battery(
        self, rows: np.ndarray, symmetry_tol: float, psd_tol: float
    ) -> dict[str, np.ndarray]:
        """Divergence-watchdog reductions for ``rows``, fully vectorized.

        Returns boolean arrays (aligned with ``rows``) for each covariance
        and state check the scalar watchdog performs per stream:
        ``state_nonfinite``, ``covariance_nonfinite``, ``asymmetric``,
        ``not_psd``, plus the covariance traces for the ceiling check.
        ``asymmetric``/``not_psd`` are False wherever the covariance is
        non-finite (the scalar battery short-circuits there too).
        """
        rows = np.asarray(rows, dtype=np.intp)
        cnt = rows.size
        if cnt == 0:
            zero = np.zeros(0, dtype=bool)
            return {
                "state_nonfinite": zero,
                "covariance_nonfinite": zero.copy(),
                "asymmetric": zero.copy(),
                "not_psd": zero.copy(),
                "trace": np.zeros(0),
            }
        x = self._x[rows]
        p = self._p[rows]
        state_nf = ~np.isfinite(x).all(axis=1)
        cov_nf = ~np.isfinite(p).reshape(cnt, -1).all(axis=1)
        scale = np.maximum(
            1.0,
            np.where(
                cov_nf, 1.0, np.abs(np.where(np.isfinite(p), p, 0.0))
                .reshape(cnt, -1).max(axis=1),
            ),
        )
        resid = np.abs(p - np.swapaxes(p, 1, 2)).reshape(cnt, -1)
        asym = np.zeros(cnt, dtype=bool)
        finite = ~cov_nf
        asym[finite] = resid[finite].max(axis=1) > symmetry_tol * scale[finite]
        not_psd = np.zeros(cnt, dtype=bool)
        check = finite & ~asym
        if check.any():
            sym = 0.5 * (p[check] + np.swapaxes(p[check], 1, 2))
            eigvals = np.linalg.eigvalsh(sym)
            not_psd[check] = eigvals[:, 0] < -psd_tol * scale[check]
        trace = np.where(
            cov_nf, np.inf, np.trace(p, axis1=1, axis2=2)
        )
        return {
            "state_nonfinite": state_nf,
            "covariance_nonfinite": cov_nf,
            "asymmetric": asym,
            "not_psd": not_psd,
            "trace": trace,
        }
