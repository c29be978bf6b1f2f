"""Ablation: measurement-noise robustness (Table 1's "graceful
degradation" claim, quantified).

The paper's Table 1 argues caching schemes "do not seem to gracefully
degrade when the input data is noisy" while the KF smooths.  This bench
corrupts Example 1 with growing Gaussian measurement noise and tracks
update traffic for caching vs the linear DKF (same δ): the DKF's
advantage should persist under noise it can average over, shrinking only
as the noise floor approaches δ itself.
"""

from benchmarks.conftest import run_once, show
from repro.baselines.caching import CachedValueScheme
from repro.datasets.moving_object import SAMPLING_DT, moving_object_dataset
from repro.dkf.config import DKFConfig
from repro.dkf.session import DKFSession
from repro.filters.models import linear_model
from repro.metrics.evaluation import evaluate_scheme
from repro.streams.noise import add_gaussian_noise

DELTA = 3.0
NOISE_LEVELS = [0.0, 0.25, 0.5, 1.0, 2.0]


def _noise_sweep():
    clean = moving_object_dataset()
    out = {}
    for std in NOISE_LEVELS:
        stream = (
            clean if std == 0 else add_gaussian_noise(clean, std=std, seed=17)
        )
        caching = evaluate_scheme(
            CachedValueScheme.from_precision(DELTA, dims=2), stream
        )
        # Give the DKF a measurement-noise estimate matching the injected
        # noise (what a deployment would calibrate).
        r = max(0.05, std**2)
        dkf = evaluate_scheme(
            DKFSession(
                DKFConfig(
                    model=linear_model(dims=2, dt=SAMPLING_DT, r=r),
                    delta=DELTA,
                )
            ),
            stream,
        )
        out[std] = {
            "caching": caching.update_percentage,
            "dkf": dkf.update_percentage,
        }
    return out


def test_ablation_noise_robustness(benchmark):
    results = run_once(benchmark, _noise_sweep)
    show(
        "Ablation: noise robustness (Example 1, delta = 3)",
        "\n".join(
            f"  noise std {std:4.2f}: caching {row['caching']:6.2f}%  "
            f"dkf-linear {row['dkf']:6.2f}%  "
            f"(advantage {row['caching'] - row['dkf']:5.1f} pts)"
            for std, row in results.items()
        ),
    )
    for std, row in results.items():
        # The DKF never loses its lead at any tested noise level.
        assert row["dkf"] < row["caching"], f"noise {std}"
    # And the lead remains substantial even at the highest level
    # (noise std 2 against delta 3).
    worst = results[max(NOISE_LEVELS)]
    assert worst["dkf"] < 0.8 * worst["caching"]
