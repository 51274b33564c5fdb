"""Sensitivity of API importance to survey sampling noise (§2.4).

The popularity contest is an opt-in survey: each package's
installation probability is estimated from a finite sample.  The paper
flags representativeness as a limitation but does not quantify it;
this module does, with a parametric bootstrap:

* resample each package's installation count as
  ``Binomial(total, p̂) / total``;
* recompute API importance under each resample;
* report per-API confidence intervals and which APIs' *band*
  (indispensable / mid / low) is unstable under sampling noise.

Uses numpy for the vectorized resampling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..analysis.footprint import Footprint
from ..dataset.core import Dataset, FootprintsLike
from ..packages.popcon import PopularityContest
from .importance import dependents_index


@dataclass(frozen=True)
class ImportanceInterval:
    """Bootstrap confidence interval for one API's importance."""

    api: str
    point: float
    low: float
    high: float

    @property
    def width(self) -> float:
        return self.high - self.low

    def band(self, value: Optional[float] = None) -> str:
        v = self.point if value is None else value
        if v >= 0.995:
            return "indispensable"
        if v >= 0.10:
            return "mid"
        if v > 0.0:
            return "low"
        return "unused"

    @property
    def band_stable(self) -> bool:
        """Band assignment unchanged across the whole interval."""
        return self.band(self.low) == self.band(self.high)


def _resample_probabilities(probabilities: Sequence[float],
                            total: int, n_boot: int,
                            seed: int) -> List[List[float]]:
    """``n_boot`` parametric resamples of the installation rates."""
    rng = np.random.default_rng(seed)
    p = np.asarray(probabilities)
    draws = rng.binomial(total, p, size=(n_boot, len(p)))
    return (draws / total).tolist()


def bootstrap_importance(
    footprints: FootprintsLike,
    popcon: Optional[PopularityContest] = None,
    apis: Optional[Sequence[str]] = None,
    dimension: str = "syscall",
    n_boot: int = 200,
    confidence: float = 0.95,
    seed: int = 0,
) -> Dict[str, ImportanceInterval]:
    """Bootstrap CIs for API importance under survey noise."""
    if popcon is None and isinstance(footprints, Dataset):
        popcon = footprints.popcon
    index = dependents_index(footprints, dimension)
    if apis is None:
        apis = sorted(index)
    packages = sorted({pkg for api in apis
                       for pkg in index.get(api, [])})
    package_pos = {pkg: i for i, pkg in enumerate(packages)}
    probabilities = [popcon.install_probability(pkg)
                     for pkg in packages]
    total = popcon.total_installations
    resamples = _resample_probabilities(probabilities, total, n_boot,
                                        seed)

    alpha = (1.0 - confidence) / 2.0
    lo_index = max(0, int(math.floor(alpha * n_boot)))
    hi_index = min(n_boot - 1, int(math.ceil((1 - alpha) * n_boot)) - 1)

    intervals: Dict[str, ImportanceInterval] = {}
    for api in apis:
        users = [package_pos[pkg] for pkg in index.get(api, [])]
        point = 1.0
        for position in users:
            point *= 1.0 - probabilities[position]
        point = 1.0 - point
        values = []
        for row in resamples:
            miss = 1.0
            for position in users:
                miss *= 1.0 - row[position]
            values.append(1.0 - miss)
        values.sort()
        intervals[api] = ImportanceInterval(
            api=api, point=point,
            low=values[lo_index], high=values[hi_index])
    return intervals


def unstable_bands(intervals: Mapping[str, ImportanceInterval],
                   ) -> List[ImportanceInterval]:
    """APIs whose importance band flips within its CI — the cases the
    survey's sample size cannot settle."""
    return sorted((ci for ci in intervals.values()
                   if not ci.band_stable),
                  key=lambda ci: -ci.width)


def survey_noise_report(footprints: FootprintsLike,
                        popcon: Optional[PopularityContest] = None,
                        dimension: str = "syscall",
                        n_boot: int = 200,
                        seed: int = 0) -> Tuple[int, int, float]:
    """(APIs measured, band-unstable APIs, max CI width)."""
    intervals = bootstrap_importance(
        footprints, popcon, dimension=dimension, n_boot=n_boot,
        seed=seed)
    unstable = unstable_bands(intervals)
    widest = max((ci.width for ci in intervals.values()),
                 default=0.0)
    return len(intervals), len(unstable), widest
