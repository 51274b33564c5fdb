"""Importance ranking and the incremental implementation path (§3.2).

Implements the greedy strategy behind Figure 3 and Table 4: order APIs
by importance, then measure weighted completeness as the top-N set
grows.  The resulting curve tells a system builder what the next most
valuable API is and how much of a typical installation each
implementation stage unlocks.

The curve runs on the interned substrate: each package's completion
rank is read with numpy from its packed mask row, and the dependency
condensation (:class:`repro.dataset.CondensedDependencyGraph`) is
built once per dataset and reused across curve calls — only the cheap
per-run counters (:class:`repro.dataset.SupportTracker`) are fresh.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..dataset.core import FootprintsLike, as_dataset
from ..packages.popcon import PopularityContest
from ..packages.repository import Repository
from .importance import ranked


@dataclass(frozen=True)
class CurvePoint:
    """One point on the Figure 3 curve."""

    n_apis: int
    api: str                 # the API added at this step
    completeness: float


@dataclass(frozen=True)
class Stage:
    """One row of Table 4."""

    number: int
    start: int               # first rank in this stage (1-based)
    end: int                 # last rank
    completeness: float
    sample_apis: Tuple[str, ...]


def completeness_curve(footprints: FootprintsLike,
                       popcon: Optional[PopularityContest] = None,
                       repository: Optional[Repository] = None,
                       dimension: str = "syscall",
                       importance: Optional[Mapping[str, float]] = None,
                       ignore_empty: bool = True,
                       ) -> List[CurvePoint]:
    """Weighted completeness after adding each next-most-important API.

    APIs are added in decreasing weighted importance; ties (the large
    100%-importance head) are broken by unweighted importance, so the
    calls every binary needs come first — this is what makes the
    minimal "hello world" set appear at the head of the curve (§3.2).
    Packages with an empty footprint are excluded (see
    :func:`repro.metrics.completeness.weighted_completeness`).

    Runs incrementally: per package, the rank at which its last
    required API arrives (numpy over the packed mask rows); per
    dependency-graph component, how many members and dependencies are
    still unsupported — so the whole curve costs O(APIs + packages +
    dependency edges) instead of re-running the dependency fixed point
    at every rank.
    """
    dataset = as_dataset(footprints, popcon, repository)
    popcon = dataset._require_popcon()
    repository = dataset.repository
    space = dataset.space
    packages = dataset.packages
    weights = dataset.weights
    universe_ids = dataset.universe_ids(dimension, ignore_empty)

    if importance is None:
        # Empty-in-dimension packages use no APIs, so the table over
        # the filtered universe equals the table over everything.
        importance = dataset.importance_table(dimension)
    usage = dataset.usage_table(dimension, ignore_empty=ignore_empty)
    order = sorted(importance,
                   key=lambda api: (-importance[api],
                                    -usage.get(api, 0.0), api))

    total_weight = sum(weights[i] for i in universe_ids)
    if total_weight == 0:
        return []

    # A package is satisfied at the rank of its last API: 0 when it
    # uses none, never (past the last rank) when one of its APIs is
    # not in the order.  Feeding packages in stable (rank, package id)
    # order is the order in which per-API user lists would count each
    # one down to zero.
    never = len(order) + 1
    api_rank = np.full(space.size(dimension), never, dtype=np.int64)
    for rank, api in enumerate(order, start=1):
        try:
            api_rank[space.id_of(dimension, api)] = rank
        except KeyError:
            pass                  # universe-extended API nobody uses
    universe = np.array(universe_ids, dtype=np.int64)
    ranks = dataset.last_ranks(dimension, api_rank)[universe]
    by_rank = np.argsort(ranks, kind="stable")
    schedule = [packages[i] for i in universe[by_rank].tolist()]
    ends = np.searchsorted(ranks[by_rank], np.arange(never),
                           side="right").tolist()

    weight_of = dataset.weight_of
    if repository is None:
        note_satisfied = weight_of
    else:
        mark_satisfied = dataset.condensed_graph(
            dimension, ignore_empty,
            assume_trivial=True).tracker().mark_satisfied

        def note_satisfied(package: str) -> float:
            return sum(map(weight_of, mark_satisfied(package)))

    supported_weight = 0.0
    curve: List[CurvePoint] = []
    done = 0
    for rank, end in enumerate(ends):
        for package in schedule[done:end]:
            supported_weight += note_satisfied(package)
        done = end
        if rank:
            curve.append(CurvePoint(
                rank, order[rank - 1], supported_weight / total_weight))
    return curve


def stages(curve: Sequence[CurvePoint],
           thresholds: Sequence[float] = (0.011, 0.10, 0.50, 0.90, 1.0),
           samples_per_stage: int = 10) -> List[Stage]:
    """Cut the curve into Table 4's implementation stages.

    Stage *k* ends at the first point whose completeness reaches
    ``thresholds[k]`` (the paper's 1.1% / ~10% / ~50% / ~90% / 100%).
    """
    result: List[Stage] = []
    start = 1
    for number, threshold in enumerate(thresholds, start=1):
        end_point = None
        for point in curve:
            if point.n_apis >= start and point.completeness >= threshold:
                end_point = point
                break
        if end_point is None:
            end_point = curve[-1] if curve else None
        if end_point is None:
            break
        sample = tuple(
            point.api for point in curve
            if start <= point.n_apis <= end_point.n_apis
        )[:samples_per_stage]
        result.append(Stage(
            number=number, start=start, end=end_point.n_apis,
            completeness=end_point.completeness, sample_apis=sample))
        start = end_point.n_apis + 1
        if start > len(curve):
            break
    return result


def first_rank_reaching(curve: Sequence[CurvePoint],
                        completeness: float) -> Optional[int]:
    """The N at which the curve first reaches ``completeness``."""
    for point in curve:
        if point.completeness >= completeness:
            return point.n_apis
    return None


def inverted_cdf(importance: Mapping[str, float]) -> List[float]:
    """Figure 2's presentation: importance sorted descending."""
    return [value for _, value in ranked(importance)]
