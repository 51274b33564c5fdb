"""The RCU-style snapshot holder and the multi-tenant registry.

The server holds warm published state and must be able to replace it —
a re-analyzed corpus, a new release train — without dropping a single
in-flight request.  The classic read-copy-update discipline fits
exactly:

* **Readers** call :meth:`current` once at request start and use that
  published object for the whole request.  The read is a single
  attribute load (atomic under the GIL), so it takes no lock and can
  never observe a half-swapped state; the garbage collector keeps the
  old state alive until the last request referencing it finishes.
* **The writer** (one at a time, serialized by a lock) builds the
  complete replacement off to the side — parse, decode, rebind — and
  publishes it with one reference assignment.  A failed load changes
  nothing: the old snapshot stays current and the error propagates to
  the caller.

``/readyz`` reflects the loading window: it flips to *not ready* while
a reload is in progress so load balancers stop sending **new** traffic
to an instance mid-swap, and flips back once the new snapshot is
published (or the load failed and the old one remains authoritative).
In-flight requests are never affected — readiness gates admission of
future work, not completion of current work.

One :class:`SnapshotHolder` keeps that discipline for either kind of
tenant, fixed when the holder is built:

* a dataset tenant publishes one :class:`repro.dataset.Dataset` as a
  :class:`DatasetSnapshot`.  Files are sniffed by their leading bytes:
  binary ``.rsnap`` snapshots (:mod:`repro.store`) open via mmap with
  lazy mask materialization, and JSON payloads
  (:mod:`repro.dataset.codec`) take the eager decode path.  Both
  produce bit-identical served responses.
* a series tenant publishes a whole :class:`repro.series.DatasetSeries`
  — every release of a ``.rser`` train at once — as a
  :class:`SeriesSnapshot`, so ``?release=`` time-travel queries
  resolve against one consistent generation.

A reload keeps the tenant's kind: a ``.rser`` file offered to a
dataset tenant, or anything else offered to a series tenant, fails
with :class:`repro.store.StoreMagicError` like any corrupt file.

:class:`SnapshotRegistry` maps tenant names to holders.  The
``default`` tenant is what un-qualified requests hit; every holder
keeps its own RCU generation counter and reload accounting, so one
tenant's failed reload never disturbs another's published state.
"""

from __future__ import annotations

import pathlib
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, Mapping, Optional, Tuple

from ..dataset.codec import (dataset_from_json, dataset_to_json,
                             footprints_fingerprint)
from ..dataset.core import Dataset
from ..series import DatasetSeries, load_series, sniff_series
from ..store import (StoreMagicError, load_snapshot, sniff_format,
                     write_snapshot)

#: Tenant name un-qualified requests resolve against.
DEFAULT_TENANT = "default"


@dataclass(frozen=True)
class DatasetSnapshot:
    """One immutable published dataset generation."""

    dataset: Dataset
    fingerprint: str
    generation: int
    loaded_at: float = field(default_factory=time.time)
    #: Where this generation came from: "memory" (built in-process),
    #: "json" (codec reload), or "rsnap" (binary snapshot reload).
    source_format: str = "memory"

    @property
    def packages(self) -> int:
        return len(self.dataset.packages)


@dataclass(frozen=True)
class SeriesSnapshot:
    """One immutable published release train generation.

    ``fingerprint`` is the series fingerprint (the hash over the whole
    release chain); individual releases keep their own content
    fingerprints in :attr:`release_fingerprints`.
    """

    series: DatasetSeries
    fingerprint: str
    generation: int
    loaded_at: float = field(default_factory=time.time)
    source_format: str = "rser"

    @property
    def n_releases(self) -> int:
        return self.series.n_releases

    @property
    def head_release(self) -> int:
        return self.series.n_releases - 1

    @property
    def packages(self) -> int:
        """Package count of the head release (no materialization)."""
        return self.series.n_packages[-1]

    @property
    def release_fingerprints(self) -> Tuple[str, ...]:
        return self.series.fingerprints

    def dataset_at(self, release: int) -> Dataset:
        """Materialize one release, stamped with its provenance.

        The stamp mirrors :func:`_publish`'s but adds the release
        index so ``/dataset/stats`` answers say *which* point of the
        train they describe.
        """
        dataset = self.series.at(release)
        dataset.snapshot_meta = {
            "format": self.source_format,
            "fingerprint": self.series.fingerprints[release],
            "release": release,
        }
        return dataset


def _sniff(path) -> str:
    """``"rser"``, ``"rsnap"`` or ``"json"`` from a file's first bytes."""
    with open(path, "rb") as handle:
        head = handle.read(8)
    return "rser" if sniff_series(head) else sniff_format(head)


def _load(path, source_format: str, popcon, repository):
    """Load a sniffed file: ``(dataset or series, fingerprint)``.

    An ``.rsnap`` carries its fingerprint (content-derived at write
    time); JSON is fingerprinted fresh.  ``popcon`` / ``repository``
    follow the :meth:`repro.dataset.Dataset.rebound` convention
    (explicit objects override embedded sections).  Raises on any
    corruption or I/O failure without producing a partial dataset.
    """
    if source_format == "rser":
        series = load_series(path)
        return series, series.series_fingerprint
    if source_format == "rsnap":
        dataset = load_snapshot(path, popcon, repository)
        return dataset, dataset.source_fingerprint
    text = pathlib.Path(path).read_text(encoding="utf-8")
    dataset = dataset_from_json(text, popcon, repository)
    return dataset, footprints_fingerprint(dataset)


def _publish(source, fingerprint: Optional[str], generation: int,
             source_format: str):
    """The immutable snapshot of a dataset or series at ``generation``."""
    if isinstance(source, DatasetSeries):
        return SeriesSnapshot(series=source,
                              fingerprint=source.series_fingerprint,
                              generation=generation)
    if fingerprint is None:
        fingerprint = footprints_fingerprint(source)
    # Endpoint payload builders only see the dataset, not the holder,
    # so the provenance for /dataset/stats rides along on it.
    source.snapshot_meta = {"format": source_format,
                            "fingerprint": fingerprint}
    return DatasetSnapshot(dataset=source, fingerprint=fingerprint,
                           generation=generation,
                           source_format=source_format)


class SnapshotHolder:
    """Single-writer, many-reader holder of one tenant's snapshot.

    The tenant serves a :class:`repro.dataset.Dataset` or, for
    time travel, a whole :class:`repro.series.DatasetSeries`:
    publishing every release of a train as one generation means a
    request that pins a generation sees the *same* chain for
    ``?release=0`` and ``?release=9``, even if a reload lands
    mid-request.
    """

    def __init__(self, source, fingerprint: Optional[str] = None, *,
                 source_format: str = "memory",
                 source_path: Optional[str] = None) -> None:
        """Publish ``source`` (a dataset or a series) as generation 1."""
        self._current = _publish(source, fingerprint, 1, source_format)
        self._ready = True
        self._reload_lock = threading.Lock()
        #: The file the published generation was loaded from (None
        #: when built in memory); the SIGHUP reload re-reads it.
        self.source_path = source_path
        self.reloads = 0
        self.failed_reloads = 0

    @classmethod
    def from_file(cls, path, popcon=None,
                  repository=None) -> "SnapshotHolder":
        """Boot a holder from a ``.rser``, ``.rsnap`` or JSON file.

        The kind is sniffed from the file's first bytes.  This is how
        pre-fork workers start: each worker of a fleet calls this on
        the same path, so the mmap'd pages are shared through the page
        cache instead of N eager copies.  ``popcon`` / ``repository``
        apply to dataset files only.
        """
        source_format = _sniff(path)
        source, fingerprint = _load(path, source_format, popcon,
                                    repository)
        return cls(source, fingerprint, source_format=source_format,
                   source_path=str(path))

    # --- reader side ----------------------------------------------------

    def current(self):
        """The published snapshot: one atomic reference read."""
        return self._current

    def ready(self) -> bool:
        """False only inside a reload window (new traffic should wait)."""
        return self._ready

    @property
    def generation(self) -> int:
        return self._current.generation

    # --- writer side ----------------------------------------------------

    def reload_from_file(self, path):
        """Load a file and publish it atomically.

        In-flight requests keep their snapshot; ``/readyz`` reports
        not-ready for the duration of the load.  A dataset tenant
        carries its current popcon and repository over to the new
        generation (the payloads persist only interned state — the
        :meth:`repro.dataset.Dataset.rebound` convention).  On any
        failure, including a file of the other tenant kind, the old
        snapshot remains current, readiness is restored, and the error
        propagates.
        """
        with self._reload_lock:
            old = self._current
            self._ready = False
            try:
                source_format = _sniff(path)
                serves_series = isinstance(old, SeriesSnapshot)
                if (source_format == "rser") != serves_series:
                    raise StoreMagicError(
                        f"cannot reload a "
                        f"{'series' if serves_series else 'dataset'} "
                        f"tenant from a {source_format} file")
                popcon = repository = None
                if not serves_series:
                    popcon = old.dataset.popcon
                    repository = old.dataset.repository
                source, fingerprint = _load(path, source_format,
                                            popcon, repository)
                snapshot = _publish(source, fingerprint,
                                    old.generation + 1, source_format)
                self._current = snapshot
                self.source_path = str(path)
                self.reloads += 1
                return snapshot
            except Exception:
                self.failed_reloads += 1
                raise
            finally:
                self._ready = True

    def swap_dataset(self, dataset: Dataset,
                     fingerprint: Optional[str] = None,
                     ) -> DatasetSnapshot:
        """Publish an already-built dataset as the new snapshot."""
        with self._reload_lock:
            if isinstance(self._current, SeriesSnapshot):
                raise ValueError("a series tenant cannot publish a "
                                 "single dataset")
            snapshot = _publish(dataset, fingerprint,
                                self._current.generation + 1, "memory")
            self._current = snapshot
            self.reloads += 1
            return snapshot

    def export_to_file(self, path, format: str = "json") -> int:
        """Write the current dataset snapshot in a reloadable format.

        ``format`` is ``"json"`` (portable codec) or ``"binary"``
        (``.rsnap``); returns the byte count written.
        """
        snapshot = self._current
        if format == "binary":
            return write_snapshot(pathlib.Path(path), snapshot.dataset,
                                  snapshot.fingerprint)
        if format != "json":
            raise ValueError(f"unknown export format: {format!r}")
        text = dataset_to_json(snapshot.dataset)
        pathlib.Path(path).write_text(text, encoding="utf-8")
        return len(text)

    def stats(self) -> Dict[str, object]:
        snapshot = self._current
        stats: Dict[str, object] = {
            "generation": snapshot.generation,
            "fingerprint": snapshot.fingerprint,
            "format": snapshot.source_format,
            "packages": snapshot.packages,
        }
        if isinstance(snapshot, SeriesSnapshot):
            stats["releases"] = snapshot.n_releases
        stats.update(ready=self._ready, reloads=self.reloads,
                     failed_reloads=self.failed_reloads,
                     source_path=self.source_path)
        return stats


@dataclass(frozen=True)
class ResolvedTarget:
    """What one request's tenant/release coordinates resolved to."""

    tenant: str
    holder: SnapshotHolder
    snapshot: object
    fingerprint: str
    generation: int
    #: Materialized dataset for dataset-scope endpoints (None for
    #: series scope).
    dataset: Optional[Dataset] = None
    #: The release train for series-scope endpoints (None for plain
    #: snapshot tenants / dataset scope).
    series: Optional[object] = None
    #: Release index the dataset was materialized at, when the tenant
    #: serves a series (None for plain snapshot tenants).
    release: Optional[int] = None


class SnapshotRegistry:
    """Named holders behind one serve app — multi-tenant publication.

    Registration is done at boot / config time (no lock: mutation is
    not concurrent with request traffic by construction, and readers
    only ever do dict lookups on a dict that stops changing once
    serving starts).  Each holder keeps its own RCU discipline.
    """

    def __init__(self) -> None:
        self._holders: Dict[str, SnapshotHolder] = {}

    @classmethod
    def of(cls, source) -> "SnapshotRegistry":
        """Adapt a holder (or pass through a registry) for ServeApp."""
        if isinstance(source, SnapshotRegistry):
            return source
        registry = cls()
        registry.add(DEFAULT_TENANT, source)
        return registry

    @classmethod
    def from_files(cls, path, popcon=None, repository=None,
                   tenants: Optional[Mapping[str, str]] = None,
                   ) -> "SnapshotRegistry":
        """Boot a registry: ``path`` as default plus named tenants."""
        registry = cls()
        registry.add(DEFAULT_TENANT,
                     SnapshotHolder.from_file(path, popcon, repository))
        for name, tenant_path in (tenants or {}).items():
            registry.add(name, SnapshotHolder.from_file(tenant_path))
        return registry

    def add(self, name: str, holder) -> None:
        if not name or not all(
                ch.isalnum() or ch in "._-" for ch in name):
            raise ValueError(
                f"invalid tenant name {name!r}: use letters, digits, "
                "'.', '_' or '-'")
        if name in self._holders:
            raise ValueError(f"tenant {name!r} already registered")
        self._holders[name] = holder

    def get(self, tenant: Optional[str] = None) -> SnapshotHolder:
        name = DEFAULT_TENANT if tenant is None else tenant
        try:
            return self._holders[name]
        except KeyError:
            raise ValueError(
                f"unknown tenant {name!r}; serving "
                f"{sorted(self._holders)}") from None

    def names(self):
        return sorted(self._holders)

    def items(self) -> Iterator[Tuple[str, SnapshotHolder]]:
        return iter(sorted(self._holders.items()))

    def ready(self) -> bool:
        return all(holder.ready()
                   for holder in self._holders.values())

    def resolve(self, tenant: Optional[str] = None,
                release=None, scope: str = "dataset") -> ResolvedTarget:
        """Pin one tenant's current snapshot and pick the query subject.

        ``release`` is the raw ``?release=`` query value (string or
        int).  All coordinate errors raise ``ValueError`` — the serve
        layer maps that to a 400 ``bad_request`` envelope:

        * unknown tenant,
        * series scope against a plain snapshot tenant,
        * ``release=`` against a plain snapshot tenant,
        * a release index outside the train.
        """
        name = DEFAULT_TENANT if tenant is None else tenant
        holder = self.get(name)
        snapshot = holder.current()
        is_series = isinstance(snapshot, SeriesSnapshot)
        if scope == "series":
            if not is_series:
                raise ValueError(
                    f"tenant {name!r} serves a single snapshot; "
                    "series queries need a release train")
            return ResolvedTarget(
                tenant=name, holder=holder, snapshot=snapshot,
                fingerprint=snapshot.fingerprint,
                generation=snapshot.generation,
                series=snapshot.series)
        if scope != "dataset":
            raise ValueError(f"unknown endpoint scope {scope!r}")
        if not is_series:
            if release is not None:
                raise ValueError(
                    f"tenant {name!r} serves a single snapshot; "
                    "release= is not supported")
            return ResolvedTarget(
                tenant=name, holder=holder, snapshot=snapshot,
                fingerprint=snapshot.fingerprint,
                generation=snapshot.generation,
                dataset=snapshot.dataset)
        if release is None:
            index = snapshot.head_release
        else:
            try:
                index = int(release)
            except (TypeError, ValueError):
                raise ValueError(
                    f"release must be a release index, "
                    f"got {release!r}") from None
        dataset = snapshot.dataset_at(index)  # ValueError if unknown
        return ResolvedTarget(
            tenant=name, holder=holder, snapshot=snapshot,
            fingerprint=snapshot.series.fingerprints[index],
            generation=snapshot.generation,
            dataset=dataset, release=index)

    def stats(self) -> Dict[str, Dict[str, object]]:
        return {name: holder.stats() for name, holder in self.items()}
