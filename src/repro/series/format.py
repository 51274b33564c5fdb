"""The ``.rser`` wire format: a base snapshot plus delta sections.

A series is the second kind (:data:`SERIES`) in the container that
:mod:`repro.store.format` frames: the same header, section table and
two-checksum integrity ladder, packed and checked by the same
:func:`repro.store.format.encode_file` / ``decode_header``, under a
distinct magic so one-read format sniffing keeps working::

    offset 0   magic        8 bytes   b"\\x89RSERS\\r\\n"
    offset 8   version      u32       SERIES_VERSION
    ...        (header, section table, meta_crc, payload — as .rsnap)

Sections:

======  ==================================================================
SMET    canonical JSON: {"n_releases", "fingerprints", "n_packages"}
BASE    release 0 as a complete, self-contained ``.rsnap`` file image
D001..  one delta per later release k (tag ``D%03d`` % k), in order
======  ==================================================================

Embedding a whole ``.rsnap`` as the BASE payload means release 0 loads
through the existing mmap-lazy :func:`repro.store.load_snapshot_bytes`
on a zero-copy slice — the series format adds no second code path for
the expensive part, and inherits the store's corruption guarantees.

A delta section encodes the difference between release k-1 and k under
the **canonical package order** rule (survivors keep their order, added
packages append — :mod:`repro.synth.evolve`), so the receiver rebuilds
release k's exact package order, and therefore its bit-exact metric
floats, from the delta alone::

    removed      str list      names dropped since k-1 (sorted)
    changed      u32 + entry*  survivors whose row changed (pkg order)
    added        u32 + entry*  new packages, release order
    popcon u8    0 = no popcon in this series
      total      u64           new total_installations
      set        u32 + (name, u64 count)*   upserted counts (sorted)
      removed    str list      names leaving the survey (sorted)
    deps u8      0 = no repository in this series
      removed    str list      packages leaving the skeleton (sorted)
      upserts    u32 + (name, category, depends str list)*  (sorted)
    provides     OPTIONAL trailing block (DEPS-v2), present only when
      upserts    some upserted package declares Provides: —
                 u32 + (name, provides str list)*  (upsert order).
                 Upserted packages absent from the block have no
                 Provides; a delta with no block at all is byte-
                 identical to the pre-refactor encoding, so flat
                 corpora round-trip unchanged and old files decode as
                 degenerate AND graphs.

    entry = name + u64 unresolved_sites
            + one fixed-width little-endian mask row per dimension
              (row width fixed by the series' shared ApiSpace)

All releases share the BASE snapshot's interned space — the union of
every release's APIs — so mask rows are directly comparable and the
fixed row width is known before any entry is read.

Every reader failure raises the *store's* typed error ladder
(:class:`repro.store.StoreError` subclasses): to callers and to the
engine's error taxonomy, a torn series is the same class of fault as a
torn snapshot.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import List, Tuple

from ..dataset.core import ApiSpace, Dataset
from ..dataset.dimensions import DIMENSION_ORDER
from ..store.errors import StoreLayoutError
from ..store.format import (ContainerKind, Cursor, mask_row_bytes,
                            pack_str, pack_str_list)

#: First bytes of every series file (PNG-style, like .rsnap).
SERIES_MAGIC = b"\x89RSERS\r\n"

#: Bump on incompatible wire-layout change.
SERIES_VERSION = 1

_U8 = struct.Struct("<B")
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")

#: Release 0 plus up to 999 deltas (``D001``..``D999``).
MAX_RELEASES = 1000

#: The ``.rser`` kind of the shared container: SMET, BASE, the deltas.
SERIES = ContainerKind(name="series", suffix=".rser", magic=SERIES_MAGIC,
                       version=SERIES_VERSION,
                       required_tags=(b"SMET", b"BASE"),
                       max_sections=2 + (MAX_RELEASES - 1))


def delta_tag(release: int) -> bytes:
    """Section tag of the delta producing ``release`` (k >= 1)."""
    if not 1 <= release < MAX_RELEASES:
        raise ValueError(f"release {release} out of delta-tag range")
    return f"D{release:03d}".encode("ascii")


# --- delta model ---------------------------------------------------------

@dataclass(frozen=True)
class ReleaseEntry:
    """One package's full row: the unit added/changed deltas carry."""

    name: str
    unresolved: int
    #: One interned mask per dimension, DIMENSION_ORDER.
    masks: Tuple[int, ...]


@dataclass(frozen=True)
class ReleaseDelta:
    """Everything that changed between release k-1 and release k."""

    removed: Tuple[str, ...]
    changed: Tuple[ReleaseEntry, ...]
    added: Tuple[ReleaseEntry, ...]
    has_popcon: bool = False
    popcon_total: int = 0
    popcon_set: Tuple[Tuple[str, int], ...] = ()
    popcon_removed: Tuple[str, ...] = ()
    has_deps: bool = False
    deps_removed: Tuple[str, ...] = ()
    deps_upserts: Tuple[Tuple[str, str, Tuple[str, ...]], ...] = ()
    #: Provides: lists for upserted packages that declare any —
    #: ``(name, provides)`` pairs, a subset of ``deps_upserts`` names.
    provides_upserts: Tuple[Tuple[str, Tuple[str, ...]], ...] = ()


def _row_widths(space: ApiSpace) -> List[int]:
    return [mask_row_bytes(space.size(dim)) for dim in DIMENSION_ORDER]


def _encode_entry(entry: ReleaseEntry, widths: List[int]) -> bytes:
    parts = [pack_str(entry.name), _U64.pack(entry.unresolved)]
    parts.extend(mask.to_bytes(width, "little")
                 for mask, width in zip(entry.masks, widths))
    return b"".join(parts)


def encode_delta(delta: ReleaseDelta, space: ApiSpace) -> bytes:
    """Encode one delta section payload (mask widths fixed by space)."""
    widths = _row_widths(space)
    parts = [pack_str_list(delta.removed),
             _U32.pack(len(delta.changed))]
    parts.extend(_encode_entry(entry, widths)
                 for entry in delta.changed)
    parts.append(_U32.pack(len(delta.added)))
    parts.extend(_encode_entry(entry, widths)
                 for entry in delta.added)
    parts.append(_U8.pack(1 if delta.has_popcon else 0))
    if delta.has_popcon:
        parts.append(_U64.pack(delta.popcon_total))
        parts.append(_U32.pack(len(delta.popcon_set)))
        for name, count in delta.popcon_set:
            parts.append(pack_str(name))
            parts.append(_U64.pack(count))
        parts.append(pack_str_list(delta.popcon_removed))
    parts.append(_U8.pack(1 if delta.has_deps else 0))
    if delta.has_deps:
        parts.append(pack_str_list(delta.deps_removed))
        parts.append(_U32.pack(len(delta.deps_upserts)))
        for name, category, depends in delta.deps_upserts:
            parts.append(pack_str(name))
            parts.append(pack_str(category))
            parts.append(pack_str_list(depends))
        if delta.provides_upserts:
            # Optional DEPS-v2 trailing block — omitted entirely when
            # no upsert declares Provides, keeping flat-corpus deltas
            # byte-identical to the pre-refactor encoding.
            parts.append(_U32.pack(len(delta.provides_upserts)))
            for name, provides in delta.provides_upserts:
                parts.append(pack_str(name))
                parts.append(pack_str_list(provides))
    return b"".join(parts)


def _decode_entry(cursor: Cursor, widths: List[int]) -> ReleaseEntry:
    name = cursor.string()
    unresolved = cursor.u64()
    masks = tuple(int.from_bytes(cursor._take(width), "little")
                  for width in widths)
    return ReleaseEntry(name=name, unresolved=unresolved, masks=masks)


def decode_delta(data, tag: str, space: ApiSpace) -> ReleaseDelta:
    """Decode one delta section; trailing bytes are a layout error."""
    widths = _row_widths(space)
    cursor = Cursor(data, tag)
    removed = tuple(cursor.string_list())
    changed = tuple(_decode_entry(cursor, widths)
                    for _ in range(cursor.u32()))
    added = tuple(_decode_entry(cursor, widths)
                  for _ in range(cursor.u32()))
    has_popcon = cursor._take(1)[0] != 0
    popcon_total = 0
    popcon_set: Tuple[Tuple[str, int], ...] = ()
    popcon_removed: Tuple[str, ...] = ()
    if has_popcon:
        popcon_total = cursor.u64()
        popcon_set = tuple((cursor.string(), cursor.u64())
                           for _ in range(cursor.u32()))
        popcon_removed = tuple(cursor.string_list())
    has_deps = cursor._take(1)[0] != 0
    deps_removed: Tuple[str, ...] = ()
    deps_upserts: Tuple[Tuple[str, str, Tuple[str, ...]], ...] = ()
    provides_upserts: Tuple[Tuple[str, Tuple[str, ...]], ...] = ()
    if has_deps:
        deps_removed = tuple(cursor.string_list())
        deps_upserts = tuple(
            (cursor.string(), cursor.string(),
             tuple(cursor.string_list()))
            for _ in range(cursor.u32()))
        if not cursor.exhausted():
            # DEPS-v2 trailing block: pre-refactor deltas simply end
            # here and decode with no Provides.
            if len(data) - cursor.pos < 4:
                raise StoreLayoutError(
                    f"section {tag}: {len(data) - cursor.pos} "
                    f"trailing bytes")
            upsert_names = {name for name, _, _ in deps_upserts}
            provides_upserts = tuple(
                (cursor.string(), tuple(cursor.string_list()))
                for _ in range(cursor.u32()))
            if not provides_upserts:
                raise StoreLayoutError(
                    f"section {tag}: empty provides block (the "
                    f"encoder omits it entirely)")
            for name, provides in provides_upserts:
                if name not in upsert_names:
                    raise StoreLayoutError(
                        f"section {tag}: provides for non-upserted "
                        f"package {name!r}")
                if not provides:
                    raise StoreLayoutError(
                        f"section {tag}: empty provides entry "
                        f"{name!r}")
    if not cursor.exhausted():
        raise StoreLayoutError(
            f"section {tag}: {len(data) - cursor.pos} trailing bytes")
    return ReleaseDelta(
        removed=removed, changed=changed, added=added,
        has_popcon=has_popcon, popcon_total=popcon_total,
        popcon_set=popcon_set, popcon_removed=popcon_removed,
        has_deps=has_deps, deps_removed=deps_removed,
        deps_upserts=deps_upserts, provides_upserts=provides_upserts)


# --- delta derivation ----------------------------------------------------

def _entry_of(dataset: Dataset, name: str,
              columns: List[List[int]]) -> ReleaseEntry:
    index = dataset.package_index[name]
    return ReleaseEntry(
        name=name,
        unresolved=dataset[name].unresolved_sites,
        masks=tuple(column[index] for column in columns))


def delta_between(previous: Dataset, current: Dataset) -> ReleaseDelta:
    """Derive the delta from ``previous`` to ``current``.

    Both datasets must share one interned space and follow the
    canonical package order rule (survivors keep ``previous``'s order,
    added packages append); violations raise ``ValueError`` at build
    time rather than corrupting the decode invariant.
    """
    if previous.space != current.space:
        raise ValueError("releases must share one interned ApiSpace")
    prev_names = set(previous.packages)
    cur_names = set(current.packages)
    removed = tuple(sorted(prev_names - cur_names))
    added_names = [name for name in current.packages
                   if name not in prev_names]
    survivors = [name for name in previous.packages
                 if name in cur_names]
    if list(current.packages) != survivors + added_names:
        raise ValueError(
            "canonical package order violated: survivors must keep "
            "their order and added packages must append")

    prev_columns = [previous.masks(dim) for dim in DIMENSION_ORDER]
    cur_columns = [current.masks(dim) for dim in DIMENSION_ORDER]
    changed = []
    for name in survivors:
        pi = previous.package_index[name]
        ci = current.package_index[name]
        same = (previous[name].unresolved_sites
                == current[name].unresolved_sites)
        if same:
            for prev_col, cur_col in zip(prev_columns, cur_columns):
                if prev_col[pi] != cur_col[ci]:
                    same = False
                    break
        if not same:
            changed.append(_entry_of(current, name, cur_columns))
    added = tuple(_entry_of(current, name, cur_columns)
                  for name in added_names)

    has_popcon = current.popcon is not None
    if has_popcon != (previous.popcon is not None):
        raise ValueError("popcon must be present in all releases "
                         "or none")
    popcon_total = 0
    popcon_set: Tuple[Tuple[str, int], ...] = ()
    popcon_removed: Tuple[str, ...] = ()
    if has_popcon:
        popcon_total = current.popcon.total_installations
        prev_counts = {name: previous.popcon.installations(name)
                       for name in previous.popcon.packages()}
        cur_counts = {name: current.popcon.installations(name)
                      for name in current.popcon.packages()}
        popcon_set = tuple(sorted(
            (name, count) for name, count in cur_counts.items()
            if prev_counts.get(name) != count))
        popcon_removed = tuple(sorted(
            name for name in prev_counts if name not in cur_counts))

    has_deps = current.repository is not None
    if has_deps != (previous.repository is not None):
        raise ValueError("repository must be present in all releases "
                         "or none")
    deps_removed: Tuple[str, ...] = ()
    deps_upserts: Tuple[Tuple[str, str, Tuple[str, ...]], ...] = ()
    provides_upserts: Tuple[Tuple[str, Tuple[str, ...]], ...] = ()
    if has_deps:
        prev_deps = {package.name: (package.category,
                                    tuple(package.depends),
                                    tuple(package.provides))
                     for package in previous.repository}
        cur_deps = {package.name: (package.category,
                                   tuple(package.depends),
                                   tuple(package.provides))
                    for package in current.repository}
        deps_removed = tuple(sorted(
            name for name in prev_deps if name not in cur_deps))
        upserts = sorted(
            (name, row) for name, row in cur_deps.items()
            if prev_deps.get(name) != row)
        deps_upserts = tuple(
            (name, category, depends)
            for name, (category, depends, _) in upserts)
        provides_upserts = tuple(
            (name, provides)
            for name, (_, _, provides) in upserts if provides)

    return ReleaseDelta(
        removed=removed, changed=tuple(changed), added=added,
        has_popcon=has_popcon, popcon_total=popcon_total,
        popcon_set=popcon_set, popcon_removed=popcon_removed,
        has_deps=has_deps, deps_removed=deps_removed,
        deps_upserts=deps_upserts, provides_upserts=provides_upserts)


def apply_delta_names(previous: List[str],
                      delta: ReleaseDelta) -> List[str]:
    """The canonical package order of the next release."""
    removed = set(delta.removed)
    names = [name for name in previous if name not in removed]
    names.extend(entry.name for entry in delta.added)
    return names
