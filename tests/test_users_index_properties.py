"""Property: the columnar users index and universe ids equal the
per-mask scans they replaced, on eager and snapshot-backed datasets
alike.

The scan (``_scan_users``) is the reference: for each package in
order, append its id to the list of every API its mask sets.  The
columnar build must match it list for list, hold plain ``int``
entries, and reuse one int object per package id.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from repro.analysis.footprint import Footprint
from repro.dataset import ALL_DIMENSIONS, Dataset, iter_bits
from repro.store import load_snapshot_bytes, snapshot_to_bytes

_FIELDS = ("syscalls", "ioctls", "fcntls", "prctls", "pseudo_files",
           "libc_symbols")


def _scan_users(dataset, dimension):
    users = [[] for _ in range(dataset.space.size(dimension))]
    for pkg_id, mask in enumerate(dataset.masks(dimension)):
        for api_id in iter_bits(mask):
            users[api_id].append(pkg_id)
    return users


@st.composite
def footprint_maps(draw):
    """Up to 12 drawn packages; each field draws from a pool of 0-19
    names, so universe sizes include zero and widths that are not a
    multiple of 8, and empty packages are common.  An optional run of
    leading empty packages pushes user ids past CPython's small-int
    cache, where only a shared object makes equal ids identical."""
    pools = {field: [f"{field[:3]}{i:02d}" for i in
                     range(draw(st.integers(0, 19)))]
             for field in _FIELDS}
    padding = draw(st.sampled_from([0, 300]))
    footprints = {f"empty{i}": Footprint.EMPTY for i in range(padding)}
    for i in range(draw(st.integers(0, 12))):
        footprints[f"pkg{i}"] = Footprint.build(**{
            field: draw(st.lists(st.sampled_from(pool), unique=True))
            if pool else () for field, pool in pools.items()})
    return footprints


@settings(max_examples=120, deadline=None)
@given(footprints=footprint_maps())
def test_columnar_users_index_equals_bit_scan(footprints):
    eager = Dataset(footprints)
    lazy = load_snapshot_bytes(snapshot_to_bytes(eager))
    for dataset in (eager, lazy):
        shared = {}
        for dimension in ALL_DIMENSIONS:
            masks = dataset.masks(dimension)
            assert dataset.universe_ids(dimension) == \
                [i for i, mask in enumerate(masks) if mask]
            assert dataset.universe_ids(dimension, ignore_empty=False) \
                == list(range(len(masks)))
            users = dataset.users_index(dimension)
            assert users == _scan_users(dataset, dimension)
            for column in users:
                for pkg_id in column:
                    assert type(pkg_id) is int
                    assert shared.setdefault(pkg_id, pkg_id) is pkg_id
