"""The one container framing behind ``.rsnap`` and ``.rser`` files.

Both kinds share :func:`repro.store.format.encode_file`,
:func:`repro.store.format.decode_header` and
:func:`repro.store.format.load_file`; what differs is the kind's
parameters (magic, version, required sections, section cap).  Every
test here runs once per kind, so a parameter that drifts — or a rung
of the integrity ladder that only one kind exercises — fails by name.
"""

import gc
import mmap
import struct
import warnings

import pytest

from repro.series import load_series, load_series_bytes, series_to_bytes
from repro.series.format import SERIES
from repro.store import (StoreCRCError, StoreLayoutError,
                         StoreMagicError, load_snapshot,
                         load_snapshot_bytes, snapshot_to_bytes)
from repro.store.format import (HEADER_SIZE, SECTION_SIZE, SNAPSHOT,
                                crc32, decode_header, encode_file)
from repro.synth import EvolutionConfig, evolve_corpus
from repro.synth.paper import PaperScaleConfig

FINGERPRINT = "0" * 64


@pytest.fixture(scope="module")
def releases():
    return evolve_corpus(EvolutionConfig(
        n_releases=2, base=PaperScaleConfig.at_scale(0.005, seed=7),
        seed=7)).datasets()


@pytest.fixture(scope="module")
def files(releases):
    """kind name -> (kind, file bytes, loader of bytes, loader of path)."""
    return {
        "snapshot": (SNAPSHOT, snapshot_to_bytes(releases[0]),
                     load_snapshot_bytes, load_snapshot),
        "series": (SERIES, series_to_bytes(releases),
                   load_series_bytes, load_series),
    }


KINDS = ["snapshot", "series"]


def sections_for(kind, count):
    """``count`` tiny sections: the kind's required tags, then filler."""
    tags = list(kind.required_tags)
    tags += [f"X{index:03d}".encode("ascii")
             for index in range(count - len(tags))]
    return [(tag, b"payload") for tag in tags]


def with_section_offset(data, index, offset):
    """``data`` with section ``index`` moved to ``offset``, CRCs valid."""
    mutated = bytearray(data)
    entry = HEADER_SIZE + index * SECTION_SIZE
    struct.pack_into("<Q", mutated, entry + 4, offset)
    (n_sections,) = struct.unpack_from("<I", mutated, 12)
    meta_end = HEADER_SIZE + n_sections * SECTION_SIZE
    struct.pack_into("<I", mutated, meta_end,
                     crc32(bytes(mutated[:meta_end])))
    return bytes(mutated)


def test_section_caps():
    # 13 sections defined by .rsnap v1; SMET, BASE and 999 deltas.
    assert SNAPSHOT.max_sections == 64
    assert SERIES.max_sections == 1001


@pytest.mark.parametrize("name", KINDS)
class TestLadderPerKind:
    def test_section_count_at_the_cap_decodes(self, files, name):
        kind = files[name][0]
        data = encode_file(FINGERPRINT,
                           sections_for(kind, kind.max_sections), kind)
        header = decode_header(data, kind)
        assert len(header.sections) == kind.max_sections

    def test_section_count_over_the_cap(self, files, name):
        kind = files[name][0]
        data = encode_file(FINGERPRINT,
                           sections_for(kind, kind.max_sections + 1),
                           kind)
        with pytest.raises(StoreLayoutError,
                           match=f"section count "
                                 f"{kind.max_sections + 1}"):
            decode_header(data, kind)

    @pytest.mark.parametrize("where", ["past_end", "inside_header"])
    def test_section_offset_outside_the_payload(self, files, name,
                                                where):
        kind, data, load_bytes, _ = files[name]
        offset = len(data) + 16 if where == "past_end" else 0
        with pytest.raises(StoreLayoutError, match="outside payload"):
            load_bytes(with_section_offset(data, 1, offset))

    def test_other_kinds_magic_is_rejected(self, files, name):
        other = files["series" if name == "snapshot" else "snapshot"]
        load_bytes = files[name][2]
        with pytest.raises(StoreMagicError,
                           match=f"not a {files[name][0].suffix}"):
            load_bytes(other[1])

    def test_corrupt_file_on_disk_is_a_crc_error(self, files, name,
                                                 tmp_path):
        # The payload CRC runs over a view of the map; the loader's
        # unmap on failure must still surface the CRC error, not a
        # BufferError from an export left alive.
        _, data, _, load_path = files[name]
        flipped = bytearray(data)
        flipped[len(flipped) // 2] ^= 0x20
        path = tmp_path / "corrupt"
        path.write_bytes(bytes(flipped))
        with pytest.raises(StoreCRCError):
            load_path(path)

    def test_mmap_failure_reads_and_closes_the_file(self, files, name,
                                                    tmp_path,
                                                    monkeypatch):
        _, data, load_bytes, load_path = files[name]
        path = tmp_path / "file"
        path.write_bytes(data)

        def unmappable(*args, **kwargs):
            raise OSError("filesystem cannot map")

        monkeypatch.setattr(mmap, "mmap", unmappable)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            loaded = load_path(path)
            gc.collect()
        leaks = [warning for warning in caught
                 if issubclass(warning.category, ResourceWarning)]
        assert not leaks, [str(warning.message) for warning in leaks]
        fresh = load_bytes(data)
        if name == "snapshot":
            assert list(loaded.packages) == list(fresh.packages)
        else:
            assert loaded.fingerprints == fresh.fingerprints
