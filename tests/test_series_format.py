"""``.rser`` wire-format round-trips and corruption discipline.

Mirrors ``test_store_format.py`` for the series format: encoding is
byte-stable, a materialized chain re-encodes to the same bytes, and
every kind of damage — truncation at any prefix, bit flips, missing or
swapped sections, semantically impossible deltas — raises a typed
:class:`repro.store.StoreError` before any partial release escapes.
"""

import pytest

from repro.series import (SERIES_MAGIC, DatasetSeries, ReleaseDelta,
                          build_series, decode_delta, encode_delta,
                          load_series, load_series_bytes, series_info,
                          series_to_bytes, sniff_series, write_series)
from repro.series.format import SERIES, delta_tag
from repro.store import (StoreCRCError, StoreError, StoreLayoutError,
                         StoreMagicError, StoreTruncatedError,
                         StoreVersionError)
from repro.store.format import encode_file
from repro.synth import EvolutionConfig, evolve_corpus
from repro.synth.paper import PaperScaleConfig


@pytest.fixture(scope="module")
def datasets():
    ecosystem = evolve_corpus(EvolutionConfig(
        n_releases=4, base=PaperScaleConfig.at_scale(0.005, seed=7),
        seed=7))
    return ecosystem.datasets()


@pytest.fixture(scope="module")
def series_bytes(datasets):
    return series_to_bytes(datasets)


@pytest.fixture(scope="module")
def series(series_bytes):
    return load_series_bytes(series_bytes)


def reassemble(series, mutate):
    """Rebuild a valid-CRC file from ``series`` with mutated sections.

    ``mutate`` edits the ordered ``[(tag, payload), ...]`` list in
    place; checksums are recomputed, so the result exercises *semantic*
    validation rather than the CRC ladder.
    """
    order = [b"SMET", b"BASE"] + [delta_tag(k)
                                  for k in range(1, series.n_releases)]
    sections = []
    for tag in order:
        offset, length = series._header.sections[tag]
        sections.append((tag, bytes(series._data[offset:offset + length])))
    mutate(sections)
    return encode_file(series.series_fingerprint, sections, SERIES)


class TestRoundTrip:
    def test_encoding_is_byte_stable(self, datasets, series_bytes):
        assert series_to_bytes(datasets) == series_bytes

    def test_materialized_chain_reencodes_identically(self, series,
                                                      series_bytes):
        # delta -> full -> delta: decode every release, re-encode the
        # train, and land on the same bytes.
        assert series_to_bytes(series.releases()) == series_bytes

    def test_sniffing(self, series_bytes):
        assert sniff_series(series_bytes[:8])
        assert not sniff_series(b"\x89RSNP\r\n\x00\x00")
        assert not sniff_series(b"")

    def test_header_metadata(self, series, series_bytes, datasets):
        assert series.n_releases == len(datasets)
        assert len(series.fingerprints) == len(datasets)
        assert series.n_packages == tuple(len(d.packages)
                                          for d in datasets)
        stats = series.stats()
        assert stats["format"] == "rser"
        assert stats["file_size"] == len(series_bytes)
        assert sorted(stats["delta_bytes_per_release"]) == [1, 2, 3]
        assert stats["delta_bytes"] == \
            sum(stats["delta_bytes_per_release"].values())

    def test_at_matches_eager_build(self, series, datasets):
        for k, eager in enumerate(datasets):
            lazy = series.at(k)
            assert list(lazy.packages) == list(eager.packages)
            for name in eager.packages:
                assert lazy[name] == eager[name]

    def test_write_and_load_from_disk(self, datasets, series_bytes,
                                      tmp_path):
        path = tmp_path / "train.rser"
        written = write_series(path, datasets)
        assert written == len(series_bytes)
        assert path.read_bytes() == series_bytes
        loaded = load_series(path)
        assert loaded.series_fingerprint == \
            load_series_bytes(series_bytes).series_fingerprint
        info = series_info(path)
        assert info["n_releases"] == len(datasets)
        assert set(info["sections"]) == \
            {"SMET", "BASE", "D001", "D002", "D003"}

    def test_unknown_release_is_a_value_error(self, series):
        with pytest.raises(ValueError, match="unknown release"):
            series.at(series.n_releases)
        with pytest.raises(ValueError, match="unknown release"):
            series.at(-1)
        with pytest.raises(ValueError, match="unknown release"):
            series.at("head")
        with pytest.raises(ValueError, match="unknown release"):
            series.at(True)


class TestCorruption:
    def test_truncation_at_any_prefix_is_typed(self, series_bytes):
        step = max(1, len(series_bytes) // 97)
        for cut in range(0, len(series_bytes), step):
            with pytest.raises(StoreError):
                load_series_bytes(series_bytes[:cut])
        with pytest.raises(StoreError):
            load_series_bytes(series_bytes[:-1])

    def test_bad_magic(self, series_bytes):
        with pytest.raises(StoreMagicError):
            load_series_bytes(b"NOTSERIE" + series_bytes[8:])

    def test_future_version(self, series_bytes):
        mutated = bytearray(series_bytes)
        mutated[8] = 0xFE  # version u32 starts right after the magic
        with pytest.raises(StoreVersionError):
            load_series_bytes(bytes(mutated))

    def test_bit_flip_in_delta_payload(self, series, series_bytes):
        offset, length = series._header.sections[delta_tag(1)]
        mutated = bytearray(series_bytes)
        mutated[offset + length // 2] ^= 0x10
        with pytest.raises(StoreCRCError):
            load_series_bytes(bytes(mutated))

    def test_bit_flip_in_section_table(self, series_bytes):
        from repro.store.format import HEADER_SIZE
        mutated = bytearray(series_bytes)
        mutated[HEADER_SIZE + 2] ^= 0x01
        with pytest.raises(StoreCRCError):
            load_series_bytes(bytes(mutated))

    def test_empty_file_on_disk(self, tmp_path):
        path = tmp_path / "empty.rser"
        path.write_bytes(b"")
        with pytest.raises(StoreTruncatedError):
            load_series(path)

    def test_missing_base_section(self, series):
        data = reassemble(series, lambda s: s.pop(1))
        with pytest.raises(StoreLayoutError, match="BASE"):
            load_series_bytes(data)

    def test_missing_delta_section(self, series):
        data = reassemble(series, lambda s: s.pop())  # drop D003
        with pytest.raises(StoreLayoutError,
                           match="missing delta section"):
            load_series_bytes(data)

    def test_unexpected_section(self, series):
        data = reassemble(series,
                          lambda s: s.append((b"D999", b"junk")))
        with pytest.raises(StoreLayoutError, match="unexpected"):
            load_series_bytes(data)

    def test_duplicate_section(self, series):
        data = reassemble(series, lambda s: s.append(s[-1]))
        with pytest.raises(StoreLayoutError, match="duplicate"):
            load_series_bytes(data)

    def test_swapped_deltas_cannot_materialize(self, series):
        # D001 <-> D002 with checksums recomputed: the file is
        # bit-healthy, but the chain's semantic validation refuses to
        # publish any release built from the wrong delta.
        def swap(sections):
            sections[2], sections[3] = ((sections[2][0],
                                         sections[3][1]),
                                        (sections[3][0],
                                         sections[2][1]))

        swapped = load_series_bytes(reassemble(series, swap))
        with pytest.raises(StoreLayoutError):
            for k in range(swapped.n_releases):
                swapped.at(k)

    def test_semantically_impossible_delta(self, series):
        # Structurally valid delta that removes a package the previous
        # release never had: rejected before any state is committed.
        base = series.at(0)
        bogus = encode_delta(
            ReleaseDelta(
                removed=("no-such-package",), changed=(), added=(),
                has_popcon=base.popcon is not None,
                popcon_total=(base.popcon.total_installations
                              if base.popcon is not None else 0),
                has_deps=base.repository is not None),
            base.space)

        def replace(sections):
            sections[2] = (sections[2][0], bogus)

        broken = load_series_bytes(reassemble(series, replace))
        with pytest.raises(StoreLayoutError,
                           match="removes unknown package"):
            broken.at(1)
        # ...and the failure is sticky-free: release 0 still loads.
        assert list(broken.at(0).packages) == list(base.packages)

    def test_truncated_delta_codec(self, series):
        offset, length = series._header.sections[delta_tag(1)]
        payload = bytes(series._data[offset:offset + length])
        space = series.at(0).space
        with pytest.raises(StoreError):
            decode_delta(payload[:-1], "D001", space)
        with pytest.raises(StoreError):
            decode_delta(payload[:3], "D001", space)

    def test_trailing_bytes_in_delta_codec(self, series):
        offset, length = series._header.sections[delta_tag(1)]
        payload = bytes(series._data[offset:offset + length])
        space = series.at(0).space
        with pytest.raises(StoreLayoutError, match="trailing"):
            decode_delta(payload + b"\x00", "D001", space)


class TestBuilderValidation:
    def test_empty_series_is_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            series_to_bytes([])

    def test_mixed_spaces_are_reinterned(self, datasets):
        # Datasets that do NOT share a space (independent analyses)
        # still build: the builder re-interns into the union space.
        from repro.dataset.core import Dataset
        first = Dataset({name: datasets[0][name]
                         for name in datasets[0].packages},
                        popcon=datasets[0].popcon,
                        repository=datasets[0].repository)
        second = Dataset({name: datasets[1][name]
                          for name in datasets[1].packages},
                         popcon=datasets[1].popcon,
                         repository=datasets[1].repository)
        assert first.space != second.space
        rebuilt = build_series([first, second])
        assert rebuilt.n_releases == 2
        for name in second.packages:
            assert rebuilt.at(1)[name] == datasets[1][name]
