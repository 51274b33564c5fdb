"""The multi-release ecosystem evolution behind ``repro.series``.

Pins the contract the delta codec builds on: evolution is
deterministic in its config, every release shares one interned space,
survivors keep their relative order with additions appended at the
end (the canonical order the wire format assumes), libraries are never
retired, and popcon re-samples with continuity rather than fresh
draws.
"""

import os
import pathlib
import subprocess
import sys

import pytest

from repro.analysis.footprint import Footprint
from repro.synth import EvolutionConfig, evolve_corpus
from repro.synth.paper import PaperScaleConfig


@pytest.fixture(scope="module")
def config():
    return EvolutionConfig(
        n_releases=4, base=PaperScaleConfig.at_scale(0.005, seed=5),
        seed=5)


@pytest.fixture(scope="module")
def evolved(config):
    return evolve_corpus(config)


class TestDeterminism:
    def test_rebuild_is_bit_identical(self, config, evolved):
        again = evolve_corpus(config)
        assert again.n_releases == evolved.n_releases
        for first, second in zip(evolved.releases, again.releases):
            assert first.dataset.packages == second.dataset.packages
            assert first.added == second.added
            assert first.dropped == second.dropped
            assert first.drifted == second.drifted
            for name in first.dataset.packages:
                assert first.dataset[name] == second.dataset[name]
            assert {name: first.popcon.installations(name)
                    for name in first.popcon.packages()} == \
                   {name: second.popcon.installations(name)
                    for name in second.popcon.packages()}

    def test_release_zero_is_the_base_corpus(self, evolved):
        assert evolved.releases[0].dataset \
            is evolved.base_corpus.dataset
        assert evolved.releases[0].added == ()
        assert evolved.releases[0].dropped == ()


class TestEvolutionShape:
    def test_all_releases_share_one_space(self, evolved):
        space = evolved.releases[0].dataset.space
        for release in evolved.releases[1:]:
            assert release.dataset.space is space

    def test_canonical_order_survivors_then_added(self, evolved):
        for prev, cur in zip(evolved.releases, evolved.releases[1:]):
            survivors = [name for name in prev.dataset.packages
                         if name not in set(cur.dropped)]
            assert list(cur.dataset.packages) == \
                survivors + list(cur.added)

    def test_dropped_and_added_bookkeeping(self, evolved):
        for prev, cur in zip(evolved.releases, evolved.releases[1:]):
            before = set(prev.dataset.packages)
            after = set(cur.dataset.packages)
            assert set(cur.dropped) <= before
            assert not set(cur.dropped) & after
            assert not set(cur.added) & before
            assert set(cur.added) <= after
            assert cur.added  # add_fraction > 0 always adds >= 1

    def test_libraries_are_never_dropped(self, evolved):
        libraries = {package.name
                     for package in evolved.base_corpus.repository
                     if package.category == "library"}
        assert libraries  # the corpus has a skeleton library layer
        for release in evolved.releases[1:]:
            assert not libraries & set(release.dropped)
            assert libraries <= set(release.dataset.packages)

    def test_drift_touches_syscalls_only(self, evolved):
        # Drift mutates the syscall set and nothing else.  A single
        # mutation can be a set-level no-op (adding calls already
        # present, then removing one of them), so require an actual
        # change somewhere across the run, not per package.
        changed = 0
        for prev, cur in zip(evolved.releases, evolved.releases[1:]):
            assert cur.drifted  # drift_fraction picks >= 1 at tiny N
            for name in cur.drifted:
                before = prev.dataset[name]
                after = cur.dataset[name]
                if after.syscalls != before.syscalls:
                    changed += 1
                assert after.ioctls == before.ioctls
                assert after.libc_symbols == before.libc_symbols
                assert after is not Footprint.EMPTY
        assert changed >= 1


class TestPopconContinuity:
    def test_total_installations_constant(self, evolved):
        totals = {release.popcon.total_installations
                  for release in evolved.releases}
        assert len(totals) == 1

    def test_every_package_is_surveyed(self, evolved):
        for release in evolved.releases:
            for name in release.dataset.packages:
                assert release.popcon.installations(name) >= 1

    def test_survivor_counts_persist_or_rescale(self, evolved):
        # Continuity, not a fresh draw: a surviving package's count
        # stays within a few sigma of its previous value; most stay
        # exactly equal (churn touches only a fraction per release).
        for prev, cur in zip(evolved.releases, evolved.releases[1:]):
            common = [name for name in cur.dataset.packages
                      if name not in set(cur.added)]
            unchanged = sum(
                1 for name in common
                if cur.popcon.installations(name)
                == prev.popcon.installations(name))
            assert unchanged >= len(common) // 2


#: Prints one sha256 per release of a small train, each over that
#: release's own ``.rser`` image.
_TRAIN_HASHES = """
import hashlib
from repro.series.builder import series_to_bytes
from repro.synth import EvolutionConfig, evolve_corpus
from repro.synth.paper import PaperScaleConfig
evolved = evolve_corpus(EvolutionConfig(
    n_releases=3, base=PaperScaleConfig.at_scale(0.05)))
for dataset in evolved.datasets():
    print(hashlib.sha256(series_to_bytes([dataset])).hexdigest())
"""


class TestHashSeedIndependence:
    def test_train_bytes_do_not_depend_on_string_hashing(self):
        """Popcon churn walks the survey in ``packages()`` order, so
        that order (essential packages included) must not follow set
        iteration, which changes with ``PYTHONHASHSEED``."""
        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        hashes = []
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed,
                       PYTHONPATH=str(src))
            result = subprocess.run(
                [sys.executable, "-c", _TRAIN_HASHES], env=env,
                capture_output=True, text=True, timeout=300, check=True)
            hashes.append(result.stdout.split())
        assert len(hashes[0]) == 3
        assert hashes[0] == hashes[1]
