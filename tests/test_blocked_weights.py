"""The per-API blocked-weight column behind ``missing_apis_report``.

``Dataset.blocked_weights`` caches, per dimension, the summed install
probability of every used API's users; a suggested-APIs query filters
out the supported ones and sorts.  The column reads popcon, so a
``rebound`` onto other popcon must start it afresh, and concurrent
first calls must all see the same column.
"""

import sys
import threading

import pytest

from repro.dataset import Dataset, reference
from repro.metrics import missing_apis_report
from repro.packages.popcon import PopularityContest
from repro.synth.paper import PaperScaleConfig, build_paper_corpus

#: Large enough to compare every ranked API, not just a head.
_ALL = 100_000


@pytest.fixture(scope="module")
def corpus():
    return build_paper_corpus(PaperScaleConfig.tiny())


def _reversed_popcon(corpus) -> PopularityContest:
    """The same packages with their install counts in reverse order."""
    names = list(corpus.dataset.packages)
    counts = [corpus.popcon.installations(name) for name in names]
    return PopularityContest(corpus.popcon.total_installations,
                             dict(zip(names, reversed(counts))))


def _supported_sets(dataset, dimension):
    names = dataset.space.universe_names(dimension)
    return [[], names[::2], names[1::3], names[: len(names) // 2]]


def _hex(report):
    return [(api, weight.hex()) for api, weight in report]


class TestAgainstReference:
    @pytest.mark.parametrize("dimension", ["syscall", "libc", "ioctl"])
    def test_matches_reference_bit_for_bit(self, corpus, dimension):
        dataset = corpus.dataset
        for supported in _supported_sets(dataset, dimension):
            served = missing_apis_report(supported, dataset,
                                         dimension=dimension, limit=_ALL)
            expected = reference.missing_apis_report(
                supported, dict(dataset), corpus.popcon,
                dimension=dimension, limit=_ALL)
            assert _hex(served) == _hex(expected)

    @pytest.mark.parametrize("dimension", ["syscall", "libc"])
    def test_rebound_popcon_gets_its_own_column(self, corpus, dimension):
        dataset = Dataset(dict(corpus.dataset), corpus.popcon,
                          corpus.repository)
        supported = _supported_sets(dataset, dimension)[1]
        before = missing_apis_report(supported, dataset,
                                     dimension=dimension, limit=_ALL)
        popcon = _reversed_popcon(corpus)
        clone = dataset.rebound(popcon, corpus.repository)
        after = missing_apis_report(supported, clone,
                                    dimension=dimension, limit=_ALL)
        expected = reference.missing_apis_report(
            supported, dict(dataset), popcon, dimension=dimension,
            limit=_ALL)
        assert _hex(after) == _hex(expected)
        assert _hex(after) != _hex(before)
        # The source keeps its own column.
        assert _hex(missing_apis_report(
            supported, dataset, dimension=dimension,
            limit=_ALL)) == _hex(before)

    def test_ignore_empty_cannot_change_the_answer(self, corpus):
        dataset = corpus.dataset
        supported = _supported_sets(dataset, "syscall")[2]
        assert missing_apis_report(supported, dataset,
                                   ignore_empty=False, limit=_ALL) == \
            missing_apis_report(supported, dataset, limit=_ALL)


class TestConcurrentFirstCalls:
    def test_threads_share_one_correct_column(self, corpus):
        footprints = dict(corpus.dataset)
        calls = [(dimension, supported)
                 for dimension in ("syscall", "libc")
                 for supported in _supported_sets(corpus.dataset,
                                                  dimension)]
        expected = {
            index: _hex(reference.missing_apis_report(
                supported, footprints, corpus.popcon,
                dimension=dimension, limit=_ALL))
            for index, (dimension, supported) in enumerate(calls)}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(30):
                dataset = Dataset(footprints, corpus.popcon,
                                  corpus.repository)
                results = []
                threads = [threading.Thread(
                    target=lambda index=index, dim=dim, sup=sup:
                    results.append((index, _hex(missing_apis_report(
                        sup, dataset, dimension=dim, limit=_ALL)))))
                    for index, (dim, sup) in enumerate(calls)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                assert not any(thread.is_alive() for thread in threads)
                assert len(results) == len(calls)
                for index, report in results:
                    assert report == expected[index]
        finally:
            sys.setswitchinterval(interval)
