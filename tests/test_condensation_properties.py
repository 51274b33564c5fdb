"""Properties of the integer CSR condensation and its consumers.

``CondensedDependencyGraph`` is built from the repository's integer
dependency table; the completeness curve feeds its tracker in numpy
completion-rank order; ``Repository.and_only_view`` reuses the source's
parsed groups.  Each is checked against an independent oracle:

* on flat ecosystems the tracker's ``mark_satisfied`` outputs, order
  included, equal the frozen ``reference._SupportTracker``;
* on AND-OR ecosystems the closure it computes equals the naive
  ``reference.andor_close_over_dependencies``;
* curves equal, to the last bit, the per-incidence countdown that fed
  the tracker before (kept here as the oracle);
* the integer table's rows are each group's ``satisfiers()``;
* ``and_only_view`` answers every lookup like the construction that
  re-parsed ``depends`` (kept here as the oracle);
* ``Repository.add`` invalidates the integer table.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from repro.analysis.footprint import Footprint
from repro.dataset import CondensedDependencyGraph, Dataset, reference
from repro.metrics import completeness_curve, weighted_completeness
from repro.packages.package import Package, dependency_groups
from repro.packages.popcon import PopularityContest
from repro.packages.repository import Repository
from tests.test_dep_semantics_properties import (
    _GHOSTS,
    _UNMEASURED,
    _VIRTUALS,
    andor_ecosystems,
    flat_ecosystems,
)

_SETTINGS = settings(max_examples=60, deadline=None)


def _universes(footprints):
    """(universe, assumed) pairs the metrics build graphs over: the
    non-empty universe with the empty packages assumed, the whole
    corpus with them assumed, and the whole corpus assuming nothing."""
    empty = frozenset(pkg for pkg, fp in footprints.items()
                      if not fp.syscalls)
    nonempty = [pkg for pkg in footprints if pkg not in empty]
    everything = list(footprints)
    return [(nonempty, empty), (everything, empty),
            (everything, frozenset())]


def _per_incidence_curve(dataset, ignore_empty=True):
    """The curve as it was computed before completion ranks: count
    each package's missing APIs down per API user, and feed the
    tracker when a count reaches zero."""
    dimension = "syscall"
    packages = dataset.packages
    universe_ids = dataset.universe_ids(dimension, ignore_empty)
    importance = dataset.importance_table(dimension)
    usage = dataset.usage_table(dimension, ignore_empty=ignore_empty)
    order = sorted(importance, key=lambda api: (
        -importance[api], -usage.get(api, 0.0), api))
    missing = [mask.bit_count() for mask in dataset.masks(dimension)]
    users = dataset.users_index(dimension)
    total = sum(dataset.weights[i] for i in universe_ids)
    if total == 0:
        return []
    tracker = dataset.condensed_graph(dimension, ignore_empty,
                                      assume_trivial=True).tracker()

    def note(package):
        return sum(dataset.weight_of(p)
                   for p in tracker.mark_satisfied(package))

    supported = 0.0
    for i in universe_ids:
        if missing[i] == 0:
            supported += note(packages[i])
    curve = []
    for rank, api in enumerate(order, start=1):
        for pkg_id in users[dataset.space.id_of(dimension, api)]:
            missing[pkg_id] -= 1
            if missing[pkg_id] == 0:
                supported += note(packages[pkg_id])
        curve.append((rank, api, (supported / total).hex()))
    return curve


def _hex_curve(curve):
    return [(p.n_apis, p.api, p.completeness.hex()) for p in curve]


def _old_and_only_view(repository):
    """The AND-only view as built by re-parsing every ``depends``."""
    collapsed = []
    for package in repository:
        groups = dependency_groups(package.depends)
        collapsed.append(Package(
            name=package.name,
            category=package.category,
            artifacts=package.artifacts,
            depends=[group[0] for group in groups],
            description=package.description))
    return Repository(collapsed)


class TestTrackerAgainstFrozenTracker:
    @_SETTINGS
    @given(eco=flat_ecosystems(), data=st.data())
    def test_mark_satisfied_outputs_in_order(self, eco, data):
        footprints, _, repository, _ = eco
        for universe, assumed in _universes(footprints):
            order = data.draw(st.permutations(universe))
            tracker = CondensedDependencyGraph(
                universe, repository, assumed).tracker()
            frozen = reference._SupportTracker(universe, repository,
                                               assumed)
            for package in order:
                assert tracker.mark_satisfied(package) == \
                    frozen.mark_satisfied(package)


class TestClosureAgainstAndOrOracle:
    @_SETTINGS
    @given(eco=andor_ecosystems(), data=st.data())
    def test_tracker_closure_equals_oracle(self, eco, data):
        footprints, _, repository, _ = eco
        for universe, assumed in _universes(footprints):
            direct = data.draw(st.lists(st.sampled_from(universe),
                                        unique=True)) if universe else []
            tracker = CondensedDependencyGraph(
                universe, repository, assumed).tracker()
            closed = set()
            for package in direct:
                closed.update(tracker.mark_satisfied(package))
            assert closed == reference.andor_close_over_dependencies(
                set(direct), repository, assume_supported=set(assumed))


class TestCurveFeedOrder:
    @_SETTINGS
    @given(eco=andor_ecosystems(), ignore_empty=st.booleans())
    def test_andor_curve_equals_per_incidence_feed(self, eco,
                                                   ignore_empty):
        footprints, popcon, repository, _ = eco
        dataset = Dataset(footprints, popcon, repository)
        assert _hex_curve(completeness_curve(
            dataset, ignore_empty=ignore_empty)) == \
            _per_incidence_curve(dataset, ignore_empty)

    @_SETTINGS
    @given(eco=flat_ecosystems(), ignore_empty=st.booleans())
    def test_flat_curve_equals_frozen_curve(self, eco, ignore_empty):
        footprints, popcon, repository, _ = eco
        dataset = Dataset(footprints, popcon, repository)
        assert _hex_curve(completeness_curve(
            dataset, ignore_empty=ignore_empty)) == \
            _hex_curve(reference.completeness_curve(
                footprints, popcon, repository,
                ignore_empty=ignore_empty))
        assert _hex_curve(completeness_curve(
            dataset, ignore_empty=ignore_empty)) == \
            _per_incidence_curve(dataset, ignore_empty)


class TestDependencyTable:
    @_SETTINGS
    @given(eco=andor_ecosystems())
    def test_rows_are_the_satisfiers_of_each_group(self, eco):
        _, _, repository, _ = eco
        ids = {name: i for i, name in enumerate(repository.names())}
        expected_groups, expected = [0], []
        for name in repository.names():
            for group in repository.dependency_groups_of(name):
                row = []
                for alternative in group:
                    satisfiers = repository.satisfiers(alternative)
                    if not satisfiers:
                        break           # an open group: left out
                    for satisfier in satisfiers:
                        if ids[satisfier] not in row:
                            row.append(ids[satisfier])
                else:
                    expected.append(row)
            expected_groups.append(len(expected))
        table = repository.dependency_table()
        assert table.ids == ids
        assert table.group_start.tolist() == expected_groups
        starts = table.satisfier_start.tolist()
        satisfiers = table.satisfiers.tolist()
        assert [satisfiers[a:b] for a, b in zip(starts, starts[1:])] \
            == expected


class TestAndOnlyView:
    @_SETTINGS
    @given(eco=andor_ecosystems())
    def test_view_answers_like_reparsed_view(self, eco):
        footprints, _, repository, _ = eco
        view = repository.and_only_view()
        oracle = _old_and_only_view(repository)
        assert view.names() == oracle.names()
        assert view.virtual_names() == oracle.virtual_names()
        for name in oracle.names():
            assert view.get(name).depends == oracle.get(name).depends
            assert view.get(name).provides == oracle.get(name).provides
        names = (list(footprints) + _UNMEASURED + _VIRTUALS + _GHOSTS)
        for name in names:
            assert view.dependency_groups_of(name) == \
                oracle.dependency_groups_of(name)
            assert view.satisfiers(name) == oracle.satisfiers(name)
            assert view.providers_of(name) == oracle.providers_of(name)
            assert view.is_virtual(name) == oracle.is_virtual(name)
        table, expected = view.dependency_table(), oracle.dependency_table()
        assert table.ids == expected.ids
        for field in ("group_start", "satisfier_start", "satisfiers"):
            assert getattr(table, field).tolist() == \
                getattr(expected, field).tolist()


class TestAddInvalidatesTable:
    def test_added_package_gates_a_dangling_dependency(self):
        footprints = {
            "app": Footprint.build(syscalls=["read"]),
            "helper": Footprint.build(syscalls=["read", "futex"]),
        }
        popcon = PopularityContest(1000, {"app": 700, "helper": 300})
        repository = Repository([Package("app", depends=["helper"])])
        universe = list(footprints)
        before = CondensedDependencyGraph(universe, repository,
                                          frozenset()).tracker()
        # "helper" is no repository package yet: the dependency
        # dangles and never gates.
        assert before.mark_satisfied("app") == ["app"]
        expected_before = reference.andor_weighted_completeness(
            ["read"], footprints, popcon, repository)
        assert weighted_completeness(
            ["read"], Dataset(footprints, popcon, repository)) == \
            expected_before

        repository.add(Package("helper"))
        after = CondensedDependencyGraph(universe, repository,
                                         frozenset()).tracker()
        frozen = reference._SupportTracker(universe, repository,
                                           frozenset())
        assert after.mark_satisfied("app") == \
            frozen.mark_satisfied("app") == []
        assert after.mark_satisfied("helper") == \
            frozen.mark_satisfied("helper") == ["helper", "app"]
        expected_after = reference.andor_weighted_completeness(
            ["read"], footprints, popcon, repository)
        assert expected_after != expected_before
        assert weighted_completeness(
            ["read"], Dataset(footprints, popcon, repository)) == \
            expected_after
