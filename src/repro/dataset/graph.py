"""SCC-condensed AND-OR dependency graph for incremental support tracking.

:func:`repro.metrics.completeness.close_over_dependencies` computes
the *greatest* fixed point of "supported and every dependency group
satisfiable" — a dependency cycle whose members are all satisfied stays
supported.  A naive additive worklist computes the *least* fixed
point, which wrongly drops such cycles.  Condensing the must-edge
graph into strongly connected components first makes the two coincide
for plain AND dependencies: on a DAG, a component is supported exactly
when every member is directly satisfied, no member depends on a
package that can never be supported, and every successor component is
supported.

Dependency semantics are AND-of-OR with virtual providers.  Each
``Depends:`` group resolves, per node, to the set of in-universe
*satisfier* nodes (the real alternative packages plus providers of
virtual alternatives):

* a group with an unknown, unprovided alternative never gates (the
  closure's legacy tolerance of dangling virtual references);
* a group satisfied by the node itself, or by an *assumed* package
  (outside the measurement universe), never gates;
* a group with satisfiers in the repository but none reachable inside
  the universe poisons the node — it can never be supported;
* exactly one in-universe satisfier degenerates to a **must-edge**
  (exactly the pre-refactor AND edge, so flat corpora condense
  bit-identically);
* two or more satisfiers form an **OR-group** tracked as a residual
  counter: the group is met once *some* satisfier's component is
  supported.

OR-groups reintroduce the least/greatest fixed point gap that SCC
condensation solved for must-edges: components that satisfy each
other's OR-groups in a cycle never fire under forward counter
propagation.  The tracker therefore precomputes *super-components*
(SCCs of the component-level must+OR digraph) and, whenever counters
inside a cyclic super-component move, runs a local greatest-fixed-point
rescue that supports any mutually-consistent residue at once.  Flat
corpora have no OR edges, so every super-component is a singleton and
the rescue machinery never engages.

The work is split into the immutable :class:`CondensedDependencyGraph`
(Tarjan included) — which the :class:`repro.dataset.Dataset` facade
caches per distinct universe — and the cheap mutable
:class:`SupportTracker` state that each curve run spawns from it.

The graph is read from the repository's integer
:class:`repro.packages.repository.DependencyTable` and kept in CSR
form: every per-node or per-component relation (must-edges, members,
component must-dependencies and dependents, OR-group satisfiers and
ownership) is one offsets list plus one flat targets list, so a build
allocates a fixed number of containers instead of one per node or
component.  Row ``i`` of a relation is ``targets[start[i]:start[i + 1]]``.
"""

from __future__ import annotations

from itertools import repeat
from typing import Dict, Iterable, List, Sequence, Set, Tuple

import numpy as np


def _offsets(rows: np.ndarray, n_rows: int) -> List[int]:
    """CSR offsets of a relation whose pairs have these row ids."""
    start = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n_rows), out=start[1:])
    return start.tolist()


def _condense(n: int, start: Sequence[int],
              targets: Sequence[int]) -> Tuple[List[int], int]:
    """Iterative Tarjan SCC over a CSR digraph on nodes ``0..n-1``.

    Roots are tried in node order and edges in target order; returns
    each node's component id (components numbered in completion order)
    and the number of components.
    """
    index = [-1] * n
    low = [0] * n
    on_stack = bytearray(n)
    stack: List[int] = []
    component = [0] * n
    # The DFS path: its nodes and each one's next unexplored edge.
    path: List[int] = []
    next_edge: List[int] = []
    counter = 0
    n_components = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = 1
        path.append(root)
        next_edge.append(start[root])
        while path:
            node = path[-1]
            edge = next_edge[-1]
            end = start[node + 1]
            advanced = False
            while edge < end:
                dep = targets[edge]
                edge += 1
                if index[dep] < 0:
                    next_edge[-1] = edge
                    index[dep] = low[dep] = counter
                    counter += 1
                    stack.append(dep)
                    on_stack[dep] = 1
                    path.append(dep)
                    next_edge.append(start[dep])
                    advanced = True
                    break
                if on_stack[dep] and index[dep] < low[node]:
                    low[node] = index[dep]
            if advanced:
                continue
            path.pop()
            next_edge.pop()
            if path:
                parent = path[-1]
                if low[node] < low[parent]:
                    low[parent] = low[node]
            if low[node] == index[node]:
                while True:
                    member = stack.pop()
                    on_stack[member] = 0
                    component[member] = n_components
                    if member == node:
                        break
                n_components += 1
    return component, n_components


def _resolve_groups(nodes: List[str], table, assumed: Iterable[str]):
    """Classify every dependency group of the universe ``nodes`` at once.

    A group gates unless a satisfier is its owner or assumed, and only
    when the owner is in the universe (a name outside the repository
    has no groups: never invalidated, as in the closure).  Its
    in-universe satisfiers then give a poison (none), a must-edge (one)
    or an OR-group (two or more).  Returns, over universe positions,
    the must-edges as CSR ``(start, targets)``, the poisoned nodes, and
    the OR-groups as ``(owners, start, satisfiers)``; edges and groups
    come in (owner position, group) order, as each node declared them.
    """
    ids = table.ids
    satisfiers = table.satisfiers
    n_groups = len(table.satisfier_start) - 1
    # Repository id -> universe position (-1 outside), and whether it
    # is assumed supported.
    position = np.full(len(ids), -1, dtype=np.int64)
    node_ids = np.fromiter(map(ids.get, nodes, repeat(-1)),
                           dtype=np.int64, count=len(nodes))
    in_repository = node_ids >= 0
    position[node_ids[in_repository]] = np.flatnonzero(in_repository)
    is_assumed = np.zeros(len(ids), dtype=bool)
    is_assumed[[ids[name] for name in assumed if name in ids]] = True

    group_owner = np.repeat(np.arange(len(ids), dtype=np.int64),
                            np.diff(table.group_start))
    entry_group = np.repeat(np.arange(n_groups, dtype=np.int64),
                            np.diff(table.satisfier_start))
    owner_position = position[group_owner]
    gating = owner_position >= 0
    gating[entry_group[(satisfiers == group_owner[entry_group])
                       | is_assumed[satisfiers]]] = False
    entry_position = position[satisfiers]
    resolving = (entry_position >= 0) & gating[entry_group]
    n_resolved = np.bincount(entry_group[resolving], minlength=n_groups)
    poisoned = owner_position[gating & (n_resolved == 0)]

    must = resolving & (n_resolved == 1)[entry_group]
    sources = owner_position[entry_group[must]]
    adjacency_start = _offsets(sources, len(nodes))
    adjacency = entry_position[must][np.argsort(sources, kind="stable")]

    or_gids = np.flatnonzero(gating & (n_resolved >= 2))
    or_gids = or_gids[np.argsort(owner_position[or_gids], kind="stable")]
    or_start = np.zeros(len(or_gids) + 1, dtype=np.int64)
    np.cumsum(n_resolved[or_gids], out=or_start[1:])
    slot = np.zeros(n_groups, dtype=np.int64)
    slot[or_gids] = np.arange(len(or_gids))
    in_or = resolving & (n_resolved >= 2)[entry_group]
    or_satisfiers = entry_position[in_or][
        np.argsort(slot[entry_group[in_or]], kind="stable")]
    return (adjacency_start, adjacency, poisoned,
            (owner_position[or_gids].tolist(), or_start.tolist(),
             or_satisfiers.tolist()))


class CondensedDependencyGraph:
    """Immutable condensation of the dependency graph over a universe.

    ``universe`` is the measured package set (iteration order is
    preserved — it determines member order inside components, which
    downstream float summations depend on).  ``assumed`` names
    packages outside the measurement universe (e.g. footprint-less
    library packages) whose presence in a dependency list never
    invalidates a dependent.  ``component_of`` maps a universe name to
    its component id; every other relation is CSR (module docstring).
    """

    __slots__ = ("component_of", "member_start", "members",
                 "initial_unsatisfied", "poisoned",
                 "dependent_start", "dependents", "initial_unmet",
                 "must_start", "must_deps",
                 "or_group_owner", "or_satisfier_start", "or_satisfiers",
                 "owned_start", "groups_owned",
                 "satisfied_by_start", "groups_of_satisfier",
                 "initial_unmet_groups",
                 "cyclic_super_of", "super_members")

    def __init__(self, universe: Iterable[str], repository,
                 assumed: Iterable[str]) -> None:
        nodes = list(universe)
        (adjacency_start, adjacency, poisoned_nodes,
         or_groups) = _resolve_groups(nodes, repository.dependency_table(),
                                      assumed)
        component, n_components = _condense(len(nodes), adjacency_start,
                                            adjacency.tolist())
        self.component_of: Dict[str, int] = dict(zip(nodes, component))
        component_arr = np.array(component, dtype=np.int64)
        self.member_start = _offsets(component_arr, n_components)
        self.members: List[str] = np.array(nodes, dtype=object)[
            np.argsort(component_arr, kind="stable")].tolist()
        self.initial_unsatisfied: List[int] = np.diff(
            self.member_start).tolist()
        self.poisoned = bytearray(n_components)
        for node in poisoned_nodes.tolist():
            self.poisoned[component[node]] = 1

        # Component-level must-edges, deduplicated and sorted both ways.
        sources = np.repeat(component_arr, np.diff(adjacency_start))
        dests = component_arr[adjacency]
        keep = sources != dests
        pairs = np.sort(sources[keep] * n_components + dests[keep])
        distinct = np.ones(len(pairs), dtype=bool)
        distinct[1:] = pairs[1:] != pairs[:-1]
        pair_source, pair_dest = np.divmod(pairs[distinct],
                                           max(n_components, 1))
        self.must_start = _offsets(pair_source, n_components)
        self.must_deps: List[int] = pair_dest.tolist()
        self.initial_unmet: List[int] = np.diff(self.must_start).tolist()
        flip_dest, flip_source = np.divmod(
            np.sort(pair_dest * n_components + pair_source),
            max(n_components, 1))
        self.dependent_start = _offsets(flip_dest, n_components)
        self.dependents: List[int] = flip_source.tolist()

        self._condense_or_groups(component, n_components, *or_groups)
        self._find_cyclic_supers(n_components)

    def _condense_or_groups(self, component: List[int], n_components: int,
                            owner_nodes: List[int], node_start: List[int],
                            satisfier_nodes: List[int]) -> None:
        """OR-groups between components, with CSR ownership and
        satisfier-to-group relations."""
        self.or_group_owner: List[int] = []
        self.or_satisfier_start = [0]
        self.or_satisfiers: List[int] = []
        for index, node in enumerate(owner_nodes):
            owner = component[node]
            comps: List[int] = []
            for satisfier in satisfier_nodes[node_start[index]:
                                             node_start[index + 1]]:
                comp = component[satisfier]
                if comp == owner:
                    # A satisfier inside the owner's own SCC: under the
                    # greatest fixed point the group is satisfied
                    # whenever the component is, so it never
                    # independently blocks — drop the constraint.
                    break
                if comp not in comps:
                    comps.append(comp)
            else:
                self.or_group_owner.append(owner)
                self.or_satisfiers.extend(comps)
                self.or_satisfier_start.append(len(self.or_satisfiers))
        owners = np.array(self.or_group_owner, dtype=np.int64)
        self.owned_start = _offsets(owners, n_components)
        self.groups_owned: List[int] = np.argsort(
            owners, kind="stable").tolist()
        self.initial_unmet_groups: List[int] = np.diff(
            self.owned_start).tolist()
        comps = np.array(self.or_satisfiers, dtype=np.int64)
        gids = np.repeat(np.arange(len(owners), dtype=np.int64),
                         np.diff(self.or_satisfier_start))
        self.satisfied_by_start = _offsets(comps, n_components)
        self.groups_of_satisfier: List[int] = gids[
            np.argsort(comps, kind="stable")].tolist()

    def _find_cyclic_supers(self, n_components: int) -> None:
        """Super-components (SCCs over must+OR edges) with more than
        one member.

        Only cyclic super-components matter: they are where forward
        counter propagation (a least fixed point) can deadlock on
        OR-cycles and the tracker must fall back to a local greatest
        fixed point.  Flat corpora produce none (must-edges alone form
        a DAG after condensation).
        """
        self.cyclic_super_of: Dict[int, int] = {}
        self.super_members: Dict[int, List[int]] = {}
        if not self.or_group_owner:
            return
        start = [0]
        edges: List[int] = []
        for comp in range(n_components):
            edges.extend(self.must_deps[self.must_start[comp]:
                                        self.must_start[comp + 1]])
            for gid in self.groups_owned[self.owned_start[comp]:
                                         self.owned_start[comp + 1]]:
                edges.extend(self.or_satisfiers[
                    self.or_satisfier_start[gid]:
                    self.or_satisfier_start[gid + 1]])
            start.append(len(edges))
        super_of, n_supers = _condense(n_components, start, edges)
        super_arr = np.array(super_of, dtype=np.int64)
        sizes = np.bincount(super_arr, minlength=n_supers)
        for comp in np.flatnonzero(sizes[super_arr] > 1).tolist():
            super_id = super_of[comp]
            self.super_members.setdefault(super_id, []).append(comp)
            self.cyclic_super_of[comp] = super_id

    def tracker(self) -> "SupportTracker":
        """Fresh mutable support state over this condensation."""
        return SupportTracker(self)


class SupportTracker:
    """Incremental dependency closure over a condensation DAG.

    Packages flip to supported monotonically as APIs are added, so one
    run over a ranked API list costs O(edges) total instead of
    re-running the dependency fixed point at every rank.  OR-groups
    are residual counters; OR-cycles are resolved by a local greatest
    fixed point over their super-component (see module docstring).
    """

    __slots__ = ("_graph", "_unsatisfied", "_unmet_deps", "_supported",
                 "_unmet_groups", "_group_satisfied", "_dirty")

    def __init__(self, graph: CondensedDependencyGraph) -> None:
        self._graph = graph
        self._unsatisfied = list(graph.initial_unsatisfied)
        self._unmet_deps = list(graph.initial_unmet)
        self._supported = bytearray(len(graph.initial_unsatisfied))
        self._unmet_groups = list(graph.initial_unmet_groups)
        self._group_satisfied = bytearray(len(graph.or_group_owner))
        self._dirty: Set[int] = set()

    def mark_satisfied(self, package: str) -> List[str]:
        """One package's own footprint is now covered.

        Returns every package that *became supported* as a result —
        the package's component if it just completed, plus any
        dependent components cascading to supported, plus any OR-cycle
        residue the rescue pass resolves.
        """
        graph = self._graph
        comp = graph.component_of[package]
        unsatisfied = self._unsatisfied
        unsatisfied[comp] -= 1
        if graph.cyclic_super_of:
            self._note_dirty((comp,))
        supported = self._supported
        unmet_deps = self._unmet_deps
        unmet_groups = self._unmet_groups
        poisoned = graph.poisoned
        newly: List[str] = []
        worklist = [comp]
        while True:
            while worklist:
                candidate = worklist.pop()
                if not (supported[candidate]
                        or unsatisfied[candidate] > 0
                        or unmet_deps[candidate] > 0
                        or unmet_groups[candidate] > 0
                        or poisoned[candidate]):
                    self._support(candidate, newly, worklist)
            if not self._dirty:
                return newly
            rescued = self._rescue()
            if not rescued:
                return newly
            for candidate in rescued:
                if not supported[candidate]:
                    self._support(candidate, newly, worklist)

    def _support(self, candidate: int, newly: List[str],
                 worklist: List[int]) -> None:
        """Flip one component to supported and propagate counters."""
        graph = self._graph
        self._supported[candidate] = 1
        start = graph.member_start
        newly.extend(graph.members[start[candidate]:start[candidate + 1]])
        start = graph.dependent_start
        first, last = start[candidate], start[candidate + 1]
        if first != last:
            dependents = graph.dependents[first:last]
            unmet_deps = self._unmet_deps
            for dependent in dependents:
                unmet_deps[dependent] -= 1
            worklist.extend(dependents)
            if graph.cyclic_super_of:
                self._note_dirty(dependents)
        start = graph.satisfied_by_start
        first, last = start[candidate], start[candidate + 1]
        if first != last:
            self._satisfy_groups(graph.groups_of_satisfier[first:last],
                                 worklist)

    def _satisfy_groups(self, gids: List[int],
                        worklist: List[int]) -> None:
        """Count newly met OR-groups down on their owners."""
        owners = self._graph.or_group_owner
        for gid in gids:
            if self._group_satisfied[gid]:
                continue
            self._group_satisfied[gid] = 1
            owner = owners[gid]
            self._unmet_groups[owner] -= 1
            self._note_dirty((owner,))
            worklist.append(owner)

    def _note_dirty(self, comps: Iterable[int]) -> None:
        cyclic_super_of = self._graph.cyclic_super_of
        for comp in comps:
            super_id = cyclic_super_of.get(comp)
            if super_id is not None:
                self._dirty.add(super_id)

    def _rescue(self) -> List[int]:
        """Local greatest fixed point over dirty cyclic supers.

        A set X of components inside one super-component may be
        supported together exactly when every member has all its own
        footprints satisfied and each of its constraints (must-edge or
        OR-group) is met by a component that is already supported or
        also in X.  Forward counter propagation cannot discover such
        mutually-dependent sets; iterated removal from the candidate
        set computes the maximal one.
        """
        graph = self._graph
        supported = self._supported
        rescued: List[int] = []
        for super_id in sorted(self._dirty):
            candidates = {
                comp for comp in graph.super_members[super_id]
                if not supported[comp]
                and not graph.poisoned[comp]
                and self._unsatisfied[comp] == 0}
            changed = True
            while changed and candidates:
                changed = False
                for comp in sorted(candidates):
                    consistent = all(
                        supported[dep] or dep in candidates
                        for dep in graph.must_deps[
                            graph.must_start[comp]:
                            graph.must_start[comp + 1]])
                    if consistent:
                        for gid in graph.groups_owned[
                                graph.owned_start[comp]:
                                graph.owned_start[comp + 1]]:
                            if self._group_satisfied[gid]:
                                continue
                            if not any(supported[satisfier]
                                       or satisfier in candidates
                                       for satisfier in
                                       graph.or_satisfiers[
                                           graph.or_satisfier_start[gid]:
                                           graph.or_satisfier_start[
                                               gid + 1]]):
                                consistent = False
                                break
                    if not consistent:
                        candidates.discard(comp)
                        changed = True
            rescued.extend(sorted(candidates))
        self._dirty.clear()
        return rescued
