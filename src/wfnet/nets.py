"""Petri nets with interface node sets: the frozen `Net` and a working graph.

A net here is a bipartite directed graph of places and transitions together
with nonempty input and output node sets.  When the interface is homogeneous
(all places or all transitions) and every node lies on a path from some input
to some output, the net is a workflow net; `validate` checks exactly that and
reports every violation it finds instead of stopping at the first.

`Net` is the immutable value that every public function takes and returns.
`_Graph` is the one mutable representation, private to the reducer and the
generator: built once from its input, edited in place one contraction or
substitution at a time by `_replace_nodes`, and frozen into a `Net` only
where a value is handed out.  Both answer the same read methods
(`_NetReads`), so the detectors, views and closures run unchanged on either.
"""

from __future__ import annotations

import dataclasses
import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import AbstractSet, Iterable, Iterator, Literal

NodeId = str
Arc = tuple[NodeId, NodeId]
IoType = Literal["place", "transition"]

ID_PATTERN = re.compile(r"[A-Za-z0-9_]+\Z")


class _NetReads:
    """The read methods `Net` and `_Graph` share.

    Both hold `places`, `transitions`, `inputs` and `outputs`, and the maps
    `_pred` and `_succ`, in which every node and every arc end has an entry.
    """

    @property
    def nodes(self) -> AbstractSet[NodeId]:
        """A frozenset for a `Net`, a fresh set for a working graph."""
        return self.places | self.transitions

    def __contains__(self, node: NodeId) -> bool:
        return node in self.places or node in self.transitions

    def __len__(self) -> int:
        return len(self.places) + len(self.transitions)

    def is_place(self, node: NodeId) -> bool:
        if node in self.places:
            return True
        if node in self.transitions:
            return False
        raise KeyError(node)

    def preset(self, node: NodeId) -> frozenset[NodeId]:
        """All sources of arcs into `node`, for any node or arc end; KeyError for other names."""
        return self._pred[node]

    def postset(self, node: NodeId) -> frozenset[NodeId]:
        """All targets of arcs out of `node`, for any node or arc end; KeyError for other names."""
        return self._succ[node]


@dataclass(frozen=True)
class Net(_NetReads):
    """A Petri net with designated input and output nodes.

    Instances are values: all fields are frozen sets and every operation on
    nets returns a new instance.  Construction does not validate; arbitrary
    candidates can be represented so that `validate` stays total.
    """

    places: frozenset[NodeId]
    transitions: frozenset[NodeId]
    arcs: frozenset[Arc]
    inputs: frozenset[NodeId]
    outputs: frozenset[NodeId]
    name: str | None = field(default=None, compare=False)

    @classmethod
    def of(
        cls,
        places: Iterable[NodeId] = (),
        transitions: Iterable[NodeId] = (),
        arcs: Iterable[Arc] = (),
        inputs: Iterable[NodeId] = (),
        outputs: Iterable[NodeId] = (),
        name: str | None = None,
    ) -> Net:
        """Build a net from any iterables, deduplicating as sets."""
        return cls(
            places=frozenset(places),
            transitions=frozenset(transitions),
            arcs=frozenset((a, b) for a, b in arcs),
            inputs=frozenset(inputs),
            outputs=frozenset(outputs),
            name=name,
        )

    @cached_property
    def _pred(self) -> dict[NodeId, frozenset[NodeId]]:
        return _adjacency(self.nodes, ((b, a) for a, b in self.arcs))

    @cached_property
    def _succ(self) -> dict[NodeId, frozenset[NodeId]]:
        return _adjacency(self.nodes, self.arcs)

    @property
    def io_type(self) -> IoType:
        """The interface type of an I/O consistent net.

        Raises ValueError when the interface mixes places and transitions,
        is empty, or mentions unknown nodes; use `validate` for a full
        diagnosis.
        """
        interface = self.inputs | self.outputs
        if interface and interface <= self.places:
            return "place"
        if interface and interface <= self.transitions:
            return "transition"
        raise ValueError("interface is not all places or all transitions")

    def replace(self, **changes) -> Net:
        """Return a copy with the given fields replaced."""
        return dataclasses.replace(self, **changes)


def _adjacency(nodes: Iterable[NodeId], arcs: Iterable[Arc]) -> dict[NodeId, frozenset[NodeId]]:
    """Each of `nodes` and each end of `arcs`, mapped to the targets of the arcs out of it."""
    acc: dict[NodeId, set[NodeId]] = {n: set() for n in nodes}
    # Membership tests rather than setdefault, which makes an empty set per
    # call: building both maps this way costs what the one-sided maps did.
    for a, b in arcs:
        if a not in acc:
            acc[a] = set()
        if b not in acc:
            acc[b] = set()
        acc[a].add(b)
    return {n: frozenset(s) for n, s in acc.items()}


class _Graph(_NetReads):
    """A mutable working copy of a `Net`, private to the reducer and the generator.

    Its node and interface sets are sets, and its `_pred`/`_succ` maps are
    dicts of frozensets that `_replace_nodes` edits in place; the maps are
    its only record of the arcs.  It never outlives the reduction or
    generation that built it: a value leaves only through `freeze`.
    Anything that reads it lazily (`reduction._nearby`'s generator) must be
    used up or dropped before it is edited.
    """

    def __init__(self, net: Net):
        self.places = set(net.places)
        self.transitions = set(net.transitions)
        self.inputs = set(net.inputs)
        self.outputs = set(net.outputs)
        self.name = net.name
        # Copies of the host's maps, so that editing this graph never reaches it.
        self._pred = dict(net._pred)
        self._succ = dict(net._succ)

    def freeze(self) -> Net:
        """The `Net` this graph holds now: its arcs read off `_succ`, its maps copied."""
        return _net_from_maps(
            frozenset(self.places),
            frozenset(self.transitions),
            frozenset(self.inputs),
            frozenset(self.outputs),
            dict(self._pred),
            dict(self._succ),
            self.name,
        )


def _net_from_maps(
    places: frozenset[NodeId],
    transitions: frozenset[NodeId],
    inputs: frozenset[NodeId],
    outputs: frozenset[NodeId],
    pred: dict[NodeId, frozenset[NodeId]],
    succ: dict[NodeId, frozenset[NodeId]],
    name: str | None = None,
) -> Net:
    """A `Net` whose arcs are read off `succ`, seeded with `pred` and `succ` as its maps.

    The maps must be the ones `_adjacency` would rebuild from those arcs, so
    the `Net` is the same value either way; seeding them only skips the
    rebuild.  The caller hands over the dicts and must not edit them.
    """
    net = Net(
        places=places,
        transitions=transitions,
        arcs=frozenset((a, b) for a, post in succ.items() for b in post),
        inputs=inputs,
        outputs=outputs,
        name=name,
    )
    net.__dict__["_pred"] = pred
    net.__dict__["_succ"] = succ
    return net


def _replace_nodes(
    host: Net | _Graph,
    old: frozenset[NodeId],
    places: frozenset[NodeId],
    transitions: frozenset[NodeId],
    arcs: Iterable[Arc],
    heads: frozenset[NodeId],
    tails: frozenset[NodeId],
) -> Net | _Graph:
    """`host` with its nodes `old` replaced by new places and transitions.

    `arcs` are the arcs among the new nodes.  Arcs among `old` are dropped,
    every arc that entered `old` from outside now enters each of `heads`,
    and every arc that left it now leaves each of `tails`; host inputs in
    `old` give way to `heads`, host outputs to `tails`.  The caller checks
    that `old` are nodes of `host`; a new id that is already a node or an
    arc end of `host` raises ValueError, and leaves `host` as it was.

    A `_Graph` host is edited in place and returned; the edit rewrites only
    the map entries of `old`, its presets and postsets and the new nodes,
    so it costs O(boundary).  A `Net` host is copied into a working graph,
    which gets the same edit and is frozen into the result, so that costs
    O(net).
    """
    new = places | transitions
    # Every node and arc end has an entry in both maps.
    clash = sorted(n for n in new if n in host._pred)
    if clash:
        raise ValueError(f"ids already in use: {', '.join(clash)}")

    graph = host if isinstance(host, _Graph) else _Graph(host)
    pred = graph._pred
    succ = graph._succ
    feeders: set[NodeId] = set()
    fed: set[NodeId] = set()
    for n in old:
        feeders |= pred.pop(n)
        fed |= succ.pop(n)
    feeders -= old
    fed -= old
    for a in feeders:
        succ[a] -= old
    for b in fed:
        pred[b] -= old

    added = set(arcs)
    added.update((a, h) for a in feeders for h in heads)
    added.update((t, b) for t in tails for b in fed)
    for n, extra in _adjacency(new, ((b, a) for a, b in added)).items():
        pred[n] = pred.get(n, frozenset()) | extra
    for n, extra in _adjacency(new, added).items():
        succ[n] = succ.get(n, frozenset()) | extra

    if not graph.inputs.isdisjoint(old):
        graph.inputs -= old
        graph.inputs |= heads
    if not graph.outputs.isdisjoint(old):
        graph.outputs -= old
        graph.outputs |= tails
    graph.places -= old
    graph.places |= places
    graph.transitions -= old
    graph.transitions |= transitions
    return graph if graph is host else graph.freeze()


def reachable(net: Net, origin: NodeId, target: NodeId) -> bool:
    """True when a directed path leads from origin to target.

    Single-node paths count, so reachable(net, n, n) always holds.
    """
    if origin not in net or target not in net:
        raise KeyError(origin if origin not in net else target)
    return target in descendants(net, origin)


def _reach(step: dict[NodeId, frozenset[NodeId]], origins: Iterable[NodeId]) -> frozenset[NodeId]:
    """All nodes reached from any of `origins` along `step`, the origins included."""
    seen = set(origins)
    frontier = list(seen)
    while frontier:
        for nxt in step.get(frontier.pop(), ()):
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return frozenset(seen)


def descendants(net: Net, origin: NodeId) -> frozenset[NodeId]:
    """All nodes reachable from origin, including origin itself."""
    return _reach(net._succ, (origin,))


def ancestors(net: Net, origin: NodeId) -> frozenset[NodeId]:
    """All nodes that reach origin, including origin itself."""
    return _reach(net._pred, (origin,))


def is_acyclic(net: Net) -> bool:
    """True when the arc relation has no directed cycle (Kahn's algorithm)."""
    indeg = {n: len(net._pred.get(n, ())) for n in net.nodes}
    queue = [n for n, d in indeg.items() if d == 0]
    removed = 0
    while queue:
        node = queue.pop()
        removed += 1
        for nxt in net._succ.get(node, ()):
            indeg[nxt] -= 1
            if indeg[nxt] == 0:
                queue.append(nxt)
    return removed == len(indeg)


def _components(net: Net) -> tuple[dict[NodeId, int], list[list[NodeId]]]:
    """The strongly connected components of `net` (iterative Kosaraju).

    Returns each node's component number and each component's members.
    Components come out in topological order of the condensation: an arc
    between two components always leads to a higher number.
    """
    succ = net._succ
    pred = net._pred

    finish: list[NodeId] = []
    seen: set[NodeId] = set()
    for root in net.nodes:
        if root in seen:
            continue
        stack: list[tuple[NodeId, Iterator[NodeId]]] = [(root, iter(succ.get(root, ())))]
        seen.add(root)
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append((nxt, iter(succ.get(nxt, ()))))
                    advanced = True
                    break
            if not advanced:
                finish.append(node)
                stack.pop()

    component: dict[NodeId, int] = {}
    members: list[list[NodeId]] = []
    for root in reversed(finish):
        if root in component:
            continue
        comp = len(members)
        members.append([])
        todo = [root]
        component[root] = comp
        while todo:
            node = todo.pop()
            members[comp].append(node)
            for prv in pred.get(node, ()):
                if prv not in component:
                    component[prv] = comp
                    todo.append(prv)
    return component, members


def descendants_closure(net: Net) -> dict[NodeId, frozenset[NodeId]]:
    """Reachability closure for every node at once.

    Condenses strongly connected components first (`_components`) and
    propagates reachable sets over the condensation, so repeated queries stay
    cheap even on cyclic nets.
    """
    succ = net._succ
    component, members = _components(net)
    # Successor components have higher numbers, so they are ready first.
    comp_reach: list[set[NodeId]] = [set() for _ in members]
    for comp in range(len(members) - 1, -1, -1):
        acc = set(members[comp])
        for node in members[comp]:
            for nxt in succ.get(node, ()):
                nc = component[nxt]
                if nc != comp:
                    acc |= comp_reach[nc]
        comp_reach[comp] = acc

    frozen = [frozenset(s) for s in comp_reach]
    return {n: frozen[component[n]] for n in net.nodes}


def reach_masks(net: Net) -> tuple[dict[NodeId, int], dict[NodeId, int]]:
    """The reachability closure of `descendants_closure` as bit masks.

    Returns (bit, reach): `bit[n]` is the one bit of n's strongly connected
    component, and `reach[n]` holds the bit of every component n reaches,
    its own included, so m is reachable from n exactly when
    `reach[n] & bit[m]`.  Which bit a component gets depends on set
    iteration order; the answers do not.
    """
    succ = net._succ
    component, members = _components(net)
    comp_reach = [0] * len(members)
    for comp in range(len(members) - 1, -1, -1):
        acc = 1 << comp
        for node in members[comp]:
            for nxt in succ[node]:
                acc |= comp_reach[component[nxt]]
        comp_reach[comp] = acc
    bit = {n: 1 << c for n, c in component.items()}
    reach = {n: comp_reach[c] for n, c in component.items()}
    return bit, reach


@dataclass(frozen=True)
class ValidationReport:
    """Everything wrong with a candidate net, grouped by category.

    An empty report means the candidate is a workflow net and `io_type`
    carries its interface type.
    """

    io_type: IoType | None
    node_clashes: tuple[NodeId, ...] = ()
    bad_ids: tuple[NodeId, ...] = ()
    dangling_arcs: tuple[Arc, ...] = ()
    nonbipartite_arcs: tuple[Arc, ...] = ()
    unknown_interface: tuple[NodeId, ...] = ()
    empty_interface: tuple[str, ...] = ()
    mixed_interface: tuple[NodeId, ...] = ()
    unreachable_nodes: tuple[NodeId, ...] = ()
    dead_end_nodes: tuple[NodeId, ...] = ()
    duplicate_arcs: tuple[Arc, ...] = ()

    @property
    def ok(self) -> bool:
        return not (
            self.node_clashes
            or self.bad_ids
            or self.dangling_arcs
            or self.nonbipartite_arcs
            or self.unknown_interface
            or self.empty_interface
            or self.mixed_interface
            or self.unreachable_nodes
            or self.dead_end_nodes
        )

    def lines(self) -> list[str]:
        """Human-readable report, one line per violation category."""
        out: list[str] = []
        if self.node_clashes:
            out.append("both place and transition: " + ", ".join(self.node_clashes))
        if self.bad_ids:
            out.append("invalid node ids: " + ", ".join(repr(n) for n in self.bad_ids))
        if self.dangling_arcs:
            out.append("arcs with unknown endpoints: " + _arc_list(self.dangling_arcs))
        if self.nonbipartite_arcs:
            out.append("arcs between same-type nodes: " + _arc_list(self.nonbipartite_arcs))
        if self.unknown_interface:
            out.append("interface nodes not in net: " + ", ".join(self.unknown_interface))
        if self.empty_interface:
            out.append("empty interface sets: " + ", ".join(self.empty_interface))
        if self.mixed_interface:
            out.append("interface mixes places and transitions: " + ", ".join(self.mixed_interface))
        if self.unreachable_nodes:
            out.append("not reachable from any input: " + ", ".join(self.unreachable_nodes))
        if self.dead_end_nodes:
            out.append("cannot reach any output: " + ", ".join(self.dead_end_nodes))
        if self.duplicate_arcs:
            out.append("duplicate arcs collapsed: " + _arc_list(self.duplicate_arcs))
        if self.ok:
            out.insert(0, f"valid workflow net ({self.io_type} interface)")
        return out


def _arc_list(arcs: Iterable[Arc]) -> str:
    return ", ".join(f"{a}->{b}" for a, b in sorted(arcs))


def validate(net: Net, duplicate_arcs: Iterable[Arc] = ()) -> ValidationReport:
    """Check the workflow net conditions, reporting every violation.

    Total on arbitrary `Net` values.  `duplicate_arcs` lets loaders record
    arcs that were collapsed during parsing; they appear in the report as a
    warning without affecting validity.
    """
    clashes = sorted(net.places & net.transitions)
    bad_ids = sorted(n for n in net.nodes if not ID_PATTERN.match(n))
    dangling = sorted(
        (a, b) for a, b in net.arcs if a not in net or b not in net
    )
    nonbipartite = sorted(
        (a, b)
        for a, b in net.arcs
        if a in net and b in net and net.is_place(a) == net.is_place(b)
    )

    interface = net.inputs | net.outputs
    unknown_io = sorted(n for n in interface if n not in net)
    empty: list[str] = []
    if not net.inputs:
        empty.append("inputs")
    if not net.outputs:
        empty.append("outputs")

    known_io = interface - set(unknown_io)
    io_places = known_io & net.places
    io_transitions = known_io & net.transitions
    mixed: list[NodeId] = []
    io_type: IoType | None = None
    if io_places and io_transitions:
        mixed = sorted(min(io_places, io_transitions, key=len))
    elif io_places:
        io_type = "place"
    elif io_transitions:
        io_type = "transition"

    unreachable: list[NodeId] = []
    dead_ends: list[NodeId] = []
    real_inputs = [n for n in net.inputs if n in net]
    real_outputs = [n for n in net.outputs if n in net]
    if real_inputs:
        unreachable = sorted(net.nodes - _reach(net._succ, real_inputs))
    if real_outputs:
        dead_ends = sorted(net.nodes - _reach(net._pred, real_outputs))

    report = ValidationReport(
        io_type=io_type,
        node_clashes=tuple(clashes),
        bad_ids=tuple(bad_ids),
        dangling_arcs=tuple(dangling),
        nonbipartite_arcs=tuple(nonbipartite),
        unknown_interface=tuple(unknown_io),
        empty_interface=tuple(empty),
        mixed_interface=tuple(mixed),
        unreachable_nodes=tuple(unreachable),
        dead_end_nodes=tuple(dead_ends),
        duplicate_arcs=tuple(sorted(set(duplicate_arcs))),
    )
    if not report.ok:
        return dataclasses.replace(report, io_type=None)
    return report


class InvalidNetError(ValueError):
    """Raised when an operation needs a workflow net but got something else."""

    def __init__(self, report: ValidationReport):
        self.report = report
        super().__init__("; ".join(report.lines()) or "invalid net")


def require_wf(net: Net) -> IoType:
    """Return the interface type of a valid workflow net or raise."""
    report = validate(net)
    if not report.ok:
        raise InvalidNetError(report)
    assert report.io_type is not None
    return report.io_type


def fresh_name(base: str, taken: Iterable[NodeId]) -> NodeId:
    """`base` if unused, else the first `base_2`, `base_3`, ... that is."""
    used = set(taken)
    if base not in used:
        return base
    k = 2
    while f"{base}_{k}" in used:
        k += 1
    return f"{base}_{k}"


class FreshIds:
    """Counter-based supply of contraction node ids (ctr_0, ctr_1, ...).

    Skips ids already present in the universe it was created over, and never
    hands out the same id twice, so one supply can serve a whole reduction
    run even as contraction introduces new nodes.
    """

    def __init__(self, taken: Iterable[NodeId] = ()):
        self._taken = set(taken)
        self._next = 0

    def take(self) -> NodeId:
        while True:
            candidate = f"ctr_{self._next}"
            self._next += 1
            if candidate not in self._taken:
                self._taken.add(candidate)
                return candidate

    def reserve(self, ids: Iterable[NodeId]) -> None:
        self._taken.update(ids)


def _completion(net: Net, kind: IoType) -> Net:
    """Close `net` with a fresh `kind` node feeding every input and one fed by every output."""
    other = "transition" if kind == "place" else "place"
    if net.io_type != other:
        raise ValueError(f"{kind} completion applies to {other}-interface nets")
    head = fresh_name(f"{kind[0]}_i", net.nodes)
    tail = fresh_name(f"{kind[0]}_o", net.nodes | {head})
    added = frozenset({head, tail})
    places, transitions = (
        (net.places | added, net.transitions) if kind == "place" else (net.places, net.transitions | added)
    )
    return Net(
        places=places,
        transitions=transitions,
        arcs=net.arcs | {(head, n) for n in net.inputs} | {(n, tail) for n in net.outputs},
        inputs=frozenset({head}),
        outputs=frozenset({tail}),
        name=net.name,
    )


def place_completion(net: Net) -> Net:
    """Close a transition-interface net with one input and one output place.

    Adds a fresh place feeding every input transition and a fresh place fed
    by every output transition; the result is a place-interface net with a
    single input and a single output.
    """
    return _completion(net, "place")


def transition_completion(net: Net) -> Net:
    """Dual of `place_completion` for place-interface nets."""
    return _completion(net, "transition")
