"""Subnet views, well-nestedness, and contraction.

A node set S of a host net induces a subnet: the restriction of the graph
to S, whose inputs are the members that either are host inputs or receive
an arc from outside, and dually for outputs.  Such a view is always an I/O
net and always well-connected; it is a workflow net exactly when its
interface is homogeneous.

Contraction collapses a workflow-net view into one fresh node of the same
interface type.  When the view is well-nested (all its inputs look the same
from outside, likewise outputs), contraction is the inverse of substituting
the view back in at the fresh node.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .nets import Net, NodeId, _Graph, _net_from_maps, _replace_nodes, descendants_closure


@dataclass(frozen=True)
class SubnetView:
    """The net induced by a node selection, plus where it sits in the host."""

    host: Net
    members: frozenset[NodeId]
    net: Net

    @property
    def is_wf(self) -> bool:
        """Workflow net iff the induced interface is homogeneous."""
        try:
            self.net.io_type
        except ValueError:
            return False
        return True

    @property
    def trivial(self) -> bool:
        return len(self.members) == 1


def _members(host: Net, selection: Iterable[NodeId]) -> frozenset[NodeId]:
    members = frozenset(selection)
    if not members:
        raise ValueError("empty selection")
    foreign = sorted(n for n in members if n not in host)
    if foreign:
        raise KeyError(", ".join(foreign))
    return members


def _interface(host: Net, members: frozenset[NodeId]) -> tuple[frozenset[NodeId], frozenset[NodeId]]:
    """The induced inputs and outputs of a selection, read from the members' presets and postsets."""
    inputs = frozenset(n for n in members if n in host.inputs or not host.preset(n) <= members)
    outputs = frozenset(n for n in members if n in host.outputs or not host.postset(n) <= members)
    return inputs, outputs


def subnet_view(host: Net, selection: Iterable[NodeId]) -> SubnetView:
    """Restrict `host` to `selection` with the induced interface.

    Reads only the members' presets and postsets, not every host arc.  The
    view's `_pred`/`_succ` are the host's maps restricted to the members,
    seeded into the view as `_Graph.freeze` seeds its own, so the view's
    arcs are read off once and its maps are never rebuilt from them.  The
    host may be a `Net` or the reducer's working graph; the view's fields
    are frozen sets either way.
    """
    members = _members(host, selection)
    inputs, outputs = _interface(host, members)
    return SubnetView(
        host=host,
        members=members,
        net=_net_from_maps(
            members & host.places,
            members & host.transitions,
            inputs,
            outputs,
            {n: host.preset(n) & members for n in members},
            {n: host.postset(n) & members for n in members},
        ),
    )


def is_well_nested(host: Net, selection: Iterable[NodeId]) -> bool:
    """Do all inputs of the induced subnet agree on their outside wiring?

    The subnet inputs must have at most one outside-wiring signature: their
    preset outside the selection with their host-input membership; dually
    for outputs.  This is what makes the contracted node's wiring
    unambiguous.
    """
    members = _members(host, selection)
    inputs, outputs = _interface(host, members)
    return (
        len({(host.preset(n) - members, n in host.inputs) for n in inputs}) <= 1
        and len({(host.postset(n) - members, n in host.outputs) for n in outputs}) <= 1
    )


def contract(host: Net | _Graph, selection: Iterable[NodeId], fresh: NodeId) -> Net | _Graph:
    """Collapse a workflow-net view into the single node `fresh`.

    The fresh node takes the view's interface type, inherits every arc that
    crossed the selection boundary, and joins the host interface exactly
    when the selection touched it.

    On a `Net` host this is a value operation: the host is copied into a
    working graph, which is edited and frozen into the result.  On the
    reducer's working graph (`nets._Graph`) the host itself is edited in
    place, in O(boundary), and returned.  Either way the edit is
    `nets._replace_nodes`.  A `fresh` id already in use in the host raises
    ValueError and leaves the host as it was.
    """
    members = _members(host, selection)
    view_inputs, view_outputs = _interface(host, members)
    kinds = {host.is_place(n) for n in view_inputs | view_outputs}
    if len(kinds) != 1:
        raise ValueError("interface is not all places or all transitions")
    new = frozenset({fresh})
    places, transitions = (new, frozenset()) if kinds == {True} else (frozenset(), new)
    return _replace_nodes(host, members, places, transitions, (), new, new)


def path_quotient_check(before: Net, after: Net, selection: Iterable[NodeId], fresh: NodeId) -> bool:
    """Is reachability in `after` exactly the quotient of reachability in `before`?

    Let S be the selection and f the fresh node, and map every member to f:

        img(X) = (X - S) | ({f} if X meets S)
        U(a)   = closure_before[a] for a != f
        U(f)   = the union of closure_before[m] over m in S

    The check holds iff the nodes of `after` are (nodes of `before` - S) | {f},
    with S within `before` and f not in it, and for every node a of `after`

        closure_after[a] == img(U(a))

    The equation says both halves of the quotient at once: img(U(a)) within
    closure_after[a] is "every path of `before` has a counterpart in `after`
    between the mapped endpoints", and closure_after[a] - {a} within
    img(U(a)) is "`after` connects no nodes whose preimages were
    unconnected"; a itself lies on both sides.
    """
    return _is_path_quotient(descendants_closure(before), descendants_closure(after), selection, fresh)


def _is_path_quotient(
    closure_before: dict[NodeId, frozenset[NodeId]],
    closure_after: dict[NodeId, frozenset[NodeId]],
    selection: Iterable[NodeId],
    fresh: NodeId,
) -> bool:
    """`path_quotient_check` on the two nets' `descendants_closure`."""
    members = frozenset(selection)
    nodes = closure_before.keys()
    if fresh in nodes or not members <= nodes or closure_after.keys() != (nodes - members) | {fresh}:
        return False
    fresh_set = frozenset({fresh})

    def img(reached: frozenset[NodeId]) -> frozenset[NodeId]:
        return (reached - members) | fresh_set if reached & members else reached

    merged = frozenset().union(*(closure_before[m] for m in members))
    return all(
        reached == img(merged if a == fresh else closure_before[a])
        for a, reached in closure_after.items()
    )
