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

from .nets import Net, NodeId, descendants_closure


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


def subnet_view(host: Net, selection: Iterable[NodeId]) -> SubnetView:
    """Restrict `host` to `selection` with the induced interface.

    Reads only the members' presets and postsets, not every host arc.
    """
    members = frozenset(selection)
    if not members:
        raise ValueError("empty selection")
    foreign = members - host.nodes
    if foreign:
        raise KeyError(", ".join(sorted(foreign)))

    restricted = Net(
        places=host.places & members,
        transitions=host.transitions & members,
        arcs=frozenset((a, b) for a in members for b in host.postset(a) & members),
        inputs=(host.inputs & members) | {n for n in members if host.preset(n) - members},
        outputs=(host.outputs & members) | {n for n in members if host.postset(n) - members},
    )
    return SubnetView(host=host, members=members, net=restricted)


def is_well_nested(host: Net, selection: Iterable[NodeId]) -> bool:
    """Do all inputs of the induced subnet agree on their outside wiring?

    Every pair of subnet inputs must share the same preset outside the
    selection and the same host-input membership; dually for outputs.  This
    is what makes the contracted node's wiring unambiguous.
    """
    view = subnet_view(host, selection)
    members = view.members

    def outside_pre(n: NodeId) -> frozenset[NodeId]:
        return host.preset(n) - members

    def outside_post(n: NodeId) -> frozenset[NodeId]:
        return host.postset(n) - members

    ins = sorted(view.net.inputs)
    for n in ins[1:]:
        if outside_pre(n) != outside_pre(ins[0]):
            return False
        if (n in host.inputs) != (ins[0] in host.inputs):
            return False
    outs = sorted(view.net.outputs)
    for n in outs[1:]:
        if outside_post(n) != outside_post(outs[0]):
            return False
        if (n in host.outputs) != (outs[0] in host.outputs):
            return False
    return True


def contract(host: Net, selection: Iterable[NodeId], fresh: NodeId) -> Net:
    """Collapse a workflow-net view into the single node `fresh`.

    The fresh node takes the view's interface type, inherits every arc that
    crossed the selection boundary, and joins the host interface exactly
    when the selection touched it.
    """
    view = subnet_view(host, selection)
    members = view.members
    if fresh in host.nodes:
        raise ValueError(f"fresh id {fresh} already in use")
    io_type = view.net.io_type  # raises ValueError when the view is not WF

    arcs = set()
    for a, b in host.arcs:
        a_in = a in members
        b_in = b in members
        if not a_in and not b_in:
            arcs.add((a, b))
        elif not a_in and b_in:
            arcs.add((a, fresh))
        elif a_in and not b_in:
            arcs.add((fresh, b))

    inputs = host.inputs
    if inputs & members:
        inputs = (inputs - members) | {fresh}
    outputs = host.outputs
    if outputs & members:
        outputs = (outputs - members) | {fresh}

    places = host.places - members
    transitions = host.transitions - members
    if io_type == "place":
        places |= {fresh}
    else:
        transitions |= {fresh}

    return Net(
        places=frozenset(places),
        transitions=frozenset(transitions),
        arcs=frozenset(arcs),
        inputs=inputs,
        outputs=outputs,
        name=host.name,
    )


def path_quotient_check(before: Net, after: Net, selection: Iterable[NodeId], fresh: NodeId) -> bool:
    """Is reachability in `after` exactly the quotient of reachability in `before`?

    Maps every member of the contracted selection to the fresh node.  Any
    directed path in `before` must have a counterpart in `after` between
    the mapped endpoints, and `after` must not connect nodes whose
    preimages were unconnected.
    """
    members = frozenset(selection)

    def image(n: NodeId) -> NodeId:
        return fresh if n in members else n

    closure_before = descendants_closure(before)
    closure_after = descendants_closure(after)
    for origin, reached in closure_before.items():
        mapped_reach = closure_after[image(origin)]
        for target in reached:
            if image(target) not in mapped_reach:
                return False
    for origin, reached in closure_after.items():
        origin_pre = members if origin == fresh else (origin,)
        for target in reached:
            if target == origin:
                continue
            target_pre = members if target == fresh else (target,)
            if not any(t in closure_before[o] for o in origin_pre for t in target_pre):
                return False
    return True
