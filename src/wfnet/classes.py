"""The four basic net classes and the predicates defining them.

A place with exactly one producer and one consumer behaves like a wire;
membership in the input or output interface stands in for the missing edge.
When every place is such a wire the net has the AND property; the OR
property says the same about transitions.  Combined with acyclicity and the
interface type this yields the class flags, of which four combinations are
the building blocks of hierarchical nets: pAND, 11tAND, 11pOR, tOR.

Every flag is read in one pass, `_label_view`, over a node set of a host:
`classify` passes a whole net, and the reducer passes each selection it
may contract, so that it never builds the selection's view as a `Net`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet

from .nets import IoType, Net, NodeId, _Graph

BASIC_CLASS_NAMES = ("pAND", "11tAND", "11pOR", "tOR")


def has_and_property(net: Net) -> bool:
    """Every place has one producer and one consumer, interface included; for a valid workflow net."""
    return classify(net).and_property


def has_or_property(net: Net) -> bool:
    """Every transition has one producer and one consumer, interface included; for a valid workflow net."""
    return classify(net).or_property


@dataclass(frozen=True)
class ClassLabel:
    """Class membership record of one workflow net."""

    and_property: bool
    or_property: bool
    acyclic: bool
    one_input: bool
    one_output: bool
    io_type: IoType

    @property
    def is_pand(self) -> bool:
        return self.io_type == "place" and self.and_property and self.acyclic

    @property
    def is_tand(self) -> bool:
        return self.io_type == "transition" and self.and_property and self.acyclic

    @property
    def is_por(self) -> bool:
        return self.io_type == "place" and self.or_property

    @property
    def is_tor(self) -> bool:
        return self.io_type == "transition" and self.or_property

    @property
    def basic_classes(self) -> frozenset[str]:
        """Which of the four building-block classes the net belongs to."""
        found = set()
        if self.is_pand:
            found.add("pAND")
        if self.is_tand and self.one_input and self.one_output:
            found.add("11tAND")
        if self.is_por and self.one_input and self.one_output:
            found.add("11pOR")
        if self.is_tor:
            found.add("tOR")
        return frozenset(found)

    @property
    def basic_andor(self) -> bool:
        return bool(self.basic_classes)

    def describe(self) -> str:
        flags = []
        if self.is_pand:
            flags.append("pAND")
        if self.is_tand:
            flags.append("tAND")
        if self.is_por:
            flags.append("pOR")
        if self.is_tor:
            flags.append("tOR")
        shape = "/".join(flags) if flags else "none"
        interface = ("one-input" if self.one_input else "multi-input") + ", " + (
            "one-output" if self.one_output else "multi-output"
        )
        basics = ", ".join(sorted(self.basic_classes)) if self.basic_classes else "no"
        return f"{shape} ({interface}); {basics} basic class"


def classify(net: Net) -> ClassLabel:
    """Compute every class flag of a valid workflow net.

    It is `_label_view` over all of the net's nodes: in a valid net every
    arc joins two nodes, so the induced interface is the net's own.
    """
    view = _label_view(net, net.nodes)
    if view is None:
        raise ValueError("interface is not all places or all transitions")
    return view[0]


def _label_view(
    host: Net | _Graph, members: AbstractSet[NodeId]
) -> tuple[ClassLabel, list[NodeId], list[NodeId]] | None:
    """The class label of the view `members` induce in `host`, with the view's inputs and outputs.

    None when the view is not a workflow net, that is when its interface
    is empty or mixes places and transitions.  The view is the one
    `subnets.subnet_view` builds, but no `Net` is made: one pass over the
    members reads each one's preset and postset in the host.  A member is
    a view input when it is a host input or has a predecessor outside
    `members`, and dually a view output.  It is wired when it has no
    predecessor among the members if it is a view input and exactly one
    otherwise, and likewise for successors and outputs; the AND property
    holds when every place is wired, the OR property when every
    transition is.  Kahn's algorithm on the arcs among the members then
    decides acyclicity.  `members` must be nodes of `host`.
    """
    pred = host._pred
    succ = host._succ
    places = host.places
    transitions = host.transitions
    host_inputs = host.inputs
    host_outputs = host.outputs
    inputs: list[NodeId] = []
    outputs: list[NodeId] = []
    and_property = or_property = True
    indegree: dict[NodeId, int] = {}
    following: dict[NodeId, frozenset[NodeId]] = {}
    for n in members:
        pre = pred[n]
        post = succ[n]
        inner_pre = len(pre & members)
        inner_post = post & members
        is_input = n in host_inputs or inner_pre != len(pre)
        is_output = n in host_outputs or len(inner_post) != len(post)
        if is_input:
            inputs.append(n)
        if is_output:
            outputs.append(n)
        if inner_pre != (0 if is_input else 1) or len(inner_post) != (0 if is_output else 1):
            if n in places:
                and_property = False
            if n in transitions:
                or_property = False
        indegree[n] = inner_pre
        following[n] = inner_post

    if not inputs and not outputs:
        return None
    if places.issuperset(inputs) and places.issuperset(outputs):
        io_type: IoType = "place"
    elif transitions.issuperset(inputs) and transitions.issuperset(outputs):
        io_type = "transition"
    else:
        return None

    # The queue grows while it is read and ends holding every member removed.
    queue = [n for n, d in indegree.items() if not d]
    for n in queue:
        for m in following[n]:
            indegree[m] -= 1
            if not indegree[m]:
                queue.append(m)
    label = ClassLabel(
        and_property=and_property,
        or_property=or_property,
        acyclic=len(queue) == len(indegree),
        one_input=len(inputs) == 1,
        one_output=len(outputs) == 1,
        io_type=io_type,
    )
    return label, inputs, outputs
