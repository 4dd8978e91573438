"""The four basic net classes and the predicates defining them.

A place with exactly one producer and one consumer behaves like a wire;
membership in the input or output interface stands in for the missing edge.
When every place is such a wire the net has the AND property; the OR
property says the same about transitions.  Combined with acyclicity and the
interface type this yields the class flags, of which four combinations are
the building blocks of hierarchical nets: pAND, 11tAND, 11pOR, tOR.
"""

from __future__ import annotations

from dataclasses import dataclass

from .nets import IoType, Net, NodeId, is_acyclic

BASIC_CLASS_NAMES = ("pAND", "11tAND", "11pOR", "tOR")


def _wired(net: Net, nodes: frozenset[NodeId]) -> bool:
    """Every node in `nodes` has one producer and one consumer, interface included."""
    for n in nodes:
        if len(net.preset(n)) != (0 if n in net.inputs else 1):
            return False
        if len(net.postset(n)) != (0 if n in net.outputs else 1):
            return False
    return True


def has_and_property(net: Net) -> bool:
    """Every place has one producer and one consumer, interface included."""
    return _wired(net, net.places)


def has_or_property(net: Net) -> bool:
    """Every transition has one producer and one consumer, interface included."""
    return _wired(net, net.transitions)


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
    """Compute every class flag of a valid workflow net."""
    return ClassLabel(
        and_property=has_and_property(net),
        or_property=has_or_property(net),
        acyclic=is_acyclic(net),
        one_input=len(net.inputs) == 1,
        one_output=len(net.outputs) == 1,
        io_type=net.io_type,
    )
