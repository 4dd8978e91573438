"""Markings (token bags over places) and the firing rule."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Mapping

from .nets import Net, NodeId


@dataclass(frozen=True, init=False)
class Marking:
    """An immutable bag of tokens over places.

    Zero counts are never stored, so two markings are equal exactly when
    they assign the same count to every place.  Supports the bag operators
    needed by the token game: +, - (only when the result stays nonnegative),
    <=, and scalar multiplication.
    """

    _counts: tuple[tuple[NodeId, int], ...]

    def __init__(self, counts: Mapping[NodeId, int] | Iterable[tuple[NodeId, int]] = ()):
        items = dict(counts)
        for place, n in items.items():
            if n < 0:
                raise ValueError(f"negative token count for {place}")
        cleaned = tuple(sorted((p, n) for p, n in items.items() if n > 0))
        object.__setattr__(self, "_counts", cleaned)

    @classmethod
    def _canonical(cls, counts: tuple[tuple[NodeId, int], ...]) -> Marking:
        """A marking from positive counts already sorted by place; skips the checks."""
        m = object.__new__(cls)
        object.__setattr__(m, "_counts", counts)
        return m

    @classmethod
    def uniform(cls, places: Iterable[NodeId], count: int = 1) -> Marking:
        """`count` tokens on every listed place (the k.I / k.O bags)."""
        return cls({p: count for p in places})

    @cached_property
    def _map(self) -> dict[NodeId, int]:
        return dict(self._counts)

    def get(self, place: NodeId) -> int:
        return self._map.get(place, 0)

    def __getitem__(self, place: NodeId) -> int:
        return self.get(place)

    def items(self) -> tuple[tuple[NodeId, int], ...]:
        return self._counts

    def places(self) -> frozenset[NodeId]:
        return frozenset(p for p, _ in self._counts)

    def total(self) -> int:
        return sum(n for _, n in self._counts)

    def __bool__(self) -> bool:
        return bool(self._counts)

    def __le__(self, other: Marking) -> bool:
        theirs = other._map
        return all(n <= theirs.get(p, 0) for p, n in self._counts)

    def __add__(self, other: Marking) -> Marking:
        acc = dict(self._counts)
        for p, n in other._counts:
            acc[p] = acc.get(p, 0) + n
        return Marking(acc)

    def __sub__(self, other: Marking) -> Marking:
        acc = dict(self._counts)
        for p, n in other._counts:
            acc[p] = acc.get(p, 0) - n
            if acc[p] < 0:
                raise ValueError(f"cannot remove {n} tokens from {p}")
        return Marking(acc)

    def __mul__(self, k: int) -> Marking:
        return Marking({p: n * k for p, n in self._counts})

    __rmul__ = __mul__

    def __iter__(self) -> Iterator[tuple[NodeId, int]]:
        return iter(self._counts)

    def __repr__(self) -> str:
        inner = ", ".join(f"{p}:{n}" for p, n in self._counts)
        return f"{{{inner}}}"


def input_marking(net: Net, k: int = 1) -> Marking:
    """k tokens on every input place."""
    if net.io_type != "place":
        raise ValueError("interface markings need a place-interface net")
    return Marking.uniform(net.inputs, k)


def output_marking(net: Net, k: int = 1) -> Marking:
    """k tokens on every output place."""
    if net.io_type != "place":
        raise ValueError("interface markings need a place-interface net")
    return Marking.uniform(net.outputs, k)


def _require_places(net: Net, m: Marking) -> None:
    """KeyError for the first marked node that is not a place of `net`."""
    for place, _ in m:
        if place not in net.places:
            raise KeyError(place)


def enabled_transitions(net: Net, m: Marking) -> frozenset[NodeId]:
    """Transitions whose full preset is covered by m."""
    _require_places(net, m)
    enabled = set()
    for t in net.transitions:
        if Marking.uniform(net.preset(t)) <= m:
            enabled.add(t)
    return frozenset(enabled)


def fire(net: Net, m: Marking, t: NodeId) -> Marking:
    """One step of the token game: consume the preset, produce the postset.

    Raises KeyError when `t` is no transition or `m` marks a node that is
    no place of `net`.
    """
    if t not in net.transitions:
        raise KeyError(f"{t} is not a transition")
    _require_places(net, m)
    consumed = Marking.uniform(net.preset(t))
    if not consumed <= m:
        raise ValueError(f"{t} is not enabled")
    return m - consumed + Marking.uniform(net.postset(t))


def replay(net: Net, start: Marking, firings: Iterable[NodeId]) -> Marking:
    """Fire a whole sequence from `start`, failing on the first disabled step."""
    m = start
    for t in firings:
        m = fire(net, m, t)
    return m
