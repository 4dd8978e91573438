"""Random nets built by repeated substitution of basic building blocks.

Starting from a single node, each step picks a node at random and replaces
it with a freshly generated net from one of the four basic shapes of
matching interface type.  Every net produced this way collapses back to a
single node under reduction, which makes the generator the workhorse for
round-trip testing.  The steps edit one working graph (`nets._Graph`) in
place, and a `Net` is frozen from it once, at the end.

All randomness flows through one `random.Random` seeded per recipe, and
every choice is made over sorted sequences, so a recipe determines the
output net exactly.
"""

from __future__ import annotations

import random
from bisect import bisect_left, insort
from dataclasses import dataclass, field
from typing import Literal

from .classes import BASIC_CLASS_NAMES, classify
from .nets import Arc, Net, NodeId, _Graph, validate
from .substitution import substitute

BASIC_KINDS = BASIC_CLASS_NAMES
_PLACE_KINDS = ("pAND", "11pOR")
_TRANSITION_KINDS = ("11tAND", "tOR")


class IdSource:
    """Hands out p0, p1, ... and t0, t1, ... ids, never repeating one."""

    def __init__(self) -> None:
        self._next = 0

    def place(self) -> NodeId:
        self._next += 1
        return f"p{self._next - 1}"

    def transition(self) -> NodeId:
        self._next += 1
        return f"t{self._next - 1}"


@dataclass(frozen=True)
class GenerationRecipe:
    seed: int
    substitution_steps: int = 10
    max_basic_net_nodes: int = 8
    root_io_type: Literal["place", "transition"] = "place"

    def __post_init__(self) -> None:
        if self.substitution_steps < 0:
            raise ValueError("substitution_steps must be nonnegative")
        if self.max_basic_net_nodes < 4:
            raise ValueError("max_basic_net_nodes must be at least 4")
        if self.root_io_type not in ("place", "transition"):
            raise ValueError(f"unknown interface type {self.root_io_type!r}")


@dataclass(frozen=True)
class SubstitutionStep:
    """One growth step: `node` was replaced by `inner`."""

    node: NodeId
    kind: str
    inner: Net


@dataclass(frozen=True)
class GeneratedNet:
    net: Net
    steps: tuple[SubstitutionStep, ...] = field(default=(), compare=False)


def generate_basic_net(kind: str, budget: int, rng: random.Random, ids: IdSource) -> Net:
    """A random well-formed net of the given basic shape, at most `budget` nodes."""
    if kind not in BASIC_KINDS:
        raise ValueError(f"unknown basic shape {kind!r}")
    if budget < 4:
        raise ValueError("budget must be at least 4")
    builder = {
        "pAND": _build_pand,
        "11tAND": _build_tand11,
        "11pOR": _build_por11,
        "tOR": _build_tor,
    }[kind]
    net = builder(budget, rng, ids)
    assert len(net) <= budget
    assert validate(net).ok, f"generated {kind} net is invalid"
    assert kind in classify(net).basic_classes, f"generated net missed shape {kind}"
    return net


def generate_andor_net(recipe: GenerationRecipe) -> GeneratedNet:
    """Grow a net from a single node by `substitution_steps` random substitutions."""
    rng = random.Random(recipe.seed)
    ids = IdSource()
    if recipe.root_io_type == "place":
        root = ids.place()
        net = Net.of(places=[root], transitions=(), arcs=(), inputs=[root], outputs=[root])
    else:
        root = ids.transition()
        net = Net.of(places=(), transitions=[root], arcs=(), inputs=[root], outputs=[root])

    graph = _Graph(net)
    sorted_nodes = [root]
    steps: list[SubstitutionStep] = []
    for _ in range(recipe.substitution_steps):
        node = rng.choice(sorted_nodes)
        kinds = _PLACE_KINDS if graph.is_place(node) else _TRANSITION_KINDS
        kind = rng.choice(kinds)
        budget = rng.randint(4, recipe.max_basic_net_nodes)
        inner = generate_basic_net(kind, budget, rng, ids)
        substitute(graph, node, inner)
        del sorted_nodes[bisect_left(sorted_nodes, node)]
        for n in inner.nodes:
            insort(sorted_nodes, n)
        steps.append(SubstitutionStep(node=node, kind=kind, inner=inner))
    net = graph.freeze()
    assert validate(net).ok
    return GeneratedNet(net=net, steps=tuple(steps))


def _link(new_id: NodeId, middles: list[NodeId], arcs: list[Arc], src: NodeId, dst: NodeId) -> None:
    """Bridge `src` to `dst` through the fresh node `new_id`, recorded in `middles`."""
    middles.append(new_id)
    arcs.append((src, new_id))
    arcs.append((new_id, dst))


def _build_pand(budget: int, rng: random.Random, ids: IdSource) -> Net:
    # Occasionally just a bundle of parallel interface places.
    if rng.random() < 0.15:
        bundle = [ids.place() for _ in range(rng.randint(2, min(4, budget)))]
        return Net.of(places=bundle, transitions=(), arcs=(), inputs=bundle, outputs=bundle)

    k = rng.randint(1, max(1, (budget - 2) // 3))
    trans = [ids.transition() for _ in range(k)]
    arcs: list[tuple[NodeId, NodeId]] = []
    places: list[NodeId] = []
    inputs: list[NodeId] = []
    outputs: list[NodeId] = []

    def add_input(t: NodeId) -> None:
        p = ids.place()
        places.append(p)
        inputs.append(p)
        arcs.append((p, t))

    def add_output(t: NodeId) -> None:
        p = ids.place()
        places.append(p)
        outputs.append(p)
        arcs.append((t, p))

    # A tree rooted at the first transition: every other one gets a place
    # before it, so only the first needs an input place.
    feeders: set[int] = set()
    for j in range(1, k):
        i = rng.randrange(j)
        _link(ids.place(), places, arcs, trans[i], trans[j])
        feeders.add(i)
    add_input(trans[0])
    for j in range(k):
        if j not in feeders:
            add_output(trans[j])

    while k + len(places) < budget and rng.random() < 0.7:
        kind = rng.randrange(3)
        if kind == 0 and k > 1:
            i = rng.randrange(k - 1)
            _link(ids.place(), places, arcs, trans[i], trans[rng.randrange(i + 1, k)])
        elif kind == 1:
            add_input(trans[rng.randrange(k)])
        else:
            add_output(trans[rng.randrange(k)])

    return Net.of(places=places, transitions=trans, arcs=arcs, inputs=inputs, outputs=outputs)


def _build_tand11(budget: int, rng: random.Random, ids: IdSource) -> Net:
    k = rng.randint(2, (budget + 1) // 2)
    trans = [ids.transition() for _ in range(k)]
    places: list[NodeId] = []
    arcs: list[tuple[NodeId, NodeId]] = []

    # A spine through every transition keeps the interface at the two ends.
    for j in range(1, k):
        _link(ids.place(), places, arcs, trans[j - 1], trans[j])
    while k + len(places) < budget and rng.random() < 0.7 and k > 1:
        i = rng.randrange(k - 1)
        _link(ids.place(), places, arcs, trans[i], trans[rng.randrange(i + 1, k)])

    return Net.of(
        places=places,
        transitions=trans,
        arcs=arcs,
        inputs=[trans[0]],
        outputs=[trans[-1]],
    )


def _build_por11(budget: int, rng: random.Random, ids: IdSource) -> Net:
    n = rng.randint(2, (budget + 1) // 2)
    places = [ids.place() for _ in range(n)]
    order = [places[0]] + rng.sample(sorted(places[1:-1]), n - 2) + [places[-1]]
    trans: list[NodeId] = []
    arcs: list[tuple[NodeId, NodeId]] = []

    for a, b in zip(order, order[1:]):
        _link(ids.transition(), trans, arcs, a, b)
    while n + len(trans) < budget and rng.random() < 0.7:
        _link(ids.transition(), trans, arcs, rng.choice(sorted(places)), rng.choice(sorted(places)))

    return Net.of(
        places=places,
        transitions=trans,
        arcs=arcs,
        inputs=[places[0]],
        outputs=[places[-1]],
    )


def _build_tor(budget: int, rng: random.Random, ids: IdSource) -> Net:
    # Occasionally just parallel interface transitions with no places at all.
    if rng.random() < 0.1:
        bundle = [ids.transition() for _ in range(rng.randint(2, min(4, budget)))]
        return Net.of(places=(), transitions=bundle, arcs=(), inputs=bundle, outputs=bundle)

    n_in = rng.randint(1, 2)
    n_out = rng.randint(1, max(1, min(2, budget - 1 - n_in)))
    n = rng.randint(1, max(1, (budget - n_in - n_out + 1) // 2))
    places = [ids.place() for _ in range(n)]
    trans: list[NodeId] = []
    arcs: list[tuple[NodeId, NodeId]] = []

    for a, b in zip(places, places[1:]):
        _link(ids.transition(), trans, arcs, a, b)

    inputs: list[NodeId] = []
    for i in range(n_in):
        t = ids.transition()
        trans.append(t)
        inputs.append(t)
        arcs.append((t, places[0] if i == 0 else rng.choice(sorted(places))))
    outputs: list[NodeId] = []
    for i in range(n_out):
        t = ids.transition()
        trans.append(t)
        outputs.append(t)
        arcs.append(((places[-1] if i == 0 else rng.choice(sorted(places))), t))

    while n + len(trans) < budget and rng.random() < 0.7:
        _link(ids.transition(), trans, arcs, rng.choice(sorted(places)), rng.choice(sorted(places)))

    return Net.of(places=places, transitions=trans, arcs=arcs, inputs=inputs, outputs=outputs)
