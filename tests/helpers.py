"""Independent brute-force oracles and small-net utilities for the tests.

Everything here is deliberately written against plain dicts and sets, not
the library's Marking or ReachabilityGraph types, so that agreement between
an oracle and the implementation actually means something.
"""

from __future__ import annotations

import functools
import itertools
import json
import random

from wfnet import ClassLabel, Net, subnet_view, validate
from wfnet import reduction
from wfnet.classes import BASIC_CLASS_NAMES
from wfnet.nets import descendants, is_acyclic

Bag = tuple[tuple[str, int], ...]


def to_bag(counts: dict[str, int]) -> Bag:
    return tuple(sorted((p, c) for p, c in counts.items() if c))


def fire_all(net: Net, counts: dict[str, int]) -> list[tuple[str, dict[str, int]]]:
    """Every enabled transition with its successor, by transition id."""
    out = []
    for t in sorted(net.transitions):
        pre = net.preset(t)
        if all(counts.get(p, 0) >= 1 for p in pre):
            nxt = dict(counts)
            for p in pre:
                nxt[p] -= 1
            for p in net.postset(t):
                nxt[p] = nxt.get(p, 0) + 1
            out.append((t, {p: c for p, c in nxt.items() if c}))
    return out


def reach_set(net: Net, start: dict[str, int], limit: int = 200_000) -> set[Bag] | None:
    """All reachable bags, or None if the state space exceeds `limit`."""
    seen = {to_bag(start)}
    frontier = [start]
    while frontier:
        nxt = []
        for m in frontier:
            for _, succ in fire_all(net, m):
                bag = to_bag(succ)
                if bag not in seen:
                    seen.add(bag)
                    if len(seen) > limit:
                        return None
                    nxt.append(succ)
        frontier = nxt
    return seen


def can_reach(net: Net, start: dict[str, int], goal: Bag, limit: int = 200_000) -> bool:
    seen = {to_bag(start)}
    frontier = [start]
    while frontier:
        if goal in seen:
            return True
        nxt = []
        for m in frontier:
            for _, succ in fire_all(net, m):
                bag = to_bag(succ)
                if bag not in seen:
                    seen.add(bag)
                    if len(seen) > limit:
                        raise RuntimeError("oracle state limit hit")
                    nxt.append(succ)
        frontier = nxt
    return goal in seen


def interface_bag(net: Net, nodes: frozenset[str], k: int) -> dict[str, int]:
    return {p: k for p in nodes} if k else {}


def oracle_k_sound(net: Net, k: int) -> tuple[bool, Bag | None]:
    """Exhaustive k-soundness for place-interface nets with finite state space."""
    start = interface_bag(net, net.inputs, k)
    goal = to_bag(interface_bag(net, net.outputs, k))
    space = reach_set(net, start)
    assert space is not None, "oracle needs a finite state space"
    for bag in sorted(space):
        if not can_reach(net, dict(bag), goal):
            return False, bag
    return True, None


def oracle_substitution_sound(net: Net, k: int) -> tuple[bool, tuple[Bag, int] | None]:
    """Exhaustive check of the substitution variant for place-interface nets."""
    start = interface_bag(net, net.inputs, k)
    space = reach_set(net, start)
    assert space is not None
    for k_prime in range(k + 1):
        removed = interface_bag(net, net.outputs, k_prime)
        goal = to_bag(interface_bag(net, net.outputs, k - k_prime))
        for bag in sorted(space):
            counts = dict(bag)
            if all(counts.get(p, 0) >= c for p, c in removed.items()):
                rest = {p: c - removed.get(p, 0) for p, c in counts.items()}
                if not can_reach(net, rest, goal):
                    return False, (bag, k_prime)
    return True, None


# A state of the exhaustive contraction search.  Nodes are frozensets of
# original ids: the node standing for a contracted region is the set of
# everything it absorbed, which makes states from different contraction
# orders of the same regions literally equal and lets the memo merge them.
_State = tuple[frozenset, frozenset, frozenset, frozenset, frozenset]


def _closure(start: set, adjacency: dict, allowed: frozenset) -> set:
    seen = set(start)
    work = list(start)
    while work:
        n = work.pop()
        for m in adjacency.get(n, ()):
            if m in allowed and m not in seen:
                seen.add(m)
                work.append(m)
    return seen


@functools.lru_cache(maxsize=64)
def _neighbours(arcs: frozenset) -> tuple[dict, dict]:
    """Each node's producers and consumers under `arcs`."""
    producers: dict = {}
    consumers: dict = {}
    for a, b in arcs:
        producers.setdefault(b, set()).add(a)
        consumers.setdefault(a, set()).add(b)
    return producers, consumers


def _contractible(state: _State, sel: frozenset):
    """(inputs, outputs, io type) of the induced view when `sel` may be
    contracted: at least two nodes, a workflow net in a basic class, with
    all inputs and all outputs agreeing on their outside wiring."""
    places, transitions, arcs, inputs, outputs = state
    if len(sel) < 2:
        return None
    # A member is a view input when it is a net input or has a producer
    # outside `sel`; dually for outputs.
    producers, consumers = _neighbours(arcs)
    vin = {n for n in sel if n in inputs or not sel.issuperset(producers.get(n, ()))}
    vout = {n for n in sel if n in outputs or not sel.issuperset(consumers.get(n, ()))}
    if not vin or not vout:
        return None
    iface = vin | vout
    if iface <= places:
        io = "place"
    elif iface <= transitions:
        io = "transition"
    else:
        return None

    forward: dict = {}
    backward: dict = {}
    internal = [(a, b) for a, b in arcs if a in sel and b in sel]
    for a, b in internal:
        forward.setdefault(a, []).append(b)
        backward.setdefault(b, []).append(a)
    if _closure(vin, forward, sel) != sel or _closure(vout, backward, sel) != sel:
        return None

    pre = {n: 0 for n in sel}
    post = {n: 0 for n in sel}
    for a, b in internal:
        post[a] += 1
        pre[b] += 1

    def wired(kind: frozenset) -> bool:
        # One producer and one consumer each, interface standing in for
        # the missing edge.
        for n in sel & kind:
            if not ((n in vin and pre[n] == 0) or (n not in vin and pre[n] == 1)):
                return False
            if not ((n in vout and post[n] == 0) or (n not in vout and post[n] == 1)):
                return False
        return True

    def acyclic() -> bool:
        marks: dict = {}
        for root in sel:
            if root in marks:
                continue
            stack = [(root, iter(forward.get(root, ())))]
            marks[root] = "open"
            while stack:
                n, succs = stack[-1]
                for m in succs:
                    if marks.get(m) == "open":
                        return False
                    if m not in marks:
                        marks[m] = "open"
                        stack.append((m, iter(forward.get(m, ()))))
                        break
                else:
                    marks[n] = "done"
                    stack.pop()
        return True

    one_one = len(vin) == 1 and len(vout) == 1
    if io == "place":
        basic = (wired(places) and acyclic()) or (one_one and wired(transitions))
    else:
        basic = wired(transitions) or (one_one and wired(places) and acyclic())
    if not basic:
        return None

    for group, pool, side in ((vin, inputs, "in"), (vout, outputs, "out")):
        nodes = sorted(group, key=sorted)
        first = nodes[0]
        if side == "in":
            outside = {a for a, b in arcs if b == first and a not in sel}
        else:
            outside = {b for a, b in arcs if a == first and b not in sel}
        for n in nodes[1:]:
            if side == "in":
                other = {a for a, b in arcs if b == n and a not in sel}
            else:
                other = {b for a, b in arcs if a == n and b not in sel}
            if other != outside or (n in pool) != (first in pool):
                return None
    return vin, vout, io


def _contract_state(state: _State, sel: frozenset, io: str) -> _State:
    places, transitions, arcs, inputs, outputs = state
    fresh = frozenset().union(*sel)
    new_arcs = set()
    for a, b in arcs:
        if a not in sel and b not in sel:
            new_arcs.add((a, b))
        elif a not in sel and b in sel:
            new_arcs.add((a, fresh))
        elif a in sel and b not in sel:
            new_arcs.add((fresh, b))
    new_places = set(places - sel)
    new_transitions = set(transitions - sel)
    (new_places if io == "place" else new_transitions).add(fresh)
    new_inputs = set(inputs - sel)
    if inputs & sel:
        new_inputs.add(fresh)
    new_outputs = set(outputs - sel)
    if outputs & sel:
        new_outputs.add(fresh)
    return (
        frozenset(new_places), frozenset(new_transitions), frozenset(new_arcs),
        frozenset(new_inputs), frozenset(new_outputs),
    )


def _search(state: _State, memo: dict) -> bool:
    nodes = state[0] | state[1]
    if len(nodes) == 1:
        return True
    if state in memo:
        return memo[state]
    memo[state] = False
    ordered = sorted(nodes, key=sorted)
    for size in range(2, len(ordered) + 1):
        for combo in itertools.combinations(ordered, size):
            sel = frozenset(combo)
            hit = _contractible(state, sel)
            if hit is None:
                continue
            if _search(_contract_state(state, sel, hit[2]), memo):
                memo[state] = True
                return True
    return False


def _state(net: Net) -> _State:
    wrap = {n: frozenset({n}) for n in net.places | net.transitions}
    return (
        frozenset(wrap[p] for p in net.places),
        frozenset(wrap[t] for t in net.transitions),
        frozenset((wrap[a], wrap[b]) for a, b in net.arcs),
        frozenset(wrap[n] for n in net.inputs),
        frozenset(wrap[n] for n in net.outputs),
    )


def oracle_andor(net: Net) -> bool:
    """Does any sequence of contractions collapse `net` to one node?

    Tries every node subset at every step, so it does not rely on
    confluence, on the library's subnet search, or on its contraction
    code.  Exponential, hence the size guard.
    """
    assert len(net) <= 14, "oracle enumerates all subsets, keep nets small"
    return _search(_state(net), {})


def contractible_subset(net: Net) -> frozenset | None:
    """Some node subset of `net` that `_contractible` accepts, or None.

    Tries every subset of at least two nodes, smallest first.
    """
    assert len(net) <= 14, "enumerates all subsets, keep nets small"
    state = _state(net)
    nodes = sorted(state[0] | state[1], key=sorted)
    for size in range(2, len(nodes) + 1):
        for combo in itertools.combinations(nodes, size):
            sel = frozenset(combo)
            if _contractible(state, sel) is not None:
                return frozenset().union(*sel)
    return None


def random_wf_nets(count: int, seed: int) -> list[Net]:
    """`count` seeded random workflow nets of 2-7 places and 2-7 transitions.

    Each draw picks an arc density in 0.15-0.5, puts every place-transition
    arc in either direction with that chance, and makes one or two nodes of
    one type the inputs and one or two the outputs; draws that do not
    validate are dropped.
    """
    rng = random.Random(seed)
    nets: list[Net] = []
    while len(nets) < count:
        places = [f"p{k}" for k in range(rng.randint(2, 7))]
        transitions = [f"t{k}" for k in range(rng.randint(2, 7))]
        density = rng.uniform(0.15, 0.5)
        arcs = [arc for p in places for t in transitions for arc in ((p, t), (t, p)) if rng.random() < density]
        interface = places if rng.random() < 0.5 else transitions
        net = Net.of(
            places=places,
            transitions=transitions,
            arcs=arcs,
            inputs=rng.sample(interface, rng.randint(1, 2)),
            outputs=rng.sample(interface, rng.randint(1, 2)),
        )
        if validate(net).ok:
            nets.append(net)
    return nets


def perturb(net: Net, seed: int, tries: int = 40) -> Net | None:
    """A random single-edit variant of `net` that still validates.

    Edits: toggle one arc, or move one interface membership.  Returns None
    when no valid variant is found within `tries` attempts.
    """
    rng = random.Random(seed)
    places = sorted(net.places)
    transitions = sorted(net.transitions)
    interface_pool = places if net.io_type == "place" else transitions
    for _ in range(tries):
        choice = rng.randrange(3)
        if choice == 0 and places and transitions:
            p = rng.choice(places)
            t = rng.choice(transitions)
            arc = (p, t) if rng.random() < 0.5 else (t, p)
            candidate = net.replace(arcs=net.arcs ^ {arc})
        elif choice == 1 and interface_pool:
            n = rng.choice(interface_pool)
            candidate = net.replace(inputs=net.inputs ^ {n})
        elif choice == 2 and interface_pool:
            n = rng.choice(interface_pool)
            candidate = net.replace(outputs=net.outputs ^ {n})
        else:
            continue
        if candidate != net and validate(candidate).ok:
            return candidate
    return None


def reference_scan(net: Net, order=None):
    """`find_contractible` growing every reachable same-type pair.

    The loop and parallel phases, then `_grow` from every focus to every
    same-type node it reaches, in rank order, with no filter on the pairs:
    the scan whose first hit the filtered completeness pass must return.
    Unlike the oracles above it reuses the library's detectors and walk,
    so it checks only which pairs the pass grows.
    """
    ordering = list(order) if order is not None else reduction.node_order(net)
    rank = {n: k for k, n in enumerate(ordering)}
    places = [n for n in ordering if net.is_place(n)]
    for detect, foci in ((reduction._loop, places), (reduction._parallel, ordering)):
        for focus in foci:
            selection = detect(net, focus, rank)
            if selection is not None:
                return reduction._hit(net, selection)
    for focus in ordering:
        same_type = net.is_place(focus)
        reach = descendants(net, focus) - {focus}
        for o in sorted((n for n in reach if net.is_place(n) == same_type), key=rank.__getitem__):
            hit = reduction._grow(net, focus, o)
            if hit is not None:
                return hit
    return None


def reference_grow(net: Net, i: str, o: str, cap=None):
    """`reduction._grow` taking each pending node with `min(pending)`.

    The walk as it was written before pending nodes went on a heap: a set
    of pending nodes, the least id taken first, and the same pruning and
    final check through `reduction._hit`.
    """
    possible = {"11pOR", "pAND"} if net.is_place(i) else {"11tAND", "tOR"}
    selection = {i, o}
    ins = {i}
    outs = {o}
    pending = {i, o}
    pre_i = net.preset(i)
    post_o = net.postset(o)
    i_is_input = i in net.inputs
    o_is_output = o in net.outputs

    while pending and possible:
        n = min(pending)
        pending.remove(n)

        pre_n = net.preset(n)
        if pre_n == pre_i and (n in net.inputs) == i_is_input:
            if n not in ins:
                possible -= {"11pOR", "11tAND"}
                ins.add(n)
        else:
            pending |= pre_n - selection
            selection |= pre_n

        post_n = net.postset(n)
        if post_n == post_o and (n in net.outputs) == o_is_output:
            if n not in outs:
                possible -= {"11pOR", "11tAND"}
                outs.add(n)
        else:
            pending |= post_n - selection
            selection |= post_n

        inner_pre = len(pre_n & selection)
        inner_post = len(post_n & selection)
        if (
            (n in ins and inner_pre != 0)
            or (n not in ins and inner_pre != 1)
            or (n in outs and inner_post != 0)
            or (n not in outs and inner_post != 1)
        ):
            if net.is_place(n):
                possible -= {"pAND", "11tAND"}
            else:
                possible -= {"tOR", "11pOR"}

        if cap is not None and len(selection) > cap:
            return None

    return reduction._hit(net, frozenset(selection), possible) if possible else None


def reference_path_quotient(closure_before: dict, closure_after: dict, selection, fresh) -> bool:
    """`subnets._is_path_quotient` written as two pairwise loops.

    Every path of `before` must map to a path of `after`, and every path of
    `after` must have a preimage path in `before`, tested one (origin,
    target) pair at a time.  It raises KeyError when the node sets of the
    two nets do not match under the quotient map.
    """
    members = frozenset(selection)

    def image(n):
        return fresh if n in members else n

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


def reference_forest_json(forest) -> str:
    """The tree file bytes written the old way: nested dicts through `json.dumps`.

    Recursive on both sides, so only for forests a few hundred levels deep.
    """

    def to_data(tree):
        if isinstance(tree, reduction.Leaf):
            return {"node": tree.node, "classes": [], "children": []}
        return {
            "node": tree.node,
            "classes": sorted(tree.classes),
            "children": [to_data(child) for child in tree.children],
        }

    roots = sorted(forest, key=lambda t: t.first_leaf)
    return json.dumps([to_data(t) for t in roots], indent=2, sort_keys=True) + "\n"


def deep_tree(levels: int, bottom: str = "n0"):
    """A refinement tree `levels` deep, built by hand: each level puts one
    leaf beside the tree below it, and `bottom` is the deepest leaf."""
    tree = reduction.Leaf(bottom)
    for level in range(1, levels):
        tree = reduction.Internal(
            node=f"x{level}", classes=frozenset({"pAND"}), children=(tree, reduction.Leaf(f"n{level}"))
        )
    return tree


def reference_lemma(net: Net, i: str, o: str) -> bool:
    """The refined lemma of `reduction.find_contractible`, coded from its statement.

    (b) or (c); or (a) for the one-in, one-out class, read off `post(i)` and
    `pre(o)`; or (a) for the AND-kind class together with D2, tested at
    once on every node around the transitions (places) of `post(i)` and
    `pre(o)`, not split into a focus half and a candidate half.
    """

    def wired_in(n):
        return net.preset(n), n in net.inputs

    def wired_out(n):
        return net.postset(n), n in net.outputs

    def one_in_one_out(near):
        return bool(near) and all(len(net.preset(m)) == 1 and len(net.postset(m)) == 1 for m in near)

    if wired_out(i) == wired_out(o) or wired_in(i) == wired_in(o):
        return True
    if one_in_one_out(net.postset(i)) and one_in_one_out(net.preset(o)):
        return True
    if len(net.postset(i)) != 1 or len(net.preset(o)) != 1:
        return False
    around = set()
    for t in net.postset(i) | net.preset(o):
        around |= net.preset(t) | net.postset(t)
    return all(
        (len(net.preset(m)) == 1 or wired_in(m) == wired_in(i))
        and (len(net.postset(m)) == 1 or wired_out(m) == wired_out(o))
        for m in around
    )


def reference_twins(net: Net, focus: str) -> set:
    """The nodes reachable from focus that share its (preset, input membership) or (postset, output membership)."""
    return {
        n
        for n in descendants(net, focus) - {focus}
        if (net.preset(n), n in net.inputs) == (net.preset(focus), focus in net.inputs)
        or (net.postset(n), n in net.outputs) == (net.postset(focus), focus in net.outputs)
    }


def reference_nearby(net: Net, focus: str, rank: dict) -> list:
    """`reduction._nearby` from BFS distances, testing every node's type.

    Every node reachable from focus gets its distance; the same-type ones
    are ordered by distance and then rank, the first `_CANDIDATE_CAP` are
    kept, and those `reference_lemma` rules out are dropped.  There is no
    shortcut for a focus that only twins can match, acyclic net or not.
    """
    distance = {focus: 0}
    frontier = [focus]
    while frontier:
        following = []
        for n in frontier:
            for m in net.postset(n):
                if m not in distance:
                    distance[m] = distance[n] + 1
                    following.append(m)
        frontier = following
    same_type = [n for n in distance if n != focus and net.is_place(n) == net.is_place(focus)]
    kept = sorted(same_type, key=lambda n: (distance[n], rank[n]))[: reduction._CANDIDATE_CAP]
    return [o for o in kept if reference_lemma(net, focus, o)]


def layered_dag(seed: int, layers: int, width: int = 3) -> Net:
    """Alternating place and transition layers, places first and last.

    Every node below the first layer has two predecessors in the layer
    above, and every node above the last layer at least one successor in
    the layer below, so every node lies on a path from the first layer
    (the inputs) to the last (the outputs).
    """
    rng = random.Random(seed)
    rows = [[f"{'pt'[k % 2]}{k}_{j}" for j in range(width)] for k in range(layers)]
    arcs: set[tuple[str, str]] = set()
    for above, below in zip(rows, rows[1:]):
        for n in below:
            arcs |= {(m, n) for m in rng.sample(above, 2)}
        for m in above:
            if not any(a == m for a, _ in arcs):
                arcs.add((m, rng.choice(below)))
    return Net.of(
        places=[n for row in rows[::2] for n in row],
        transitions=[n for row in rows[1::2] for n in row],
        arcs=arcs,
        inputs=rows[0],
        outputs=rows[-1],
    )


def fan(width: int) -> Net:
    """`width` parallel transitions from p to q, between i -> a -> p and q -> b -> o."""
    spokes = [f"t{k}" for k in range(width)]
    return Net.of(
        places=["i", "p", "q", "o"],
        transitions=["a", "b", *spokes],
        arcs=[("i", "a"), ("a", "p"), ("q", "b"), ("b", "o")]
        + [("p", t) for t in spokes] + [(t, "q") for t in spokes],
        inputs=["i"],
        outputs=["o"],
    )


def state_machine(size: int, seed: int) -> Net:
    """A strongly connected state machine on places p0 ... p(size-1).

    One transition rk per ring step pk -> p(k+1 mod size), and `size` chord
    transitions ck, each between a seeded random pair of distinct places.
    p0 is the only input and the only output, so the whole net is `11pOR`.
    """
    rng = random.Random(seed)
    places = [f"p{k}" for k in range(size)]
    arcs = []
    for k in range(size):
        arcs += [(f"p{k}", f"r{k}"), (f"r{k}", f"p{(k + 1) % size}")]
        source, target = rng.sample(places, 2)
        arcs += [(source, f"c{k}"), (f"c{k}", target)]
    return Net.of(
        places=places,
        transitions=[f"{kind}{k}" for kind in "rc" for k in range(size)],
        arcs=arcs,
        inputs=["p0"],
        outputs=["p0"],
    )


def chains(width: int, variant: str) -> Net:
    """`width` chains p -> tk -> qk -> uk -> r between i -> a -> p and r -> b -> o.

    `variant` adds an arc from the middle chain's place to b (side_exit), a
    transition v from that place to o (second_exit), or arcs qk -> u(k+1)
    for every seventh k (cross_arcs).  The first and the last do not reduce
    to one node.
    """
    places = ["i", "p", "r", "o"] + [f"q{k}" for k in range(width)]
    transitions = ["a", "b"] + [f"t{k}" for k in range(width)] + [f"u{k}" for k in range(width)]
    arcs = [("i", "a"), ("a", "p"), ("r", "b"), ("b", "o")]
    for k in range(width):
        arcs += [("p", f"t{k}"), (f"t{k}", f"q{k}"), (f"q{k}", f"u{k}"), (f"u{k}", "r")]
    middle = f"q{width // 2}"
    if variant == "side_exit":
        arcs.append((middle, "b"))
    elif variant == "second_exit":
        transitions.append("v")
        arcs += [(middle, "v"), ("v", "o")]
    elif variant == "cross_arcs":
        arcs += [(f"q{k}", f"u{k + 1}") for k in range(0, width - 1, 7)]
    else:
        raise ValueError(f"unknown variant {variant!r}")
    return Net.of(places=places, transitions=transitions, arcs=arcs, inputs=["i"], outputs=["o"])


def reference_label(net: Net) -> ClassLabel:
    """`classes.classify` composed of separate reads of the net, not one pass.

    The wiring of every place and every transition, `nets.is_acyclic`, the
    interface sizes and `Net.io_type`, each read on its own.
    """

    def wired(nodes):
        return all(
            len(net.preset(n)) == (0 if n in net.inputs else 1)
            and len(net.postset(n)) == (0 if n in net.outputs else 1)
            for n in nodes
        )

    return ClassLabel(
        and_property=wired(net.places),
        or_property=wired(net.transitions),
        acyclic=is_acyclic(net),
        one_input=len(net.inputs) == 1,
        one_output=len(net.outputs) == 1,
        io_type=net.io_type,
    )


def reference_hit(net: Net, selection, possible=frozenset(BASIC_CLASS_NAMES)):
    """`reduction._hit` composed of the pieces it replaces, on a view `Net`.

    Builds the view with `subnet_view`, refuses it unless it is a workflow
    net, labels it with `reference_label`, applies the cyclic-view rule
    (a cyclic view is refused when `possible` holds nothing but pAND and
    11tAND), and refuses a label with no basic class or a selection whose
    view inputs, or outputs, have two outside-wiring signatures.
    """
    view = subnet_view(net, selection)
    if not view.is_wf:
        return None
    label = reference_label(view.net)
    if not label.acyclic and not possible - {"pAND", "11tAND"}:
        return None
    if not label.basic_classes:
        return None
    members = view.members
    signatures_in = {(net.preset(n) - members, n in net.inputs) for n in view.net.inputs}
    signatures_out = {(net.postset(n) - members, n in net.outputs) for n in view.net.outputs}
    if len(signatures_in) > 1 or len(signatures_out) > 1:
        return None
    return members, label.basic_classes
