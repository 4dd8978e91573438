"""The explorer's observable output, pinned and cross-checked.

The soundness verdicts are pinned as SHA-256 digests of their `describe()`
lines and state counts over a fixed corpus, so any change to the BFS order,
the parent choice or the bound semantics shows up here.  The public graph
of `explore_reachable` is compared edge by edge with a reference BFS built
only from `enabled_transitions` and `fire`.
"""

from __future__ import annotations

import hashlib
import random
from collections import deque

import pytest

from conftest import NETS, load_fixture
from wfnet import (
    GenerationRecipe,
    Marking,
    Net,
    check_k_sound,
    check_substitution_sound_bounded,
    enabled_transitions,
    explore_reachable,
    fire,
    generate_andor_net,
    input_marking,
    output_marking,
    place_completion,
    replay,
    validate,
)

# t1 pumps tokens into b without limit; t2/t3 drain toward the output.
UNBOUNDED = Net.of(
    places=["a", "b", "o"],
    transitions=["t1", "t2", "t3"],
    arcs=[("a", "t1"), ("t1", "a"), ("t1", "b"), ("a", "t2"), ("t2", "o"),
          ("b", "t3"), ("t3", "o")],
    inputs=["a"],
    outputs=["o"],
)

# t1 marks the output early; t2 needs that output token to clear `a`.  The
# net is k-sound, but removing the early output bag leaves `a` stuck, so its
# substitution witness has removed_outputs > 0.
EARLY_OUTPUT = Net.of(
    places=["a", "i", "o"],
    transitions=["t1", "t2"],
    arcs=[("i", "t1"), ("t1", "o"), ("t1", "a"), ("a", "t2"), ("o", "t2"), ("t2", "o")],
    inputs=["i"],
    outputs=["o"],
)


def member(seed: int) -> Net:
    io_type = "transition" if seed % 2 else "place"
    recipe = GenerationRecipe(seed=seed, substitution_steps=6, root_io_type=io_type)
    return generate_andor_net(recipe).net


def arc_edits(seed: int, net: Net, tries: int = 10) -> list[Net]:
    """Valid variants, each dropping one arc t->p or adding one arc p->t."""
    rng = random.Random(seed)
    places, transitions = sorted(net.places), sorted(net.transitions)
    outgoing = sorted((a, b) for a, b in net.arcs if b in net.places)
    variants = []
    for _ in range(tries):
        if rng.random() < 0.5:
            variant = net.replace(arcs=net.arcs - {rng.choice(outgoing)})
        else:
            variant = net.replace(arcs=net.arcs | {(rng.choice(places), rng.choice(transitions))})
        if variant != net and validate(variant).ok:
            variants.append(variant)
    return variants


def verdicts(net: Net, **bounds) -> list:
    """k = 1..3 and substitution soundness at k = 2, as the CLI runs them."""
    ks = [check_k_sound(net, k, **bounds) for k in (1, 2, 3)]
    return ks + [check_substitution_sound_bounded(net, 2, **bounds)]


def corpus(group: str) -> list[tuple[str, object]]:
    if group == "fixtures":
        return [
            (f"{stem}:{i}", v)
            for stem in sorted(NETS)
            for i, v in enumerate(verdicts(load_fixture(stem)))
        ]
    if group == "members":
        return [(f"member{s}:{i}", v) for s in range(6) for i, v in enumerate(verdicts(member(s)))]
    if group == "edits":
        cases = [
            (f"edit{s}.{j}:{i}", v)
            for s in (28, 31, 32, 35, 38)
            for j, variant in enumerate(arc_edits(s, member(s)))
            for i, v in enumerate(verdicts(variant, max_states=5000))
        ]
        cases += [(f"early:{i}", v) for i, v in enumerate(verdicts(EARLY_OUTPUT))]
        return cases
    assert group == "unbounded"
    return [
        (f"unbounded.{name}:{i}", v)
        for name, bounds in (("states", {"max_states": 40}), ("tokens", {"max_tokens": 5}))
        for i, v in enumerate(verdicts(UNBOUNDED, **bounds))
    ]


def digest(cases: list[tuple[str, object]]) -> str:
    text = "".join(f"{label} {v.states_explored} {v.describe()}\n" for label, v in cases)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# SHA-256 of "label states_explored describe()" lines, one per verdict.
VERDICT_DIGESTS = {
    "fixtures": "acf4777f68217e50998f4c37aac6fbe620247f764965c56246e0c83aa4e20e82",
    "members": "f36e1e141d84c76714d472474d5306140848074ad2ba3d7654fd561a10cf8984",
    "edits": "6624895a736108a85e5e87458d78355c3e6ac24a04e92037eb51c3e3c36d2cbd",
    "unbounded": "ffd83dc49c6e3ff6ada0291e06a4d7c06c4856de93f2fc3dc32c32eb35f55ac9",
}


@pytest.mark.parametrize("group", sorted(VERDICT_DIGESTS))
def test_verdict_bytes_are_pinned(group):
    assert digest(corpus(group)) == VERDICT_DIGESTS[group]


def test_corpus_covers_every_verdict_text():
    found = [v for group in VERDICT_DIGESTS for _, v in corpus(group)]
    assert {v.status for v in found} == {"sound", "unsound", "inconclusive"}
    assert {v.bound_hit for v in found if v.status == "inconclusive"} == {"max_states", "max_tokens"}
    assert any(v.witness and v.witness.removed_outputs for v in found)
    assert any(v.checked_net.io_type == "place" and v.checked_net.inputs == {"p_i"} for v in found)


def reference_graph(net: Net, initial: Marking, max_states: int, max_tokens: int):
    """The same breadth-first search, on `Marking`s through `enabled_transitions` and `fire`."""
    edges: dict[Marking, tuple] = {}
    parent: dict[Marking, tuple[Marking, str]] = {}
    overfull: set[Marking] = set()
    bound_hit = None
    queue, seen = deque([initial]), {initial}
    while queue:
        m = queue.popleft()
        if m.total() > max_tokens:
            overfull.add(m)
            edges[m] = ()
            bound_hit = bound_hit or "max_tokens"
            continue
        outgoing = []
        for t in sorted(enabled_transitions(net, m)):
            succ = fire(net, m, t)
            outgoing.append((t, succ))
            if succ not in seen:
                if len(seen) >= max_states:
                    bound_hit = bound_hit or "max_states"
                    continue
                seen.add(succ)
                parent[succ] = (m, t)
                queue.append(succ)
        edges[m] = tuple(outgoing)
    return edges, parent, overfull, bound_hit


def backward_closure(edges: dict, target: Marking) -> frozenset[Marking]:
    if target not in edges:
        return frozenset()
    backward: dict[Marking, set[Marking]] = {}
    for m, outs in edges.items():
        for _, succ in outs:
            backward.setdefault(succ, set()).add(m)
    seen, todo = {target}, [target]
    while todo:
        for prev in backward.get(todo.pop(), ()):
            if prev not in seen:
                seen.add(prev)
                todo.append(prev)
    return frozenset(seen)


def differential_cases() -> list:
    cases = []
    for seed in (1, 2, 3, 4, 7, 11):
        net = member(seed)
        cases.append(pytest.param(net, id=f"member{seed}"))
        cases += [
            pytest.param(variant, id=f"edit{seed}.{j}")
            for j, variant in enumerate(arc_edits(seed, net, tries=4))
        ]
    return cases + [pytest.param(UNBOUNDED, id="unbounded"), pytest.param(EARLY_OUTPUT, id="early")]


@pytest.mark.parametrize("net", differential_cases())
@pytest.mark.parametrize("k, max_states, max_tokens", [(1, 400, 64), (2, 400, 64), (2, 25, 64), (3, 400, 6)])
def test_graph_matches_reference_bfs(net, k, max_states, max_tokens):
    checked = place_completion(net) if net.io_type == "transition" else net
    initial = input_marking(checked, k)
    graph = explore_reachable(checked, initial, max_states, max_tokens)
    edges, parent, overfull, bound_hit = reference_graph(checked, initial, max_states, max_tokens)
    assert graph.initial == initial
    assert list(graph.edges.items()) == list(edges.items())
    assert graph.parent == parent
    assert graph.overfull == overfull
    assert graph.bound_hit == bound_hit
    assert graph.states == len(edges)
    goal = output_marking(checked, k)
    assert graph.can_reach(goal) == backward_closure(edges, goal)
    for target in graph.edges:
        assert replay(checked, initial, graph.path_to(target)) == target


@pytest.mark.parametrize("net", differential_cases())
@pytest.mark.parametrize("k, max_states", [(2, 400), (2, 25)])
def test_each_state_is_stored_once(net, k, max_states):
    """Every edge into a state holds the state's own key tuple, not a copy.

    A successor past `max_states` is no state of the graph and is skipped.
    """
    checked = place_completion(net) if net.io_type == "transition" else net
    graph = explore_reachable(checked, input_marking(checked, k), max_states)
    stored = {m: m for m in graph._edges}
    for outs in graph._edges.values():
        for _, succ in outs:
            assert succ not in stored or succ is stored[succ]


class TestForeignPlaces:
    """A marking with tokens on a node that is no place of the net is refused."""

    def test_explore_reachable(self):
        with pytest.raises(KeyError):
            explore_reachable(UNBOUNDED, Marking({"a": 1, "zz": 2}))

    def test_fire(self):
        with pytest.raises(KeyError):
            fire(UNBOUNDED, Marking({"a": 1, "zz": 2}), "t2")

    def test_replay(self):
        with pytest.raises(KeyError):
            replay(UNBOUNDED, Marking({"a": 1, "zz": 2}), ["t2"])

    def test_transition_is_no_place(self):
        with pytest.raises(KeyError):
            explore_reachable(UNBOUNDED, Marking({"a": 1, "t1": 1}))
