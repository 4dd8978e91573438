"""Seeded inputs, CLI operations and output checks for each workload.

A workload is a list of `Op`s, made in two steps.  `plan` draws the inputs
from the workload seed: it runs every seeded search (state-space bands,
dead-ending runs, retries) and records each accepted net as an `Input`
that remakes it.  `build` remakes the nets from those records through
`wfnet`, writes them as `.net` files into a work directory and returns the
ops; it is the part the set-up time measures.  The runner then executes
each op's argv through `wfnet.cli.main` with that directory as the current
one, so every path the CLI prints is relative and the printed bytes do not
depend on where the checkout lives.

Every check here rests on a fact that needs no trust in the reducer or
the explorer:

* generated members come from `generate_andor_net`, and every net built by
  substituting basic shapes is AND-OR and sound for all k (refinement of
  generalised-sound nets keeps them sound);
* so a net with a firing sequence from 1.I to a dead marking other than
  1.O is not AND-OR; planning finds such a sequence for every non-member by
  a seeded random run of its own token game;
* after removing an arc t->p or adding an arc p->t, every reachable marking
  is covered by one the member reaches, so such a single edit of a member
  stays bounded;
* adding the arc t->p to a transition t whose whole preset is the input
  place p makes t fire forever from the initial marking, so the net is
  unbounded and no exploration can complete.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

from wfnet import (
    GenerationRecipe,
    Net,
    explore_reachable,
    generate_andor_net,
    input_marking,
    output_marking,
    place_completion,
    replay,
    serialize_net,
    validate,
)

WORKLOADS = ("reduce-members", "andor-nonmembers", "soundness-bounded")

# Each op of the soundness workload on an unbounded net explores this many
# states for each of k = 1, 2, 3 before it gives up.
UNBOUNDED_MAX_STATES = 800
# The unbounded nets are pumped chains of this many places.  One fixed shape
# keeps their cost, the highest of the workload, the same under every seed.
UNBOUNDED_CHAIN_PLACES = 24


@dataclass(frozen=True)
class Result:
    """What one CLI call produced."""

    code: int
    stdout: str
    files: tuple[str, ...]  # contents of the op's output files, in `Op.outputs` order


@dataclass(frozen=True)
class Op:
    """One CLI command on one generated input.

    `check` returns None when the result is right and a short reason when
    it is not.  `member` names the input of an op whose net is an AND-OR
    member by construction.
    """

    name: str
    argv: tuple[str, ...]
    nodes: int
    outputs: tuple[str, ...]
    check: Callable[[Result], str | None]
    member: str | None = None


@dataclass(frozen=True)
class Input:
    """One input net, as `plan` accepted it.

    `make` remakes the net through `wfnet` without any search, and `role`
    picks the ops and checks it gets.
    """

    name: str
    role: str
    make: Callable[[], Net]


def plan(workload: str, seed: int, scale: str) -> list[Input]:
    """Draw the inputs of `workload` from `seed`; all seeded searching happens here."""
    rng = random.Random(f"{workload}:{seed}")
    planner = {
        "reduce-members": _plan_reduce_members,
        "andor-nonmembers": _plan_andor_nonmembers,
        "soundness-bounded": _plan_soundness_bounded,
    }[workload]
    return planner(rng, scale == "tiny")


def build(inputs: list[Input], workdir: Path) -> list[Op]:
    """Remake the planned nets, write them into `workdir` and return their ops."""
    ops = []
    for item in inputs:
        net = item.make()
        path = f"{item.name}.net"
        (workdir / path).write_text(serialize_net(net), encoding="utf-8")
        ops += _OPS[item.role](item.name, path, net)
    return ops


def member(recipe: GenerationRecipe) -> Net:
    return generate_andor_net(recipe).net


def edited(recipe: GenerationRecipe, dropped: frozenset, added: frozenset) -> Net:
    """The member made from `recipe`, with the arcs `dropped` removed and `added` added."""
    net = member(recipe)
    return net.replace(arcs=(net.arcs - dropped) | added)


def _edit_of(recipe: GenerationRecipe, net: Net, variant: Net) -> Callable[[], Net]:
    """Remakes `variant`, an arc edit of the member `net` made from `recipe`."""
    return partial(edited, recipe, net.arcs - variant.arcs, variant.arcs - net.arcs)


def _recorded(net: Net) -> Callable[[], Net]:
    """Remakes `net` from its node and arc lists."""
    return partial(
        Net.of,
        places=sorted(net.places),
        transitions=sorted(net.transitions),
        arcs=sorted(net.arcs),
        inputs=sorted(net.inputs),
        outputs=sorted(net.outputs),
        name=net.name,
    )


def _recipe(rng: random.Random, steps: int, io_type: str = "place") -> GenerationRecipe:
    return GenerationRecipe(seed=rng.randrange(2**31), substitution_steps=steps, root_io_type=io_type)


# -- reduce-members ---------------------------------------------------------


def chain(rng: random.Random, places: int) -> Net:
    """A sequence p -> t -> p -> ... -> p with shuffled node ids."""
    ids = _shuffled_ids(rng, 2 * places - 1)
    ps = [f"p{ids[2 * k]}" for k in range(places)]
    ts = [f"t{ids[2 * k + 1]}" for k in range(places - 1)]
    arcs = [arc for k, t in enumerate(ts) for arc in ((ps[k], t), (t, ps[k + 1]))]
    return Net.of(places=ps, transitions=ts, arcs=arcs, inputs=[ps[0]], outputs=[ps[-1]])


def nesting(rng: random.Random, levels: int) -> Net:
    """Choice and parallel blocks nested `levels` deep, with shuffled node ids.

    Even levels put a choice between two places: a plain transition, or a
    transition pair enclosing the next level.  Odd levels put a parallel
    split between two transitions: a plain place, or a place pair enclosing
    the next level.  The refinement tree is `levels` + 2 deep.
    """
    ids = iter(_shuffled_ids(rng, 3 * levels + 3))
    src, dst = f"p{next(ids)}", f"p{next(ids)}"
    places, transitions, arcs = [src, dst], [], []
    inputs, outputs = [src], [dst]
    for level in range(levels):
        kind, pool = ("t", transitions) if level % 2 == 0 else ("p", places)
        plain, enter, leave = (f"{kind}{next(ids)}" for _ in range(3))
        pool += [plain, enter, leave]
        arcs += [(src, plain), (plain, dst), (src, enter), (leave, dst)]
        src, dst = enter, leave
    kind, pool = ("t", transitions) if levels % 2 == 0 else ("p", places)
    inner = f"{kind}{next(ids)}"
    pool.append(inner)
    arcs += [(src, inner), (inner, dst)]
    return Net.of(places=places, transitions=transitions, arcs=arcs, inputs=inputs, outputs=outputs)


def _shuffled_ids(rng: random.Random, count: int) -> list[int]:
    ids = list(range(count))
    rng.shuffle(ids)
    return ids


def _plan_reduce_members(rng: random.Random, tiny: bool) -> list[Input]:
    if tiny:
        steps, chains, places, levels = (8,), 1, 20, 6
    else:
        # Substitution steps: about 4 nodes each, so 90 steps is ~360 nodes.
        # The small members hold the median; the few large inputs carry most
        # of the busy time.  Over three passes the ~1400-node member and the
        # nesting give the six slowest executions, and the middle of the
        # nine executions of the chains, alike in cost under every seed, is
        # the tail sample.
        steps, chains, places, levels = (90,) * 12 + (175, 350), 3, 500, 300
    inputs = [Input(f"gen{k}", "reduce", partial(member, _recipe(rng, s))) for k, s in enumerate(steps)]
    inputs += [Input(f"chain{k}", "reduce", _recorded(chain(rng, places))) for k in range(chains)]
    inputs.append(Input("nest0", "reduce", _recorded(nesting(rng, levels))))
    return inputs


def _reduce_ops(name: str, path: str, net: Net) -> list[Op]:
    tree, out = f"{name}.tree", f"{name}.out"
    argv = ("reduce", path, "--tree", tree, "-o", out)
    return [Op(name, argv, len(net), (tree, out), _reduced_to_one(net.nodes))]


def _reduced_to_one(nodes: frozenset[str]) -> Callable[[Result], str | None]:
    def check(result: Result) -> str | None:
        if result.code != 0 or result.stdout:
            return f"exit {result.code} with stdout {result.stdout[:80]!r}"
        tree_text, net_text = result.files
        reduced = json.loads(net_text)
        if len(reduced["places"]) + len(reduced["transitions"]) != 1:
            return "reduced net has more than one node"
        leaves = _leaves(json.loads(tree_text))
        if len(leaves) != len(nodes) or set(leaves) != nodes:
            return "tree leaves differ from the input nodes"
        return None

    return check


def _leaves(forest: list) -> list[str]:
    leaves, todo = [], list(forest)
    while todo:
        entry = todo.pop()
        if entry["children"]:
            todo.extend(entry["children"])
        else:
            leaves.append(entry["node"])
    return leaves


# -- andor-nonmembers -------------------------------------------------------


def layered_dag(rng: random.Random, layers: int, width: int) -> Net:
    """Alternating place and transition layers with random arcs between them.

    Every node gets two predecessors in the layer before and at least one
    successor in the layer after, so every node lies on a path from the
    first (input) layer to the last (output) layer.  With width 3 this
    dense wiring gives nets of one size nearly the same verification cost.
    Retries until a random run dead-ends, which makes the net a certified
    non-member.
    """
    while True:
        ids = iter(_shuffled_ids(rng, layers * width))
        rows = [[f"{'p' if k % 2 == 0 else 't'}{next(ids)}" for _ in range(width)] for k in range(layers)]
        arcs = set()
        for upper, lower in zip(rows, rows[1:]):
            for node in lower:
                arcs.update((src, node) for src in rng.sample(upper, 2))
            for node in upper:
                if not any((node, dst) in arcs for dst in lower):
                    arcs.add((node, rng.choice(lower)))
        net = Net.of(
            places=[n for row in rows[::2] for n in row],
            transitions=[n for row in rows[1::2] for n in row],
            arcs=arcs,
            inputs=rows[0],
            outputs=rows[-1],
        )
        if dead_end(rng, net):
            return net


def dead_end(rng: random.Random, net: Net) -> bool:
    """Does a random run from 1.I stop in a dead marking other than 1.O?

    Fires a random enabled transition until none is enabled, giving up (and
    answering no) after a step budget, since a run of a cyclic net may go on
    forever.
    """
    consumers: dict[str, list[str]] = {p: sorted(net.postset(p)) for p in net.places}
    missing = {t: len(net.preset(t)) for t in net.transitions}
    marking = dict.fromkeys(net.places, 0)
    enabled = {t for t, n in missing.items() if n == 0}

    def add(p: str, n: int) -> None:
        marking[p] += n
        if marking[p] == n == 1 or marking[p] == 0:
            for u in consumers[p]:
                missing[u] -= n
                if missing[u] == 0:
                    enabled.add(u)
                else:
                    enabled.discard(u)

    for p in net.inputs:
        add(p, 1)
    for _ in range(3 * len(net)):
        if not enabled:
            return {p: n for p, n in marking.items() if n} != dict.fromkeys(net.outputs, 1)
        t = rng.choice(sorted(enabled))
        for p in net.preset(t):
            add(p, -1)
        for p in net.postset(t):
            add(p, 1)
    return False


def arc_edits(rng: random.Random, net: Net, tries: int = 20):
    """Up to `tries` variants, each dropping one arc t->p or adding one arc p->t."""
    places, transitions = sorted(net.places), sorted(net.transitions)
    outgoing = sorted((a, b) for a, b in net.arcs if b in net.places)
    for _ in range(tries):
        if rng.random() < 0.5:
            yield net.replace(arcs=net.arcs - {rng.choice(outgoing)})
        else:
            yield net.replace(arcs=net.arcs | {(rng.choice(places), rng.choice(transitions))})


def perturb_to_nonmember(rng: random.Random, net: Net) -> Net | None:
    """An arc edit with a dead-ending run, or None when a few tries find none."""
    return next((c for c in arc_edits(rng, net) if dead_end(rng, c) and validate(c).ok), None)


def edited_nonmember(rng: random.Random, steps: int) -> Callable[[], Net]:
    """A single-edit variant of a generated member that is a certified non-member."""
    while True:
        recipe = _recipe(rng, steps)
        net = member(recipe)
        variant = perturb_to_nonmember(rng, net)
        if variant is not None:
            return _edit_of(recipe, net, variant)


def _plan_andor_nonmembers(rng: random.Random, tiny: bool) -> list[Input]:
    if tiny:
        shapes, steps = ((5, 3),), (10,)
    else:
        # (layers, width): 165, 327 and 651 nodes.  The 651-node DAG gives
        # the slowest executions and the 327-node DAGs, alike in cost, hold
        # the tail sample.  The smallest edits cost less than the 165-node
        # DAGs, so that the median falls among those DAGs.
        shapes = ((55, 3),) * 12 + ((109, 3),) * 3 + ((217, 3),)
        steps = (25,) * 12 + (80,) * 3 + (100,)
    dags = [Input(f"dag{k}", "nonmember", _recorded(layered_dag(rng, *shape))) for k, shape in enumerate(shapes)]
    edits = [Input(f"edit{k}", "nonmember", edited_nonmember(rng, s)) for k, s in enumerate(steps)]
    return dags + edits


def _nonmember_ops(name: str, path: str, net: Net) -> list[Op]:
    return [Op(name, ("verify-andor", path), len(net), (), _stdout_is(2, "AND-OR: no\n"))]


def _stdout_is(code: int, text: str) -> Callable[[Result], str | None]:
    def check(result: Result) -> str | None:
        if result.code != code or result.stdout != text:
            return f"exit {result.code} with stdout {result.stdout[:80]!r}"
        return None

    return check


# -- soundness-bounded ------------------------------------------------------


def checked_form(net: Net) -> Net:
    """The net soundness is decided on: the place completion of a transition-interface net."""
    return place_completion(net) if net.io_type == "transition" else net


def single_token_states(net: Net, cap: int) -> int | None:
    """Reachable markings of the checked form from 1.I, or None past `cap`."""
    checked = checked_form(net)
    graph = explore_reachable(checked, input_marking(checked, 1), max_states=cap)
    return graph.states if graph.complete else None


def banded_member(rng: random.Random, io_type: str, low: int, high: int) -> tuple[GenerationRecipe, Net]:
    """A member of 16-70 nodes whose 1.I state space has low..high-1 markings."""
    while True:
        recipe = _recipe(rng, rng.randint(5, 16), io_type)
        net = member(recipe)
        states = single_token_states(net, high)
        if states is not None and low <= states < high:
            return recipe, net


def perturb_bounded(rng: random.Random, net: Net, low: int, high: int) -> Net | None:
    """An arc edit with low..high-1 1.I markings, or None when a few tries find none.

    Each marking the variant reaches is covered by one the member reaches,
    so the variant stays bounded.
    """
    for candidate in arc_edits(rng, net):
        if candidate != net and validate(candidate).ok:
            states = single_token_states(candidate, high)
            if states is not None and states >= low:
                return candidate
    return None


def banded_edit(rng: random.Random, io_type: str, low: int, high: int) -> Callable[[], Net]:
    """A bounded single-edit variant of a member, both in the state-space band."""
    while True:
        recipe, net = banded_member(rng, io_type, low, high)
        variant = perturb_bounded(rng, net, low, high)
        if variant is not None:
            return _edit_of(recipe, net, variant)


def make_unbounded(rng: random.Random, net: Net) -> Net | None:
    """Add t->p where the whole preset of t is the input place p, if any such t."""
    pumps = sorted(
        (t, p)
        for p in net.inputs & net.places
        for t in net.postset(p)
        if net.preset(t) == {p} and p not in net.postset(t)
    )
    return net.replace(arcs=net.arcs | {rng.choice(pumps)}) if pumps else None


def _plan_soundness_bounded(rng: random.Random, tiny: bool) -> list[Input]:
    # Members are drawn in bands of their 1.I state-space size, so that the
    # mix of cheap and costly ops is the same under every seed.  The bands
    # stop at 15 markings, so that no bounded op costs as much as an
    # unbounded one.
    bands = tuple((low, low + 2) for low in range(6, 16, 2))
    slots = bands[:2] if tiny else bands * 6
    inputs = []
    for k, band in enumerate(slots):
        recipe, _ = banded_member(rng, "transition" if k % 3 == 2 else "place", *band)
        inputs.append(Input(f"member{k}", "member", partial(member, recipe)))
    for k, band in enumerate(slots[: 1 if tiny else 20]):
        io_type = "transition" if k % 3 == 2 else "place"
        inputs.append(Input(f"edit{k}", "edit", banded_edit(rng, io_type, *band)))
    for k in range(1 if tiny else 4):
        pumped = make_unbounded(rng, chain(rng, UNBOUNDED_CHAIN_PLACES))
        inputs.append(Input(f"pump{k}", "pump", _recorded(pumped)))
    return inputs


def _member_ops(name: str, path: str, net: Net) -> list[Op]:
    return [
        Op(f"{name}.star", ("soundness", path), len(net), (), _star_sound, path),
        Op(f"{name}.sub", ("soundness", "--sub", "--k", "2", path), len(net), (), _sub_sound, path),
    ]


def _edit_ops(name: str, path: str, net: Net) -> list[Op]:
    return [
        Op(f"{name}.star", ("soundness", path), len(net), (), _verdicts_replay(net, ("1", "2", "3"))),
        Op(f"{name}.sub", ("soundness", "--sub", "--k", "2", path), len(net), (), _verdicts_replay(net, ("2",))),
    ]


def _pump_ops(name: str, path: str, net: Net) -> list[Op]:
    argv = ("soundness", "--max-states", str(UNBOUNDED_MAX_STATES), path)
    return [Op(f"{name}.star", argv, len(net), (), _inconclusive)]


_STAR_SOUND = re.compile(r"[^:]+:  sound k=\d+ \(\d+ states\)\Z")


def _star_sound(result: Result) -> str | None:
    lines = result.stdout.splitlines()
    if result.code != 0 or len(lines) != 4 or not lines[0].endswith(": sound up to k=3"):
        return f"member not sound: exit {result.code}, {result.stdout[:80]!r}"
    if not all(_STAR_SOUND.match(line) for line in lines[1:]):
        return f"member not sound: {result.stdout[:80]!r}"
    return None


def _sub_sound(result: Result) -> str | None:
    if result.code != 0 or not re.fullmatch(r"[^:]+: substitution sound k=2 \(\d+ states\)\n", result.stdout):
        return f"member not substitution sound: exit {result.code}, {result.stdout[:80]!r}"
    return None


def _inconclusive(result: Result) -> str | None:
    lines = result.stdout.splitlines()
    if result.code != 3 or len(lines) != 4 or not all("inconclusive" in line for line in lines):
        return f"unbounded net not inconclusive: exit {result.code}, {result.stdout[:80]!r}"
    return None


_VERDICT = re.compile(r"[^:]+: (?: |substitution )(sound|unsound) k=(\d+)(.*)\Z")
_WITNESS = re.compile(r": firing (.*?)(?: after removing (\d+) output sets)? reaches stuck marking (\{.*\})\Z")


def _verdicts_replay(net: Net, ks: tuple[str, ...]) -> Callable[[Result], str | None]:
    """Per-k verdicts are sound or unsound, the exit code agrees, witnesses replay."""
    checked = checked_form(net)

    def check(result: Result) -> str | None:
        verdicts = [_VERDICT.match(line) for line in result.stdout.splitlines()]
        verdicts = [v for v in verdicts if v is not None]
        if [v.group(2) for v in verdicts] != list(ks):
            return f"expected verdicts for k={','.join(ks)}: {result.stdout[:80]!r}"
        unsound = [v for v in verdicts if v.group(1) == "unsound"]
        if result.code != (2 if unsound else 0):
            return f"exit {result.code} does not match the verdicts"
        for v in unsound:
            witness = _WITNESS.match(v.group(3))
            if witness is None:
                return f"unparsable witness {v.group(3)[:80]!r}"
            firings, removed, stuck = witness.groups()
            steps = [] if firings == "(empty)" else firings.split(" ")
            k = int(v.group(2))
            try:
                reached = replay(checked, input_marking(checked, k), steps)
                reached = reached - output_marking(checked, 1) * int(removed or 0)
            except (KeyError, ValueError) as exc:
                return f"witness does not replay: {exc}"
            if repr(reached) != stuck:
                return f"witness reaches {reached!r}, not {stuck}"
        return None

    return check


_OPS = {
    "reduce": _reduce_ops,
    "nonmember": _nonmember_ops,
    "member": _member_ops,
    "edit": _edit_ops,
    "pump": _pump_ops,
}
