"""Bounded brute-force soundness checking.

Soundness here is decided by exhaustive exploration of the reachable
markings, capped by a state budget and a per-marking token budget.  Hitting
a cap is a signalled outcome (`Inconclusive`), never an exception: there is
no general decision procedure to fall back on, so the caps are part of the
contract.

Transition-interface nets are checked through their place completion, as
their soundness notions are defined on it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Literal

from .marking import Marking, fire, input_marking, output_marking
from .nets import Net, NodeId, place_completion

MAX_STATES = 100_000
MAX_TOKENS = 64

Status = Literal["sound", "unsound", "inconclusive"]


@dataclass(frozen=True)
class ReachabilityGraph:
    """All markings reachable from `initial` within the exploration bounds.

    `edges` maps each expanded marking to its (transition, successor) pairs
    in deterministic order.  `parent` spans a breadth-first tree used to
    rebuild shortest firing sequences.  `bound_hit` names the first budget
    that was exhausted, if any; the graph is complete when it is None.
    """

    initial: Marking
    edges: dict[Marking, tuple[tuple[NodeId, Marking], ...]]
    parent: dict[Marking, tuple[Marking, NodeId]]
    bound_hit: str | None
    overfull: frozenset[Marking]

    @property
    def complete(self) -> bool:
        return self.bound_hit is None

    @property
    def states(self) -> int:
        return len(self.edges)

    def path_to(self, target: Marking) -> tuple[NodeId, ...]:
        """Shortest firing sequence from the initial marking to `target`."""
        steps: list[NodeId] = []
        m = target
        while m != self.initial:
            m, t = self.parent[m]
            steps.append(t)
        return tuple(reversed(steps))

    def can_reach(self, target: Marking) -> frozenset[Marking]:
        """All explored markings from which `target` is reachable."""
        if target not in self.edges:
            return frozenset()
        backward: dict[Marking, list[Marking]] = {}
        for m, outs in self.edges.items():
            for _, succ in outs:
                backward.setdefault(succ, []).append(m)
        seen = {target}
        frontier = deque([target])
        while frontier:
            m = frontier.popleft()
            for prev in backward.get(m, ()):
                if prev not in seen:
                    seen.add(prev)
                    frontier.append(prev)
        return frozenset(seen)


def explore_reachable(
    net: Net,
    initial: Marking,
    max_states: int = MAX_STATES,
    max_tokens: int = MAX_TOKENS,
) -> ReachabilityGraph:
    """Breadth-first construction of the reachability graph from `initial`.

    Markings holding more than `max_tokens` tokens in total are kept in the
    graph but not expanded; exceeding `max_states` stops the search.  Both
    events mark the graph incomplete.
    """
    if max_states < 1 or max_tokens < 1:
        raise ValueError("exploration bounds must be at least 1")

    # Precompute bag views of the presets and postsets once; firing is then
    # pure marking arithmetic.
    pre = {t: Marking.uniform(net.preset(t)) for t in sorted(net.transitions)}
    post = {t: Marking.uniform(net.postset(t)) for t in sorted(net.transitions)}

    edges: dict[Marking, tuple[tuple[NodeId, Marking], ...]] = {}
    parent: dict[Marking, tuple[Marking, NodeId]] = {}
    overfull: set[Marking] = set()
    bound_hit: str | None = None

    queue = deque([initial])
    seen = {initial}
    while queue:
        m = queue.popleft()
        if m.total() > max_tokens:
            overfull.add(m)
            edges[m] = ()
            bound_hit = bound_hit or "max_tokens"
            continue
        outgoing: list[tuple[NodeId, Marking]] = []
        for t, consumed in pre.items():
            if consumed <= m:
                succ = m - consumed + post[t]
                outgoing.append((t, succ))
                if succ not in seen:
                    if len(seen) >= max_states:
                        bound_hit = bound_hit or "max_states"
                        continue
                    seen.add(succ)
                    parent[succ] = (m, t)
                    queue.append(succ)
        edges[m] = tuple(outgoing)

    return ReachabilityGraph(
        initial=initial,
        edges=edges,
        parent=parent,
        bound_hit=bound_hit,
        overfull=frozenset(overfull),
    )


@dataclass(frozen=True)
class Witness:
    """A replayable counterexample to a soundness property.

    Firing `firings` from the initial marking of the checked net reaches a
    marking from which, after removing `removed_outputs` complete output
    bags, the run can no longer finish; `stuck` is that marking.
    """

    firings: tuple[NodeId, ...]
    stuck: Marking
    removed_outputs: int = 0


@dataclass(frozen=True)
class SoundnessVerdict:
    status: Status
    k: int
    states_explored: int
    checked_net: Net
    bound_hit: str | None = None
    witness: Witness | None = None

    def describe(self) -> str:
        if self.status == "sound":
            return f"sound k={self.k} ({self.states_explored} states)"
        if self.status == "inconclusive":
            return (
                f"inconclusive k={self.k} (bound {self.bound_hit} hit after "
                f"{self.states_explored} states)"
            )
        assert self.witness is not None
        drop = (
            f" after removing {self.witness.removed_outputs} output sets"
            if self.witness.removed_outputs
            else ""
        )
        trace = " ".join(self.witness.firings) or "(empty)"
        return (
            f"unsound k={self.k}: firing {trace}{drop} "
            f"reaches stuck marking {self.witness.stuck}"
        )


def _checked_form(net: Net) -> Net:
    return place_completion(net) if net.io_type == "transition" else net


def check_k_sound(
    net: Net,
    k: int,
    max_states: int = MAX_STATES,
    max_tokens: int = MAX_TOKENS,
) -> SoundnessVerdict:
    """Can every marking reachable from k.I still finish in exactly k.O?

    Transition-interface nets are checked on their place completion, which
    the returned verdict exposes as `checked_net` so witnesses replay.
    """
    return _check(net, k, 0, max_states, max_tokens)


def check_star_sound_bounded(
    net: Net,
    max_k: int = 3,
    max_states: int = MAX_STATES,
    max_tokens: int = MAX_TOKENS,
) -> list[SoundnessVerdict]:
    """k-soundness verdicts for every k from 1 to max_k."""
    if max_k < 1:
        raise ValueError("max_k must be at least 1")
    return [check_k_sound(net, k, max_states, max_tokens) for k in range(1, max_k + 1)]


def summarize_star(verdicts: list[SoundnessVerdict]) -> str:
    """One-line summary over the per-k verdicts."""
    for v in verdicts:
        if v.status == "unsound":
            return f"unsound at k={v.k}"
    for v in verdicts:
        if v.status == "inconclusive":
            return f"inconclusive at k={v.k} (bound {v.bound_hit})"
    return f"sound up to k={verdicts[-1].k}"


def check_substitution_sound_bounded(
    net: Net,
    k: int,
    max_states: int = MAX_STATES,
    max_tokens: int = MAX_TOKENS,
) -> SoundnessVerdict:
    """Soundness under premature removal of complete output bags.

    For every reachable marking x and every k' with 0 <= k' <= k such that x
    covers k' copies of the output bag, the remainder x - k'.O must still be
    able to finish in (k-k').O.  Checked by fresh bounded explorations from
    each remainder, memoized per start marking.
    """
    return _check(net, k, k, max_states, max_tokens)


def _check(net: Net, k: int, max_removed: int, max_states: int, max_tokens: int) -> SoundnessVerdict:
    """Can every x reachable from k.I, less k' <= max_removed output bags, finish in (k-k').O?

    k'=0 is answered by one backward sweep over the reachability graph, the
    other k' by fresh bounded explorations from each remainder, memoized
    per start marking.  Breadth-first insertion order makes the first
    failure a shortest one.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    target_net = _checked_form(net)
    graph = explore_reachable(target_net, input_marking(target_net, k), max_states, max_tokens)
    explored = graph.states

    def verdict(status: Status, **details) -> SoundnessVerdict:
        return SoundnessVerdict(
            status=status, k=k, states_explored=explored, checked_net=target_net, **details
        )

    if not graph.complete:
        return verdict("inconclusive", bound_hit=graph.bound_hit)
    finishing = graph.can_reach(output_marking(target_net, k))
    out_bag = output_marking(target_net, 1)
    remainder_states: dict[Marking, frozenset[Marking]] = {}
    for x in graph.edges:
        for k_removed in range(max_removed + 1):
            if k_removed == 0:
                stuck = x
                ok = x in finishing
            else:
                removed = out_bag * k_removed
                if not removed <= x:
                    break
                stuck = x - removed
                if stuck not in remainder_states:
                    sub = explore_reachable(target_net, stuck, max_states, max_tokens)
                    explored += sub.states
                    if not sub.complete:
                        return verdict("inconclusive", bound_hit=sub.bound_hit)
                    remainder_states[stuck] = frozenset(sub.edges)
                ok = output_marking(target_net, k - k_removed) in remainder_states[stuck]
            if not ok:
                witness = Witness(firings=graph.path_to(x), stuck=stuck, removed_outputs=k_removed)
                return verdict("unsound", witness=witness)
    return verdict("sound")
