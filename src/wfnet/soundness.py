"""Bounded brute-force soundness checking.

Soundness here is decided by exhaustive exploration of the reachable
markings, capped by a state budget and a per-marking token budget.  Hitting
a cap is a signalled outcome (`Inconclusive`), never an exception: there is
no general decision procedure to fall back on, so the caps are part of the
contract.

Transition-interface nets are checked through their place completion, as
their soundness notions are defined on it.

The search runs on packed states: token counts in a tuple indexed by the
net's sorted places.  Each transition is precomputed once as its preset
and postset indices, so enabling is a test over a few indices, firing a
list patch, and the token total is carried along with each state.
`Marking`s appear only at the API boundary: the `ReachabilityGraph` views
are built from the packed states on first access, and the checks turn only
remainder starts and witnesses back into markings.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Literal

from .marking import Marking, input_marking, output_marking
from .nets import Net, NodeId, _reach, place_completion

MAX_STATES = 100_000
MAX_TOKENS = 64

Status = Literal["sound", "unsound", "inconclusive"]


# A marking packed as token counts indexed by the net's sorted places.
Packed = tuple[int, ...]


@dataclass(frozen=True)
class ReachabilityGraph:
    """All markings reachable from `initial` within the exploration bounds.

    `edges` maps each expanded marking to its (transition, successor) pairs
    in deterministic order.  `parent` spans a breadth-first tree used to
    rebuild shortest firing sequences.  `bound_hit` names the first budget
    that was exhausted, if any; the graph is complete when it is None.

    The `Marking` views are built from the packed states on first access.
    """

    _places: tuple[NodeId, ...]
    _initial: Packed
    _edges: dict[Packed, tuple[tuple[NodeId, Packed], ...]]
    _parent: dict[Packed, tuple[Packed, NodeId]]
    bound_hit: str | None
    _overfull: frozenset[Packed]

    @property
    def complete(self) -> bool:
        return self.bound_hit is None

    @property
    def states(self) -> int:
        return len(self._edges)

    @cached_property
    def _markings(self) -> dict[Packed, Marking]:
        return {}

    def _marking(self, state: Packed) -> Marking:
        """The one `Marking` view of a packed state, built on first use."""
        m = self._markings.get(state)
        if m is None:
            m = self._markings[state] = _unpack(self._places, state)
        return m

    @cached_property
    def initial(self) -> Marking:
        return self._marking(self._initial)

    @cached_property
    def edges(self) -> dict[Marking, tuple[tuple[NodeId, Marking], ...]]:
        marking = self._marking
        return {
            marking(m): tuple((t, marking(succ)) for t, succ in outs)
            for m, outs in self._edges.items()
        }

    @cached_property
    def parent(self) -> dict[Marking, tuple[Marking, NodeId]]:
        marking = self._marking
        return {marking(m): (marking(prev), t) for m, (prev, t) in self._parent.items()}

    @cached_property
    def overfull(self) -> frozenset[Marking]:
        return frozenset(map(self._marking, self._overfull))

    def _path(self, target: Packed) -> tuple[NodeId, ...]:
        steps: list[NodeId] = []
        while target != self._initial:
            target, t = self._parent[target]
            steps.append(t)
        return tuple(reversed(steps))

    def _finishing(self, target: Packed) -> frozenset[Packed]:
        """All explored states from which `target` is reachable."""
        if target not in self._edges:
            return frozenset()
        backward: dict[Packed, list[Packed]] = {}
        for m, outs in self._edges.items():
            for _, succ in outs:
                backward.setdefault(succ, []).append(m)
        return _reach(backward, (target,))

    def path_to(self, target: Marking) -> tuple[NodeId, ...]:
        """Shortest firing sequence from the initial marking to `target`."""
        return self._path(_pack(self._places, target))

    def can_reach(self, target: Marking) -> frozenset[Marking]:
        """All explored markings from which `target` is reachable."""
        try:
            packed = _pack(self._places, target)
        except KeyError:
            return frozenset()
        return frozenset(map(self._marking, self._finishing(packed)))


def _pack(places: tuple[NodeId, ...], m: Marking) -> Packed:
    """`m` as counts indexed by `places`; KeyError if it marks any other node."""
    index = {p: i for i, p in enumerate(places)}
    counts = [0] * len(places)
    for p, n in m:
        counts[index[p]] = n
    return tuple(counts)


def _unpack(places: tuple[NodeId, ...], counts: Packed) -> Marking:
    return Marking._canonical(tuple((p, n) for p, n in zip(places, counts) if n))


def explore_reachable(
    net: Net,
    initial: Marking,
    max_states: int = MAX_STATES,
    max_tokens: int = MAX_TOKENS,
) -> ReachabilityGraph:
    """Breadth-first construction of the reachability graph from `initial`.

    Markings holding more than `max_tokens` tokens in total are kept in the
    graph but not expanded; exceeding `max_states` stops the search.  Both
    events mark the graph incomplete.  Raises KeyError when `initial` marks
    a node that is not a place of `net`.
    """
    if max_states < 1 or max_tokens < 1:
        raise ValueError("exploration bounds must be at least 1")

    # Each transition, in sorted order, as its preset and postset indices and
    # the change it makes to the token total; firing is then a list patch.
    places = tuple(sorted(net.places))
    index = {p: i for i, p in enumerate(places)}
    moves = []
    for t in sorted(net.transitions):
        pre = tuple(index[p] for p in net.preset(t))
        post = tuple(index[p] for p in net.postset(t))
        moves.append((t, pre, post, len(post) - len(pre)))
    start = _pack(places, initial)

    edges: dict[Packed, tuple[tuple[NodeId, Packed], ...]] = {}
    parent: dict[Packed, tuple[Packed, NodeId]] = {}
    overfull: set[Packed] = set()
    bound_hit: str | None = None

    queue = deque([(start, initial.total())])
    seen = {start}
    while queue:
        m, total = queue.popleft()
        if total > max_tokens:
            overfull.add(m)
            edges[m] = ()
            bound_hit = bound_hit or "max_tokens"
            continue
        outgoing: list[tuple[NodeId, Packed]] = []
        for t, pre, post, delta in moves:
            for i in pre:
                if not m[i]:
                    break
            else:
                counts = list(m)
                for i in pre:
                    counts[i] -= 1
                for i in post:
                    counts[i] += 1
                succ = tuple(counts)
                outgoing.append((t, succ))
                if succ not in seen:
                    if len(seen) >= max_states:
                        bound_hit = bound_hit or "max_states"
                        continue
                    seen.add(succ)
                    parent[succ] = (m, t)
                    queue.append((succ, total + delta))
        edges[m] = tuple(outgoing)

    return ReachabilityGraph(
        _places=places,
        _initial=start,
        _edges=edges,
        _parent=parent,
        bound_hit=bound_hit,
        _overfull=frozenset(overfull),
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
    failure a shortest one.  All of it runs on the graph's packed states;
    only the start of each remainder exploration and a witness's stuck
    marking become `Marking`s.
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
    places = graph._places
    goals = [_pack(places, output_marking(target_net, j)) for j in range(k + 1)]
    outputs = [i for i, n in enumerate(goals[1]) if n]
    finishing = graph._finishing(goals[k])
    remainders: dict[Packed, ReachabilityGraph] = {}
    for x in graph._edges:
        for k_removed in range(max_removed + 1):
            if k_removed == 0:
                stuck = x
                ok = x in finishing
            else:
                if any(x[i] < k_removed for i in outputs):
                    break
                counts = list(x)
                for i in outputs:
                    counts[i] -= k_removed
                stuck = tuple(counts)
                if stuck not in remainders:
                    sub = explore_reachable(target_net, _unpack(places, stuck), max_states, max_tokens)
                    explored += sub.states
                    if not sub.complete:
                        return verdict("inconclusive", bound_hit=sub.bound_hit)
                    remainders[stuck] = sub
                ok = goals[k - k_removed] in remainders[stuck]._edges
            if not ok:
                witness = Witness(
                    firings=graph._path(x), stuck=_unpack(places, stuck), removed_outputs=k_removed
                )
                return verdict("unsound", witness=witness)
    return verdict("sound")
