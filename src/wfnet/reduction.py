"""Finding and contracting nested subnets until a normal form is reached.

Three detectors look for a contractible selection at one focus node:

* the loop test, which folds a place together with a pure self-loop
  transition;
* the parallel test, which merges two nodes with identical wiring and
  identical interface membership;
* the expand walk, which grows a candidate subnet from the focus towards
  a same-type node it reaches (see `expand`), tracking which of the four
  basic classes the grown region could still belong to and giving up when
  none survives.

`reduce_net` runs them from a worklist of focus nodes, with a capped
expand walk.  `find_contractible` runs the same detectors uncapped over
every node; it is the completeness pass, and reduction stops only when it
finds nothing.  Neither grows a pair of nodes that a necessary condition
for a hit, proved in `find_contractible`, rules out; the completeness pass
takes its pairs from an index of that condition built once per scan, so
proving a normal form irreducible costs far fewer walks than there are
pairs.  Contracting whatever they find, over and over, terminates
(every step removes at least one node) and is confluent up to isomorphism,
so the normal form does not depend on the order policy.  Its node ids and
refinement tree do: the worklist's caps and its id-order tie-break between
self-loops on one place decide what is contracted next, so they are part
of the output bytes.  A net is hierarchical in the AND-OR sense exactly
when its normal form is a single node.

`reduce_net` records every contraction in a refinement tree whose leaves
are the original nodes, mirroring how such a net could have been generated
by substitutions.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from .classes import classify
from .nets import FreshIds, Net, NodeId, descendants, is_acyclic, require_wf
from .subnets import contract, is_well_nested, subnet_view

Observer = Callable[[Net, frozenset[NodeId], NodeId, Net], None]
Hit = tuple[frozenset[NodeId], frozenset[str]]

# Caps on the worklist's expand walk.  The completeness pass has none, so
# whether a net reduces never depends on them, but what is contracted
# first does.
_CANDIDATE_CAP = 24
_CANDIDATE_VISIT_CAP = 400
_GROW_CAP = 300


@dataclass(frozen=True)
class Leaf:
    """An original node that has not been contracted away below this point."""

    node: NodeId

    @property
    def first_leaf(self) -> NodeId:
        return self.node

    def leaf_ids(self) -> frozenset[NodeId]:
        return frozenset({self.node})

    def depth(self) -> int:
        return 1


@dataclass(frozen=True)
class Internal:
    """One contraction event: `children` collapsed into `node`."""

    node: NodeId
    classes: frozenset[str]
    children: tuple["RefinementTree", ...]

    @property
    def first_leaf(self) -> NodeId:
        tree: RefinementTree = self
        while isinstance(tree, Internal):
            tree = tree.children[0]
        return tree.node

    def leaf_ids(self) -> frozenset[NodeId]:
        return frozenset(leaf.node for leaf, _ in _walk(self))

    def depth(self) -> int:
        return max(depth for _, depth in _walk(self))


RefinementTree = Leaf | Internal


def _walk(tree: RefinementTree) -> Iterator[tuple[Leaf, int]]:
    """Every leaf of `tree` with its depth, without recursion."""
    todo = [(tree, 1)]
    while todo:
        node, depth = todo.pop()
        if isinstance(node, Internal):
            todo.extend((child, depth + 1) for child in node.children)
        else:
            yield node, depth


def expand(net: Net, i: NodeId, o: NodeId) -> frozenset[NodeId] | None:
    """Grow a contractible subnet with input i and output o, if one exists.

    Starts from {i, o} and alternates two closures: a node whose full preset
    and interface membership match i's counts as a further input, anyone
    else pulls their predecessors in; dually on the output side.  Along the
    way the possible basic classes are pruned, and the grown selection is
    verified before being returned.
    """
    if i == o:
        raise ValueError("need two distinct nodes")
    if i not in net or o not in net:
        raise KeyError(i if i not in net else o)
    if net.is_place(i) != net.is_place(o):
        raise ValueError("nodes must share one type")
    if o not in descendants(net, i):
        raise ValueError(f"{o} is not reachable from {i}")
    hit = _grow(net, i, o)
    return None if hit is None else hit[0]


def _grow(net: Net, i: NodeId, o: NodeId, cap: int | None = None) -> Hit | None:
    """The grown selection with its basic classes, or None."""
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

    if not possible:
        return None
    view = subnet_view(net, selection)
    if not is_acyclic(view.net):
        possible -= {"pAND", "11tAND"}
    if not possible:
        return None
    # The per-node checks above can miss arcs that appeared after a node was
    # analysed, so confirm the selection really is contractible.
    if not view.is_wf:
        return None
    classes = classify(view.net).basic_classes
    if not classes or not is_well_nested(net, selection):
        return None
    return frozenset(selection), classes


def node_order(net: Net, seed: int | None = None) -> list[NodeId]:
    """Lexicographic node order, or a seeded shuffle of it."""
    order = sorted(net.nodes)
    if seed is not None:
        random.Random(seed).shuffle(order)
    return order


def find_contractible(net: Net, order: Sequence[NodeId] | None = None) -> Hit | None:
    """First contractible non-trivial selection under the given node order.

    Runs the loop test at every place, then the parallel test at every
    node, then the uncapped expand walk from every node, each phase in
    `order` (every node once), and returns the selection together with the
    basic classes of its view.  It finds a contraction whenever one exists.

    The expand walk grows a pair (focus, o) only when the following lemma
    allows it, so the pairs it skips are pairs `_grow` rejects; the
    candidates it does grow keep their rank order, so the first hit is the
    one growing every pair would give.  For a node n, with the classes of
    n's type (`11pOR`, `pAND` for a place; `11tAND`, `tOR` for a
    transition), let `in(n)` hold the one-in, one-out class iff `post(n)`
    is non-empty and each node in it has exactly one predecessor and one
    successor, and the other class iff `|post(n)| = 1`; `out(n)` is the
    same with `pre(n)`.  `_ends(n, post(n))` is the key set made of
    `in(n)`, (post, `post(n)`, n is an output) and (pre, `pre(n)`, n is an
    input); `_ends(n, pre(n))` is the same with `out(n)` for `in(n)`.

    Lemma.  For same-type nodes i != o with o reachable from i,
    `_grow(i, o)`, capped or not, returns a hit only if
    `_ends(i, post(i))` and `_ends(o, pre(o))` share a key: (a) `in(i)`
    and `out(o)` share a class, or (b) i and o have the same (postset,
    output membership), or (c) i and o have the same (preset, input
    membership).

    Proof.  Assume neither (b) nor (c); it suffices that every class that
    survives to the end of the walk lies in `in(i)` and in `out(o)`.  The
    walk processes each node at most once (a node enters `pending` when it
    enters `selection`), and it returns a hit only after `pending` empties
    with `possible` non-empty, so it has processed i, o and everything they
    pulled in; pruning only removes classes.  A capped walk that returns a
    hit never passed its cap, so it is the uncapped walk.
    - At i: its preset is `pre_i`, so that side pulls nothing in.  By not
      (b), i does not join `outs`, where it is not yet (i != o), so its
      postset is pulled in and `inner_post = |post(i)|` must be 1, or the
      class of i's type that is not one-in, one-out is pruned.
    - At o: dually, by not (c), `inner_pre = |pre(o)|` must be 1.
    - At a node n in `post(i)`: n has the other type and i is in `pre(n)`,
      while `pre(i)` holds only nodes of n's type, so `pre(n) != pre_i`;
      `pre(n)` is pulled in and n is not in `ins` (it only joins there
      through `pre(n) = pre_i`).  So `inner_pre = |pre(n)|` must be 1, or
      the one-in, one-out class of i's type is pruned (n has the other
      type).  If `post(n)` is non-empty it holds nodes of i's type, unlike
      `post_o`, so it is pulled in and `|post(n)|` must be 1 as well.  If
      it is empty, either n joins `outs`, which prunes the one-in, one-out
      classes at once, or it does not and its `inner_post = 0 != 1` prunes
      that class.  `post(i)` is non-empty, as i reaches o != i.
    - At a node n in `pre(o)`: the same with presets and postsets swapped.
    So the one-in, one-out class survives only if it lies in `in(i)` and
    `out(o)`, and the other class likewise.  QED.

    The candidates of a focus come from one index of every node's
    `_ends(n, pre(n))`, built once per scan in O(N + E).
    """
    ordering = list(order) if order is not None else node_order(net)
    rank = {n: k for k, n in enumerate(ordering)}
    places = [n for n in ordering if net.is_place(n)]
    for detect, foci in ((_loop, places), (_parallel, ordering)):
        for focus in foci:
            selection = detect(net, focus, rank)
            if selection is not None:
                return _with_classes(net, selection)
    index: dict[object, set[NodeId]] = {}
    for n in net.nodes:
        for end in _ends(net, n, net.preset(n)):
            index.setdefault(end, set()).add(n)
    key = _rank_key(rank)
    for focus in ordering:
        pool = set().union(*(index.get(end, ()) for end in _ends(net, focus, net.postset(focus))))
        pool.discard(focus)
        if pool:
            pool &= descendants(net, focus)
        same_type = net.is_place(focus)
        candidates = sorted((n for n in pool if net.is_place(n) == same_type), key=key)
        hit = _expand(net, focus, candidates, None)
        if hit is not None:
            return hit
    return None


def _ends(net: Net, n: NodeId, near: frozenset[NodeId]) -> set[object]:
    """n's keys for the lemma of `find_contractible`.

    Its (postset, output membership), its (preset, input membership), and
    the classes of `in(n)` when `near` is n's postset, of `out(n)` when it
    is n's preset.
    """
    place = net.is_place(n)
    ends: set[object] = {("post", net.postset(n), n in net.outputs), ("pre", net.preset(n), n in net.inputs)}
    if len(near) == 1:
        ends.add("pAND" if place else "tOR")
    # A loop rather than all() over a generator: this runs for every
    # worklist candidate, and the loop costs less per neighbour.
    if near:
        for m in near:
            if len(net.preset(m)) != 1 or len(net.postset(m)) != 1:
                break
        else:
            ends.add("11pOR" if place else "11tAND")
    return ends


# The three detectors, shared by `find_contractible` and the worklist.  Each
# looks at one focus node; `rank` orders the candidates, and nodes it does
# not list come after those it does, by id.


def _rank_key(rank: dict[NodeId, int]) -> Callable[[NodeId], tuple[int, NodeId]]:
    return lambda n: (rank.get(n, len(rank)), n)


def _is_self_loop(net: Net, t: NodeId) -> bool:
    pre = net.preset(t)
    return len(pre) == 1 and pre == net.postset(t) and t not in net.inputs and t not in net.outputs


def _loop(net: Net, focus: NodeId, rank: dict[NodeId, int]) -> frozenset[NodeId] | None:
    """{p, t} for a place p and a pure self-loop transition t, either one the focus.

    Of several self-loops on a place, the first by rank is taken.
    """
    if not net.is_place(focus):
        return net.preset(focus) | {focus} if _is_self_loop(net, focus) else None
    loops = [t for t in net.postset(focus) if _is_self_loop(net, t)]
    loop = min(loops, key=_rank_key(rank), default=None)
    return None if loop is None else frozenset({focus, loop})


def _parallel(net: Net, focus: NodeId, rank: dict[NodeId, int]) -> frozenset[NodeId] | None:
    """{focus, n} for the first n by rank with focus's type, wiring and interface membership."""

    def wiring(n: NodeId) -> tuple:
        return net.is_place(n), net.preset(n), net.postset(n), n in net.inputs, n in net.outputs

    mine = wiring(focus)
    pre = net.preset(focus)
    # A twin shares the preset, so it follows any one of its producers.
    pool = net.postset(min(pre)) if pre else (net.places if net.is_place(focus) else net.transitions)
    twins = [n for n in pool if n != focus and wiring(n) == mine]
    twin = min(twins, key=_rank_key(rank), default=None)
    return None if twin is None else frozenset({focus, twin})


def _expand(net: Net, focus: NodeId, candidates: Iterable[NodeId], cap: int | None) -> Hit | None:
    """The first selection grown from focus to one of the candidates, in their order."""
    for o in candidates:
        hit = _grow(net, focus, o, cap)
        if hit is not None:
            return hit
    return None


def _nearby(net: Net, focus: NodeId, rank: dict[NodeId, int]) -> list[NodeId]:
    """The worklist's expand candidates for focus.

    The first `_CANDIDATE_CAP` same-type nodes reachable from focus, nearest
    first and by rank within one distance, among the first
    `_CANDIDATE_VISIT_CAP` nodes reached; of those, the ones the lemma of
    `find_contractible` rules out are dropped.  The lemma filters only after
    the list is cut, so it never changes which candidates the cap keeps.
    """
    same_type = net.is_place(focus)
    key = _rank_key(rank)
    candidates: list[NodeId] = []
    seen = {focus}
    layer = [focus]
    while layer and len(candidates) < _CANDIDATE_CAP and len(seen) < _CANDIDATE_VISIT_CAP:
        reached: set[NodeId] = set()
        for n in layer:
            reached |= net.postset(n) - seen
        layer = sorted(reached, key=key)
        seen |= reached
        candidates += [n for n in layer if net.is_place(n) == same_type]
    mine = _ends(net, focus, net.postset(focus))
    return [o for o in candidates[:_CANDIDATE_CAP] if not mine.isdisjoint(_ends(net, o, net.preset(o)))]


def _with_classes(net: Net, selection: frozenset[NodeId]) -> Hit:
    return selection, classify(subnet_view(net, selection).net).basic_classes


@dataclass(frozen=True)
class ReduceResult:
    """Normal form of a net plus the contraction history that produced it.

    `forest` holds one refinement tree per surviving node, ordered by first
    leaf id; for a fully reduced net it is a single tree covering every
    original node.
    """

    net: Net
    forest: tuple[RefinementTree, ...]

    @property
    def contractions(self) -> int:
        count = 0
        todo: list[RefinementTree] = list(self.forest)
        while todo:
            t = todo.pop()
            if isinstance(t, Internal):
                count += 1
                todo.extend(t.children)
        return count


def reduce_net(net: Net, seed: int | None = None, observer: Observer | None = None) -> ReduceResult:
    """Contract subnets until none is left to contract.

    Deterministic for a fixed seed; different seeds reach the same normal
    form up to renaming of nodes.  `observer(before, selection, fresh,
    after)` is invoked for every contraction, in order.
    """
    require_wf(net)
    return _Reducer(net, seed).run(observer)


def is_andor(net: Net, seed: int | None = None) -> bool:
    """Does the net collapse to a single node?"""
    return len(reduce_net(net, seed).net) == 1


class _Reducer:
    """Worklist-driven reduction.

    Each focus node taken from the queue, in rank order, goes through the
    shared detectors: the loop test with ties broken by id, the parallel
    test, and the capped expand walk.  When the queue runs dry,
    `find_contractible` is the completeness pass; if it still finds a
    contraction, every node is queued again.  The caps and the id tie-break
    fix which selection is contracted next, and so the output bytes.
    """

    def __init__(self, net: Net, seed: int | None):
        self.net = net
        self.rank: dict[NodeId, int] = {n: k for k, n in enumerate(node_order(net, seed))}
        self.trees: dict[NodeId, RefinementTree] = {n: Leaf(n) for n in net.nodes}
        self.fresh_ids = FreshIds(net.nodes)
        self._requeue_all()

    def run(self, observer: Observer | None) -> ReduceResult:
        while True:
            hit = self._fast_search()
            if hit is None:
                hit = find_contractible(self.net, self._ordering())
                if hit is None:
                    break
                # Queued before the contraction: its members are skipped when
                # popped, and `_apply` appends the fresh node, which ranks
                # last, so this is the whole queue of the contracted net.
                self._requeue_all()
            self._apply(hit, observer)
        roots = sorted(self.trees.values(), key=lambda t: t.first_leaf)
        return ReduceResult(net=self.net, forest=tuple(roots))

    def _ordering(self) -> list[NodeId]:
        return sorted(self.net.nodes, key=self.rank.__getitem__)

    def _requeue_all(self) -> None:
        self.queue = deque(self._ordering())
        self.queued = set(self.queue)

    def _enqueue(self, nodes: Iterable[NodeId]) -> None:
        for n in sorted(nodes, key=self.rank.__getitem__):
            if n in self.net and n not in self.queued:
                self.queue.append(n)
                self.queued.add(n)

    def _fast_search(self) -> Hit | None:
        net = self.net
        while self.queue:
            focus = self.queue.popleft()
            self.queued.discard(focus)
            if focus not in net:
                continue
            hit = self._try_focus(focus)
            if hit is not None:
                return hit
        return None

    def _try_focus(self, focus: NodeId) -> Hit | None:
        net = self.net
        # An empty rank breaks loop ties by id, not by rank.
        selection = _loop(net, focus, {}) or _parallel(net, focus, self.rank)
        if selection is not None:
            return _with_classes(net, selection)
        return _expand(net, focus, _nearby(net, focus, self.rank), _GROW_CAP)

    def _apply(self, hit: Hit, observer: Observer | None) -> None:
        selection, classes = hit
        fresh = self.fresh_ids.take()
        before = self.net
        after = contract(before, selection, fresh)
        if observer is not None:
            observer(before, selection, fresh, after)

        children = tuple(sorted((self.trees.pop(n) for n in selection), key=lambda t: t.first_leaf))
        self.trees[fresh] = Internal(node=fresh, classes=classes, children=children)
        self.rank[fresh] = len(self.rank)
        self.net = after

        # The fresh node and everything whose wiring just changed deserve a
        # fresh look; so do their mates, since parallel twins may now exist.
        boundary = after.preset(fresh) | after.postset(fresh)
        second = set()
        for n in boundary:
            second |= after.preset(n) | after.postset(n)
        self._enqueue({fresh} | boundary | second)
