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
candidate stream, walked only as far as its candidates are taken, and a
capped expand walk.  `find_contractible` runs the same detectors uncapped
over every node; it is the completeness pass, and reduction stops only
when it finds nothing.  Neither grows a pair of nodes that a necessary
condition for a hit, proved in `find_contractible`, rules out; the
completeness pass takes its pairs from an index of that condition and
tests their reachability against one closure, each built once per scan,
so proving a normal form irreducible costs no walk per focus.
Contracting whatever they find, over and over, terminates (every step
removes at least one node) and is confluent up to isomorphism, so the
normal form does not depend on the order policy.  Its node ids and
refinement tree do: the worklist's candidate cap, its id-order tie-break
between self-loops on one place and the order in which `_grow` takes its
pending nodes decide what is contracted next, so they are part of the
output bytes; so does the grow cap on wide fan-outs.  A net is
hierarchical in the AND-OR sense exactly when its normal form is a single
node.

`reduce_net` records every contraction in a refinement tree whose leaves
are the original nodes, mirroring how such a net could have been generated
by substitutions.
"""

from __future__ import annotations

import heapq
import random
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, ClassVar, Iterable, Iterator, Sequence

from .classes import BASIC_CLASS_NAMES, _label_view
from .classes import classify  # Unused here; `perfbench/tracing.py` wraps it by this name.
from .nets import FreshIds, Net, NodeId, _Graph, descendants, is_acyclic, reach_masks, require_wf
from .subnets import _well_nested, contract
from .subnets import is_well_nested  # Unused here; `perfbench/tracing.py` wraps it by this name.
from .subnets import subnet_view  # Unused here; `perfbench/tracing.py` wraps it by this name.

Observer = Callable[[Net, frozenset[NodeId], NodeId, Net], None]
Hit = tuple[frozenset[NodeId], frozenset[str]]

# The worklist's caps on its candidates and on its expand walks.  The
# completeness pass has neither, so whether a net reduces never depends on
# them, but what is contracted first does.
#
# Decides bytes: lifting it changes the forests of 9 of the 18
# `reduce-members` inputs and 2 of the 32 `andor-nonmembers` ones (seed 1),
# and made an in-process `reduce-members` pass take 5.8-8.2 s instead of
# 2.7-3.0 s.
_CANDIDATE_CAP = 24
# Decides bytes on wide fan-outs (`tests/helpers.py::fan(500)` reduces in
# 253 contractions, 3 without it) and guards wide non-members: without it,
# `chains(600)` took 12.7-22.0 s instead of 1.4-3.0 s with a side exit, and
# 25.7-32.9 s instead of 2.8-3.8 s with cross arcs (single in-process runs
# on 2 cores, Python 3.11).
_GROW_CAP = 300


class _Tree:
    """What both tree types share; every walk goes through `_walk` or a stack
    of its own, so any depth works, `repr`, pickling and copying included."""

    def leaf_ids(self) -> frozenset[NodeId]:
        return frozenset(t.node for t, _ in _walk(self) if not t.children)

    def depth(self) -> int:
        return max(depth for _, depth in _walk(self))

    def _preorder(self) -> list[tuple[NodeId, frozenset[str], int]]:
        return [(t.node, t.classes, len(t.children)) for t, _ in _walk(self)]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Tree) and self._preorder() == other._preorder()

    def __hash__(self) -> int:
        return hash(tuple(self._preorder()))

    def __reduce__(self) -> tuple:
        return tree_from_preorder, (self._preorder(),)

    def __repr__(self) -> str:
        """The text the dataclasses would give, written from one stack of pending text and trees."""
        chunks: list[str] = []
        todo: list[str | RefinementTree] = [self]
        while todo:
            item = todo.pop()
            if isinstance(item, str):
                chunks.append(item)
            elif not item.children:
                chunks.append(f"{type(item).__qualname__}(node={item.node!r})")
            else:
                chunks.append(f"{type(item).__qualname__}(node={item.node!r}, classes={item.classes!r}, children=(")
                todo.append(",))" if len(item.children) == 1 else "))")
                for k in range(len(item.children) - 1, -1, -1):
                    todo.append(item.children[k])
                    if k:
                        todo.append(", ")
        return "".join(chunks)


@dataclass(frozen=True, eq=False, repr=False)
class Leaf(_Tree):
    """An original node, not contracted away below this point: no classes, no children."""

    node: NodeId
    classes: ClassVar[frozenset[str]] = frozenset()
    children: ClassVar[tuple[RefinementTree, ...]] = ()

    @property
    def first_leaf(self) -> NodeId:
        return self.node


@dataclass(frozen=True, eq=False, repr=False)
class Internal(_Tree):
    """One contraction event: `children` collapsed into `node`."""

    node: NodeId
    classes: frozenset[str]
    children: tuple[RefinementTree, ...]
    first_leaf: NodeId = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "first_leaf", self.children[0].first_leaf)


RefinementTree = Leaf | Internal


def tree_from_preorder(entries: Sequence[tuple[NodeId, frozenset[str], int]]) -> RefinementTree:
    """The one tree whose `_preorder()` is `entries`, built without recursion.

    Each entry is (node, classes, child count); a node without children is a
    leaf.  Children are built before their parent, last entry first.
    """
    built: list[RefinementTree] = []
    for node, classes, count in reversed(entries):
        if count:
            children = tuple(reversed(built[-count:]))
            del built[-count:]
            built.append(Internal(node=node, classes=classes, children=children))
        else:
            built.append(Leaf(node))
    (tree,) = built
    return tree


def _walk(tree: RefinementTree) -> Iterator[tuple[RefinementTree, int]]:
    """Every node of `tree` in preorder with its depth, the root at 1, without recursion."""
    todo = [(tree, 1)]
    while todo:
        node, depth = todo.pop()
        yield node, depth
        todo.extend((child, depth + 1) for child in reversed(node.children))


def expand(net: Net, i: NodeId, o: NodeId) -> frozenset[NodeId] | None:
    """Grow a contractible selection from i towards o, if the walk finds one.

    Starts from {i, o} and alternates two closures: a node whose full preset
    and interface membership match i's counts as a further input, anyone
    else pulls their predecessors in; dually on the output side.  Along the
    way the possible basic classes are pruned, and the grown selection is
    verified before being returned.

    The selection holds i and o but need not have them as its interface:
    under seed 2, the last contraction of the `por11` fixture grows from the
    transitions t5 and t4 into the whole net, a place-interface view with
    input ctr_0 and output p4.  None does not mean that no contractible
    selection holds i and o: the walk takes its pending nodes by id, and in
    another order it can end elsewhere.
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
    """The grown selection with its basic classes, or None.

    Pending nodes are taken least id first, from a heap: a node is pending
    from when it joins the selection until it is taken, so it enters the
    heap once, and the heap's least is the least pending id.
    """
    pred = net._pred
    succ = net._succ
    places = net.places
    inputs = net.inputs
    outputs = net.outputs
    possible = {"11pOR", "pAND"} if i in places else {"11tAND", "tOR"}
    selection = {i, o}
    ins = {i}
    outs = {o}
    pending = sorted(selection)
    pre_i = pred[i]
    post_o = succ[o]
    i_is_input = i in inputs
    o_is_output = o in outputs

    while pending and possible:
        # The order is part of the bytes: in `por11` after its first
        # contraction (seed None), `_grow(t6, t4)` is None taking the least
        # id first, but an 8-node `11pOR` selection taking the greatest.
        n = heapq.heappop(pending)

        pre_n = pred[n]
        joins_ins = pre_n == pre_i and (n in inputs) == i_is_input
        if joins_ins:
            if n not in ins:
                possible -= {"11pOR", "11tAND"}
                ins.add(n)
        else:
            for m in pre_n - selection:
                heapq.heappush(pending, m)
            selection |= pre_n

        post_n = succ[n]
        joins_outs = post_n == post_o and (n in outputs) == o_is_output
        if joins_outs:
            if n not in outs:
                possible -= {"11pOR", "11tAND"}
                outs.add(n)
        else:
            for m in post_n - selection:
                heapq.heappush(pending, m)
            selection |= post_n

        # A preset or postset just pulled in lies wholly in the selection.
        inner_pre = len(pre_n & selection) if joins_ins else len(pre_n)
        inner_post = len(post_n & selection) if joins_outs else len(post_n)
        if (
            (n in ins and inner_pre != 0)
            or (n not in ins and inner_pre != 1)
            or (n in outs and inner_post != 0)
            or (n not in outs and inner_post != 1)
        ):
            if n in places:
                possible -= {"pAND", "11tAND"}
            else:
                possible -= {"tOR", "11pOR"}

        if cap is not None and len(selection) > cap:
            return None

    # The per-node checks above can miss arcs that appeared after a node was
    # analysed, so `_hit` confirms the selection really is contractible.
    return _hit(net, frozenset(selection), possible) if possible else None


def _hit(
    net: Net,
    selection: frozenset[NodeId],
    possible: frozenset[str] | set[str] = frozenset(BASIC_CLASS_NAMES),
) -> Hit | None:
    """`selection` with the basic classes of its view, if it may be contracted.

    It may when its view is a workflow net in a basic class and the
    selection is well nested.  `possible` holds the classes an expand walk
    has not ruled out; a cyclic view, which can be neither pAND nor 11tAND,
    is refused when nothing else is left in it.  No view `Net` is built:
    `classes._label_view` reads the view's label and its inputs and
    outputs in one pass over the selection on the host's maps, the
    acyclicity rule reads that label, and `subnets._well_nested` reads the
    same inputs and outputs.  Every detector's selection is accepted here.

    The loop and parallel selections come with all four classes, and these
    checks never refuse them.  In a workflow net a loop {p, t} gives an
    `11pOR` view: p is its one input and one output, and t its one
    transition, wired to p both ways.  Twin places give a `pAND` view and
    twin transitions a `tOR` view: each twin is an input and an output with
    no arc inside the view.  All three are well nested, since a loop view
    has one input and one output and twins share their outside wiring.  For
    an expand walk's selection the checks are independent and none has a
    side effect, so the order they run in decides nothing.
    """
    view = _label_view(net, selection)
    if view is None:
        return None
    label, inputs, outputs = view
    if not label.acyclic and not possible - {"pAND", "11tAND"}:
        return None
    classes = label.basic_classes
    if not classes or not _well_nested(net, selection, inputs, outputs):
        return None
    return selection, classes


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
    Raises ValueError when `order` is not a permutation of the net's nodes.

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

    Call the class of i's type that is not one-in, one-out its AND-kind
    class: `pAND` for a place, `tOR` for a transition.  (a) admits it when
    `|post(i)| = 1` and `|pre(o)| = 1`; write `post(i) = {t}` and
    `pre(o) = {t'}`.  Condition D2 holds when every node m in
    `pre(t) | post(t) | pre(t') | post(t')`, all of them of i's type, has
    `|pre(m)| = 1` or `(pre(m), m is an input) = (pre(i), i is an input)`,
    and `|post(m)| = 1` or `(post(m), m is an output) = (post(o), o is an
    output)`.

    Refined lemma.  For the same pairs, `_grow(i, o)`, capped or not,
    returns a hit only if (b), or (c), or (a) for the one-in, one-out
    class, or (a) for the AND-kind class together with D2.

    Proof.  Assume neither (b) nor (c).  By the lemma, the one-in, one-out
    class survives only under (a) for that class, and the AND-kind class
    only under (a) for it, so `post(i) = {t}` and `pre(o) = {t'}`; it
    remains that the AND-kind class survives only under D2.  By the proof
    above, i pulls t into the selection and o pulls t'.  Neither t nor t'
    joins `ins` or `outs`: i is in `pre(t)` but not in `pre(i)`, which
    holds nodes of t's type; `post(t)` is non-empty, since every path from
    i to o != i runs through t, and it holds nodes of i's type, unlike
    `post(o)`; dually, o is in `post(t')` but not in `post(o)`, and
    `pre(t')` is non-empty and unlike `pre(i)`.  So the presets and
    postsets of t and t' are pulled in, and a hit has popped each of their
    nodes.  When a node m of i's type is popped, it is in `ins` exactly
    when `(pre(m), m is an input) = (pre(i), i is an input)`: i is in
    `ins` from the start and meets it, and any other node joins at its own
    pop on that test.  If m is not in `ins`, its preset was just pulled
    in, so `inner_pre = |pre(m)|`, and a value other than 1 prunes the
    AND-kind class of m's type.  Dually for `outs` and `inner_post`, with
    o's postset and output membership.  That is D2.  QED.

    The scan applies the lemmas in two steps.  The candidates of a focus
    come from one index of every node's `_ends(n, pre(n))`, built once per
    scan in O(N + E): the pairs whose keys meet, which is the first lemma.
    Whether a candidate is reachable from the focus is one test against a
    reachability closure, `nets.reach_masks`: one bit mask per node over
    the strongly connected components, built once per scan at the first
    focus whose pool is not empty.  The candidates sort by rank, so the bit
    each component gets decides nothing, and the refined lemma
    (`_lemma_allows`) is tested on each only as `_expand` takes it: where
    a pool holds nearly every node, as in a state machine, testing the
    whole sorted list first costs more than the grows it saves.  The
    worklist (`_nearby`) tests the refined lemma the same way, on the
    adjacency maps, and builds no key sets.
    """
    ordering = list(order) if order is not None else node_order(net)
    rank = {n: k for k, n in enumerate(ordering)}
    if len(rank) != len(ordering) or rank.keys() != net.nodes:
        raise ValueError("order must list every node of the net exactly once")
    places = [n for n in ordering if net.is_place(n)]
    for detect, foci in ((_loop, places), (_parallel, ordering)):
        for focus in foci:
            selection = detect(net, focus, rank)
            if selection is not None:
                return _hit(net, selection)
    index: dict[object, set[NodeId]] = {}
    for n in net.nodes:
        for end in _ends(net, n, net.preset(n)):
            index.setdefault(end, set()).add(n)
    reach: dict[NodeId, int] | None = None
    for focus in ordering:
        pool = set().union(*(index.get(end, ()) for end in _ends(net, focus, net.postset(focus))))
        pool.discard(focus)
        if not pool:
            continue
        if reach is None:
            bit, reach = reach_masks(net)
        mask = reach[focus]
        same_type = net.is_place(focus)
        candidates = sorted(
            (n for n in pool if mask & bit[n] and net.is_place(n) == same_type), key=rank.__getitem__
        )
        side = _focus_side(net, focus)
        hit = _expand(net, focus, (o for o in candidates if _lemma_allows(net, side, o)), None)
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
    if _one_in_one_out(net, near):
        ends.add("11pOR" if place else "11tAND")
    return ends


def _one_in_one_out(net: Net, near: frozenset[NodeId]) -> bool:
    """Is `near` non-empty with one predecessor and one successor at each of its nodes?"""
    if not near:
        return False
    pred = net._pred
    succ = net._succ
    # A loop rather than all() over a generator: this runs for worklist
    # candidates, and the loop costs less per neighbour.
    for m in near:
        if len(pred[m]) != 1 or len(succ[m]) != 1:
            return False
    return True


# Focus's side of the refined lemma, read once per focus by `_focus_side`:
# its postset and output membership, its preset and input membership,
# whether its postset is one-in, one-out (`in(focus)` holds that class),
# whether (a) with the focus's half of D2 can admit the AND-kind class, and
# the (postset, output membership) keys that half asks of a candidate.
_Key = tuple[frozenset[NodeId], bool]
_Side = tuple[frozenset[NodeId], bool, frozenset[NodeId], bool, bool, bool, "set[_Key] | None"]


def _focus_side(net: Net, focus: NodeId) -> _Side:
    """Focus's side of the refined lemma of `find_contractible`.

    D2 at the focus's one successor t depends on the candidate o only
    through o's (postset, output membership), so it is read here once: it
    fails, or it names the keys of the nodes around t that have other than
    one successor, and o's key must equal each of them.  Two different
    keys cannot both be met, so they fail it too.
    """
    post = net._succ[focus]
    pre = net._pred[focus]
    is_input = focus in net.inputs
    need = _d2_keys(net, next(iter(post)), pre, is_input) if len(post) == 1 else None
    and_kind = need is not None and len(need) <= 1
    return (post, focus in net.outputs, pre, is_input, _one_in_one_out(net, post), and_kind, need)


def _d2_keys(net: Net, t: NodeId, pre: frozenset[NodeId], is_input: bool) -> set[_Key] | None:
    """Condition D2 at the nodes around t, given the focus's (preset, input membership).

    None when a node of `pre(t) | post(t)` has neither one predecessor nor
    that (preset, input membership); otherwise the (postset, output
    membership) of each of those nodes with other than one successor,
    which the candidate's must equal.
    """
    pred = net._pred
    succ = net._succ
    inputs = net.inputs
    outputs = net.outputs
    keys = set()
    for near in (pred[t], succ[t]):
        for m in near:
            pre_m = pred[m]
            if len(pre_m) != 1 and (pre_m != pre or (m in inputs) != is_input):
                return None
            post_m = succ[m]
            if len(post_m) != 1:
                keys.add((post_m, m in outputs))
    return keys


def _lemma_allows(net: Net, side: _Side, o: NodeId) -> bool:
    """Does the refined lemma of `find_contractible` admit the pair (focus, o)?

    By direct comparison on the adjacency maps, for a focus of o's type
    whose side is `side`, cheapest test first; no key set is built.  It
    admits a subset of the pairs whose `_ends` keys meet.
    """
    post, is_output, pre, is_input, simple, and_kind, need = side
    pre_o = net._pred[o]
    # (c)
    if pre_o == pre and (o in net.inputs) == is_input:
        return True
    post_o = net._succ[o]
    key = (post_o, o in net.outputs)
    # (b)
    if post_o == post and key[1] == is_output:
        return True
    # (a), the one-in, one-out class.
    if simple and _one_in_one_out(net, pre_o):
        return True
    # (a), the AND-kind class, with both halves of D2.
    if not and_kind or len(pre_o) != 1 or (need and key not in need):
        return False
    keys = _d2_keys(net, next(iter(pre_o)), pre, is_input)
    return keys is not None and keys <= {key}


def _twins(net: Net, side: _Side, focus: NodeId, acyclic: bool) -> set[NodeId]:
    """The nodes other than focus that reach the lemma through (b) or (c) alone.

    Those with focus's (postset, output membership), read off the
    predecessors of one node of its postset, and those with its (preset,
    input membership), read off the successors of one node of its preset.
    An empty side is skipped: a focus with no successor reaches nothing,
    and nothing reaches a node with no predecessor.  So are the preset
    twins of an acyclic net, since reaching one means reaching a node of
    focus's preset, which reaches focus.
    """
    post, is_output, pre, is_input = side[:4]
    pred = net._pred
    succ = net._succ
    twins = set()
    if post:
        outputs = net.outputs
        twins.update(n for n in pred[next(iter(post))] if succ[n] == post and (n in outputs) == is_output)
    if pre and not acyclic:
        inputs = net.inputs
        twins.update(n for n in succ[next(iter(pre))] if pred[n] == pre and (n in inputs) == is_input)
    twins.discard(focus)
    return twins


# The three detectors, shared by `find_contractible` and the worklist.  Each
# looks at one focus node; `rank`, which ranks every node, orders the
# candidates.  `_hit` accepts what they select.


def _is_self_loop(net: Net, t: NodeId) -> bool:
    pre = net.preset(t)
    return len(pre) == 1 and pre == net.postset(t) and t not in net.inputs and t not in net.outputs


def _loop(net: Net, focus: NodeId, rank: dict[NodeId, int] | None = None) -> frozenset[NodeId] | None:
    """{p, t} for a place p and a pure self-loop transition t, either one the focus.

    Of several self-loops on a place, the first by rank is taken, or the
    least id without a rank.
    """
    if not net.is_place(focus):
        return net.preset(focus) | {focus} if _is_self_loop(net, focus) else None
    loops = [t for t in net.postset(focus) if _is_self_loop(net, t)]
    loop = min(loops, key=None if rank is None else rank.__getitem__, default=None)
    return None if loop is None else frozenset({focus, loop})


def _parallel(net: Net, focus: NodeId, rank: dict[NodeId, int]) -> frozenset[NodeId] | None:
    """{focus, n} for the first n by rank with focus's type, wiring and interface membership.

    Each pool node is compared on its preset, then its postset, then its
    memberships, and dropped at the first mismatch.
    """
    pred = net._pred
    succ = net._succ
    places = net.places
    inputs = net.inputs
    outputs = net.outputs
    pre = pred[focus]
    post = succ[focus]
    place = focus in places
    is_input = focus in inputs
    is_output = focus in outputs
    # A twin shares the preset, so it follows any one of its producers.
    pool = succ[min(pre)] if pre else (places if place else net.transitions)
    twins = [
        n
        for n in pool
        if n != focus
        and pred[n] == pre
        and succ[n] == post
        and (n in inputs) == is_input
        and (n in outputs) == is_output
        and net.is_place(n) == place
    ]
    twin = min(twins, key=rank.__getitem__, default=None)
    return None if twin is None else frozenset({focus, twin})


def _expand(net: Net, focus: NodeId, candidates: Iterable[NodeId], cap: int | None) -> Hit | None:
    """The first selection grown from focus to one of the candidates, in their order."""
    for o in candidates:
        hit = _grow(net, focus, o, cap)
        if hit is not None:
            return hit
    return None


def _nearby(net: Net, focus: NodeId, rank: dict[NodeId, int], acyclic: bool = False) -> Iterator[NodeId]:
    """The worklist's expand candidates for focus, produced lazily.

    The first `_CANDIDATE_CAP` same-type nodes reachable from focus, nearest
    first and by rank within one distance; of those, the ones the refined
    lemma of `find_contractible` rules out are dropped.  The lemma filters
    only after the list is cut, so it never changes which candidates the
    cap keeps.  Arcs alternate between places and transitions in every net
    the reducer sees, so the walk steps two arcs at a time and every layer
    it keeps has focus's type.

    Focus's side of the lemma is read once, and each candidate is tested
    against it by `_lemma_allows`, which compares the adjacency maps
    directly instead of building `_ends` key sets.  When focus's side rules
    out (a) for both classes, the lemma admits exactly focus's twins
    (`_twins`), found without a walk: with none, there is no walk at all;
    otherwise the walk yields the twins it keeps and stops once it has
    passed them all.  `acyclic` says the net has no cycle, so that no
    preset twin is reachable; the caller vouches for it, and False is
    always safe.  The walk and the lemma tests run only as far as the
    candidates are taken, so `_expand` stopping at its first hit stops
    them too.  The generator reads `net` as it goes, so it must be used up
    or dropped before the net changes; `_try_focus` drops it at
    `_expand`'s return, before the hit is contracted.
    """
    side = _focus_side(net, focus)
    simple, and_kind = side[4:6]
    twins = None if simple or and_kind else _twins(net, side, focus, acyclic)
    if twins is not None and not twins:
        return
    successors = net._succ.__getitem__
    left = _CANDIDATE_CAP
    seen = {focus}
    layer = {focus}
    while layer and left > 0:
        across = set().union(*map(successors, layer)) - seen
        layer = set().union(*map(successors, across)) - seen
        seen |= across | layer
        if twins is None:
            for o in sorted(layer, key=rank.__getitem__)[:left]:
                if _lemma_allows(net, side, o):
                    yield o
        elif not twins.isdisjoint(layer):
            for o in sorted(layer, key=rank.__getitem__)[:left]:
                if o in twins:
                    yield o
            twins -= layer
            if not twins:
                return
        left -= len(layer)


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
        return sum(1 for root in self.forest for t, _ in _walk(root) if t.children)


def reduce_net(net: Net, seed: int | None = None, observer: Observer | None = None) -> ReduceResult:
    """Contract subnets until none is left to contract.

    Deterministic for a fixed seed; different seeds reach the same normal
    form up to renaming of nodes.  `observer(before, selection, fresh,
    after)` is invoked for every contraction, in order; `before` and
    `after` are `Net` values that later steps leave as they are.
    """
    require_wf(net)
    return _reduce_valid(net, seed, observer)


def _reduce_valid(net: Net, seed: int | None = None, observer: Observer | None = None) -> ReduceResult:
    """`reduce_net` on a net its caller has already validated as a workflow net."""
    return _Reducer(net, seed).run(observer)


def is_andor(net: Net, seed: int | None = None) -> bool:
    """Does the net collapse to a single node?"""
    return len(reduce_net(net, seed).net) == 1


class _Reducer:
    """Worklist-driven reduction on one working graph.

    The reducer copies its input once into a `nets._Graph`, the one mutable
    representation, and `contract` edits that graph in place, in
    O(boundary) per step.  A frozen `Net` is made only for the result and,
    when an observer is passed, once per step: each step's `after` is the
    next step's `before`.  `_nearby`'s candidate stream reads the graph
    lazily, so it is dropped before every contraction.

    Each focus node taken from the queue, in rank order, goes through the
    shared detectors: the loop test with ties broken by id, the parallel
    test, and the expand walk over `_nearby`'s candidates, each capped at
    `_GROW_CAP` nodes.  The candidates are a lazy stream, dropped at the
    first hit before the net is contracted.  When the queue runs dry,
    `find_contractible` is the completeness pass; if it still finds a
    contraction, every node is queued again.  The candidate cap, the id
    tie-break and `_grow`'s walk order fix which selection is contracted
    next, and so the output bytes; the grow cap does too on wide fan-outs.
    Every node the queue is given is a node of the current net: `_apply`
    queues only the fresh node and its neighbours.

    Whether the input is acyclic is read once, and `_nearby` is told, since
    no preset twin is reachable in an acyclic net.  That stays true for the
    whole reduction: contraction keeps an acyclic net acyclic.  Proof.
    Arcs that do not touch the selection S are the host's, so a cycle of
    the contracted net passes the fresh node x; take one that passes it
    once, x -> a -> ... -> b -> x with the middle outside S.  x inherits
    every arc that crossed the boundary, so some output of the view has
    the arc to a and some input the arc from b.  `_hit` accepts only
    well-nested selections, whose inputs share one outside preset and
    whose outputs share one outside postset, so b precedes every input and
    a follows every output.  The view is a workflow net, so some input
    reaches some output inside S, and the host has the cycle a -> ... ->
    b -> that input -> ... -> that output -> a.  QED.
    """

    def __init__(self, net: Net, seed: int | None):
        self.graph = _Graph(net)
        self.acyclic = is_acyclic(net)
        # The `Net` the graph holds now, or None once an edit has made it stale.
        self.frozen: Net | None = net
        self.rank: dict[NodeId, int] = {n: k for k, n in enumerate(node_order(net, seed))}
        self.trees: dict[NodeId, RefinementTree] = {n: Leaf(n) for n in net.nodes}
        self.fresh_ids = FreshIds(net.nodes)
        self._requeue_all()

    def run(self, observer: Observer | None) -> ReduceResult:
        while True:
            hit = self._fast_search()
            if hit is None:
                hit = find_contractible(self.graph, self._ordering())
                if hit is None:
                    break
                # Queued before the contraction: its members are skipped when
                # popped, and `_apply` appends the fresh node, which ranks
                # last, so this is the whole queue of the contracted net.
                self._requeue_all()
            self._apply(hit, observer)
        roots = sorted(self.trees.values(), key=lambda t: t.first_leaf)
        return ReduceResult(net=self._freeze(), forest=tuple(roots))

    def _freeze(self) -> Net:
        if self.frozen is None:
            self.frozen = self.graph.freeze()
        return self.frozen

    def _ordering(self) -> list[NodeId]:
        return sorted(self.graph.nodes, key=self.rank.__getitem__)

    def _requeue_all(self) -> None:
        self.queue = deque(self._ordering())
        self.queued = set(self.queue)

    def _enqueue(self, nodes: Iterable[NodeId]) -> None:
        for n in sorted(nodes, key=self.rank.__getitem__):
            if n not in self.queued:
                self.queue.append(n)
                self.queued.add(n)

    def _fast_search(self) -> Hit | None:
        graph = self.graph
        while self.queue:
            focus = self.queue.popleft()
            self.queued.discard(focus)
            if focus not in graph:
                continue
            hit = self._try_focus(focus)
            if hit is not None:
                return hit
        return None

    def _try_focus(self, focus: NodeId) -> Hit | None:
        graph = self.graph
        # Without a rank, loop ties are broken by id; ranking them instead
        # changes the bytes (`test_loop_tie_break_is_pinned`).
        selection = _loop(graph, focus) or _parallel(graph, focus, self.rank)
        if selection is not None:
            return _hit(graph, selection)
        return _expand(graph, focus, _nearby(graph, focus, self.rank, self.acyclic), _GROW_CAP)

    def _apply(self, hit: Hit, observer: Observer | None) -> None:
        selection, classes = hit
        fresh = self.fresh_ids.take()
        before = self._freeze() if observer is not None else None
        # The module global, so that a wrapper around `contract` sees every step.
        graph = contract(self.graph, selection, fresh)
        self.frozen = None
        if observer is not None:
            observer(before, selection, fresh, self._freeze())

        children = tuple(sorted((self.trees.pop(n) for n in selection), key=lambda t: t.first_leaf))
        self.trees[fresh] = Internal(node=fresh, classes=classes, children=children)
        self.rank[fresh] = len(self.rank)

        # The fresh node and everything whose wiring just changed deserve a
        # fresh look; so do their mates, since parallel twins may now exist.
        boundary = graph.preset(fresh) | graph.postset(fresh)
        second = set()
        for n in boundary:
            second |= graph.preset(n) | graph.postset(n)
        self._enqueue({fresh} | boundary | second)
