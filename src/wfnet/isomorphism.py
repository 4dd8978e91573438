"""Net isomorphism by deterministic backtracking search.

Nodes are partitioned by a local signature (kind, degrees, interface
membership); only same-signature nodes can correspond, which prunes the
search enough for the net sizes this library produces.  Candidate order is
fixed by sorting, so the returned mapping is deterministic.  The search
keeps its own stack, so deep nets do not hit the recursion limit, and
checks a candidate only against the already-mapped neighbours.
"""

from __future__ import annotations

from .nets import Net, NodeId

Signature = tuple[bool, int, int, bool, bool]


def _signature(net: Net, n: NodeId) -> Signature:
    return (
        net.is_place(n),
        len(net.preset(n)),
        len(net.postset(n)),
        n in net.inputs,
        n in net.outputs,
    )


def find_isomorphism(a: Net, b: Net) -> dict[NodeId, NodeId] | None:
    """A node bijection making arcs and interfaces correspond, or None.

    The mapping sends places to places and transitions to transitions and
    respects input and output membership; names are otherwise ignored.
    """
    if (
        len(a.places) != len(b.places)
        or len(a.transitions) != len(b.transitions)
        or len(a.arcs) != len(b.arcs)
        or len(a.inputs) != len(b.inputs)
        or len(a.outputs) != len(b.outputs)
    ):
        return None

    groups_a: dict[Signature, list[NodeId]] = {}
    groups_b: dict[Signature, list[NodeId]] = {}
    for n in sorted(a.nodes):
        groups_a.setdefault(_signature(a, n), []).append(n)
    for n in sorted(b.nodes):
        groups_b.setdefault(_signature(b, n), []).append(n)
    if set(groups_a) != set(groups_b):
        return None
    if any(len(groups_a[s]) != len(groups_b[s]) for s in groups_a):
        return None

    # Most constrained signatures first; ties broken by name for determinism.
    order: list[NodeId] = []
    for sig in sorted(groups_a, key=lambda s: (len(groups_a[s]), s)):
        order.extend(groups_a[sig])
    candidates = {n: groups_b[_signature(a, n)] for n in order}

    mapping: dict[NodeId, NodeId] = {}
    used: set[NodeId] = set()

    def consistent(n: NodeId, image: NodeId) -> bool:
        # Arcs between n and mapped nodes must map onto exactly the arcs
        # between image and used nodes: every mapped neighbour lands on a
        # neighbour, and the counts agree, since the mapping is injective.
        for near_a, near_b in ((a.preset(n), b.preset(image)), (a.postset(n), b.postset(image))):
            mapped = [mapping[m] for m in near_a if m in mapping]
            if any(m_img not in near_b for m_img in mapped):
                return False
            if len(mapped) != sum(1 for m_img in near_b if m_img in used):
                return False
        return True

    # Depth-first search over `order` without recursion: tried[d] counts
    # the candidates already tried for order[d].
    tried = [0] * len(order)
    depth = 0
    while 0 <= depth < len(order):
        n = order[depth]
        if n in mapping:
            used.remove(mapping.pop(n))
        options = candidates[n]
        k = tried[depth]
        while k < len(options) and (options[k] in used or not consistent(n, options[k])):
            k += 1
        if k == len(options):
            tried[depth] = 0
            depth -= 1
            continue
        tried[depth] = k + 1
        mapping[n] = options[k]
        used.add(options[k])
        depth += 1
    if depth < 0:
        return None
    return {n: mapping[n] for n in sorted(mapping)}


def isomorphic(a: Net, b: Net) -> bool:
    return find_isomorphism(a, b) is not None
