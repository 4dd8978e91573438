"""Replacing a single node of a host net by a whole inner net.

The inner net must have the interface type of the replaced node: nets with
place interfaces stand in for places, nets with transition interfaces for
transitions.  The inner inputs inherit the old preset of the node, the
inner outputs its old postset, and interface membership transfers when the
replaced node was itself an input or output.
"""

from __future__ import annotations

from .nets import Net, NodeId, _replace_nodes


def substitute(host: Net, node: NodeId, inner: Net) -> Net:
    """Replace `node` in `host` by `inner`, rewiring its neighbourhood.

    The host is left as it was: the result is a copy of it with the node
    rewired by `nets._replace_nodes`, the edit `contract` makes.  An inner
    id already in use in the host raises ValueError.
    """
    if node not in host:
        raise KeyError(node)
    want = "place" if host.is_place(node) else "transition"
    if inner.io_type != want:
        raise ValueError(f"inner net must have a {want} interface to replace {node}")
    return _replace_nodes(
        host, frozenset({node}), inner.places, inner.transitions, inner.arcs,
        inner.inputs, inner.outputs,
    )
