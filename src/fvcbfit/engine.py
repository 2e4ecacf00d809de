"""Reverse-mode automatic differentiation over numpy arrays.

Each Var wraps a float64 ndarray and a sequence number taken when it is
created; a Var built from other Vars also keeps its parents and a
vector-Jacobian product (VJP) that maps the cotangent of its value to
one cotangent per parent. Parents are always older than their
consumers, so creation order is a topological order: `backward` visits
the nodes a root reads newest first, popping them from a heap keyed by
that number. It is one reverse walk in creation order, with no
recursion and no tables keyed by object identity; cotangents live on
the nodes themselves.

There are no generic arithmetic nodes. The model's composite functions
(model.py, loss.py) compute their values once on plain ndarrays and,
when an operand is a Var, record a single node through `fuse` with a
hand-written VJP, the `torch.autograd.Function` pattern. Plain ndarrays
and Python scalars are constants: no node, no gradient. Each VJP keeps
the operation order of the plain chain it replaces, so a cotangent that
several consumers feed is summed in a fixed order and the gradients are
reproducible to the last bit.

Kink conventions, fixed for determinism and kept by every fused VJP:
  * min/max route the gradient entirely to the first argument on ties;
  * relu has zero subgradient exactly at 0;
  * sqrt has zero subgradient exactly at 0 (the clamp that feeds it
    makes the point unreachable with a live gradient).
"""

from __future__ import annotations

import heapq
import itertools

import numpy as np

__all__ = ["Var", "value", "fuse", "backward", "grad", "sigmoid", "gather"]

_created = itertools.count()


def value(x):
    """Underlying ndarray of a Var, or the input coerced to float64."""
    if isinstance(x, Var):
        return x.v
    return np.asarray(x, dtype=np.float64)


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    # Reduce a cotangent back to the shape of the operand it belongs to.
    if shape == ():
        return np.asarray(g.sum())
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, s in enumerate(shape):
        if s == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


class Var:
    """Graph node: value, parents, a VJP, its cotangent slot and its
    creation sequence number."""

    __slots__ = ("v", "parents", "vjp", "g", "seq")

    # keep numpy from absorbing `ndarray <op> Var` into a ufunc over an
    # object array
    __array_ufunc__ = None

    def __init__(self, val, parents=(), vjp=None):
        self.v = np.asarray(val, dtype=np.float64)
        self.parents = parents
        self.vjp = vjp
        self.g = None
        self.seq = next(_created)

    @property
    def shape(self):
        return self.v.shape

    def item(self) -> float:
        return float(self.v)

    def __repr__(self):
        return f"Var({self.v!r})"


def fuse(out, inputs, vjp):
    """`out` as one graph node over the Vars among `inputs`.

    vjp(g) returns one cotangent per entry of `inputs`, None where no
    gradient flows; entries for constant inputs are never read, so a
    VJP may skip computing them. An input listed more than once gets
    its cotangents summed in list order. With no Var among the inputs,
    `out` comes back unchanged.
    """
    live = [isinstance(x, Var) for x in inputs]
    if not any(live):
        return out
    parents = tuple(x for x, keep in zip(inputs, live) if keep)
    if len(parents) == len(inputs):
        return Var(out, parents, vjp)
    return Var(out, parents,
               lambda g: [c for c, keep in zip(vjp(g), live) if keep])


def backward(root: Var) -> list:
    """Push the cotangent of a root back to every node it reads.

    The root is seeded with ones: a vector root, such as the per-group
    totals of the fitting objective, gives every entry a cotangent of 1.0.

    Nodes are visited newest first, so each one has received the
    cotangents of all its consumers, summed in the order those consumers
    were visited, before its own VJP runs. Interior cotangents are
    dropped once pushed; the gradient of each leaf reached is left in
    its `.g`, and the leaves come back in the order they were reached.
    The caller resets their `.g` to None.
    """
    root.g = np.ones_like(root.v)
    todo = [(-root.seq, root)]
    leaves = []
    try:
        while todo:
            node = heapq.heappop(todo)[1]
            if node.vjp is None:
                leaves.append(node)
                continue
            g, node.g = node.g, None
            for parent, pg in zip(node.parents, node.vjp(g)):
                if pg is None:
                    continue
                if pg.shape != parent.v.shape:
                    pg = _unbroadcast(pg, parent.v.shape)
                if parent.g is None:
                    parent.g = pg
                    heapq.heappush(todo, (-parent.seq, parent))
                else:
                    parent.g = parent.g + pg
    except BaseException:
        for node in leaves + [item[1] for item in todo]:
            node.g = None
        raise
    return leaves


def grad(root: Var, leaves) -> list[np.ndarray]:
    """Gradients of a root (of the sum of its entries) with respect to
    each leaf Var.

    Leaves not reachable from the root get zeros of their shape.
    """
    reached = backward(root)
    out = [np.zeros_like(leaf.v) if leaf.g is None else leaf.g
           for leaf in leaves]
    for leaf in reached:
        leaf.g = None
    return out


def _expit(v):
    # exp sees a non-positive argument only, so large |v| cannot overflow
    z = np.exp(-np.abs(v))
    return np.where(v >= 0.0, 1.0 / (1.0 + z), z / (1.0 + z))


def sigmoid(x):
    """Logistic function, overflow-free for any argument."""
    out = _expit(value(x))
    return fuse(out, (x,), lambda g: (g * out * (1.0 - out),))


def gather(x, idx):
    """x[idx] for a Var or ndarray; scatter-adds on the way back."""
    idx = np.asarray(idx, dtype=np.intp)
    xv = value(x)
    n = xv.shape[0]
    return fuse(xv[idx], (x,),
                lambda g: (np.bincount(idx, weights=g, minlength=n),))
