"""Reverse-mode automatic differentiation over numpy arrays.

Each Var wraps a float64 ndarray and a sequence number taken when it is
created; a Var built from other Vars also keeps its parents and a
vector-Jacobian product (VJP) that maps the cotangent of its value to
one cotangent per parent. Parents are always older than their
consumers, so creation order is a topological order: `backward` visits
the nodes a root reads newest first, popping them from a heap keyed by
that number, with no recursion and no tables keyed by object identity;
cotangents live on the nodes themselves.

There are no generic arithmetic nodes. The model's composite functions
(model.py, loss.py) compute their values once on plain ndarrays and,
when an operand is a Var, record a single node through `fuse` with a
hand-written VJP, the `torch.autograd.Function` pattern. Plain ndarrays
and Python scalars are constants: no node, no gradient. Each VJP keeps
the operation order of the plain chain it replaces, so a cotangent that
several consumers feed is summed in a fixed order and the gradients are
reproducible to the last bit.

Lifetime rule: a VJP captures every array it reads, its node's value
included, and a fused function drops, before it defines its VJP, the
operands that VJP does not read under the inputs given. Once an
evaluation is complete `loss._evaluate` calls `release`, which lets go
of every interior node's value, and lets go of its per-point leaves'
values too: a finished graph holds only what its VJPs read, reading an
interior or a released leaf's `.v` afterwards is a bug, and `grad` sizes
an unreached leaf from its `.shape`.

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

_created = itertools.count()


def value(x):
    """Underlying ndarray of a Var, or the input coerced to float64."""
    if isinstance(x, Var):
        return x.v
    return np.asarray(x, dtype=np.float64)


class Var:
    """Graph node: value (None once released), its shape, parents, a
    VJP, its cotangent slot, whether `backward` allocated that
    cotangent, and its creation sequence number."""

    __slots__ = ("v", "shape", "parents", "vjp", "g", "own", "seq")

    # keep numpy from absorbing `ndarray <op> Var` into a ufunc over an
    # object array
    __array_ufunc__ = None

    def __init__(self, val, parents=(), vjp=None):
        self.v = np.asarray(val, dtype=np.float64)
        self.shape = self.v.shape
        self.parents = parents
        self.vjp = vjp
        self.g = None
        self.own = False
        self.seq = next(_created)

    def __repr__(self):
        return f"Var({self.v!r})"


def fuse(out, inputs, vjp):
    """`out` as one graph node over the Vars among `inputs`, or `out`
    unchanged when there is none.

    vjp(g) returns one cotangent per entry of `inputs`, of that entry's
    shape, or None where no gradient flows; those of constant inputs are
    never read, so a VJP may skip them. An input listed more than once
    gets its cotangents summed in list order. vjp captures every array
    it reads, `out` included, and nothing else (the lifetime rule).
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

    The root is seeded with ones, so each entry of a vector root gets a
    cotangent of 1.0. Nodes are visited newest first, so each has summed
    the cotangents of all its consumers, in the order they were visited,
    before its own VJP runs: the first sum takes the array a VJP returned
    and later ones add into a copy that backward owns. Interior
    cotangents are dropped once pushed; each leaf reached keeps its
    gradient in `.g`, for the caller to reset, and the leaves come back
    in the order they were reached. A cotangent whose shape is not its
    parent's raises ValueError: no VJP broadcasts.
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
            cots = list(node.vjp(g))
            for i, parent in enumerate(node.parents):
                pg, cots[i] = cots[i], None
                if pg is None:
                    continue
                if pg.shape != parent.shape:
                    raise ValueError(f"a VJP returned a cotangent of shape "
                                     f"{pg.shape} for a parent of shape "
                                     f"{parent.shape}")
                if parent.g is None:
                    parent.g, parent.own = pg, False
                    heapq.heappush(todo, (-parent.seq, parent))
                elif parent.own:
                    parent.g += pg
                else:
                    parent.g = parent.g + pg
                    parent.own = True
    except BaseException:
        for node in leaves + [item[1] for item in todo]:
            node.g = None
        raise
    return leaves


def grad(root: Var, leaves) -> list[np.ndarray]:
    """Gradients of a root (of the sum of its entries) with respect to
    each leaf Var; a leaf the root does not reach gets zeros of its
    shape, also when its value was released."""
    reached = backward(root)
    out = [np.zeros(leaf.shape) if leaf.g is None else leaf.g
           for leaf in leaves]
    for leaf in reached:
        leaf.g = None
    return out


def release(root: Var) -> None:
    """Drop the value of every interior node a root reads; the root and
    the leaves keep theirs, and parents, VJPs and shapes stay, so
    `backward` still runs. A value of None marks a node as visited."""
    todo = list(root.parents)
    while todo:
        node = todo.pop()
        if node.vjp is not None and node.v is not None:
            node.v = None
            todo.extend(node.parents)


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
