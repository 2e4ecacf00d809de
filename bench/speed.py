"""The host's momentary speed, from a fixed calibration loop.

On a shared host the same fit can take anywhere from 1x to 2x its
fastest time, in phases that last seconds to minutes. The median of one
run then moves by 20-30% between runs. So the benchmark times this loop
just before and just after each timed call. It rescales the call's time
to REFERENCE_S, the loop's time when the host runs at full speed. A
slower phase stretches the loop and the call alike, so the ratio
cancels it. A change to fvcbfit moves the call's time and not the loop's.

The loop does what the fitting loop does, with code of its own: small
numpy operations on 2,000-element arrays, a chain of graph nodes with
closures, and a backward walk keyed by id(). Ten 20 s runs of
aci_batch spread 17.5% raw, 2.2% rescaled.
"""

from __future__ import annotations

import time

import numpy as np

# Time of the calibration loop at full speed on a 2-core x86-64 host with
# Python 3.11 and numpy 2.4; rescaled times are seconds at that speed.
REFERENCE_S = 0.0025

_X = np.linspace(0.0, 1.0, 2000)


class _Node:
    __slots__ = ("v", "parents", "vjp")

    def __init__(self, v, parents=(), vjp=None):
        self.v = v
        self.parents = parents
        self.vjp = vjp


def _loop() -> float:
    start = time.perf_counter()
    nodes = []
    prev = _Node(_X)
    for _ in range(150):
        y = prev.v * 1.0001 + 0.5
        z = np.exp(-y) / (y + 1.0)
        node = _Node(np.where(z > 0.3, z, y), (prev,),
                     lambda g, z=z: (g * z,))
        nodes.append(node)
        prev = node
    grads = {id(nodes[-1]): np.ones_like(_X)}
    for node in reversed(nodes):
        g = grads.pop(id(node))
        for parent, pg in zip(node.parents, node.vjp(g)):
            grads[id(parent)] = pg
    return time.perf_counter() - start


def calibrate() -> float:
    """Seconds taken by a fixed amount of interpreter and numpy work.

    The fastest of five repetitions, so that a single interruption of a
    few milliseconds does not count as a slow phase.
    """
    return min(_loop() for _ in range(5))


def rescaled(seconds: float, before: float, after: float) -> float:
    """A time taken between two calibrations, at reference speed."""
    return seconds * REFERENCE_S / (0.5 * (before + after))
