"""Zeros of a scalar function located from its samples on a grid.

One scanner serves the access sets and defect zeros of closed curves
(periodic grids) and the slope-denominator roots of ruled surfaces (an
open interval), refining by Brent's methods (scipy).
"""
from __future__ import annotations

import numpy as np
from scipy.optimize import brentq, minimize_scalar


def scan_zeros(f, nodes, vals, *, xtol: float, merge_tol: float,
               period=None, touch_tol=None):
    """Sorted ``(zeros, tangential)`` arrays for the scalar function f.

    ``vals`` holds f at the increasing ``nodes``.  With ``period`` the
    n nodes sample [0, period) and cell k is [nodes[k], nodes[k] +
    period / n], wrapping to node 0; without it cell k is [nodes[k],
    nodes[k + 1]].

    * A sign change across a cell is re-evaluated with f.  A bracket
      that survives is refined by ``brentq`` to ``xtol`` (transversal);
      one that does not means the zero sits on a node up to rounding,
      and the cell end nearer zero counts as an exact grid zero.
    * An exact grid zero is tangential when its two flanking samples
      share a sign, transversal when they differ or one is missing.
    * With ``touch_tol``, each local minimum of |vals| between two
      nodes that is not an end of a verified bracket is refined by
      bounded minimization of |f| over its two cells, and is a
      tangential zero when |f| <= ``touch_tol`` there.
    * Periodic zeros are reduced into [0, period).  Zeros within
      ``merge_tol`` (the periodic gap with ``period``) merge into the
      first in sorted order, transversal winning.
    """
    nodes = np.asarray(nodes, dtype=float)
    vals = np.asarray(vals, dtype=float)
    n = nodes.size
    idx = np.arange(n)
    if period is None:  # neighbours of each node, -1 for none
        left, right = idx - 1, np.where(idx + 1 < n, idx + 1, -1)
        lo, hi = nodes[left], nodes[right]
    else:
        left, right = (idx - 1) % n, (idx + 1) % n
        lo, hi = nodes - period / n, nodes + period / n
    sign = np.sign(vals)
    inner = (left >= 0) & (right >= 0)
    transversal = ~inner | (sign[left] * sign[right] < 0)

    found = [(float(nodes[j]), not transversal[j])
             for j in np.nonzero(sign == 0)[0]]
    bracketed = set()
    for k in np.nonzero((right >= 0) & (sign * sign[right] < 0))[0]:
        a, b = nodes[k], hi[k]
        fa, fb = f(a), f(b)
        if fa * fb < 0.0:
            found.append((float(brentq(f, a, b, xtol=xtol)), False))
            bracketed.update((k, right[k]))
        elif abs(fa) <= abs(fb):
            found.append((float(a), not transversal[k]))
        else:
            found.append((float(b), not transversal[right[k]]))
    if touch_tol is not None:
        av = np.abs(vals)
        for k in np.nonzero(inner & (av <= av[left]) & (av <= av[right]))[0]:
            if k in bracketed:
                continue  # its window holds the crossing brentq found
            res = minimize_scalar(lambda x: abs(f(x)), bounds=(lo[k], hi[k]),
                                  method="bounded", options={"xatol": xtol})
            x = float(res.x)
            if abs(f(x)) <= touch_tol:
                found.append((x, True))
    if period is not None:
        # a tiny negative x rounds to period itself; the second % maps
        # that to 0.0 and leaves every other value alone
        found = [(x % period % period, tang) for x, tang in found]

    def gap(a, b):
        d = abs(a - b)
        return d if period is None else min(d, period - d)

    zeros, flags = [], []
    for x, tang in sorted(found):
        if zeros and gap(x, zeros[-1]) <= merge_tol:
            flags[-1] = flags[-1] and tang
        else:
            zeros.append(x)
            flags.append(tang)
    if period is not None and len(zeros) > 1 \
            and gap(zeros[0], zeros[-1]) <= merge_tol:
        zeros.pop()
        tang = flags.pop()
        flags[0] = flags[0] and tang
    return np.asarray(zeros, dtype=float), np.asarray(flags, dtype=bool)
