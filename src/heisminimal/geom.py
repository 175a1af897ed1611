"""Small planar geometry helpers: segment intersections, point
clustering, and least-squares plane fitting."""
from __future__ import annotations

import numpy as np


def seg_intersect(p0, p1, q0, q1, eps: float = 1e-12):
    """Intersection point of segments p0-p1 and q0-q1, or None.

    Endpoint touches count.  Collinear overlapping segments report the
    midpoint of the shared part.
    """
    p0 = np.asarray(p0, dtype=float)
    p1 = np.asarray(p1, dtype=float)
    q0 = np.asarray(q0, dtype=float)
    q1 = np.asarray(q1, dtype=float)
    r = p1 - p0
    s = q1 - q0
    denom = r[0] * s[1] - r[1] * s[0]
    d = q0 - p0
    scale = max(np.abs(r).max(), np.abs(s).max(), 1e-30)
    if abs(denom) <= eps * scale * scale:
        cross_rd = r[0] * d[1] - r[1] * d[0]
        if abs(cross_rd) > eps * scale * scale:
            return None
        rr = float(r @ r)
        if rr <= eps * eps:
            return None
        t0 = float(d @ r) / rr
        t1 = t0 + float(s @ r) / rr
        lo, hi = min(t0, t1), max(t0, t1)
        lo = max(lo, 0.0)
        hi = min(hi, 1.0)
        if lo > hi + eps:
            return None
        tm = 0.5 * (lo + hi)
        return tuple(p0 + tm * r)
    t = (d[0] * s[1] - d[1] * s[0]) / denom
    u = (d[0] * r[1] - d[1] * r[0]) / denom
    if -eps <= t <= 1.0 + eps and -eps <= u <= 1.0 + eps:
        return tuple(p0 + t * r)
    return None


def segment_crossings(p0: np.ndarray, p1: np.ndarray, eps: float = 1e-12):
    """All pairwise intersections among segments p0[k] -> p1[k].

    Vectorized over the non-parallel pairs; parallel pairs fall back to
    the scalar routine, which resolves collinear overlaps.  Returns a
    list of (i, j, (x, y)) with i < j.
    """
    p0 = np.asarray(p0, dtype=float)
    p1 = np.asarray(p1, dtype=float)
    n = len(p0)
    if n < 2:
        return []
    i, j = np.triu_indices(n, k=1)
    r = p1 - p0
    d = p0[j] - p0[i]
    ri, sj = r[i], r[j]
    denom = ri[:, 0] * sj[:, 1] - ri[:, 1] * sj[:, 0]
    scale = np.maximum(np.abs(ri).max(axis=1) * np.abs(sj).max(axis=1),
                       1e-300)
    parallel = np.abs(denom) <= eps * scale
    hits = []
    ok = ~parallel
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (d[:, 0] * sj[:, 1] - d[:, 1] * sj[:, 0]) / denom
        u = (d[:, 0] * ri[:, 1] - d[:, 1] * ri[:, 0]) / denom
    good = ok & (t >= -eps) & (t <= 1 + eps) & (u >= -eps) & (u <= 1 + eps)
    for k in np.nonzero(good)[0]:
        pt = p0[i[k]] + t[k] * ri[k]
        hits.append((int(i[k]), int(j[k]), (float(pt[0]), float(pt[1]))))
    for k in np.nonzero(parallel)[0]:
        pt = seg_intersect(p0[i[k]], p1[i[k]], p0[j[k]], p1[j[k]], eps)
        if pt is not None:
            hits.append((int(i[k]), int(j[k]), pt))
    hits.sort(key=lambda h: (h[0], h[1]))
    return hits


def cluster_points(points: np.ndarray, tol: float):
    """Greedy clustering by Euclidean distance.

    Returns a list of index arrays, one per cluster.  Membership is
    transitive: any point within ``tol`` of a cluster member joins it.
    """
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    unused = np.ones(n, dtype=bool)
    clusters = []
    for i in range(n):
        if not unused[i]:
            continue
        members = [i]
        unused[i] = False
        frontier = [i]
        while frontier:
            k = frontier.pop()
            d = np.linalg.norm(pts - pts[k], axis=-1)
            near = unused & (d <= tol)
            for j in np.nonzero(near)[0]:
                unused[j] = False
                members.append(int(j))
                frontier.append(int(j))
        clusters.append(np.array(sorted(members)))
    return clusters


def plane_fit(points: np.ndarray):
    """Best-fit plane through 3D points by SVD.

    Returns (centroid, unit normal, max absolute residual).
    """
    pts = np.asarray(points, dtype=float)
    centroid = pts.mean(axis=0)
    centered = pts - centroid
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    normal = vt[-1]
    residual = float(np.abs(centered @ normal).max())
    return centroid, normal, residual
