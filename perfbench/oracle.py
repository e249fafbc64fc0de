"""An answer oracle independent of the program, and the checks built on it.

Every query kind is answered here from its definition, by brute force
over the benchmark's own copy of the live points (a scipy ``cKDTree``
narrows the candidates; the decisions are plain distance comparisons):

* ``knn`` (k): the k objects nearest to q;
* ``window`` (w, h): the objects with |x - qx| <= w/2 and |y - qy| <= h/2;
* ``range`` (r): the objects within distance r of q;
* ``rknn`` (k): the objects o with dist(o, q) < r_o, where r_o is the
  distance from o to its k-th nearest other object;
* ``probknn`` (u, k): the objects within D_k + 2u of q, D_k being the
  k-th smallest distance from q.

An oracle answer is a pair ``(must, may)`` of id sets: a correct answer
holds every id of ``must`` and no id outside ``may``; the gap is the
objects whose distance ties the decision boundary within ``tol``.

A validity region is a promise that the answer stays the same anywhere
inside it.  :meth:`Checker.region` tests the promise at seeded points
drawn inside the region: at each, the shipped answer must still pass
the oracle.
"""

from __future__ import annotations

import math
import random
from typing import Optional, Sequence, Set, Tuple

import numpy as np
from scipy.spatial import cKDTree

Shape = Tuple  # (kind, *params): ("knn", k), ("window", w, h), ...


class PointSet:
    """The benchmark's own copy of the live dataset, ids = row numbers."""

    def __init__(self, points: np.ndarray):
        pts = np.asarray(points, dtype=float)
        self._xy = np.array(pts, copy=True)
        self._alive = np.ones(len(pts), dtype=bool)
        self._n = len(pts)
        self._version = 0
        self._view_version = -1
        self._rknn_cache = {}

    def __len__(self) -> int:
        return int(self._alive[:self._n].sum())

    def insert(self, x: float, y: float) -> int:
        """Add a point; returns its id (the next row number)."""
        if self._n == len(self._xy):
            grow = max(16, len(self._xy) // 2)
            self._xy = np.vstack([self._xy, np.zeros((grow, 2))])
            self._alive = np.concatenate([self._alive,
                                          np.zeros(grow, dtype=bool)])
        oid = self._n
        self._xy[oid] = (x, y)
        self._alive[oid] = True
        self._n += 1
        self._version += 1
        return oid

    def delete(self, oid: int) -> Tuple[float, float]:
        """Remove a live point; returns its coordinates."""
        if not (0 <= oid < self._n and self._alive[oid]):
            raise KeyError(oid)
        self._alive[oid] = False
        self._version += 1
        return float(self._xy[oid, 0]), float(self._xy[oid, 1])

    def live_ids(self) -> np.ndarray:
        return np.flatnonzero(self._alive[:self._n])

    def _view(self):
        if self._view_version != self._version:
            self._ids = self.live_ids()
            self._pts = self._xy[self._ids]
            self._tree = cKDTree(self._pts)
            self._rknn_cache = {}
            self._view_version = self._version
        return self._ids, self._pts, self._tree

    def kth_other_distance(self, k: int) -> np.ndarray:
        """r_o for every live o: distance to its k-th nearest other point."""
        ids, pts, tree = self._view()
        if k not in self._rknn_cache:
            if len(ids) <= k:
                radii = np.full(len(ids), math.inf)
            else:
                # The k+1 nearest include o itself (distance 0); a
                # duplicate of o also sits at 0, so dropping one zero
                # is right either way.
                dist, _ = tree.query(pts, k=k + 1)
                radii = dist[:, k]
            self._rknn_cache[k] = radii
        return self._rknn_cache[k]


class Oracle:
    """Brute-force answers over a :class:`PointSet`."""

    def __init__(self, points: PointSet, tol: float):
        self.points = points
        self.tol = float(tol)

    def answer(self, shape: Shape, q) -> Tuple[Set[int], Set[int], Optional[int]]:
        """``(must, may, size)`` for ``shape`` at ``q``; ``size`` is the
        exact result cardinality where the definition fixes one."""
        kind = shape[0]
        qx, qy = float(q[0]), float(q[1])
        ids, pts, tree = self.points._view()
        tol = self.tol
        if len(ids) == 0:
            return set(), set(), 0
        if kind == "knn":
            k = min(shape[1], len(ids))
            dist, _ = tree.query((qx, qy), k=k)
            kth = float(np.atleast_1d(dist)[-1])
            return self._ball(ids, pts, tree, qx, qy, kth) + (k,)
        if kind == "window":
            hw, hh = shape[1] / 2.0, shape[2] / 2.0
            near = tree.query_ball_point((qx, qy), max(hw, hh) + tol,
                                         p=np.inf)
            dx = np.abs(pts[near, 0] - qx)
            dy = np.abs(pts[near, 1] - qy)
            near_ids = ids[near]
            must = near_ids[(dx < hw - tol) & (dy < hh - tol)]
            may = near_ids[(dx <= hw + tol) & (dy <= hh + tol)]
            return set(must.tolist()), set(may.tolist()), None
        if kind == "range":
            return self._ball(ids, pts, tree, qx, qy, shape[1]) + (None,)
        if kind == "rknn":
            radii = self.points.kth_other_distance(shape[1])
            d = np.hypot(pts[:, 0] - qx, pts[:, 1] - qy)
            must = ids[d < radii - tol]
            may = ids[d < radii + tol]
            return set(must.tolist()), set(may.tolist()), None
        if kind == "probknn":
            u, k = shape[1], min(shape[2], len(ids))
            dist, _ = tree.query((qx, qy), k=k)
            horizon = float(np.atleast_1d(dist)[-1]) + 2.0 * u
            return self._ball(ids, pts, tree, qx, qy, horizon) + (None,)
        raise ValueError(f"no oracle for kind {kind!r}")

    def _ball(self, ids, pts, tree, qx, qy, radius):
        """Ids strictly inside ``radius`` (must) and within it (may)."""
        near = tree.query_ball_point((qx, qy), radius + self.tol)
        d = np.hypot(pts[near, 0] - qx, pts[near, 1] - qy)
        near_ids = ids[near]
        return (set(near_ids[d < radius - self.tol].tolist()),
                set(near_ids.tolist()))


def region_box(region, universe):
    """The region's bounding box clipped to the universe, as
    ``(x0, y0, x1, y1)``, or ``None`` when it has no area."""
    box = region.mbr()
    if box is None:  # an unbounded region: the universe bounds it
        box = universe
    x0, y0 = max(box.xmin, universe.xmin), max(box.ymin, universe.ymin)
    x1, y1 = min(box.xmax, universe.xmax), min(box.ymax, universe.ymax)
    if x1 <= x0 or y1 <= y0:
        return None
    return x0, y0, x1, y1


def points_inside(region, universe, rng: random.Random, n: int,
                  tries_per_point: int = 32):
    """Up to ``n`` seeded points drawn uniformly inside ``region``."""
    box = region_box(region, universe)
    if box is None:
        return []
    x0, y0, x1, y1 = box
    out = []
    for _ in range(n * tries_per_point):
        p = (rng.uniform(x0, x1), rng.uniform(y0, y1))
        if region.contains(p):
            out.append(p)
            if len(out) == n:
                break
    return out


def region_area(region, universe, rng: random.Random,
                samples: int = 400) -> float:
    """Region area as a share of the universe: closed form where the
    region has one, else the hit rate of seeded ``contains`` samples
    over its bounding box."""
    total = universe.area()
    area = getattr(region, "area", None)
    if area is not None:
        return min(area() / total, 1.0)
    polygon = getattr(region, "polygon", None)
    if polygon is not None:
        return polygon().area() / total
    box = region_box(region, universe)
    if box is None:
        return 0.0
    x0, y0, x1, y1 = box
    hits = sum(region.contains((rng.uniform(x0, x1), rng.uniform(y0, y1)))
               for _ in range(samples))
    return hits / samples * (x1 - x0) * (y1 - y0) / total


class Checker:
    """Checks answers and regions against the :class:`Oracle`.

    ``probes`` seeded points are drawn inside every region handed to
    :meth:`region`; the answer must pass the oracle at each of them.
    """

    def __init__(self, oracle: Oracle, universe, seed: int,
                 probes: int = 2):
        self.oracle = oracle
        self.universe = universe
        self.seed = seed
        self.rng = random.Random(seed)
        self.probes = probes
        self.answers_checked = 0
        self.probes_checked = 0

    def restart(self, points: PointSet) -> None:
        """Check against ``points`` from now on, with the probe points
        drawn again from the start of the seeded sequence."""
        self.oracle.points = points
        self.rng.seed(self.seed)

    def answer(self, shape: Shape, q, result_ids: Sequence[int]) -> bool:
        """Is ``result_ids`` a correct ``shape`` answer at ``q``?"""
        self.answers_checked += 1
        return self._valid(shape, q, result_ids)

    def region(self, shape: Shape, region, result_ids: Sequence[int]) -> bool:
        """Does ``result_ids`` stay correct at seeded points inside
        ``region``?"""
        for p in points_inside(region, self.universe, self.rng,
                               self.probes):
            self.probes_checked += 1
            if not self._valid(shape, p, result_ids):
                return False
        return True

    def _valid(self, shape: Shape, q, result_ids: Sequence[int]) -> bool:
        ids = list(result_ids)
        got = set(ids)
        if len(got) != len(ids):
            return False  # an object reported twice
        must, may, size = self.oracle.answer(shape, q)
        if size is not None and len(got) != size:
            return False
        return must <= got <= may
