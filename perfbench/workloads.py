"""The benchmark's three workloads.

Each is a closed loop driven by one thread: an operation is issued only
after the previous one returned.  A run executes whole rounds until its
measured time is used up.  All inputs come from ``--seed``, except the
paper's North-America stand-in, which is the program's fixed dataset.

* ``paper_na`` — the paper's §6 setting at paper scale: cold kNN (k=1,
  k=10) and window queries at locations that follow the data, over the
  569,120-point North-America stand-in on one R*-tree with a 10% LRU
  buffer.  Every round asks 30 new queries of the same tree.  The index,
  the TPNN probing, the clipping and the simulated disk carry the work;
  no client, cache, shard or replica layer runs.
* ``fleet_mixed`` — 600 moving clients issue all five query kinds
  against a 4x4-sharded, cached service over 4,000 uniform points.
  Client region checks, shard scatter/merge and the snapshot kinds
  carry the work; clients cache for themselves, so the server cache
  is bypassed.
* ``live_updates`` — inserts and deletes interleave with 120 moving
  kNN/window/range clients (a third of them subscribed) on a
  two-replica cached service over 3,000 uniform points.  Each mutation
  empties the unsubscribed clients' caches, so the server cache's
  surgical invalidation, replication and subscription patches carry
  the reads.  Every round also runs one fixed kNN-after-insert probe
  (see :meth:`LiveUpdates.probe`).

The two fleet workloads start every round from a freshly built service
over the seed's points and the benchmark's own fresh copy of them, with
new clients on new paths (and, on live_updates, a new mutation stream)
drawn from the seed and the round number: a longer run measures more
distinct operations, not the same ones again.  Each round begins with
one unmeasured tick that opens every client's cache.  Every round
attempts the same number of operations, and the warm-up is one whole
round as well, so the share of failed operations is the same in every
run.
"""

from __future__ import annotations

import math
import os
import random
from typing import List, Optional, Tuple

import numpy as np

from common import OpLog, import_program
from oracle import Checker, Oracle, PointSet

import_program()

from repro import (  # noqa: E402  (the program is imported from src/)
    CacheConfig,
    ExecutionConfig,
    KNNRequest,
    MobileClient,
    WindowRequest,
    build_service,
    make_north_america_like,
    uniform_points,
)
from repro.datasets.real_like import NA_UNIVERSE  # noqa: E402
from repro.datasets.synthetic import UNIT_UNIVERSE  # noqa: E402
from repro.mobility import random_waypoint  # noqa: E402

#: Shard pools never get more workers than the machine has cores.
WORKERS = min(2, os.cpu_count() or 1)


def _ids(entries) -> List[int]:
    return [e.oid for e in entries]


class Workload:
    """One workload: its inputs, its service, and its rounds."""

    name = ""
    universe = UNIT_UNIVERSE
    #: Timed builds before the first round, at least ``setup_reps`` of
    #: them and at least ``setup_min_seconds`` of building; ``setup_s``
    #: is the median of these and of the builds of rebuilding rounds.
    setup_reps = 5
    setup_min_seconds = 1.0
    #: Whether every round starts from a freshly built service.
    rebuild_each_round = False
    #: Rounds run by :meth:`warm`.
    warmup_rounds = 1

    def __init__(self, seed: int, execution: Optional[ExecutionConfig] = None):
        self.seed = seed
        self.execution = execution
        self.points = self.make_points()
        self.checker = Checker(Oracle(PointSet(self.points),
                                      tol=1e-9 * self.universe.width),
                               self.universe, seed=seed)
        self.service = None

    def make_points(self) -> np.ndarray:
        raise NotImplementedError

    def build(self):
        """Raw points to a ready service (the timed set-up)."""
        raise NotImplementedError

    def start(self) -> None:
        """Begin on the freshly built ``self.service``: the oracle's copy
        of the points starts over with it."""
        self.live = PointSet(self.points)
        self.checker.restart(self.live)

    def warm(self, log: OpLog) -> None:
        """Unmeasured operations before the measured rounds: imports,
        first-use allocations and the buffer's first pages are paid
        here."""
        for w in range(self.warmup_rounds):
            self.round(-1 - w, log)

    def round(self, r: int, log: OpLog, trace=None) -> None:
        raise NotImplementedError

    def close(self) -> None:
        if self.service is not None:
            self.service.close()
            self.service = None

    # ------------------------------------------------------------------
    def _check(self, log: OpLog, shape, q, ids, region=None) -> None:
        """Check one answer (and, when given, its fresh region)."""
        if not self.checker.answer(shape, q, ids):
            log.fail(f"wrong {shape[0]} answer", wrong=True)
        elif region is not None and not self.checker.region(shape, region,
                                                            ids):
            log.fail(f"{shape[0]} region failed a soundness probe")


# ----------------------------------------------------------------------
# paper_na
# ----------------------------------------------------------------------
class PaperNA(Workload):
    name = "paper_na"
    universe = NA_UNIVERSE
    setup_reps = 3
    setup_min_seconds = 0.0
    warmup_rounds = 2
    #: Per round: 10 queries of each shape, in a seeded order.
    PER_SHAPE = 10
    #: The window covers 1,000 km^2 (the paper's NA window sizes run
    #: from 100 to 10,000 km^2; the universe is in metres).
    WINDOW_SIDE = math.sqrt(1000.0) * 1000.0
    SHAPES = (("knn", 1), ("knn", 10), ("window", WINDOW_SIDE, WINDOW_SIDE))
    #: Query locations are data points jittered by 0.2% of the universe.
    JITTER = 0.002

    def make_points(self):
        return make_north_america_like()

    def build(self):
        return build_service(self.points, universe=NA_UNIVERSE,
                             buffer_fraction=0.1, execution=self.execution)

    def _queries(self, r: int):
        rng = np.random.default_rng(
            random.Random(f"{self.seed}:{r}").getrandbits(64))
        n = self.PER_SHAPE * len(self.SHAPES)
        picks = self.points[rng.integers(0, len(self.points), size=n)]
        locs = picks + rng.normal(0.0, self.JITTER * NA_UNIVERSE.width,
                                  size=(n, 2))
        np.clip(locs, NA_UNIVERSE.xmin, NA_UNIVERSE.xmax, out=locs)
        shapes = [s for s in self.SHAPES for _ in range(self.PER_SHAPE)]
        order = rng.permutation(n)
        return [(shapes[i], (float(locs[i, 0]), float(locs[i, 1])))
                for i in order]

    def round(self, r, log, trace=None):
        for shape, q in self._queries(r):
            if shape[0] == "knn":
                request = KNNRequest(q, k=shape[1])
            else:
                request = WindowRequest(q, shape[1], shape[2])
            ok, response = log.timed(self.service.answer, request)
            if not ok:
                continue
            log.traffic(1, response.transfer_bytes())
            self._check(log, shape, q, _ids(response.result),
                        response.region)
            if trace is not None:
                trace.region(shape[0], response.region)


# ----------------------------------------------------------------------
# moving clients (fleet_mixed, live_updates)
# ----------------------------------------------------------------------
def _query(client: MobileClient, shape, pos):
    kind = shape[0]
    if kind == "knn":
        return client.knn(pos, k=shape[1])
    if kind == "window":
        return client.window(pos, shape[1], shape[2])
    if kind == "range":
        return client.range(pos, shape[1])
    if kind == "rknn":
        return client.rknn(pos, k=shape[1])
    return client.probknn(pos, shape[1], k=shape[2])


class FleetWorkload(Workload):
    """Clients of several kinds moving through the universe; every round
    is a new episode (paths drawn from the seed and the round number) on
    a freshly built service over the seed's points."""

    rebuild_each_round = True
    NUM_POINTS = 0
    #: (shape, number of clients, subscribed?) groups.
    CLIENTS: Tuple = ()
    #: Measured ticks per round; every client moves once a tick.
    TICKS = 0
    #: Step per tick as a share of the mean point spacing 1/sqrt(N), the
    #: speed benchmarks/bench_mixed_workload.py drives its fleet at.
    STEP = 0.05

    def make_points(self):
        return uniform_points(self.NUM_POINTS, seed=self.seed)

    def enlist(self, r: int) -> None:
        """Round ``r``'s clients, on their random-waypoint paths."""
        rng = random.Random(f"{self.seed}:{r}:clients")
        speed = self.STEP / math.sqrt(self.NUM_POINTS)
        self.clients = []
        for shape, count, subscribed in self.CLIENTS:
            for _ in range(count):
                path = random_waypoint(UNIT_UNIVERSE, 1 + self.TICKS, speed,
                                       seed=rng.getrandbits(64))
                self.clients.append(
                    (shape, MobileClient(self.service, subscribe=subscribed),
                     iter([(p.x, p.y) for p in path.positions()])))
        # One fixed interleaving of client kinds for every tick.
        rng.shuffle(self.clients)

    def round(self, r, log, trace=None):
        self.enlist(r)
        log.measuring = False  # the tick that opens every client's cache
        try:
            self.tick(log, trace)
        finally:
            log.measuring = True
        for _ in range(self.TICKS):
            self.tick(log, trace)

    def tick(self, log: OpLog, trace=None) -> None:
        for shape, client, path in self.clients:
            self.move(log, shape, client, path, trace)

    def move(self, log: OpLog, shape, client: MobileClient, path,
             trace=None) -> None:
        pos = next(path)
        kind = shape[0]
        held = client.cache_entry(kind)
        checked = held.response.region if held is not None else None
        requests0 = client.stats.server_queries
        bytes0 = client.stats.bytes_received
        pushes0 = client.stats.pushes_applied
        ok, entries = log.timed(_query, client, shape, pos)
        if not ok:
            return
        log.traffic(client.stats.server_queries - requests0,
                    client.stats.bytes_received - bytes0)
        entry = client.cache_entry(kind)
        fresh = (client.last_served == "server"
                 or client.stats.pushes_applied != pushes0)
        region = entry.response.region if fresh and entry else None
        self._check(log, shape, pos, _ids(entries), region)
        if trace is not None:
            trace.client_move(client.last_served, log.latencies_s[-1]
                              if log.measuring else None, checked)
            if region is not None:
                trace.region(kind, region)

    def close(self):
        for _, client, _ in getattr(self, "clients", []):
            client.close()
        self.clients = []
        super().close()


class FleetMixed(FleetWorkload):
    name = "fleet_mixed"
    NUM_POINTS = 4000
    TICKS = 5
    #: Many clients on short paths: the counts of a run average over
    #: more independent paths than a few clients on long ones would.
    CLIENTS = (
        (("knn", 4), 330, False),
        (("window", 0.05, 0.05), 110, False),
        (("range", 0.03), 112, False),
        (("rknn", 2), 6, False),
        (("probknn", 0.01, 3), 42, False),
    )

    def build(self):
        execution = self.execution or ExecutionConfig(backend="thread",
                                                      workers=WORKERS)
        return build_service(self.points, shards=4, universe=UNIT_UNIVERSE,
                             cache=CacheConfig(), execution=execution)


class LiveUpdates(FleetWorkload):
    name = "live_updates"
    NUM_POINTS = 3000
    TICKS = 30
    #: The seeded kNN clients ask for k=1.  For k > 1 the program's
    #: surgical cache invalidation keeps kNN entries that an insert has
    #: made wrong (see CHANGES.md); on seeded paths that shows on some
    #: seeds only, so the fixed :meth:`probe` shows it in every round.
    CLIENTS = (
        (("knn", 1), 40, False),
        (("knn", 1), 20, True),
        (("window", 0.05, 0.05), 20, False),
        (("window", 0.05, 0.05), 10, True),
        (("range", 0.03), 20, False),
        (("range", 0.03), 10, True),
    )
    #: Mutations per tick, alternating insert and delete, spread evenly
    #: between the client moves.
    MUTATIONS = 6
    #: Operations of one :meth:`probe`.
    PROBE_OPS = 4

    @classmethod
    def ops_per_round(cls) -> int:
        """Operations one round attempts: every client move and mutation
        of every tick (the unmeasured first tick too) and the probe."""
        clients = sum(count for _, count, _ in cls.CLIENTS)
        return (1 + cls.TICKS) * (clients + cls.MUTATIONS) + cls.PROBE_OPS

    def build(self):
        return self._build(self.points)

    def _build(self, points):
        return build_service(points, replicas=2, universe=UNIT_UNIVERSE,
                             cache=CacheConfig(), execution=self.execution)

    def round(self, r, log, trace=None):
        self.mutation_rng = random.Random(f"{self.seed}:{r}:mutations")
        super().round(r, log, trace)
        self.probe(log)

    def tick(self, log, trace=None):
        every = len(self.clients) // self.MUTATIONS
        for i, (shape, client, path) in enumerate(self.clients):
            if i % every == 0 and i // every < self.MUTATIONS:
                self.mutate(log, insert=(i // every) % 2 == 0)
            self.move(log, shape, client, path, trace)

    @staticmethod
    def probe_scenario():
        """A fixed kNN-after-insert case, the same for every seed: the
        point at q and three points on a ring of radius 0.1 are q's four
        nearest neighbours, twelve more points wait just outside the
        ring, so the cached region is tiny, and the inserted point lands
        at distance 0.05 from q, inside the ring: it must join the
        answer.  Returns (points, q, k, inserted point)."""
        def ring(radius, n, phase):
            return [(0.5 + radius * math.cos(phase + 2 * math.pi * i / n),
                     0.5 + radius * math.sin(phase + 2 * math.pi * i / n))
                    for i in range(n)]
        points = np.array([(0.5, 0.5)] + ring(0.1, 3, 0.0)
                          + ring(0.1005, 12, 0.1))
        inserted = (0.5 + 0.05 * math.cos(math.pi / 3),
                    0.5 + 0.05 * math.sin(math.pi / 3))
        return points, (0.5, 0.5), 4, inserted

    def probe(self, log: OpLog) -> None:
        """Ask the probe scenario's kNN query on a service of its own
        (built like this workload's), insert the point, ask again and
        delete it: four operations, unmeasured, each answer checked.

        The second answer has to come from the server cache's surgical
        invalidation deciding whether the cached entry survives the
        insert.  The program keeps the entry and serves the answer
        without the inserted point, so this operation fails in every
        round until that fault is mended.  It counts in ``failed`` but
        not as a wrong answer of the seeded workload: it is the same
        known fault on fixed inputs every time."""
        points, q, k, (x, y) = self.probe_scenario()
        live = PointSet(points)
        checker = Checker(Oracle(live, tol=1e-9), UNIT_UNIVERSE, self.seed)
        shape = ("knn", k)
        service = self._build(points)
        log.measuring = False
        try:
            ok, first = log.timed(service.answer, KNNRequest(q, k=k))
            if ok and not checker.answer(shape, q, _ids(first.result)):
                log.fail("wrong knn answer in the probe", wrong=True)
            oid = live.insert(x, y)
            log.timed(service.insert_object, oid, x, y)
            ok, second = log.timed(service.answer, KNNRequest(q, k=k))
            if ok and not checker.answer(shape, q, _ids(second.result)):
                log.fail("probe: stale knn answer after an insert "
                         "(surgical cache invalidation)")
            live.delete(oid)
            log.timed(service.delete_object, oid, x, y)
        finally:
            log.measuring = True
            service.close()

    def mutate(self, log: OpLog, insert: bool) -> None:
        rng = self.mutation_rng
        if insert:
            x, y = rng.random(), rng.random()
            oid = self.live.insert(x, y)
            log.timed(self.service.insert_object, oid, x, y)
            return
        live = self.live.live_ids()
        oid = int(live[rng.randrange(len(live))])
        x, y = self.live.delete(oid)
        ok, removed = log.timed(self.service.delete_object, oid, x, y)
        if ok and not removed:
            log.fail("delete of a live object removed nothing", wrong=True)


WORKLOADS = {w.name: w for w in (PaperNA, FleetMixed, LiveUpdates)}
