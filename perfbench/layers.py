"""Per-layer measurement for the traced run.

The program is not changed to be measured: :class:`LayerTrace` wraps the
public entry points of each layer of one live service, on that service's
own objects, with a clock, and reads the counters the layers already
keep (cache accounting, disk access statistics, subscription state) and
the service's :class:`repro.obs.profile.PhaseProfiler`.  The wrappers
are installed for the traced rounds of a run and removed for the
untraced ones, so the difference between the two gives the tracing
overhead.

Layer → entry point timed:

* service — ``QueryService.answer``, ``insert_object``, ``delete_object``;
  its self time is the answer time minus the cache and server calls
  made beneath it;
* service.cache — ``ValidityCache.probe``, ``admit``, ``invalidate_mutation``;
* service.replica — ``ReplicaSet.answer``, ``insert_object``,
  ``delete_object`` (primary apply plus replication);
* service.continuous — ``SubscriptionHub.move``;
* core.server — ``answer`` of the server that runs the query: the
  ``LocationServer`` or ``ShardedServer`` under the service, or each
  replica's server under a ``ReplicaSet``.
"""

from __future__ import annotations

import random
from collections import defaultdict
from time import perf_counter
from typing import Dict, List, Optional

from common import mean, quantile
from oracle import region_area

KINDS = ("knn", "window", "range", "rknn", "probknn")
PROFILED_PHASES = ("shard_fanout", "index_descent", "tpnn_probing",
                   "influence_probing", "serialization")
NA_PHASES = ("nn", "tpnn", "result", "influence")
HUB_COUNTERS = ("pushes", "moves_patched", "moves_refetched")

#: Every per-layer metric the traced run reports, with its unit and the
#: direction that is better.  BENCHMARK.json lists the same names.
PER_LAYER = [
    ("client.local_p50_us", "us", "lower"),
    ("client.halfplane_checks", "count", "lower"),
    ("service.answer_p50_ms", "ms", "lower"),
    ("service.answer_p99_ms", "ms", "lower"),
    ("service.self_p50_ms", "ms", "lower"),
    ("service.mutation_p50_ms", "ms", "lower"),
    ("service.mutation_p99_ms", "ms", "lower"),
    ("cache.probe_p50_us", "us", "lower"),
    ("cache.probes", "count", "higher"),
    ("cache.hit_ratio", "ratio", "higher"),
    ("cache.evictions", "count", "lower"),
    ("cache.invalidate_p50_ms", "ms", "lower"),
    ("cache.surgical_drops", "count", "lower"),
    ("shard.fanout", "count", "lower"),
    ("phase.shard_fanout_ms", "ms", "lower"),
    ("replica.answer_p50_ms", "ms", "lower"),
    ("replica.replicate_p50_ms", "ms", "lower"),
    ("continuous.move_p50_ms", "ms", "lower"),
    ("continuous.moves_patched_ratio", "ratio", "higher"),
    ("continuous.pushes_per_mutation", "count", "lower"),
] + [(f"server.{kind}_p50_ms", "ms", "lower") for kind in KINDS] + [
    (f"phase.{phase}_ms", "ms", "lower") for phase in PROFILED_PHASES[1:]
] + [
    ("knn.tp_queries", "count", "lower"),
    ("knn.influence_set", "count", "lower"),
] + [(f"region.area.{kind}", "ratio", "higher") for kind in KINDS] + [
    ("storage.na_per_query", "count", "lower"),
] + [(f"storage.na.{phase}", "count", "lower") for phase in NA_PHASES] + [
    ("storage.pa_per_query", "count", "lower"),
    ("obs.trace_overhead_pct", "%", "lower"),
]

#: Regions whose area is estimated, per kind (bounds the sampling cost).
MAX_REGIONS_PER_KIND = 200


def _halfplanes(region) -> int:
    """Half-plane tests one ``contains`` call on ``region`` makes."""
    components = getattr(region, "components", None)
    if components is not None:
        return sum(_halfplanes(c) for c in components)
    return getattr(region, "num_halfplane_checks", 0)


class LayerTrace:
    """Clock wrappers and counter readings for one service's layers."""

    def __init__(self, profiler, universe, seed: int):
        self.service = None
        self.profiler = profiler
        self.universe = universe
        self.rng = random.Random(seed)
        self.times: Dict[str, List[float]] = defaultdict(list)
        self.counts: Dict[str, float] = defaultdict(float)
        self.regions: Dict[str, list] = defaultdict(list)
        self._installed: List[tuple] = []
        self._frames: List[List[float]] = []
        self._cache0: Optional[dict] = None
        self._hub0: Optional[dict] = None
        self._io0 = None
        #: (op seconds, op count) of traced and of untraced rounds.
        self.rounds = {True: [0.0, 0], False: [0.0, 0]}

    # ------------------------------------------------------------------
    # what the workloads report
    # ------------------------------------------------------------------
    def client_move(self, served: str, seconds: Optional[float],
                    checked_region) -> None:
        """One client position update: how it was served, what it cost
        (None when unmeasured), and the region its cache check tested
        (None when it held none)."""
        if served == "cache" and seconds is not None:
            self.times["client.local"].append(seconds)
        self.counts["client.moves"] += 1
        if checked_region is not None:
            self.counts["client.halfplane_checks"] += _halfplanes(
                checked_region)

    def region(self, kind: str, region) -> None:
        """A validity region a client received (areas are estimated at
        the end, outside every timed section)."""
        if len(self.regions[kind]) < MAX_REGIONS_PER_KIND:
            self.regions[kind].append(region)

    def round_done(self, traced: bool, op_seconds: float, ops: int) -> None:
        self.rounds[traced][0] += op_seconds
        self.rounds[traced][1] += ops

    # ------------------------------------------------------------------
    # wrappers
    # ------------------------------------------------------------------
    def install(self, service) -> None:
        """Wrap the layers of ``service`` (a run may build several)."""
        self.service = svc = service
        svc.profiler = self.profiler
        self._wrap(svc, "answer", self._service_answer)
        self._wrap(svc, "insert_object", self._timed("service.mutation"))
        self._wrap(svc, "delete_object", self._timed("service.mutation"))
        cache = svc.cache
        if cache is not None:
            self._wrap(cache, "probe", self._timed("cache.probe", child=True))
            self._wrap(cache, "admit", self._timed("cache.admit", child=True))
            self._wrap(cache, "invalidate_mutation",
                       self._timed("cache.invalidate"))
            self._cache0 = cache.snapshot()
        server = svc.server
        replicas = getattr(server, "replicas", None)
        if replicas is not None:
            self._wrap(server, "answer", self._timed("replica.answer",
                                                     child=True))
            self._wrap(server, "insert_object",
                       self._timed("replica.replicate"))
            self._wrap(server, "delete_object",
                       self._timed("replica.replicate"))
            for replica in replicas:
                self._wrap(replica.server, "answer", self._server_answer)
        else:
            self._wrap(server, "answer",
                       lambda original: self._server_answer(original,
                                                            child=True))
        self._hub0 = None
        if svc.hub is not None:
            self._watch_hub(svc.hub.snapshot())
        else:  # the hub is made by the first subscribe of the round
            self._wrap(svc, "subscribe", self._subscribe)
        self._io0 = (server.node_accesses_by_phase(),
                     server.page_faults_by_phase())

    def uninstall(self) -> None:
        """Remove the wrappers and fold the counters' movement in."""
        for obj, attr in reversed(self._installed):
            delattr(obj, attr)
        self._installed.clear()
        svc = self.service
        svc.profiler = None
        if svc.cache is not None:
            after = svc.cache.snapshot()
            for key in ("hits", "misses", "evictions", "surgical_drops"):
                self.counts[f"cache.{key}"] += after[key] - self._cache0[key]
        if self._hub0 is not None:
            after = svc.hub.snapshot()
            for key in HUB_COUNTERS:
                self.counts[f"continuous.{key}"] += (after[key]
                                                     - self._hub0[key])
        na0, pa0 = self._io0
        for phase, count in svc.server.node_accesses_by_phase().items():
            self.counts[f"na.{phase}"] += count - na0.get(phase, 0)
        pa = svc.server.page_faults_by_phase()
        self.counts["pa"] += sum(pa.values()) - sum(pa0.values())
        self.service = None  # the run may close and replace it

    def _watch_hub(self, baseline: dict) -> None:
        self._wrap(self.service.hub, "move", self._timed("continuous.move"))
        self._hub0 = baseline

    def _subscribe(self, original):
        def wrapper(*args, **kwargs):
            sub = original(*args, **kwargs)
            if self._hub0 is None:  # a new hub counts from zero
                self._watch_hub(dict.fromkeys(HUB_COUNTERS, 0))
            return sub
        return wrapper

    def _wrap(self, obj, attr: str, make) -> None:
        """Shadow the bound method ``obj.attr`` with ``make(original)``;
        deleting the instance attribute later restores the method."""
        setattr(obj, attr, make(getattr(obj, attr)))
        self._installed.append((obj, attr))

    def _timed(self, name: str, child: bool = False):
        """A wrapper factory recording the call's duration under ``name``;
        ``child`` calls are also charged to the enclosing service answer."""
        def make(original):
            def wrapper(*args, **kwargs):
                t0 = perf_counter()
                try:
                    return original(*args, **kwargs)
                finally:
                    dt = perf_counter() - t0
                    self.times[name].append(dt)
                    if child and self._frames:
                        self._frames[-1][0] += dt
            return wrapper
        return make

    def _service_answer(self, original):
        def wrapper(request, *args, **kwargs):
            self._frames.append([0.0])
            t0 = perf_counter()
            try:
                return original(request, *args, **kwargs)
            finally:
                dt = perf_counter() - t0
                beneath = self._frames.pop()[0]
                self.times["service.answer"].append(dt)
                self.times["service.self"].append(dt - beneath)
        return wrapper

    def _server_answer(self, original, child: bool = False):
        def wrapper(request, *args, **kwargs):
            t0 = perf_counter()
            response = original(request, *args, **kwargs)
            dt = perf_counter() - t0
            if child and self._frames:
                self._frames[-1][0] += dt
            kind = request.kind
            self.times[f"server.{kind}"].append(dt)
            detail = response.detail
            self.counts["server.calls"] += 1
            fanout = getattr(detail, "shards_queried", None)
            if fanout is not None:
                self.counts["shard.fanout"] += fanout
                self.counts["shard.fanout_calls"] += 1
            if kind == "knn":
                self.counts["knn.calls"] += 1
                self.counts["knn.influence_set"] += len(detail.influence_set)
                tp = getattr(detail, "num_tp_queries", None)
                if tp is not None:
                    self.counts["knn.tp_queries"] += tp
                    self.counts["knn.tp_calls"] += 1
            return response
        return wrapper

    # ------------------------------------------------------------------
    # the report
    # ------------------------------------------------------------------
    def metrics(self) -> Dict[str, float]:
        t, c = self.times, self.counts

        def p(name, q, scale):
            return quantile(t.get(name, []), q) * scale

        def ratio(num, den):
            return c[num] / c[den] if c[den] else 0.0

        out = {
            "client.local_p50_us": p("client.local", 0.5, 1e6),
            "client.halfplane_checks": ratio("client.halfplane_checks",
                                             "client.moves"),
            "service.answer_p50_ms": p("service.answer", 0.5, 1e3),
            "service.answer_p99_ms": p("service.answer", 0.99, 1e3),
            "service.self_p50_ms": p("service.self", 0.5, 1e3),
            "service.mutation_p50_ms": p("service.mutation", 0.5, 1e3),
            "service.mutation_p99_ms": p("service.mutation", 0.99, 1e3),
            "cache.probe_p50_us": p("cache.probe", 0.5, 1e6),
            "cache.probes": c["cache.hits"] + c["cache.misses"],
            "cache.hit_ratio": (c["cache.hits"]
                                / (c["cache.hits"] + c["cache.misses"])
                                if c["cache.hits"] + c["cache.misses"]
                                else 0.0),
            "cache.evictions": c["cache.evictions"],
            "cache.invalidate_p50_ms": p("cache.invalidate", 0.5, 1e3),
            "cache.surgical_drops": c["cache.surgical_drops"],
            "shard.fanout": ratio("shard.fanout", "shard.fanout_calls"),
            "replica.answer_p50_ms": p("replica.answer", 0.5, 1e3),
            "replica.replicate_p50_ms": p("replica.replicate", 0.5, 1e3),
            "continuous.move_p50_ms": p("continuous.move", 0.5, 1e3),
            "continuous.moves_patched_ratio": (
                c["continuous.moves_patched"]
                / (c["continuous.moves_patched"]
                   + c["continuous.moves_refetched"])
                if c["continuous.moves_patched"]
                + c["continuous.moves_refetched"] else 0.0),
            "continuous.pushes_per_mutation": (
                c["continuous.pushes"] / len(t["service.mutation"])
                if t.get("service.mutation") else 0.0),
            "knn.tp_queries": ratio("knn.tp_queries", "knn.tp_calls"),
            "knn.influence_set": ratio("knn.influence_set", "knn.calls"),
            "storage.na_per_query": (sum(c[f"na.{ph}"] for ph in self._na_phases())
                                     / c["server.calls"]
                                     if c["server.calls"] else 0.0),
            "storage.pa_per_query": ratio("pa", "server.calls"),
        }
        for kind in KINDS:
            out[f"server.{kind}_p50_ms"] = p(f"server.{kind}", 0.5, 1e3)
            areas = [region_area(r, self.universe, self.rng)
                     for r in self.regions.get(kind, [])]
            out[f"region.area.{kind}"] = mean(areas)
        for phase in NA_PHASES:
            out[f"storage.na.{phase}"] = ratio(f"na.{phase}", "server.calls")
        table = {row["phase"]: row for row in self.profiler.phase_table()}
        for phase in PROFILED_PHASES:
            row = table.get(phase)
            out[f"phase.{phase}_ms"] = (row["total_ms"] / row["samples"]
                                        if row and row["samples"] else 0.0)
        (traced_s, traced_n), (plain_s, plain_n) = (self.rounds[True],
                                                    self.rounds[False])
        out["obs.trace_overhead_pct"] = (
            ((traced_s / traced_n) / (plain_s / plain_n) - 1.0) * 100.0
            if traced_n and plain_n and plain_s else 0.0)
        return out

    def _na_phases(self):
        return [key[3:] for key in self.counts if key.startswith("na.")]
