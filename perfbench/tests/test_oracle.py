"""The benchmark's oracle and checker, against the program and against
answers known to be wrong."""

import random

import pytest

from common import OpLog, import_program
from oracle import Checker, Oracle, PointSet, region_area

repro = import_program()

from repro import (  # noqa: E402
    CacheConfig,
    KNNRequest,
    ProbKNNRequest,
    RangeRequest,
    RKNNRequest,
    WindowRequest,
    build_service,
    uniform_points,
)
from repro.core.validity import ValidityDisk  # noqa: E402
from repro.datasets.synthetic import UNIT_UNIVERSE  # noqa: E402

SHAPES = [("knn", 1), ("knn", 5), ("window", 0.1, 0.06), ("range", 0.05),
          ("rknn", 2), ("probknn", 0.02, 3)]


def _request(shape, q):
    kind = shape[0]
    if kind == "knn":
        return KNNRequest(q, k=shape[1])
    if kind == "window":
        return WindowRequest(q, shape[1], shape[2])
    if kind == "range":
        return RangeRequest(q, shape[1])
    if kind == "rknn":
        return RKNNRequest(q, k=shape[1])
    return ProbKNNRequest(q, uncertainty=shape[1], k=shape[2])


@pytest.fixture(scope="module")
def instance():
    points = uniform_points(400, seed=11)
    live = PointSet(points)
    checker = Checker(Oracle(live, tol=1e-9), UNIT_UNIVERSE, seed=3,
                      probes=8)
    service = build_service(points, universe=UNIT_UNIVERSE, shards=2,
                            cache=CacheConfig())
    yield live, checker, service
    service.close()


def _locations(n, seed):
    rng = random.Random(seed)
    return [(rng.random(), rng.random()) for _ in range(n)]


@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: s[0] + str(s[1]))
def test_oracle_agrees_with_the_program(instance, shape):
    _, checker, service = instance
    for q in _locations(15, seed=len(shape)):
        response = service.answer(_request(shape, q))
        ids = [e.oid for e in response.result]
        assert checker.answer(shape, q, ids)
        assert checker.region(shape, response.region, ids)


def test_oracle_follows_mutations(instance):
    live, checker, service = instance
    shape = ("knn", 3)
    q = (0.5, 0.5)
    oid = live.insert(0.5001, 0.5)
    service.insert_object(oid, 0.5001, 0.5)
    ids = [e.oid for e in service.answer(_request(shape, q)).result]
    assert oid in ids and checker.answer(shape, q, ids)
    live.delete(oid)
    assert service.delete_object(oid, 0.5001, 0.5)
    ids = [e.oid for e in service.answer(_request(shape, q)).result]
    assert oid not in ids and checker.answer(shape, q, ids)


@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: s[0] + str(s[1]))
def test_checker_rejects_a_corrupted_result(instance, shape):
    live, checker, service = instance
    q = (0.37, 0.61)
    ids = [e.oid for e in service.answer(_request(shape, q)).result]
    outsiders = [int(o) for o in live.live_ids() if int(o) not in ids]
    swapped = ids[:-1] + [outsiders[0]] if ids else [outsiders[0]]
    assert not checker.answer(shape, q, swapped)
    assert not checker.answer(shape, q, ids + [outsiders[0]])
    if ids:
        assert not checker.answer(shape, q, ids[1:])
        assert not checker.answer(shape, q, ids + ids[:1])


def test_checker_rejects_a_region_pushed_outside_the_true_cell(instance):
    _, checker, service = instance
    shape = ("knn", 2)
    q = (0.42, 0.33)
    response = service.answer(_request(shape, q))
    ids = [e.oid for e in response.result]
    assert checker.region(shape, response.region, ids)
    # A disk far wider than the order-2 cell, still centred on q: every
    # probe point outside the cell sees another answer.
    assert not checker.region(shape, ValidityDisk(q, 0.2), ids)


def test_region_area_uses_closed_forms_and_sampling():
    rng = random.Random(1)
    disk = ValidityDisk((0.5, 0.5), 0.1)
    assert region_area(disk, UNIT_UNIVERSE, rng) == pytest.approx(
        3.14159265 * 0.01)

    class Square:  # no closed form: estimated from contains samples
        def mbr(self):
            return repro.Rect(0.0, 0.0, 0.5, 1.0)

        def contains(self, p):
            return p[0] <= 0.25

    assert region_area(Square(), UNIT_UNIVERSE, rng) == pytest.approx(
        0.25, abs=0.05)


def test_live_updates_probe_passes_when_the_cache_drops_conservatively(
        monkeypatch):
    """The probe's expected answer is right: with invalidate-all caching
    (no surgical survival decision) all four operations pass, so a probe
    failure in the benchmark is the program's, not the checker's."""
    import workloads
    monkeypatch.setattr(workloads, "CacheConfig",
                        lambda: CacheConfig(surgical=False))
    workload = workloads.LiveUpdates(seed=1)
    log = OpLog()
    workload.probe(log)
    assert log.attempted == workloads.LiveUpdates.PROBE_OPS
    assert log.failed == 0 and log.measured == 0
