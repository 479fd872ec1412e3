"""Tests of the benchmark itself: python3 -m pytest perfbench/tests"""

import json
import signal
import sys
import time
from array import array

import pytest

from perfbench import hostspeed, query, run
from perfbench.trace import FUNCTIONS, Tracer, self_times

BENCHMARK = run.ROOT / "BENCHMARK.json"


def test_query_generator_is_deterministic():
    a = query.generate_block(3, 0)
    assert a == query.generate_block(3, 0)
    assert a != query.generate_block(4, 0)
    assert a != query.generate_block(3, 1)
    assert len(a) == query.BLOCK


def test_query_inputs_are_valid_algebras():
    from darbouxlie import catalog, parse_algebra, validate
    for q in query.generate_block(0, 0):
        if q.source[0] == "catalog":
            g = catalog(q.source[1], **q.source[2])
        else:
            g = parse_algebra(q.source[1])
        assert g.dim == q.dim and 3 <= q.dim <= 8
        assert len(q.point) == q.dim * (q.dim - 1) // 2
        assert q.kind != "bricks" or q.dim <= 5
        assert q.kind != "center_ext" or q.dim <= 7
        if q.dim <= 5:
            assert validate(g) == []


def test_change_of_basis_keeps_jacobi():
    import random
    from darbouxlie import from_brackets, validate
    for n in (3, 5, 8):
        c = query.so3_plus_abelian(random.Random(n), n)
        assert validate(from_brackets(n, c)) == []


def _first(kind, dim_max=5):
    return next(q for q in query.generate_block(1, 0)
                if q.kind == kind and q.dim <= dim_max)


def test_checks_accept_answers_and_reject_corrupted_ones():
    from darbouxlie import MultiVector, RatMatrix
    q = _first("derivations")
    g, ders = query.answer(q)
    assert query.check(q, g, ders)
    bad = [RatMatrix([[x + 1 for x in row] for row in d.entries])
           for d in ders]
    assert not query.check(q, g, bad)

    q = _first("schouten")
    g, rr = query.answer(q)
    assert query.check(q, g, rr)
    assert not query.check(q, g, rr + MultiVector.blade(g.dim, [0, 1, 2]))

    q = _first("orbit_dim")
    g, d = query.answer(q)
    assert query.check(q, g, d) and not query.check(q, g, d + 1)


def test_self_times_on_a_synthetic_span_tree():
    # A[0,10] > B[1,4], C[5,9] > B[6,8] > A[6.5,7.5] (A re-entered)
    fids = array("i", [0, 1, 2, 1, 0])
    starts = array("d", [0, 1, 5, 6, 6.5])
    ends = array("d", [10, 4, 9, 8, 7.5])
    parents = array("i", [-1, 0, 0, 2, 3])
    nested = array("b", [0, 0, 0, 0, 1])
    calls, incl, own = self_times(fids, starts, ends, parents, nested, 3)
    assert calls == [2, 2, 1]
    assert incl == [10, 5, 4]
    assert own == [3 + 1, 3 + 1, 2]
    assert sum(own) == 10


def test_tracer_wraps_every_namespace_and_restores(tmp_path):
    import darbouxlie
    import darbouxlie.cli as cli
    from darbouxlie import classify, derivations, exactmath
    before = {id(m): dict(vars(m)) for m in (darbouxlie, cli, classify,
                                             derivations, exactmath)}
    matvec = exactmath.RatMatrix.__dict__["matvec"]
    with pytest.raises(RuntimeError):
        with Tracer() as tracer:
            # both import paths reach the wrapper
            assert classify.rank_at is derivations.rank_at
            assert darbouxlie.rank_at is derivations.rank_at
            assert getattr(derivations.rank_at, "__wrapped_by_perfbench__")
            assert cli.main([
                "orbit-dim", "--algebra", "s1", "e12+e34",
                "--out", str(tmp_path / "orbit.txt")]) == 0
            raise RuntimeError("restore must survive an exception")
    for m in (darbouxlie, cli, classify, derivations, exactmath):
        assert vars(m) == before[id(m)]
    assert exactmath.RatMatrix.__dict__["matvec"] is matvec
    wrapped = [(getattr(m, "__name__", "?"), a)
               for m in list(sys.modules.values())
               for a, v in list(getattr(m, "__dict__", {}).items())
               if getattr(v, "__wrapped_by_perfbench__", False)]
    assert wrapped == []
    m = tracer.metrics()
    assert m["cli.main.calls"] == 1
    assert m["derivations.orbit_dim.calls"] == 1
    assert m["exactmath.rref.calls"] >= 1
    assert m["cli.main.s"] >= m["derivations.orbit_dim.s"] > 0


def test_every_metric_is_declared_with_its_unit():
    spec = json.loads(BENCHMARK.read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == run.E2E_UNITS
    assert layer == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert len(FUNCTIONS) * 3 < len(layer) <= 128
    with pytest.raises(KeyError):
        run.result({"wall_s": 1.0}, 1, 0, run.E2E_UNITS)
    out = run.result({k: 1.0 for k in e2e}, 3, 1, run.E2E_UNITS)
    assert out["correct"] is False
    assert out["metrics"]["setup_s"] == {"value": 1.0, "unit": "s"}


def test_percentile_is_nearest_rank():
    values = list(range(1, 1001))
    assert run.percentile(values, 0.99) == 990
    assert run.percentile([5.0], 0.99) == 5.0
    assert run.percentile(values, 0.5) == 500


def test_mean_speed_weighs_samples_evenly():
    tick = hostspeed.TICK_S
    assert hostspeed.mean_speed([(0, tick, 0)]) == pytest.approx(1.0)
    # half the time at full speed, half at half speed
    samples = [(0, tick, 0), (1, 1 + 2 * tick, 0)]
    assert hostspeed.mean_speed(samples) == pytest.approx(0.75)


def test_sampler_keeps_clocks_net_of_its_chunks():
    old = signal.getsignal(signal.SIGALRM)
    with hostspeed.Sampler(period=0.02) as s:
        a, ca = s.net_time(), s.net_cpu()
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.3:
            pass
        t1 = time.perf_counter()
        b, cb = s.net_time(), s.net_cpu()
    assert signal.getsignal(signal.SIGALRM) is old
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(s.samples) >= 5
    inside = sum(e - st for st, e, _ in s.samples if t0 < st and e < t1)
    assert inside > 0.02
    # the busy loop ran t1 - t0 >= 0.3 s of wall time, chunks included
    assert b - a == pytest.approx(t1 - t0 - inside, abs=0.005)
    assert 0 < cb - ca < b - a + 0.01
