"""Unit tests for Plan validation and trace presentation helpers."""

import pytest

from repro.core.blocks import BlockGrid
from repro.core.chunks import make_chunk
from repro.platform.model import Platform
from repro.sim.engine import simulate
from repro.sim.plan import Plan
from repro.sim.policies import StrictOrderPolicy
from repro.sim.trace import compute_records, gantt_ascii, port_records, worker_utilization


class TestPlan:
    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            Plan(assignments=[[]], policy=StrictOrderPolicy([]), depths=[2, 2])

    def test_rejects_wrong_owner(self):
        ch = make_chunk(0, 1, 0, 1, 0, 1, 1)
        with pytest.raises(ValueError):
            Plan(assignments=[[ch]], policy=StrictOrderPolicy([]), depths=[2])

    def test_static_chunks_sorted_by_cid(self):
        a = make_chunk(1, 0, 0, 1, 0, 1, 1)
        b = make_chunk(0, 1, 0, 1, 1, 1, 1)
        plan = Plan(assignments=[[a], [b]], policy=StrictOrderPolicy([]), depths=[2, 2])
        assert [c.cid for c in plan.static_chunks] == [0, 1]


def _result():
    plat = Platform.homogeneous(2, c=1.0, w=2.0, m=50)
    chs = [make_chunk(0, 0, 0, 1, 0, 1, 2), make_chunk(1, 1, 0, 1, 1, 1, 2)]
    plan = Plan(
        assignments=[[chs[0]], [chs[1]]],
        policy=StrictOrderPolicy([0, 1, 0, 1, 0, 1, 0, 1]),
        depths=[2, 2],
    )
    return simulate(plat, plan, BlockGrid(r=1, t=2, s=2))


class TestTraceHelpers:
    def test_port_records_roundtrip(self):
        res = _result()
        recs = port_records(res)
        assert len(recs) == len(res.port_events)
        assert recs[0]["kind"] == "c_send"
        assert {r["worker"] for r in recs} == {0, 1}

    def test_compute_records(self):
        res = _result()
        recs = compute_records(res)
        assert len(recs) == 4
        assert all(r["updates"] == 1 for r in recs)

    def test_worker_utilization(self):
        res = _result()
        util = worker_utilization(res)
        assert set(util) == {0, 1}
        assert all(0 < u <= 1 for u in util.values())

    def test_gantt_contains_rows(self):
        res = _result()
        art = gantt_ascii(res, width=60)
        assert "port" in art and "P1" in art and "P2" in art
        assert "C" in art and "=" in art and "R" in art and "#" in art

    def test_gantt_empty(self):
        from repro.sim.fastpath import FastEngine

        empty = FastEngine(Platform.homogeneous(1, 1.0, 1.0, 50)).result()
        assert gantt_ascii(empty) == "(empty trace)"
