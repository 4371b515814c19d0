"""Unit tests for the oracle's per-worker simulation state (pipeline +
buffer rules, as :mod:`repro.sim.worker_state` states them)."""

import pytest

from repro.core.chunks import make_chunk
from repro.core.ops import MsgKind
from repro.platform.model import Worker
from repro.sim.worker_state import CMode
from tests.reference_engine import WorkerSim


def _chunk(cid=0, h=2, w=2, t=3, widx=0):
    return make_chunk(cid, widx, 0, h, 0, w, t)


class TestPipelineOrder:
    def test_both_mode_sequence(self):
        ws = WorkerSim(Worker(0, 1.0, 1.0, 50), depth=2)
        ws.assign(_chunk(t=2))
        kinds = []
        while ws.has_pending:
            msg = ws.head()
            kinds.append(msg.kind)
            ws.post(msg, 0.0, 1.0)
        assert kinds == [MsgKind.C_SEND, MsgKind.ROUND, MsgKind.ROUND, MsgKind.C_RETURN]

    def test_none_mode_skips_c(self):
        ws = WorkerSim(Worker(0, 1.0, 1.0, 50), depth=2, c_mode=CMode.NONE)
        ws.assign(_chunk(t=2))
        kinds = []
        while ws.has_pending:
            msg = ws.head()
            kinds.append(msg.kind)
            ws.post(msg, 0.0, 1.0)
        assert kinds == [MsgKind.ROUND, MsgKind.ROUND]
        assert ws.chunks_done == 1

    def test_send_only_mode(self):
        ws = WorkerSim(Worker(0, 1.0, 1.0, 50), depth=2, c_mode=CMode.SEND_ONLY)
        ws.assign(_chunk(t=2))
        kinds = []
        while ws.has_pending:
            msg = ws.head()
            kinds.append(msg.kind)
            ws.post(msg, 0.0, 1.0)
        assert kinds == [MsgKind.C_SEND, MsgKind.ROUND, MsgKind.ROUND]


class TestLegalStart:
    def test_first_c_send_free(self):
        ws = WorkerSim(Worker(0, 1.0, 1.0, 50), depth=2)
        ws.assign(_chunk())
        assert ws.legal_start(ws.head()) == 0.0

    def test_round_window_depth2(self):
        """Round g must wait for the compute of round g-2."""
        ws = WorkerSim(Worker(0, 1.0, w=10.0, m=50), depth=2)
        ws.assign(_chunk(h=1, w=1, t=4))
        msg = ws.head()
        ws.post(msg, 0.0, 1.0)  # C_SEND
        # round 0: arrives [1,2], computes [2,12]
        msg = ws.head()
        assert ws.legal_start(msg) == 0.0
        ws.post(msg, 1.0, 2.0)
        # round 1: no window constraint yet
        msg = ws.head()
        assert ws.legal_start(msg) == 0.0
        ws.post(msg, 2.0, 3.0)
        # round 2: must wait for round 0's compute end (t=12)
        msg = ws.head()
        assert ws.legal_start(msg) == pytest.approx(12.0)

    def test_round_window_depth1(self):
        """BMM-style: round g waits for compute of round g-1."""
        ws = WorkerSim(Worker(0, 1.0, w=10.0, m=50), depth=1)
        ws.assign(_chunk(h=1, w=1, t=3))
        ws.post(ws.head(), 0.0, 1.0)  # C_SEND
        ws.post(ws.head(), 1.0, 2.0)  # round 0 computes [2,12]
        assert ws.legal_start(ws.head()) == pytest.approx(12.0)

    def test_c_return_waits_for_compute(self):
        ws = WorkerSim(Worker(0, 1.0, w=5.0, m=50), depth=2)
        ws.assign(_chunk(h=1, w=1, t=1))
        ws.post(ws.head(), 0.0, 1.0)  # C_SEND
        ws.post(ws.head(), 1.0, 2.0)  # round 0 computes [2,7]
        assert ws.head().kind is MsgKind.C_RETURN
        assert ws.legal_start(ws.head()) == pytest.approx(7.0)

    def test_next_chunk_c_send_waits_for_return(self):
        ws = WorkerSim(Worker(0, 1.0, w=1.0, m=50), depth=2)
        ws.assign(_chunk(cid=0, h=1, w=1, t=1))
        ws.assign(_chunk(cid=1, h=1, w=1, t=1))
        ws.post(ws.head(), 0.0, 1.0)
        ws.post(ws.head(), 1.0, 2.0)
        ws.post(ws.head(), 3.0, 4.0)  # C_RETURN ends at 4
        assert ws.head().kind is MsgKind.C_SEND
        assert ws.legal_start(ws.head()) == pytest.approx(4.0)


class TestStatsAndClone:
    def test_stats_accumulate(self):
        ws = WorkerSim(Worker(0, 1.0, w=2.0, m=50), depth=2)
        ws.assign(_chunk(h=2, w=3, t=2))
        while ws.has_pending:
            msg = ws.head()
            ws.post(msg, 0.0, 1.0)
        assert ws.blocks_in == 6 + 2 * (2 + 3)
        assert ws.blocks_out == 6
        assert ws.updates_done == 12
        assert ws.chunks_done == 1

    def test_invalid_depth(self):
        with pytest.raises(ValueError):
            WorkerSim(Worker(0, 1.0, 1.0, 50), depth=0)
