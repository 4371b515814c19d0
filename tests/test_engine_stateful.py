"""Stateful property test: the engines under arbitrary legal driving.

Hypothesis drives the test-side event engine and a recording
:class:`~repro.sim.fastpath.FastEngine` in lockstep with random
interleavings of chunk assignment and message posting across workers,
maintaining a simple reference model: the port pointer must be monotone,
every posted message must respect its legal start, per-worker compute must
be sequential, the final counters must equal the model's, and the fast
engine must record the event engine's events, event for event.  This
explores interleavings no scheduler would generate -- exactly the point.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.core.chunks import make_chunk
from repro.platform.model import Platform, Worker
from repro.sim.fastpath import FastEngine
from tests.reference_engine import Engine, assert_same_run, post_next

P = 3


class EngineMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.platform = Platform(
            [Worker(0, 1.0, 1.0, 60), Worker(1, 0.5, 2.0, 60), Worker(2, 2.0, 0.5, 60)]
        )
        self.engine = Engine(self.platform)
        self.fast = FastEngine(self.platform)
        self.fast._log = ([], [])
        self.next_cid = 0
        self.posted = 0
        self.assigned_updates = 0
        self.last_port_free = 0.0

    @rule(widx=st.integers(0, P - 1), h=st.integers(1, 3), w=st.integers(1, 3), t=st.integers(1, 4))
    def assign(self, widx, h, w, t):
        chunk = make_chunk(self.next_cid, widx, 0, h, 0, w, t)
        self.next_cid += 1
        self.assigned_updates += chunk.total_updates
        self.engine.assign_chunk(widx, chunk)
        self.fast.assign_chunk(widx, chunk)

    @precondition(lambda self: any(ws.has_pending for ws in self.engine.workers))
    @rule(data=st.data())
    def post(self, data):
        pending = [i for i in range(P) if self.engine.workers[i].has_pending]
        widx = data.draw(st.sampled_from(pending))
        legal = self.engine.legal_start(widx)
        evt = self.engine.post_next(widx)
        post_next(self.fast, widx)
        assert evt.start >= legal - 1e-12
        assert evt.start >= self.last_port_free - 1e-12  # one-port
        self.posted += 1

    @invariant()
    def port_monotone(self):
        assert self.engine.port_free >= self.last_port_free - 1e-12
        self.last_port_free = self.engine.port_free

    @invariant()
    def counters_consistent(self):
        assert self.engine.total_updates <= self.assigned_updates
        assert len(self.engine.port_events) == self.posted

    @invariant()
    def fast_engine_agrees(self):
        assert_same_run(self.fast.result(), self.engine.result())

    def teardown(self):
        # drain everything, then the full trace must validate
        while not self.engine.all_done:
            for i in range(P):
                if self.engine.workers[i].has_pending:
                    self.engine.post_next(i)
                    post_next(self.fast, i)
                    break
        assert_same_run(self.fast.result(), self.engine.result())
        if self.engine.port_events:
            from repro.sim.validate import validate_result

            validate_result(self.engine.result())
            assert self.engine.total_updates == self.assigned_updates


EngineMachine.TestCase.settings = settings(
    max_examples=25, stateful_step_count=40, deadline=None
)
TestEngineStateful = EngineMachine.TestCase
