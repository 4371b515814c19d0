"""One-port discrete-event simulation of star master-worker platforms."""

from .allocator import PanelDemandAllocator
from .batch import (
    BatchCompileCache,
    BatchEngine,
    BatchOutcome,
    batch_outcomes,
    batch_simulate,
    shared_prefix_makespans,
    supports_batch,
)
from .dynamic import (
    TIMELINE_FAMILIES,
    DynamicRun,
    DynamicStall,
    PlatformTimeline,
    TimelineEvent,
    random_timeline,
    simulate_dynamic,
)
from .engine import Engine, SimResult, WorkerStats, simulate
from .fastpath import FastEngine, fast_simulate
from .plan import Plan
from .policies import (
    PolicyKeySpec,
    ReadyPolicy,
    StrictOrderPolicy,
    demand_priority,
    selection_order_priority,
)
from .trace import compute_records, gantt_ascii, port_records, worker_utilization
from .validate import (
    InvariantViolation,
    ValidationReport,
    validate_dynamic,
    validate_result,
)
from .worker_state import CMode, HeadMsg, WorkerSim

__all__ = [
    "PanelDemandAllocator",
    "Engine",
    "SimResult",
    "WorkerStats",
    "simulate",
    "FastEngine",
    "fast_simulate",
    "BatchCompileCache",
    "BatchEngine",
    "BatchOutcome",
    "batch_outcomes",
    "batch_simulate",
    "shared_prefix_makespans",
    "supports_batch",
    "DynamicRun",
    "DynamicStall",
    "PlatformTimeline",
    "TIMELINE_FAMILIES",
    "TimelineEvent",
    "random_timeline",
    "simulate_dynamic",
    "Plan",
    "PolicyKeySpec",
    "ReadyPolicy",
    "StrictOrderPolicy",
    "demand_priority",
    "selection_order_priority",
    "compute_records",
    "gantt_ascii",
    "port_records",
    "worker_utilization",
    "InvariantViolation",
    "ValidationReport",
    "validate_dynamic",
    "validate_result",
    "CMode",
    "HeadMsg",
    "WorkerSim",
]
