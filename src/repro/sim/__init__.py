"""One-port discrete-event simulation of star master-worker platforms."""

from .allocator import Allocator, PanelDemandAllocator
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
from .fastpath import FastEngine, fast_simulate, supports_fast_path
from .plan import Plan
from .policies import (
    PolicyKeySpec,
    PortPolicy,
    ReadyPolicy,
    StrictOrderPolicy,
    demand_priority,
    key_spec_of,
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
    "Allocator",
    "PanelDemandAllocator",
    "Engine",
    "SimResult",
    "WorkerStats",
    "simulate",
    "FastEngine",
    "fast_simulate",
    "supports_fast_path",
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
    "PortPolicy",
    "ReadyPolicy",
    "StrictOrderPolicy",
    "demand_priority",
    "key_spec_of",
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
