"""Workflow management system: scheduling, staging, and execution.

:class:`WorkflowEngine` executes a workflow DAG on a platform: it stages
external inputs according to a :class:`PlacementPolicy`, runs each task
as read-inputs → compute → write-outputs on its assigned host (cores
granted FIFO by the compute service), and emits a timestamped
:class:`~repro.traces.ExecutionTrace` whose last event gives the
makespan — mirroring the WRENCH simulator of Section IV.
"""

from repro.wms.placement import (
    AllBB,
    AllPFS,
    ExplicitPlacement,
    FractionPlacement,
    LocalityPlacement,
    PlacementPolicy,
    SizeThresholdPlacement,
)
from repro.wms.engine import WorkflowEngine
from repro.wms.heft import heft_assignment
from repro.wms.scheduling import (
    DataLocalityScheduler,
    LeastLoadedScheduler,
    RoundRobinScheduler,
    Scheduler,
    consistent_hash_assignment,
)
from repro.wms.explorer import (
    AnnealingPlacementSearch,
    GreedyPlacementSearch,
    PolicyScore,
    SearchResult,
    evaluate_policies,
    workflow_candidates,
)
from repro.wms.policies import (
    DEFAULT_POLICY,
    ConservativeBackfillPolicy,
    EasyBackfillPolicy,
    FifoPolicy,
    JointReservation,
    PlanCoordinator,
    PlanPolicy,
    QueuePolicy,
    QueuedRequest,
    RunningGrant,
    policy_names,
    resolve_policy,
)

__all__ = [
    "AllBB",
    "AnnealingPlacementSearch",
    "AllPFS",
    "ConservativeBackfillPolicy",
    "DEFAULT_POLICY",
    "DataLocalityScheduler",
    "EasyBackfillPolicy",
    "ExplicitPlacement",
    "FifoPolicy",
    "FractionPlacement",
    "GreedyPlacementSearch",
    "JointReservation",
    "LeastLoadedScheduler",
    "LocalityPlacement",
    "PlacementPolicy",
    "PlanCoordinator",
    "PlanPolicy",
    "PolicyScore",
    "QueuePolicy",
    "QueuedRequest",
    "RoundRobinScheduler",
    "RunningGrant",
    "Scheduler",
    "SearchResult",
    "SizeThresholdPlacement",
    "WorkflowEngine",
    "consistent_hash_assignment",
    "evaluate_policies",
    "heft_assignment",
    "policy_names",
    "resolve_policy",
    "workflow_candidates",
]
