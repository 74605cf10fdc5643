"""repro.serve — the open-loop request-serving layer (docs/serving.md).

Load generation (:mod:`~repro.serve.loadgen`), the bounded batching
scheduler with backpressure (:mod:`~repro.serve.scheduler`), SLO
reporting against the Section IV-C queueing model
(:mod:`~repro.serve.slo`), cached parallel rate sweeps
(:mod:`~repro.serve.bench`) behind ``python -m repro serve-bench``, and
the sharded multi-process tier over leaf-MSB partitions
(:mod:`~repro.serve.shard` routing and per-shard workers,
:mod:`~repro.serve.router` fan-out and aggregate folding) behind
``python -m repro serve-sharded``.
"""

from repro.serve.bench import (
    DEFAULT_SLO_P99,
    DEFAULT_WINDOW_TICKS,
    ServeSpec,
    build_serving_protocol,
    generate_requests,
    run_serve,
    run_serve_sweep,
    serve_timeline,
)
from repro.serve.loadgen import (
    Request,
    TenantSpec,
    generate_stream,
    merge_streams,
    offered_load,
    tenant_from_profile,
)
from repro.serve.scheduler import (
    AdmissionRejected,
    BatchingScheduler,
    Completion,
    SchedulerOutcome,
)
from repro.serve.router import (
    SHARD_SCHEMA,
    fold_shard_reports,
    run_sharded,
    run_sharded_sweep,
)
from repro.serve.shard import (
    ShardPlan,
    ShardSpec,
    build_plan,
    model_migrations,
    route_requests,
    run_shard,
)
from repro.serve.slo import (
    REPORT_SCHEMA,
    build_report,
    canonical_json,
    compare_with_model,
    render_table,
)

__all__ = [
    "AdmissionRejected",
    "BatchingScheduler",
    "Completion",
    "DEFAULT_SLO_P99",
    "DEFAULT_WINDOW_TICKS",
    "REPORT_SCHEMA",
    "Request",
    "SHARD_SCHEMA",
    "SchedulerOutcome",
    "ServeSpec",
    "ShardPlan",
    "ShardSpec",
    "TenantSpec",
    "build_plan",
    "build_report",
    "build_serving_protocol",
    "canonical_json",
    "compare_with_model",
    "fold_shard_reports",
    "generate_requests",
    "generate_stream",
    "merge_streams",
    "model_migrations",
    "offered_load",
    "route_requests",
    "run_serve",
    "run_serve_sweep",
    "run_shard",
    "run_sharded",
    "run_sharded_sweep",
    "serve_timeline",
    "tenant_from_profile",
]
