"""`repro.serve` — dynamic micro-batching serving over bulk execution.

The ROADMAP's north star is serving heavy live traffic; the paper's
theorems say the way to do that is to run many independent inputs of the
same oblivious algorithm as one column-wise bulk execution.  This package
is the bridge from *requests* to *batches*:

* :class:`BulkServer` — asyncio request broker: ``await submit(workload,
  x)`` coalesces live requests per ``(workload, n)`` queue into bulk runs
  on a worker-thread pool.  It is also the one broker core (queues,
  admission and backpressure, linger, completion, shutdown, ``stats()``)
  that every placement shares;
* :class:`ServeConfig` — batching/backpressure/backend knobs;
* :class:`ShardedServer` / :class:`ShardConfig` — the same broker placed
  on ``N`` shard processes: cost-routed placement, request payloads in
  :mod:`~repro.serve.shm` shared-memory slot arenas, only primitive
  descriptors (:mod:`~repro.serve.wire`) on the work queues and on each
  shard's own completion pipe;
* :class:`ShardSupervisor` — self-healing (``supervise=True``): heartbeat
  wedge detection, respawn with backoff, per-shard circuit breaker, and
  cost-model autoscaling between ``min_shards`` and ``max_shards``;
* :mod:`~repro.serve.policy` — dispatch policies, including the
  cost-model-driven :class:`AdaptivePolicy` that prices candidate batches
  in UMM time units before committing;
* :mod:`~repro.serve.metrics` — counters/histograms behind ``stats()``;
* :mod:`~repro.serve.loadgen` — open/closed-loop load generation against
  either placement, for the ``repro serve --bench`` CLI and the serving
  benchmarks.

See docs/SERVING.md for the architecture and the knob glossary.
"""

from .loadgen import LoadReport, closed_loop, input_pool, open_loop, render_reports
from .metrics import Counter, Histogram, MetricsRegistry
from .policy import AdaptivePolicy, BatchPolicy, FixedPolicy, make_policy
from .router import ShardConfig, ShardedServer
from .server import BulkServer, ServeConfig
from .shm import SlotArena
from .supervisor import ShardSupervisor, plan_scaling

__all__ = [
    "BulkServer",
    "ServeConfig",
    "ShardedServer",
    "ShardConfig",
    "ShardSupervisor",
    "plan_scaling",
    "SlotArena",
    "BatchPolicy",
    "FixedPolicy",
    "AdaptivePolicy",
    "make_policy",
    "MetricsRegistry",
    "Counter",
    "Histogram",
    "LoadReport",
    "open_loop",
    "closed_loop",
    "input_pool",
    "render_reports",
]
