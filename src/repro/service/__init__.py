"""The compilation service layer.

The paper's observation that "every device is (almost) equal before the
compiler" makes the mapper a *service*: one engine invoked over many
circuit/device pairs.  This package wraps the Fig. 2 pipeline
(:func:`repro.core.pipeline.compile_circuit`) in production plumbing:

* :mod:`repro.service.keys` — content-addressed cache keys over
  (canonical QASM, device description, pass config, library version);
* :mod:`repro.service.artifact` — JSON-able serialisation of
  :class:`~repro.core.pipeline.CompilationResult`;
* :mod:`repro.service.cache` — the two-tier (memory LRU + on-disk)
  :class:`CompileCache`;
* :mod:`repro.service.jobs` — the :class:`CompileJob` /
  :class:`JobResult` API;
* :mod:`repro.service.engine` — :class:`CompileService` with
  ``submit``, parallel ``submit_batch``, and ``stats``;
* :mod:`repro.service.pool` — the persistent :class:`WarmPool` of
  preloaded compile workers behind ``submit_batch``;
* :mod:`repro.service.gateway` — the async job gateway:
  :class:`AsyncCompileService` (``submit``/``await result``/event
  streams, priority queues, admission control) over a
  :class:`CompileService`;
* :mod:`repro.service.httpd` — the :class:`GatewayServer` HTTP/JSON
  front end behind the ``repro serve`` CLI command.

The ``repro batch`` / ``repro serve`` CLI commands and
:func:`repro.perf.compare_serial` build on this package; see
``docs/service.md`` for the cache-key scheme and ``docs/gateway.md``
for the job API and HTTP endpoints.
"""

from .artifact import artifact_to_result, result_to_artifact
from .cache import CompileCache
from .engine import CompileService
from .gateway import (
    PRIORITIES,
    AsyncCompileService,
    Draining,
    JobHandle,
    Overloaded,
)
from .httpd import GatewayServer
from .jobs import JOB_STATUSES, CompileJob, JobResult
from .keys import canonical_qasm, compute_key, device_fingerprint
from .pool import WarmPool

__all__ = [
    "AsyncCompileService",
    "CompileCache",
    "CompileJob",
    "CompileService",
    "Draining",
    "GatewayServer",
    "JOB_STATUSES",
    "JobHandle",
    "JobResult",
    "Overloaded",
    "PRIORITIES",
    "WarmPool",
    "artifact_to_result",
    "canonical_qasm",
    "compute_key",
    "device_fingerprint",
    "result_to_artifact",
]
