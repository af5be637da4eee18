"""The compile-service job API: :class:`CompileJob` and :class:`JobResult`.

A job is a fully self-contained compile request — canonical QASM text,
device description dict, and a :class:`~repro.core.pipeline.PassConfig`
— so it can be hashed for the cache, pickled to a worker process, or
written into a batch manifest without losing information.  A result
carries the artefact (see :mod:`repro.service.artifact`), a status, and
per-job metrics: queue wait, compile wall-clock, cache tier, and the
gate/depth deltas of the compilation.
"""

from __future__ import annotations

import uuid
from dataclasses import dataclass, field
from typing import Mapping

from ..core.circuit import Circuit
from ..core.pipeline import CompilationResult, PassConfig
from ..devices.device import Device
from ..qasm import QasmError, to_openqasm
from ..resilience.deadline import check_budget
from .artifact import ResultGates, artifact_to_result
from .keys import canonical_qasm, compute_key, device_fingerprint

__all__ = ["CompileJob", "JOB_STATUSES", "JobResult"]

#: The terminal status taxonomy of a batch job (see :class:`JobResult`).
JOB_STATUSES = ("ok", "degraded", "timeout", "crashed", "invalid")


@dataclass
class CompileJob:
    """One compile request for the service.

    Attributes:
        qasm: OpenQASM text of the input circuit.  :meth:`create` stores
            it as :class:`~repro.service.keys.CanonicalQasm`, which
            :meth:`key` uses as it is; plain text is canonicalised for
            every key.
        device: Device description in ``Device.to_dict`` form.
        config: Pass configuration (hashable, serialisable).
        job_id: Caller-chosen identifier (auto-generated when empty);
            reported back on the matching :class:`JobResult`.
        timeout: Per-job wall-clock budget in seconds for batch runs
            (``None``: the service default).  Like ``deadline``, a
            finite number >= 0; anything else raises ``ValueError``
            when the job is built.
        deadline: Per-job *cooperative* routing deadline in seconds —
            routers poll it and degrade through the fallback chain
            instead of being killed.  Overrides any batch-wide
            ``deadline`` for this job; the async gateway sets it to the
            remaining SLO budget at dispatch time.  Not part of the
            cache key (it changes when an answer arrives, not what the
            clean answer is).
        metadata: Free-form caller annotations, passed through to the
            result untouched.
    """

    qasm: str
    device: dict
    config: PassConfig = field(default_factory=PassConfig)
    job_id: str = ""
    timeout: float | None = None
    deadline: float | None = None
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.job_id:
            self.job_id = uuid.uuid4().hex[:12]
        if self.timeout is not None:
            self.timeout = check_budget(self.timeout, "timeout")
        if self.deadline is not None:
            self.deadline = check_budget(self.deadline, "deadline")

    @classmethod
    def create(
        cls,
        circuit: Circuit | str,
        device: Device | Mapping,
        config: PassConfig | Mapping | None = None,
        *,
        job_id: str = "",
        timeout: float | None = None,
        deadline: float | None = None,
        metadata: dict | None = None,
    ) -> "CompileJob":
        """Build a job from rich objects, normalising every field.

        Args:
            circuit: A :class:`Circuit` or OpenQASM text (canonicalised
                either way, so formatting never splits the cache).
            device: A :class:`Device` or its dict form.
            config: A :class:`PassConfig`, a dict of its fields, or
                ``None`` for the pipeline defaults.
        """
        if isinstance(config, PassConfig):
            cfg = config
        elif config is None:
            cfg = PassConfig()
        else:
            cfg = PassConfig.from_dict(config)
        try:
            qasm = canonical_qasm(circuit)
        except QasmError:
            # Keep the raw text: the compile itself will fail and report
            # the parse error as this job's JobResult instead of making
            # job construction throw.
            qasm = (
                circuit if isinstance(circuit, str) else to_openqasm(circuit)
            )
        return cls(
            qasm=qasm,
            device=(
                device.to_dict() if isinstance(device, Device) else dict(device)
            ),
            config=cfg,
            job_id=job_id,
            timeout=timeout,
            deadline=deadline,
            metadata=dict(metadata or {}),
        )

    def key(self) -> str:
        """The content-addressed cache key of this request."""
        return compute_key(self.qasm, self.device, self.config)

    def payload(self) -> dict:
        """Picklable, JSON-able form shipped to worker processes."""
        return {
            "qasm": self.qasm,
            "device": self.device,
            "config": self.config.to_dict(),
            "job_id": self.job_id,
            "metadata": self.metadata,
        }

    def describe(self) -> str:
        """Short human-readable label for reports."""
        return (
            f"{self.job_id} [{self.device.get('name', '?')}"
            f"/{self.config.router} dev:{device_fingerprint(self.device)[:8]}]"
        )


@dataclass
class JobResult:
    """Outcome of one job, successful or not.

    Attributes:
        job_id: Identifier of the originating job.
        key: The job's cache key.
        status: The terminal outcome, one of :data:`JOB_STATUSES`:

            * ``"ok"`` — compiled as requested; artefact present and
              cached.
            * ``"degraded"`` — compiled, but through the router fallback
              chain (the requested router failed or timed out); artefact
              present, carries a ``resilience`` record, and is **not**
              cached under the clean key.
            * ``"timeout"`` — the compute budget ran out (cooperative
              :class:`~repro.resilience.deadline.DeadlineExceeded`, a
              hard per-job budget, or the batch deadline).
            * ``"crashed"`` — the worker process died, an injected fault
              fired, or the artefact failed validation on every attempt.
            * ``"invalid"`` — the request itself is bad (parse error,
              unknown device/config field, …); retrying cannot help.
        cache_hit: ``"memory"``, ``"disk"``, ``"batch"`` (deduplicated
            against an identical job earlier in the same batch), or
            ``None`` for a fresh compile.
        artifact: The serialised compilation result (``None`` unless the
            job completed: ``status`` in ``("ok", "degraded")``).
        error: One-line failure description for failed results.
        attempts: Number of compile attempts (>1 after crash retries).
        metrics: Per-job numbers: ``queue_wait_s``, ``compile_s``,
            ``total_s``, and the artefact's gate/depth metrics.
        metadata: The job's metadata, passed through.
        gates: The :class:`~repro.service.artifact.ResultGates` of the
            compile that rendered ``artifact``, when the service still
            holds them (inline compiles and their memory hits), else
            ``None``.  Left out of ``repr``, equality and
            :meth:`to_dict`.
    """

    job_id: str
    key: str
    status: str
    cache_hit: str | None = None
    artifact: dict | None = None
    error: str | None = None
    attempts: int = 1
    metrics: dict = field(default_factory=dict)
    metadata: dict = field(default_factory=dict)
    gates: ResultGates | None = field(
        default=None, repr=False, compare=False
    )

    @property
    def ok(self) -> bool:
        """Compiled exactly as requested (excludes degraded results)."""
        return self.status == "ok"

    @property
    def completed(self) -> bool:
        """An artefact was produced (``ok`` or ``degraded``)."""
        return self.status in ("ok", "degraded")

    def result(self) -> CompilationResult:
        """Rebuild the full :class:`CompilationResult`.

        Every call returns fresh containers, so editing one result never
        reaches another.  When :attr:`gates` are held, the circuits and
        the schedule are built from them, not parsed from
        :attr:`artifact`, so edits a caller made to the QASM or the
        schedule of its copy of ``artifact`` are not read back.

        Raises:
            RuntimeError: when the job produced no artefact.
        """
        if not self.completed or self.artifact is None:
            raise RuntimeError(
                f"job {self.job_id} has no artifact (status={self.status})"
            )
        return artifact_to_result(self.artifact, self.gates)

    def to_dict(self, *, include_artifact: bool = False) -> dict:
        """JSON-able report row (artefact omitted by default: it is
        large and addressable through ``key`` in the cache)."""
        row = {
            "job_id": self.job_id,
            "key": self.key,
            "status": self.status,
            "cache_hit": self.cache_hit,
            "error": self.error,
            "attempts": self.attempts,
            "metrics": dict(self.metrics),
        }
        if self.metadata:
            row["metadata"] = dict(self.metadata)
        if include_artifact:
            row["artifact"] = self.artifact
        return row
