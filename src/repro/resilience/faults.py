"""Deterministic fault injection for the compile pipeline and service.

A :class:`FaultPlan` names pipeline stages at which faults fire:
``crash`` (kill the worker process), ``hang`` (sleep far past any
budget), ``raise`` (throw :class:`FaultInjected`), and ``corrupt``
(mangle the artefact a worker ships back).  Plans are seeded and
deterministic — the same plan over the same jobs fires the same faults —
so resilience tests and the CI fault smoke are reproducible.

Activation crosses the process boundary two ways:

* the batch engine ships the service's plan inside each job payload and
  the worker installs it around the compile
  (:func:`use_faults`, carrying the job id for per-job matching);
* the ``REPRO_FAULTS`` environment variable (inline JSON, or a path /
  ``@path`` to a JSON file) arms every process that imports this module,
  which reaches pool workers regardless of start method.

Instrumentation calls :func:`fault_point` at named stages (the pipeline
stages of :func:`repro.core.pipeline.compile_circuit`, plus ``worker``
at pool-worker entry) and :func:`corrupt_point` where an artefact is
produced.  Both are no-ops costing one context-variable read when no
plan is armed.
"""

from __future__ import annotations

import json
import os
import random
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Iterable, Mapping

__all__ = [
    "FAULT_ACTIONS",
    "FaultInjected",
    "FaultPlan",
    "FaultSpec",
    "corrupt_point",
    "fault_point",
    "use_faults",
]

#: Supported fault actions.
FAULT_ACTIONS = ("crash", "hang", "raise", "corrupt")

#: Stage names the pipeline/service instrument (free-form strings are
#: accepted; these are the ones that exist today).
KNOWN_STAGES = (
    "worker", "parse", "placement", "routing", "decompose",
    "direction-fix", "optimize", "verify", "schedule", "artifact",
)

#: Exit code of a ``crash`` fault (distinct from common error exits so
#: traces can tell an injected crash from a real one).
CRASH_EXIT_CODE = 23

#: Default sleep of a ``hang`` fault — far past any sane job budget.
DEFAULT_HANG_SECONDS = 3600.0


class FaultInjected(RuntimeError):
    """The exception thrown by a ``raise`` fault."""

    def __init__(self, message: str, stage: str = ""):
        super().__init__(message)
        self.stage = stage


@dataclass(frozen=True)
class FaultSpec:
    """One fault: where it fires, what it does, and what it matches.

    Attributes:
        stage: Pipeline stage name the fault is attached to.
        action: One of :data:`FAULT_ACTIONS`.
        job_id: Only fire for this job id (``None``: every job).
        router: Only fire when the routing attempt uses this router
            (matched at stages that report one, i.e. ``routing``);
            lets a plan crash the primary router while the fallback
            chain's retry succeeds.
        times: Maximum firings per process (``None``: unlimited).
            Counters are per-process: a ``crash`` respawns a fresh
            worker whose counter starts at zero, so a crash fault
            without a ``router``/``job_id`` discriminator fires on
            every retry.
        probability: Chance of firing per eligible invocation, decided
            by the plan's seed (deterministic).
        delay: Sleep seconds for ``hang``.
        message: Custom text for ``raise`` faults.
    """

    stage: str
    action: str
    job_id: str | None = None
    router: str | None = None
    times: int | None = 1
    probability: float = 1.0
    delay: float = DEFAULT_HANG_SECONDS
    message: str = ""

    def __post_init__(self) -> None:
        if self.action not in FAULT_ACTIONS:
            raise ValueError(
                f"unknown fault action {self.action!r}; "
                f"expected one of {FAULT_ACTIONS}"
            )
        if not self.stage:
            raise ValueError("fault spec needs a stage name")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("fault probability must be in [0, 1]")

    def to_dict(self) -> dict:
        data = {"stage": self.stage, "action": self.action}
        if self.job_id is not None:
            data["job_id"] = self.job_id
        if self.router is not None:
            data["router"] = self.router
        if self.times != 1:
            data["times"] = self.times
        if self.probability != 1.0:
            data["probability"] = self.probability
        if self.delay != DEFAULT_HANG_SECONDS:
            data["delay"] = self.delay
        if self.message:
            data["message"] = self.message
        return data

    @classmethod
    def from_dict(cls, data: Mapping) -> "FaultSpec":
        known = {
            "stage", "action", "job_id", "router", "times",
            "probability", "delay", "message",
        }
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown fault spec fields: {sorted(unknown)}")
        return cls(**{k: data[k] for k in known if k in data})


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, deterministic collection of :class:`FaultSpec`."""

    specs: tuple[FaultSpec, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "specs", tuple(self.specs))

    def has_action(self, *actions: str) -> bool:
        """Whether any spec uses one of ``actions``."""
        return any(spec.action in actions for spec in self.specs)

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "faults": [spec.to_dict() for spec in self.specs],
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "FaultPlan":
        if not isinstance(data, Mapping):
            raise ValueError("fault plan must be a JSON object")
        unknown = set(data) - {"seed", "faults"}
        if unknown:
            raise ValueError(f"unknown fault plan fields: {sorted(unknown)}")
        faults = data.get("faults", [])
        if not isinstance(faults, Iterable) or isinstance(faults, (str, bytes)):
            raise ValueError('fault plan "faults" must be a list')
        return cls(
            specs=tuple(FaultSpec.from_dict(entry) for entry in faults),
            seed=int(data.get("seed", 0)),
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        """Parse a plan from JSON text."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"invalid fault plan JSON: {exc}") from exc
        return cls.from_dict(data)

    @classmethod
    def from_file(cls, path) -> "FaultPlan":
        with open(path) as fh:
            return cls.from_json(fh.read())


class _Injector:
    """Per-process firing state for one installed plan."""

    __slots__ = ("plan", "job_id", "fired")

    def __init__(self, plan: FaultPlan, job_id: str = ""):
        self.plan = plan
        self.job_id = job_id
        self.fired: dict[int, int] = {}

    def _matching(self, stage: str, router: str | None, actions: tuple):
        # ``actions`` scopes the match to the caller's injection kind:
        # fault_point() must not burn a corrupt spec's firing budget
        # (and vice versa) when both visit the same stage.
        for index, spec in enumerate(self.plan.specs):
            if spec.stage != stage or spec.action not in actions:
                continue
            if spec.job_id is not None and spec.job_id != self.job_id:
                continue
            if spec.router is not None and spec.router != router:
                continue
            count = self.fired.get(index, 0)
            if spec.times is not None and count >= spec.times:
                continue
            if spec.probability < 1.0:
                rng = random.Random(
                    f"{self.plan.seed}:{index}:{self.job_id}:{stage}:{count}"
                )
                if rng.random() >= spec.probability:
                    # A declined roll still consumes an invocation slot so
                    # the decision sequence is reproducible.
                    self.fired[index] = count + 1
                    continue
            self.fired[index] = count + 1
            yield spec

    def fire(self, stage: str, router: str | None = None) -> None:
        for spec in self._matching(stage, router, ("crash", "hang", "raise")):
            if spec.action == "crash":
                os._exit(CRASH_EXIT_CODE)
            if spec.action == "hang":
                time.sleep(spec.delay)
            elif spec.action == "raise":
                message = spec.message or (
                    f"injected fault at stage {stage!r}"
                )
                raise FaultInjected(message, stage=stage)

    def corrupt(self, stage: str, artifact: dict) -> dict:
        for _spec in self._matching(stage, None, ("corrupt",)):
            artifact = dict(artifact)
            artifact["schema"] = "corrupt"
            artifact["native_qasm"] = "@@fault-injected-corruption@@"
            artifact["__corrupted__"] = True
        return artifact


_CURRENT: ContextVar[_Injector | None] = ContextVar(
    "repro-faults", default=None
)

#: Lazily-built injector from the REPRO_FAULTS environment variable.
#: ``False`` means "not checked yet"; ``None`` means "checked, absent".
_ENV_INJECTOR: _Injector | None | bool = False


def _env_injector() -> _Injector | None:
    global _ENV_INJECTOR
    if _ENV_INJECTOR is False:
        value = os.environ.get("REPRO_FAULTS", "").strip()
        if not value:
            _ENV_INJECTOR = None
        else:
            if value.startswith("@"):
                plan = FaultPlan.from_file(value[1:])
            elif value.lstrip().startswith("{"):
                plan = FaultPlan.from_json(value)
            else:
                plan = FaultPlan.from_file(value)
            _ENV_INJECTOR = _Injector(plan)
    return _ENV_INJECTOR


def reset_env_cache() -> None:
    """Forget the cached ``REPRO_FAULTS`` parse (tests change the env)."""
    global _ENV_INJECTOR
    _ENV_INJECTOR = False


@contextmanager
def use_faults(plan: FaultPlan | None, job_id: str = ""):
    """Install ``plan`` (with ``job_id`` context) for the ``with`` body."""
    token = _CURRENT.set(_Injector(plan, job_id) if plan is not None else None)
    try:
        yield
    finally:
        _CURRENT.reset(token)


def _active() -> _Injector | None:
    injector = _CURRENT.get()
    if injector is not None:
        return injector
    return _env_injector()


def fault_point(stage: str, router: str | None = None) -> None:
    """Fire any armed crash/hang/raise fault attached to ``stage``.

    Free (one context-variable read) when no plan is installed.
    """
    injector = _active()
    if injector is not None:
        injector.fire(stage, router)


def corrupt_point(stage: str, artifact: dict) -> dict:
    """Apply any armed ``corrupt`` fault at ``stage`` to ``artifact``."""
    injector = _active()
    if injector is not None:
        return injector.corrupt(stage, artifact)
    return artifact
