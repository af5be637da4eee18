"""Serialisation of :class:`~repro.core.pipeline.CompilationResult`.

An *artefact* is the JSON-able dict form of one compilation result: the
thing the compile cache stores and the batch workers ship back to the
parent process.  Circuits are stored as OpenQASM text (via
:func:`repro.qasm.to_openqasm`, whose output :func:`repro.qasm.parse_qasm`
accepts in full), placements as the paper's program->physical integer
arrays, and the device as its dict form, so :func:`artifact_to_result`
rebuilds a complete, standalone :class:`CompilationResult` with no other
context.

Schema 2 stores the schedule as positions into the native circuit, not
as a second copy of every native gate::

    {"num_qubits": 17, "cycle_time_ns": 20.0,
     "order": [0, 2, 1, ...], "start": [0, 0, 1, ...],
     "duration": [1, 2, 1, ...]}

``order[k]`` is the position, in ``native_qasm``'s gate order, of the
k-th scheduled gate; ``start[k]`` and ``duration[k]`` are its timing.
Items keep the schedule's own order.  Equal gates take their positions
in native order, so the bytes depend on gate values only, never on
which ``Gate`` objects a compile happened to share.  Decoding therefore
parses ``native_qasm`` once and builds every scheduled gate from it, and
``order`` must be a permutation of the native positions: a schedule that
ran one gate twice cannot be encoded, validated or decoded.

A compile that is still in memory can skip the parse altogether:
:func:`result_gates` takes its immutable parts (each circuit's qubit
count and gate tuple, and the scheduled gates), and
:func:`artifact_to_result` given those builds fresh containers around
them.  The compile cache's memory tier holds them beside the artefact.

Byte-stability contract: serialising a fresh compile of the same
(circuit, device, config) always yields the same artefact bytes under
:func:`repro.service.keys.canonical_json` — the cache-correctness tests
assert this over the whole perf corpus.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple, Sequence

from ..core.circuit import Circuit
from ..core.gates import Gate
from ..core.pipeline import CompilationResult, PassConfig
from ..core.snapshot import placement_from_obj, placement_to_obj
from ..devices.device import Device
from ..mapping.routing import RoutingResult
from ..mapping.scheduler import Schedule, ScheduledGate
from ..qasm import parse_qasm, to_openqasm
from .keys import ARTIFACT_SCHEMA

__all__ = [
    "ResultGates",
    "result_gates",
    "result_to_artifact",
    "artifact_to_result",
    "artifact_metrics",
    "validate_artifact",
]


class ResultGates(NamedTuple):
    """The immutable parts of one compile, held beside its artefact.

    Each circuit is ``(num_qubits, gates)``.  ``Gate`` and
    ``ScheduledGate`` are frozen, so any number of results may share
    them; only the containers around them must be fresh.
    """

    original: tuple[int, tuple[Gate, ...]]
    routed: tuple[int, tuple[Gate, ...]]
    native: tuple[int, tuple[Gate, ...]]
    schedule: tuple[ScheduledGate, ...] | None


def result_gates(result: CompilationResult) -> ResultGates:
    """Snapshot the gates of ``result`` (see :class:`ResultGates`)."""

    def circuit(c: Circuit) -> tuple[int, tuple[Gate, ...]]:
        return c.num_qubits, tuple(c.gates)

    return ResultGates(
        circuit(result.original),
        circuit(result.routed.circuit),
        circuit(result.native),
        tuple(result.schedule.items) if result.schedule is not None else None,
    )


def _schedule_to_obj(schedule: Schedule, native: Sequence[Gate]) -> dict:
    """The schema-2 schedule of ``schedule`` over the gates ``native``.

    Raises:
        ValueError: when the scheduled gates are not a permutation of
            ``native``.
    """
    # Positions per gate value, last first, so pop() hands them out in
    # native order.
    free: dict[Gate, list[int]] = {}
    for index in range(len(native) - 1, -1, -1):
        free.setdefault(native[index], []).append(index)
    order = []
    for item in schedule.items:
        slots = free.get(item.gate)
        if not slots:
            raise ValueError(
                f"scheduled gate {item.gate} has no unused match in the "
                "native circuit"
            )
        order.append(slots.pop())
    if len(order) != len(native):
        raise ValueError(
            f"schedule holds {len(order)} gates, native circuit "
            f"{len(native)}"
        )
    return {
        "num_qubits": schedule.num_qubits,
        "cycle_time_ns": schedule.cycle_time_ns,
        "order": order,
        "start": [item.start for item in schedule.items],
        "duration": [item.duration for item in schedule.items],
    }


def _schedule_problem(schedule, size: int) -> str | None:
    """Why ``schedule`` is not a schema-2 schedule over ``size`` native
    gates, or ``None`` when it is."""
    if not isinstance(schedule, Mapping):
        return "artifact field 'schedule' is not a mapping"
    for name in ("order", "start", "duration"):
        values = schedule.get(name)
        if not isinstance(values, list) or any(
            type(value) is not int for value in values
        ):
            return f"schedule field {name!r} is not a list of ints"
    order = schedule["order"]
    if not (
        len(order) == len(schedule["start"]) == len(schedule["duration"])
        == size
    ):
        return f"schedule does not cover the {size} native gates once each"
    if sorted(order) != list(range(size)):
        return "schedule order is not a permutation of the native gates"
    return None


def result_to_artifact(
    result: CompilationResult, *, config: PassConfig | None = None
) -> dict:
    """Serialise ``result`` into a JSON-able artefact dict.

    Args:
        result: A full compilation result.
        config: The pass configuration that produced it, recorded for
            provenance (the cache key already commits to it).

    Raises:
        ValueError: when the schedule's gates are not a permutation of
            the native circuit's.
    """
    from .. import __version__

    artifact: dict = {
        "schema": ARTIFACT_SCHEMA,
        "version": __version__,
        "original_qasm": to_openqasm(result.original),
        "routed_qasm": to_openqasm(result.routed.circuit),
        "native_qasm": to_openqasm(result.native),
        "schedule": (
            _schedule_to_obj(result.schedule, result.native.gates)
            if result.schedule is not None
            else None
        ),
        "routing": {
            "router": result.routed.router,
            "added_swaps": result.routed.added_swaps,
            "initial": placement_to_obj(result.routed.initial),
            "final": placement_to_obj(result.routed.final),
        },
        "flips": result.flips,
        "placer": result.placer,
        "router": result.router,
        "device": result.device.to_dict(),
        "metrics": {
            "original_gates": result.original.size(),
            "original_depth": result.original.depth(),
            "native_gates": result.native.size(),
            "native_depth": result.native.depth(),
            "added_swaps": result.added_swaps,
            "gate_overhead": result.gate_overhead,
            "depth_ratio": result.depth_ratio,
            "flips": result.flips,
            "latency": result.latency,
            "latency_ns": result.latency_ns,
        },
    }
    if config is not None:
        artifact["config"] = config.to_dict()
    if result.original.name:
        artifact["circuit_name"] = result.original.name
    # Only present on degraded compiles (router fallback), so artefacts of
    # clean compiles keep their pre-resilience byte layout.
    resilience = result.metadata.get("resilience")
    if resilience:
        artifact["resilience"] = resilience
    return artifact


def artifact_to_result(
    artifact: Mapping, gates: ResultGates | None = None
) -> CompilationResult:
    """Rebuild a standalone :class:`CompilationResult` from an artefact.

    Args:
        artifact: A schema-2 artefact.
        gates: The :func:`result_gates` of the compile that rendered
            ``artifact``, when that compile is still in memory.  Given
            them, no QASM is parsed: the circuits and the schedule are
            fresh containers around those gates.  Names, placements,
            scalars and the device still come from ``artifact``, and
            both paths return equal results.

    Raises:
        ValueError: when the artefact schema is from a different,
            incompatible layout version, or its schedule order is not a
            permutation of the native gates.
    """
    if artifact.get("schema") != ARTIFACT_SCHEMA:
        raise ValueError(
            f"artifact schema {artifact.get('schema')!r} is not supported "
            f"(expected {ARTIFACT_SCHEMA})"
        )
    obj = artifact.get("schedule")
    if gates is None:
        original = parse_qasm(artifact["original_qasm"])
        routed_circuit = parse_qasm(artifact["routed_qasm"])
        native = parse_qasm(artifact["native_qasm"])
        items = None
        if obj is not None:
            problem = _schedule_problem(obj, len(native.gates))
            if problem is not None:
                raise ValueError(problem)
            native_gates = native.gates
            items = [
                ScheduledGate(native_gates[index], start, duration)
                for index, start, duration in zip(
                    obj["order"], obj["start"], obj["duration"]
                )
            ]
    else:
        original = Circuit(*gates.original)
        routed_circuit = Circuit(*gates.routed)
        native = Circuit(*gates.native)
        items = list(gates.schedule) if obj is not None else None
    if "circuit_name" in artifact:
        original.name = artifact["circuit_name"]
    routing = artifact["routing"]
    routed = RoutingResult(
        circuit=routed_circuit,
        initial=placement_from_obj(routing["initial"]),
        final=placement_from_obj(routing["final"]),
        added_swaps=routing["added_swaps"],
        router=routing["router"],
    )
    schedule = (
        Schedule(
            items=items,
            num_qubits=obj["num_qubits"],
            cycle_time_ns=obj.get("cycle_time_ns", 20.0),
        )
        if obj is not None
        else None
    )
    metadata: dict = {"from_artifact": True}
    if artifact.get("resilience"):
        metadata["resilience"] = dict(artifact["resilience"])
    return CompilationResult(
        original=original,
        device=Device.from_dict(artifact["device"]),
        routed=routed,
        native=native,
        schedule=schedule,
        flips=artifact["flips"],
        placer=artifact["placer"],
        router=artifact["router"],
        metadata=metadata,
    )


def artifact_metrics(artifact: Mapping) -> dict:
    """The pre-computed headline metrics stored in an artefact."""
    return dict(artifact.get("metrics", {}))


#: Keys every artefact must carry, with their expected container types.
_REQUIRED_FIELDS = (
    ("original_qasm", str),
    ("routed_qasm", str),
    ("native_qasm", str),
    ("routing", Mapping),
    ("metrics", Mapping),
    ("device", Mapping),
)


def validate_artifact(artifact) -> str | None:
    """Structural check of an artefact shipped back by a worker.

    Returns ``None`` when the artefact looks sound, else a one-line
    description of the first problem.  The batch engine runs this on
    every worker-produced artefact before caching or reporting it, so a
    worker that ships garbage (bit-flips, a ``corrupt`` fault, a
    truncated pickle) is treated like a crash instead of poisoning the
    cache.  Cheap by design: structure and headers only, no parse of
    the QASM bodies.  A schedule must hold three lists of ints of one
    length, the native gate count (``metrics["native_gates"]`` plus the
    barrier lines of ``native_qasm``), whose ``order`` is a permutation.
    """
    if not isinstance(artifact, Mapping):
        return f"artifact is {type(artifact).__name__}, not a mapping"
    if artifact.get("schema") != ARTIFACT_SCHEMA:
        return (
            f"artifact schema {artifact.get('schema')!r} is not "
            f"{ARTIFACT_SCHEMA}"
        )
    for name, kind in _REQUIRED_FIELDS:
        value = artifact.get(name)
        if not isinstance(value, kind):
            return f"artifact field {name!r} is missing or mistyped"
    for name in ("original_qasm", "routed_qasm", "native_qasm"):
        if "OPENQASM" not in artifact[name]:
            return f"artifact field {name!r} is not OpenQASM text"
    schedule = artifact.get("schedule")
    if schedule is not None:
        native_gates = artifact["metrics"].get("native_gates")
        if type(native_gates) is not int:
            return "artifact metric 'native_gates' is missing or mistyped"
        # Circuit.size() leaves barriers out; the schedule holds them.
        size = native_gates + artifact["native_qasm"].count("\nbarrier ")
        return _schedule_problem(schedule, size)
    return None
