"""The end-to-end compilation pipeline.

Implements the full flow of the paper's Fig. 2: a quantum circuit plus a
device description go in; a constraint-satisfying, scheduled program
comes out.  The pipeline stages match Section III-A's three compiler
tasks:

1. **initial placement** (:mod:`repro.mapping.placement`),
2. **routing** (:mod:`repro.mapping.routing`) with CNOT direction fixing,
3. **gate decomposition** (:mod:`repro.decompose`) into the native set,
4. **scheduling** (:mod:`repro.mapping.scheduler` /
   :mod:`repro.mapping.control`), dependency-only or
   control-constraint-aware.

Use :func:`compile_circuit` for the general entry point; the result
object records every intermediate artefact so experiments can report any
metric the paper discusses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

from ..decompose import decompose_circuit
from ..devices.device import Device
from ..obs import add_counter, trace_span
from ..optimize import optimize_circuit
from ..mapping.control import schedule_with_constraints
from ..mapping.direction import fix_directions
from ..mapping.placement import PLACERS, Placement
from ..mapping.routing import ROUTERS, RoutingError, RoutingResult, \
    check_connectivity, route
from ..mapping.scheduler import Schedule, alap_schedule, asap_schedule
from ..qasm import parse_qasm, to_openqasm
from ..resilience.deadline import Deadline, DeadlineExceeded, use_deadline
from ..resilience.faults import FaultInjected, fault_point
from .circuit import Circuit
from .snapshot import (
    placement_from_obj,
    placement_to_obj,
    schedule_from_obj,
    schedule_to_obj,
)

__all__ = [
    "CompilationResult",
    "PassConfig",
    "STAGES",
    "compile_circuit",
    "compile_with_config",
    "fallback_chain",
    "routing_result_from_obj",
    "routing_result_to_obj",
]

#: The cacheable pipeline stages, in execution order.  Each stage's
#: output is a pure function of (its input snapshot, the device, its
#: slice of :class:`PassConfig`), which is what makes per-stage cache
#: entries sound: ``placement`` is reusable across router variants,
#: ``routing`` across scheduler tweaks, and so on downstream.
STAGES = ("placement", "routing", "lower", "schedule")

#: Cheaper routers tried, in order, when a routing stage times out or
#: fails: SABRE is the fast heuristic, naive always terminates.
_FALLBACK_ORDER = ("sabre", "naive")


def fallback_chain(router: str) -> tuple[str, ...]:
    """The router sequence tried for ``router``: itself, then cheaper ones.

    ``astar`` degrades through ``sabre`` to ``naive``; ``naive`` has no
    fallback.  Any unknown/expensive router degrades through the full
    ``sabre -> naive`` tail.
    """
    if router in _FALLBACK_ORDER:
        index = _FALLBACK_ORDER.index(router)
        return (router,) + _FALLBACK_ORDER[index + 1:]
    return (router,) + _FALLBACK_ORDER


def routing_result_to_obj(routed: RoutingResult) -> dict:
    """A routing outcome as a JSON-able dict (inverse of
    :func:`routing_result_from_obj`).

    The circuit travels as OpenQASM text — the writer is a fixed point
    of ``parse -> write``, so a stage entry loaded from cache re-hashes
    to the same key it was stored under.  Router metadata is
    deliberately dropped: it is diagnostic, not part of the artefact
    contract.
    """
    return {
        "circuit_qasm": to_openqasm(routed.circuit),
        "initial": placement_to_obj(routed.initial),
        "final": placement_to_obj(routed.final),
        "added_swaps": routed.added_swaps,
        "router": routed.router,
    }


def routing_result_from_obj(obj: Mapping) -> RoutingResult:
    """Rebuild a :class:`~repro.mapping.routing.RoutingResult` from
    :func:`routing_result_to_obj` output."""
    return RoutingResult(
        circuit=parse_qasm(obj["circuit_qasm"]),
        initial=placement_from_obj(obj["initial"]),
        final=placement_from_obj(obj["final"]),
        added_swaps=obj["added_swaps"],
        router=obj["router"],
    )


@dataclass(frozen=True)
class PassConfig:
    """Hashable, serialisable description of one pipeline configuration.

    Captures every knob of :func:`compile_circuit` that changes its
    output, in a canonical form: the compile cache
    (:mod:`repro.service`) keys artefacts on this object, so two configs
    compare (and hash) equal exactly when they drive identical
    compilations.  ``router_options`` is normalised to a sorted tuple of
    ``(name, value)`` pairs; a mapping may be passed and is converted.

    Only *named* placers are representable — a callable placer has no
    canonical serial form and must go through :func:`compile_circuit`
    directly.
    """

    placer: str = "assignment"
    router: str = "sabre"
    router_options: tuple[tuple[str, object], ...] = ()
    decompose: bool = True
    optimize: bool = False
    schedule: str | None = "asap"
    control_constraints: bool | None = None

    def __post_init__(self) -> None:
        opts = self.router_options
        if isinstance(opts, Mapping):
            pairs = opts.items()
        else:
            pairs = tuple(opts)
        object.__setattr__(
            self,
            "router_options",
            tuple(sorted((str(k), v) for k, v in pairs)),
        )

    def as_kwargs(self) -> dict:
        """Keyword arguments for :func:`compile_circuit`."""
        return {
            "placer": self.placer,
            "router": self.router,
            "router_options": dict(self.router_options),
            "decompose": self.decompose,
            "optimize": self.optimize,
            "schedule": self.schedule,
            "control_constraints": self.control_constraints,
        }

    def to_dict(self) -> dict:
        """JSON-serialisable form (inverse of :meth:`from_dict`)."""
        return {
            "placer": self.placer,
            "router": self.router,
            "router_options": dict(self.router_options),
            "decompose": self.decompose,
            "optimize": self.optimize,
            "schedule": self.schedule,
            "control_constraints": self.control_constraints,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "PassConfig":
        """Rebuild a config from :meth:`to_dict` output (extras rejected)."""
        known = {
            "placer", "router", "router_options", "decompose",
            "optimize", "schedule", "control_constraints",
        }
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown PassConfig fields: {sorted(unknown)}")
        return cls(**{k: data[k] for k in known if k in data})

    def stage_slice(self, stage: str) -> dict:
        """The knobs of this config that stage ``stage`` depends on.

        Stage cache keys commit to *only* this slice, which is what lets
        one stage's entry survive a change to a later stage's knobs: a
        scheduler tweak re-keys ``schedule`` but not ``routing``.

        Raises:
            ValueError: for a name not in :data:`STAGES`.
        """
        if stage == "placement":
            return {"placer": self.placer}
        if stage == "routing":
            return {
                "router": self.router,
                "router_options": dict(self.router_options),
            }
        if stage == "lower":
            return {"decompose": self.decompose, "optimize": self.optimize}
        if stage == "schedule":
            return {
                "schedule": self.schedule,
                "control_constraints": self.control_constraints,
            }
        raise ValueError(f"unknown pipeline stage {stage!r}")


@dataclass
class CompilationResult:
    """Every artefact of one compilation run.

    Attributes:
        original: The input circuit on program qubits.
        device: The target device.
        routed: Routing outcome (circuit still contains ``swap`` gates
            and possibly wrong-direction CNOTs).
        native: The fully lowered circuit: native gates only, legal
            directions, connectivity satisfied.
        schedule: Timed schedule of ``native`` (``None`` when scheduling
            was disabled).
        flips: Number of CNOTs the direction pass had to reverse.
        placer: Name of the placement strategy used.
        router: Name of the router used.
    """

    original: Circuit
    device: Device
    routed: RoutingResult
    native: Circuit
    schedule: Schedule | None
    flips: int
    placer: str
    router: str
    metadata: dict = field(default_factory=dict)

    # -- headline metrics -------------------------------------------------

    @property
    def added_swaps(self) -> int:
        return self.routed.added_swaps

    @property
    def gate_overhead(self) -> int:
        """Native gates emitted minus native gates the input needs alone."""
        return self.native.size() - self.original.size()

    @property
    def depth_ratio(self) -> float:
        base = max(self.original.depth(), 1)
        return self.native.depth() / base

    @property
    def latency(self) -> int:
        """Latency in cycles (0 when unscheduled)."""
        return self.schedule.latency if self.schedule else 0

    @property
    def latency_ns(self) -> float:
        return self.schedule.latency_ns if self.schedule else 0.0

    def summary(self) -> str:
        """One-paragraph human-readable report."""
        lines = [
            f"circuit {self.original.name or '<unnamed>'} -> {self.device.name}",
            f"  placer={self.placer} router={self.router}",
            f"  original: {self.original.size()} gates, depth {self.original.depth()}",
            f"  routed:   +{self.added_swaps} SWAPs, {self.flips} direction flips",
            f"  native:   {self.native.size()} gates, depth {self.native.depth()}",
        ]
        if self.schedule is not None:
            lines.append(
                f"  schedule: {self.schedule.latency} cycles "
                f"({self.schedule.latency_ns:.0f} ns)"
            )
        return "\n".join(lines)


def _check_placement(placement, placer_name: str, device: Device,
                     circuit: Circuit) -> None:
    """Reject a placer result that does not fit ``circuit`` on ``device``.

    :class:`Placement` already proves its array is a permutation, so
    checking the type and both sizes makes the result a bijection of the
    program qubits (plus dummies) onto the device's physical qubits.

    Raises:
        ValueError: naming the placer, the expected and the actual sizes.
    """
    expected = (device.num_qubits, circuit.num_qubits)
    if isinstance(placement, Placement):
        actual = (placement.num_physical, placement.num_program)
        if actual == expected:
            return
        got = (f"a Placement of {actual[0]} physical / {actual[1]} "
               "program qubits")
    else:
        got = f"a {type(placement).__name__}"
        if hasattr(placement, "__len__"):
            got += f" of length {len(placement)}"
    raise ValueError(
        f"placer {placer_name!r} returned {got}; expected a Placement of "
        f"{expected[0]} physical / {expected[1]} program qubits for "
        f"device {device.name!r}"
    )


def compile_circuit(
    circuit: Circuit,
    device: Device,
    *,
    placer: str | Callable = "assignment",
    router: str = "sabre",
    router_options: dict | None = None,
    decompose: bool = True,
    optimize: bool = False,
    schedule: str | None = "asap",
    control_constraints: bool | None = None,
    stage_store=None,
) -> CompilationResult:
    """Compile ``circuit`` for ``device`` through the full Fig. 2 flow.

    Args:
        circuit: Input circuit on program qubits.
        device: Target device description.
        placer: Placement strategy name (see
            :data:`repro.mapping.placement.PLACERS`) or a callable
            ``(circuit, device) -> Placement``.  Its result (or a
            stage-cached one) must be a :class:`Placement` on
            ``device.num_qubits`` physical qubits with one program
            qubit per circuit qubit; anything else raises ValueError.
        router: Router name (see :data:`repro.mapping.routing.ROUTERS`).
        router_options: Extra keyword arguments for the router.
        decompose: Lower to the native gate set (and fix CNOT directions).
            When False the result's ``native`` circuit still contains
            SWAP/composite gates.
        optimize: Run the peephole passes
            (:func:`repro.optimize.optimize_circuit`) on the lowered
            circuit — cancels e.g. direction-flip Hadamards meeting
            decomposition Hadamards.  Single-qubit fusion into ``u`` is
            enabled automatically when the device is ``u``-native.
        schedule: ``"asap"``, ``"alap"``, ``"constraints"`` (the
            control-aware scheduler) or ``None`` to skip scheduling.
        control_constraints: Only with ``schedule="constraints"``:
            explicitly enable/disable the electronics rules (default: use
            them when the device defines any).
        stage_store: Optional per-stage intermediate cache (duck-typed):
            ``load(stage, inputs, config) -> dict | None`` and
            ``store(stage, inputs, config, entry)``.  Before running a
            stage in :data:`STAGES` the pipeline probes the store with
            the stage's content-addressed inputs (circuits as OpenQASM
            text, device as its dict form) and that stage's
            :meth:`PassConfig.stage_slice`; a hit skips the stage, a
            miss stores the freshly computed entry.  ``None`` (the
            default) leaves the pipeline byte-identical to the
            pre-stage-cache behaviour.  Callable placers are never
            stage-cached (no canonical key).

    Returns:
        A :class:`CompilationResult`.
    """
    with trace_span(
        "compile", pass_="pipeline", device=device.name, router=router
    ) as root:
        # Multi-qubit gates cannot be routed; lower them first if present.
        prepared = circuit
        if any(len(g.qubits) > 2 for g in circuit.gates):
            with trace_span("decompose", pass_="decompose",
                            stage="pre-route") as sp:
                fault_point("decompose")
                prepared = decompose_circuit(circuit, device)
                if sp.enabled:
                    sp.set(gates_in=circuit.size(), gates_out=prepared.size())

        # Stage-store bookkeeping: every stage key hashes the stage's
        # *input* snapshot (circuits as QASM text, device as dict), so
        # the snapshots are only rendered when a store is present.
        store = stage_store
        if store is not None:
            device_obj = device.to_dict()
            prepared_qasm = to_openqasm(prepared)

        placement = None
        placer_name = None
        if store is not None and not callable(placer):
            placement_inputs = {
                "circuit_qasm": prepared_qasm, "device": device_obj,
            }
            entry = store.load("placement", placement_inputs,
                               {"placer": placer})
            if entry is not None:
                placement = placement_from_obj(entry["placement"])
                placer_name = entry["placer"]
                _check_placement(placement, placer_name, device, prepared)
        if placement is None:
            with trace_span("placement", pass_="placement") as sp:
                fault_point("placement")
                if callable(placer):
                    placement = placer(prepared, device)
                    placer_name = getattr(placer, "__name__", "custom")
                else:
                    placement = PLACERS[placer](prepared, device)
                    placer_name = placer
                _check_placement(placement, placer_name, device, prepared)
                if sp.enabled:
                    sp.set(placer=placer_name)
            if store is not None and not callable(placer):
                store.store(
                    "placement", placement_inputs, {"placer": placer},
                    {"placement": placement_to_obj(placement),
                     "placer": placer_name},
                )

        routed = None
        if store is not None:
            routing_inputs = {
                "circuit_qasm": prepared_qasm,
                "device": device_obj,
                "placement": placement_to_obj(placement),
            }
            routing_cfg = {
                "router": router,
                "router_options": dict(router_options or {}),
            }
            entry = store.load("routing", routing_inputs, routing_cfg)
            if entry is not None:
                routed = routing_result_from_obj(entry)
        if routed is None:
            with trace_span("routing", pass_="routing", router=router) as sp:
                fault_point("routing", router=router)
                routed = route(
                    prepared, device, router, placement,
                    **(router_options or {})
                )
                if sp.enabled:
                    sp.set(
                        added_swaps=routed.added_swaps,
                        gates_in=prepared.size(),
                        gates_out=routed.circuit.size(),
                        depth_in=prepared.depth(),
                        depth_out=routed.circuit.depth(),
                    )
            if store is not None:
                store.store("routing", routing_inputs, routing_cfg,
                            routing_result_to_obj(routed))

        native = routed.circuit
        native_qasm = None
        flips = 0
        lower_loaded = False
        if store is not None and (decompose or optimize):
            lower_inputs = {
                "circuit_qasm": to_openqasm(routed.circuit),
                "device": device_obj,
            }
            lower_cfg = {"decompose": decompose, "optimize": optimize}
            entry = store.load("lower", lower_inputs, lower_cfg)
            if entry is not None:
                native_qasm = entry["circuit_qasm"]
                native = parse_qasm(native_qasm)
                flips = entry["flips"]
                lower_loaded = True
        if not lower_loaded and decompose:
            with trace_span("decompose", pass_="decompose",
                            stage="lower") as sp:
                lowered = decompose_circuit(native, device)
                if sp.enabled:
                    sp.set(gates_in=native.size(), gates_out=lowered.size())
                native = lowered
            with trace_span("direction-fix", pass_="direction-fix") as sp:
                fault_point("direction-fix")
                gates_in = native.size() if sp.enabled else 0
                native, flips = fix_directions(native, device)
                if sp.enabled:
                    sp.set(flips=flips, gates_in=gates_in,
                           gates_out=native.size())
            if optimize:
                # Clean up *before* the final lowering so H/H pairs from
                # the direction fix cancel while still recognisable.
                with trace_span("optimize", pass_="optimize",
                                stage="pre-lower") as sp:
                    fault_point("optimize")
                    optimized = optimize_circuit(native)
                    if sp.enabled:
                        sp.set(gates_in=native.size(),
                               gates_out=optimized.size())
                    native = optimized
            with trace_span("decompose", pass_="decompose",
                            stage="native") as sp:
                lowered = decompose_circuit(native, device)
                if sp.enabled:
                    sp.set(gates_in=native.size(), gates_out=lowered.size())
                native = lowered
            if optimize:
                with trace_span("optimize", pass_="optimize",
                                stage="native") as sp:
                    optimized = optimize_circuit(
                        native, fuse="u" in device.native_gates
                    )
                    if sp.enabled:
                        sp.set(gates_in=native.size(),
                               gates_out=optimized.size())
                    native = optimized
            with trace_span("verify", pass_="verify"):
                fault_point("verify")
                check_connectivity(native, device)
        elif not lower_loaded and optimize:
            with trace_span("optimize", pass_="optimize") as sp:
                fault_point("optimize")
                optimized = optimize_circuit(native)
                if sp.enabled:
                    sp.set(gates_in=native.size(), gates_out=optimized.size())
                native = optimized
        if (
            store is not None
            and not lower_loaded
            and (decompose or optimize)
        ):
            native_qasm = to_openqasm(native)
            store.store("lower", lower_inputs, lower_cfg,
                        {"circuit_qasm": native_qasm, "flips": flips})

        timed: Schedule | None = None
        if schedule is not None:
            sched_loaded = False
            if store is not None:
                if native_qasm is None:
                    native_qasm = to_openqasm(native)
                sched_inputs = {
                    "circuit_qasm": native_qasm, "device": device_obj,
                }
                sched_cfg = {
                    "schedule": schedule,
                    "control_constraints": control_constraints,
                }
                entry = store.load("schedule", sched_inputs, sched_cfg)
                if entry is not None:
                    timed = schedule_from_obj(entry["schedule"])
                    sched_loaded = True
            if not sched_loaded:
                with trace_span("schedule", pass_="schedule",
                                mode=schedule) as sp:
                    fault_point("schedule")
                    if schedule == "asap":
                        timed = asap_schedule(native, device)
                    elif schedule == "alap":
                        timed = alap_schedule(native, device)
                    elif schedule == "constraints":
                        use = control_constraints
                        if use is None:
                            use = (
                                device.constraints is not None
                                or "serial_two_qubit" in device.features
                            )
                        timed = schedule_with_constraints(
                            native,
                            device,
                            awg=use,
                            feedlines=use,
                            parking=use,
                            serial_two_qubit=None if use else False,
                        )
                    else:
                        raise ValueError(
                            f"unknown schedule mode {schedule!r}"
                        )
                    if sp.enabled and timed is not None:
                        sp.set(latency=timed.latency)
                if store is not None:
                    store.store("schedule", sched_inputs, sched_cfg,
                                {"schedule": schedule_to_obj(timed)})

        if root.enabled:
            # The headline metrics cost two depth scans that only a
            # traced compile pays; their own span keeps that work out of
            # the compile's unattributed remainder.
            with trace_span("metrics", pass_="metrics"):
                root.set(
                    gates_in=circuit.size(),
                    gates_out=native.size(),
                    depth_in=circuit.depth(),
                    depth_out=native.depth(),
                    added_swaps=routed.added_swaps,
                    flips=flips,
                )

    return CompilationResult(
        original=circuit,
        device=device,
        routed=routed,
        native=native,
        schedule=timed,
        flips=flips,
        placer=placer_name,
        router=router,
    )


def compile_with_config(
    circuit: Circuit,
    device: Device,
    config: PassConfig | None = None,
    *,
    deadline: Deadline | None = None,
    fallback: bool = True,
    stage_store=None,
) -> CompilationResult:
    """Run :func:`compile_circuit` under a :class:`PassConfig`.

    The entry point the compile service uses: configs are hashable and
    serialisable, so the same object that keys the cache also drives the
    compilation — there is no way for the two to drift apart.

    Resilience: when ``fallback`` is true and the routing stage times out
    (``deadline``, cooperative — the routers poll it) or fails, the
    compilation is retried down :func:`fallback_chain` with the next
    cheaper router.  A result produced by a fallback router carries
    ``metadata["resilience"]`` with ``degraded=True``, the requested and
    actually-used routers, the fallback path walked, and the failure
    messages.  The last router in the chain runs without a deadline if
    the budget is already spent — the chain's contract is to always
    return *an* answer.  With no deadline and no fault, the first
    attempt uses ``config``'s kwargs verbatim, so output is
    byte-identical to a plain :func:`compile_circuit` call.
    """
    config = config or PassConfig()
    chain = fallback_chain(config.router) if fallback else (config.router,)
    failures: list[dict] = []
    for position, router in enumerate(chain):
        last = position == len(chain) - 1
        kwargs = config.as_kwargs()
        if position > 0:
            # Router options belong to the requested router; the fallback
            # runs with its defaults.
            kwargs["router"] = router
            kwargs["router_options"] = {}
        attempt_deadline = deadline
        if fallback and last and deadline is not None and deadline.expired():
            # The budget is gone but the chain must still answer: run the
            # last-resort router unbounded.  (With fallback disabled the
            # caller asked for strict enforcement — let the router raise.)
            attempt_deadline = None
        try:
            with use_deadline(attempt_deadline):
                result = compile_circuit(
                    circuit, device, stage_store=stage_store, **kwargs
                )
        except DeadlineExceeded as exc:
            add_counter("pipeline.deadline_aborts", 1)
            if last:
                raise
            failures.append(
                {"router": router, "kind": "deadline", "error": str(exc)}
            )
            continue
        except (RoutingError, FaultInjected) as exc:
            add_counter("pipeline.router_failures", 1)
            if last:
                raise
            failures.append(
                {"router": router, "kind": type(exc).__name__,
                 "error": str(exc)}
            )
            continue
        if failures:
            add_counter("pipeline.router_fallbacks", 1)
            result.metadata["resilience"] = {
                "degraded": True,
                "requested_router": config.router,
                "router_used": router,
                "fallback_path": [f["router"] for f in failures] + [router],
                "failures": failures,
            }
        return result
    raise RuntimeError("unreachable: fallback chain exhausted")  # pragma: no cover
