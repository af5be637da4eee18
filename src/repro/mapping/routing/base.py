"""Common types for qubit routers.

A *router* (Section III-A, task 3) transforms a circuit on program qubits
into a circuit on physical qubits in which every two-qubit gate acts on a
connected pair, by inserting SWAP gates and updating the placement.  All
routers in this package share the :class:`RoutingResult` output type and
the :func:`route` entry point of :mod:`repro.mapping.routing`.

Routers do **not** fix CNOT directions or decompose SWAPs — those are the
jobs of :mod:`repro.mapping.direction` and :mod:`repro.decompose`; they
do guarantee *connectivity* (undirected adjacency) for every two-qubit
gate they emit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ...core.circuit import Circuit
from ...core.gates import Gate
from ...devices.device import Device
from ..placement import Placement

__all__ = ["RoutingResult", "RoutingError", "check_connectivity", "device_path"]


class RoutingError(RuntimeError):
    """Raised when a router cannot satisfy the device constraints."""


def device_path(device: Device, a: int, b: int) -> list[int]:
    """:meth:`Device.shortest_path` with routing error semantics.

    A disconnected qubit pair raises the device's typed ``ValueError``;
    inside a router that is a routing failure (the pipeline's fallback
    chain and the CLI both understand :class:`RoutingError`), so convert
    it here instead of letting it escape as a bare ``ValueError``.
    """
    try:
        return device.shortest_path(a, b)
    except ValueError as exc:
        raise RoutingError(str(exc)) from None


@dataclass
class RoutingResult:
    """Outcome of routing one circuit onto one device.

    Attributes:
        circuit: The routed circuit on *physical* qubits
            (``num_qubits == device.num_qubits``), containing the original
            gates (remapped) plus inserted ``swap`` gates.
        initial: Placement before the first gate.
        final: Placement after the last gate (differs from ``initial``
            when SWAPs moved program qubits; the paper's Fig. 2 makes the
            same observation).
        added_swaps: Number of inserted SWAP gates.
        router: Name of the router that produced this result.
        metadata: Router-specific extras (e.g. search statistics).
    """

    circuit: Circuit
    initial: Placement
    final: Placement
    added_swaps: int
    router: str
    metadata: dict = field(default_factory=dict)

    @property
    def depth_overhead(self) -> int:
        """Depth of the routed circuit (compare against the input's)."""
        return self.circuit.depth()


def check_connectivity(circuit: Circuit, device: Device) -> None:
    """Raise :class:`RoutingError` if any 2-qubit gate is on unconnected qubits.

    Each distinct gate object is checked once (lowering repeats a gate
    as the same object); only when one fails is the circuit scanned for
    the first offending gate, whose index the message names.
    """
    distinct = dict(zip(map(id, circuit.gates), circuit.gates)).values()
    if any(_connectivity_problem(g, device) for g in distinct):
        for index, gate in enumerate(circuit.gates):
            if problem := _connectivity_problem(gate, device):
                raise RoutingError(f"gate #{index} ({gate}) {problem}")


def _connectivity_problem(gate: Gate, device: Device) -> str:
    """Why ``gate`` cannot follow routing on ``device``, or ``""``."""
    if len(gate.qubits) == 2 and gate.is_unitary:
        a, b = gate.qubits
        if not device.connected(a, b):
            return "acts on unconnected qubits"
    elif len(gate.qubits) > 2:
        return "has more than two qubits; decompose before routing"
    return ""
