"""Output correctness gate of the benchmark, independent of the mapper.

Three checks, none of which trusts the compiler under test:

* **native legality** (:func:`native_problems`) — every gate of a
  compiled program is in ``device.native_gates`` and every two-qubit
  gate sits on a directed edge of ``device.edges``, the device's public
  description;
* **determinism** (:func:`fingerprint`) — every later round of a
  workload must reproduce the first round's output fingerprint;
* **equivalence** (:func:`equivalent`) — a seeded sample of outputs is
  simulated against its input with :func:`repro.verify.equivalent_mapped`.
  The mapped program is first compacted to the physical qubits it
  touches, so 80-119-qubit devices stay within
  :data:`repro.verify.STATEVECTOR_LIMIT`.
"""

from __future__ import annotations

import hashlib
import random

from repro.core.circuit import Circuit
from repro.devices.device import Device
from repro.mapping.placement import Placement
from repro.verify import STATEVECTOR_LIMIT, equivalent_mapped

__all__ = [
    "compact",
    "equivalence_sample",
    "equivalent",
    "fingerprint",
    "native_problems",
]

#: Per-check simulation budget, in amplitude-gate updates: about one
#: second here.  Outputs above it are never sampled for equivalence.
_SIM_BUDGET = (1 << 14) * 1000


def native_problems(circuit: Circuit, device: Device) -> list[str]:
    """Every way ``circuit`` is not executable on ``device`` (empty: ok)."""
    problems = []
    for index, gate in enumerate(circuit.gates):
        if gate.name not in device.native_gates:
            problems.append(f"gate #{index} {gate.name} is not native")
        if gate.name == "barrier":
            continue
        if len(gate.qubits) > 2:
            problems.append(f"gate #{index} {gate.name} acts on >2 qubits")
        elif len(gate.qubits) == 2 and tuple(gate.qubits) not in device.edges:
            problems.append(
                f"gate #{index} {gate.name}{tuple(gate.qubits)} is not on "
                f"a directed edge of {device.name}"
            )
    return problems


def fingerprint(result) -> str:
    """Digest of a :class:`~repro.core.pipeline.CompilationResult`'s
    output: native gate list, placements, swaps and latency."""
    digest = hashlib.sha256()
    for gate in result.native.gates:
        digest.update(repr(gate).encode())
    digest.update(repr((
        result.routed.initial.prog_to_phys(),
        result.routed.final.prog_to_phys(),
        result.added_swaps,
        result.latency,
    )).encode())
    return digest.hexdigest()[:16]


def compact(
    native: Circuit, initial: Placement, final: Placement, num_program: int
) -> tuple[Circuit, Placement, Placement]:
    """Restrict a mapped program to the physical qubits it touches.

    Keeps every qubit a gate acts on plus the initial home of every
    program qubit.  Raises ``ValueError`` when the routing permutation
    moves a qubit outside that set, i.e. the placements and the gates
    disagree.
    """
    touched = set()
    for gate in native.gates:
        touched.update(gate.qubits)
    touched.update(initial.phys(q) for q in range(num_program))
    order = sorted(touched)
    index = {phys: i for i, phys in enumerate(order)}
    sigma = initial.permutation_to(final)
    for phys in range(initial.num_physical):
        if (phys in index) != (sigma[phys] in index) or (
            phys not in index and sigma[phys] != phys
        ):
            raise ValueError(f"routing moves untouched qubit {phys}")
    homes = [index[initial.phys(q)] for q in range(num_program)]
    rest = sorted(set(range(len(order))) - set(homes))
    start = Placement(homes + rest, num_program)
    end = Placement(
        [index[sigma[order[i]]] for i in homes + rest], num_program
    )
    return native.remap_qubits(index, num_qubits=len(order)), start, end


def equivalent(result) -> bool:
    """Simulate a compiled program against its input (compacted first)."""
    original = result.original
    native, start, end = compact(
        result.native, result.routed.initial, result.routed.final,
        original.num_qubits,
    )
    return equivalent_mapped(original, native, start, end)


def _sim_cost(result) -> float:
    width = len(
        {q for gate in result.native.gates for q in gate.qubits}
        | {result.routed.initial.phys(q)
           for q in range(result.original.num_qubits)}
    )
    if width > STATEVECTOR_LIMIT:
        return float("inf")
    return (result.native.size() + result.original.size()) * 2.0 ** width


def equivalence_sample(results: dict, seed: int, k: int = 3) -> list[str]:
    """A seeded choice of ``k`` job ids whose outputs fit the budget.

    ``results`` maps job id to its first compiled result; ids are sorted
    before sampling so the choice depends on the seed alone.
    """
    eligible = sorted(
        job_id for job_id, result in results.items()
        if _sim_cost(result) <= _SIM_BUDGET
    )
    rng = random.Random(f"equivalence/{seed}")
    return rng.sample(eligible, min(k, len(eligible)))
