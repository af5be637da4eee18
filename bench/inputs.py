"""Seeded inputs of the five benchmark workloads.

Every workload is a list of distinct jobs built from ``--seed`` alone:
the same seed always yields the same circuits, devices and pass configs,
and the program under test only ever sees these generated inputs.  Only
public entry points are used: the :mod:`repro.workloads` generators, the
:mod:`repro.devices` factories, :class:`repro.core.pipeline.PassConfig`
and :class:`repro.service.CompileJob`.

What the seed varies.  Random circuits keep a fixed CNOT skeleton per
instance (seed 0 reproduces the historical router corpus exactly) and
the seed reshuffles their single-qubit gates.  Placement and routing
cost and SWAP counts depend on the skeleton alone, and swing by 10-40%
from one random skeleton to the next, more than an 18 s run can average
out; fixed skeletons and a fixed single-qubit gate mix keep every
metric's spread across seeds within its bound, while each seed still
compiles different programs (different outputs and cache keys).  The algorithm
workload varies what its generators take: ansatz angles, QV pairings
and the Grover marked state.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from repro.core.circuit import Circuit
from repro.core.pipeline import PassConfig
from repro.devices import grid_device, heavy_hex_device, ibm_qx5, linear_device, surface17
from repro.devices.device import Device
from repro.workloads import (
    cuccaro_adder,
    ghz,
    grover,
    hardware_efficient_ansatz,
    qft,
    quantum_volume_layers,
    random_circuit,
)

__all__ = [
    "DEVICES",
    "GATEWAY_GROUP",
    "GATEWAY_RATE",
    "Job",
    "build_devices",
    "gateway_stream",
    "jobs_for",
]

#: Open-loop arrival rate of ``gateway_stream``, jobs per second, and
#: the size of the groups jobs arrive in.  On a 2-CPU host queueing
#: sets in near 45 jobs/s.  At 20 jobs/s a group's misses, on a host
#: running at half speed, still held the pool when the next group fell
#: due 200 ms later, and that group's hits waited behind them: the
#: median moved by a third from run to run.  At 10 jobs/s the pool is
#: idle again before the next group arrives.
GATEWAY_RATE = 10.0
GATEWAY_GROUP = 4

_SMALL_DEVICES = {
    "ibm_qx5": ibm_qx5,
    "grid44": lambda: grid_device(4, 4),
    "linear9": lambda: linear_device(9),
    "surface17": surface17,
}
_LARGE_DEVICES = {
    "grid8x10": lambda: grid_device(8, 10),
    "grid10x10": lambda: grid_device(10, 10),
    "heavyhex119": lambda: heavy_hex_device(7, 14),
}

#: (device, qubits, gates, skeleton seed) of the small corpus.
_SMALL_INSTANCES = (
    ("ibm_qx5", 12, 30, 11),
    ("ibm_qx5", 12, 120, 120),
    ("ibm_qx5", 16, 80, 5),
    ("grid44", 16, 100, 7),
    ("grid44", 10, 60, 3),
    ("linear9", 9, 50, 2),
    ("surface17", 12, 70, 13),
)
_SMALL_ROUTERS = ("naive", "sabre", "astar", "latency", "reliability")
_VARIANTS = (
    ("sabre_commutation", "sabre", {"commutation": True}),
    ("sabre_lookahead0", "sabre", {"lookahead": 0}),
    ("sabre_nodecay", "sabre", {"use_decay": False}),
    ("astar_lookahead2", "astar", {"lookahead_layers": 2}),
    ("latency_commutation", "latency", {"commutation": True}),
)

#: Copies of the small corpus per run, each with its own fixed skeletons
#: (instance seed + 1000 * copy), so the percentiles see 120 jobs.
_SMALL_COPIES = 3

#: (program qubits, skeleton seed) per large device, as in the 80-119
#: qubit router corpus.
_LARGE_PROGRAMS = {
    "grid8x10": ((8, 121), (12, 21)),
    "grid10x10": ((8, 109), (12, 9)),
    "heavyhex119": ((8, 117), (12, 17)),
}

_SWEEP_ROUTERS = ("sabre", "astar", "naive", "latency")
_SWEEP_SCHEDULES = ("asap", "alap", "constraints")


@dataclass
class Job:
    """One distinct compile request of a workload."""

    job_id: str
    circuit: Circuit
    device: Device
    config: PassConfig


def build_devices(names) -> dict[str, Device]:
    """Construct the named devices (part of every workload's set-up)."""
    factories = {**_SMALL_DEVICES, **_LARGE_DEVICES}
    return {name: factories[name]() for name in names}


def _random(nq: int, ng: int, skeleton: int, key: str | None = None) -> Circuit:
    """``random_circuit(nq, ng, seed=skeleton)``, its single-qubit gates
    reshuffled from ``key`` (``None``: unchanged).

    The shuffle deals the circuit's own single-qubit gates out again over
    its single-qubit slots and redraws every rotation angle, so the gate
    mix, and with it the lowering work, stays the same.
    """
    base = random_circuit(nq, ng, seed=skeleton, two_qubit_fraction=0.6)
    if key is None:
        return base
    rng = random.Random(key)
    singles = [g for g in base.gates if len(g.qubits) == 1]
    rng.shuffle(singles)
    dealt = iter(singles)
    out = Circuit(base.num_qubits, name=f"{base.name}/{key}")
    for gate in base.gates:
        if len(gate.qubits) != 1:
            out.append(gate)
            continue
        name, q = next(dealt).name, gate.qubits[0]
        if name in ("rx", "ry", "rz"):
            getattr(out, name)(rng.uniform(-math.pi, math.pi), q)
        else:
            getattr(out, name)(q)
    return out


def _seeded(seed: int, tag) -> str | None:
    return f"{tag}/{seed}" if seed else None


def small_devices(seed: int, devices: dict[str, Device]) -> list[Job]:
    """The 40-job router corpus, in :data:`_SMALL_COPIES` copies."""
    jobs: list[Job] = []
    for copy in range(_SMALL_COPIES):
        for dev, nq, ng, base in _SMALL_INSTANCES:
            skeleton = base + 1000 * copy
            circuit = _random(nq, ng, skeleton, _seeded(seed, skeleton))
            for router in _SMALL_ROUTERS:
                jobs.append(Job(
                    f"{dev}/{circuit.name}/{router}",
                    circuit, devices[dev], PassConfig(router=router),
                ))
        skeleton = 42 + 1000 * copy
        circuit = _random(12, 60, skeleton, _seeded(seed, skeleton))
        for name, router, options in _VARIANTS:
            jobs.append(Job(
                f"ibm_qx5/{circuit.name}/{name}", circuit, devices["ibm_qx5"],
                PassConfig(router=router, router_options=options),
            ))
    return jobs


def large_devices(seed: int, devices: dict[str, Device]) -> list[Job]:
    """8q40g and 12q40g programs on the 80-119-qubit devices.

    These devices have a universal native set, so the reshuffled
    single-qubit gates pass through unchanged and the quality counts do
    not depend on the seed.
    """
    jobs: list[Job] = []
    for dev, programs in _LARGE_PROGRAMS.items():
        for nq, skeleton in programs:
            circuit = _random(nq, 40, skeleton, _seeded(seed, skeleton))
            for router in ("sabre", "astar"):
                jobs.append(Job(
                    f"{dev}/{circuit.name}/{router}",
                    circuit, devices[dev], PassConfig(router=router),
                ))
    return jobs


def algorithms(seed: int, devices: dict[str, Device]) -> list[Job]:
    """Structured algorithm circuits, optimised, on QX5 and Surface-17."""
    circuits = [
        qft(10), qft(16), ghz(16), cuccaro_adder(3), cuccaro_adder(7),
        hardware_efficient_ansatz(16, 4, seed=seed),
        grover(3, seed % 8),
    ]
    qv = quantum_volume_layers(16, 10, seed=seed)
    jobs: list[Job] = []
    for dev in ("ibm_qx5", "surface17"):
        for circuit in circuits:
            for router in ("sabre", "astar"):
                jobs.append(Job(
                    f"{dev}/{circuit.name}/{router}", circuit,
                    devices[dev], PassConfig(router=router, optimize=True),
                ))
        # A* exceeds its per-layer expansion budget on QV layers.
        jobs.append(Job(
            f"{dev}/{qv.name}s{seed}/sabre", qv, devices[dev],
            PassConfig(router="sabre", optimize=True),
        ))
    return jobs


def router_sweep(seed: int, devices: dict[str, Device]) -> list[Job]:
    """Three 12q60g circuits on Surface-17 x 4 routers x 3 schedulers."""
    jobs: list[Job] = []
    for skeleton in (42, 43, 44):
        circuit = _random(12, 60, skeleton, _seeded(seed, skeleton))
        for router in _SWEEP_ROUTERS:
            for sched in _SWEEP_SCHEDULES:
                jobs.append(Job(
                    f"{circuit.name}/{router}/{sched}", circuit,
                    devices["surface17"],
                    PassConfig(router=router, schedule=sched),
                ))
    return jobs


def gateway_stream(seed: int, devices: dict[str, Device], seconds: float,
                   stream: int = 0) -> tuple[list[Job], list[tuple]]:
    """Distinct jobs and the open-loop arrival schedule of the gateway.

    Returns ``(jobs, arrivals)`` where each arrival is ``(due_offset_s,
    job_index, priority, tenant)``.  Jobs fall due in groups of
    :data:`GATEWAY_GROUP` (a client posting a small batch at once), at
    ``GATEWAY_RATE`` jobs per second on average; a group is one gateway
    micro-batch, so misses that meet go to the warm pool.  In every
    block of ten arrivals three slots are fresh jobs and seven repeat a
    pick from the 20-job hot set (``jobs[:20]``).  Hot and fresh jobs
    take the corpus instances x routers in one fixed order.  Slots,
    picks and order are the same for every seed, which only reshuffles
    each job's single-qubit gates: with Poisson arrivals and a seeded
    mix, which jobs met in one micro-batch changed with the seed, and the
    median latency moved by 40% and more from seed to seed.  Priorities alternate and eight
    tenants take turns.  ``stream`` selects another schedule with its
    own fresh jobs (the traced pass uses stream 1 and so sees the same
    hit/miss mix).
    """
    combos = [
        (dev, nq, ng, skeleton, router)
        for dev, nq, ng, skeleton in _SMALL_INSTANCES
        for router in _SMALL_ROUTERS
    ]
    order = random.Random("gateway").sample(combos, len(combos))

    def make(key: str, combo: tuple) -> Job:
        dev, nq, ng, skeleton, router = combo
        circuit = _random(nq, ng, skeleton, key)
        return Job(
            f"{dev}/{circuit.name}/{router}", circuit, devices[dev],
            PassConfig(router=router),
        )

    jobs = [make(f"gateway/{seed}/hot{i}", order[i]) for i in range(20)]
    rng = random.Random(f"gateway/{stream}")
    arrivals = []
    fresh = 0
    for i in range(int(seconds * GATEWAY_RATE)):
        if i % 10 == 0:
            fresh_slots = set(rng.sample(range(10), 3))
        if i % 10 in fresh_slots:
            index = len(jobs)
            jobs.append(make(
                f"gateway/{seed}/{stream}/{index}",
                order[(20 + fresh) % len(order)],
            ))
            fresh += 1
        else:
            index = rng.randrange(20)
        due = (i // GATEWAY_GROUP) * GATEWAY_GROUP / GATEWAY_RATE
        priority = "interactive" if i % 2 == 0 else "batch"
        arrivals.append((due, index, priority, f"tenant{i % 8}"))
    return jobs, arrivals


#: Devices each workload compiles for (built during set-up).
DEVICES = {
    "small_devices": tuple(_SMALL_DEVICES),
    "large_devices": tuple(_LARGE_DEVICES),
    "algorithms": ("ibm_qx5", "surface17"),
    "router_sweep": ("surface17",),
    "gateway_stream": tuple(_SMALL_DEVICES),
}

_CLOSED_LOOP = {
    "small_devices": small_devices,
    "large_devices": large_devices,
    "algorithms": algorithms,
    "router_sweep": router_sweep,
}


def jobs_for(workload: str, seed: int, devices: dict[str, Device]) -> list[Job]:
    """The distinct jobs of a closed-loop workload."""
    return _CLOSED_LOOP[workload](seed, devices)
