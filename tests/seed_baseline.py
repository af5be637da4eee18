"""Frozen seed-router outputs: the byte-identity reference for routing.

Every entry records the added SWAP count of one routed corpus case and
a :func:`fingerprint` of the routed circuit.  The keys are the 40 cases
of :data:`repro.perf.CORPUS`, captured from the seed router
implementations, plus the six :data:`LARGE_CORPUS` cases on 80-119-qubit
devices, captured from the pure-Python A* kernel (``REPRO_NO_NATIVE=1``)
so that every native run is checked against the Python path.

Faster routers must keep reproducing these outputs exactly: a speed-up
changes how the answer is computed, never which answer comes out.  A
deliberate heuristic change regenerates the affected entries from the
commit before it, in the same change.
"""

from __future__ import annotations

import hashlib

from repro.core.circuit import Circuit
from repro.devices import grid_device, heavy_hex_device

__all__ = ["LARGE_CORPUS", "LARGE_DEVICES", "SEED_BASELINE", "fingerprint"]


def fingerprint(circuit: Circuit) -> str:
    """Order-sensitive digest of a circuit's gate list (16 hex digits)."""
    digest = hashlib.sha256()
    for gate in circuit.gates:
        digest.update(repr(gate).encode())
    return digest.hexdigest()[:16]


#: Grid and heavy-hex devices past the native kernel's old 64-qubit cap.
LARGE_DEVICES = {
    "grid8x10": lambda: grid_device(8, 10),
    "grid10x10": lambda: grid_device(10, 10),
    "heavyhex119": lambda: heavy_hex_device(7, 14),
}

#: The large-device cases, in the row form of :data:`repro.perf.CORPUS`:
#: small programs routed by the two routers with a native path.
LARGE_CORPUS = [
    (f"{dev}/{nq}q{ng}g_s{seed}/{router}", dev, (nq, ng, seed), router, {})
    for dev, nq, ng, seed in (
        ("grid8x10", 12, 40, 21),
        ("grid10x10", 12, 40, 9),
        ("heavyhex119", 12, 30, 17),
    )
    for router in ("astar", "sabre")
]

#: key: a case key of ``repro.perf.CORPUS`` or :data:`LARGE_CORPUS`.
#: value: {"swaps": int, "fingerprint": str}
SEED_BASELINE: dict[str, dict] = {
    "ibm_qx5/12q30g_s11/naive": {"swaps": 57, "fingerprint": "a9c25830b6c5f7f4"},
    "ibm_qx5/12q30g_s11/sabre": {"swaps": 30, "fingerprint": "beeb7bcba824674e"},
    "ibm_qx5/12q30g_s11/astar": {"swaps": 41, "fingerprint": "4d06a8782b45ac8e"},
    "ibm_qx5/12q30g_s11/latency": {"swaps": 44, "fingerprint": "968e8c082c8436d2"},
    "ibm_qx5/12q30g_s11/reliability": {"swaps": 34, "fingerprint": "b2090eb720a3d622"},
    "ibm_qx5/12q120g_s120/naive": {"swaps": 154, "fingerprint": "fa68ac83f9fcc5dc"},
    "ibm_qx5/12q120g_s120/sabre": {"swaps": 80, "fingerprint": "b83f83c9d0e5ba76"},
    "ibm_qx5/12q120g_s120/astar": {"swaps": 117, "fingerprint": "f5d7352cb1cc5461"},
    "ibm_qx5/12q120g_s120/latency": {"swaps": 133, "fingerprint": "264f37e9981c75e5"},
    "ibm_qx5/12q120g_s120/reliability": {"swaps": 74, "fingerprint": "ec64051a12cc0919"},
    "ibm_qx5/16q80g_s5/naive": {"swaps": 114, "fingerprint": "9b1f34779857c413"},
    "ibm_qx5/16q80g_s5/sabre": {"swaps": 75, "fingerprint": "1ca665a610eac7ad"},
    "ibm_qx5/16q80g_s5/astar": {"swaps": 59, "fingerprint": "3413f4022226b35e"},
    "ibm_qx5/16q80g_s5/latency": {"swaps": 123, "fingerprint": "fd28c875233688b0"},
    "ibm_qx5/16q80g_s5/reliability": {"swaps": 79, "fingerprint": "52b642b0844d6a75"},
    "grid44/16q100g_s7/naive": {"swaps": 88, "fingerprint": "ef6828c29611cb98"},
    "grid44/16q100g_s7/sabre": {"swaps": 47, "fingerprint": "0a5b4c749d2d9c12"},
    "grid44/16q100g_s7/astar": {"swaps": 59, "fingerprint": "43caeade0280f5de"},
    "grid44/16q100g_s7/latency": {"swaps": 100, "fingerprint": "7d5b35d06dea8ae9"},
    "grid44/16q100g_s7/reliability": {"swaps": 48, "fingerprint": "10cb8f518eab4007"},
    "grid44/10q60g_s3/naive": {"swaps": 39, "fingerprint": "4837e0986c8cf92a"},
    "grid44/10q60g_s3/sabre": {"swaps": 29, "fingerprint": "f3430b30c7d2cee3"},
    "grid44/10q60g_s3/astar": {"swaps": 30, "fingerprint": "638ddb46f238abdf"},
    "grid44/10q60g_s3/latency": {"swaps": 49, "fingerprint": "ff562327f627c9a3"},
    "grid44/10q60g_s3/reliability": {"swaps": 32, "fingerprint": "c1b39f5e5f06a5d9"},
    "linear9/9q50g_s2/naive": {"swaps": 78, "fingerprint": "c9dce24c2740d5bd"},
    "linear9/9q50g_s2/sabre": {"swaps": 51, "fingerprint": "8663fb79581d0e4b"},
    "linear9/9q50g_s2/astar": {"swaps": 64, "fingerprint": "adb170528ae46637"},
    "linear9/9q50g_s2/latency": {"swaps": 62, "fingerprint": "a2d60fb63224de8d"},
    "linear9/9q50g_s2/reliability": {"swaps": 55, "fingerprint": "1a8d22eb71abd6a0"},
    "surface17/12q70g_s13/naive": {"swaps": 71, "fingerprint": "a2ac29f2cfe95175"},
    "surface17/12q70g_s13/sabre": {"swaps": 39, "fingerprint": "e3892054b76f043e"},
    "surface17/12q70g_s13/astar": {"swaps": 46, "fingerprint": "4310a12ef9f24af1"},
    "surface17/12q70g_s13/latency": {"swaps": 72, "fingerprint": "6ff4a745bfb4b13f"},
    "surface17/12q70g_s13/reliability": {"swaps": 38, "fingerprint": "c64db0d6fc6c971c"},
    # Router-option variants, all on random_circuit(12, 60, seed=42,
    # two_qubit_fraction=0.6) mapped to ibm_qx5.
    "variants/sabre_commutation": {"swaps": 47, "fingerprint": "7c1abe8312439ebb"},
    "variants/sabre_lookahead0": {"swaps": 64, "fingerprint": "ad49b72930a7ece8"},
    "variants/sabre_nodecay": {"swaps": 47, "fingerprint": "483e224b8211de3a"},
    "variants/astar_lookahead2": {"swaps": 56, "fingerprint": "5fdb7bf2ea7e27f1"},
    "variants/latency_commutation": {"swaps": 55, "fingerprint": "c42f4f59946446e3"},
    # Large-device corpus (80-119 physical qubits), captured from the
    # pure-Python reference kernels after the multi-word bitset rework.
    "grid8x10/12q40g_s21/astar": {"swaps": 34, "fingerprint": "3e445d96c77e45aa"},
    "grid8x10/12q40g_s21/sabre": {"swaps": 34, "fingerprint": "ab3483b46fa87b51"},
    "grid10x10/12q40g_s9/astar": {"swaps": 52, "fingerprint": "361daf4d093a3743"},
    "grid10x10/12q40g_s9/sabre": {"swaps": 56, "fingerprint": "a67cf2517c86106d"},
    "heavyhex119/12q30g_s17/astar": {"swaps": 32, "fingerprint": "d0e7a722b3052597"},
    "heavyhex119/12q30g_s17/sabre": {"swaps": 29, "fingerprint": "35dc5a05622f9ef1"},
}
