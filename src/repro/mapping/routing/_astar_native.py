"""On-demand compilation and invocation of the native routing kernels.

Compiles ``_astar_kernel.c`` with the system C compiler the first time
a router needs it, caching the shared object under the user's temp
directory keyed by a hash of the source and the compiler flags.
Everything is best-effort: no compiler, a failed build, or an input the
kernel declines simply returns ``None`` and the caller runs its
pure-Python loop, which is the reference implementation.  The kernels
replicate the Python code operation for operation (see the header
comment of the C file), so both paths produce identical routes.

Two entry points are exposed, one native crossing per routed circuit:

* :func:`solve_layers_batch_native` routes every A* layer of a circuit.
  Its return codes are ``-1`` (search exhausted) and ``-2`` (expansion
  budget exceeded), both :class:`RoutingError`, and ``-3`` (capacity or
  allocation failure), which falls back to the Python kernel.
* :func:`route_family_native` runs the SABRE-family loop of
  :mod:`repro.mapping.routing.family` (sabre, latency and reliability)
  and returns the emission order.  ``-3`` (allocation failure) and
  ``-5`` (the stall valve fired, or no candidate SWAP exists) run the
  Python loop from scratch, which gives the same route or the same
  :class:`RoutingError`; ``-6`` (event buffer full) grows the buffer
  4x and calls again.  Shuttle, the family's fourth policy, has no
  mirror.

Both honour a cooperative
:class:`~repro.resilience.deadline.Deadline`: the kernel gets the time
left and returns ``-4`` once it is used up, which surfaces as
:class:`~repro.resilience.deadline.DeadlineExceeded`, never as a rerun
in Python.  The tables they read (edge arrays, the hop matrix as int32
and as doubles) are built once per :class:`~repro.devices.device.Device`
and held in its ``routing_tables``, as ``array.array`` objects, so a
device still pickles.

Set the environment variable ``REPRO_NO_NATIVE=1`` to disable both
native paths (useful to benchmark or debug the Python loops).
"""

from __future__ import annotations

import ctypes
import hashlib
import math
import os
import shutil
import subprocess
import tempfile
from array import array
from itertools import accumulate, chain

from ...obs import add_counter
from ...resilience.deadline import Deadline
from .base import RoutingError

__all__ = [
    "Distances",
    "hop_distances",
    "kernel_stats",
    "note_family_python_call",
    "note_python_layer",
    "route_family_native",
    "solve_layers_batch_native",
    "warm_kernel",
]

_SOURCE = os.path.join(os.path.dirname(__file__), "_astar_kernel.c")

#: Compiler flags; part of the cache tag, so a change rebuilds.
#: ``-ffp-contract=off``: no fused multiply-add, whose single rounding
#: would differ from Python's two (GCC fuses by default on aarch64).
_CFLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")

#: Tri-state: unset (None), unavailable (False), or the loaded library.
_lib = None
_lib_resolved = False

#: How many times this process ran the expensive build/load path (the
#: compile-or-dlopen in :func:`_build_library`, past the opt-out check).
#: Warm-pool workers report this so tests can assert the kernel is
#: built at most once per worker lifetime, never once per job.
_build_calls = 0

#: Per-process kernel usage counters (see :func:`kernel_stats`): layers
#: solved natively vs. by the Python reference loop, and batch
#: crossings.  Tests take deltas of these to assert the native path is
#: genuinely exercised, not just available.
_native_layers = 0
_python_layers = 0
_batch_calls = 0
#: ``route_family`` calls routed by the family kernel vs by the Python
#: loop; every call counts once, in exactly one of them.
_family_native_calls = 0
_family_python_calls = 0


def _build_library():
    """Compile and load the kernel; return a CDLL or None."""
    global _build_calls
    _build_calls += 1
    compiler = (
        os.environ.get("CC")
        or shutil.which("cc")
        or shutil.which("gcc")
        or shutil.which("clang")
    )
    if compiler is None or not os.path.exists(_SOURCE):
        return None
    with open(_SOURCE, "rb") as fh:
        digest = hashlib.sha256(fh.read())
    digest.update(" ".join(_CFLAGS).encode())
    tag = digest.hexdigest()[:16]
    cache_dir = os.path.join(
        tempfile.gettempdir(), f"repro-native-{os.getuid()}"
    )
    so_path = os.path.join(cache_dir, f"astar_{tag}.so")
    if not os.path.exists(so_path):
        try:
            os.makedirs(cache_dir, exist_ok=True)
            tmp_path = f"{so_path}.{os.getpid()}.tmp"
            subprocess.run(
                [compiler, *_CFLAGS, "-o", tmp_path, _SOURCE],
                check=True,
                capture_output=True,
                timeout=120,
            )
            os.replace(tmp_path, so_path)
        except (OSError, subprocess.SubprocessError):
            return None
    try:
        lib = ctypes.CDLL(so_path)
    except OSError:
        return None
    i32 = ctypes.c_int32
    p32 = ctypes.POINTER(i32)
    pdbl = ctypes.POINTER(ctypes.c_double)
    lib.solve_layers_batch.restype = ctypes.c_int64
    lib.solve_layers_batch.argtypes = [
        i32, i32,               # n, nbits
        p32, p32, i32,          # edges
        p32,                    # dflat
        i32,                    # n_layers
        p32, p32, p32,          # pair_a, pair_b, pair_start
        p32, p32, pdbl, p32,    # fut_a, fut_b, fut_w, fut_start
        p32,                    # p2h (updated in place)
        ctypes.c_int64,         # max_expansions
        ctypes.c_double,        # budget_s (inf: no deadline)
        p32, p32, p32, i32,     # out_pa, out_pb, out_start, max_out
    ]
    i64 = ctypes.c_int64
    p64 = ctypes.POINTER(i64)
    lib.route_family_batch.restype = i64
    lib.route_family_batch.argtypes = [
        i32,                    # n
        p32, p32, i32,          # edges
        pdbl,                   # dist (n * n doubles)
        i32,                    # n_gates
        p32, p32,               # pair_a, pair_b
        p32, p32, p32,          # succ_start, succ_idx, pred_count
        p32, p32, p64,          # op_a, op_b, dur (latency)
        p32,                    # p2h (updated in place)
        i32, i32, ctypes.c_double, i64,          # policy, lookahead, weight, max_stall
        i32, ctypes.c_double, i64,               # use_decay, latency_weight, swap_dur
        pdbl, p64,              # swap_err (reliability), avail (latency)
        ctypes.c_double,        # budget_s (inf: no deadline)
        p32, i64, p64,          # events, max_events, counts
    ]
    return lib


def _get_lib():
    # The opt-out is read on every call, not only at the first build: a
    # worker forked from a process that had loaded the kernel inherits
    # the loaded library.
    global _lib, _lib_resolved
    if _disabled():
        return None
    if not _lib_resolved:
        _lib = _build_library()
        _lib_resolved = True
    return _lib


def _disabled() -> bool:
    return bool(os.environ.get("REPRO_NO_NATIVE"))


def warm_kernel() -> bool:
    """Resolve (compile/load) the kernel now; True when it is usable.

    Warm-pool workers call this once from their initializer so the
    build cost is paid at worker start, never on a job's critical path.
    Honours ``REPRO_NO_NATIVE`` like every other entry point.
    """
    return _get_lib() is not None


def kernel_stats() -> dict:
    """Build/load and usage bookkeeping of this process.

    ``build_calls`` counts trips through the expensive build-or-dlopen
    path; ``resolved`` says the tri-state was settled (either way);
    ``available`` says the native kernel is loaded and not disabled.  The
    remaining keys count actual kernel usage: A* layers solved natively
    vs. by the Python reference loop, whole-circuit A* batch calls, and
    SABRE-family calls routed by the kernel vs by the Python loop.
    Pool workers ship these to the parent so services can report how
    much routing work ran on the native path.
    """
    return {
        "resolved": _lib_resolved,
        "available": _lib is not None and not _disabled(),
        "build_calls": _build_calls,
        "native_layers": _native_layers,
        "python_layers": _python_layers,
        "batch_calls": _batch_calls,
        "family_native_calls": _family_native_calls,
        "family_python_calls": _family_python_calls,
    }


def note_python_layer() -> None:
    """Record one A* layer solved by the Python reference loop."""
    global _python_layers
    _python_layers += 1


def note_family_python_call() -> None:
    """Record one ``route_family`` call routed by the Python loop."""
    global _family_python_calls
    _family_python_calls += 1
    add_counter("family.python_calls", 1)


# ----------------------------------------------------------------------
# Per-device tables
# ----------------------------------------------------------------------

_i32 = ctypes.c_int32
_i64 = ctypes.c_int64
_f64 = ctypes.c_double


def _view(ctype, values: array):
    """A ctypes array over ``values``' buffer (no copy)."""
    return (ctype * len(values)).from_buffer(values)


def _edge_tables(device) -> tuple[array, array]:
    """The device's sorted undirected edges as two int32 arrays."""
    tables = device.routing_tables
    edges = tables.get("edges")
    if edges is None:
        pairs = device.undirected_edge_list
        edges = tables["edges"] = (
            array("i", [a for a, _ in pairs]), array("i", [b for _, b in pairs])
        )
    return edges


def _hops32(device) -> array | None:
    """The hop matrix as ``n * n`` int32 (A*), or ``None`` when an entry
    is not an ``int`` in range."""
    tables = device.routing_tables
    if "hops32" not in tables:
        flat = device.distance_flat
        table = None
        if all(type(d) is int for d in flat):
            try:
                table = array("i", flat)
            except OverflowError:
                pass
        tables["hops32"] = table
    return tables["hops32"]


#: Entries of a distance matrix the family kernel accepts: each one an
#: ``int`` within this bound or a ``float``.  Below ``2**31`` an ``int``
#: is exact as a double, and so is every partial sum of fewer than
#: ``2**21`` of them (:data:`_MAX_GATES`), so the kernel's sums and
#: divisions equal Python's integer sums followed by true division.
_INT_BOUND = 2**31
_MAX_GATES = 2**21


class Distances:
    """A distance matrix of the family loop and its kernel form.

    ``matrix`` (rows of numbers) is what the Python loop reads.
    :meth:`doubles` is the same matrix as ``n * n`` doubles for the
    family kernel, built on first use, or ``None`` when the kernel must
    decline it: anything but ``n`` lists or tuples of ``n`` entries, or
    an entry that is not exactly an ``int`` (``bool`` included) within
    ``2**31`` or a ``float``.  Tables held on a device (its hop counts, reliability's
    weighted matrices) convert once.
    """

    __slots__ = ("matrix", "_doubles")

    def __init__(self, matrix) -> None:
        self.matrix = matrix
        self._doubles = False  # not built yet

    def doubles(self, n: int) -> array | None:
        if self._doubles is False:
            self._doubles = _doubles(self.matrix, n)
        return self._doubles


def _doubles(matrix, n: int) -> array | None:
    sequences = (list, tuple)
    if type(matrix) not in sequences or len(matrix) != n:
        return None
    if any(type(row) not in sequences or len(row) != n for row in matrix):
        return None
    # Whole-list builtins rather than a loop per entry: a service job
    # builds these tables for a fresh device (14,161 entries on 119
    # qubits).  When min and max lie within the bound, so does every
    # int; they skip a NaN unless it comes first, and then the bound
    # test fails and each int is checked.
    flat = list(chain.from_iterable(matrix))
    types = set(map(type, flat))
    if not types <= {int, float}:
        return None
    bound = _INT_BOUND
    if int in types and not -bound <= min(flat) <= max(flat) <= bound:
        if any(type(d) is int and not -bound <= d <= bound for d in flat):
            return None
    return array("d", flat)


def hop_distances(device) -> Distances:
    """The device's hop-count matrix, held on the device."""
    tables = device.routing_tables
    hops = tables.get("hops")
    if hops is None:
        hops = tables["hops"] = Distances(device.distance_matrix)
    return hops


# ----------------------------------------------------------------------
# A* layer search
# ----------------------------------------------------------------------

_MAX_SEQUENCE = 4096


def solve_layers_batch_native(
    device,
    layer_pairs,
    layer_futures,
    p2h,
    max_expansions: int,
    deadline: Deadline | None = None,
):
    """Route every layer of one circuit in a single native crossing.

    Args:
        device: Target device; its edge arrays and int32 hop table are
            built on first use and held in ``device.routing_tables``.
        layer_pairs: Per layer, the ``(prog_a, prog_b)`` operand pairs.
        layer_futures: Per layer, the ``((prog_a, prog_b), weight)``
            look-ahead entries.
        p2h: Full program->physical permutation of the *starting*
            placement (length ``n``, dummies included); not mutated.
        max_expansions: Per-layer A* expansion budget.
        deadline: Cooperative deadline; the kernel gets the time left
            and polls it before each layer and every 256 expansions.

    Returns:
        A per-layer list of SWAP sequences, or ``None`` when the native
        path is unavailable (caller runs the Python kernel instead).
        Raises :class:`RoutingError` on genuine search failures, exactly
        like the Python kernel would on the offending layer, and
        :class:`~repro.resilience.deadline.DeadlineExceeded` when the
        deadline passes mid-search (never retried in Python).
    """
    global _native_layers, _batch_calls
    lib = _get_lib()
    if lib is None:
        return None
    hops = _hops32(device)
    if hops is None:
        return None
    n = device.num_qubits
    edge_a, edge_b = _edge_tables(device)

    n_layers = len(layer_pairs)
    pair_a: list[int] = []
    pair_b: list[int] = []
    pair_start = [0]
    fut_a: list[int] = []
    fut_b: list[int] = []
    fut_w: list[float] = []
    fut_start = [0]
    for pairs, futures in zip(layer_pairs, layer_futures):
        for a, b in pairs:
            pair_a.append(a)
            pair_b.append(b)
        pair_start.append(len(pair_a))
        for (a, b), w in futures:
            fut_a.append(a)
            fut_b.append(b)
            fut_w.append(w)
        fut_start.append(len(fut_a))

    c_pair_a = (_i32 * max(len(pair_a), 1))(*pair_a)
    c_pair_b = (_i32 * max(len(pair_b), 1))(*pair_b)
    c_pair_start = (_i32 * (n_layers + 1))(*pair_start)
    c_fut_a = (_i32 * max(len(fut_a), 1))(*fut_a)
    c_fut_b = (_i32 * max(len(fut_b), 1))(*fut_b)
    c_fut_w = (_f64 * max(len(fut_w), 1))(*fut_w)
    c_fut_start = (_i32 * (n_layers + 1))(*fut_start)
    # The kernel evolves the permutation in place; hand it a copy so a
    # fallback (or failure) leaves the caller's placement untouched.
    c_p2h = (_i32 * n)(*p2h)
    max_out = _MAX_SEQUENCE + 16 * n_layers
    out_pa = (_i32 * max_out)()
    out_pb = (_i32 * max_out)()
    out_start = (_i32 * (n_layers + 1))()

    rc = lib.solve_layers_batch(
        n, max(1, (n - 1).bit_length()),
        _view(_i32, edge_a), _view(_i32, edge_b), len(edge_a),
        _view(_i32, hops),
        n_layers,
        c_pair_a, c_pair_b, c_pair_start,
        c_fut_a, c_fut_b, c_fut_w, c_fut_start,
        c_p2h,
        max_expansions,
        math.inf if deadline is None else deadline.remaining(),
        out_pa, out_pb, out_start, max_out,
    )
    if rc == -4:
        raise deadline.exceeded("astar routing")
    if rc == -3:
        return None  # capacity issue: fall back to the Python kernel
    if rc == -2:
        raise RoutingError(
            f"A* expanded more than {max_expansions} placements on one "
            "layer; instance too large for layer-exact search"
        )
    if rc == -1:
        raise RoutingError("A* search exhausted without satisfying the layer")
    _batch_calls += 1
    _native_layers += n_layers
    return [
        [(out_pa[i], out_pb[i]) for i in range(out_start[l], out_start[l + 1])]
        for l in range(n_layers)
    ]


# ----------------------------------------------------------------------
# SABRE-family loop
# ----------------------------------------------------------------------

#: Policy codes of ``route_family_batch``, by router name.
_POLICIES = {"sabre": 0, "latency": 1, "reliability": 2}


def _exact_weight(weight) -> bool:
    """A weight the kernel multiplies exactly as Python does: a ``float``,
    or an ``int`` whose products with exact sums stay exact."""
    return type(weight) is float or (type(weight) is int and -1 <= weight <= 1)


def route_family_native(
    device,
    gates,
    pairs,
    successors,
    waiting,
    p2h,
    dist: Distances,
    *,
    router: str,
    lookahead,
    extended_weight,
    max_stall: int,
    deadline: Deadline | None = None,
    use_decay: bool = False,
    latency_weight=0.0,
    swap_duration: int = 0,
    avail=None,
    swap_error: array | None = None,
):
    """Run the SABRE-family loop of one circuit in a single native crossing.

    Args:
        device: Target device (edge tables held on it).
        gates, pairs, successors, waiting: The loop's inputs: the gates,
            each gate's program pair (``None``: no coupled pair needed),
            the dependency graph's successor lists and predecessor
            counts.
        p2h: Program->physical array of the initial placement; not
            mutated.
        dist: The score's distances.
        router: ``"sabre"``, ``"latency"`` or ``"reliability"``.
        lookahead, extended_weight, max_stall: As in the Python loop.
        deadline: Cooperative deadline, polled once per decision.
        use_decay: Sabre's decay.
        latency_weight, swap_duration, avail: The latency policy's
            weight, SWAP duration and ASAP schedule (``None`` for the
            other policies); ``avail`` is updated in place when the
            kernel routes the circuit.
        swap_error: Reliability's per-edge SWAP error.

    Returns:
        ``(events, candidates scored, decisions)``, with ``events`` the
        emission order: a gate index, or ``-1 - (pa * n + pb)`` for the
        SWAP of physical ``(pa, pb)``.  ``None`` when the Python loop
        must route the circuit: no kernel, an input the kernel declines
        (a gate on more than two qubits, inexact numbers), or a run that
        reached the stall valve or found no candidate SWAP.  Raises
        :class:`~repro.resilience.deadline.DeadlineExceeded` when the
        deadline passes.
    """
    global _family_native_calls
    lib = _get_lib()
    if lib is None:
        return None
    n = device.num_qubits
    n_gates = len(gates)
    if (
        n_gates >= _MAX_GATES
        or len(p2h) != n
        or n * n >= 2**31
        or type(lookahead) is not int
        or not _exact_weight(extended_weight)
        or not _exact_weight(latency_weight)
        or any(len(g.qubits) > 2 for g in gates)
    ):
        return None
    table = dist.doubles(n)
    if table is None:
        return None
    edge_a, edge_b = _edge_tables(device)
    # The kernel reads the policy's tables without bounds checks.
    if router == "latency" and (avail is None or len(avail) != n):
        raise ValueError("the latency policy needs one avail entry per qubit")
    if router == "reliability" and (
        swap_error is None or len(swap_error) != len(edge_a)
    ):
        raise ValueError("the reliability policy needs one SWAP error per edge")

    pair_a = array("i", [p[0] if p else -1 for p in pairs])
    pair_b = array("i", [p[1] if p else -1 for p in pairs])
    if max(pair_a, default=-1) >= n or max(pair_b, default=-1) >= n:
        return None  # a qubit beyond the placement: the Python loop raises
    succ_lists = list(map(successors, range(n_gates)))
    succ_start = array("i", accumulate(map(len, succ_lists), initial=0))
    succ_idx = array("i", chain.from_iterable(succ_lists))
    pred_count = array("i", waiting)
    c_ops = (None, None, None)
    if avail is not None:
        # Each gate's operands and duration, looked up once per name.
        by_name = {
            name: 0 if name == "barrier" else device.duration(name)
            for name in {g.name for g in gates}
        }
        if any(abs(d) >= _INT_BOUND for d in by_name.values()) or (
            abs(swap_duration) >= _INT_BOUND
        ):
            return None
        op_a = array("i", [g.qubits[0] if g.qubits else -1 for g in gates])
        op_b = array("i", [g.qubits[1] if len(g.qubits) > 1 else -1 for g in gates])
        if max(op_a, default=-1) >= n or max(op_b, default=-1) >= n:
            return None
        dur = array("q", [by_name[g.name] for g in gates])
        c_ops = (_view(_i32, op_a), _view(_i32, op_b), _view(_i64, dur))
    c_swap_error = None if swap_error is None else _view(_f64, swap_error)
    counts = array("q", [0, 0])
    capacity = 4 * n_gates + 64
    while True:
        events = array("i", [0]) * capacity
        scratch_p2h = array("i", p2h)
        scratch_avail = array("q", avail if avail is not None else ())
        rc = lib.route_family_batch(
            n,
            _view(_i32, edge_a), _view(_i32, edge_b), len(edge_a),
            _view(_f64, table),
            n_gates,
            _view(_i32, pair_a), _view(_i32, pair_b),
            _view(_i32, succ_start), _view(_i32, succ_idx), _view(_i32, pred_count),
            *c_ops,
            _view(_i32, scratch_p2h),
            _POLICIES[router], max(min(lookahead, n_gates), 0),
            extended_weight, max_stall,
            use_decay, latency_weight, swap_duration,
            c_swap_error, _view(_i64, scratch_avail) if avail is not None else None,
            math.inf if deadline is None else deadline.remaining(),
            _view(_i32, events), capacity, _view(_i64, counts),
        )
        if rc != -6:
            break
        capacity *= 4
    if rc == -4:
        _family_native_calls += 1
        add_counter("family.native_calls", 1)
        raise deadline.exceeded(f"{router} routing")
    if rc < 0:
        return None
    _family_native_calls += 1
    add_counter("family.native_calls", 1)
    if avail is not None:
        avail[:] = scratch_avail
    return events[:rc], counts[0], counts[1]
