"""On-demand compilation and invocation of the native A* routing kernel.

Compiles ``_astar_kernel.c`` with the system C compiler the first time
a router needs it, caching the shared object under the user's temp
directory keyed by a hash of the source.  Everything is best-effort: no
compiler, a failed build, or any marshalling surprise simply returns
``None`` and the caller falls back to the pure-Python kernel, which is
the reference implementation.  The native kernel replicates the Python
code operation for operation (see the header comment of the C file), so
the two produce identical SWAP sequences.

One entry point is exposed, :func:`solve_layers_batch_native`: every
layer of a circuit in a single FFI crossing, with the per-layer
preprocessing and the placement evolution run natively.  It honours a
cooperative :class:`~repro.resilience.deadline.Deadline`: the kernel
gets the time left and returns ``-4`` once it is used up, which surfaces
as :class:`~repro.resilience.deadline.DeadlineExceeded`.  The other
return codes are ``-1`` (search exhausted) and ``-2`` (expansion budget
exceeded), both :class:`RoutingError`, and ``-3`` (capacity or
allocation failure), which falls back to the Python kernel.

Set the environment variable ``REPRO_NO_NATIVE=1`` to disable the
native path (useful to benchmark or debug the Python kernel).
"""

from __future__ import annotations

import ctypes
import hashlib
import math
import os
import shutil
import subprocess
import tempfile

from ...resilience.deadline import Deadline
from .base import RoutingError

__all__ = [
    "kernel_stats",
    "note_python_layer",
    "solve_layers_batch_native",
    "warm_kernel",
]

_SOURCE = os.path.join(os.path.dirname(__file__), "_astar_kernel.c")

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
        tag = hashlib.sha256(fh.read()).hexdigest()[:16]
    cache_dir = os.path.join(
        tempfile.gettempdir(), f"repro-native-{os.getuid()}"
    )
    so_path = os.path.join(cache_dir, f"astar_{tag}.so")
    if not os.path.exists(so_path):
        try:
            os.makedirs(cache_dir, exist_ok=True)
            tmp_path = f"{so_path}.{os.getpid()}.tmp"
            subprocess.run(
                [compiler, "-O2", "-shared", "-fPIC", "-o", tmp_path, _SOURCE],
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
    vs. by the Python reference loop, and whole-circuit batch calls.
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
    }


def note_python_layer() -> None:
    """Record one A* layer solved by the Python reference loop."""
    global _python_layers
    _python_layers += 1


_MAX_SEQUENCE = 4096

_i32 = ctypes.c_int32


def solve_layers_batch_native(
    n: int,
    nbits: int,
    edges,
    dflat,
    layer_pairs,
    layer_futures,
    p2h,
    max_expansions: int,
    deadline: Deadline | None = None,
):
    """Route every layer of one circuit in a single native crossing.

    Args:
        n, nbits: Device size and bits per packed slot.
        edges: The device's sorted undirected edge list.
        dflat: Flat integer distance matrix (``n * n`` entries).
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
    if not all(type(d) is int for d in dflat):
        return None

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
    c_fut_w = (ctypes.c_double * max(len(fut_w), 1))(*fut_w)
    c_fut_start = (_i32 * (n_layers + 1))(*fut_start)
    c_edge_pa = (_i32 * max(len(edges), 1))(*[e[0] for e in edges])
    c_edge_pb = (_i32 * max(len(edges), 1))(*[e[1] for e in edges])
    c_dflat = (_i32 * len(dflat))(*dflat)
    # The kernel evolves the permutation in place; hand it a copy so a
    # fallback (or failure) leaves the caller's placement untouched.
    c_p2h = (_i32 * n)(*p2h)
    max_out = _MAX_SEQUENCE + 16 * n_layers
    out_pa = (_i32 * max_out)()
    out_pb = (_i32 * max_out)()
    out_start = (_i32 * (n_layers + 1))()

    rc = lib.solve_layers_batch(
        n, nbits,
        c_edge_pa, c_edge_pb, len(edges),
        c_dflat,
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
