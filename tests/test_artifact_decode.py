"""Artefact schema 2: two decode paths, one answer.

Schema 2 stores the schedule as positions into the native circuit, and
:func:`artifact_to_result` decodes either by parsing the artefact or,
given the compile's :func:`result_gates`, by building fresh containers
around them.  Both must return what the schema-1 layout they replace
returned: ``_schema1_artifact`` and ``_schema1_result`` below are
test-local copies of that encoder and decoder (schedule items stored as
gate dicts).  Results are compared by a full fingerprint: the three
circuits' QASM, gate ``repr``s and names, the schedule, both
placements, the device, the scalars and the metadata.

Also here: the schema-2 validation rules, and the cache keys of text
that :func:`canonical_qasm` has already canonicalised.
"""

from __future__ import annotations

import math
import pickle

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.service.engine as engine
import repro.service.keys as keys
from repro import __version__
from repro.core import Circuit
from repro.core.gates import GATE_SPECS, Gate
from repro.core.pipeline import (
    CompilationResult,
    PassConfig,
    compile_with_config,
)
from repro.core.snapshot import (
    placement_from_obj,
    placement_to_obj,
    schedule_from_obj,
    schedule_to_obj,
)
from repro.devices import get_device
from repro.devices.device import Device
from repro.mapping.routing import RoutingResult
from repro.mapping.scheduler import Schedule, ScheduledGate
from repro.perf import corpus_jobs
from repro.qasm import parse_qasm, to_openqasm
from repro.service import (
    CompileCache,
    CompileJob,
    CompileService,
    artifact_to_result,
    canonical_qasm,
    compute_key,
    result_to_artifact,
)
from repro.service.artifact import result_gates, validate_artifact
from repro.service.keys import CanonicalQasm, canonical_json
from repro.workloads import random_circuit

_SETTINGS = dict(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# -- the schema-1 layout, as the parent encoded and decoded it ----------

def _schema1_artifact(result: CompilationResult) -> dict:
    artifact = {
        "schema": 1,
        "version": __version__,
        "original_qasm": to_openqasm(result.original),
        "routed_qasm": to_openqasm(result.routed.circuit),
        "native_qasm": to_openqasm(result.native),
        "schedule": (
            schedule_to_obj(result.schedule)
            if result.schedule is not None else None
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
    }
    if result.original.name:
        artifact["circuit_name"] = result.original.name
    resilience = result.metadata.get("resilience")
    if resilience:
        artifact["resilience"] = resilience
    return artifact


def _schema1_result(artifact: dict) -> CompilationResult:
    original = parse_qasm(artifact["original_qasm"])
    if "circuit_name" in artifact:
        original.name = artifact["circuit_name"]
    routing = artifact["routing"]
    metadata: dict = {"from_artifact": True}
    if artifact.get("resilience"):
        metadata["resilience"] = dict(artifact["resilience"])
    return CompilationResult(
        original=original,
        device=Device.from_dict(artifact["device"]),
        routed=RoutingResult(
            circuit=parse_qasm(artifact["routed_qasm"]),
            initial=placement_from_obj(routing["initial"]),
            final=placement_from_obj(routing["final"]),
            added_swaps=routing["added_swaps"],
            router=routing["router"],
        ),
        native=parse_qasm(artifact["native_qasm"]),
        schedule=(
            schedule_from_obj(artifact["schedule"])
            if artifact.get("schedule") is not None else None
        ),
        flips=artifact["flips"],
        placer=artifact["placer"],
        router=artifact["router"],
        metadata=metadata,
    )


def fingerprint(result: CompilationResult) -> str:
    """Everything a decoded result holds, as canonical JSON."""

    def circuit(c: Circuit) -> list:
        return [to_openqasm(c), c.name, c.num_qubits,
                [repr(g) for g in c.gates]]

    schedule = result.schedule
    return canonical_json({
        "original": circuit(result.original),
        "routed": circuit(result.routed.circuit),
        "native": circuit(result.native),
        "schedule": None if schedule is None else [
            schedule_to_obj(schedule), schedule.latency, schedule.metadata,
            [repr(item) for item in schedule.items],
        ],
        "initial": placement_to_obj(result.routed.initial),
        "final": placement_to_obj(result.routed.final),
        "routing": [result.routed.added_swaps, result.routed.router,
                    result.routed.metadata],
        "device": result.device.to_dict(),
        "scalars": [result.flips, result.placer, result.router,
                    result.latency, result.latency_ns],
        "metadata": result.metadata,
    })


def compile_job(job: CompileJob) -> CompilationResult:
    """What an inline service compile does with a job's text."""
    return compile_with_config(
        parse_qasm(job.qasm), Device.from_dict(job.device), job.config
    )


def assert_one_answer(result: CompilationResult) -> dict:
    """Decode ``result``'s artefact three ways; all must agree."""
    artifact = result_to_artifact(result)
    assert validate_artifact(artifact) is None
    by_parse = fingerprint(artifact_to_result(artifact))
    by_gates = fingerprint(artifact_to_result(artifact, result_gates(result)))
    legacy = fingerprint(_schema1_result(_schema1_artifact(result)))
    assert by_parse == legacy
    assert by_gates == legacy
    return artifact


# -- inputs --------------------------------------------------------------

_PARAMS = st.sampled_from(
    [0.0, -0.0, 1e-300, 0.5, -1.25, math.pi, -2 * math.pi, 1e300]
)
_ROUTERS = ("naive", "sabre", "astar", "latency", "reliability", "teleport")


@st.composite
def circuits(draw, widest_barrier: int | None = None) -> Circuit:
    """Random circuits with conditioned gates, measurements, resets,
    barriers and repeated equal gates.  Barriers span up to
    ``widest_barrier`` qubits (the routers take two), or any number,
    none included, which the writer emits as ``barrier q;``."""
    num_qubits = draw(st.integers(1, 5))
    names = sorted(
        name for name, spec in GATE_SPECS.items()
        if name in ("measure", "prep_z", "barrier")
        or (spec.matrix is not None and spec.num_qubits <= 2)
    )
    gates = []
    for _ in range(draw(st.integers(0, 14))):
        name = draw(st.sampled_from(names))
        spec = GATE_SPECS[name]
        if name == "barrier":
            if widest_barrier is None:
                arity = draw(st.integers(0, num_qubits))
            else:
                arity = draw(st.integers(1, min(widest_barrier, num_qubits)))
        elif spec.num_qubits <= num_qubits:
            arity = spec.num_qubits
        else:
            continue
        qubits = tuple(draw(st.permutations(range(num_qubits)))[:arity])
        params = tuple(draw(_PARAMS) for _ in range(spec.num_params))
        condition = None
        if spec.matrix is not None and draw(st.integers(0, 3)) == 0:
            condition = (
                draw(st.integers(0, num_qubits - 1)), draw(st.integers(0, 1))
            )
        gates.append(Gate(name, qubits, params, condition))
        for _ in range(draw(st.integers(0, 2))):
            gates.append(gates[-1])  # equal gates, often one object
    return Circuit(num_qubits, gates, name=draw(st.sampled_from(["", "c"])))


def configs():
    return st.builds(
        PassConfig,
        router=st.sampled_from(_ROUTERS),
        schedule=st.sampled_from(["asap", "alap", "constraints"]),
        optimize=st.booleans(),
    )


# -- two decode paths, one answer ---------------------------------------

class TestOneAnswer:
    @pytest.mark.parametrize(
        "job", corpus_jobs(), ids=lambda job: job.job_id
    )
    def test_perf_corpus(self, job):
        assert_one_answer(compile_job(job))

    @given(
        circuit=circuits(widest_barrier=2),
        device=st.sampled_from(["ibm_qx4", "ibm_qx5", "surface17"]),
        config=configs(),
    )
    @settings(**_SETTINGS)
    def test_random_circuits(self, circuit, device, config):
        job = CompileJob.create(circuit, get_device(device), config)
        result = compile_job(job)
        result.original.name = circuit.name
        assert_one_answer(result)

    def test_service_paths_agree(self):
        # Inline compile (held gates), its memory hit (held gates), a
        # disk hit and a bare parse of the artefact: one fingerprint.
        jobs = corpus_jobs(limit=6)
        service = CompileService(CompileCache())
        cold = [service.submit(job) for job in jobs]
        hits = [service.submit(job) for job in jobs]
        for first, hit in zip(cold, hits):
            assert first.gates is not None and hit.cache_hit == "memory"
            expected = fingerprint(_schema1_result(_schema1_artifact(
                first.result()
            )))
            assert fingerprint(first.result()) == expected
            assert fingerprint(hit.result()) == expected
            assert fingerprint(artifact_to_result(hit.artifact)) == expected

    def test_equal_gates_encode_by_value(self):
        # A schedule holding equal but not identical gates (as after a
        # stage-cache hit) writes the bytes of one holding the native
        # circuit's own objects.
        job = corpus_jobs(limit=1)[0]
        result = compile_job(job)
        natives = result.native.gates
        assert len({id(g) for g in natives}) < len(natives)
        copied = CompilationResult(
            original=result.original,
            device=result.device,
            routed=result.routed,
            native=result.native,
            schedule=Schedule(
                [
                    ScheduledGate(
                        Gate(it.gate.name, it.gate.qubits, it.gate.params,
                             it.gate.condition),
                        it.start, it.duration,
                    )
                    for it in result.schedule.items
                ],
                result.schedule.num_qubits,
                result.schedule.cycle_time_ns,
            ),
            flips=result.flips,
            placer=result.placer,
            router=result.router,
        )
        assert canonical_json(result_to_artifact(copied)) == canonical_json(
            result_to_artifact(result)
        )

    def test_schedule_stage_hit_writes_fresh_bytes(self):
        # A schedule-stage hit decodes its gates from the stage entry, so
        # they equal the native circuit's without being its objects.
        text = to_openqasm(random_circuit(5, 12, seed=3,
                                          two_qubit_fraction=0.6))
        device = get_device("ibm_qx4")
        service = CompileService(CompileCache())
        for router in ("naive", "sabre", "astar", "latency"):
            config = PassConfig(router=router, schedule="alap")
            answer = service.submit(CompileJob.create(text, device, config))
            fresh = compile_with_config(parse_qasm(text), device, config)
            assert canonical_json(answer.artifact) == canonical_json(
                result_to_artifact(fresh, config=config)
            )
            assert fingerprint(answer.result()) == fingerprint(
                artifact_to_result(answer.artifact)
            )
        stages = service.cache.stats()["stages"]
        assert stages["schedule"].get("memory_hits", 0) >= 1

    def test_schedule_must_be_the_native_gates(self):
        result = compile_job(corpus_jobs(limit=1)[0])
        items = result.schedule.items
        for broken in (items[:-1], items + items[:1], [items[0]] * len(items)):
            result.schedule = Schedule(broken, result.schedule.num_qubits)
            with pytest.raises(ValueError):
                result_to_artifact(result)


# -- schema-2 validation --------------------------------------------------

#: Ways to damage a schedule's ``order`` of ``n`` positions.
_DAMAGE = {
    "repeated": lambda order, n: order.__setitem__(1, order[0]),
    "out of range": lambda order, n: order.__setitem__(0, n),
    "negative": lambda order, n: order.__setitem__(0, -1),
    "too short": lambda order, n: order.pop(),
    "too long": lambda order, n: order.append(0),
    "float": lambda order, n: order.__setitem__(0, float(order[0])),
    "string": lambda order, n: order.__setitem__(0, str(order[0])),
    "bool": lambda order, n: order.__setitem__(order.index(0), False),
}


@pytest.fixture(scope="module")
def artifact():
    result = compile_job(corpus_jobs(limit=1)[0])
    return result_to_artifact(result)


class TestValidation:
    @pytest.mark.parametrize("damage", list(_DAMAGE))
    def test_damaged_order_is_rejected(self, artifact, damage):
        bad = pickle.loads(pickle.dumps(artifact))
        order = bad["schedule"]["order"]
        _DAMAGE[damage](order, len(order))
        assert "schedule" in validate_artifact(bad)
        with pytest.raises(ValueError, match="schedule"):
            artifact_to_result(bad)

    @pytest.mark.parametrize("field", ["start", "duration"])
    def test_timings_must_match_the_order(self, artifact, field):
        bad = pickle.loads(pickle.dumps(artifact))
        bad["schedule"][field].pop()
        assert "schedule" in validate_artifact(bad)
        with pytest.raises(ValueError, match="schedule"):
            artifact_to_result(bad)
        bad["schedule"][field] = None
        assert "schedule" in validate_artifact(bad)

    def test_length_counts_barriers(self):
        result = compile_job(CompileJob.create(
            "OPENQASM 2.0;\nqreg q[3];\nh q[0];\nbarrier q[0],q[1];\n"
            "cx q[0],q[2];\nbarrier q[2];\n",
            get_device("ibm_qx4"),
        ))
        artifact = result_to_artifact(result)
        assert artifact["metrics"]["native_gates"] + 2 == len(
            artifact["schedule"]["order"]
        )
        assert validate_artifact(artifact) is None
        artifact["metrics"]["native_gates"] += 1
        assert "schedule" in validate_artifact(artifact)

    def test_worker_shipping_a_damaged_order_is_crashed(self, monkeypatch):
        # Pool workers fork from this process, so they inherit the
        # patched renderer; the service below starts its pool after it.
        render = engine.result_to_artifact

        def damaged(result, **kwargs):
            artifact = render(result, **kwargs)
            order = artifact["schedule"]["order"]
            order[1] = order[0]
            return artifact

        monkeypatch.setattr(engine, "result_to_artifact", damaged)
        jobs = corpus_jobs(limit=3)
        cache = CompileCache()
        with CompileService(cache, max_workers=2, retries=1) as service:
            pooled = service.submit_batch(jobs[:2])
            inline = service.submit(jobs[2])
        for res in pooled + [inline]:
            assert res.status == "crashed" and res.artifact is None
            assert "corrupt artifact" in res.error
            assert "permutation" in res.error
        assert cache.stats()["memory_entries"] == 0
        assert all(cache.lookup(job.key())[0] is None for job in jobs)


# -- canonical text is canonicalised once --------------------------------

class TestCanonicalText:
    @given(circuit=circuits())
    @settings(**_SETTINGS)
    def test_keys_agree(self, circuit):
        device = get_device("ibm_qx5")
        text = to_openqasm(circuit)
        keys = {
            compute_key(circuit, device),
            compute_key(text, device),
            CompileJob.create(circuit, device).key(),
            CompileJob.create(text, device).key(),
            CompileJob(qasm=text, device=device.to_dict()).key(),
        }
        assert len(keys) == 1

    @given(circuit=circuits())
    @settings(**_SETTINGS)
    def test_canonical_text_is_a_fixed_point(self, circuit):
        text = canonical_qasm(circuit)
        assert isinstance(text, CanonicalQasm)
        assert canonical_qasm(text) is text
        again = canonical_qasm(str(text))
        assert again == text and isinstance(again, CanonicalQasm)
        restored = pickle.loads(pickle.dumps(text))
        assert restored == text and isinstance(restored, CanonicalQasm)

    def test_create_stores_marked_text_and_key_skips_the_parse(
        self, monkeypatch
    ):
        job = CompileJob.create(corpus_jobs(limit=1)[0].qasm,
                                get_device("ibm_qx5"))
        assert isinstance(job.qasm, CanonicalQasm)
        expected = job.key()

        def no_parse(source):
            raise AssertionError("canonical text parsed again")

        monkeypatch.setattr(keys, "parse_qasm", no_parse)
        assert job.key() == expected
        shipped = pickle.loads(pickle.dumps(job.payload()))
        assert isinstance(shipped["qasm"], CanonicalQasm)

    def test_edits_drop_the_mark(self):
        text = canonical_qasm("OPENQASM 2.0;\nqreg q[1];\nh q[0];\n")
        for edited in (text[:-1], text.strip(), text + "x q[0];\n",
                       text.replace("h", "x"), str(text)):
            assert type(edited) is str
        # Edited text is canonicalised again: its key is its own.
        device = get_device("ibm_qx4").to_dict()
        assert (
            CompileJob(qasm=text + "x q[0];\n", device=device).key()
            == CompileJob.create(text + "x q[0];\n", device).key()
            != CompileJob(qasm=text, device=device).key()
        )

    def test_unparsable_circuit_keeps_its_text(self):
        # A circuit whose text the parser rejects (an infinite angle)
        # still builds a job, keyed on its text.
        circuit = Circuit(2, [Gate("rx", (1,), (math.inf,))])
        job = CompileJob.create(circuit, get_device("ibm_qx4"))
        assert type(job.qasm) is str and job.qasm == to_openqasm(circuit)
        assert job.key() == compute_key(circuit, get_device("ibm_qx4"))
        res = CompileService(CompileCache()).submit(job)
        assert res.status == "invalid" and "QasmError" in res.error
