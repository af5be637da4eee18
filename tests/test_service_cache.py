"""Tests for the content-addressed compile cache (repro.service)."""

import json

import pytest

from repro.core.pipeline import PassConfig, compile_with_config
from repro.devices import get_device
from repro.qasm import parse_qasm, to_openqasm
from repro.service import (
    CompileCache,
    CompileJob,
    CompileService,
    artifact_to_result,
    compute_key,
    device_fingerprint,
    result_to_artifact,
)
from repro.service.keys import canonical_json, canonical_qasm
from repro.workloads import random_circuit

QASM = """
OPENQASM 2.0;
include "qelib1.inc";
qreg q[4];
h q[0];
cx q[0],q[1];
cx q[1],q[2];
cx q[2],q[3];
"""


@pytest.fixture
def device():
    return get_device("ibm_qx4")


class TestKeys:
    def test_key_is_deterministic(self, device):
        assert compute_key(QASM, device) == compute_key(QASM, device)

    def test_formatting_does_not_change_key(self, device):
        # Extra whitespace/comments normalise away in the canonical form.
        noisy = QASM.replace("h q[0];", "// hadamard\n  h  q[0] ;")
        assert compute_key(noisy, device) == compute_key(QASM, device)

    def test_circuit_change_changes_key(self, device):
        other = QASM.replace("h q[0];", "x q[0];")
        assert compute_key(other, device) != compute_key(QASM, device)

    def test_device_change_changes_key(self, device):
        other = get_device("ibm_qx5")
        assert compute_key(QASM, other) != compute_key(QASM, device)

    def test_config_change_changes_key(self, device):
        base = compute_key(QASM, device, PassConfig(router="sabre"))
        assert compute_key(QASM, device, PassConfig(router="astar")) != base
        assert (
            compute_key(
                QASM,
                device,
                PassConfig(router="sabre", router_options={"lookahead": 0}),
            )
            != base
        )

    def test_version_change_changes_key(self, device):
        assert compute_key(QASM, device, version="0.0.0-test") != compute_key(
            QASM, device
        )

    def test_router_option_order_is_canonical(self, device):
        a = PassConfig(router="sabre", router_options={"a": 1, "b": 2})
        b = PassConfig(router="sabre", router_options={"b": 2, "a": 1})
        assert compute_key(QASM, device, a) == compute_key(QASM, device, b)

    def test_unparsable_source_still_keys(self, device):
        key = compute_key("not qasm", device)
        assert len(key) == 64
        assert compute_key("not qasm", device) == key
        assert compute_key("also not qasm", device) != key

    def test_device_fingerprint_distinguishes_topologies(self):
        linear = get_device("linear", num_qubits=9)
        ring = get_device("ring", num_qubits=9)
        assert device_fingerprint(linear) != device_fingerprint(ring)


class TestArtifactRoundTrip:
    def test_result_survives_serialisation(self, device):
        circuit = parse_qasm(QASM)
        config = PassConfig(router="sabre")
        result = compile_with_config(circuit, device, config)
        artifact = result_to_artifact(result, config=config)
        json.dumps(artifact)  # must be plain JSON
        restored = artifact_to_result(artifact)
        assert to_openqasm(restored.native) == to_openqasm(result.native)
        assert restored.routed.added_swaps == result.routed.added_swaps
        assert restored.routed.initial.prog_to_phys() == \
            result.routed.initial.prog_to_phys()
        assert restored.routed.final.prog_to_phys() == \
            result.routed.final.prog_to_phys()
        if result.schedule is not None:
            assert restored.schedule.latency == result.schedule.latency

    def test_schema_mismatch_rejected(self, device):
        result = compile_with_config(parse_qasm(QASM), device)
        artifact = result_to_artifact(result)
        artifact["schema"] = 999
        with pytest.raises(ValueError):
            artifact_to_result(artifact)


class TestCompileCacheTiers:
    def test_memory_tier_hit(self):
        cache = CompileCache()
        cache.put("k1", {"x": 1})
        assert cache.lookup("k1") == ({"x": 1}, "memory")
        assert cache.stats()["memory_hits"] == 1

    def test_miss_counted(self):
        cache = CompileCache()
        assert cache.get("nope") is None
        assert cache.stats()["misses"] == 1

    def test_lru_eviction(self):
        cache = CompileCache(max_memory_entries=2)
        cache.put("a", {"v": 1})
        cache.put("b", {"v": 2})
        cache.get("a")  # refresh a; b becomes LRU
        cache.put("c", {"v": 3})
        assert cache.get("b") is None
        assert cache.get("a") == {"v": 1}
        assert cache.stats()["evictions"] == 1

    def test_disk_tier_persists_across_instances(self, tmp_path):
        first = CompileCache(directory=tmp_path)
        first.put("deadbeef", {"payload": [1, 2, 3]})
        fresh = CompileCache(directory=tmp_path)
        assert fresh.lookup("deadbeef") == ({"payload": [1, 2, 3]}, "disk")
        # The disk hit was promoted into the memory tier.
        assert fresh.lookup("deadbeef") == ({"payload": [1, 2, 3]}, "memory")

    def test_last_tier_shim_removed(self):
        # The deprecated stateful accessor is gone; lookup() returns the
        # tier with the artefact instead.
        cache = CompileCache()
        cache.put("k1", {"x": 1})
        assert cache.lookup("k1") == ({"x": 1}, "memory")
        assert not hasattr(cache, "last_tier")

    def test_corrupt_disk_entry_is_a_miss(self, tmp_path):
        cache = CompileCache(directory=tmp_path)
        cache.put("badkey", {"fine": True})
        [path] = list(tmp_path.glob("*.json"))
        path.write_text("{not json")
        fresh = CompileCache(directory=tmp_path)
        assert fresh.get("badkey") is None
        stats = fresh.stats()
        assert stats["misses"] == 1 and stats["disk_errors"] == 1
        assert not path.exists()  # corrupt file was removed

    def test_contains_memory_and_disk_tiers(self, tmp_path):
        cache = CompileCache(directory=tmp_path)
        cache.put("k", {"v": 1})
        assert "k" in cache
        assert "other" not in cache
        fresh = CompileCache(directory=tmp_path)
        assert "k" in fresh  # disk-only entry

    def test_contains_rejects_corrupt_disk_entry(self, tmp_path):
        # Regression: __contains__ used to answer True for any existing
        # file, while get() treated an unparsable one as a miss — so
        # ``key in cache`` promised an artefact get() then refused.
        cache = CompileCache(directory=tmp_path)
        cache.put("badkey", {"fine": True})
        [path] = list(tmp_path.glob("*.json"))
        path.write_text("{not json")
        fresh = CompileCache(directory=tmp_path)
        assert "badkey" not in fresh
        assert fresh.get("badkey") is None
        assert not path.exists()  # corrupt file removed by membership test

    def test_contains_does_not_touch_hit_miss_counters(self, tmp_path):
        cache = CompileCache(directory=tmp_path)
        cache.put("k", {"v": 1})
        path = tmp_path / "corrupt.json"
        path.write_text("{not json")
        assert "k" in cache
        assert "corrupt" not in cache
        assert "absent" not in cache
        stats = cache.stats()
        assert stats["memory_hits"] == 0
        assert stats["disk_hits"] == 0
        assert stats["misses"] == 0
        assert stats["disk_errors"] == 1  # the corrupt entry, counted once

    def test_concurrent_same_key_puts_leave_no_tmp_files(self, tmp_path):
        # Regression: the temp-file name used to be pid-only, so two
        # threads of one process writing the same key collided — one
        # thread's os.replace could move the file away while the other
        # still held it, leaving torn writes or orphan ``*.tmp`` files.
        import threading

        cache = CompileCache(directory=tmp_path)
        n_threads = 8
        artifacts = [
            {"writer": i, "payload": list(range(2000))} for i in range(n_threads)
        ]
        barrier = threading.Barrier(n_threads)
        errors = []

        def writer(i):
            try:
                barrier.wait()
                for _ in range(20):
                    cache.put("shared-key", artifacts[i])
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        threads = [
            threading.Thread(target=writer, args=(i,)) for i in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        assert not errors
        assert list(tmp_path.glob("*.tmp")) == []  # no orphan temp files
        assert cache.stats()["disk_errors"] == 0
        # The final disk entry is one of the complete artefacts, untorn.
        final = json.loads((tmp_path / "shared-key.json").read_text())
        assert final in artifacts

    def test_clear(self, tmp_path):
        cache = CompileCache(directory=tmp_path)
        cache.put("k", {"v": 1})
        cache.clear(memory_only=True)
        assert len(cache) == 0
        assert cache.get("k") == {"v": 1}  # still on disk
        cache.clear()
        assert cache.get("k") is None

    def test_unwritable_cache_dir_counts_disk_error(self, tmp_path):
        # Regression: put() used to run the cache-directory mkdir
        # *outside* its try block, so a directory that cannot be created
        # raised out of put() instead of being counted like every other
        # disk failure.  A plain file squatting on the parent path makes
        # mkdir fail regardless of privileges (chmod is moot as root).
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        cache = CompileCache(directory=blocker / "cache")
        cache.put("k1", {"v": 1})  # must not raise
        stats = cache.stats()
        assert stats["puts"] == 1
        assert stats["disk_errors"] == 1
        # The memory tier still serves the artefact.
        assert cache.get("k1") == {"v": 1}

    def test_put_stores_copy_so_caller_mutation_is_invisible(self, tmp_path):
        # Regression: _remember used to keep the caller's dict by
        # reference, so annotating an artefact after put() silently
        # corrupted the memory tier while the disk tier kept the
        # original bytes — the two tiers answered differently.
        cache = CompileCache(directory=tmp_path)
        artifact = {"metrics": {"added_swaps": 3}, "metadata": {}}
        cache.put("alias", artifact)
        artifact["metadata"]["annotated"] = True
        artifact["metrics"]["added_swaps"] = 999

        from_memory, tier = cache.lookup("alias")
        assert tier == "memory"
        fresh = CompileCache(directory=tmp_path)
        from_disk, tier = fresh.lookup("alias")
        assert tier == "disk"
        assert from_memory == from_disk == {
            "metrics": {"added_swaps": 3}, "metadata": {},
        }

    def test_lookups_return_copies(self):
        # Regression: lookup returned the stored entry itself, so one
        # caller's edit showed up in every later lookup of the key.
        cache = CompileCache()
        cache.put("k", {"metrics": {"native_gates": 7}, "order": [0, 1]})
        first, _ = cache.lookup("k")
        first["metrics"]["native_gates"] = -1
        first["order"].append(2)
        second, tier = cache.lookup("k")
        assert tier == "memory"
        assert second == {"metrics": {"native_gates": 7}, "order": [0, 1]}

    def test_held_gates_stay_in_memory(self, tmp_path):
        cache = CompileCache(directory=tmp_path)
        gates = object()
        cache.put("k", {"v": 1}, gates)
        assert cache.held_gates("k") is gates
        assert cache.stats()["memory_hits"] == 0  # not a lookup
        fresh = CompileCache(directory=tmp_path)
        assert fresh.lookup("k") == ({"v": 1}, "disk")
        assert fresh.held_gates("k") is None
        assert cache.held_gates("missing") is None

    def test_put_copies_nested_lists(self, tmp_path):
        cache = CompileCache(directory=tmp_path)
        artifact = {"schedule": {"items": [
            {"gate": {"name": "cnot", "qubits": [0, 1]}, "start": 0},
        ]}}
        cache.put("nested", artifact)
        artifact["schedule"]["items"][0]["gate"]["qubits"].append(7)
        artifact["schedule"]["items"].append({"start": 9})

        from_memory, _ = cache.lookup("nested")
        from_disk, tier = CompileCache(directory=tmp_path).lookup("nested")
        assert tier == "disk"
        assert from_memory == from_disk == {"schedule": {"items": [
            {"gate": {"name": "cnot", "qubits": [0, 1]}, "start": 0},
        ]}}

    def test_put_stage_stores_copy(self, tmp_path):
        cache = CompileCache(directory=tmp_path)
        entry = {"placement": {"mapping": [2, 0, 1]}, "swaps": [[0, 1]]}
        cache.put_stage("placement", "k", entry)
        entry["placement"]["mapping"][0] = 5
        entry["swaps"][0].append(2)
        entry["extra"] = True

        from_memory = cache.lookup_stage("placement", "k")
        from_disk = CompileCache(directory=tmp_path).lookup_stage(
            "placement", "k"
        )
        assert from_memory == from_disk == {
            "placement": {"mapping": [2, 0, 1]}, "swaps": [[0, 1]],
        }

    def test_put_deep_copies_non_json_values(self, tmp_path):
        # A tuple is not a JSON type: it is still copied deeply, so a
        # list inside it cannot change under the memory tier either.
        cache = CompileCache(directory=tmp_path)
        edges = ([0, 1], [1, 2])
        cache.put("tuple", {"device": {"edges": edges}})
        edges[0].append(9)

        from_memory, _ = cache.lookup("tuple")
        from_disk, _ = CompileCache(directory=tmp_path).lookup("tuple")
        assert from_memory == {"device": {"edges": ([0, 1], [1, 2])}}
        # On disk the tuple is a JSON array: both tiers hold one text.
        assert canonical_json(from_memory) == canonical_json(from_disk)


class TestCacheCorrectness:
    """Cached artefacts must be byte-identical to fresh compiles."""

    def _mini_corpus(self):
        cases = []
        for dev_name, nq, ng, seed in [
            ("ibm_qx4", 5, 15, 3),
            ("ibm_qx5", 10, 25, 7),
            ("surface17", 12, 25, 5),
        ]:
            device = get_device(dev_name)
            qasm = to_openqasm(
                random_circuit(nq, ng, seed=seed, two_qubit_fraction=0.6)
            )
            for router in ("naive", "sabre", "astar"):
                cases.append((qasm, device, PassConfig(router=router)))
        return cases

    def test_warm_artifacts_byte_identical(self, tmp_path):
        corpus = self._mini_corpus()
        expected = {}
        for i, (qasm, device, config) in enumerate(corpus):
            result = compile_with_config(parse_qasm(qasm), device, config)
            expected[i] = canonical_json(
                result_to_artifact(result, config=config)
            )

        service = CompileService(CompileCache(directory=tmp_path))
        jobs = [
            CompileJob.create(qasm, device, config, job_id=str(i))
            for i, (qasm, device, config) in enumerate(corpus)
        ]
        cold = service.submit_batch(jobs)
        assert all(r.ok and r.cache_hit is None for r in cold)

        # A brand-new service over the same directory must serve every
        # artefact from disk, byte-identical to the fresh compile.
        warm_service = CompileService(CompileCache(directory=tmp_path))
        warm = warm_service.submit_batch(jobs)
        for res in warm:
            assert res.ok and res.cache_hit == "disk"
            assert canonical_json(res.artifact) == expected[int(res.job_id)]

    def test_canonical_qasm_accepts_circuit(self):
        circuit = parse_qasm(QASM)
        assert canonical_qasm(circuit) == canonical_qasm(QASM)
