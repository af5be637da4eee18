"""Tests for the HTTP/JSON gateway front end (repro.service.httpd)."""

import json
import threading
import time
import urllib.error
import urllib.parse
import urllib.request

import pytest

from repro.devices import get_device
from repro.qasm import to_openqasm
from repro.service import (
    AsyncCompileService,
    CompileCache,
    CompileService,
    GatewayServer,
)
from repro.workloads import random_circuit


def _qasm(seed=1):
    return to_openqasm(
        random_circuit(5, 12, seed=seed, two_qubit_fraction=0.6)
    )


class _Client:
    """Tiny urllib JSON client against one GatewayServer."""

    def __init__(self, port: int):
        self.base = f"http://127.0.0.1:{port}"

    def request(self, method, path, body=None, timeout=60):
        data = json.dumps(body).encode() if body is not None else None
        req = urllib.request.Request(
            self.base + path, data=data, method=method,
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(req, timeout=timeout) as resp:
                return resp.status, json.loads(resp.read()), resp.headers
        except urllib.error.HTTPError as exc:
            return exc.code, json.loads(exc.read()), exc.headers

    def get(self, path):
        return self.request("GET", path)

    def post(self, path, body):
        return self.request("POST", path, body)


@pytest.fixture
def stack():
    """A running (service, gateway, server, client) stack."""
    service = CompileService(CompileCache(), max_workers=2)
    gateway = AsyncCompileService(service)
    server = GatewayServer(("127.0.0.1", 0), gateway)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield service, gateway, server, _Client(server.port)
    server.shutdown()
    server.server_close()
    gateway.close()
    service.close()


class TestSubmit:
    def test_wait_submission_returns_terminal_result(self, stack):
        _, _, _, client = stack
        code, body, _ = client.post("/jobs", {
            "qasm": _qasm(1), "device": "ibm_qx4",
            "config": {"router": "sabre"},
            "job_id": "w1", "wait": True,
        })
        assert code == 200
        assert body["job_id"] == "w1"
        assert body["status"] == "ok"
        assert "artifact" not in body  # omitted unless ?artifact requested

    def test_nowait_submission_then_poll_result(self, stack):
        _, _, _, client = stack
        code, body, _ = client.post("/jobs", {
            "qasm": _qasm(2), "device": "ibm_qx4", "job_id": "n1",
        })
        assert code == 202
        assert body == {
            "job_id": "n1", "status": "queued",
            "priority": "batch", "tenant": "default",
        }
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            code, body, _ = client.get("/jobs/n1/result")
            if code == 200:
                break
            assert code == 202
            time.sleep(0.05)
        assert code == 200 and body["status"] == "ok"

    def test_wait_with_artifact_inlined(self, stack):
        _, _, _, client = stack
        code, body, _ = client.post("/jobs", {
            "qasm": _qasm(3), "device": "ibm_qx4",
            "wait": True, "artifact": True,
        })
        assert code == 200
        assert body["artifact"]["routing"]["added_swaps"] >= 0

    def test_job_id_with_slash_roundtrips(self, stack):
        _, _, _, client = stack
        job_id = "corpus/ibm_qx4/5q_s4"
        code, _, _ = client.post("/jobs", {
            "qasm": _qasm(4), "device": "ibm_qx4",
            "job_id": job_id, "wait": True,
        })
        assert code == 200
        quoted = urllib.parse.quote(job_id, safe="")
        code, body, _ = client.get(f"/jobs/{quoted}")
        assert code == 200 and body["job_id"] == job_id


class TestStatusAndEvents:
    def test_job_status_includes_event_log(self, stack):
        _, _, _, client = stack
        client.post("/jobs", {
            "qasm": _qasm(5), "device": "ibm_qx4",
            "job_id": "ev1", "wait": True,
        })
        code, body, _ = client.get("/jobs/ev1")
        assert code == 200
        assert body["terminal"] is True
        kinds = [evt["event"] for evt in body["events"]]
        assert kinds[0] == "queued" and kinds[-1] == "ok"

    def test_unknown_job_404(self, stack):
        _, _, _, client = stack
        assert client.get("/jobs/nope")[0] == 404
        assert client.get("/jobs/nope/result")[0] == 404

    def test_unknown_endpoint_404(self, stack):
        _, _, _, client = stack
        assert client.get("/frobnicate")[0] == 404
        assert client.post("/frobnicate", {})[0] == 404


class TestHealthAndStats:
    def test_healthz_ok_while_serving(self, stack):
        _, _, _, client = stack
        code, body, _ = client.get("/healthz")
        assert code == 200 and body["ok"] is True

    def test_stats_includes_gateway_section(self, stack):
        _, _, _, client = stack
        client.post("/jobs", {
            "qasm": _qasm(6), "device": "ibm_qx4", "wait": True,
        })
        code, body, _ = client.get("/stats")
        assert code == 200
        assert body["gateway"]["admitted"] >= 1
        assert "service" in body and "pool" in body


class TestBadRequests:
    def test_invalid_json_400(self, stack):
        _, _, _, client = stack
        req = urllib.request.Request(
            client.base + "/jobs", data=b"{not json", method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(req, timeout=30)
        assert excinfo.value.code == 400

    def test_missing_qasm_400(self, stack):
        _, _, _, client = stack
        code, body, _ = client.post("/jobs", {"device": "ibm_qx4"})
        assert code == 400 and "qasm" in body["error"]

    def test_unknown_device_400(self, stack):
        _, _, _, client = stack
        code, body, _ = client.post(
            "/jobs", {"qasm": _qasm(7), "device": "not_a_device"}
        )
        assert code == 400 and "unknown device" in body["error"]

    def test_bad_priority_400(self, stack):
        _, _, _, client = stack
        code, body, _ = client.post("/jobs", {
            "qasm": _qasm(8), "device": "ibm_qx4", "priority": "urgent",
        })
        assert code == 400 and "priority" in body["error"]

    def test_non_numeric_deadline_400(self, stack):
        # Regression: -1 closed the connection with no response, and
        # NaN, Infinity (json.loads accepts both) and true passed.
        _, _, _, client = stack
        bad = [("deadline", "soon")] + [
            (name, value)
            for name in ("deadline", "timeout", "wait_timeout")
            for value in (-1, float("nan"), float("inf"), True)
        ]
        for name, value in bad:
            code, body, _ = client.post("/jobs", {
                "qasm": _qasm(9), "device": "ibm_qx4", "wait": True,
                name: value,
            })
            assert code == 400, (name, value, code, body)
            assert f'"{name}"' in body["error"], (name, value, body)


class TestOverloadAndDrain:
    def test_admission_rejection_is_429(self):
        service = CompileService(CompileCache(), max_workers=2)
        gateway = AsyncCompileService(
            service, auto_dispatch=False, max_queue_depth=1
        )
        server = GatewayServer(("127.0.0.1", 0), gateway)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        client = _Client(server.port)
        try:
            code, _, _ = client.post("/jobs", {
                "qasm": _qasm(10), "device": "ibm_qx4", "job_id": "fill",
            })
            assert code == 202
            code, body, _ = client.post("/jobs", {
                "qasm": _qasm(11), "device": "ibm_qx4", "job_id": "extra",
            })
            assert code == 429
            assert body["reason"] == "queue_full"
        finally:
            server.shutdown()
            server.server_close()
            gateway.close()
            service.close()

    def test_tenant_budget_429_sets_retry_after(self):
        service = CompileService(CompileCache(), max_workers=2)
        gateway = AsyncCompileService(
            service, auto_dispatch=False, tenant_burst=1, tenant_rate=2.0
        )
        server = GatewayServer(("127.0.0.1", 0), gateway)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        client = _Client(server.port)
        try:
            client.post("/jobs", {
                "qasm": _qasm(12), "device": "ibm_qx4",
            })
            code, body, headers = client.post("/jobs", {
                "qasm": _qasm(13), "device": "ibm_qx4",
            })
            assert code == 429
            assert body["reason"] == "tenant_budget"
            # RFC 9110 delay-seconds: a non-negative *integer*, rounded
            # up so clients never retry before the bucket refills.
            value = headers["Retry-After"]
            assert value.isdigit(), value
            assert int(value) >= 1
        finally:
            server.shutdown()
            server.server_close()
            gateway.close()
            service.close()

    def test_burst_only_tenant_429_omits_retry_after(self):
        # tenant_rate=0 is a legitimate burst-only budget: the bucket
        # never refills, so there is no honest retry time to advertise
        # (and computing one used to be a division by the zero rate).
        service = CompileService(CompileCache(), max_workers=2)
        gateway = AsyncCompileService(
            service, auto_dispatch=False, tenant_burst=1, tenant_rate=0.0
        )
        server = GatewayServer(("127.0.0.1", 0), gateway)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        client = _Client(server.port)
        try:
            code, _, _ = client.post("/jobs", {
                "qasm": _qasm(15), "device": "ibm_qx4",
            })
            assert code == 202
            code, body, headers = client.post("/jobs", {
                "qasm": _qasm(16), "device": "ibm_qx4",
            })
            assert code == 429
            assert body["reason"] == "tenant_budget"
            assert headers.get("Retry-After") is None
        finally:
            server.shutdown()
            server.server_close()
            gateway.close()
            service.close()

    def test_zero_retry_after_still_emits_header(self, stack):
        # retry_after == 0.0 means "retry immediately", which is still a
        # statement — the header must say "0", not disappear.
        from repro.service.gateway import Overloaded

        _, gateway, _, client = stack

        def reject(*args, **kwargs):
            raise Overloaded(
                "tenant_budget", "budget exhausted",
                tenant="default", retry_after=0.0,
            )

        gateway.submit = reject
        code, _, headers = client.post("/jobs", {
            "qasm": _qasm(17), "device": "ibm_qx4",
        })
        assert code == 429
        assert headers["Retry-After"] == "0"

    def test_draining_returns_503(self, stack):
        _, gateway, _, client = stack
        gateway.close(drain=True)
        code, body, _ = client.get("/healthz")
        assert code == 503 and body["draining"] is True
        code, body, _ = client.post("/jobs", {
            "qasm": _qasm(14), "device": "ibm_qx4",
        })
        assert code == 503
