"""End-to-end HTTP tests over a real socket (stdlib client only)."""

import http.client
import json
import threading

import pytest

from repro.obs import parse_metrics
from repro.serve import ServeApp, SnapshotHolder, ThreadingTransport


@pytest.fixture(scope="module")
def server(study):
    holder = SnapshotHolder(study.dataset)
    app = ServeApp(holder, concurrency=8, max_wait_seconds=2.0)
    with ThreadingTransport(app, port=0) as running:
        yield running


@pytest.fixture()
def client(server):
    conn = http.client.HTTPConnection(server.host, server.port,
                                      timeout=10)
    yield conn
    conn.close()


def fetch(conn, method, path, body=None):
    raw = json.dumps(body) if body is not None else None
    headers = {"Content-Type": "application/json"} if raw else {}
    conn.request(method, path, body=raw, headers=headers)
    response = conn.getresponse()
    data = response.read()
    return response, data


class TestOverTheWire:
    def test_healthz(self, client):
        response, data = fetch(client, "GET", "/healthz")
        assert response.status == 200
        assert json.loads(data)["status"] == "ok"

    def test_keepalive_reuses_one_connection(self, client):
        for _ in range(3):
            response, data = fetch(client, "GET", "/v1/dataset/stats")
            assert response.status == 200
            assert int(response.headers["Content-Length"]) == len(data)

    def test_get_with_query_string(self, client, study):
        response, data = fetch(
            client, "GET", "/v1/importance?limit=4&dimension=syscall")
        assert response.status == 200
        payload = json.loads(data)
        assert len(payload["data"]["ranked"]) == 4

    def test_post_completeness(self, client):
        response, data = fetch(client, "POST", "/v1/completeness",
                               body={"supported": ["read", "write"]})
        assert response.status == 200
        payload = json.loads(data)
        assert payload["endpoint"] == "completeness"
        assert "weighted_completeness" in payload["data"]

    def test_error_statuses_reach_the_wire(self, client):
        response, data = fetch(client, "GET", "/v1/nope")
        assert response.status == 404
        response, data = fetch(client, "GET",
                               "/v1/importance?dimension=bogus")
        assert response.status == 400
        assert json.loads(data)["error"]["class"] == "bad_request"

    def test_unsupported_method_is_405(self, client):
        response, _ = fetch(client, "PUT", "/v1/importance")
        assert response.status == 405

    def test_oversized_body_is_413(self, server):
        conn = http.client.HTTPConnection(server.host, server.port,
                                          timeout=10)
        try:
            conn.putrequest("POST", "/v1/completeness")
            conn.putheader("Content-Type", "application/json")
            conn.putheader("Content-Length",
                           str(64 * 1024 * 1024))
            conn.endheaders()
            response = conn.getresponse()
            assert response.status == 413
        finally:
            conn.close()

    def test_metrics_scrape_is_valid_exposition(self, client):
        fetch(client, "GET", "/v1/dataset/stats")
        response, data = fetch(client, "GET", "/metrics")
        assert response.status == 200
        assert response.headers["Content-Type"].startswith(
            "text/plain")
        samples = parse_metrics(data.decode())
        assert samples["repro_serve_requests"] >= 1
        assert "repro_serve_admission_slots" in samples

    def test_reload_over_http(self, client, server, tmp_path):
        path = tmp_path / "snapshot.json"
        server.app.holder.export_to_file(path)
        before = server.app.holder.generation
        response, data = fetch(client, "POST", "/admin/reload",
                               body={"path": str(path)})
        assert response.status == 200
        assert json.loads(data)["generation"] == before + 1


class TestRequestFraming:
    """Wire-level framing regressions: ambiguous queries and bodies."""

    def test_duplicate_query_parameter_is_400(self, client):
        response, data = fetch(
            client, "GET", "/v1/importance?limit=3&limit=7")
        assert response.status == 400
        error = json.loads(data)["error"]
        assert error["type"] == "DuplicateQueryParameter"
        assert "limit" in error["message"]

    def test_connection_survives_duplicate_parameter(self, client):
        # The query is rejected after any body is consumed, so the
        # same keep-alive connection must still answer.
        response, _ = fetch(client, "GET", "/v1/importance?a=1&a=2")
        assert response.status == 400
        response, _ = fetch(client, "GET", "/v1/importance?limit=3")
        assert response.status == 200

    def test_post_without_content_length_is_411(self, server):
        conn = http.client.HTTPConnection(server.host, server.port,
                                          timeout=10)
        try:
            conn.putrequest("POST", "/v1/completeness")
            conn.putheader("Content-Type", "application/json")
            conn.endheaders()
            response = conn.getresponse()
            assert response.status == 411
            error = json.loads(response.read())["error"]
            assert error["type"] == "LengthRequired"
        finally:
            conn.close()

    def test_chunked_transfer_coding_is_411(self, server):
        conn = http.client.HTTPConnection(server.host, server.port,
                                          timeout=10)
        try:
            conn.putrequest("POST", "/v1/completeness")
            conn.putheader("Content-Type", "application/json")
            conn.putheader("Transfer-Encoding", "chunked")
            conn.endheaders()
            response = conn.getresponse()
            assert response.status == 411
        finally:
            conn.close()

    def test_get_without_content_length_still_fine(self, server):
        # Bodyless methods never needed framing; the 411 applies only
        # to body-carrying methods.
        conn = http.client.HTTPConnection(server.host, server.port,
                                          timeout=10)
        try:
            conn.putrequest("GET", "/healthz")
            conn.endheaders()
            assert conn.getresponse().status == 200
        finally:
            conn.close()

    def test_invalid_content_length_is_400(self, server):
        conn = http.client.HTTPConnection(server.host, server.port,
                                          timeout=10)
        try:
            conn.putrequest("POST", "/v1/completeness")
            conn.putheader("Content-Type", "application/json")
            conn.putheader("Content-Length", "banana")
            conn.endheaders()
            response = conn.getresponse()
            assert response.status == 400
            error = json.loads(response.read())["error"]
            assert error["type"] == "BadContentLength"
        finally:
            conn.close()


class TestConcurrentClients:
    def test_parallel_connections_all_answered(self, server):
        errors = []

        def one_client(n: int) -> None:
            conn = http.client.HTTPConnection(
                server.host, server.port, timeout=30)
            try:
                for _ in range(10):
                    conn.request("GET", "/v1/importance?limit=3")
                    response = conn.getresponse()
                    body = response.read()
                    if response.status != 200:
                        errors.append((n, response.status, body[:80]))
            finally:
                conn.close()

        threads = [threading.Thread(target=one_client, args=(n,))
                   for n in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors, errors[:3]


def test_graceful_stop_and_restartable_app(study):
    holder = SnapshotHolder(study.dataset)
    app = ServeApp(holder)
    server = ThreadingTransport(app, port=0).start()
    conn = http.client.HTTPConnection(server.host, server.port,
                                      timeout=10)
    conn.request("GET", "/healthz")
    assert conn.getresponse().status == 200
    conn.close()
    server.stop()
    # The app (and its caches) survive; a new listener can be bound.
    second = ThreadingTransport(app, port=0).start()
    try:
        conn = http.client.HTTPConnection(second.host, second.port,
                                          timeout=10)
        conn.request("GET", "/readyz")
        assert conn.getresponse().status == 200
        conn.close()
    finally:
        second.stop()
