"""Time-travel serving and the multi-tenant snapshot registry.

Four promises under test: (1) ``?release=k`` answers are byte-identical
to calling the library on ``series.at(k)`` for every dataset endpoint,
and the series-scope endpoints (``/v1/trend/*``, ``/v1/release/diff``,
``/v1/series/stats``) match their payload functions over the whole
train; (2) every bad coordinate — unknown release, unknown tenant,
``release=`` against a plain snapshot, series scope against a plain
snapshot — is a 400 ``bad_request`` envelope, never a 500; (3) a
failed series reload keeps the old generation published and readiness
restored; (4) a multi-worker SIGHUP over a ``.rser`` keeps every
worker's ``/readyz`` release provenance in lockstep.
"""

import json
import os
import threading
import time

import pytest

from repro.metrics import importance_table
from repro.serve import (DEFAULT_TENANT, ENDPOINTS_BY_NAME, Request,
                         ServeApp, SnapshotHolder, SnapshotRegistry,
                         WorkerSupervisor, canonical_json)
from repro.series import load_series
from repro.synth import EvolutionConfig, evolve_corpus
from repro.synth.paper import PaperScaleConfig
from repro.store import StoreError


N_RELEASES = 4


def build_train(tmp_path_factory, seed, n_releases=N_RELEASES):
    from repro.series import write_series
    ecosystem = evolve_corpus(EvolutionConfig(
        n_releases=n_releases,
        base=PaperScaleConfig.at_scale(0.005, seed=seed), seed=seed))
    path = tmp_path_factory.mktemp("registry") / f"train{seed}.rser"
    write_series(path, ecosystem.datasets())
    return path


@pytest.fixture(scope="module")
def series_path(tmp_path_factory):
    return build_train(tmp_path_factory, seed=11)


@pytest.fixture(scope="module")
def series(series_path):
    return load_series(series_path)


@pytest.fixture(scope="module")
def app(series_path):
    return ServeApp(SnapshotHolder.from_file(series_path))


def handle(app, method, path, query=None, body=None):
    raw = json.dumps(body).encode() if body is not None else b""
    return app.handle(Request(method, path, query=dict(query or {}),
                              body=raw))


def served(app, method, path, query=None, body=None):
    response = handle(app, method, path, query=query, body=body)
    assert response.status == 200, response.body
    return response.json_payload()


# One representative request per dataset-scope endpoint.
DATASET_CASES = [
    ("importance", "GET", {}, None),
    ("importance", "GET", {"dimension": "ioctl", "limit": "9"}, None),
    ("unweighted", "GET", {"dimension": "libc"}, None),
    ("completeness", "POST", {},
     {"supported": ["open", "close", "read", "write"]}),
    ("curve", "GET", {"limit": "30"}, None),
    ("plan", "POST", {}, {"modified": ["open"], "limit": 3}),
    ("evaluate", "POST", {},
     {"name": "tinyos", "version": "1", "supported": ["open"],
      "suggestions": 2}),
    ("stats", "GET", {}, None),
]

SERIES_CASES = [
    ("series_stats", "GET", {}, None),
    ("trend_importance", "GET", {"limit": "3"}, None),
    ("trend_importance", "GET",
     {"apis": "open,close", "weighted": "false"}, None),
    ("trend_completeness", "POST", {"from": "1"},
     {"supported": ["open", "close", "read"]}),
    ("release_diff", "GET",
     {"from": "0", "to": str(N_RELEASES - 1)}, None),
    ("release_diff", "GET",
     {"from": "1", "to": "2", "weighted": "true",
      "noise_floor": "0.01"}, None),
]


class TestTimeTravelParity:
    @pytest.mark.parametrize("release", range(N_RELEASES))
    @pytest.mark.parametrize("name,method,query,body", DATASET_CASES,
                             ids=lambda v: repr(v)[:40])
    def test_release_pinned_answers_match_library(
            self, app, series, release, name, method, query, body):
        endpoint = ENDPOINTS_BY_NAME[name]
        query = dict(query, release=str(release))
        envelope = served(app, method, endpoint.path, query, body)
        params = endpoint.normalize(query, body)
        holder = app.holder
        direct = endpoint.payload(
            holder.current().dataset_at(release), params)
        assert canonical_json(envelope["data"]) == \
            canonical_json(direct)
        assert envelope["release"] == release
        assert envelope["fingerprint"] == \
            series.fingerprints[release]

    @pytest.mark.parametrize("name,method,query,body", SERIES_CASES,
                             ids=lambda v: repr(v)[:40])
    def test_series_endpoints_match_library(self, app, series, name,
                                            method, query, body):
        endpoint = ENDPOINTS_BY_NAME[name]
        envelope = served(app, method, endpoint.path, query, body)
        params = endpoint.normalize(query, body)
        direct = endpoint.payload(series, params)
        assert canonical_json(envelope["data"]) == \
            canonical_json(direct)
        # Series-scope answers carry the train's fingerprint, not a
        # single release's, and never a release index.
        assert envelope["fingerprint"] == series.series_fingerprint
        assert "release" not in envelope

    def test_unversioned_queries_serve_the_head(self, app, series):
        envelope = served(app, "GET", "/v1/importance")
        head = series.n_releases - 1
        assert envelope["release"] == head
        assert envelope["fingerprint"] == series.fingerprints[head]
        assert envelope["data"]["table"] == \
            importance_table(series.at(head))

    def test_releases_cache_independently(self, app, series):
        for release in (0, 1):
            first = served(app, "GET", "/v1/importance",
                           {"release": str(release)})
            again = served(app, "GET", "/v1/importance",
                           {"release": str(release)})
            assert again["cached"] is True
            assert again["data"] == first["data"]
            assert again["fingerprint"] == \
                series.fingerprints[release]
        assert served(app, "GET", "/v1/importance",
                      {"release": "0"})["data"] != \
            served(app, "GET", "/v1/importance",
                   {"release": "1"})["data"] or \
            series.fingerprints[0] != series.fingerprints[1]


class TestCoordinateErrors:
    @pytest.fixture(scope="class")
    def plain_app(self, study):
        return ServeApp(SnapshotHolder(study.dataset))

    def assert_bad_request(self, response, fragment):
        assert response.status == 400, response.body
        error = response.json_payload()["error"]
        assert error["class"] == "bad_request"
        assert error["status"] == 400
        assert fragment in error["message"]

    @pytest.mark.parametrize("release", ["99", "-1", "x", "1.5"])
    def test_unknown_release_is_a_400_envelope(self, app, release):
        response = handle(app, "GET", "/v1/importance",
                          {"release": release})
        self.assert_bad_request(response, "release")

    def test_release_out_of_series_range(self, app):
        response = handle(app, "GET", "/v1/release/diff",
                          {"from": "0", "to": "44"})
        self.assert_bad_request(response, "unknown release 44")

    def test_release_against_plain_snapshot(self, plain_app):
        response = handle(plain_app, "GET", "/v1/importance",
                          {"release": "0"})
        self.assert_bad_request(response, "release= is not supported")

    def test_series_scope_against_plain_snapshot(self, plain_app):
        for path in ("/v1/series/stats", "/v1/trend/importance"):
            response = handle(plain_app, "GET", path)
            self.assert_bad_request(response,
                                    "need a release train")

    def test_unknown_tenant(self, app):
        response = handle(app, "GET", "/v1/importance",
                          {"tenant": "nope"})
        self.assert_bad_request(response, "unknown tenant 'nope'")

    def test_empty_trend_apis(self, app):
        response = handle(app, "GET", "/v1/trend/importance",
                          {"apis": " , "})
        self.assert_bad_request(response, "at least one API")

    def test_release_diff_requires_from_and_to(self, app):
        response = handle(app, "GET", "/v1/release/diff",
                          {"from": "0"})
        self.assert_bad_request(response, "'from' and 'to'")


class TestMultiTenant:
    @pytest.fixture(scope="class")
    def multi_app(self, study, series_path):
        registry = SnapshotRegistry()
        registry.add(DEFAULT_TENANT, SnapshotHolder(study.dataset))
        registry.add("train", SnapshotHolder.from_file(series_path))
        return ServeApp(registry)

    def test_tenants_answer_independently(self, multi_app, study,
                                          series):
        default = served(multi_app, "GET", "/v1/importance")
        train = served(multi_app, "GET", "/v1/importance",
                       {"tenant": "train", "release": "0"})
        assert "tenant" not in default
        assert "release" not in default
        assert train["tenant"] == "train"
        assert train["release"] == 0
        assert train["data"]["table"] == \
            importance_table(series.at(0))
        assert default["data"]["table"] == \
            importance_table(study.dataset)

    def test_series_scope_routes_by_tenant(self, multi_app, series):
        envelope = served(multi_app, "GET", "/v1/series/stats",
                          {"tenant": "train"})
        assert envelope["tenant"] == "train"
        assert envelope["data"]["series_fingerprint"] == \
            series.series_fingerprint
        # ...while the default tenant still rejects series scope.
        response = handle(multi_app, "GET", "/v1/series/stats")
        assert response.status == 400

    def test_readyz_reports_every_tenant(self, multi_app, series):
        payload = served_readyz(multi_app)
        assert payload["ready"] is True
        tenants = payload["tenants"]
        assert set(tenants) == {DEFAULT_TENANT, "train"}
        assert tenants["train"]["format"] == "rser"
        assert tenants["train"]["releases"] == series.n_releases
        assert tenants[DEFAULT_TENANT]["format"] == "memory"
        # Top-level keys keep describing the default tenant.
        assert payload["fingerprint"] == \
            tenants[DEFAULT_TENANT]["fingerprint"]

    def test_invalid_tenant_names_rejected_at_registration(self):
        registry = SnapshotRegistry()
        with pytest.raises(ValueError, match="invalid tenant name"):
            registry.add("bad name", object())
        with pytest.raises(ValueError, match="invalid tenant name"):
            registry.add("", object())

    def test_duplicate_tenant_rejected(self, study):
        registry = SnapshotRegistry()
        holder = SnapshotHolder(study.dataset)
        registry.add("a", holder)
        with pytest.raises(ValueError, match="already registered"):
            registry.add("a", holder)


def served_readyz(app):
    response = handle(app, "GET", "/readyz")
    assert response.status == 200, response.body
    return response.json_payload()


class TestSeriesReload:
    @pytest.fixture()
    def reload_app(self, tmp_path_factory):
        path = build_train(tmp_path_factory, seed=21)
        return path, ServeApp(SnapshotHolder.from_file(path))

    def test_failed_reload_keeps_the_old_generation(self, reload_app,
                                                    tmp_path):
        path, app = reload_app
        before = served_readyz(app)
        garbage = tmp_path / "garbage.rser"
        garbage.write_bytes(path.read_bytes()[:200])
        with pytest.raises(StoreError):
            app.reload_from_path(garbage)
        after = served_readyz(app)
        assert after["generation"] == before["generation"] == 1
        assert after["fingerprint"] == before["fingerprint"]
        assert after["ready"] is True
        assert app.holder.failed_reloads == 1
        # Queries keep answering from the surviving generation.
        envelope = served(app, "GET", "/v1/series/stats")
        assert envelope["generation"] == 1

    def test_corrupting_the_source_fails_sighup_reload(
            self, reload_app):
        path, app = reload_app
        original = path.read_bytes()
        flipped = bytearray(original)
        flipped[len(flipped) // 2] ^= 0x40
        path.write_bytes(bytes(flipped))
        try:
            with pytest.raises(StoreError):
                app.reload_from_source()
        finally:
            path.write_bytes(original)
        assert app.holder.generation == 1
        assert app.holder.failed_reloads == 1
        published = app.reload_from_source()
        assert app.holder.generation == 2
        assert published[DEFAULT_TENANT].generation == 2

    def test_successful_reload_swaps_the_train(self, reload_app,
                                               tmp_path_factory):
        path, app = reload_app
        bigger = build_train(tmp_path_factory, seed=22,
                             n_releases=N_RELEASES + 2)
        old_fingerprint = served_readyz(app)["fingerprint"]
        snapshot = app.reload_from_path(bigger)
        assert snapshot.generation == 2
        payload = served_readyz(app)
        assert payload["generation"] == 2
        assert payload["releases"] == N_RELEASES + 2
        assert payload["fingerprint"] != old_fingerprint
        envelope = served(app, "GET", "/v1/importance",
                          {"release": str(N_RELEASES + 1)})
        assert envelope["release"] == N_RELEASES + 1

    def test_hammer_during_reload_never_tears(self, reload_app,
                                              tmp_path_factory):
        path, app = reload_app
        other = build_train(tmp_path_factory, seed=23)
        valid = {load_series(path).series_fingerprint:
                 load_series(path).fingerprints,
                 load_series(other).series_fingerprint:
                 load_series(other).fingerprints}
        stop = threading.Event()
        failures = []

        def hammer():
            while not stop.is_set():
                for release in ("0", str(N_RELEASES - 1)):
                    response = handle(app, "GET", "/v1/importance",
                                      {"release": release})
                    if response.status != 200:
                        failures.append(response.body)
                        continue
                    envelope = response.json_payload()
                    chain = valid.get(served_series_fp(envelope,
                                                       valid))
                    if chain is None or envelope["fingerprint"] \
                            not in chain:
                        failures.append(envelope)

        threads = [threading.Thread(target=hammer)
                   for _ in range(4)]
        for thread in threads:
            thread.start()
        sources = [other, path] * 3
        for source in sources:
            app.reload_from_path(source)
            time.sleep(0.02)
        stop.set()
        for thread in threads:
            thread.join()
        assert not failures
        assert app.holder.generation == 1 + len(sources)


def served_series_fp(envelope, valid):
    """Which train a release-pinned answer came from."""
    for series_fp, chain in valid.items():
        if envelope["fingerprint"] in chain:
            return series_fp
    return None


@pytest.mark.skipif(not hasattr(os, "fork"),
                    reason="pre-fork serving needs fork")
class TestSeriesFleet:
    """SIGHUP fan-out over a .rser: release provenance in lockstep."""

    @pytest.fixture(scope="class")
    def train_path(self, tmp_path_factory):
        return build_train(tmp_path_factory, seed=31)

    @pytest.fixture(scope="class")
    def fleet(self, train_path):
        supervisor = WorkerSupervisor(
            train_path, workers=2, backoff_base_seconds=0.05,
            healthy_after_seconds=0.5)
        with supervisor:
            yield supervisor

    def test_every_worker_serves_the_same_train(self, fleet,
                                                train_path):
        from tests.test_serve_workers import per_worker
        series = load_series(train_path)
        answers = per_worker(fleet, "/readyz")
        payloads = [json.loads(body) for _, _, body in
                    answers.values()]
        assert len(payloads) == 2
        for payload in payloads:
            assert payload["format"] == "rser"
            assert payload["releases"] == series.n_releases
            assert payload["fingerprint"] == \
                series.series_fingerprint
            assert payload["release_fingerprints"] == \
                list(series.fingerprints)

    def test_sighup_keeps_release_provenance_in_lockstep(
            self, fleet, train_path, tmp_path_factory):
        from tests.test_serve_workers import fetch, per_worker
        original = train_path.read_bytes()
        replacement = build_train(tmp_path_factory, seed=32,
                                  n_releases=N_RELEASES + 1)
        new_series = load_series(replacement)
        try:
            train_path.write_bytes(replacement.read_bytes())
            assert fleet.reload_all() == 2
            deadline = time.monotonic() + 30.0
            while True:
                answers = per_worker(fleet, "/readyz")
                payloads = [json.loads(body) for _, _, body in
                            answers.values()]
                if all(p.get("generation") == 2 for p in payloads):
                    break
                assert time.monotonic() < deadline, payloads
                time.sleep(0.1)
            for payload in payloads:
                assert payload["releases"] == N_RELEASES + 1
                assert payload["release_fingerprints"] == \
                    list(new_series.fingerprints)
            # Time-travel answers agree fleet-wide.
            status, _, body = fetch(
                fleet, "GET", "/v1/importance?release=0")
            assert status == 200
            envelope = json.loads(body)
            assert envelope["release"] == 0
            assert envelope["fingerprint"] == \
                new_series.fingerprints[0]
        finally:
            train_path.write_bytes(original)
            fleet.reload_all()
            deadline = time.monotonic() + 30.0
            while True:
                answers = per_worker(fleet, "/readyz")
                payloads = [json.loads(body) for _, _, body in
                            answers.values()]
                if all(p.get("generation") == 3 for p in payloads):
                    break
                assert time.monotonic() < deadline, payloads
                time.sleep(0.1)
