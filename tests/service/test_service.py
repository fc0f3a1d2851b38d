"""The analysis service: cache, admission policy, and the HTTP frontend.

The service core (:class:`AnalysisService`) is transport-free, so most of
this file exercises it directly with an injected stub runner — backpressure,
coalescing, cache hits and budgets are all contract, not plumbing.  The last
class drives the real HTTP frontend end-to-end over a loopback socket and
pins the acceptance criteria: a served study is bit-identical to a direct
``run_replicate_study`` call, a repeated request is a cache hit visible in
``/v1/stats``, and saturating the in-flight bound yields 429.
"""

import asyncio
import http.client
import json
import threading

import pytest

import repro.gates.circuits
from repro.analysis import run_replicate_study
from repro.engine import StudySpec, WorkerConnectionError
from repro.errors import EngineError
from repro.gates.cello import cello_circuit
from repro.gates.parts_library import resolve_library
from repro.search import SearchSpec, run_design_search
from repro.service import AnalysisService, ResultCache, ServiceServer, app
from repro.service.app import BackpressureError, BudgetError


class TestResultCache:
    def test_miss_then_hit(self):
        cache = ResultCache()
        assert cache.get("k") is None
        cache.put("k", {"value": 1})
        assert cache.get("k") == {"value": 1}
        stats = cache.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["hit_rate"] == 0.5

    def test_hit_rate_is_none_before_any_lookup(self):
        assert ResultCache().stats()["hit_rate"] is None

    def test_lru_eviction_under_byte_budget(self):
        payloads = {name: {"name": name} for name in ("a", "b", "c")}
        one_size = len(json.dumps(payloads["a"], sort_keys=True).encode())
        cache = ResultCache(max_bytes=2 * one_size)
        cache.put("a", payloads["a"])
        cache.put("b", payloads["b"])
        cache.get("a")  # refresh "a" → "b" is now least recent
        cache.put("c", payloads["c"])
        assert "a" in cache and "c" in cache and "b" not in cache
        assert cache.stats()["evictions"] == 1
        assert cache.bytes_used <= cache.max_bytes

    def test_oversized_payload_not_stored(self):
        cache = ResultCache(max_bytes=8)
        cache.put("k", {"value": "x" * 100})
        assert "k" not in cache and len(cache) == 0

    def test_zero_budget_disables_caching_but_keeps_counters(self):
        cache = ResultCache(max_bytes=0)
        cache.put("k", {"value": 1})
        assert cache.get("k") is None
        assert cache.stats()["misses"] == 1

    def test_replacing_a_key_does_not_double_count(self):
        cache = ResultCache()
        cache.put("k", {"value": 1})
        cache.put("k", {"value": 2})
        assert len(cache) == 1
        assert cache.bytes_used == len(json.dumps({"value": 2}, sort_keys=True).encode())
        cache.clear()
        assert cache.bytes_used == 0 and len(cache) == 0

    def test_negative_budget_rejected(self):
        with pytest.raises(EngineError):
            ResultCache(max_bytes=-1)


def _spec(seed=7, **changes):
    base = StudySpec(circuit="not", n_replicates=2, seed=seed, hold_time=60.0)
    return base.replace(**changes) if changes else base


class _StubRunner:
    """An injectable runner: counts calls, optionally blocks until released."""

    def __init__(self, blocking=False, error=None):
        self.calls = 0
        self.specs = []
        self.error = error
        self._release = threading.Event()
        if not blocking:
            self._release.set()

    def release(self):
        self._release.set()

    def __call__(self, spec, executor):
        self.calls += 1
        self.specs.append(spec)
        assert self._release.wait(timeout=30), "stub runner was never released"
        if self.error is not None:
            raise self.error
        return {"circuit": spec.circuit, "seed": spec.seed}


class TestAnalysisService:
    def test_submit_runs_and_caches(self):
        runner = _StubRunner()

        async def _go():
            service = AnalysisService(runner=runner)
            first = await service.submit(_spec())
            await first.done_event.wait()
            second = await service.submit(_spec())
            return service, first, second

        service, first, second = asyncio.run(_go())
        assert first.status == "done" and not first.cached
        assert first.result == {"circuit": "not", "seed": 7}
        assert second.cached and second.status == "done"
        assert second.result == first.result
        assert second.wall_seconds == 0.0
        assert runner.calls == 1
        stats = service.stats()
        assert stats["cache"]["hits"] == 1 and stats["cache"]["misses"] == 1
        assert stats["studies"]["submitted"] == 2
        assert stats["studies"]["completed"] == 2

    def test_json_and_dict_bodies_accepted(self):
        runner = _StubRunner()

        async def _go():
            service = AnalysisService(runner=runner)
            record = await service.submit(_spec().to_json())
            await record.done_event.wait()
            repeat = await service.submit(_spec().to_dict())
            return record, repeat

        record, repeat = asyncio.run(_go())
        assert record.status == "done"
        assert repeat.cached, "a JSON body and a dict body must share a cache entry"

    def test_malformed_spec_raises_engine_error(self):
        async def _go():
            await AnalysisService(runner=_StubRunner()).submit({"circuit": "not", "oops": 1})

        with pytest.raises(EngineError, match="oops"):
            asyncio.run(_go())

    def test_replicate_budget_enforced(self):
        async def _go():
            service = AnalysisService(runner=_StubRunner(), max_replicates=4)
            await service.submit(_spec(n_replicates=5))

        with pytest.raises(BudgetError, match="at most 4"):
            asyncio.run(_go())

    def test_backpressure_when_inflight_bound_saturated(self):
        runner = _StubRunner(blocking=True)

        async def _go():
            service = AnalysisService(runner=runner, max_inflight=2)
            held = [await service.submit(_spec(seed=s)) for s in (1, 2)]
            assert service.inflight == 2
            with pytest.raises(BackpressureError, match="retry later"):
                await service.submit(_spec(seed=3))
            runner.release()
            for record in held:
                await record.done_event.wait()
            # Capacity is back: the same spec is admitted now.
            late = await service.submit(_spec(seed=3))
            await late.done_event.wait()
            return service, late

        service, late = asyncio.run(_go())
        assert late.status == "done"
        assert service.stats()["studies"]["rejected"] == 1
        assert service.inflight == 0

    def test_identical_inflight_spec_coalesces(self):
        runner = _StubRunner(blocking=True)

        async def _go():
            service = AnalysisService(runner=runner, max_inflight=1)
            leader = await service.submit(_spec())
            follower = await service.submit(_spec())  # same spec → no 429, no dispatch
            assert follower.coalesced and not follower.cached
            runner.release()
            await leader.done_event.wait()
            await follower.done_event.wait()
            return service, leader, follower

        service, leader, follower = asyncio.run(_go())
        assert runner.calls == 1, "a coalesced submission must not dispatch again"
        assert follower.status == "done"
        assert follower.result == leader.result
        assert service.stats()["studies"]["coalesced"] == 1

    def test_failed_study_reports_error_and_is_not_cached(self):
        runner = _StubRunner(error=EngineError("boom"))

        async def _go():
            service = AnalysisService(runner=runner)
            record = await service.submit(_spec())
            await record.done_event.wait()
            retry = await service.submit(_spec())
            await retry.done_event.wait()
            return service, record, retry

        service, record, retry = asyncio.run(_go())
        assert record.status == "error" and record.error == "boom"
        assert not retry.cached, "a failed study must not poison the cache"
        assert service.stats()["studies"]["failed"] == 2

    def test_fabric_loss_is_tagged_and_copied_to_coalesced_followers(self):
        runner = _StubRunner(blocking=True, error=WorkerConnectionError("fabric gone"))

        async def _go():
            service = AnalysisService(runner=runner)
            leader = await service.submit(_spec())
            follower = await service.submit(_spec())
            runner.release()
            await leader.done_event.wait()
            await follower.done_event.wait()
            return leader, follower

        leader, follower = asyncio.run(_go())
        assert leader.status == "error" and leader.error_kind == "fabric"
        assert follower.coalesced and follower.error_kind == "fabric"

    def test_ordinary_failures_are_not_tagged_as_fabric(self):
        runner = _StubRunner(error=EngineError("boom"))

        async def _go():
            service = AnalysisService(runner=runner)
            record = await service.submit(_spec())
            await record.done_event.wait()
            return record

        assert asyncio.run(_go()).error_kind is None

    def test_unseeded_spec_skips_cache_but_counts_inflight(self):
        runner = _StubRunner(blocking=True)

        async def _go():
            service = AnalysisService(runner=runner, max_inflight=1)
            record = await service.submit(_spec(seed=None))
            assert record.cache_key is None
            assert service.inflight == 1
            with pytest.raises(BackpressureError):
                await service.submit(_spec(seed=None))
            runner.release()
            await record.done_event.wait()
            return service, record

        service, record = asyncio.run(_go())
        assert record.status == "done"
        assert service.cache.stats()["entries"] == 0
        assert service.inflight == 0

    def test_admission_limits_validated(self):
        with pytest.raises(EngineError):
            AnalysisService(max_inflight=0)
        with pytest.raises(EngineError):
            AnalysisService(max_replicates=0)


def _search_spec(seed=7, **changes):
    base = SearchSpec(
        function="0x8",
        inputs=("LacI", "TetR"),
        library="diverse",
        max_candidates=4,
        n0=2,
        fixed_replicates=2,
        hold_time=20.0,
        seed=seed,
    )
    return base.replace(**changes) if changes else base


class _StubSearchRunner:
    """Injectable search runner mirroring :class:`_StubRunner`."""

    def __init__(self):
        self.calls = 0

    def __call__(self, spec, executor):
        self.calls += 1
        return {"function": spec.function, "seed": spec.seed}


class TestSearchSubmission:
    """Searches share the service's admission machinery with studies."""

    def test_submit_search_runs_and_caches(self):
        runner = _StubSearchRunner()

        async def _go():
            service = AnalysisService(runner=_StubRunner(), search_runner=runner)
            first = await service.submit_search(_search_spec())
            await first.done_event.wait()
            second = await service.submit_search(_search_spec())
            return first, second

        first, second = asyncio.run(_go())
        assert first.kind == "search"
        assert first.study_id.startswith("search-")
        assert first.status == "done" and not first.cached
        assert first.result == {"function": "0x8", "seed": 7}
        assert second.cached and second.result == first.result
        assert runner.calls == 1

    def test_search_json_body_accepted(self):
        runner = _StubSearchRunner()

        async def _go():
            service = AnalysisService(runner=_StubRunner(), search_runner=runner)
            record = await service.submit_search(_search_spec().to_json())
            await record.done_event.wait()
            return record

        assert asyncio.run(_go()).status == "done"

    def test_search_budget_enforced_over_the_candidate_space(self):
        async def _go():
            service = AnalysisService(
                runner=_StubRunner(),
                search_runner=_StubSearchRunner(),
                max_search_replicates=7,
            )
            await service.submit_search(_search_spec())  # 4 candidates x 2 = 8

        with pytest.raises(BudgetError, match="at most 7"):
            asyncio.run(_go())

    def test_searches_and_studies_share_the_inflight_bound(self):
        study_runner = _StubRunner(blocking=True)

        async def _go():
            service = AnalysisService(
                runner=study_runner,
                search_runner=_StubSearchRunner(),
                max_inflight=1,
            )
            held = await service.submit(_spec())
            with pytest.raises(BackpressureError):
                await service.submit_search(_search_spec())
            study_runner.release()
            await held.done_event.wait()
            late = await service.submit_search(_search_spec())
            await late.done_event.wait()
            return late

        assert asyncio.run(_go()).status == "done"

    def test_search_records_are_not_studies(self):
        async def _go():
            service = AnalysisService(
                runner=_StubRunner(),
                search_runner=_StubSearchRunner(),
            )
            study = await service.submit(_spec())
            search = await service.submit_search(_search_spec())
            await study.done_event.wait()
            await search.done_event.wait()
            return service, study, search

        service, study, search = asyncio.run(_go())
        assert study.kind == "study" and search.kind == "search"
        assert service.get(study.study_id).kind == "study"
        assert service.get(search.study_id).kind == "search"
        assert study.to_response()["kind"] == "study"
        assert search.to_response()["kind"] == "search"

    def test_search_limit_validated_and_reported(self):
        with pytest.raises(EngineError):
            AnalysisService(max_search_replicates=0)
        service = AnalysisService(runner=_StubRunner(), max_search_replicates=123)
        assert service.stats()["limits"]["max_search_replicates"] == 123


def _count_resolutions(monkeypatch):
    """Record every circuit name resolved from here on."""
    resolved = []
    real = repro.gates.circuits.resolve_circuit

    def counting(name):
        resolved.append(name)
        return real(name)

    monkeypatch.setattr(repro.gates.circuits, "resolve_circuit", counting)
    return resolved


class TestKeyMemo:
    """Specs parsed from request bodies get their cache key from a memo."""

    def test_repeated_body_resolves_its_circuit_once(self, monkeypatch):
        resolved = _count_resolutions(monkeypatch)
        body = _spec().to_dict()

        async def _go():
            service = AnalysisService(runner=_StubRunner())
            first = await service.submit(body)
            await first.done_event.wait()
            return [first] + [await service.submit(body) for _ in range(5)]

        records = asyncio.run(_go())
        assert resolved == ["not"]
        assert all(record.cached for record in records[1:])
        assert {record.cache_key for record in records} == {records[0].cache_key}

    def test_memoized_keys_equal_fresh_keys(self):
        study_body = _spec().to_dict()
        search_body = _search_spec().to_dict()

        async def _go():
            service = AnalysisService(runner=_StubRunner(), search_runner=_StubSearchRunner())
            records = []
            for _ in range(2):
                records.append(await service.submit(json.dumps(study_body)))
                records.append(await service.submit_search(json.dumps(search_body)))
                for record in records:
                    await record.done_event.wait()
            return records

        records = asyncio.run(_go())
        study_key = StudySpec.from_dict(study_body).cache_key()
        search_key = SearchSpec.from_dict(search_body).cache_key()
        assert [record.cache_key for record in records] == [study_key, search_key] * 2
        assert records[2].cached and records[3].cached

    @pytest.mark.parametrize("knob", [{"workers": 2}, {"batch_size": 2}])
    def test_execution_knob_variant_is_a_hit_with_the_same_key(self, knob):
        runner = _StubRunner()
        body = _spec().to_dict()

        async def _go():
            service = AnalysisService(runner=runner)
            first = await service.submit(body)
            await first.done_event.wait()
            return first, await service.submit(dict(body, **knob))

        first, variant = asyncio.run(_go())
        assert variant.cached and variant.cache_key == first.cache_key
        assert runner.calls == 1

    def test_live_circuit_spec_is_keyed_by_its_own_content(self):
        body = {"circuit": "cello_0x0b", "n_replicates": 2, "seed": 7, "hold_time": 60.0}
        live = StudySpec.for_circuit(
            cello_circuit("0x0B", library=resolve_library("diverse")),
            n_replicates=2,
            seed=7,
            hold_time=60.0,
        )
        assert live == StudySpec.from_dict(body), "equal fields, different circuit content"
        runner = _StubRunner()

        async def _go():
            service = AnalysisService(runner=runner)
            named = await service.submit(body)
            await named.done_event.wait()
            served = await service.submit(live)
            await served.done_event.wait()
            return named, served

        named, served = asyncio.run(_go())
        assert served.cache_key == live.cache_key() != named.cache_key
        assert not served.cached and runner.specs[-1] is live

    def test_memo_stays_at_its_bound(self, monkeypatch):
        monkeypatch.setattr(app, "KEY_MEMO_SIZE", 3)
        resolved = _count_resolutions(monkeypatch)

        async def _go():
            service = AnalysisService(runner=_StubRunner())
            for seed in range(4):
                record = await service.submit(_spec(seed=seed).to_dict())
                await record.done_event.wait()
            sizes = [len(service._keys)]
            # The newest body is remembered; the oldest was evicted.
            for seed in (3, 0):
                assert (await service.submit(_spec(seed=seed).to_dict())).cached
            sizes.append(len(service._keys))
            return sizes

        assert asyncio.run(_go()) == [3, 3]
        assert len(resolved) == 5


def _request(port, method, path, body=None):
    """One HTTP request against the loopback service; returns (status, headers, json)."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        payload = None if body is None else json.dumps(body)
        connection.request(method, path, body=payload)
        response = connection.getresponse()
        return response.status, dict(response.getheaders()), json.loads(response.read())
    finally:
        connection.close()


class TestHttpService:
    """The real frontend over a loopback socket (port 0 → ephemeral)."""

    def _serve(self, exercise, **service_kwargs):
        """Start a server, run blocking ``exercise(port)`` on a thread, stop."""

        async def _go():
            server = ServiceServer(host="127.0.0.1", port=0, **service_kwargs)
            await server.start()
            try:
                return await asyncio.to_thread(exercise, server.address[1])
            finally:
                await server.stop()

        return asyncio.run(_go())

    def test_end_to_end_cache_hit_and_bit_identity(self):
        spec = _spec()

        def exercise(port):
            status, _, health = _request(port, "GET", "/v1/healthz")
            assert status == 200 and health == {"status": "ok"}

            status, _, first = _request(port, "POST", "/v1/studies?wait=1", spec.to_dict())
            assert status == 200, first
            assert first["status"] == "done" and not first["cached"]

            status, _, second = _request(port, "POST", "/v1/studies?wait=1", spec.to_dict())
            assert status == 200 and second["cached"]
            assert second["result"] == first["result"]

            status, _, fetched = _request(port, "GET", f"/v1/studies/{first['id']}")
            assert status == 200 and fetched["result"] == first["result"]

            status, _, stats = _request(port, "GET", "/v1/stats")
            assert status == 200
            assert stats["cache"]["hits"] == 1 and stats["cache"]["misses"] == 1
            assert stats["studies"]["submitted"] == 2
            return first["result"]

        served = self._serve(exercise, workers=1)
        direct = run_replicate_study(spec).to_payload()
        assert {k: v for k, v in served.items() if k != "engine"} == {
            k: v for k, v in direct.items() if k != "engine"
        }, "the service must answer bit-identically to run_replicate_study"

    def test_backpressure_maps_to_429_with_retry_after(self):
        runner = _StubRunner(blocking=True)

        def exercise(port):
            status, _, first = _request(port, "POST", "/v1/studies", _spec(seed=1).to_dict())
            assert status == 200 and first["status"] == "running"
            status, headers, body = _request(port, "POST", "/v1/studies", _spec(seed=2).to_dict())
            assert status == 429, body
            assert headers.get("Retry-After") == "1"
            runner.release()
            status, _, done = _request(port, "POST", "/v1/studies?wait=1", _spec(seed=1).to_dict())
            assert status == 200 and done["status"] == "done"

        self._serve(exercise, runner=runner, max_inflight=1)

    def test_error_mapping(self):
        def exercise(port):
            status, _, body = _request(port, "POST", "/v1/studies", {"circuit": "not", "oops": 1})
            assert status == 400 and "oops" in body["error"]

            status, _, body = _request(
                port, "POST", "/v1/studies", _spec(n_replicates=9).to_dict()
            )
            assert status == 413 and "at most 4" in body["error"]

            status, _, body = _request(port, "GET", "/v1/studies/study-999999")
            assert status == 404

            status, _, body = _request(port, "DELETE", "/v1/healthz")
            assert status == 405

            status, _, body = _request(port, "GET", "/v1/nope")
            assert status == 404

        self._serve(exercise, runner=_StubRunner(), max_replicates=4)

    def test_non_finite_number_maps_to_400(self):
        def exercise(port):
            body = dict(_spec().to_dict(), hold_time=float("nan"))
            status, _, response = _request(port, "POST", "/v1/studies", body)
            assert status == 400 and "hold_time" in response["error"]

        self._serve(exercise, runner=_StubRunner())

    def test_registry_keeps_running_records_and_the_newest_finished(self, monkeypatch):
        monkeypatch.setattr(app, "FINISHED_RECORDS", 3)
        release = threading.Event()

        def runner(spec, executor):
            if spec.seed == 0:
                assert release.wait(timeout=30), "runner was never released"
            return {"seed": spec.seed}

        service = AnalysisService(runner=runner)

        def exercise(port):
            try:
                status, _, running = _request(port, "POST", "/v1/studies", _spec(seed=0).to_dict())
                assert status == 200 and running["status"] == "running"
                finished = []
                for seed in range(1, 6):
                    status, _, body = _request(
                        port, "POST", "/v1/studies?wait=1", _spec(seed=seed).to_dict()
                    )
                    assert status == 200 and body["status"] == "done"
                    finished.append(body["id"])
                kept = [record.status for record in service._records.values()]
                assert sorted(kept) == ["done"] * 3 + ["running"]
                assert _request(port, "GET", f"/v1/studies/{finished[0]}")[0] == 404
                assert _request(port, "GET", f"/v1/studies/{finished[-1]}")[0] == 200
                status, _, still = _request(port, "GET", f"/v1/studies/{running['id']}")
                assert status == 200 and still["status"] == "running"
            finally:
                release.set()

        self._serve(exercise, service=service)

    def test_fabric_loss_maps_to_503_with_retry_after(self):
        """Losing the worker fabric mid-study is a server-side transient."""
        runner = _StubRunner(error=WorkerConnectionError("no workers joined"))

        def exercise(port):
            status, headers, body = _request(port, "POST", "/v1/studies?wait=1", _spec().to_dict())
            assert status == 503, body
            assert headers.get("Retry-After") == "5"
            assert body["status"] == "error" and "no workers joined" in body["error"]

            # The record keeps answering 503 on GET, and the service is alive.
            status, headers, fetched = _request(port, "GET", f"/v1/studies/{body['id']}")
            assert status == 503 and headers.get("Retry-After") == "5"
            assert fetched["error"] == body["error"]
            status, _, health = _request(port, "GET", "/v1/healthz")
            assert status == 200 and health == {"status": "ok"}

        self._serve(exercise, runner=runner)

    def test_non_fabric_study_errors_do_not_map_to_503(self):
        runner = _StubRunner(error=EngineError("boom"))

        def exercise(port):
            status, headers, body = _request(port, "POST", "/v1/studies?wait=1", _spec().to_dict())
            assert status == 200, body
            assert body["status"] == "error" and body["error"] == "boom"
            assert "Retry-After" not in headers

        self._serve(exercise, runner=runner)

    def test_search_routes_end_to_end(self):
        """POST /v1/search answers bit-identically to run_design_search."""
        spec = _search_spec(max_candidates=3)

        def exercise(port):
            status, _, first = _request(port, "POST", "/v1/search?wait=1", spec.to_dict())
            assert status == 200, first
            assert first["kind"] == "search" and first["status"] == "done"
            assert first["id"].startswith("search-")

            status, _, second = _request(port, "POST", "/v1/search?wait=1", spec.to_dict())
            assert status == 200 and second["cached"]
            assert second["result"] == first["result"]

            status, _, fetched = _request(port, "GET", f"/v1/search/{first['id']}")
            assert status == 200 and fetched["result"] == first["result"]
            return first["result"]

        served = self._serve(exercise, workers=1)
        direct = run_design_search(spec).to_payload()
        assert {k: v for k, v in served.items() if k != "engine"} == {
            k: v for k, v in direct.items() if k != "engine"
        }, "the service must answer bit-identically to run_design_search"

    def test_search_and_study_namespaces_are_disjoint(self):
        def exercise(port):
            status, _, study = _request(port, "POST", "/v1/studies?wait=1", _spec().to_dict())
            assert status == 200
            status, _, search = _request(
                port, "POST", "/v1/search?wait=1", _search_spec().to_dict()
            )
            assert status == 200

            # A study id is not fetchable as a search, and vice versa.
            status, _, _body = _request(port, "GET", f"/v1/search/{study['id']}")
            assert status == 404
            status, _, _body = _request(port, "GET", f"/v1/studies/{search['id']}")
            assert status == 404

        self._serve(exercise, runner=_StubRunner(), search_runner=_StubSearchRunner())

    def test_search_budget_maps_to_413(self):
        def exercise(port):
            status, _, body = _request(port, "POST", "/v1/search", _search_spec().to_dict())
            assert status == 413 and "at most 7" in body["error"]

            status, _, body = _request(port, "POST", "/v1/search", {"function": "0x8", "oops": 1})
            assert status == 400 and "oops" in body["error"]

        self._serve(
            exercise,
            runner=_StubRunner(),
            search_runner=_StubSearchRunner(),
            max_search_replicates=7,
        )
