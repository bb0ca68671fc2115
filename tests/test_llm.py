import hashlib
import json
import threading
import time
from pathlib import Path

import pytest
import requests

from acsa_harness.llm import (
    AuthError,
    BackendRefused,
    CacheCorrupt,
    ChatClient,
    ChatRequest,
    DecodeParams,
    HttpBackend,
    MissingFixture,
    RateLimited,
    ReplayBackend,
    TransportError,
    read_cache_file,
    write_cache_file,
)
from acsa_harness.runner import RunConfig, make_backend


def make_request(user="hello", temperature=0.0, top_p=1.0):
    return ChatRequest(
        "test-model", "system text", user, DecodeParams(temperature, top_p, 256)
    )


class FakeBackend:
    """Counts its calls and the most that ran at once. Named ``http``, it
    takes ``ChatClient.answers`` onto the worker pool. While counted as
    running, a call sleeps ``delay`` seconds and then waits at ``barrier``,
    if one is set."""

    def __init__(self, reply="reply text", name="fake"):
        self.reply = reply
        self.name = name
        self.calls = 0
        self.concurrent = 0
        self.max_concurrent = 0
        self._lock = threading.Lock()
        self.delay = 0.0
        self.barrier = None

    def complete(self, request):
        with self._lock:
            self.calls += 1
            self.concurrent += 1
            self.max_concurrent = max(self.max_concurrent, self.concurrent)
        try:
            if self.delay:
                time.sleep(self.delay)
            if self.barrier is not None:
                self.barrier.wait(timeout=5)
        finally:
            with self._lock:
                self.concurrent -= 1
        return f"{self.reply}:{request.user}"


class TestRequestHashing:
    def test_cache_key_is_deterministic(self):
        assert make_request().cache_key == make_request().cache_key

    def test_cache_key_covers_all_fields(self):
        base = make_request()
        assert base.cache_key != make_request(user="other").cache_key
        assert base.cache_key != ChatRequest("m2", "system text", "hello", base.params).cache_key
        assert base.cache_key != make_request(temperature=0.5).cache_key

    def test_cache_key_is_hashed_once_and_not_compared(self):
        request = make_request()
        key = request.cache_key
        assert key == hashlib.sha256(request.canonical_json().encode("utf-8")).hexdigest()
        assert request.cache_key is key  # stored, not recomputed
        fresh = make_request()  # key not yet computed
        assert fresh == request and hash(fresh) == hash(request)
        assert "_key" not in repr(request)

    @pytest.mark.parametrize("temperature", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_parameter_is_refused(self, temperature):
        # JSON has no Infinity or NaN; the request would hash a non-JSON token
        request = make_request(temperature=temperature)
        with pytest.raises(ValueError, match="not JSON compliant"):
            request.canonical_json()
        with pytest.raises(ValueError, match="not JSON compliant"):
            request.cache_key

    def test_greedy_preset(self):
        params = DecodeParams()
        assert (params.temperature, params.top_p) == (0.0, 1.0)


class TestChatClient:
    def test_cache_round_trip(self, tmp_path):
        backend = FakeBackend()
        client = ChatClient(backend, cache_dir=tmp_path / "cache")
        request = make_request()
        first = client.chat(request)
        second = client.chat(request)
        assert first.text == second.text == "reply text:hello"
        assert first.backend == "fake"
        assert second.backend == "cache"
        assert backend.calls == 1

    def test_no_cache_dir_calls_backend_each_time(self):
        backend = FakeBackend()
        client = ChatClient(backend)
        client.chat(make_request())
        client.chat(make_request())
        assert backend.calls == 2

    def test_cache_soundness_checked_on_read(self, tmp_path):
        backend = FakeBackend()
        cache = tmp_path / "cache"
        client = ChatClient(backend, cache_dir=cache)
        request = make_request()
        client.chat(request)
        path = cache / f"{request.cache_key}.json"
        payload = json.loads(path.read_text("utf-8"))
        payload["response"]["text"] = "tampered"
        path.write_text(json.dumps(payload), "utf-8")
        with pytest.raises(CacheCorrupt):
            client.chat(request)

    def test_directory_at_cache_path_is_corrupt(self, tmp_path):
        request = make_request()
        (tmp_path / "cache" / f"{request.cache_key}.json").mkdir(parents=True)
        backend = FakeBackend()
        with pytest.raises(CacheCorrupt):
            ChatClient(backend, cache_dir=tmp_path / "cache").chat(request)
        assert backend.calls == 0

    @pytest.mark.parametrize(
        "body", ["[]", "null", '"x"', '{"request_hash": "abc", "response": [1]}']
    )
    def test_json_that_is_not_a_cache_object_is_corrupt(self, tmp_path, body):
        path = tmp_path / "abc.json"
        path.write_text(body, "utf-8")
        with pytest.raises(CacheCorrupt, match="is not a JSON object") as caught:
            read_cache_file(path, "abc")
        assert str(caught.value).startswith(f"{path}: ")

    def test_cache_file_that_is_not_utf8_is_corrupt(self, tmp_path):
        backend = FakeBackend()
        client = ChatClient(backend, cache_dir=tmp_path / "cache")
        request = make_request()
        client.chat(request)
        path = tmp_path / "cache" / f"{request.cache_key}.json"
        path.write_bytes(path.read_bytes().replace(b"reply text", b"r\xe9ply text"))
        with pytest.raises(CacheCorrupt) as caught:
            client.chat(request)
        offset = path.read_bytes().index(b"\xe9")
        assert str(caught.value) == (
            f"{path}: not UTF-8: invalid continuation byte at byte offset {offset}"
        )
        assert backend.calls == 1

    def test_file_gone_after_an_existence_check_is_a_miss(self, tmp_path, monkeypatch):
        # every existence check says yes, as if the file was removed after
        # it; the lookup opens the file and takes its absence as a miss
        monkeypatch.setattr(Path, "exists", lambda self, **kwargs: True)
        backend = FakeBackend()
        client = ChatClient(backend, cache_dir=tmp_path / "cache")
        assert client.chat(make_request()).backend == "fake"
        assert backend.calls == 1

    def test_request_coalescing(self, tmp_path):
        backend = FakeBackend(name="http")
        backend.delay = 0.05
        client = ChatClient(backend, cache_dir=tmp_path / "cache", max_concurrency=8)
        answers = list(client.answers([make_request() for _ in range(8)]))
        assert backend.calls == 1  # a repeated hash is not sent to the pool
        assert [answer.backend for answer in answers] == ["http"] + ["cache"] * 7
        assert {answer.text for answer in answers} == {"reply text:hello"}

    def test_repeat_of_a_failed_call_is_sent_again(self, tmp_path):
        backend = FakeBackend(name="http")
        complete = backend.complete
        tries = []

        def fail_first(request):
            tries.append(request.user)
            if len(tries) == 1:
                raise TransportError("down")
            return complete(request)

        backend.complete = fail_first
        client = ChatClient(backend, cache_dir=tmp_path / "cache", max_concurrency=8)
        first, again, third = client.answers([make_request() for _ in range(3)])
        assert isinstance(first, TransportError)
        assert (again.backend, again.text, third.backend) == ("http", "reply text:hello", "cache")
        assert tries == ["hello", "hello"]

    def test_one_call_per_hash_at_a_time_without_cache(self):
        # with no cache each repeat is a call of its own, made only once
        # the call before it has been read
        backend = FakeBackend(name="http")
        backend.delay = 0.02
        client = ChatClient(backend, max_concurrency=8)
        answers = list(client.answers([make_request() for _ in range(8)]))
        assert [answer.backend for answer in answers] == ["http"] * 8
        assert backend.calls == 8
        assert backend.max_concurrent == 1

    def test_repeats_hold_no_pool_thread(self, tmp_path):
        # [a, a, a, b] at concurrency 2: b's call runs beside a's, for the
        # repeats of a wait on no worker; a repeat that took the second
        # worker would leave the barrier one call short
        backend = FakeBackend(name="http")
        backend.barrier = threading.Barrier(2)
        client = ChatClient(backend, cache_dir=tmp_path / "cache", max_concurrency=2)
        requests_list = [make_request("a")] * 3 + [make_request("b")]
        answers = list(client.answers(requests_list))
        assert [answer.backend for answer in answers] == ["http", "cache", "cache", "http"]
        assert backend.calls == 2
        assert backend.max_concurrent == 2

    def test_repeat_is_not_sent_after_a_pool_fault(self):
        # [a, a, b] at concurrency 2 with no cache: b's call fails run-fatally
        # while a's is in flight, and a's call returns only once b's fault
        # has left the worker; the repeat of a must raise that fault unsent
        posted = []
        b_failed = threading.Event()

        class Backend:
            name = "http"

            def complete(self, request):
                posted.append(request.user)
                if request.user == "b":
                    raise AuthError("HTTP 401")
                assert b_failed.wait(timeout=5)
                return "[]"

        class Client(ChatClient):
            def _answer(self, request, *pool):
                try:
                    return super()._answer(request, *pool)
                finally:
                    if request.user == "b":
                        b_failed.set()

        client = Client(Backend(), max_concurrency=2)
        answers = client.answers([make_request("a"), make_request("a"), make_request("b")])
        assert next(answers).text == "[]"
        with pytest.raises(AuthError):
            next(answers)
        assert posted == ["a", "b"]

    def test_distinct_requests_run_concurrently(self, tmp_path):
        backend = FakeBackend()
        backend.delay = 0.05
        client = ChatClient(backend, cache_dir=tmp_path / "cache")
        threads = [
            threading.Thread(target=client.chat, args=(make_request(user=f"u{i}"),))
            for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert backend.calls == 4
        assert backend.max_concurrent > 1

    def test_is_cached_checks_file_existence(self, tmp_path):
        request = make_request()
        client = ChatClient(FakeBackend(), cache_dir=tmp_path / "cache")
        assert not client.is_cached(request)
        client.chat(request)
        assert client.is_cached(request)
        assert not ChatClient(FakeBackend()).is_cached(request)  # no cache dir

    def test_warm_cache_summary(self, tmp_path):
        backend = FakeBackend()
        client = ChatClient(backend, cache_dir=tmp_path / "cache")
        requests_list = [make_request(user=f"u{i}") for i in range(4)]
        client.chat(requests_list[0])
        summary = client.warm_cache(requests_list + [requests_list[1]])
        assert summary.hits == 1
        assert summary.misses == 3
        assert summary.fetched == 3
        assert summary.failures == ()
        again = client.warm_cache(requests_list)
        assert again.hits == 4
        assert again.misses == 0


class TestReplayBackend:
    def test_serves_fixture(self, tmp_path):
        request = make_request()
        write_cache_file(tmp_path / f"{request.cache_key}.json", request, "canned output")
        client = ChatClient(ReplayBackend(tmp_path))
        response = client.chat(request)
        assert response.text == "canned output"
        assert response.backend == "replay"

    def test_missing_fixture(self, tmp_path):
        client = ChatClient(ReplayBackend(tmp_path))
        with pytest.raises(MissingFixture):
            client.chat(make_request())

    def test_fixture_gone_after_an_existence_check_is_missing(self, tmp_path, monkeypatch):
        monkeypatch.setattr(Path, "exists", lambda self, **kwargs: True)
        with pytest.raises(MissingFixture):
            ChatClient(ReplayBackend(tmp_path)).chat(make_request())

    def test_directory_at_fixture_path_is_corrupt(self, tmp_path):
        request = make_request()
        (tmp_path / f"{request.cache_key}.json").mkdir()
        with pytest.raises(CacheCorrupt):
            ChatClient(ReplayBackend(tmp_path)).chat(request)

    def test_fixture_format_is_cache_format(self, tmp_path):
        request = make_request()
        backend = FakeBackend()
        cache = tmp_path / "cache"
        ChatClient(backend, cache_dir=cache).chat(request)
        replay = ChatClient(ReplayBackend(cache))
        assert replay.chat(request).text == "reply text:hello"


class FakeResponse:
    def __init__(self, status_code, payload=None, text=""):
        self.status_code = status_code
        self._payload = payload
        self.text = text or (json.dumps(payload) if payload else "")

    def json(self):
        if self._payload is None:
            raise ValueError("no json")
        return self._payload


class FakeSession:
    def __init__(self, responses):
        self.responses = list(responses)
        self.posts = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.posts.append({"url": url, "json": json, "headers": headers})
        result = self.responses.pop(0)
        if isinstance(result, Exception):
            raise result
        return result


def _ok_payload(text="hi"):
    return {"choices": [{"message": {"content": text}}]}


class TestHttpBackend:
    def test_success_and_payload_shape(self):
        session = FakeSession([FakeResponse(200, _ok_payload("done"))])
        backend = HttpBackend("http://unit.test/v1", api_key="k", session=session)
        assert backend.complete(make_request()) == "done"
        post = session.posts[0]
        assert post["url"] == "http://unit.test/v1/chat/completions"
        assert post["headers"]["Authorization"] == "Bearer k"
        body = post["json"]
        assert body["model"] == "test-model"
        assert body["messages"][0] == {"role": "system", "content": "system text"}
        assert body["messages"][1] == {"role": "user", "content": "hello"}
        assert body["temperature"] == 0.0
        assert body["max_tokens"] == 256

    def test_auth_error(self):
        session = FakeSession([FakeResponse(401)])
        backend = HttpBackend("http://unit.test", session=session)
        with pytest.raises(AuthError):
            backend.complete(make_request())

    def test_rate_limit_retries_with_backoff(self):
        session = FakeSession(
            [FakeResponse(429), FakeResponse(429), FakeResponse(200, _ok_payload())]
        )
        sleeps = []
        backend = HttpBackend(
            "http://unit.test", session=session, sleep=sleeps.append, backoff_base=0.5
        )
        assert backend.complete(make_request()) == "hi"
        assert sleeps == [0.5, 1.0]

    def test_rate_limit_surfaces_after_cap(self):
        session = FakeSession([FakeResponse(429)] * 4)
        backend = HttpBackend(
            "http://unit.test", session=session, sleep=lambda s: None, max_retries=3
        )
        with pytest.raises(RateLimited):
            backend.complete(make_request())

    def test_backend_refused(self):
        session = FakeSession([FakeResponse(400, text="context too long")])
        backend = HttpBackend("http://unit.test", session=session)
        with pytest.raises(BackendRefused):
            backend.complete(make_request())

    def test_server_error_is_transport(self):
        session = FakeSession([FakeResponse(500)])
        backend = HttpBackend("http://unit.test", session=session)
        with pytest.raises(TransportError):
            backend.complete(make_request())

    def test_connection_error_is_transport(self):
        session = FakeSession([requests.ConnectionError("boom")])
        backend = HttpBackend("http://unit.test", session=session)
        with pytest.raises(TransportError):
            backend.complete(make_request())

    def test_pool_sized_to_concurrency(self):
        backend = HttpBackend("http://unit.test", pool_size=16)
        for prefix in ("http://x", "https://x"):
            assert backend._session.get_adapter(prefix)._pool_maxsize == 16

    def test_injected_session_left_untouched(self):
        session = FakeSession([])
        backend = HttpBackend("http://unit.test", session=session, pool_size=16)
        assert backend._session is session
        assert vars(session) == {"responses": [], "posts": []}

    def test_make_backend_passes_concurrency(self):
        config = RunConfig(backend="http", base_url="http://unit.test", concurrency=24)
        backend = make_backend(config)
        assert backend._session.get_adapter("https://x")._pool_maxsize == 24

    def test_malformed_payload_is_transport(self):
        session = FakeSession([FakeResponse(200, {"choices": []})])
        backend = HttpBackend("http://unit.test", session=session)
        with pytest.raises(TransportError):
            backend.complete(make_request())
