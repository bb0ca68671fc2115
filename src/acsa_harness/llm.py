"""Chat-completion client with content-addressed caching.

One wire shape (OpenAI-compatible chat completions) covers both
open-weight servers and proxied proprietary endpoints. Responses are
cached in an append-only directory of one JSON file per request hash,
written atomically; the replay backend reads fixture files in exactly
the cache format, which makes whole runs bit-deterministic offline.

``ChatClient.answers`` is the fetch phase of both ``acsa run`` and
``acsa warm-cache``. Only HTTP cache misses run on a thread pool, where
their network waits overlap, and only the first request of each hash.
Everything else (cache hits, repeats, replay fixtures) is answered on
the calling thread, one request at a time: reading local disk is pure
CPU, which threads would only contend for under the interpreter lock.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from collections.abc import Iterator
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing, contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Protocol, TextIO

if TYPE_CHECKING:
    import requests


class LlmError(Exception):
    pass


class AuthError(LlmError):
    pass


class RateLimited(LlmError):
    pass


class TransportError(LlmError):
    pass


class BackendRefused(LlmError):
    pass


class MissingFixture(LlmError):
    pass


class CacheCorrupt(LlmError):
    pass


# Faults that concern one request: ``ChatClient.answers`` yields them in
# place of its answer, and the run goes on. Any other exception from
# ``ChatClient.chat`` ends the run.
SAMPLE_FAULTS = (TransportError, RateLimited, BackendRefused, MissingFixture)


@dataclass(frozen=True)
class DecodeParams:
    temperature: float = 0.0
    top_p: float = 1.0
    max_output_tokens: int = 4096


@dataclass(frozen=True)
class ChatRequest:
    model_id: str
    system: str
    user: str
    params: DecodeParams = DecodeParams()
    # sha256 of canonical_json(), set by the first cache_key access
    _key: str | None = field(default=None, init=False, repr=False, compare=False)

    def as_dict(self) -> dict:
        """The request's hashed fields, as stored in a cache file."""
        return {
            "model_id": self.model_id,
            "system": self.system,
            "user": self.user,
            "params": {
                "temperature": self.params.temperature,
                "top_p": self.params.top_p,
                "max_output_tokens": self.params.max_output_tokens,
            },
        }

    def canonical_json(self) -> str:
        """Raises ValueError for an infinite or NaN decode parameter, which
        JSON cannot hold."""
        return json.dumps(
            self.as_dict(), sort_keys=True, separators=(",", ":"), ensure_ascii=True,
            allow_nan=False,
        )

    @property
    def cache_key(self) -> str:
        """Hashed once per instance; threads racing on the first access
        compute the same digest, so either write is correct."""
        key = self._key
        if key is None:
            key = hashlib.sha256(self.canonical_json().encode("utf-8")).hexdigest()
            object.__setattr__(self, "_key", key)
        return key


@dataclass(frozen=True)
class ChatResponse:
    text: str
    backend: str  # "http" | "replay" | "cache"
    latency_ms: float


@dataclass(frozen=True)
class WarmSummary:
    hits: int
    misses: int
    fetched: int
    failures: tuple[tuple[str, str], ...] = ()


class Backend(Protocol):
    name: str

    def complete(self, request: ChatRequest) -> str: ...


def _text_sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def cache_payload(request: ChatRequest, text: str) -> dict:
    return {
        "schema_version": 1,
        "request_hash": request.cache_key,
        "request": request.as_dict(),
        "response": {"text": text, "text_sha256": _text_sha256(text)},
    }


@contextmanager
def atomic_file(path: Path) -> Iterator[TextIO]:
    """A text handle on a temp file beside ``path`` that replaces ``path``
    when the block ends cleanly; on an exception the temp file is removed
    and ``path`` is left as it was."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}.{threading.get_ident()}")
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_cache_file(path: Path, request: ChatRequest, text: str) -> None:
    """Atomically persist one request/response pair in the cache format."""
    with atomic_file(path) as handle:
        handle.write(json.dumps(cache_payload(request, text), sort_keys=True, indent=1))


def read_cache_file(path: Path, expected_hash: str) -> str:
    """Load and verify one cache/fixture file, returning the response text.

    A missing file raises FileNotFoundError, which callers take as a
    cache miss or a missing fixture; any other fault reading the file,
    or a payload that fails the checks, raises CacheCorrupt.
    """
    try:
        payload = json.loads(path.read_text("utf-8"))
    except FileNotFoundError:
        raise
    except (OSError, json.JSONDecodeError) as err:
        raise CacheCorrupt(f"{path}: unreadable cache file ({err})") from err
    if not isinstance(payload, dict):
        raise CacheCorrupt(f"{path}: cache file is not a JSON object")
    if payload.get("request_hash") != expected_hash:
        raise CacheCorrupt(f"{path}: stored request hash does not match {expected_hash}")
    response = payload.get("response") or {}
    if not isinstance(response, dict):
        raise CacheCorrupt(f"{path}: stored response is not a JSON object")
    text = response.get("text")
    if not isinstance(text, str):
        raise CacheCorrupt(f"{path}: missing response text")
    if _text_sha256(text) != response.get("text_sha256"):
        raise CacheCorrupt(f"{path}: response text does not match its stored hash")
    return text


class HttpBackend:
    """OpenAI-compatible chat-completions endpoint over HTTPS.

    Rate-limit responses are retried with exponential backoff up to
    max_retries; auth failures and other refusals surface immediately.
    ``requests`` is imported here, not at module level, so that replay
    and cache-only runs never load it. Without an injected session, the
    connection pool holds ``pool_size`` connections per host, one per
    worker thread.
    """

    name = "http"

    def __init__(
        self,
        base_url: str,
        api_key: str | None = None,
        timeout: float = 120.0,
        max_retries: int = 5,
        backoff_base: float = 1.0,
        session: requests.Session | None = None,
        sleep: Callable[[float], None] = time.sleep,
        pool_size: int = 10,
    ):
        import requests
        from requests.adapters import HTTPAdapter

        self.base_url = base_url.rstrip("/")
        self.api_key = api_key
        self.timeout = timeout
        self.max_retries = max_retries
        self.backoff_base = backoff_base
        if session is None:
            session = requests.Session()
            for prefix in ("http://", "https://"):
                session.mount(prefix, HTTPAdapter(pool_maxsize=pool_size))
        self._session = session
        self._request_error = requests.RequestException
        self._sleep = sleep

    def complete(self, request: ChatRequest) -> str:
        url = f"{self.base_url}/chat/completions"
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        payload = {
            "model": request.model_id,
            "messages": [
                {"role": "system", "content": request.system},
                {"role": "user", "content": request.user},
            ],
            "temperature": request.params.temperature,
            "top_p": request.params.top_p,
            "max_tokens": request.params.max_output_tokens,
        }
        attempt = 0
        while True:
            try:
                resp = self._session.post(url, json=payload, headers=headers, timeout=self.timeout)
            except self._request_error as err:
                raise TransportError(f"request failed: {err}") from err
            if resp.status_code in (401, 403):
                raise AuthError(f"HTTP {resp.status_code} from {url}")
            if resp.status_code == 429:
                attempt += 1
                if attempt > self.max_retries:
                    raise RateLimited(f"still rate-limited after {self.max_retries} retries")
                self._sleep(self.backoff_base * 2 ** (attempt - 1))
                continue
            if 400 <= resp.status_code < 500:
                raise BackendRefused(f"HTTP {resp.status_code}: {resp.text[:200]}")
            if resp.status_code >= 500:
                raise TransportError(f"HTTP {resp.status_code} from {url}")
            try:
                body = resp.json()
                text = body["choices"][0]["message"]["content"]
            except (ValueError, KeyError, IndexError, TypeError) as err:
                raise TransportError(f"malformed completion payload: {err}") from err
            if not isinstance(text, str):
                raise TransportError("completion content is not a string")
            return text


class ReplayBackend:
    """Serves recorded responses keyed by request hash from a fixture dir."""

    name = "replay"

    def __init__(self, fixture_dir: str | Path):
        self.fixture_dir = Path(fixture_dir)

    def complete(self, request: ChatRequest) -> str:
        key = request.cache_key
        try:
            return read_cache_file(self.fixture_dir / f"{key}.json", key)
        except FileNotFoundError:
            message = f"no fixture for request hash {key} in {self.fixture_dir}"
            raise MissingFixture(message) from None


class ChatClient:
    """Cache-first chat interface, shareable across worker threads.

    ``chat`` reads the cache by request hash before any backend call and
    persists a fetched response before returning; it keeps no state
    between calls. ``answers`` sends each hash at most once at a time.
    """

    def __init__(
        self,
        backend: Backend,
        cache_dir: str | Path | None = None,
        max_concurrency: int = 4,
    ):
        self.backend = backend
        self.cache_dir = Path(cache_dir) if cache_dir else None
        self.max_concurrency = max_concurrency

    def _cache_path(self, key: str) -> Path | None:
        if self.cache_dir is None:
            return None
        return self.cache_dir / f"{key}.json"

    def _cache_lookup(self, key: str) -> str | None:
        path = self._cache_path(key)
        if path is None:
            return None
        try:
            return read_cache_file(path, key)
        except FileNotFoundError:
            return None

    def is_cached(self, request: ChatRequest) -> bool:
        """Whether the cache holds a file for ``request``, by its existence
        alone; ``chat`` still reads and verifies it."""
        path = self._cache_path(request.cache_key)
        return path is not None and path.exists()

    def chat(self, request: ChatRequest) -> ChatResponse:
        key = request.cache_key
        cached = self._cache_lookup(key)
        if cached is not None:
            return ChatResponse(cached, "cache", 0.0)
        start = time.perf_counter()
        text = self.backend.complete(request)
        latency_ms = (time.perf_counter() - start) * 1000.0
        path = self._cache_path(key)
        if path is not None:
            write_cache_file(path, request, text)
        return ChatResponse(text, self.backend.name, latency_ms)

    def _answer(self, request: ChatRequest, faults: list[BaseException] | None = None):
        """``chat(request)``, or the per-request fault it raised.

        Only pool workers pass ``faults``. A run-fatal fault there is added
        to it before it propagates, and a call dequeued after that returns
        None without sending anything. That None is never read: answers are
        read in request order and raise at the failed call, which was
        queued first.
        """
        if faults:
            return None
        try:
            return self.chat(request)
        except SAMPLE_FAULTS as err:
            return err
        except BaseException as err:
            if faults is not None:
                faults.append(err)
            raise

    def answers(self, requests: Iterable[ChatRequest]) -> Iterator[ChatResponse | LlmError]:
        """Yield one answer per request, in request order: its ChatResponse,
        or the SAMPLE_FAULTS error it raised.

        Any backend but HTTP reads the requests one at a time and answers
        each on the calling thread. An HTTP backend reads them all first and
        submits up front to a pool of ``max_concurrency`` threads each cache
        miss whose hash no earlier request has; cache hits and repeats are
        answered on the calling thread when their turn comes, a repeat after
        its first occurrence has been read. A run-fatal fault in the pool
        raises in place of the next repeat, which is then never sent. A
        run-fatal fault, or closing the generator, cancels the calls still
        queued.
        """
        if self.backend.name != "http":
            for request in requests:
                yield self._answer(request)
            return
        requests = list(requests)
        faults: list[BaseException] = []  # the pool's run-fatal fault, once raised
        # a pool starts its threads on submit, so a call with no network miss starts none
        with ThreadPoolExecutor(max_workers=self.max_concurrency) as pool:
            try:
                sent: set[str] = set()  # the hashes of the requests before this one
                futures = []
                for request in requests:
                    send = request.cache_key not in sent and not self.is_cached(request)
                    futures.append(pool.submit(self._answer, request, faults) if send else None)
                    sent.add(request.cache_key)
                read: set[str] = set()
                for i, request in enumerate(requests):
                    future, futures[i] = futures[i], None  # drop each answer once read
                    if future is not None:
                        yield future.result()
                    elif faults and request.cache_key in read:
                        raise faults[0]
                    else:
                        yield self._answer(request)
                    read.add(request.cache_key)
            except BaseException:
                pool.shutdown(wait=False, cancel_futures=True)
                raise

    def warm_cache(self, requests_in: Iterable[ChatRequest]) -> WarmSummary:
        """Fetch every miss through ``answers``; idempotent.

        Per-request faults are listed in the summary; a run-fatal fault
        cancels the queued calls and propagates, as in ``runner.run``.
        """
        unique: dict[str, ChatRequest] = {}
        for request in requests_in:
            unique.setdefault(request.cache_key, request)
        hits = 0
        failures = []
        with closing(self.answers(unique.values())) as answers:
            for key, answer in zip(unique, answers):
                if isinstance(answer, LlmError):
                    failures.append((key, f"{type(answer).__name__}: {answer}"))
                else:
                    hits += answer.backend == "cache"
        misses = len(unique) - hits
        return WarmSummary(hits, misses, misses - len(failures), tuple(failures))
