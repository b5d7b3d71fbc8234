"""Unit tests for the content-addressed store tiers."""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.errors import StoreCorruptionError, StoreError
from repro.store import (
    HTTPStore,
    LocalStore,
    TieredStore,
    default_store,
    object_digest,
    parse_store_url,
    remote_tiers,
)
from repro.store.server import make_server


@pytest.fixture
def served_store(tmp_path):
    """A LocalStore served over HTTP on an ephemeral port."""
    directory = tmp_path / "served"
    server = make_server(directory)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    try:
        yield LocalStore(directory), HTTPStore(
            f"http://{host}:{port}", timeout=5.0, cooldown=0.2
        )
    finally:
        server.shutdown()
        server.server_close()


# -- LocalStore -------------------------------------------------------------


def test_local_put_get_roundtrip(tmp_path):
    store = LocalStore(tmp_path)
    digest = store.put(b"artifact")
    assert digest == object_digest(b"artifact")
    assert store.has(digest)
    assert store.get(digest) == b"artifact"
    assert store.objects() == [digest]
    assert store.size_bytes() == len(b"artifact")


def test_local_put_is_idempotent(tmp_path):
    store = LocalStore(tmp_path)
    assert store.put(b"same") == store.put(b"same")
    assert len(store.objects()) == 1


def test_local_put_rejects_digest_mismatch(tmp_path):
    store = LocalStore(tmp_path)
    with pytest.raises(StoreError, match="mismatch"):
        store.put(b"data", "0" * 64)


def test_local_get_missing_is_none(tmp_path):
    store = LocalStore(tmp_path)
    assert store.get("0" * 64) is None
    assert not store.has("0" * 64)


def test_local_rejects_malformed_digest(tmp_path):
    store = LocalStore(tmp_path)
    with pytest.raises(StoreError, match="digest"):
        store.get("../../../etc/passwd")


def test_corrupt_object_quarantined_on_read(tmp_path):
    store = LocalStore(tmp_path)
    digest = store.put(b"good bytes")
    store._object_path(digest).write_bytes(b"bad bytes")
    with pytest.raises(StoreCorruptionError, match="verification"):
        store.get(digest)
    # The damaged file is out of the addressable layout: the next read
    # is a clean miss, and the evidence is preserved in quarantine/.
    assert store.get(digest) is None
    assert list((tmp_path / "quarantine").iterdir())
    assert store.stats.corruptions == 1


def test_refs_roundtrip_and_listing(tmp_path):
    store = LocalStore(tmp_path)
    d1 = store.put(b"one")
    d2 = store.put(b"two")
    store.set_ref("pipeline/typing-abc", d1)
    store.set_ref("ckpt/deadbeef/baseline", d2)
    assert store.get_ref("pipeline/typing-abc") == d1
    assert store.refs("pipeline") == {"pipeline/typing-abc": d1}
    assert store.refs() == {
        "pipeline/typing-abc": d1,
        "ckpt/deadbeef/baseline": d2,
    }
    assert store.get_ref("pipeline/nope") is None


def test_ref_names_validated(tmp_path):
    store = LocalStore(tmp_path)
    digest = store.put(b"x")
    for bad in ("../escape", "a//b", "", "a/../b", "sp ace"):
        with pytest.raises(StoreError, match="ref"):
            store.set_ref(bad, digest)


def test_torn_ref_is_dropped_not_trusted(tmp_path):
    store = LocalStore(tmp_path)
    store.put(b"x")
    path = tmp_path / "refs" / "pipeline" / "torn"
    path.parent.mkdir(parents=True)
    path.write_text("not-a-digest")
    assert store.get_ref("pipeline/torn") is None
    assert not path.exists()


def test_gc_drops_unreferenced_objects(tmp_path):
    store = LocalStore(tmp_path)
    live = store.put(b"live object")
    store.put(b"orphan one")
    store.put(b"orphan two!")
    store.set_ref("pipeline/live", live)
    removed, freed = store.gc()
    assert removed == 2
    assert freed == len(b"orphan one") + len(b"orphan two!")
    assert store.objects() == [live]
    assert store.get(live) == b"live object"


def test_gc_keep_set_protects_objects(tmp_path):
    store = LocalStore(tmp_path)
    kept = store.put(b"kept")
    removed, _ = store.gc(keep=[kept])
    assert removed == 0
    assert store.has(kept)


# -- HTTPStore + server -----------------------------------------------------


def test_http_roundtrip_and_refs(served_store):
    _, remote = served_store
    digest = remote.put(b"over the wire")
    assert remote.has(digest)
    assert remote.get(digest) == b"over the wire"
    assert remote.set_ref("pipeline/x", digest)
    assert remote.get_ref("pipeline/x") == digest
    assert remote.refs("pipeline") == {"pipeline/x": digest}


def test_http_404_is_negative_cached(served_store):
    _, remote = served_store
    missing = "0" * 64
    assert remote.get(missing) is None
    # Second lookup inside the cooldown is answered from the negative
    # cache (no request); then the entry expires and a fresh probe
    # still misses.
    assert remote._unavailable(missing)
    assert remote.get(missing) is None


def test_http_write_after_negative_lookup_still_lands(served_store):
    # The push/publish pattern is check-then-write: a 404 on the check
    # is negative-cached, but writes must respect only the breaker —
    # a put is exactly how a remembered miss becomes a hit.
    local, remote = served_store
    probe = HTTPStore(remote.url, timeout=5.0, cooldown=60.0)
    data = b"late arrival"
    digest = object_digest(data)
    assert not probe.has(digest)
    assert probe.get_ref("pipeline/late") is None
    assert probe.put(data, digest) == digest
    assert probe.set_ref("pipeline/late", digest)
    assert local.get(digest) == data
    assert local.get_ref("pipeline/late") == digest
    # The successful writes also cleared the remembered misses.
    assert probe.get(digest) == data
    assert probe.get_ref("pipeline/late") == digest


def test_http_server_rejects_poisoned_put(served_store):
    local, remote = served_store
    digest = object_digest(b"honest")
    req = urllib.request.Request(
        f"{remote.url}/obj/{digest}", data=b"poison", method="PUT"
    )
    with pytest.raises(urllib.error.HTTPError) as exc_info:
        urllib.request.urlopen(req, timeout=5)
    assert exc_info.value.code == 400
    assert not local.has(digest)


def test_http_server_refuses_ref_before_object(served_store):
    local, remote = served_store
    digest = object_digest(b"never uploaded")
    req = urllib.request.Request(
        f"{remote.url}/ref/pipeline/dangling",
        data=digest.encode(), method="PUT",
    )
    with pytest.raises(urllib.error.HTTPError) as exc_info:
        urllib.request.urlopen(req, timeout=5)
    assert exc_info.value.code == 409
    assert local.get_ref("pipeline/dangling") is None


def test_http_server_serves_stats(served_store):
    _, remote = served_store
    remote.put(b"counted")
    with urllib.request.urlopen(f"{remote.url}/stats", timeout=5) as resp:
        stats = json.loads(resp.read())
    assert stats["objects"] == 1


def test_dead_tier_trips_breaker_and_recovers_nothing(monkeypatch):
    dead = HTTPStore("http://127.0.0.1:9", timeout=0.2, cooldown=60.0)
    assert dead.get(object_digest(b"x")) is None
    assert dead.tripped
    assert dead.stats.errors == 1
    # Within the cooldown every operation is an instant miss — no
    # further transport errors are even attempted.
    assert dead.get_ref("pipeline/x") is None
    assert dead.put(b"y") is None
    assert not dead.set_ref("pipeline/y", object_digest(b"y"))
    assert dead.refs() == {}
    assert dead.stats.errors == 1


def test_honest_server_hides_corrupt_object(served_store):
    local, remote = served_store
    digest = remote.put(b"will be damaged")
    # Damage the object server-side, bypassing the PUT verification.
    local._object_path(digest).write_bytes(b"damaged")
    # The server verifies on read: the client sees a plain 404 and the
    # damaged file lands in the server's quarantine.
    assert remote.get(digest) is None
    assert list((local.root / "quarantine").iterdir())


def test_client_rejects_corrupt_bytes_from_dumb_server():
    """A tier that ships wrong bytes (mid-rsync directory, buggy proxy)
    is caught by the client-side re-hash, not trusted."""
    from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

    digest = object_digest(b"what was promised")

    class DumbHandler(BaseHTTPRequestHandler):
        def log_message(self, fmt, *args):
            pass

        def do_GET(self):
            body = b"something else entirely"
            self.send_response(200)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

    server = ThreadingHTTPServer(("127.0.0.1", 0), DumbHandler)
    server.daemon_threads = True
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        host, port = server.server_address[:2]
        remote = HTTPStore(f"http://{host}:{port}", timeout=5.0,
                           cooldown=60.0)
        with pytest.raises(StoreCorruptionError, match="verification"):
            remote.get(digest)
        assert remote.stats.corruptions == 1
        # Negative-cached: the tier answers miss without re-fetching.
        assert remote.get(digest) is None
    finally:
        server.shutdown()
        server.server_close()


# -- TieredStore ------------------------------------------------------------


def test_tiered_fetch_promotes_into_faster_tiers(tmp_path):
    shared = LocalStore(tmp_path / "shared")
    digest = shared.put(b"warm artifact")
    shared.set_ref("pipeline/warm", digest)
    local = LocalStore(tmp_path / "local")
    tiered = TieredStore(local=local, remotes=[shared])
    assert tiered.fetch("pipeline/warm") == b"warm artifact"
    # Promoted: local tier now holds both the object and the ref.
    assert local.get(digest) == b"warm artifact"
    assert local.get_ref("pipeline/warm") == digest
    # And the memory tier answers the repeat without touching disk.
    assert tiered.fetch("pipeline/warm") == b"warm artifact"
    assert tiered.memory_hits == 1


def test_tiered_publish_writes_all_writable_tiers(tmp_path):
    local = LocalStore(tmp_path / "local")
    shared = LocalStore(tmp_path / "shared")
    tiered = TieredStore(local=local, remotes=[shared], push_remotes=True)
    digest = tiered.publish("ckpt/abc123", b"snapshot")
    assert local.get_ref("ckpt/abc123") == digest
    assert shared.get_ref("ckpt/abc123") == digest
    assert shared.get(digest) == b"snapshot"


def test_tiered_publish_keeps_one_memory_object_per_ref(tmp_path):
    """Republishing a ref drops its previous object from the memory
    tier, so a ref published many times holds one object in memory."""
    tiered = TieredStore(local=LocalStore(tmp_path))
    for i in range(50):
        tiered.publish("ckpt/task", b"snapshot %d" % i)
    assert tiered.stats()["tiers"]["memory"]["objects"] == 1
    assert tiered.fetch("ckpt/task") == b"snapshot 49"


def test_tiered_publish_keeps_objects_other_refs_share(tmp_path):
    tiered = TieredStore(local=LocalStore(tmp_path))
    digest = tiered.publish("ckpt/a", b"shared")
    tiered.publish("ckpt/b", b"shared")
    tiered.publish("ckpt/a", b"newer")
    assert tiered.stats()["tiers"]["memory"]["objects"] == 2
    assert tiered.get_object(digest) == b"shared"
    assert tiered.memory_hits == 1


def test_tiered_corrupt_remote_falls_through(tmp_path):
    shared = LocalStore(tmp_path / "shared")
    digest = shared.put(b"payload")
    shared.set_ref("pipeline/entry", digest)
    shared._object_path(digest).write_bytes(b"flipped bits")
    tiered = TieredStore(local=LocalStore(tmp_path / "local"),
                         remotes=[shared])
    assert tiered.fetch("pipeline/entry") is None
    assert tiered.get_object(digest) is None


def test_tiered_stats_shape(tmp_path):
    tiered = TieredStore(local=LocalStore(tmp_path))
    tiered.publish("pipeline/x", b"x")
    stats = tiered.stats()
    assert "memory" in stats["tiers"]
    assert any(name.startswith("dir:") for name in stats["tiers"])


# -- configuration ----------------------------------------------------------


def test_parse_store_url_mixes_tiers(tmp_path):
    tiers = parse_store_url(
        f"http://example.invalid:1, {tmp_path}, ,https://two.invalid"
    )
    assert [type(tier).__name__ for tier in tiers] == [
        "HTTPStore", "LocalStore", "HTTPStore",
    ]


def test_default_store_unconfigured_is_none(monkeypatch):
    monkeypatch.delenv("REPRO_STORE_URL", raising=False)
    monkeypatch.delenv("REPRO_STORE_DIR", raising=False)
    assert default_store() is None


def test_default_store_rebuilt_on_env_change(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path / "a"))
    monkeypatch.delenv("REPRO_STORE_URL", raising=False)
    first = default_store()
    assert first is not None and first.local is not None
    assert default_store() is first  # cached while the env is stable
    monkeypatch.setenv("REPRO_STORE_URL", str(tmp_path / "b"))
    second = default_store()
    assert second is not first
    assert len(second.remotes) == 1
    assert remote_tiers() == second.remotes
