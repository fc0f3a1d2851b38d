"""CI smoke for ``genlogic serve``: repeat request must be a cache hit.

Starts the HTTP service over a 2-worker pool on an ephemeral loopback port,
submits one StudySpec twice, and asserts the repeat is answered from the
content-addressed cache: bit-identical result and wall time collapsing
versus the first run.  A third request that differs only in ``batch_size``
must hit the same entry, under the key this process computes for the spec
on its own, so the service's key memo never changes a key's value.  Both
hits are visible in ``/v1/stats``.

Run from the repo root with ``PYTHONPATH=src python scripts/service_smoke.py``.
"""

import http.client
import json
import re
import subprocess
import sys
import time

from repro.engine import StudySpec

SPEC = {"circuit": "and", "n_replicates": 4, "seed": 11, "hold_time": 80.0}


def request(port, method, path, body=None):
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=300)
    try:
        connection.request(method, path, body=None if body is None else json.dumps(body))
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


def main():
    server = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0", "--workers", "2"],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    try:
        line = server.stdout.readline()
        match = re.search(r"http://127\.0\.0\.1:(\d+)", line)
        assert match, f"expected a listening line, got {line!r}"
        port = int(match.group(1))

        status, first = request(port, "POST", "/v1/studies?wait=1", SPEC)
        assert status == 200 and first["status"] == "done", first
        assert not first["cached"], first

        start = time.monotonic()
        status, second = request(port, "POST", "/v1/studies?wait=1", SPEC)
        repeat_wall = time.monotonic() - start
        assert status == 200 and second["cached"], second
        assert second["result"] == first["result"], "cache hit must be bit-identical"
        assert repeat_wall < first["wall_seconds"], (
            f"cache hit took {repeat_wall:.3f}s vs first run {first['wall_seconds']:.3f}s"
        )

        status, variant = request(port, "POST", "/v1/studies?wait=1", dict(SPEC, batch_size=2))
        assert status == 200 and variant["cached"], variant
        assert variant["cache_key"] == second["cache_key"], variant
        assert variant["cache_key"] == StudySpec(**SPEC).cache_key(), (
            "the service's key differs from the one computed in this process"
        )

        status, stats = request(port, "GET", "/v1/stats")
        assert status == 200 and stats["cache"]["hits"] == 2, stats
        print(
            f"service smoke OK: first run {first['wall_seconds']:.3f}s, "
            f"cache hit {repeat_wall:.3f}s, cache {stats['cache']}"
        )
    finally:
        server.terminate()
        server.wait(timeout=30)


if __name__ == "__main__":
    main()
