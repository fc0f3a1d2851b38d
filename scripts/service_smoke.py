"""CI smoke for ``genlogic serve``: repeat request must be a cache hit.

Starts the HTTP service on an ephemeral loopback port over the executor the
command-line flags name (default ``--workers 2``, a 2-worker pool;
``--supervise 2`` runs it over a 2-worker supervised loopback fabric).
Two malformed bodies (a non-number ``threshold``, a body that is not UTF-8)
must answer 400 and leave the server serving.  It then submits one StudySpec
twice, and asserts the repeat is answered from the content-addressed cache:
bit-identical result and wall time collapsing versus the first run.  A third
request that differs only in ``batch_size`` must hit the same entry, under
the key this process computes for the spec on its own, so the service's key
memo never changes a key's value.  Both hits are visible in ``/v1/stats``.
Finally the server is stopped with SIGTERM, and every child process it had
(the pool or fabric workers) must exit within ``CHILD_EXIT_SECONDS``;
survivors are killed and fail the smoke.

Run from the repo root with ``PYTHONPATH=src python scripts/service_smoke.py
[EXECUTOR FLAGS]``, e.g. ``--supervise 2``.
"""

import glob
import http.client
import json
import os
import re
import signal
import subprocess
import sys
import time

from repro.engine import StudySpec

SPEC = {"circuit": "and", "n_replicates": 4, "seed": 11, "hold_time": 80.0}

#: Request bodies the service must answer with 400, each with a word its
#: error names.
BAD_BODIES = [(dict(SPEC, threshold="abc"), "threshold"), (b"\xff\xfe{", "JSON")]

#: How long the server's children may take to exit after it stopped.
CHILD_EXIT_SECONDS = 10.0


def request(port, method, path, body=None):
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=300)
    try:
        payload = body if body is None or isinstance(body, bytes) else json.dumps(body)
        connection.request(method, path, body=payload)
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


def child_pids(pid):
    """The children of ``pid``, from every one of its threads' lists."""
    children = set()
    for path in glob.glob(f"/proc/{pid}/task/*/children"):
        with open(path) as handle:
            children.update(int(token) for token in handle.read().split())
    return children


def alive(pid):
    """Whether ``pid`` is a process that has not exited (zombies have)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def main(executor_flags):
    children = set()
    server = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0", *executor_flags],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    try:
        line = server.stdout.readline()
        match = re.search(r"http://127\.0\.0\.1:(\d+)", line)
        assert match, f"expected a listening line, got {line!r}"
        port = int(match.group(1))

        for body, word in BAD_BODIES:
            status, answer = request(port, "POST", "/v1/studies?wait=1", body)
            assert status == 400 and word in answer["error"], (status, answer)

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
        if "--supervise" in executor_flags:
            assert "fabric" in stats and stats["supervisor"]["alive"] >= 1, stats

        children = child_pids(server.pid)
        assert children, "the server has no child processes to check"
        server.terminate()
        server.wait(timeout=30)
        deadline = time.monotonic() + CHILD_EXIT_SECONDS
        while any(alive(pid) for pid in children) and time.monotonic() < deadline:
            time.sleep(0.1)
        survivors = sorted(pid for pid in children if alive(pid))
        assert not survivors, f"children {survivors} outlived the server after SIGTERM"
        print(
            f"service smoke OK: first run {first['wall_seconds']:.3f}s, "
            f"cache hit {repeat_wall:.3f}s, cache {stats['cache']}, "
            f"{len(children)} children exited with the server"
        )
    finally:
        if server.poll() is None:
            server.terminate()
            server.wait(timeout=30)
        for pid in children:
            if alive(pid):
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass


if __name__ == "__main__":
    main(sys.argv[1:] or ["--workers", "2"])
