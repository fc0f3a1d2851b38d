"""Shared fixtures.

Expensive artefacts (assembled circuits, seeded stochastic experiment logs)
are session-scoped: many test modules read them, none mutates them.
"""

from __future__ import annotations

import glob
import http.client
import json
import os
import re
import signal
import subprocess
import sys
import time

import pytest

import repro
from repro.core import LogicAnalyzer
from repro.gates import and_gate_circuit, cello_circuit, default_library, not_gate_circuit
from repro.sbml import Model
from repro.vlab import LogicExperiment


@pytest.fixture()
def toy_model() -> Model:
    """A minimal one-gate (NOT) reaction network built by hand.

    Input ``A`` (boundary) represses production of ``Y``; ``Y`` degrades.
    """
    model = Model("toy_not")
    model.add_compartment("cell")
    model.add_species("A", boundary_condition=True)
    model.add_species("Y")
    model.add_parameter("kmax", 4.0)
    model.add_parameter("K", 10.0)
    model.add_parameter("n", 2.5)
    model.add_parameter("kd", 0.1)
    model.add_reaction(
        "production_Y",
        products=[("Y", 1.0)],
        modifiers=["A"],
        kinetic_law="kmax * hill_rep(A, K, n)",
    )
    model.add_reaction("degradation_Y", reactants=[("Y", 1.0)], kinetic_law="kd * Y")
    return model


@pytest.fixture(scope="session")
def library():
    return default_library()


@pytest.fixture(scope="session")
def and_circuit():
    """The paper's Figure-1 AND gate, assembled once per test session."""
    return and_gate_circuit()


@pytest.fixture(scope="session")
def not_circuit():
    return not_gate_circuit()


@pytest.fixture(scope="session")
def cello_0x0b():
    """Cello circuit 0x0B (the paper's Figure 4 headline circuit)."""
    return cello_circuit("0x0B")


@pytest.fixture(scope="session")
def and_gate_log():
    """A seeded SSA experiment log of the AND gate (two sweeps, 150 tu holds)."""
    experiment = LogicExperiment.for_circuit(and_gate_circuit(), simulator="ssa")
    return experiment.run(hold_time=150.0, repeats=2, rng=20170654)


@pytest.fixture(scope="session")
def cello_0x0b_log():
    """A seeded SSA experiment log of circuit 0x0B (one sweep, 200 tu holds)."""
    circuit = cello_circuit("0x0B")
    experiment = LogicExperiment.for_circuit(circuit, simulator="ssa")
    return experiment.run(hold_time=200.0, repeats=1, rng=20170655)


@pytest.fixture(scope="session")
def standard_analyzer():
    """The paper's analysis settings: threshold 15 molecules, FOV_UD 0.25."""
    return LogicAnalyzer(threshold=15.0, fov_ud=0.25)


@pytest.fixture()
def _isolate_parent_worker_caches(monkeypatch):
    """Give a test its own worker-side compiled-model cache.

    A test that runs ``simulate_batch_payload`` or ``run_worker`` inside the
    pytest process warms the module-level worker cache, and fork-started
    pools inherit parent memory: without this, a later test's "fresh" pool
    would start warm and its cold-compile assertions would fail.  Modules
    opt in with ``pytestmark = pytest.mark.usefixtures(...)``.
    """
    import repro.engine.cache as cache_module

    monkeypatch.setattr(cache_module, "_WORKER_CACHE", cache_module.CompiledModelCache())


class ServeProcess:
    """A ``genlogic serve --port 0 FLAGS`` subprocess and a small HTTP client."""

    def __init__(self, *flags: str):
        source = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0", *flags],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env={**os.environ, "PYTHONPATH": source},
        )
        line = self.process.stdout.readline()
        match = re.search(r"http://127\.0\.0\.1:(\d+)", line)
        assert match, f"expected a listening line, got {line!r}"
        self.port = int(match.group(1))

    def request(self, method: str, path: str, body=None):
        """``(status, decoded JSON)`` of one request."""
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=120)
        try:
            connection.request(method, path, body=None if body is None else json.dumps(body))
            response = connection.getresponse()
            return response.status, json.loads(response.read())
        finally:
            connection.close()

    def run_study(self, spec):
        """POST a study and wait for it: ``(status, response)``."""
        return self.request("POST", "/v1/studies?wait=1", spec)

    def children(self):
        """The server's child processes, from every one of its threads' lists."""
        pids = set()
        for path in glob.glob(f"/proc/{self.process.pid}/task/*/children"):
            with open(path) as handle:
                pids.update(int(token) for token in handle.read().split())
        return pids

    def reaped(self, pid: int, timeout: float = 10.0) -> bool:
        """Whether child ``pid`` exits and is reaped within ``timeout`` seconds."""
        deadline = time.monotonic() + timeout
        while os.path.exists(f"/proc/{pid}"):
            if time.monotonic() >= deadline:
                return False
            time.sleep(0.02)
        return True

    def close(self) -> None:
        """Stop the server with SIGTERM, then kill any child it left behind."""
        children = self.children()
        if self.process.poll() is None:
            self.process.terminate()
        self.process.communicate(timeout=60)
        for pid in children:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass


@pytest.fixture()
def serve_process():
    """Start ``genlogic serve`` subprocesses: ``serve_process(*flags)``.

    Each server is stopped, and its leftover children killed, at teardown.
    """
    started = []

    def start(*flags: str) -> ServeProcess:
        started.append(ServeProcess(*flags))
        return started[-1]

    yield start
    for server in started:
        server.close()

