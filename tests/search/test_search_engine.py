"""Tests for the design-space search engine.

Three properties carry the layer:

* **determinism** — one seeded spec produces a bit-identical frontier payload
  on every executor backend and batch size (the ``engine`` timing block and
  the spec's execution knobs are explicitly outside result identity);
* **refinement soundness** — the racing allocator's replicates for any
  candidate are a *prefix* of the replicates a fixed exhaustive run gives the
  same candidate, so adaptive allocation can never change a candidate's
  values, only how many of them were spent;
* **the acceptance bar** — on a 200-candidate space with kinetic variants the
  racing allocator recovers the same top-5 set as exhaustive fixed-N while
  spending at most half of its replicates.
"""

import pytest

from repro.engine import (
    DistributedEnsembleExecutor,
    ProcessPoolEnsembleExecutor,
    SerialExecutor,
)
from repro.errors import EngineError
from repro.search import SearchSpec, run_design_search
from repro.search import engine as search_engine


def small_spec(**overrides):
    """A tiny seeded search: 6 candidates, enough for structure tests."""
    fields = {
        "function": "0x8",
        "inputs": ("LacI", "TetR"),
        "library": "diverse",
        "max_candidates": 6,
        "n0": 2,
        "refine_step": 1,
        "fixed_replicates": 3,
        "top_k": 2,
        "hold_time": 20.0,
        "seed": 7,
    }
    fields.update(overrides)
    return SearchSpec(**fields)


def result_payload(frontier):
    """The frontier payload restricted to result identity: no timing block,
    no execution knobs (workers / batch size) in the echoed spec."""
    payload = frontier.to_payload()
    payload.pop("engine", None)
    for knob in ("workers", "batch_size"):
        payload["spec"].pop(knob, None)
    return payload


@pytest.fixture(scope="module")
def serial_frontier():
    return run_design_search(small_spec(), executor=SerialExecutor())


class TestFrontierShape:
    def test_ranked_and_sized(self, serial_frontier):
        entries = serial_frontier.entries
        assert [e.rank for e in entries] == list(range(1, len(entries) + 1))
        assert serial_frontier.n_candidates == 6
        assert len(serial_frontier.top(2)) == 2
        means = [e.mean_design_fitness for e in entries]
        assert means == sorted(means, reverse=True)

    def test_every_candidate_scored_at_least_n0(self, serial_frontier):
        assert all(e.n_replicates >= 2 for e in serial_frontier.entries)
        assert serial_frontier.total_replicates >= 6 * 2

    def test_payload_is_json_ready(self, serial_frontier):
        import json

        payload = serial_frontier.to_payload()
        assert payload["n_candidates"] == 6
        assert payload["allocator"] == "racing"
        assert 0 < payload["replicates_fraction"] <= 1.0
        json.dumps(payload)  # must not raise

    def test_summary_mentions_top_candidates(self, serial_frontier):
        text = serial_frontier.summary()
        assert serial_frontier.entries[0].candidate.label().split(" @")[0] in text


class TestBackendDeterminism:
    """Same spec → bit-identical frontier on every transport and batch size."""

    @pytest.mark.parametrize("batch_size", [1, 8], ids=["batch1", "batch8"])
    @pytest.mark.parametrize("backend", ["serial", "process-pool", "loopback"])
    def test_bit_identical_across_backends(self, serial_frontier, backend, batch_size):
        spec = small_spec(batch_size=batch_size)
        if backend == "serial":
            frontier = run_design_search(spec, executor=SerialExecutor())
        elif backend == "process-pool":
            with ProcessPoolEnsembleExecutor(2) as executor:
                frontier = run_design_search(spec, executor=executor)
        else:
            with DistributedEnsembleExecutor.loopback(2) as executor:
                frontier = run_design_search(spec, executor=executor)
        assert result_payload(frontier) == result_payload(serial_frontier)

    def test_repeat_run_is_bit_identical(self, serial_frontier):
        again = run_design_search(small_spec(), executor=SerialExecutor())
        assert result_payload(again) == result_payload(serial_frontier)


class TestAllocators:
    def test_fixed_spends_the_full_grid(self):
        frontier = run_design_search(small_spec(allocator="fixed"))
        assert frontier.total_replicates == 6 * 3
        assert all(e.n_replicates == 3 for e in frontier.entries)
        assert frontier.replicates_fraction == 1.0

    def test_racing_values_are_a_prefix_of_fixed(self):
        """Adaptive allocation changes how many replicates a candidate gets,
        never which values those replicates have."""
        racing = run_design_search(small_spec())
        fixed = run_design_search(small_spec(allocator="fixed"))
        fixed_by_candidate = {e.candidate: e for e in fixed.entries}
        for entry in racing.entries:
            reference = fixed_by_candidate[entry.candidate]
            n = entry.n_replicates
            assert entry.score.fitness_values == reference.score.fitness_values[:n]

    def test_racing_never_exceeds_the_exhaustive_grid(self):
        racing = run_design_search(small_spec())
        assert racing.total_replicates <= racing.exhaustive_replicates
        assert all(e.n_replicates <= 3 for e in racing.entries)

    def test_budget_caps_total_replicates(self):
        frontier = run_design_search(small_spec(budget_replicates=13))
        assert frontier.total_replicates == 13

    def test_budget_too_small_for_initial_round(self):
        with pytest.raises(EngineError):
            run_design_search(small_spec(budget_replicates=11))  # needs 6 x 2

    def test_unaffordable_search_builds_nothing(self, monkeypatch):
        """The budget is checked against the counted space before any
        circuit is built: this space holds 17,160 candidates."""
        built = []
        build_circuit = search_engine.build_circuit

        def counting(*args, **kwargs):
            built.append(args)
            return build_circuit(*args, **kwargs)

        monkeypatch.setattr(search_engine, "build_circuit", counting)
        for max_candidates in (600, None):
            spec = SearchSpec(
                function="0x0B",
                library="default",
                seed=1,
                budget_replicates=10,
                max_candidates=max_candidates,
            )
            with pytest.raises(EngineError, match="cannot fund the initial round"):
                run_design_search(spec)
        assert built == []


class TestAcceptance:
    """The PR's acceptance bar, on the tuned 200-candidate scenario."""

    BASE = {
        "function": "0x8",
        "inputs": ("LacI", "TetR"),
        "library": "diverse",
        "variants": ((), (("tu_g_nor0_cds_tu_g_nor0_p0_kmax", 1.5),)),
        "max_candidates": 200,
        "fixed_replicates": 10,
        "top_k": 5,
        "hold_time": 60.0,
        "seed": 2017,
    }

    @pytest.fixture(scope="class")
    def exhaustive(self):
        return run_design_search(SearchSpec(allocator="fixed", **self.BASE))

    @pytest.fixture(scope="class")
    def adaptive(self):
        return run_design_search(
            SearchSpec(allocator="racing", n0=2, refine_step=2, **self.BASE),
        )

    @staticmethod
    def top_set(frontier):
        return {
            (e.candidate.repressors, e.candidate.overrides)
            for e in frontier.top(5)
        }

    def test_space_uses_variants(self, exhaustive):
        assert exhaustive.n_candidates == 200
        assert any(e.candidate.overrides for e in exhaustive.entries)

    def test_same_top5_frontier(self, exhaustive, adaptive):
        assert self.top_set(adaptive) == self.top_set(exhaustive)

    def test_at_most_half_the_replicates(self, exhaustive, adaptive):
        assert exhaustive.total_replicates == 200 * 10
        assert adaptive.total_replicates <= 0.5 * exhaustive.total_replicates

    def test_adaptive_values_prefix_exhaustive(self, exhaustive, adaptive):
        fixed_by_candidate = {e.candidate: e for e in exhaustive.entries}
        for entry in adaptive.entries:
            reference = fixed_by_candidate[entry.candidate]
            n = entry.n_replicates
            assert entry.score.fitness_values == reference.score.fitness_values[:n]
