"""Statistical agreement between the exact and approximate simulators.

The logic-analysis results must not depend on which trace source is used;
these tests check that the simulators agree on the stationary statistics of a
birth-death process (where the exact answer is known: Poisson with mean
birth/death) and of independent isomerisations (binomial), and on the settled
logic levels of a genetic NOT gate.
"""

import math

import numpy as np
import pytest
from scipy import stats

from repro.sbml import Model
from repro.stochastic import (
    BACKEND_CODEGEN,
    BACKEND_INTERP,
    CompiledModel,
    InputSchedule,
    simulate_next_reaction,
    simulate_ode,
    simulate_ssa,
    simulate_tau_leap,
    spawn_rngs,
)
from repro.stochastic.sampling import make_sample_times


def birth_death_model(birth=4.0, death=0.1) -> Model:
    model = Model("birth_death")
    model.add_species("X")
    model.add_parameter("kb", birth)
    model.add_parameter("kd", death)
    model.add_reaction("birth", products=[("X", 1.0)], kinetic_law="kb")
    model.add_reaction("death", reactants=[("X", 1.0)], kinetic_law="kd * X")
    return model


def _stationary_samples(simulate, model, rng, t_end=400.0, burn_in=100.0):
    trajectory = simulate(model, t_end, sample_interval=1.0, rng=rng)
    return trajectory.slice_time(burn_in, t_end)["X"]


class TestBirthDeathAgreement:
    """Stationary distribution is Poisson(40): mean 40, variance 40."""

    @pytest.mark.parametrize(
        "simulate",
        [simulate_ssa, simulate_next_reaction, simulate_tau_leap],
    )
    def test_mean_and_variance(self, simulate):
        model = birth_death_model()
        samples = np.concatenate(
            [
                _stationary_samples(simulate, model, rng)
                for rng in spawn_rngs(99, 4)
            ],
        )
        assert samples.mean() == pytest.approx(40.0, rel=0.10)
        assert samples.var() == pytest.approx(40.0, rel=0.40)

    def test_exact_methods_agree_with_each_other(self):
        model = birth_death_model()
        direct = np.concatenate(
            [_stationary_samples(simulate_ssa, model, rng) for rng in spawn_rngs(1, 4)],
        )
        gibson = np.concatenate(
            [
                _stationary_samples(simulate_next_reaction, model, rng)
                for rng in spawn_rngs(2, 4)
            ],
        )
        assert direct.mean() == pytest.approx(gibson.mean(), rel=0.08)

    def test_ode_matches_stochastic_mean(self):
        model = birth_death_model()
        ode_level = simulate_ode(model, 400.0).value_at("X", 399.0)
        ssa_level = _stationary_samples(simulate_ssa, model, 3).mean()
        assert ode_level == pytest.approx(40.0, rel=0.02)
        assert ssa_level == pytest.approx(ode_level, rel=0.12)


class TestBirthDeathStationaryLaw:
    """Chi-square of stationary birth–death samples against the Poisson(40) pmf.

    Parity only shows that the codegen and interp backends agree with each
    other; this oracle checks the law they sample.  Samples are 50 time
    units apart after a burn-in of 100: the count's autocorrelation is
    ``exp(-kd * 50)`` = e⁻⁵ < 0.7%, so the samples are close to independent.
    Bins are fixed before anything is simulated: single counts from ``low``
    to ``high`` plus one bin per tail, every expected count at least
    ``min_expected``.
    """

    MEAN = 40.0
    BURN_IN, INTERVAL = 100.0, 50.0

    def _p_value(self, simulate, n_samples, low, high, min_expected, rng):
        edges = np.arange(low, high + 2)
        inner = n_samples * stats.poisson.pmf(np.arange(low, high + 1), self.MEAN)
        left = n_samples * stats.poisson.cdf(low - 1, self.MEAN)
        right = n_samples * stats.poisson.sf(high, self.MEAN)
        expected = np.concatenate([[left], inner, [right]])
        assert expected.min() >= min_expected

        t_end = self.BURN_IN + self.INTERVAL * (n_samples - 1)
        trajectory = simulate(birth_death_model(), t_end, sample_interval=self.INTERVAL, rng=rng)
        samples = trajectory.slice_time(self.BURN_IN, t_end)["X"]
        assert len(samples) == n_samples
        bins = np.searchsorted(edges, samples, side="right")
        observed = np.bincount(bins, minlength=len(expected))
        return stats.chisquare(observed, expected).pvalue

    @pytest.mark.parametrize(("backend", "seed"), [(BACKEND_CODEGEN, 1), (BACKEND_INTERP, 2)])
    def test_direct_method(self, backend, seed):
        def simulate(model, t_end, **kwargs):
            return simulate_ssa(CompiledModel(model, backend=backend), t_end, **kwargs)

        assert self._p_value(simulate, 1000, 28, 52, 10.0, seed) > 1e-3

    def test_next_reaction(self):
        assert self._p_value(simulate_next_reaction, 300, 30, 50, 5.0, 3) > 1e-3


def isomerisation_model(counts, forward: float, backward: float) -> Model:
    """Independent isomerisations ``A_i <-> B_i`` with all molecules starting in A."""
    model = Model("isomerisation")
    model.add_parameter("kf", forward)
    model.add_parameter("kb", backward)
    for i, count in enumerate(counts):
        model.add_species(f"A{i}", initial_amount=float(count))
        model.add_species(f"B{i}")
        model.add_reaction(
            f"forward{i}",
            reactants=[(f"A{i}", 1.0)],
            products=[(f"B{i}", 1.0)],
            kinetic_law=f"kf * A{i}",
        )
        model.add_reaction(
            f"backward{i}",
            reactants=[(f"B{i}", 1.0)],
            products=[(f"A{i}", 1.0)],
            kinetic_law=f"kb * B{i}",
        )
    return model


class TestIsomerisationOracle:
    """Five independent ``A_i <-> B_i``: each ``A_i`` is stationary
    Binomial(N_i, p) with ``p = kb / (kf + kb)``.

    Ten reactions, so the fused loop's total runs numpy's eight-accumulator
    summation path.  Each molecule flips independently, so ``A_i`` has the
    exact autocorrelation ``rho = exp(-(kf + kb) * lag)``; the tolerances
    below follow from the analytic law, that correlation and the number of
    samples the grid yields — all fixed before anything is simulated.  The
    chi-square test checks the whole pmf on samples ``LAG`` apart, where
    ``rho`` = e⁻⁵ < 0.7%, so the samples are close to independent.
    """

    COUNTS = (20, 30, 40, 50, 60)
    KF, KB = 0.3, 0.2
    T_END, BURN_IN, INTERVAL = 1000.0, 20.0, 2.0
    RUNS = 2
    #: Standard errors allowed per check (20 checks per simulator).
    Z = 4.0

    def _tolerances(self, count):
        """(mean tolerance, variance tolerance) for ``A_i`` with ``N_i = count``."""
        p = self.KB / (self.KF + self.KB)
        grid = make_sample_times(self.T_END, self.INTERVAL)
        n = self.RUNS * int((grid >= self.BURN_IN).sum())
        rho = math.exp(-(self.KF + self.KB) * self.INTERVAL)
        variance = count * p * (1.0 - p)
        # Binomial fourth central moment; squared deviations of a process
        # with autocorrelation rho decorrelate roughly as rho**2.
        mu4 = variance * (1.0 + 3.0 * (count - 2) * p * (1.0 - p))
        se_mean = math.sqrt(variance / n * (1.0 + rho) / (1.0 - rho))
        se_var = math.sqrt((mu4 - variance**2) / n * (1.0 + rho**2) / (1.0 - rho**2))
        return self.Z * se_mean, self.Z * se_var

    #: Chi-square sampling: ``SAMPLES`` per species, ``LAG`` apart after the
    #: burn-in, binned so that every bin expects at least ``MIN_EXPECTED``.
    LAG, SAMPLES, MIN_EXPECTED = 10.0, 400, 5.0

    def _bins(self, count, p):
        """Expected counts and edges of ``A_i``'s bins, fixed before
        simulating: one bin per count expected ``MIN_EXPECTED`` times or
        more, and a bin for each tail (which takes the next count too when
        it would expect fewer)."""
        pmf = self.SAMPLES * stats.binom.pmf(np.arange(count + 1), count, p)
        low, high = np.nonzero(pmf >= self.MIN_EXPECTED)[0][[0, -1]]
        low += pmf[:low].sum() < self.MIN_EXPECTED
        high -= pmf[high + 1 :].sum() < self.MIN_EXPECTED
        expected = np.concatenate([[pmf[:low].sum()], pmf[low : high + 1], [pmf[high + 1 :].sum()]])
        assert expected.min() >= self.MIN_EXPECTED
        return expected, np.arange(low, high + 2)

    @pytest.mark.parametrize(("simulate", "seed"), [(simulate_ssa, 4), (simulate_next_reaction, 5)])
    def test_binomial_law_chi_square(self, simulate, seed):
        """Pearson's statistic summed over the five independent species,
        against a chi-square with the summed degrees of freedom."""
        p = self.KB / (self.KF + self.KB)
        bins = [self._bins(count, p) for count in self.COUNTS]
        t_end = self.BURN_IN + self.LAG * (self.SAMPLES - 1)
        model = isomerisation_model(self.COUNTS, self.KF, self.KB)
        run = simulate(model, t_end, sample_interval=self.LAG, rng=seed)
        run = run.slice_time(self.BURN_IN, t_end)
        statistic, dof = 0.0, 0
        for i, (expected, edges) in enumerate(bins):
            samples = run[f"A{i}"]
            assert len(samples) == self.SAMPLES
            which = np.searchsorted(edges, samples, side="right")
            observed = np.bincount(which, minlength=len(expected))
            statistic += float(((observed - expected) ** 2 / expected).sum())
            dof += len(expected) - 1
        assert stats.chi2.sf(statistic, dof) > 1e-3

    @pytest.mark.parametrize("simulate", [simulate_ssa, simulate_next_reaction])
    def test_binomial_mean_and_variance(self, simulate):
        p = self.KB / (self.KF + self.KB)
        tolerances = [self._tolerances(count) for count in self.COUNTS]
        model = isomerisation_model(self.COUNTS, self.KF, self.KB)
        runs = [
            simulate(model, self.T_END, sample_interval=self.INTERVAL, rng=rng).slice_time(
                self.BURN_IN, self.T_END
            )
            for rng in spawn_rngs(20170662, self.RUNS)
        ]
        for i, (count, (mean_tol, var_tol)) in enumerate(zip(self.COUNTS, tolerances)):
            samples = np.concatenate([run[f"A{i}"] for run in runs])
            assert samples.mean() == pytest.approx(count * p, abs=mean_tol)
            assert samples.var() == pytest.approx(count * p * (1.0 - p), abs=var_tol)
            # Molecules are conserved per pair.
            assert all(np.all(run[f"A{i}"] + run[f"B{i}"] == count) for run in runs)


class TestNotGateAgreement:
    """All simulators must report the same ON/OFF logic levels for a NOT gate."""

    @pytest.mark.parametrize(
        "simulate",
        [simulate_ssa, simulate_next_reaction, simulate_tau_leap, simulate_ode],
    )
    def test_logic_levels(self, simulate, toy_model):
        schedule = InputSchedule().add(0.0, {"A": 0.0}).add(200.0, {"A": 40.0})
        trajectory = simulate(toy_model, 400.0, schedule=schedule, rng=5)
        on_level = trajectory.slice_time(120.0, 200.0)["Y"].mean()
        off_level = trajectory.slice_time(320.0, 400.0)["Y"].mean()
        # Same digital verdict regardless of simulator, with the paper's
        # 15-molecule threshold comfortably between the two levels.
        assert on_level > 25.0
        assert off_level < 8.0
