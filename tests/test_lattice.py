"""Coherent-chain discretization: action, exact reduction, convergence, MC."""

import math
import warnings

import numpy as np
import pytest

from statepath import (
    CoherentChainProblem,
    PathLattice,
    TimeGrid,
    analytic_propagator,
    chain_reduce_exact,
    convergence_csv,
    convergence_study,
    discrete_action,
    loglog_slope,
    monte_carlo_estimate,
    z_mode_factor,
)
from statepath.lattice import MAX_MC_STEPS, MIN_MC_SAMPLES, ActionValue


# -------------------------------------------------------------------- TimeGrid

def test_grid_basic_quantities():
    grid = TimeGrid(0.5, 2.5, 4)
    assert grid.duration == 2.0
    assert grid.dt == 0.5
    np.testing.assert_allclose(grid.times(), [0.5, 1.0, 1.5, 2.0, 2.5])


def test_grid_rejects_reversed_interval():
    with pytest.raises(ValueError, match="t_end"):
        TimeGrid(1.0, 1.0, 3)


def test_grid_rejects_an_overflowing_duration():
    with pytest.raises(ValueError, match="t_end - t_start must be finite"):
        TimeGrid(-1e308, 1e308, 4)


def test_grid_rejects_non_integer_steps():
    for bad in (2.0, 0, True, False, np.int64(0), np.float64(2.0)):
        with pytest.raises(ValueError, match="steps must be an integer"):
            TimeGrid(0.0, 1.0, bad)


@pytest.mark.parametrize("t_start, t_end", [(False, True), (0.0, True), (False, 1.0)])
def test_grid_rejects_boolean_endpoints(t_start, t_end):
    with pytest.raises(ValueError, match="must be a finite real"):
        TimeGrid(t_start, t_end, 1)


def test_grid_takes_integer_endpoints():
    assert TimeGrid(0, 2, 4).dt == 0.5


@pytest.mark.parametrize("steps", [np.int64(4), np.int32(1), np.uint8(3)])
def test_grid_takes_numpy_integer_steps(steps):
    grid = TimeGrid(0.0, 1.0, steps)
    assert type(grid.steps) is int and grid.steps == steps
    assert grid == TimeGrid(0.0, 1.0, int(steps))


# ----------------------------------------------------------------- PathLattice

def test_lattice_pins_the_boundaries_exactly():
    grid = TimeGrid(0.0, 1.0, 5)
    start = np.array([0.2 + 0.1j, -0.4j])
    end = np.array([1.0 + 0.0j, 0.3 - 0.3j])
    path = PathLattice.pinned(grid, start, end)
    assert np.array_equal(path.coefficients[:, 0], start)
    assert np.array_equal(path.coefficients[:, -1], end)
    assert path.modes == 2


def test_lattice_default_interior_is_linear():
    path = PathLattice.pinned(TimeGrid(0.0, 1.0, 4), [0.0], [1.0])
    np.testing.assert_allclose(path.coefficients[0], [0.0, 0.25, 0.5, 0.75, 1.0])


def test_lattice_promotes_single_mode_input():
    path = PathLattice(TimeGrid(0.0, 1.0, 2), [1.0, 2.0, 3.0])
    assert path.coefficients.shape == (1, 3)


def test_lattice_interior_may_leave_the_unit_disc():
    # interior coefficients are unconstrained in magnitude
    path = PathLattice(TimeGrid(0.0, 1.0, 2), [1.0, 50.0 + 50.0j, 1.0])
    assert abs(path.coefficients[0, 1]) > 1.0


def test_lattice_rejects_wrong_interior_shape():
    with pytest.raises(ValueError, match="interior"):
        PathLattice.pinned(TimeGrid(0.0, 1.0, 4), [0.0], [1.0], np.zeros((1, 2)))


def test_lattice_rejects_wrong_column_count():
    with pytest.raises(ValueError, match="columns"):
        PathLattice(TimeGrid(0.0, 1.0, 3), [1.0, 2.0, 3.0])


def test_action_value_rejects_nonfinite():
    with pytest.raises(ValueError, match="finite"):
        ActionValue(complex(np.inf, 0.0))


# ------------------------------------------------------------- discrete_action

def test_action_constant_path_without_energy():
    path = PathLattice(TimeGrid(0.0, 2.0, 5), np.full(6, 0.7 - 0.2j))
    assert discrete_action(path, 0.0).value == 0.0


def test_action_constant_path_keeps_only_the_energy_term():
    z = 0.3 + 0.4j
    grid = TimeGrid(0.0, 2.0, 5)
    path = PathLattice(grid, np.full(6, z))
    expected = -1j * grid.steps * grid.dt * 1.5 * abs(z) ** 2
    assert abs(discrete_action(path, 1.5).value - expected) <= 1e-15


def test_action_two_slice_hand_evaluation():
    # independent slice-by-slice oracle with scalar arithmetic
    rng = np.random.default_rng(3)
    z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    grid = TimeGrid(0.0, 1.0, 2)
    energy, hbar = 1.3, 0.7
    expected = 0.0 + 0.0j
    for j in range(2):
        zl, zr = complex(z[j]), complex(z[j + 1])
        expected += (zr.conjugate() - zl.conjugate()) * zl / 2
        expected -= zr.conjugate() * (zr - zl) / 2
        expected -= 1j * grid.dt / hbar * energy * zr.conjugate() * zl
    value = discrete_action(PathLattice(grid, z), energy, hbar=hbar).value
    assert abs(value - expected) <= 1e-15


def test_action_sums_over_modes():
    grid = TimeGrid(0.0, 1.0, 3)
    rng = np.random.default_rng(8)
    coeffs = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
    both = discrete_action(PathLattice(grid, coeffs), [1.0, 2.0]).value
    separate = (
        discrete_action(PathLattice(grid, coeffs[0]), 1.0).value
        + discrete_action(PathLattice(grid, coeffs[1]), 2.0).value
    )
    assert abs(both - separate) <= 1e-14


def test_action_rejects_nonfinite_energy():
    path = PathLattice(TimeGrid(0.0, 1.0, 1), [1.0, 2.0])
    with pytest.raises(ValueError, match="non-finite"):
        discrete_action(path, np.inf)


# ---------------------------------------------------------- chain_reduce_exact

def test_chain_single_slice_is_the_boundary_term():
    prob = CoherentChainProblem(0.2 + 0.1j, 0.5 - 0.3j, 0.8, TimeGrid(0.0, 1.0, 1))
    c = 1.0 - 1j * 0.8 * 1.0
    expected = math.exp(-0.5 * (abs(prob.zf) ** 2 + abs(prob.z0) ** 2)) * np.exp(
        c * np.conj(prob.zf) * prob.z0
    )
    assert abs(chain_reduce_exact(prob) - expected) <= 1e-15


def test_chain_without_energy_is_the_coherent_overlap():
    for steps in (1, 2, 7, 40):
        prob = CoherentChainProblem(0.6, 0.1 + 0.8j, 0.0, TimeGrid(0.0, 2.0, steps))
        expected = np.exp(-0.5 * (abs(prob.zf) ** 2 + abs(prob.z0) ** 2)) * np.exp(
            np.conj(prob.zf) * prob.z0
        )
        assert abs(chain_reduce_exact(prob) - expected) <= 1e-14


def test_chain_coupling_follows_the_complex_power_law():
    # ten slices of unit drive: coupling must be (1 - 0.1i)^10, checked
    # against an independently computed power
    prob = CoherentChainProblem(1.0, 1.0, 1.0, TimeGrid(0.0, 1.0, 10))
    expected = math.exp(-1.0) * np.exp((1.0 - 0.1j) ** 10)
    assert abs(chain_reduce_exact(prob) - expected) <= 1e-15


def _chain_reduce_by_loop(problem):
    """The reference fold: one Python complex product per slice."""
    c = 1.0 - 1j * problem.energy * problem.grid.dt / problem.hbar
    coupling = c
    for _ in range(problem.grid.steps - 1):
        coupling *= c
    boundary = np.exp(-0.5 * (abs(problem.zf) ** 2 + abs(problem.z0) ** 2))
    return complex(boundary * np.exp(coupling * np.conj(problem.zf) * problem.z0))


# one chunk of the vectorized fold is 2^14 slices: cover both sides of its seams
@pytest.mark.parametrize("steps", [1, 2, 3, 16384, 16385, 32769, 10**6])
@pytest.mark.parametrize("energy", [1.3, -0.7])
@pytest.mark.parametrize("hbar", [1.0, 2.5])
def test_chain_fold_has_the_bits_of_the_slice_loop(steps, energy, hbar):
    prob = CoherentChainProblem(0.45 - 0.3j, -0.2 + 0.6j, energy, TimeGrid(0.0, 1.7, steps), hbar)
    assert chain_reduce_exact(prob) == _chain_reduce_by_loop(prob)


@pytest.mark.parametrize("z0, energy, steps", [(1.0, 1e300, 10), (1.0, 1e10, 100),
                                               (0.0, 1e300, 10)])
def test_chain_reduction_refuses_an_overflowing_coupling(z0, energy, steps):
    problem = CoherentChainProblem(z0, 0.5 + 0.5j, energy, TimeGrid(0.0, 1.0, steps))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=rf"not finite at N = {steps} for energy .*"
                                             r"t_end - t_start .* hbar"):
            chain_reduce_exact(problem)


# --------------------------------------------------------- analytic_propagator

def test_propagator_zero_duration_limit():
    # E = 0 makes every duration equivalent to the plain overlap
    prob = CoherentChainProblem(0.4 - 0.2j, 0.9, 0.0, TimeGrid(0.0, 3.0, 5))
    expected = np.exp(-0.5 * (abs(prob.zf) ** 2 + abs(prob.z0) ** 2)) * np.exp(
        np.conj(prob.zf) * prob.z0
    )
    assert abs(analytic_propagator(prob) - expected) <= 1e-16


def test_propagator_vanishing_start():
    prob = CoherentChainProblem(0.0, 0.7 + 0.1j, 2.0, TimeGrid(0.0, 1.0, 4))
    assert abs(analytic_propagator(prob) - math.exp(-0.5 * abs(prob.zf) ** 2)) <= 1e-16


def test_propagator_half_period_unit_boundaries():
    prob = CoherentChainProblem(1.0, 1.0, 1.0, TimeGrid(0.0, math.pi, 3))
    assert abs(analytic_propagator(prob) - math.exp(-2.0)) <= 1e-15


def test_propagator_matches_mode_factor_bitwise():
    # same formula, same floating-point expression: the identity is exact
    cases = [
        (0.3 + 0.4j, -0.1 + 0.9j, 1.7, 0.0, 2.2, 1.0),
        (1.0, 1.0, 1.0, 0.5, 1.5, 1.0),
        (0.2 - 0.6j, 0.8j, -0.9, 0.0, 3.0, 2.0),
    ]
    for z0, zf, energy, t0, t1, hbar in cases:
        prob = CoherentChainProblem(z0, zf, energy, TimeGrid(t0, t1, 6), hbar=hbar)
        assert analytic_propagator(prob) == z_mode_factor(z0, zf, energy, t1 - t0, hbar)


# ----------------------------------------------------------- convergence study

def test_convergence_exact_for_free_chain():
    prob = CoherentChainProblem(0.4 + 0.2j, -0.3 + 0.5j, 0.0, TimeGrid(0.0, 1.0, 10))
    rows = convergence_study(prob, [10, 100])
    assert all(err <= 1e-14 for _, err in rows)


def test_convergence_errors_strictly_decrease():
    prob = CoherentChainProblem(1.0, 1.0, 1.0, TimeGrid(0.0, 1.0, 10))
    rows = convergence_study(prob, [10, 100, 1000])
    errs = [err for _, err in rows]
    assert errs[0] > errs[1] > errs[2] > 0.0


def test_convergence_is_first_order():
    prob = CoherentChainProblem(1.0, 1.0, 1.0, TimeGrid(0.0, 1.0, 10))
    rows = convergence_study(prob, [10, 100, 1000, 10000])
    slope = loglog_slope(rows)
    assert -1.15 <= slope <= -0.85
    assert rows[-1][1] <= 1e-3


def test_convergence_rejects_unsorted_slice_counts():
    prob = CoherentChainProblem(1.0, 1.0, 1.0, TimeGrid(0.0, 1.0, 10))
    with pytest.raises(ValueError, match="ascending"):
        convergence_study(prob, [100, 10])


def test_slope_fit_rejects_exact_rows():
    with pytest.raises(ValueError, match="positive"):
        loglog_slope([(10, 0.0), (100, 0.0)])
    with pytest.raises(ValueError, match="two rows"):
        loglog_slope([(10, 1.0)])


def test_convergence_csv_round_trips():
    rows = [(10, 0.032777754028057306), (100, 1.0 / 3.0)]
    text = convergence_csv(rows)
    lines = text.splitlines()
    assert lines[0] == "N,abs_error"
    assert len(lines) == 3
    assert text.endswith("\n")
    for line, (n, err) in zip(lines[1:], rows):
        ns, es = line.split(",")
        assert int(ns) == n
        assert float(es) == err  # 17 significant digits: lossless


# ----------------------------------------------------------------- monte carlo

def test_mc_single_slice_is_exact():
    prob = CoherentChainProblem(0.2 + 0.1j, 0.5, 0.8, TimeGrid(0.0, 1.0, 1))
    estimate, stderr = monte_carlo_estimate(prob, 2000, 7)
    assert stderr == 0.0
    assert abs(estimate - chain_reduce_exact(prob)) <= 1e-15


def test_mc_free_chain_two_slices():
    prob = CoherentChainProblem(0.3, 0.4 + 0.5j, 0.0, TimeGrid(0.0, 1.0, 2))
    estimate, stderr = monte_carlo_estimate(prob, 100_000, 0)
    assert stderr > 0.0
    assert abs(estimate - chain_reduce_exact(prob)) <= 3.0 * stderr


def test_mc_driven_chain_three_slices():
    prob = CoherentChainProblem(1.0, 1.0, 1.0, TimeGrid(0.0, 1.0, 3))
    estimate, stderr = monte_carlo_estimate(prob, 100_000, 11)
    assert abs(estimate - chain_reduce_exact(prob)) <= 3.0 * stderr


def test_mc_is_deterministic_per_triple():
    prob = CoherentChainProblem(0.5 + 0.3j, -0.2 + 0.6j, 1.0, TimeGrid(0.0, 1.0, 3))
    assert monte_carlo_estimate(prob, 10_000, 5) == monte_carlo_estimate(prob, 10_000, 5)


def test_mc_pins_its_sample_stream():
    # literals from the stream default_rng([seed, 0]); any change to the draw
    # order, the sample layout or the reduction moves these bits
    cases = [
        ((0.3, 0.4 + 0.5j, 0.0), 2, 2000, 3,
         (0.8777412254406558 - 0.13925409523601837j), 0.016024021025877713),
        ((0.5 + 0.3j, -0.2 + 0.6j, 1.0), 3, 5000, 11,
         (0.4838148128045169 - 0.18969736472666662j), 0.04634960363653638),
        ((1.0, 1.0, 1.0), 5, 1000, 0,
         (0.15457249519584512 - 0.46445020735057196j), 0.5921104859610262),
    ]
    for (z0, zf, energy), steps, samples, seed, estimate, stderr in cases:
        prob = CoherentChainProblem(z0, zf, energy, TimeGrid(0.0, 1.0, steps))
        assert monte_carlo_estimate(prob, samples, seed) == (estimate, stderr)


def _mc_by_chain_array(problem, samples, seed):
    """Reference estimator: the whole (samples, N + 1) chain in one array,
    its exponent summed along the chain axis."""
    n = problem.grid.steps
    boundary = float(np.exp(-0.5 * (abs(problem.zf) ** 2 + abs(problem.z0) ** 2)))
    c = 1.0 - 1j * problem.energy * problem.grid.dt / problem.hbar
    rng = np.random.default_rng([seed, 0])
    interior = math.sqrt(0.5) * (
        rng.standard_normal((samples, n - 1)) + 1j * rng.standard_normal((samples, n - 1))
    )
    chain = np.empty((samples, n + 1), dtype=np.complex128)
    chain[:, 0] = problem.z0
    chain[:, 1:-1] = interior
    chain[:, -1] = problem.zf
    weights = np.exp(c * np.sum(np.conj(chain[:, 1:]) * chain[:, :-1], axis=1))
    total_abs_sq = float(np.sum(np.abs(weights) ** 2))
    mean = complex(weights.sum()) / samples
    variance = max(0.0, total_abs_sq - samples * abs(mean) ** 2) / (samples - 1)
    stderr = boundary * math.sqrt(variance / samples)
    return complex(boundary * mean), float(stderr)


# 16384 samples make a 256 KiB exponent, where numpy starts to reuse temporaries
@pytest.mark.parametrize("steps", range(2, MAX_MC_STEPS + 1))
@pytest.mark.parametrize("samples", [1000, 1001, 4099, 16384])
def test_mc_has_the_bits_of_the_chain_array(steps, samples):
    for seed, (z0, zf, energy, hbar) in zip([0, 17, 2**31 - 1], [
        (0.3, 0.4 + 0.5j, 0.0, 1.0),
        (0.5 + 0.3j, -0.2 + 0.6j, 1.3, 1.0),
        (-0.1 - 0.9j, 0.7j, -2.5, 0.6),
    ]):
        prob = CoherentChainProblem(z0, zf, energy, TimeGrid(0.2, 1.5, steps), hbar)
        assert monte_carlo_estimate(prob, samples, seed) == _mc_by_chain_array(prob, samples, seed)


@pytest.mark.parametrize("energy, steps", [(1e300, 3), (1e150, 2)])
def test_mc_refuses_a_non_finite_estimate(energy, steps):
    problem = CoherentChainProblem(1.0, 0.5 + 0.5j, energy, TimeGrid(0.0, 1.0, steps))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=rf"not finite at N = {steps} for energy .*"
                                             r"t_end - t_start .* hbar"):
            monte_carlo_estimate(problem, 1000, 1)


def test_mc_single_slice_stays_exact_at_a_huge_energy():
    problem = CoherentChainProblem(1.0, 0.5 + 0.5j, 1e300, TimeGrid(0.0, 1.0, 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert monte_carlo_estimate(problem, 1000, 1) == (chain_reduce_exact(problem), 0.0)


def test_mc_single_slice_refuses_in_the_chain_reductions_words():
    # exp(-900) * exp(900): the exact value is 1, but its factors overflow
    problem = CoherentChainProblem(30.0, 30.0, 0.0, TimeGrid(0.0, 1.0, 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="the exact chain reduction is not finite at N = 1"):
            monte_carlo_estimate(problem, 1000, 1)


def test_mc_thirty_seed_mean_is_unbiased():
    prob = CoherentChainProblem(0.5 + 0.3j, -0.2 + 0.6j, 1.0, TimeGrid(0.0, 1.0, 3))
    exact = chain_reduce_exact(prob)
    estimates, stderrs = [], []
    for seed in range(30):
        estimate, stderr = monte_carlo_estimate(prob, 20_000, seed)
        estimates.append(estimate)
        stderrs.append(stderr)
    pooled_se = math.sqrt(float(np.mean(np.square(stderrs))) / 30)
    assert abs(np.mean(estimates) - exact) <= 3.0 * pooled_se


def test_mc_refuses_long_chains():
    prob = CoherentChainProblem(1.0, 1.0, 1.0, TimeGrid(0.0, 1.0, MAX_MC_STEPS + 1))
    with pytest.raises(ValueError, match="refusing"):
        monte_carlo_estimate(prob, 10_000, 0)


def test_mc_rejects_thin_sampling():
    prob = CoherentChainProblem(1.0, 1.0, 1.0, TimeGrid(0.0, 1.0, 2))
    with pytest.raises(ValueError, match="samples"):
        monte_carlo_estimate(prob, MIN_MC_SAMPLES - 1, 0)
    with pytest.raises(ValueError, match="seed"):
        monte_carlo_estimate(prob, 2000, -1)
