"""Projected gradient ascent over final states."""

import math

import numpy as np
import pytest

from statepath import (
    Hamiltonian,
    OptimizationResult,
    OptimizerConfig,
    StateVector,
    euclidean_gradient,
    evolve,
    maximize_final_state,
    objective,
    random_hamiltonian,
    random_state,
)
from conftest import central_difference_gradient, relative_error

ZERO_2 = Hamiltonian(np.zeros((2, 2)))
E0 = StateVector(np.array([1.0, 0.0]))
E1 = StateVector(np.array([0.0, 1.0]))


# -------------------------------------------------------------- configuration

def test_config_defaults_are_valid():
    config = OptimizerConfig()
    assert config.step_size == 1.0
    assert config.max_iters == 200
    assert config.grad_tol == 1e-7


@pytest.mark.parametrize("bad", [0.0, -0.5, math.inf])
def test_config_rejects_bad_step(bad):
    with pytest.raises(ValueError, match="step_size"):
        OptimizerConfig(step_size=bad)


@pytest.mark.parametrize("bad", [0, -3, 2.0, True, False, np.int64(0), np.float64(2.0)])
def test_config_rejects_bad_iteration_count(bad):
    with pytest.raises(ValueError, match="max_iters"):
        OptimizerConfig(max_iters=bad)


@pytest.mark.parametrize("count", [np.int64(10), np.int32(1), np.uint8(3)])
def test_config_takes_numpy_integer_iteration_counts(count):
    config = OptimizerConfig(max_iters=count)
    assert type(config.max_iters) is int and config.max_iters == count


def test_config_rejects_bad_tolerance():
    with pytest.raises(ValueError, match="grad_tol"):
        OptimizerConfig(grad_tol=0.0)


# ----------------------------------------------------------- result invariants

def _result(**overrides):
    fields = dict(
        final_state=E0,
        objective_value=1.0,
        objective_trace=(0.5, 0.7, 1.0),
        gradient_norms=(0.1, 0.01, 0.0),
        iterations=2,
        converged=True,
        fidelity_to_evolved=1.0,
    )
    fields.update(overrides)
    return OptimizationResult(**fields)


def test_result_rejects_objective_above_one():
    with pytest.raises(ValueError, match="provable range"):
        _result(objective_value=1.01)


def test_result_rejects_objective_below_floor():
    with pytest.raises(ValueError, match="provable range"):
        _result(objective_value=0.05, objective_trace=(0.05,))


def test_result_rejects_bad_fidelity():
    with pytest.raises(ValueError, match="fidelity"):
        _result(fidelity_to_evolved=1.5)


def test_result_rejects_decreasing_trace():
    with pytest.raises(ValueError, match="non-decreasing"):
        _result(objective_trace=(0.9, 0.5, 1.0))


# ------------------------------------------------------- objective evaluations

def test_objective_peaks_at_the_evolved_state():
    hamiltonian = random_hamiltonian(4, 31)
    psi_i = random_state(4, 32)
    evolved = evolve(hamiltonian, psi_i, 0.8)
    assert abs(objective(evolved, hamiltonian, psi_i, 0.8) - 1.0) <= 1e-12


def test_objective_orthogonal_state_sits_at_inverse_e():
    assert abs(objective(E1, ZERO_2, E0, 1.0) - math.exp(-1.0)) <= 1e-15


def test_objective_antipodal_state_touches_the_floor():
    flipped = StateVector(np.array([-1.0, 0.0]))
    assert abs(objective(flipped, ZERO_2, E0, 1.0) - math.exp(-2.0)) <= 1e-15


# ------------------------------------------------------------------- gradients

def test_gradient_matches_central_differences():
    hamiltonian = random_hamiltonian(4, 5)
    psi_i = random_state(4, 6)
    t = 0.9
    point = random_state(4, 7)
    target = evolve(hamiltonian, psi_i, t).amplitudes

    def ambient(x):
        return math.exp(np.real(np.vdot(x, target)) - 1.0)

    # the library objective agrees with the ambient formula on the sphere
    assert abs(objective(point, hamiltonian, psi_i, t) - ambient(point.amplitudes)) <= 1e-15
    analytic = euclidean_gradient(point, hamiltonian, psi_i, t)
    numeric = central_difference_gradient(ambient, point.amplitudes)
    assert relative_error(analytic, numeric) <= 1e-6


def test_gradient_is_radial_at_the_evolved_state():
    # the sphere-tangent component must vanish at the maximizer
    hamiltonian = random_hamiltonian(5, 12)
    psi_i = random_state(5, 13)
    evolved = evolve(hamiltonian, psi_i, 1.1)
    g = euclidean_gradient(evolved, hamiltonian, psi_i, 1.1)
    x = evolved.amplitudes
    tangent = 2.0 * g - np.real(np.vdot(x, 2.0 * g)) * x
    assert np.max(np.abs(tangent)) <= 1e-12


def test_gradient_points_along_the_target():
    # with H = 0 the target is psi_i itself: g = f/2 * psi_i
    point = random_state(2, 9)
    g = euclidean_gradient(point, ZERO_2, E0, 2.0)
    f = objective(point, ZERO_2, E0, 2.0)
    np.testing.assert_allclose(g, 0.5 * f * E0.amplitudes, atol=1e-15)


# ---------------------------------------------------------------- maximization

def test_maximize_one_dimensional_phase_search():
    hamiltonian = Hamiltonian(np.array([[0.7]]))
    psi_i = StateVector(np.array([1.0]))
    result = maximize_final_state(hamiltonian, psi_i, 1.3, OptimizerConfig(seed=4))
    assert result.converged
    assert result.objective_value >= 1.0 - 1e-8
    # the phase matters: the unique maximizer is e^{-0.91i}
    expected = np.exp(-0.91j)
    assert np.real(np.conj(result.final_state.amplitudes[0]) * expected) >= 1.0 - 1e-8


def test_maximize_recovers_a_spin_flip():
    hamiltonian = Hamiltonian(0.5 * np.array([[0.0, 1.0], [1.0, 0.0]]))
    result = maximize_final_state(hamiltonian, E0, math.pi, OptimizerConfig(seed=3))
    # exp(-i pi sigma_x / 2) |0> = -i |1>, written out by hand
    target = np.array([0.0, -1.0j])
    overlap = np.vdot(result.final_state.amplitudes, target)
    assert result.converged
    assert np.real(overlap) >= 1.0 - 1e-8
    assert result.fidelity_to_evolved >= 1.0 - 1e-8


def test_maximize_large_instance():
    hamiltonian = random_hamiltonian(16, 21)
    psi_i = random_state(16, 22)
    result = maximize_final_state(hamiltonian, psi_i, 1.3, OptimizerConfig(seed=21))
    evolved = evolve(hamiltonian, psi_i, 1.3)
    assert result.converged
    assert result.iterations > 0
    assert result.objective_value >= 1.0 - 1e-8
    assert result.fidelity_to_evolved >= 1.0 - 1e-8
    assert np.real(np.vdot(result.final_state.amplitudes, evolved.amplitudes)) >= 1.0 - 1e-8


def test_trace_is_monotone_and_sized_to_the_iterations():
    result = maximize_final_state(
        random_hamiltonian(6, 40), random_state(6, 41), 0.7, OptimizerConfig(seed=42)
    )
    trace = result.objective_trace
    assert len(trace) == result.iterations + 1
    assert all(b >= a for a, b in zip(trace, trace[1:]))
    assert trace[-1] == result.objective_value
    assert len(result.gradient_norms) >= result.iterations


def test_starved_run_reports_instead_of_raising():
    result = maximize_final_state(
        random_hamiltonian(8, 50),
        random_state(8, 51),
        1.0,
        OptimizerConfig(max_iters=1, seed=52),
    )
    assert not result.converged
    assert result.iterations == 1


def test_warm_start_at_the_answer_stops_immediately():
    hamiltonian = random_hamiltonian(4, 60)
    psi_i = random_state(4, 61)
    evolved = evolve(hamiltonian, psi_i, 0.9)
    result = maximize_final_state(
        hamiltonian, psi_i, 0.9, OptimizerConfig(seed=0), initial=evolved
    )
    assert result.converged
    assert result.iterations == 0
    assert result.fidelity_to_evolved >= 1.0 - 1e-12


def test_maximize_rejects_mismatched_dimensions():
    with pytest.raises(ValueError, match="dimension mismatch"):
        maximize_final_state(Hamiltonian(np.zeros((3, 3))), E0, 1.0)
    with pytest.raises(ValueError, match="does not match"):
        maximize_final_state(ZERO_2, E0, 1.0, initial=StateVector(np.array([1.0])))
