"""Quantumness measures, penalized path weights, and pointer-state selection."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from statepath import (
    Hamiltonian,
    MeasureKind,
    OptimizerConfig,
    PenalizedPathProblem,
    PenaltyConfig,
    QuantumnessMeasure,
    StateVector,
    TimeGrid,
    evolve,
    optimize_penalized,
    penalized_log_magnitude,
    q_linear_entropy,
    q_pointer_deviation,
    qubit_detector_model,
    random_hamiltonian,
    random_state,
    random_unitary,
    spectral_decompose,
    to_energy_coefficients,
)
from statepath.optimizer import _sphere_ascend
from statepath import optimizer, quantumness
from statepath.quantumness import (
    _pointer_slice_solve,
    _power_slice_solve,
    _singular_value_step,
    _slice_values,
    _unit_rows,
)
from conftest import central_difference_gradient, relative_error

E0 = np.array([1.0, 0.0], dtype=np.complex128)


# ------------------------------------------------------- measure construction

def test_pointer_measure_needs_a_basis():
    with pytest.raises(ValueError, match="pointer_basis"):
        QuantumnessMeasure(MeasureKind.POINTER_DEVIATION)


def test_pointer_measure_refuses_a_partition():
    with pytest.raises(ValueError, match="no partition"):
        QuantumnessMeasure(
            MeasureKind.POINTER_DEVIATION, pointer_basis=np.eye(2), partition=(1, 2)
        )


def test_entropy_measure_needs_a_partition():
    with pytest.raises(ValueError, match="partition"):
        QuantumnessMeasure(MeasureKind.LINEAR_ENTROPY)


def test_entropy_measure_refuses_a_basis():
    with pytest.raises(ValueError, match="no pointer_basis"):
        QuantumnessMeasure(
            MeasureKind.LINEAR_ENTROPY, partition=(2, 2), pointer_basis=np.eye(4)
        )


def test_partition_dims_must_be_positive():
    with pytest.raises(ValueError, match="partition dims"):
        QuantumnessMeasure.linear_entropy(0, 4)


@pytest.mark.parametrize("dims", [(2.7, 2), (True, 4), (2, False), (np.float64(2.0), 2),
                                  ("2", 2)])
def test_partition_dims_must_be_integers(dims):
    with pytest.raises(ValueError, match="partition dims must be an integer"):
        QuantumnessMeasure.linear_entropy(*dims)


def test_partition_dims_take_numpy_integers():
    measure = QuantumnessMeasure.linear_entropy(np.int64(2), np.uint8(3))
    assert measure.partition == (2, 3)
    assert all(type(d) is int for d in measure.partition)


def test_pointer_basis_must_be_orthonormal():
    with pytest.raises(ValueError, match="orthonormal"):
        QuantumnessMeasure.pointer(np.array([[1.0, 1.0], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="square"):
        QuantumnessMeasure.pointer(np.ones((2, 3)))


def test_measure_dims():
    assert QuantumnessMeasure.pointer(np.eye(3)).dim == 3
    assert QuantumnessMeasure.linear_entropy(2, 3).dim == 6


# ------------------------------------------------------------ pointer measure

def test_pointer_state_has_zero_deviation():
    psi = StateVector(np.array([0.0, 0.0, 1.0, 0.0]))
    assert q_pointer_deviation(psi, np.eye(4)) == 0.0


def test_pointer_deviation_ignores_global_phase():
    psi = StateVector(np.exp(0.6j) * np.array([0.0, 1.0]))
    assert q_pointer_deviation(psi, np.eye(2)) <= 1e-15


def test_equal_superposition_deviation():
    for dim in (2, 4, 8):
        psi = StateVector(np.full(dim, 1.0 / math.sqrt(dim)))
        assert abs(q_pointer_deviation(psi, np.eye(dim)) - (1.0 - 1.0 / dim)) <= 1e-15


def test_tilted_state_deviation():
    psi = StateVector(np.array([math.sqrt(0.9), math.sqrt(0.1)]))
    assert abs(q_pointer_deviation(psi, np.eye(2)) - 0.1) <= 1e-15


def test_pointer_deviation_rotates_with_the_basis():
    u = random_unitary(4, 17)
    psi = random_state(4, 18)
    rotated = StateVector(u @ psi.amplitudes)
    before = q_pointer_deviation(psi, np.eye(4))
    after = q_pointer_deviation(rotated, u)
    assert abs(before - after) <= 1e-12


def test_pointer_deviation_dimension_check():
    with pytest.raises(ValueError, match="does not match"):
        q_pointer_deviation(StateVector(E0), np.eye(3))


# ------------------------------------------------------ linear entropy measure

def test_product_state_has_zero_entropy():
    a = random_state(2, 21).amplitudes
    b = random_state(3, 22).amplitudes
    psi = StateVector(np.kron(a, b))
    assert q_linear_entropy(psi, 2, 3) <= 1e-15


def test_bell_state_entropy():
    bell = StateVector(np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0))
    assert abs(q_linear_entropy(bell, 2, 2) - 0.5) <= 1e-15


def test_tilted_entangled_state_entropy():
    psi = StateVector(np.array([math.sqrt(0.75), 0.0, 0.0, math.sqrt(0.25)]))
    # independent route: build rho_A explicitly and take 1 - purity
    m = psi.amplitudes.reshape(2, 2)
    rho_a = np.einsum("ab,cb->ac", m, m.conj())
    expected = 1.0 - float(np.real(np.trace(rho_a @ rho_a)))
    value = q_linear_entropy(psi, 2, 2)
    assert abs(value - expected) <= 1e-15
    assert abs(value - 0.375) <= 1e-15


def test_linear_entropy_dimension_check():
    with pytest.raises(ValueError, match="product"):
        q_linear_entropy(StateVector(E0), 2, 2)


# ------------------------------------------------------------ measure gradients

def test_pointer_gradient_matches_central_differences():
    measure = QuantumnessMeasure.pointer(random_unitary(4, 77))
    x = random_state(4, 78).amplitudes
    numeric = central_difference_gradient(measure.value, x)
    assert relative_error(measure.gradient_conj(x), numeric) <= 1e-6


def test_entropy_gradient_matches_central_differences():
    measure = QuantumnessMeasure.linear_entropy(2, 2)
    x = random_state(4, 79).amplitudes
    numeric = central_difference_gradient(measure.value, x)
    assert relative_error(measure.gradient_conj(x), numeric) <= 1e-6


def test_pointer_gradient_tie_break_is_the_lowest_index():
    # at an exact fidelity tie the subgradient follows pointer 0
    measure = QuantumnessMeasure.pointer(np.eye(2))
    x = np.array([1.0, 1.0]) / math.sqrt(2.0)
    g = measure.gradient_conj(x)
    np.testing.assert_allclose(g, [-x[0], 0.0], atol=1e-15)


# ------------------------------------------------------ penalized log magnitude

def _zero_penalty(dim):
    return PenaltyConfig(0.0, QuantumnessMeasure.pointer(np.eye(dim)))


def test_constant_path_without_drive_has_zero_weight():
    grid = TimeGrid(0.0, 1.0, 6)
    path = np.tile(E0, (7, 1))
    value = penalized_log_magnitude(path, Hamiltonian(np.zeros((2, 2))), _zero_penalty(2), grid)
    assert value == 0.0


def test_resting_on_a_pointer_state_escapes_the_penalty():
    grid = TimeGrid(0.0, 1.0, 6)
    path = np.tile(E0, (7, 1))
    penalty = PenaltyConfig(5.0, QuantumnessMeasure.pointer(np.eye(2)))
    assert penalized_log_magnitude(path, Hamiltonian(np.zeros((2, 2))), penalty, grid) == 0.0


def test_schrodinger_path_weight_two_routes():
    # route one: the literal slice-by-slice formula on the sampled evolution
    hamiltonian = random_hamiltonian(4, 9, energy_scale=0.1)
    psi = random_state(4, 11)
    grid = TimeGrid(0.0, 1.0, 200)
    rows = np.array([evolve(hamiltonian, psi, t).amplitudes for t in grid.times()])
    literal = penalized_log_magnitude(rows, hamiltonian, _zero_penalty(4), grid)

    # route two: in the energy eigenbasis each slice contributes
    # sum_j |a_j|^2 (cos(E_j dt) - 1), identically for all slices
    dec = spectral_decompose(hamiltonian)
    coeffs = to_energy_coefficients(psi, dec)
    per_slice = np.sum(np.abs(coeffs) ** 2 * (np.cos(dec.energies * grid.dt) - 1.0))
    spectral = grid.steps * float(per_slice)

    assert abs(literal - spectral) <= 1e-12
    assert abs(literal) <= 1e-3  # the sampled true evolution loses almost nothing


def test_two_slice_trapezoid_hand_check():
    grid = TimeGrid(0.0, 1.0, 2)
    hamiltonian = Hamiltonian(np.array([[0.5, 0.2], [0.2, -0.1]]))
    lam = 2.0
    rows = np.array(
        [[1.0, 0.0], [1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0)], [0.0, 1.0]],
        dtype=np.complex128,
    )
    penalty = PenaltyConfig(lam, QuantumnessMeasure.pointer(np.eye(2)))
    value = penalized_log_magnitude(rows, hamiltonian, penalty, grid)

    expected = 0.0
    for k in range(2):
        expected += float(np.real(np.vdot(rows[k], rows[k + 1] - rows[k])))
        expected -= grid.dt * float(np.imag(np.vdot(rows[k], hamiltonian.matrix @ rows[k])))
    q_nodes = [0.0, 0.5, 0.0]  # deviation at each node, by inspection
    expected -= lam * (0.5 * grid.dt * q_nodes[0] + grid.dt * q_nodes[1] + 0.5 * grid.dt * q_nodes[2])
    assert abs(value - expected) <= 1e-15


def test_weight_decreases_with_the_penalty_rate():
    grid = TimeGrid(0.0, 1.0, 2)
    rows = np.array(
        [[1.0, 0.0], [1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0)], [0.0, 1.0]],
        dtype=np.complex128,
    )
    h = Hamiltonian(np.zeros((2, 2)))
    values = [
        penalized_log_magnitude(
            rows, h, PenaltyConfig(lam, QuantumnessMeasure.pointer(np.eye(2))), grid
        )
        for lam in (0.0, 2.0, 5.0)
    ]
    assert values[0] > values[1] > values[2]


def test_weight_rejects_unnormalized_endpoints():
    grid = TimeGrid(0.0, 1.0, 2)
    rows = np.array([[0.5, 0.0], [1.0, 0.0], [1.0, 0.0]], dtype=np.complex128)
    with pytest.raises(ValueError, match="endpoint"):
        penalized_log_magnitude(rows, Hamiltonian(np.zeros((2, 2))), _zero_penalty(2), grid)


def test_weight_rejects_wrong_path_length():
    grid = TimeGrid(0.0, 1.0, 3)
    rows = np.tile(E0, (3, 1))
    with pytest.raises(ValueError, match="path has"):
        penalized_log_magnitude(rows, Hamiltonian(np.zeros((2, 2))), _zero_penalty(2), grid)


def test_weight_rejects_wandering_interiors_when_normalized():
    grid = TimeGrid(0.0, 1.0, 2)
    rows = np.array([[1.0, 0.0], [2.0, 0.0], [1.0, 0.0]], dtype=np.complex128)
    with pytest.raises(ValueError, match="interior"):
        penalized_log_magnitude(rows, Hamiltonian(np.zeros((2, 2))), _zero_penalty(2), grid)


def test_penalty_config_rejects_negative_rate():
    with pytest.raises(ValueError, match="lam"):
        PenaltyConfig(-1.0, QuantumnessMeasure.pointer(np.eye(2)))


def test_problem_dimension_checks():
    grid = TimeGrid(0.0, 1.0, 2)
    with pytest.raises(ValueError, match="does not match"):
        PenalizedPathProblem(
            StateVector(E0), grid, Hamiltonian(np.zeros((3, 3))), _zero_penalty(3)
        )
    with pytest.raises(ValueError, match="measure dimension"):
        PenalizedPathProblem(
            StateVector(E0), grid, Hamiltonian(np.zeros((2, 2))), _zero_penalty(3)
        )


# --------------------------------------------------------- penalized optimizer

@pytest.mark.parametrize("steps", [1, 2, 4, 16])
@pytest.mark.parametrize("lam", [0.0, 1.0, 200.0])
@pytest.mark.parametrize("kind", ["pointer", "entropy"])
def test_log_magnitude_is_the_last_sweep_value_of_the_returned_path(kind, lam, steps):
    hamiltonian, psi_i, basis = qubit_detector_model()
    measure = (QuantumnessMeasure.pointer(basis) if kind == "pointer"
               else QuantumnessMeasure.linear_entropy(2, 2))
    grid = TimeGrid(0.0, 1.0, steps)
    penalty = PenaltyConfig(lam, measure)
    outcome = optimize_penalized(PenalizedPathProblem(psi_i, grid, hamiltonian, penalty))
    report = outcome.report
    recomputed = penalized_log_magnitude(outcome.path, hamiltonian, penalty, grid)
    assert report.log_magnitude == report.sweep_trace[-1] == recomputed
    assert outcome.log_magnitude == report.log_magnitude
    assert report.sweeps == len(report.sweep_trace) - 1


def test_unpenalized_run_recovers_the_evolved_state():
    hamiltonian = random_hamiltonian(4, 70)
    psi_i = random_state(4, 71)
    grid = TimeGrid(0.0, 1.0, 20)
    problem = PenalizedPathProblem(psi_i, grid, hamiltonian, _zero_penalty(4))
    outcome = optimize_penalized(problem)
    evolved = evolve(hamiltonian, psi_i, 1.0)
    fidelity = abs(np.vdot(outcome.final_state.amplitudes, evolved.amplitudes)) ** 2
    assert outcome.report.converged
    assert outcome.report.iterations == 0  # the final state takes no ascent
    assert fidelity >= 1.0 - 1e-12
    assert outcome.path.shape == (21, 4)
    np.testing.assert_array_equal(outcome.path[0], psi_i.amplitudes)
    np.testing.assert_array_equal(outcome.path[-1], outcome.final_state.amplitudes)


def test_strong_penalty_collapses_onto_the_likelier_pointer():
    hamiltonian, psi_i, basis = qubit_detector_model(weight0=0.75)
    grid = TimeGrid(0.0, 1.0, 4)
    penalty = PenaltyConfig(200.0, QuantumnessMeasure.pointer(basis))
    outcome = optimize_penalized(PenalizedPathProblem(psi_i, grid, hamiltonian, penalty))
    report = outcome.report
    assert report.converged
    assert report.nearest_pointer_index == 0
    assert report.fidelity_to_pointer >= 1.0 - 1e-3
    assert report.pointer_ties == (0,)
    assert len(report.q_trajectory) == grid.steps + 1
    assert all(q >= 0.0 for q in report.q_trajectory)
    assert report.q_trajectory[-1] <= 1e-3  # the endpoint is nearly classical
    assert report.log_magnitude <= 1e-12
    sweep = report.sweep_trace
    assert all(b >= a for a, b in zip(sweep, sweep[1:]))


@pytest.mark.parametrize("steps", [1, 4])
@pytest.mark.parametrize("lam", [0.0, 1.0, 200.0])
def test_final_state_is_the_last_path_row_as_a_state_vector(lam, steps):
    hamiltonian, psi_i, basis = qubit_detector_model()
    penalty = PenaltyConfig(lam, QuantumnessMeasure.pointer(basis))
    grid = TimeGrid(0.0, 1.0, steps)
    outcome = optimize_penalized(PenalizedPathProblem(psi_i, grid, hamiltonian, penalty))
    assert outcome.final_state is outcome.report.final_state
    np.testing.assert_array_equal(outcome.report.final_state.amplitudes,
                                  StateVector(outcome.path[-1]).amplitudes)


def test_unpenalized_path_ends_on_the_evolved_state_along_the_great_circle():
    hamiltonian, psi_i, basis = qubit_detector_model()
    grid = TimeGrid(0.0, 1.0, 4)
    penalty = PenaltyConfig(0.0, QuantumnessMeasure.pointer(basis))
    outcome = optimize_penalized(PenalizedPathProblem(psi_i, grid, hamiltonian, penalty))
    evolved = evolve(hamiltonian, psi_i, 1.0).amplitudes
    np.testing.assert_array_equal(outcome.path[-1], evolved)
    arc = quantumness._initial_path(psi_i.amplitudes, evolved, 4)
    assert np.max(np.abs(outcome.path - arc)) <= 1e-15
    # both ends sit at Q = 1/4; the great circle between them dips to 1/7
    q = outcome.report.q_trajectory
    assert abs(q[0] - 0.25) <= 1e-15 and abs(q[-1] - 0.25) <= 1e-15
    assert abs(q[2] - 1.0 / 7.0) <= 1e-15


def test_strong_pointer_penalty_pins_within_1e3_at_8_steps():
    # the finest grid the README's pointer promise names; 4 steps is the acceptance check
    hamiltonian, psi_i, basis = qubit_detector_model(weight0=0.75)
    penalty = PenaltyConfig(200.0, QuantumnessMeasure.pointer(basis))
    problem = PenalizedPathProblem(psi_i, TimeGrid(0.0, 1.0, 8), hamiltonian, penalty)
    report = optimize_penalized(problem).report
    assert report.converged
    assert report.nearest_pointer_index == 0
    assert report.fidelity_to_pointer >= 1.0 - 1e-3


def test_resting_pointer_state_is_an_exact_fixed_point():
    # H = 0 and a pointer-state start: nothing should move, bit for bit
    psi_i = StateVector(E0)
    grid = TimeGrid(0.0, 1.0, 5)
    penalty = PenaltyConfig(3.0, QuantumnessMeasure.pointer(np.eye(2)))
    problem = PenalizedPathProblem(psi_i, grid, Hamiltonian(np.zeros((2, 2))), penalty)
    outcome = optimize_penalized(problem)
    np.testing.assert_array_equal(outcome.final_state.amplitudes, E0)
    np.testing.assert_array_equal(outcome.path, np.tile(E0, (6, 1)))
    assert outcome.log_magnitude == 0.0
    assert outcome.report.q_trajectory == (0.0,) * 6
    assert outcome.report.fidelity_to_pointer == 1.0
    assert outcome.report.pointer_ties == (0,)


def test_balanced_weights_report_a_pointer_tie():
    hamiltonian, psi_i, basis = qubit_detector_model(weight0=0.5)
    grid = TimeGrid(0.0, 1.0, 4)
    penalty = PenaltyConfig(0.0, QuantumnessMeasure.pointer(basis))
    outcome = optimize_penalized(PenalizedPathProblem(psi_i, grid, hamiltonian, penalty))
    report = outcome.report
    assert report.pointer_ties == (0, 3)
    assert report.nearest_pointer_index == 0
    assert abs(report.fidelity_to_pointer - 0.5) <= 1e-9


def test_penalized_runs_are_deterministic():
    hamiltonian, psi_i, basis = qubit_detector_model()
    grid = TimeGrid(0.0, 1.0, 4)
    penalty = PenaltyConfig(200.0, QuantumnessMeasure.pointer(basis))
    problem = PenalizedPathProblem(psi_i, grid, hamiltonian, penalty)
    first = optimize_penalized(problem)
    second = optimize_penalized(problem)
    np.testing.assert_array_equal(first.final_state.amplitudes, second.final_state.amplitudes)
    np.testing.assert_array_equal(first.path, second.path)
    assert first.log_magnitude == second.log_magnitude


def test_entropy_penalty_with_a_reporting_basis():
    hamiltonian, psi_i, basis = qubit_detector_model(weight0=0.75)
    grid = TimeGrid(0.0, 1.0, 4)
    penalty = PenaltyConfig(200.0, QuantumnessMeasure.linear_entropy(2, 2))
    problem = PenalizedPathProblem(psi_i, grid, hamiltonian, penalty)
    outcome = optimize_penalized(problem, reporting_basis=basis)
    report = outcome.report
    assert report.converged
    assert report.nearest_pointer_index == 0
    assert report.fidelity_to_pointer >= 1.0 - 1e-3

    blind = optimize_penalized(problem)  # no basis anywhere: no pointer summary
    assert blind.report.nearest_pointer_index is None
    assert blind.report.fidelity_to_pointer is None
    assert blind.report.pointer_ties == ()


def test_single_slice_run_skips_the_interior_stage():
    hamiltonian, psi_i, basis = qubit_detector_model()
    problem = PenalizedPathProblem(
        psi_i,
        TimeGrid(0.0, 1.0, 1),
        hamiltonian,
        PenaltyConfig(2.0, QuantumnessMeasure.pointer(basis)),
    )
    outcome = optimize_penalized(problem)
    assert outcome.report.sweeps == 0
    assert len(outcome.report.sweep_trace) == 1
    assert outcome.path.shape == (2, 4)


def test_custom_config_is_honoured():
    hamiltonian, psi_i, basis = qubit_detector_model()
    grid = TimeGrid(0.0, 1.0, 4)
    penalty = PenaltyConfig(200.0, QuantumnessMeasure.pointer(basis))
    problem = PenalizedPathProblem(psi_i, grid, hamiltonian, penalty)
    starved = optimize_penalized(problem, OptimizerConfig(max_iters=1, grad_tol=1e-6))
    assert not starved.report.converged


# ------------------------------------------- exact pointer slice solve

SLICE_RATES = [0.0, 1.0 / 32.0, 6.25, 100.0]


def _best_ascent(midpoint, measure, c, seed, starts=8):
    """Best slice value that projected-gradient ascent reaches from random starts."""
    rng = np.random.default_rng(seed)
    best = -math.inf
    for _ in range(starts):
        x = rng.standard_normal(midpoint.size) + 1j * rng.standard_normal(midpoint.size)
        x /= np.linalg.norm(x)
        f = _sphere_ascend(
            x,
            lambda y: float(2.0 * np.real(np.vdot(y, midpoint)) - c * measure.value(y)),
            lambda y: midpoint - c * measure.gradient_conj(y),
            0.5 / (1.0 + c), 200, 1e-9,
        )[1]
        best = max(best, f)
    return best


def _check_solution(rows, values, mids, measure, c):
    assert np.all(np.isfinite(rows))
    np.testing.assert_allclose(np.linalg.norm(rows, axis=1), 1.0, rtol=0, atol=1e-12)
    np.testing.assert_allclose(values, _slice_values(rows, mids, measure, c), rtol=0, atol=1e-12)


@settings(deadline=None, derandomize=True, max_examples=25)
@given(dim=st.integers(2, 5), seed=st.integers(0, 2**32 - 1),
       c=st.sampled_from(SLICE_RATES), spread=st.floats(0.0, 1.0))
def test_pointer_slice_solve_beats_multistart_ascent(dim, seed, c, spread):
    # midpoints of two unit neighbours, from nearly equal to far apart
    rng = np.random.default_rng(seed)
    measure = QuantumnessMeasure.pointer(random_unitary(dim, seed))
    left = random_state(dim, rng.integers(2**31)).amplitudes
    right = (1.0 - spread) * left + spread * random_state(dim, rng.integers(2**31)).amplitudes
    mids = np.array([0.5 * (left + right / np.linalg.norm(right))])
    rows, values = _pointer_slice_solve(mids, measure, c)
    _check_solution(rows, values, mids, measure, c)
    assert values[0] >= _best_ascent(mids[0], measure, c, seed) - 1e-12


def test_pointer_slice_solve_without_penalty_is_the_normalized_midpoint():
    measure = QuantumnessMeasure.pointer(random_unitary(4, 90))
    rng = np.random.default_rng(91)
    mids = rng.standard_normal((16, 4)) + 1j * rng.standard_normal((16, 4))
    rows, values = _pointer_slice_solve(mids, measure, 0.0)
    expected = mids / np.linalg.norm(mids, axis=1)[:, None]
    assert np.max(np.abs(rows - expected)) <= 1e-15
    _check_solution(rows, values, mids, measure, 0.0)


@pytest.mark.parametrize("c", SLICE_RATES)
def test_pointer_slice_solve_hard_cases(c):
    basis = random_unitary(4, 92)
    measure = QuantumnessMeasure.pointer(basis)
    p = basis.T
    mids = np.array([
        np.zeros(4),                                 # m = 0
        0.3 * p[1],                                  # m orthogonal to p_0, p_2, p_3, B < c
        0.2 * p[1] + 0.1j * p[2],                    # orthogonal to p_0 and p_3
        1e-17 * p[0] + 0.05 * p[1] - 0.04 * p[3],   # c + A rounds to c for p_0
        1e-300 * (p[0] + 1j * p[2]),                 # a vanishing midpoint
    ])
    rows, values = _pointer_slice_solve(mids, measure, c)
    _check_solution(rows, values, mids, measure, c)
    for j, midpoint in enumerate(mids):
        assert values[j] >= _best_ascent(midpoint, measure, c, 93 + j) - 1e-12
    # m = 0: every pointer state scores 0 and the lowest index is taken
    assert abs(abs(np.vdot(p[0], rows[0])) - 1.0) <= 1e-15
    assert values[0] == 0.0


@pytest.mark.parametrize("c", SLICE_RATES[1:])
def test_pointer_slice_solve_breaks_exact_ties_toward_the_lowest_index(c):
    measure = QuantumnessMeasure.pointer(np.eye(4))
    mids = np.array([[0.5, 0.0, 0.0, 0.5], [0.0, 0.3, 0.3j, -0.3]], dtype=np.complex128)
    rows, values = _pointer_slice_solve(mids, measure, c)
    _check_solution(rows, values, mids, measure, c)
    assert np.argmax(np.abs(rows[0]) ** 2) == 0
    assert np.argmax(np.abs(rows[1]) ** 2) == 1
    assert abs(rows[0][0]) > abs(rows[0][3])
    for j, midpoint in enumerate(mids):
        assert values[j] >= _best_ascent(midpoint, measure, c, 96 + j) - 1e-12


@settings(deadline=None, derandomize=True, max_examples=25)
@given(weight0=st.floats(0.05, 0.95), lam=st.sampled_from([1.0, 5.0, 20.0, 200.0]),
       steps=st.integers(2, 14), seed=st.integers(0, 2**32 - 1),
       measure_kind=st.sampled_from(["pointer", "pointer", "pointer", "entropy"]))
def test_relaxation_is_monotone_finite_and_normalized(weight0, lam, steps, seed,
                                                      measure_kind):
    if seed % 2:
        _, psi_i, basis = qubit_detector_model(weight0=weight0)
        hamiltonian = random_hamiltonian(4, seed)
    else:
        hamiltonian, psi_i, basis = qubit_detector_model(weight0=weight0)
    if measure_kind == "pointer":
        measure = QuantumnessMeasure.pointer(basis)
    else:
        measure = QuantumnessMeasure.linear_entropy(2, 2)
        steps = min(steps, 6)
    problem = PenalizedPathProblem(psi_i, TimeGrid(0.0, 1.0, steps), hamiltonian,
                                   PenaltyConfig(lam, measure))
    outcome = optimize_penalized(problem, OptimizerConfig(max_iters=60, grad_tol=1e-6))
    sweep = outcome.report.sweep_trace
    assert all(b >= a for a, b in zip(sweep, sweep[1:]))
    assert np.all(np.isfinite(outcome.path))
    assert np.max(np.abs(np.linalg.norm(outcome.path, axis=1) - 1.0)) <= 1e-12
    assert outcome.report.sweeps <= 60
    if measure_kind == "pointer" and outcome.report.converged:
        # a converged relaxation is a fixed point of the exact slice updates
        path, c = outcome.path, lam * problem.grid.dt
        mids = 0.5 * (path[:-2] + path[2:])
        _, best = _pointer_slice_solve(mids, measure, c)
        held = _slice_values(path[1:-1], mids, measure, c)
        assert np.all(best - held <= 1e-9 * (1.0 + np.abs(held)))


def test_measure_values_match_value_row_by_row():
    rows = np.array([random_state(4, 95 + j).amplitudes for j in range(7)])
    for measure in (QuantumnessMeasure.pointer(random_unitary(4, 94)),
                    QuantumnessMeasure.linear_entropy(2, 2)):
        expected = [measure.value(row) for row in rows]
        np.testing.assert_allclose(measure.values(rows), expected, rtol=0, atol=1e-15)


def test_measure_gradients_match_gradient_conj_row_by_row():
    rows = np.array([random_state(4, 97 + j).amplitudes for j in range(7)])
    # an exact pointer tie: the batched twin takes the lowest index too
    rows = np.vstack([rows, [[0.5, 0.5j, -0.5, 0.5]]])
    for measure in (QuantumnessMeasure.pointer(np.eye(4)),
                    QuantumnessMeasure.pointer(random_unitary(4, 96)),
                    QuantumnessMeasure.linear_entropy(2, 2)):
        expected = [measure.gradient_conj(row) for row in rows]
        np.testing.assert_allclose(measure.gradients_conj(rows), expected, rtol=0, atol=1e-15)


# ------------------------------------------- power-step entropy slice solve

ENTROPY_RATES = [1.0 / 16.0, 1.0, 12.5, 50.0]


def _entropy_midpoints(seed, count, spread, dim=4):
    """Midpoints of ``count`` pairs of unit neighbours, and the left neighbours."""
    rng = np.random.default_rng(seed)
    left = np.array([random_state(dim, rng.integers(2**31)).amplitudes for _ in range(count)])
    other = np.array([random_state(dim, rng.integers(2**31)).amplitudes for _ in range(count)])
    right = (1.0 - spread) * left + spread * other
    right /= np.linalg.norm(right, axis=1)[:, None]
    return 0.5 * (left + right), left


def _complex_power_slice_solve(rows, mids, measure, c):
    """Reference: each row moved onto its midpoint's singular vectors (kept
    bit for bit when already there), then complex power steps y <- g / |g|,
    g = m - c dQ/d conj(y), with the same stop rule and cap."""
    d_a, d_b = measure.partition
    u, _, vh = np.linalg.svd(mids.reshape(-1, d_a, d_b), full_matrices=False)
    s = np.linalg.svd(rows.reshape(-1, d_a, d_b), compute_uv=False)
    aligned = ((u * s[:, None, :]) @ vh).reshape(rows.shape)
    near = np.max(np.abs(aligned - rows), axis=1) <= quantumness._MOVE_TOL
    rows = np.where(near[:, None], rows, aligned)
    done = np.zeros(len(rows), dtype=bool)
    for _ in range(quantumness._MAX_SLICE_ITERS):
        new = _unit_rows(mids - c * measure.gradients_conj(rows), rows)
        done |= np.max(np.abs(new - rows), axis=1) <= quantumness._MOVE_TOL
        if done.all():
            break
        rows = np.where(done[:, None], rows, new)
    return rows, _slice_values(rows, mids, measure, c)


@pytest.mark.parametrize("c", ENTROPY_RATES)
@pytest.mark.parametrize("partition", [(2, 2), (2, 3), (3, 2), (1, 4)])
def test_entropy_slice_solve_matches_complex_power_steps(partition, c):
    measure = QuantumnessMeasure.linear_entropy(*partition)
    for seed, spread in [(103, 0.0), (104, 0.3), (105, 1.0)]:
        mids, left = _entropy_midpoints(seed, 6, spread, measure.dim)
        rows, values = _power_slice_solve(left, mids, measure, c)
        expected_rows, expected_values = _complex_power_slice_solve(left, mids, measure, c)
        assert np.max(np.abs(rows - expected_rows)) <= 1e-13
        assert np.max(np.abs(values - expected_values)) <= 1e-13


@settings(deadline=None, derandomize=True, max_examples=25)
@given(seed=st.integers(0, 2**32 - 1), c=st.sampled_from(ENTROPY_RATES),
       spread=st.floats(0.0, 1.0))
def test_entropy_slice_solve_beats_multistart_ascent(seed, c, spread):
    measure = QuantumnessMeasure.linear_entropy(2, 2)
    mids, left = _entropy_midpoints(seed, 3, spread)
    rows, values = _power_slice_solve(left, mids, measure, c)
    _check_solution(rows, values, mids, measure, c)
    for j, midpoint in enumerate(mids):
        assert values[j] >= _best_ascent(midpoint, measure, c, seed + j) - 1e-12


def _reduced_slice_values(s, sigma, c):
    """The slice objective of U diag(s) V^dag against U diag(sigma) V^dag for
    a 2 x 2 partition: 2 sigma.s - c Q, with Q = 1 - s_0^4 - s_1^4 written as
    2 s_0^2 s_1^2, which keeps its relative accuracy near a product state."""
    return 2.0 * np.sum(sigma * s, axis=1) - c * 2.0 * (s[:, 0] * s[:, 1]) ** 2


@pytest.mark.parametrize("c", ENTROPY_RATES)
def test_power_steps_never_lower_the_slice_value(c):
    mids, _ = _entropy_midpoints(98, 6, 0.8)
    rows = np.array([random_state(4, 99 + j).amplitudes for j in range(6)])
    sigma = np.linalg.svd(mids.reshape(-1, 2, 2), compute_uv=False)
    s = np.linalg.svd(rows.reshape(-1, 2, 2), compute_uv=False)
    values = _reduced_slice_values(s, sigma, c)
    for _ in range(40):
        s = _singular_value_step(s, sigma, c)
        assert np.all(np.isfinite(s))
        np.testing.assert_allclose(np.linalg.norm(s, axis=1), 1.0, rtol=0, atol=1e-15)
        stepped = _reduced_slice_values(s, sigma, c)
        assert np.all(stepped >= values - 1e-15 * (1.0 + np.abs(values)))
        values = stepped


@pytest.mark.parametrize("c", ENTROPY_RATES)
def test_entropy_slice_solve_zero_midpoint_and_zero_gradient(c):
    measure = QuantumnessMeasure.linear_entropy(2, 2)
    product = np.array([1.0, 0.0, 0.0, 0.0], dtype=np.complex128)
    bell = np.array([1.0, 0.0, 0.0, 1.0], dtype=np.complex128) / math.sqrt(2.0)
    # sigma = -2c s^3 makes g vanish at s: a product state has s = (1, 0)
    s = np.array([[1.0, 0.0]])
    assert np.array_equal(_singular_value_step(s, -2.0 * c * s**3, c), s)
    mids = np.array([np.zeros(4), np.zeros(4), -2.0 * c * product])
    starts = np.array([random_state(4, 100).amplitudes, bell, product])
    rows, values = _power_slice_solve(starts, mids, measure, c)
    _check_solution(rows, values, mids, measure, c)
    # m = 0: the best rows are the product states, with value 0; a maximally
    # entangled start is a stationary point (the minimum) and stays put
    assert abs(values[0]) <= 1e-12
    assert values[0] >= _best_ascent(mids[0], measure, c, 100) - 1e-12
    assert np.array_equal(rows[1], bell) and abs(values[1] + 0.5 * c) <= 1e-12
    # aligning with m = -2c y turns the zero-gradient row into -y, which scores 4c
    assert values[2] >= _best_ascent(mids[2], measure, c, 102) - 1e-12
    assert np.max(np.abs(rows[2] + product)) <= 1e-15


def test_entropy_slice_solve_leaves_a_fixed_point_unmoved():
    measure = QuantumnessMeasure.linear_entropy(2, 2)
    mids, left = _entropy_midpoints(101, 5, 0.5)
    rows, _ = _power_slice_solve(left, mids, measure, 1.0)
    again, _ = _power_slice_solve(rows, mids, measure, 1.0)
    assert np.array_equal(again, rows)


def _settling_step(row, midpoint, c):
    """The power step at which ``row`` would move its singular values by no
    more than ``_MOVE_TOL`` against ``midpoint``: the step its solve stops at."""
    sigma = np.linalg.svd(midpoint.reshape(1, 2, 2), compute_uv=False)
    s = np.linalg.svd(row.reshape(1, 2, 2), compute_uv=False)
    for k in range(quantumness._MAX_SLICE_ITERS):
        new = _singular_value_step(s, sigma, c)
        if np.max(np.abs(new - s)) <= quantumness._MOVE_TOL:
            return k
        s = new
    return quantumness._MAX_SLICE_ITERS


@pytest.mark.parametrize("c", [1.0, 12.5])
def test_entropy_slice_solve_freezes_a_settled_row_while_others_step(c):
    # a row keeps the values it settled at while other rows of the same call
    # step on, so it comes out bit for bit as when solved alone
    measure = QuantumnessMeasure.linear_entropy(2, 2)
    mids, left = _entropy_midpoints(106, 6, 0.5)
    settling = [_settling_step(row, midpoint, c) for row, midpoint in zip(left, mids)]
    assert min(settling) < max(settling)
    rows, _ = _power_slice_solve(left, mids, measure, c)
    for j in range(len(mids)):
        alone, _ = _power_slice_solve(left[j:j + 1], mids[j:j + 1], measure, c)
        assert np.array_equal(rows[j], alone[0]), (j, settling)


def _measure(kind, basis):
    if kind == "pointer":
        return QuantumnessMeasure.pointer(basis)
    return QuantumnessMeasure.linear_entropy(2, 2)


@pytest.fixture
def stage_calls(monkeypatch):
    """Count ``_sphere_ascend`` runs and scalar ``gradient_conj`` calls."""
    calls = {"ascents": 0, "gradients": 0}
    real_ascend = optimizer._sphere_ascend
    real_gradient = QuantumnessMeasure.gradient_conj

    def counting_ascend(*args):
        calls["ascents"] += 1
        return real_ascend(*args)

    def counting_gradient(self, psi):
        calls["gradients"] += 1
        return real_gradient(self, psi)

    monkeypatch.setattr(optimizer, "_sphere_ascend", counting_ascend)
    monkeypatch.setattr(QuantumnessMeasure, "gradient_conj", counting_gradient)
    return calls


@pytest.mark.parametrize("measure_kind", ["pointer", "entropy"])
def test_collapse_runs_no_sphere_ascent_or_scalar_gradient(stage_calls, measure_kind):
    hamiltonian, psi_i, basis = qubit_detector_model(weight0=0.75)
    measure = _measure(measure_kind, basis)
    for lam in [0.0, 1.0, 50.0, 1e4]:
        problem = PenalizedPathProblem(psi_i, TimeGrid(0.0, 1.0, 8), hamiltonian,
                                       PenaltyConfig(lam, measure))
        optimize_penalized(problem, reporting_basis=basis)
    assert not hasattr(quantumness, "_sphere_ascend")
    assert stage_calls == {"ascents": 0, "gradients": 0}


# ------------------------------------------------- final state as a slice solve

def _stage_one_value(x, evolved, measure, c):
    """Re<x|U psi_i> - 1 minus the terminal node's penalty share c/2 Q(x)."""
    return float(np.real(np.vdot(x, evolved)) - 1.0 - 0.5 * c * measure.value(x))


@pytest.mark.parametrize("weight0", [0.3, 0.5, 0.75, 0.9, 0.99])
@pytest.mark.parametrize("measure_kind", ["pointer", "entropy"])
def test_final_state_scores_at_least_the_endpoint_ascent(measure_kind, weight0):
    # the reference is projected-gradient ascent of the stage-one objective
    # from the evolved state: step 1, 200 iterations, gradient tolerance 1e-6
    hamiltonian, psi_i, basis = qubit_detector_model(weight0=weight0)
    measure = _measure(measure_kind, basis)
    evolved = evolve(hamiltonian, psi_i, 1.0).amplitudes
    for lam in [0.5, 1.0, 5.0, 20.0, 200.0, 1e3, 1e4, 4.6e4, 1e5, 1e6]:
        for steps in [1, 4, 16, 32]:
            grid = TimeGrid(0.0, 1.0, steps)
            c = lam * grid.dt
            problem = PenalizedPathProblem(psi_i, grid, hamiltonian, PenaltyConfig(lam, measure))
            # the final state does not depend on the sweeps that follow it
            x = optimize_penalized(problem, OptimizerConfig(max_iters=1)).final_state.amplitudes
            ascent = _sphere_ascend(
                evolved.copy(),
                lambda y: _stage_one_value(y, evolved, measure, c),
                lambda y: 0.5 * evolved - 0.5 * c * measure.gradient_conj(y),
                1.0, 200, 1e-6,
            )[0]
            assert (_stage_one_value(x, evolved, measure, c)
                    >= _stage_one_value(ascent, evolved, measure, c) - 1e-12 * (1.0 + c)), \
                (lam, steps)


@pytest.mark.parametrize("measure_kind, steps", [
    ("pointer", 32), ("entropy", 2), ("entropy", 4), ("entropy", 8), ("entropy", 16),
])
def test_strong_penalty_runs_converge(measure_kind, steps):
    hamiltonian, psi_i, basis = qubit_detector_model(weight0=0.75)
    penalty = PenaltyConfig(1e4, _measure(measure_kind, basis))
    problem = PenalizedPathProblem(psi_i, TimeGrid(0.0, 1.0, steps), hamiltonian, penalty)
    report = optimize_penalized(problem, reporting_basis=basis).report
    assert report.converged
    assert report.nearest_pointer_index == 0
    assert report.fidelity_to_pointer >= 1.0 - 1e-3


# ------------------------------------------------- over-relaxed sweeps

def _detector_problem(kind, lam, steps):
    hamiltonian, psi_i, basis = qubit_detector_model(weight0=0.75)
    return PenalizedPathProblem(psi_i, TimeGrid(0.0, 1.0, steps), hamiltonian,
                                PenaltyConfig(lam, _measure(kind, basis)))


def _plain_red_black(problem, max_iters):
    """The relaxation with plain red-black sweeps only: the same start, slice
    updates and stop test, no over-relaxation; returns (path, trace, converged)."""
    grid, penalty = problem.grid, problem.penalty
    c = penalty.lam * grid.dt
    x = optimize_penalized(problem, OptimizerConfig(max_iters=1)).path[-1]  # no sweep moves it
    states = quantumness._initial_path(problem.psi_i.amplitudes, x, grid.steps)
    trace = [quantumness._log_magnitude(states, problem.hamiltonian, penalty, grid)]
    converged = grid.steps < 2
    colours = [ks for ks in (np.arange(1, grid.steps, 2), np.arange(2, grid.steps, 2)) if ks.size]
    for _ in range(max_iters if colours else 0):
        for ks in colours:
            mids = 0.5 * (states[ks - 1] + states[ks + 1])
            states[ks] = quantumness._relax_colour(states[ks], mids, penalty.measure, c)
        trace.append(quantumness._log_magnitude(states, problem.hamiltonian, penalty, grid))
        if trace[-1] - trace[-2] <= 1e-12 * (1.0 + abs(trace[-1])):
            converged = True
            break
    return states, tuple(trace), converged


def _assert_same_run(outcome, plain):
    path, trace, converged = plain
    np.testing.assert_array_equal(outcome.path, path)
    assert outcome.report.sweep_trace == trace
    assert outcome.report.converged == converged


@pytest.mark.parametrize("kind", ["pointer", "entropy"])
def test_unpenalized_runs_keep_the_plain_sweep_bits(kind):
    # at lam = 0 every grid stops within the first four sweeps, which are plain
    for steps in range(1, 65):
        problem = _detector_problem(kind, 0.0, steps)
        outcome = optimize_penalized(problem)
        assert outcome.report.sweeps <= 4, steps
        _assert_same_run(outcome, _plain_red_black(problem, 200))


@pytest.mark.parametrize("max_iters", [1, 2, 3, 4])
@pytest.mark.parametrize("kind", ["pointer", "entropy"])
def test_runs_capped_at_four_sweeps_keep_the_plain_sweep_bits(kind, max_iters):
    for lam in [1.0, 5.0, 200.0]:
        for steps in [2, 4, 16, 32]:
            problem = _detector_problem(kind, lam, steps)
            outcome = optimize_penalized(problem, OptimizerConfig(max_iters=max_iters))
            _assert_same_run(outcome, _plain_red_black(problem, max_iters))


@pytest.mark.parametrize("steps", [4, 16, 32, 64])
@pytest.mark.parametrize("lam", [1.0, 5.0, 200.0])
@pytest.mark.parametrize("kind", ["pointer", "entropy"])
def test_over_relaxation_ends_no_lower_than_plain_sweeps(kind, lam, steps):
    problem = _detector_problem(kind, lam, steps)
    over = optimize_penalized(problem).report
    _, trace, converged = _plain_red_black(problem, OptimizerConfig().max_iters)
    assert over.log_magnitude >= trace[-1] - 1e-12
    assert over.converged or not converged


@pytest.mark.parametrize("c", [0.3, 5.0])
@pytest.mark.parametrize("kind", ["pointer", "entropy"])
def test_over_relaxed_colour_update_never_lowers_a_slice_value(kind, c):
    # rows near their slice maximizers: a long extrapolation overshoots and
    # must fall back to the plain update
    rng = np.random.default_rng(17)
    measure = _measure(kind, np.eye(4))
    mids = rng.normal(size=(12, 4)) + 1j * rng.normal(size=(12, 4))
    best = quantumness._relax_colour(_unit_rows(mids, mids), mids, measure, c)
    noise = rng.normal(size=best.shape) + 1j * rng.normal(size=best.shape)
    rows = _unit_rows(best + 0.05 * noise, best)
    old = _slice_values(rows, mids, measure, c)
    plain = quantumness._relax_colour(rows, mids, measure, c)
    fell_back = {}
    for omega in [1.5, 1.9, 3.0]:
        out = quantumness._relax_colour(rows, mids, measure, c, omega)
        assert np.all(_slice_values(out, mids, measure, c) >= old), omega
        np.testing.assert_allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-14)
        fell_back[omega] = np.all(out == plain, axis=1)
    assert not fell_back[1.5].any()  # a short extrapolation is taken
    assert fell_back[3.0].all()  # one past the reflection overshoots: none is


@pytest.fixture
def sweep_factors(monkeypatch):
    """The over-relaxation factor of every colour update, in call order."""
    factors = []
    relax = quantumness._relax_colour

    def recording_relax(rows, mids, measure, c, omega=1.0):
        factors.append(omega)
        return relax(rows, mids, measure, c, omega)

    monkeypatch.setattr(quantumness, "_relax_colour", recording_relax)
    return factors


@pytest.mark.parametrize("kind, lam, steps", [
    ("pointer", 1.0, 16), ("pointer", 1.0, 32), ("pointer", 1.0, 64), ("pointer", 5.0, 32),
    ("entropy", 1.0, 16), ("entropy", 5.0, 32),
])
def test_a_converged_run_ends_with_a_plain_sweep(sweep_factors, kind, lam, steps):
    report = optimize_penalized(_detector_problem(kind, lam, steps)).report
    assert report.converged
    per_sweep = sweep_factors[1:]  # the first call is the final-state solve
    assert len(per_sweep) == 2 * report.sweeps
    assert per_sweep[-2:] == [1.0, 1.0]
    assert max(per_sweep) > 1.0  # the run did over-relax before it stopped
    assert max(per_sweep) <= 2.0 / (1.0 + math.sin(math.pi / steps))


def test_over_relaxation_sweep_ceilings():
    pointer = optimize_penalized(_detector_problem("pointer", 1.0, 32)).report
    assert pointer.converged and pointer.sweeps <= 70
    entropy = optimize_penalized(_detector_problem("entropy", 1.0, 16)).report
    assert entropy.converged and entropy.sweeps < OptimizerConfig().max_iters == 200


# ---------------------------------------------------------------- detector toy

def test_detector_model_validation():
    with pytest.raises(ValueError, match="weight0"):
        qubit_detector_model(weight0=-0.1)
    with pytest.raises(ValueError, match="weight0"):
        qubit_detector_model(weight0=1.5)
    with pytest.raises(ValueError, match="coupling"):
        qubit_detector_model(coupling=math.inf)


def test_detector_model_evolution_matches_the_hand_formula():
    weight0 = 0.72
    hamiltonian, psi_i, basis = qubit_detector_model(weight0=weight0)
    evolved = evolve(hamiltonian, psi_i, 1.0)
    expected = np.array(
        [math.sqrt(weight0), 0.0, 0.0, -1j * math.sqrt(1.0 - weight0)]
    )
    assert np.max(np.abs(evolved.amplitudes - expected)) <= 1e-12
    np.testing.assert_array_equal(basis, np.eye(4))


def test_detector_model_passes_hbar_through():
    hamiltonian, _, _ = qubit_detector_model(hbar=2.0)
    assert hamiltonian.hbar == 2.0
