"""Closed-form functional values, mode-factor products, and invariances."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import degenerate_hermitian, reference_propagator
from statepath import (
    ABS_Z_LOWER,
    ABS_Z_UPPER,
    FunctionalValue,
    Hamiltonian,
    OptimizerConfig,
    StateVector,
    basis_invariance_check,
    evolve,
    maximize_final_state,
    overlap,
    propagator,
    random_hamiltonian,
    random_state,
    random_unitary,
    spectral_decompose,
    z_closed_form,
    z_from_mode_product,
    z_mode_factor,
)

FACTOR_TOL = 1e-10
BOUND_SLACK = 1e-12
ROUTE_TOL = 1e-12


def orthogonal_to(psi: StateVector, seed: int) -> StateVector:
    """A deterministic unit vector orthogonal to psi (dim must exceed 1)."""
    raw = random_state(psi.dim, seed).amplitudes
    raw = raw - np.vdot(psi.amplitudes, raw) * psi.amplitudes
    return StateVector.normalized(raw)


# --------------------------------------------------------------------- overlap

def test_overlap_with_evolved_state_is_one():
    hamiltonian = random_hamiltonian(4, 1)
    psi_i = random_state(4, 2)
    evolved = evolve(hamiltonian, psi_i, 0.7)
    assert abs(overlap(evolved, hamiltonian, psi_i, 0.7) - 1.0) <= 1e-12


def test_overlap_with_orthogonal_state_is_zero():
    hamiltonian = random_hamiltonian(5, 3)
    psi_i = random_state(5, 4)
    psi_e = orthogonal_to(evolve(hamiltonian, psi_i, 1.1), 6)
    assert abs(overlap(psi_e, hamiltonian, psi_i, 1.1)) <= 1e-12


def test_overlap_equal_superposition_half_period():
    # (1/2)(+1) + (1/2)(-1): the two level phases cancel exactly
    s = 1 / math.sqrt(2)
    psi = StateVector([s, s])
    value = overlap(psi, Hamiltonian(np.diag([0.0, 1.0])), psi, math.pi)
    assert abs(value) <= 1e-12


def test_overlap_rejects_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        overlap(random_state(3, 0), random_hamiltonian(4, 0), random_state(4, 0), 1.0)


@pytest.mark.parametrize("dim", [1, 2, 5, 16, 64])
@pytest.mark.parametrize("hbar", [1.0, 2.5])
@pytest.mark.parametrize("degenerate", [False, True])
def test_overlap_and_z_match_an_explicit_propagator(dim, hbar, degenerate):
    if degenerate:
        matrix = degenerate_hermitian(dim, 60 + dim)
    else:
        matrix = random_hamiltonian(dim, 60 + dim).matrix
    hamiltonian = Hamiltonian(matrix, hbar=hbar)
    psi_i, psi_e = random_state(dim, 5), random_state(dim, 6)
    # at t = 0 the propagator is the identity
    cases = [(0.0, np.eye(dim))]
    cases += [(t, reference_propagator(matrix, t, hbar)) for t in (-1.7, 0.9)]
    for t, u in cases:
        expected = np.vdot(psi_e.amplitudes, u @ psi_i.amplitudes)
        assert abs(overlap(psi_e, hamiltonian, psi_i, t) - expected) <= ROUTE_TOL
        value = z_closed_form(psi_i, psi_e, hamiltonian, t)
        assert abs(value.z - np.exp(expected - 1.0)) <= ROUTE_TOL


def test_one_hamiltonian_is_diagonalized_once(eigh_calls):
    hamiltonian = random_hamiltonian(6, 31)
    psi_i, psi_e = random_state(6, 32), random_state(6, 33)
    for t in np.linspace(-3.0, 3.0, 64):
        z_closed_form(psi_i, psi_e, hamiltonian, float(t))
    z_from_mode_product(psi_i, psi_e, spectral_decompose(hamiltonian), 0.4, hamiltonian.hbar)
    evolve(hamiltonian, psi_i, 0.4)
    propagator(hamiltonian, 0.4)
    maximize_final_state(hamiltonian, psi_i, 0.4, OptimizerConfig(seed=1))
    assert len(eigh_calls) == 1


# --------------------------------------------------------------- z_closed_form

def test_z_peaks_on_the_evolved_state():
    hamiltonian = random_hamiltonian(6, 5)
    psi_i = random_state(6, 6)
    value = z_closed_form(psi_i, evolve(hamiltonian, psi_i, 0.9), hamiltonian, 0.9)
    assert abs(value.z - 1.0) <= 1e-12
    assert value.magnitude <= ABS_Z_UPPER + BOUND_SLACK


def test_z_orthogonal_final_state():
    hamiltonian = random_hamiltonian(4, 7)
    psi_i = random_state(4, 8)
    psi_e = orthogonal_to(evolve(hamiltonian, psi_i, 1.3), 9)
    value = z_closed_form(psi_i, psi_e, hamiltonian, 1.3)
    assert abs(value.magnitude - math.exp(-1.0)) <= 1e-12


def test_z_antipodal_final_state_touches_lower_bound():
    hamiltonian = random_hamiltonian(4, 10)
    psi_i = random_state(4, 11)
    flipped = StateVector(-evolve(hamiltonian, psi_i, 0.6).amplitudes)
    value = z_closed_form(psi_i, flipped, hamiltonian, 0.6)
    assert abs(value.magnitude - math.exp(-2.0)) <= 1e-12
    assert value.magnitude >= ABS_Z_LOWER - BOUND_SLACK


def test_functional_value_rejects_inconsistent_pair():
    with pytest.raises(ValueError, match="inconsistent"):
        FunctionalValue(z=0.5 + 0.0j, overlap=1.0 + 0.0j)


def test_unnormalized_states_cannot_be_built():
    # normalization is enforced at the type boundary, not inside z_closed_form
    with pytest.raises(ValueError, match="not normalized"):
        StateVector([0.9, 0.1])


# --------------------------------------------------------------- z_mode_factor

def test_mode_factor_unit_coefficients_no_energy():
    assert abs(z_mode_factor(1.0, 1.0, 0.0, 2.3) - 1.0) <= 1e-15


def test_mode_factor_vanishing_initial_coefficient():
    a_e = 0.3 + 0.4j
    expected = math.exp(-0.5 * abs(a_e) ** 2)
    assert abs(z_mode_factor(0.0, a_e, 1.7, 0.9) - expected) <= 1e-15


def test_mode_factor_half_period_balanced_coefficients():
    # e^{-1/2} * e^{-1/2}: the phase flips the sign of the cross term
    s = 1 / math.sqrt(2)
    assert abs(z_mode_factor(s, s, 1.0, math.pi) - math.exp(-1.0)) <= 1e-12


def test_mode_factor_hbar_rescales_the_phase():
    a, b = 0.5 + 0.2j, -0.1 + 0.7j
    assert z_mode_factor(a, b, 2.0, 1.0, hbar=2.0) == z_mode_factor(a, b, 1.0, 1.0)


# --------------------------------------------------------- z_from_mode_product

def test_mode_product_single_mode_equals_closed_form():
    hamiltonian = random_hamiltonian(1, 12)
    psi = random_state(1, 13)
    dec = spectral_decompose(hamiltonian)
    via_product = z_from_mode_product(psi, psi, dec, 0.8)
    via_closed = z_closed_form(psi, psi, hamiltonian, 0.8)
    assert abs(via_product.z - via_closed.z) <= 1e-14
    assert len(via_product.mode_factors) == 1


def test_mode_product_two_level_half_period():
    s = 1 / math.sqrt(2)
    psi = StateVector([s, s])
    dec = spectral_decompose(Hamiltonian(np.diag([0.0, 1.0])))
    value = z_from_mode_product(psi, psi, dec, math.pi)
    assert abs(value.z - math.exp(-1.0)) <= 1e-12


def test_mode_product_matches_closed_form_dim8():
    hamiltonian = random_hamiltonian(8, 13)
    psi_i = random_state(8, 14)
    psi_e = random_state(8, 15)
    product = z_from_mode_product(psi_i, psi_e, spectral_decompose(hamiltonian), 1.9)
    closed = z_closed_form(psi_i, psi_e, hamiltonian, 1.9)
    assert abs(product.z - closed.z) <= FACTOR_TOL


def test_mode_product_rejects_dimension_mismatch():
    dec = spectral_decompose(random_hamiltonian(3, 0))
    with pytest.raises(ValueError, match="dimension mismatch"):
        z_from_mode_product(random_state(4, 0), random_state(4, 1), dec, 1.0)


# ------------------------------------------------------- basis invariance

def test_basis_invariance_under_identity():
    assert basis_invariance_check(
        random_state(3, 16), random_state(3, 17), random_hamiltonian(3, 18), 0.5, np.eye(3)
    ) == 0.0


def test_basis_invariance_under_permutation():
    permutation = np.eye(4)[[2, 0, 3, 1]]
    deviation = basis_invariance_check(
        random_state(4, 19), random_state(4, 20),
        Hamiltonian(np.diag([0.0, 1.0, 2.0, 3.0])), 1.2, permutation,
    )
    assert deviation <= 1e-12


def test_basis_invariance_random_unitary_dim8():
    deviation = basis_invariance_check(
        random_state(8, 21), random_state(8, 22), random_hamiltonian(8, 23),
        0.9, random_unitary(8, 24),
    )
    assert deviation <= FACTOR_TOL


def test_basis_invariance_rejects_non_unitary():
    with pytest.raises(ValueError, match="not unitary"):
        basis_invariance_check(
            random_state(2, 0), random_state(2, 1), random_hamiltonian(2, 2),
            1.0, [[1.0, 0.0], [0.0, 2.0]],
        )


def test_basis_invariance_rejects_wrong_shape():
    with pytest.raises(ValueError, match="matrix"):
        basis_invariance_check(
            random_state(2, 0), random_state(2, 1), random_hamiltonian(2, 2),
            1.0, np.eye(3),
        )


# ------------------------------------------------------------------- properties

@settings(deadline=None, derandomize=True, max_examples=60)
@given(dim=st.integers(1, 16), seed=st.integers(0, 2**31 - 1),
       t=st.floats(-4.0, 4.0, allow_nan=False))
def test_magnitude_bounds_hold_everywhere(dim, seed, t):
    hamiltonian = random_hamiltonian(dim, seed)
    value = z_closed_form(random_state(dim, seed + 1), random_state(dim, seed + 2),
                          hamiltonian, t)
    assert ABS_Z_LOWER - BOUND_SLACK <= value.magnitude <= ABS_Z_UPPER + BOUND_SLACK


@settings(deadline=None, derandomize=True, max_examples=40)
@given(dim=st.integers(1, 8), seed=st.integers(0, 2**31 - 1),
       t=st.floats(0.0, 3.0, allow_nan=False))
def test_mode_product_always_agrees_with_closed_form(dim, seed, t):
    hamiltonian = random_hamiltonian(dim, seed)
    psi_i = random_state(dim, seed + 1)
    psi_e = random_state(dim, seed + 2)
    product = z_from_mode_product(psi_i, psi_e, spectral_decompose(hamiltonian), t)
    closed = z_closed_form(psi_i, psi_e, hamiltonian, t)
    assert abs(product.z - closed.z) <= FACTOR_TOL
