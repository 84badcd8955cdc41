"""States, Hermitian operators, spectral decomposition, and evolution."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import degenerate_hermitian, reference_propagator
from statepath import (
    Hamiltonian,
    QuantumnessMeasure,
    SpectralDecomposition,
    StateVector,
    UnitaryPropagator,
    basis_invariance_check,
    evolve,
    propagator,
    random_hamiltonian,
    random_state,
    random_unitary,
    spectral_decompose,
    to_energy_coefficients,
    transition_amplitude,
)
from statepath import hilbert

RECON_TOL = 1e-10
UNITARY_TOL = 1e-10
GROUP_TOL = 1e-9
ROUTE_TOL = 1e-12


# ---------------------------------------------------------------- StateVector

def test_state_accepts_normalized_vector():
    psi = StateVector([1 / math.sqrt(2), 1j / math.sqrt(2)])
    assert psi.dim == 2
    assert abs(np.vdot(psi.amplitudes, psi.amplitudes) - 1.0) <= 1e-15


def test_state_rejects_unnormalized_vector():
    with pytest.raises(ValueError, match="not normalized"):
        StateVector([1.0, 1.0])


def test_state_snaps_tiny_norm_drift():
    drifted = np.array([1.0 + 4e-13, 0.0])
    psi = StateVector(drifted)
    assert float(np.sum(np.abs(psi.amplitudes) ** 2)) == pytest.approx(1.0, abs=1e-15)


def test_state_normalized_projects_any_vector():
    psi = StateVector.normalized([3.0, 4.0j])
    np.testing.assert_allclose(psi.amplitudes, [0.6, 0.8j], atol=1e-15)


def test_state_rejects_zero_vector():
    with pytest.raises(ValueError, match="zero vector"):
        StateVector.normalized([0.0, 0.0])


def test_state_rejects_nonfinite():
    with pytest.raises(ValueError, match="non-finite"):
        StateVector([np.nan, 0.0])


def test_state_amplitudes_are_frozen():
    psi = random_state(3, 0)
    with pytest.raises(ValueError):
        psi.amplitudes[0] = 0.0


# ---------------------------------------------------------------- Hamiltonian

def test_hamiltonian_rejects_non_hermitian():
    with pytest.raises(ValueError, match="not Hermitian"):
        Hamiltonian([[0.0, 1.0], [0.0, 0.0]])


def test_hamiltonian_rejects_nonpositive_hbar():
    with pytest.raises(ValueError, match="hbar"):
        Hamiltonian(np.eye(2), hbar=0.0)


def test_hamiltonian_rejects_rectangular():
    with pytest.raises(ValueError, match="square"):
        Hamiltonian(np.zeros((2, 3)))


def test_hamiltonian_rejects_a_non_unitary_eigenbasis(monkeypatch):
    real_eigh = np.linalg.eigh

    def stretched_eigh(matrix):
        energies, vectors = real_eigh(matrix)
        return energies, 2.0 * vectors

    monkeypatch.setattr(np.linalg, "eigh", stretched_eigh)
    with pytest.raises(ValueError, match="unitary"):
        Hamiltonian(np.diag([0.0, 1.0]))


def _drifted(drift):
    """The 2x2 identity with its first column stretched so max |M^dag M - I| = drift."""
    matrix = np.eye(2, dtype=np.complex128)
    matrix[0, 0] = math.sqrt(1.0 + drift)
    return matrix


def _eigenbasis_site(matrix, monkeypatch):
    real_eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: (real_eigh(a)[0], matrix))
    Hamiltonian(np.diag([0.0, 1.0]))


def _basis_change_site(matrix, monkeypatch):
    # the stretched column meets no amplitude, so only the unitarity check can refuse
    e1 = StateVector([0.0, 1.0])
    basis_invariance_check(e1, e1, Hamiltonian(np.diag([0.0, 1.0])), 1.0, matrix)


# site: (build it from a matrix, the words that open its refusal)
UNITARITY_SITES = {
    "eigenbasis": (_eigenbasis_site, "eigenbasis is not unitary"),
    "spectral": (lambda m, _: SpectralDecomposition([0.0, 1.0], m),
                 "eigenvector matrix is not unitary"),
    "propagator": (lambda m, _: UnitaryPropagator(m, 1.0), "matrix is not unitary"),
    "pointer-basis": (lambda m, _: QuantumnessMeasure.pointer(m),
                      "pointer basis is not orthonormal"),
    "basis-change": (_basis_change_site, "basis change is not unitary"),
}


@pytest.mark.parametrize("site", list(UNITARITY_SITES))
def test_unitarity_tolerance_is_one_rule_at_every_site(site, monkeypatch):
    build, words = UNITARITY_SITES[site]
    build(_drifted(0.99 * hilbert.UNITARY_TOL), monkeypatch)
    with pytest.raises(ValueError, match=f"^{words}: max "):
        build(_drifted(1.01 * hilbert.UNITARY_TOL), monkeypatch)


# --------------------------------------------------------- spectral_decompose

def test_spectral_diagonal_input():
    dec = spectral_decompose(Hamiltonian(np.diag([0.0, 2.5])))
    np.testing.assert_allclose(dec.energies, [0.0, 2.5])
    np.testing.assert_allclose(dec.eigenvectors, np.eye(2), atol=1e-15)


def test_spectral_exchange_symmetric_two_level():
    # off-diagonal coupling of equal levels splits symmetrically
    dec = spectral_decompose(Hamiltonian([[0.0, 1.0], [1.0, 0.0]]))
    np.testing.assert_allclose(dec.energies, [-1.0, 1.0], atol=1e-15)
    s = 1 / math.sqrt(2)
    np.testing.assert_allclose(np.abs(dec.eigenvectors), [[s, s], [s, s]], atol=1e-12)
    # phase canonicalization puts the lead entry on the positive real axis
    np.testing.assert_allclose(dec.eigenvectors[:, 0], [s, -s], atol=1e-12)
    np.testing.assert_allclose(dec.eigenvectors[:, 1], [s, s], atol=1e-12)


def test_spectral_reconstructs_random_operator():
    hamiltonian = random_hamiltonian(8, 42)
    dec = spectral_decompose(hamiltonian)
    rebuilt = (dec.eigenvectors * dec.energies) @ dec.eigenvectors.conj().T
    residual = float(np.abs(rebuilt - hamiltonian.matrix).max())
    assert residual <= RECON_TOL * (1.0 + float(np.abs(dec.energies).max()))
    drift = float(np.abs(dec.eigenvectors.conj().T @ dec.eigenvectors - np.eye(8)).max())
    assert drift <= UNITARY_TOL


def test_spectral_output_is_deterministic():
    a = spectral_decompose(random_hamiltonian(6, 3))
    b = spectral_decompose(random_hamiltonian(6, 3))
    assert np.array_equal(a.energies, b.energies)
    assert np.array_equal(a.eigenvectors, b.eigenvectors)


def test_spectral_degenerate_subspace_projector():
    # a degenerate block admits many eigenbases; the projector is unique
    hamiltonian = Hamiltonian(np.diag([1.0, 1.0, 3.0]))
    dec = spectral_decompose(hamiltonian)
    v = dec.eigenvectors[:, :2]
    projector = v @ v.conj().T
    np.testing.assert_allclose(projector, np.diag([1.0, 1.0, 0.0]), atol=1e-12)


def _canonical_by_columns(matrix):
    """Column-by-column canonicalization: the definition the vectorized one must match."""
    energies, vectors = np.linalg.eigh(matrix)
    vectors = vectors.copy()
    for j in range(vectors.shape[1]):
        column = vectors[:, j]
        lead = int(np.argmax(np.abs(column)))
        phase = column[lead] / abs(column[lead])
        vectors[:, j] = column * np.conj(phase)

    def column_key(j: int):
        parts = np.column_stack((vectors[:, j].real, vectors[:, j].imag))
        return (float(energies[j]), tuple(parts.ravel()))

    order = sorted(range(energies.size), key=column_key)
    return energies[order], vectors[:, order]


@pytest.mark.parametrize(
    "matrix",
    [random_hamiltonian(dim, seed).matrix for dim in (2, 3, 5, 8, 16, 33) for seed in range(4)]
    + [degenerate_hermitian(6, seed) for seed in range(4)]
    + [np.diag([1.0, 1.0, 3.0]), np.zeros((4, 4)), np.eye(5), np.array([[0.7]])],
)
def test_spectral_canonical_form_matches_the_column_loop_bitwise(matrix):
    dec = spectral_decompose(Hamiltonian(matrix))
    energies, vectors = _canonical_by_columns(matrix)
    assert np.array_equal(dec.energies, energies)
    assert np.array_equal(dec.eigenvectors, vectors)


def test_decomposition_type_rejects_descending_energies():
    with pytest.raises(ValueError, match="ascending"):
        SpectralDecomposition([1.0, 0.0], np.eye(2))


def test_decomposition_type_rejects_non_unitary_columns():
    with pytest.raises(ValueError, match="unitary"):
        SpectralDecomposition([0.0, 1.0], [[1.0, 1.0], [0.0, 0.0]])


# ------------------------------------------------------------------ propagator

def test_propagator_half_period_phase():
    u = propagator(Hamiltonian(np.diag([0.0, 1.0])), math.pi)
    np.testing.assert_allclose(u.matrix, np.diag([1.0, -1.0]), atol=1e-14)


def test_propagator_zero_time_is_identity():
    u = propagator(random_hamiltonian(5, 1), 0.0)
    np.testing.assert_allclose(u.matrix, np.eye(5), atol=1e-12)
    assert u.duration == 0.0


def test_propagator_exchange_quarter_period():
    # oracle: exp(-i X theta) = cos(theta) I - i sin(theta) X at theta = pi/2
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    u = propagator(Hamiltonian(x), math.pi / 2)
    np.testing.assert_allclose(u.matrix, -1j * x, atol=1e-14)


def test_propagator_respects_hbar():
    matrix = random_hamiltonian(4, 8).matrix
    doubled = propagator(Hamiltonian(matrix, hbar=2.0), 1.4)
    halved_time = propagator(Hamiltonian(matrix, hbar=1.0), 0.7)
    np.testing.assert_allclose(doubled.matrix, halved_time.matrix, atol=1e-12)


def test_propagator_group_property():
    for seed in range(5):
        hamiltonian = random_hamiltonian(6, seed)
        u_sum = propagator(hamiltonian, 0.9 + 0.4).matrix
        u_prod = propagator(hamiltonian, 0.9).matrix @ propagator(hamiltonian, 0.4).matrix
        assert float(np.abs(u_sum - u_prod).max()) <= GROUP_TOL


def test_propagator_rejects_nonfinite_time():
    with pytest.raises(ValueError, match="finite"):
        propagator(random_hamiltonian(2, 0), math.inf)


def test_unitary_type_rejects_non_unitary():
    with pytest.raises(ValueError, match="unitary"):
        UnitaryPropagator([[1.0, 0.0], [0.0, 2.0]], 1.0)


# ---------------------------------------------------------------------- evolve

def test_evolve_zero_time_returns_input():
    psi = random_state(4, 2)
    np.testing.assert_allclose(evolve(random_hamiltonian(4, 3), psi, 0.0).amplitudes,
                               psi.amplitudes, atol=1e-12)


def test_evolve_ground_eigenstate_is_stationary():
    hamiltonian = Hamiltonian(np.diag([0.0, 1.7]))
    psi = StateVector([1.0, 0.0])
    for t in (0.3, 1.0, 5.5):
        np.testing.assert_allclose(evolve(hamiltonian, psi, t).amplitudes,
                                   [1.0, 0.0], atol=1e-14)


def test_evolve_relative_phase_half_period():
    s = 1 / math.sqrt(2)
    out = evolve(Hamiltonian(np.diag([0.0, 1.0])), StateVector([s, s]), math.pi)
    np.testing.assert_allclose(out.amplitudes, [s, -s], atol=1e-14)


def test_evolve_rejects_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        evolve(random_hamiltonian(3, 0), random_state(4, 0), 1.0)


@pytest.mark.parametrize("dim", [1, 2, 5, 16, 64])
@pytest.mark.parametrize("hbar", [1.0, 2.5])
@pytest.mark.parametrize("degenerate", [False, True])
def test_evolve_and_amplitude_match_an_explicit_propagator(dim, hbar, degenerate):
    if degenerate:
        matrix = degenerate_hermitian(dim, 40 + dim)
    else:
        matrix = random_hamiltonian(dim, 40 + dim).matrix
    hamiltonian = Hamiltonian(matrix, hbar=hbar)
    psi_i, psi_e = random_state(dim, 1), random_state(dim, 2)
    # at t = 0 the propagator is the identity
    cases = [(0.0, np.eye(dim))]
    cases += [(t, reference_propagator(matrix, t, hbar)) for t in (-2.3, 0.7, 3.1)]
    for t, u in cases:
        evolved = u @ psi_i.amplitudes
        assert np.abs(evolve(hamiltonian, psi_i, t).amplitudes - evolved).max() <= ROUTE_TOL
        expected = np.vdot(psi_e.amplitudes, evolved)
        assert abs(transition_amplitude(psi_e, hamiltonian, psi_i, t) - expected) <= ROUTE_TOL


def test_transition_amplitude_rejects_bad_input():
    with pytest.raises(ValueError, match="dimension mismatch"):
        transition_amplitude(random_state(3, 0), random_hamiltonian(4, 0), random_state(4, 0), 1.0)
    with pytest.raises(ValueError, match="finite"):
        transition_amplitude(random_state(2, 0), random_hamiltonian(2, 0), random_state(2, 1),
                             math.nan)


def test_evolve_preserves_norm_battery():
    rng = np.random.default_rng(1234)
    for _ in range(1000):
        dim = int(rng.integers(1, 17))
        hamiltonian = random_hamiltonian(dim, int(rng.integers(0, 2**31)))
        psi = random_state(dim, int(rng.integers(0, 2**31)))
        t = float(rng.uniform(-4.0, 4.0))
        raw = propagator(hamiltonian, t).matrix @ psi.amplitudes
        assert abs(float(np.sum(np.abs(raw) ** 2)) - 1.0) <= 1e-12


# ---------------------------------------------------- to_energy_coefficients

def test_coefficients_of_an_eigenstate():
    dec = spectral_decompose(random_hamiltonian(5, 9))
    psi = StateVector(dec.eigenvectors[:, 0])
    coeffs = to_energy_coefficients(psi, dec)
    np.testing.assert_allclose(coeffs, np.eye(5)[0], atol=1e-12)


def test_coefficients_for_diagonal_operator_equal_amplitudes():
    dec = spectral_decompose(Hamiltonian(np.diag([0.0, 1.0, 2.0])))
    psi = random_state(3, 5)
    np.testing.assert_allclose(to_energy_coefficients(psi, dec), psi.amplitudes,
                               atol=1e-12)


def test_coefficients_round_trip():
    dec = spectral_decompose(random_hamiltonian(4, 7))
    psi = random_state(4, 7)
    coeffs = to_energy_coefficients(psi, dec)
    assert abs(float(np.sum(np.abs(coeffs) ** 2)) - 1.0) <= 1e-12
    np.testing.assert_allclose(dec.eigenvectors @ coeffs, psi.amplitudes, atol=1e-12)


def test_coefficients_reject_dimension_mismatch():
    dec = spectral_decompose(random_hamiltonian(3, 0))
    with pytest.raises(ValueError, match="dimension mismatch"):
        to_energy_coefficients(random_state(4, 0), dec)


# ------------------------------------------------------------- random sources

def test_random_state_single_mode_is_pure_phase():
    psi = random_state(1, 17)
    assert abs(abs(psi.amplitudes[0]) - 1.0) <= 1e-15


def test_random_sources_are_deterministic():
    assert np.array_equal(random_state(6, 11).amplitudes, random_state(6, 11).amplitudes)
    assert np.array_equal(random_hamiltonian(6, 11).matrix, random_hamiltonian(6, 11).matrix)
    assert not np.array_equal(random_state(6, 11).amplitudes, random_state(6, 12).amplitudes)


def test_random_hamiltonian_passes_invariants():
    hamiltonian = random_hamiltonian(8, 42)
    asymmetry = float(np.abs(hamiltonian.matrix - hamiltonian.matrix.conj().T).max())
    assert asymmetry <= 1e-12 * float(np.abs(hamiltonian.matrix).max())
    dec = spectral_decompose(hamiltonian)
    assert np.all(np.diff(dec.energies) >= 0.0)


def test_random_hamiltonian_scales_linearly():
    base = random_hamiltonian(4, 21, energy_scale=1.0)
    scaled = random_hamiltonian(4, 21, energy_scale=2.5)
    np.testing.assert_allclose(scaled.matrix, 2.5 * base.matrix, atol=1e-14)


def test_random_hamiltonian_hbar_leaves_the_matrix_bits_alone():
    drawn = random_hamiltonian(5, 21, energy_scale=1.5, hbar=2.5)
    assert drawn.hbar == 2.5
    assert np.array_equal(drawn.matrix, random_hamiltonian(5, 21, energy_scale=1.5).matrix)


def test_random_unitary_is_unitary():
    u = random_unitary(7, 99)
    drift = float(np.abs(u.conj().T @ u - np.eye(7)).max())
    assert drift <= UNITARY_TOL


def test_random_sources_reject_bad_dim():
    with pytest.raises(ValueError):
        random_state(0, 1)
    with pytest.raises(ValueError):
        random_hamiltonian(-2, 1)
    with pytest.raises(ValueError):
        random_hamiltonian(3, 1, energy_scale=0.0)


@settings(deadline=None, derandomize=True, max_examples=40)
@given(dim=st.integers(1, 8), seed=st.integers(0, 2**32 - 1),
       t=st.floats(-3.0, 3.0, allow_nan=False))
def test_propagator_is_always_unitary(dim, seed, t):
    u = propagator(random_hamiltonian(dim, seed), t)
    drift = float(np.abs(u.matrix.conj().T @ u.matrix - np.eye(dim)).max())
    assert drift <= UNITARY_TOL
