"""Closed-form evaluation of the state-path functional Z.

Z attaches a complex weight exp(overlap - 1) to a pair of normalized
endpoint states, where overlap is the inner product of the final state with
the time-evolved initial state. Its magnitude lives in [exp(-2), 1] and
peaks exactly on the evolved state, global phase included. The per-mode
product over energy eigenvalues is kept as an independent verification
route; |Z|^2 is a weight, not a probability.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .hilbert import (
    Hamiltonian,
    SpectralDecomposition,
    StateVector,
    _as_complex_matrix,
    _check_unitary,
    to_energy_coefficients,
    transition_amplitude,
)

__all__ = [
    "FunctionalValue",
    "overlap",
    "z_closed_form",
    "z_mode_factor",
    "z_from_mode_product",
    "basis_invariance_check",
    "ABS_Z_LOWER",
    "ABS_Z_UPPER",
]

ABS_Z_LOWER = float(np.exp(-2.0))
ABS_Z_UPPER = 1.0
_CONSISTENCY_TOL = 1e-12


@dataclass(frozen=True)
class FunctionalValue:
    """Functional value ``z`` plus the overlap it derives from.

    ``mode_factors`` is populated only by the mode-product route. Whenever
    ``overlap`` is present, ``z`` must equal exp(overlap - 1) to within
    1e-12; construction enforces that.
    """

    z: complex
    overlap: Optional[complex] = None
    mode_factors: Optional[Tuple[complex, ...]] = None

    def __post_init__(self) -> None:
        if self.overlap is not None:
            expected = np.exp(self.overlap - 1.0)
            gap = abs(self.z - expected)
            if gap > _CONSISTENCY_TOL:
                raise ValueError(
                    f"inconsistent FunctionalValue: |z - exp(overlap - 1)| = {gap:.3e} "
                    f"exceeds {_CONSISTENCY_TOL:.0e}"
                )

    @property
    def magnitude(self) -> float:
        return float(abs(self.z))


def overlap(psi_e: StateVector, hamiltonian: Hamiltonian, psi_i: StateVector, t: float) -> complex:
    """Inner product of the final state with the evolved initial state.

    Summed over the energy modes of the operator's stored eigensystem in
    O(d^2); neither the propagator nor the evolved state is built.
    """
    return transition_amplitude(psi_e, hamiltonian, psi_i, t)


def z_closed_form(psi_i: StateVector, psi_e: StateVector, hamiltonian: Hamiltonian, t: float) -> FunctionalValue:
    """Evaluate Z = exp(overlap - 1) for a pair of normalized endpoint states."""
    ov = overlap(psi_e, hamiltonian, psi_i, t)
    return FunctionalValue(z=complex(np.exp(ov - 1.0)), overlap=ov)


def z_mode_factor(a_i: complex, a_e: complex, energy: float, t: float, hbar: float = 1.0) -> complex:
    """Single-mode factor of the product form.

    exp(-(|a_e|^2 + |a_i|^2)/2) * exp(exp(-i*energy*t/hbar) * conj(a_e) * a_i),
    written term for term like the analytic coherent-chain propagator so the
    cross-module identity holds bitwise.
    """
    phase = np.exp(-1j * energy * t / hbar)
    return complex(
        np.exp(-0.5 * (abs(a_e) ** 2 + abs(a_i) ** 2)) * np.exp(phase * np.conj(a_e) * a_i)
    )


def z_from_mode_product(
    psi_i: StateVector,
    psi_e: StateVector,
    decomposition: SpectralDecomposition,
    t: float,
    hbar: float = 1.0,
) -> FunctionalValue:
    """Z as the product of per-mode factors over the energy eigenbasis.

    Independent verification route for ``z_closed_form``; the two must agree
    to 1e-10 for normalized states.
    """
    a_i = to_energy_coefficients(psi_i, decomposition)
    a_e = to_energy_coefficients(psi_e, decomposition)
    factors = tuple(
        z_mode_factor(ai, ae, energy, t, hbar)
        for ai, ae, energy in zip(a_i, a_e, decomposition.energies)
    )
    z = complex(np.prod(np.array(factors, dtype=np.complex128)))
    ov = complex(np.sum(np.exp(-1j * decomposition.energies * t / hbar) * np.conj(a_e) * a_i))
    return FunctionalValue(z=z, overlap=ov, mode_factors=factors)


def basis_invariance_check(
    psi_i: StateVector,
    psi_e: StateVector,
    hamiltonian: Hamiltonian,
    t: float,
    u_basis,
) -> float:
    """|Z - Z'| after conjugating both states and the operator by a unitary.

    The functional is basis independent, so the result is pure floating-point
    noise for a genuinely unitary ``u_basis``; non-unitary input is rejected.
    """
    u = _as_complex_matrix(u_basis)
    if u.shape[0] != hamiltonian.dim:
        raise ValueError(
            f"basis change must be a {hamiltonian.dim}x{hamiltonian.dim} matrix, got shape {u.shape}"
        )
    _check_unitary(u, "basis change is not unitary")
    z_original = z_closed_form(psi_i, psi_e, hamiltonian, t).z
    conjugated = u @ hamiltonian.matrix @ u.conj().T
    # re-symmetrize the rounding left by the triple product
    transformed = Hamiltonian(0.5 * (conjugated + conjugated.conj().T), hbar=hamiltonian.hbar)
    z_transformed = z_closed_form(
        StateVector(u @ psi_i.amplitudes),
        StateVector(u @ psi_e.amplitudes),
        transformed,
        t,
    ).z
    return float(abs(z_original - z_transformed))
