"""Finite-dimensional Hilbert-space substrate.

States, Hermitian operators, spectral decompositions, and unitary time
evolution. Everything is immutable after construction and safe to share
across threads; operations are pure functions of their arguments.

A ``Hamiltonian`` diagonalizes itself once, at construction, and keeps the
raw eigensystem read-only. Evolution and transition amplitudes work in that
eigenbasis, ``V (e^{-iEt/hbar} * V^dag psi)``, at O(d^2) per call and never
build the propagator matrix; ``propagator`` exists for callers who want
``U(t)`` itself, and ``spectral_decompose`` only canonicalizes the stored
eigensystem.
"""

from __future__ import annotations

import math
from numbers import Integral

import numpy as np

__all__ = [
    "StateVector",
    "Hamiltonian",
    "SpectralDecomposition",
    "UnitaryPropagator",
    "spectral_decompose",
    "propagator",
    "evolve",
    "transition_amplitude",
    "to_energy_coefficients",
    "random_state",
    "random_hamiltonian",
    "random_unitary",
    "NORM_SQ_TOL",
    "UNITARY_TOL",
    "HERMITIAN_RTOL",
]

NORM_SQ_TOL = 1e-12
UNITARY_TOL = 1e-10
HERMITIAN_RTOL = 1e-12


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _check_unitary(matrix: np.ndarray, what: str) -> None:
    """Refuse ``matrix`` unless max |M^dag M - I| <= ``UNITARY_TOL``; ``what``
    opens the message."""
    drift = float(np.abs(matrix.conj().T @ matrix - np.eye(matrix.shape[0])).max())
    if drift > UNITARY_TOL:
        raise ValueError(f"{what}: max |M^dag M - I| = {drift:.3e} exceeds {UNITARY_TOL:.0e}")


def _positive_int(value, name: str) -> int:
    """``value`` as a plain int, if it is an integer >= 1 (numpy ints count, bools do not)."""
    if isinstance(value, bool) or not isinstance(value, Integral) or value < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
    return int(value)


def _as_complex_vector(values) -> np.ndarray:
    arr = np.array(values, dtype=np.complex128)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"expected a nonempty 1-d complex vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("vector contains non-finite entries")
    return arr


def _as_complex_matrix(values) -> np.ndarray:
    arr = np.array(values, dtype=np.complex128)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
        raise ValueError(f"expected a square complex matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("matrix contains non-finite entries")
    return arr


class StateVector:
    """Normalized state with complex amplitudes.

    Construction accepts vectors whose squared norm is within ``NORM_SQ_TOL``
    of 1 and snaps them exactly onto the unit sphere; anything further off is
    rejected. Use :meth:`normalized` to project an arbitrary nonzero vector.
    """

    __slots__ = ("_amplitudes",)

    def __init__(self, amplitudes) -> None:
        arr = _as_complex_vector(amplitudes)
        norm_sq = float(np.sum(np.abs(arr) ** 2))
        if abs(norm_sq - 1.0) > NORM_SQ_TOL:
            raise ValueError(
                f"state is not normalized: sum of |a_k|^2 deviates from 1 by "
                f"{abs(norm_sq - 1.0):.3e} (tolerance {NORM_SQ_TOL:.0e}); "
                f"use StateVector.normalized() to project first"
            )
        self._amplitudes = _freeze(arr / np.sqrt(norm_sq))

    @classmethod
    def normalized(cls, amplitudes) -> "StateVector":
        """Project an arbitrary nonzero vector onto the unit sphere."""
        arr = _as_complex_vector(amplitudes)
        norm = float(np.linalg.norm(arr))
        if norm == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return cls(arr / norm)

    @property
    def amplitudes(self) -> np.ndarray:
        return self._amplitudes

    @property
    def dim(self) -> int:
        return int(self._amplitudes.size)

    def __repr__(self) -> str:
        return f"StateVector(dim={self.dim})"


class Hamiltonian:
    """Hermitian operator together with the action scale ``hbar``.

    Hermiticity is enforced at construction: max |M - M^dag| must not exceed
    ``HERMITIAN_RTOL`` times max |M|. Construction also computes the raw
    eigensystem once (``numpy.linalg.eigh``, an O(d^3) step), checks that
    the eigenbasis is unitary within ``UNITARY_TOL`` and stores it
    read-only; every later evolution reuses it at O(d^2). Computing it
    eagerly keeps the object immutable, so it needs no lock to be shared
    across threads.
    """

    __slots__ = ("_matrix", "_hbar", "_energies", "_eigenvectors")

    def __init__(self, matrix, hbar: float = 1.0) -> None:
        arr = _as_complex_matrix(matrix)
        hbar = float(hbar)
        if not (np.isfinite(hbar) and hbar > 0.0):
            raise ValueError(f"hbar must be a positive finite real, got {hbar!r}")
        asymmetry = float(np.abs(arr - arr.conj().T).max())
        scale = float(np.abs(arr).max())
        if asymmetry > HERMITIAN_RTOL * scale:
            raise ValueError(
                f"matrix is not Hermitian: max |M_jk - conj(M_kj)| = {asymmetry:.3e} "
                f"exceeds {HERMITIAN_RTOL:.0e} * max|M| = {HERMITIAN_RTOL * scale:.3e}"
            )
        energies, vectors = np.linalg.eigh(arr)
        _check_unitary(vectors, "eigenbasis is not unitary")
        self._matrix = _freeze(arr)
        self._hbar = hbar
        self._energies = _freeze(energies)
        self._eigenvectors = _freeze(vectors)

    @property
    def matrix(self) -> np.ndarray:
        return self._matrix

    @property
    def hbar(self) -> float:
        return self._hbar

    @property
    def dim(self) -> int:
        return int(self._matrix.shape[0])

    def __repr__(self) -> str:
        return f"Hamiltonian(dim={self.dim}, hbar={self._hbar!r})"


class SpectralDecomposition:
    """Eigensystem of a Hermitian operator.

    ``energies`` are real and ascending; ``eigenvectors`` is unitary with
    the eigenvector of ``energies[j]`` in column j.
    """

    __slots__ = ("_energies", "_eigenvectors")

    def __init__(self, energies, eigenvectors) -> None:
        e = np.array(energies, dtype=np.float64)
        v = _as_complex_matrix(eigenvectors)
        if e.ndim != 1 or e.size != v.shape[0]:
            raise ValueError(
                f"energies shape {e.shape} does not match eigenvector matrix {v.shape}"
            )
        if not np.all(np.isfinite(e)):
            raise ValueError("energies contain non-finite entries")
        if np.any(np.diff(e) < 0.0):
            raise ValueError("energies must be sorted ascending")
        _check_unitary(v, "eigenvector matrix is not unitary")
        self._energies = _freeze(e)
        self._eigenvectors = _freeze(v)

    @property
    def energies(self) -> np.ndarray:
        return self._energies

    @property
    def eigenvectors(self) -> np.ndarray:
        return self._eigenvectors

    @property
    def dim(self) -> int:
        return int(self._energies.size)

    def __repr__(self) -> str:
        return f"SpectralDecomposition(dim={self.dim})"


class UnitaryPropagator:
    """Unitary evolution operator for a fixed duration."""

    __slots__ = ("_matrix", "_duration")

    def __init__(self, matrix, duration: float) -> None:
        arr = _as_complex_matrix(matrix)
        duration = float(duration)
        if not np.isfinite(duration):
            raise ValueError(f"duration must be finite, got {duration!r}")
        _check_unitary(arr, "matrix is not unitary")
        self._matrix = _freeze(arr)
        self._duration = duration

    @property
    def matrix(self) -> np.ndarray:
        return self._matrix

    @property
    def duration(self) -> float:
        return self._duration

    @property
    def dim(self) -> int:
        return int(self._matrix.shape[0])

    def __repr__(self) -> str:
        return f"UnitaryPropagator(dim={self.dim}, duration={self._duration!r})"


def spectral_decompose(hamiltonian: Hamiltonian) -> SpectralDecomposition:
    """Canonical form of the eigensystem computed when ``hamiltonian`` was built.

    No diagonalization happens here. Energies come back ascending. Column
    phases are canonicalized (the largest-magnitude entry of each
    eigenvector is rotated onto the positive real axis) and columns
    belonging to an exactly degenerate eigenvalue are ordered
    lexicographically by their entries, so repeated runs on the same matrix
    give identical output. For degenerate operators any orthonormal basis
    of the degenerate subspace is equally valid, so comparisons should go
    through projectors rather than individual eigenvectors. Only reports
    that name individual modes need this form; evolution and overlaps are
    basis independent and use the raw eigensystem directly.
    """
    energies, vectors = hamiltonian._energies, hamiltonian._eigenvectors
    lead = vectors[np.argmax(np.abs(vectors), axis=0), np.arange(vectors.shape[1])]
    # np.hypot rounds like the scalar abs() of a complex entry, which keeps
    # the output bit-for-bit equal to a column-by-column canonicalization
    vectors = vectors * np.conj(lead / np.hypot(lead.real, lead.imag))
    # rows re_0, im_0, re_1, im_1, ...; lexsort's last key is its primary one
    entries = np.stack((vectors.real, vectors.imag), axis=1).reshape(-1, energies.size)
    order = np.lexsort(np.vstack((entries[::-1], energies)))
    return SpectralDecomposition(energies[order], vectors[:, order])


def _phases(hamiltonian: Hamiltonian, t: float) -> np.ndarray:
    """e^{-i E_j t / hbar} for every stored energy."""
    t = float(t)
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t!r}")
    rate = t / hamiltonian.hbar
    energies = hamiltonian._energies  # ascending, so the largest |E| is at an end
    if not math.isfinite(rate * float(max(-energies[0], energies[-1]))):
        raise ValueError(f"E * t / hbar must be finite for every energy E, got t {t!r} "
                         f"and hbar {hamiltonian.hbar!r}")
    return np.exp(-1j * energies * rate)


def _check_dims(hamiltonian: Hamiltonian, *states: StateVector) -> None:
    for psi in states:
        if psi.dim != hamiltonian.dim:
            raise ValueError(
                f"dimension mismatch: state dim {psi.dim} vs operator dim {hamiltonian.dim}"
            )


def _energy_amplitudes(hamiltonian: Hamiltonian, psi: StateVector) -> np.ndarray:
    """V^dag psi in the raw eigenbasis, without copying V."""
    return np.conj(psi.amplitudes.conj() @ hamiltonian._eigenvectors)


def propagator(hamiltonian: Hamiltonian, t: float) -> UnitaryPropagator:
    """Evolution operator for duration ``t``, built from the stored eigensystem.

    O(d^3). Evolution and overlaps do not need it; see :func:`evolve` and
    :func:`transition_amplitude`.
    """
    phases = _phases(hamiltonian, t)
    vectors = hamiltonian._eigenvectors
    return UnitaryPropagator((vectors * phases) @ vectors.conj().T, t)


def evolve(hamiltonian: Hamiltonian, psi: StateVector, t: float) -> StateVector:
    """Evolve ``psi`` for duration ``t`` as V (e^{-iEt/hbar} * V^dag psi), in O(d^2)."""
    _check_dims(hamiltonian, psi)
    phases = _phases(hamiltonian, t)
    return StateVector(hamiltonian._eigenvectors @ (phases * _energy_amplitudes(hamiltonian, psi)))


def transition_amplitude(
    psi_e: StateVector, hamiltonian: Hamiltonian, psi_i: StateVector, t: float
) -> complex:
    """<psi_e| U(t) |psi_i> = sum_j conj(a_e_j) a_i_j e^{-i E_j t/hbar}, in O(d^2).

    ``a = V^dag psi`` are the energy amplitudes in the stored eigenbasis. The
    evolved state is never formed, so its norm is checked here instead: the
    squared norm of ``a_i`` must be within ``NORM_SQ_TOL`` of 1.
    """
    _check_dims(hamiltonian, psi_e, psi_i)
    phases = _phases(hamiltonian, t)
    a_i = _energy_amplitudes(hamiltonian, psi_i)
    norm_sq = float(np.vdot(a_i, a_i).real)
    if abs(norm_sq - 1.0) > NORM_SQ_TOL:
        raise ValueError(
            f"evolved state is not normalized: sum of |a_j|^2 deviates from 1 by "
            f"{abs(norm_sq - 1.0):.3e} (tolerance {NORM_SQ_TOL:.0e})"
        )
    conj_a_e = psi_e.amplitudes.conj() @ hamiltonian._eigenvectors
    return complex(conj_a_e @ (phases * a_i))


def to_energy_coefficients(psi: StateVector, decomposition: SpectralDecomposition) -> np.ndarray:
    """Coefficients of ``psi`` in the eigenbasis (column j gives a_j)."""
    if psi.dim != decomposition.dim:
        raise ValueError(
            f"dimension mismatch: state dim {psi.dim} vs decomposition dim {decomposition.dim}"
        )
    return decomposition.eigenvectors.conj().T @ psi.amplitudes


def random_state(dim: int, seed) -> StateVector:
    """Haar-uniform random state; deterministic for a fixed seed."""
    dim = int(dim)
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return StateVector.normalized(raw)


def random_hamiltonian(
    dim: int, seed, energy_scale: float = 1.0, hbar: float = 1.0
) -> Hamiltonian:
    """Random Hermitian operator (A + A^dag)/2 from a seeded Gaussian draw.

    The matrix depends on ``dim``, ``seed`` and ``energy_scale`` only;
    ``hbar`` is passed through to the one :class:`Hamiltonian` built.
    """
    dim = int(dim)
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    energy_scale = float(energy_scale)
    if not (np.isfinite(energy_scale) and energy_scale > 0.0):
        raise ValueError(f"energy_scale must be positive and finite, got {energy_scale!r}")
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return Hamiltonian(energy_scale * 0.5 * (a + a.conj().T), hbar=hbar)


def random_unitary(dim: int, seed) -> np.ndarray:
    """Haar-distributed unitary from the QR factorization of a seeded Gaussian matrix."""
    dim = int(dim)
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(a)
    d = np.diagonal(r)
    return q * (d / np.abs(d))
