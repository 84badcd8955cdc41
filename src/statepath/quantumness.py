"""Quantumness-penalized path weights and collapse-style state selection.

The boundary functional is extended by a penalty that suppresses paths
visiting "very quantum" states: the log-magnitude of a discrete path weight
becomes

    sum_k Re <Phi_k | Phi_{k+1} - Phi_k>  -  lam * integral Q(Phi) dt

(the Hamiltonian term of the discrete action is real for Hermitian H on
each slice and therefore only rotates the phase). Two pluggable measures Q
are provided: deviation from a designated pointer basis, and linear entropy
of entanglement across a bipartition. Maximizing the penalized weight over
the final state and the interior path selects nearly-classical final
states — a collapse-like behaviour demonstrated on a small qubit-detector
model.

Everything here is a stationary-path treatment: one discrete path is
optimized and reported, standing in for the full penalized functional,
which has no closed form for these measures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Optional

import numpy as np

from .hilbert import (Hamiltonian, StateVector, _as_complex_matrix, _check_unitary,
                      _positive_int, evolve)
from .lattice import TimeGrid
from .optimizer import OptimizerConfig

__all__ = [
    "MeasureKind",
    "QuantumnessMeasure",
    "PenaltyConfig",
    "PenalizedPathProblem",
    "CollapseReport",
    "PenalizedOutcome",
    "q_pointer_deviation",
    "q_linear_entropy",
    "penalized_log_magnitude",
    "optimize_penalized",
    "qubit_detector_model",
]

_NORM_TOL = 1e-9
_TIE_TOL = 1e-9
_MAX_SLICE_ITERS = 64
_MOVE_TOL = 8.0 * np.finfo(float).eps
_SECULAR_STEPS = 16
_SECULAR_RTOL = 4.0 * np.finfo(float).eps


class MeasureKind(str, Enum):
    POINTER_DEVIATION = "pointer_deviation"
    LINEAR_ENTROPY = "linear_entropy"


def _check_pointer_basis(basis) -> np.ndarray:
    """The basis as a read-only square matrix with orthonormal columns."""
    arr = _as_complex_matrix(basis)
    _check_unitary(arr, "pointer basis is not orthonormal")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class QuantumnessMeasure:
    """Nonnegative functional Q on normalized states, with its gradient.

    ``pointer_deviation`` needs ``pointer_basis`` (columns are the pointer
    states); ``linear_entropy`` needs ``partition`` = (d_A, d_B). Q vanishes
    exactly on the measure's classical set — pointer basis states, or
    product states across the partition. Each measure has one formula, in
    the batch methods ``values`` and ``gradients_conj``; the single-row
    ``value`` and ``gradient_conj`` are those applied to one row.
    """

    kind: MeasureKind
    pointer_basis: Optional[np.ndarray] = None
    partition: Optional[tuple[int, int]] = None

    def __post_init__(self) -> None:
        kind = MeasureKind(self.kind)
        object.__setattr__(self, "kind", kind)
        if kind is MeasureKind.POINTER_DEVIATION:
            if self.pointer_basis is None:
                raise ValueError("pointer_deviation measure needs a pointer_basis")
            object.__setattr__(self, "pointer_basis", _check_pointer_basis(self.pointer_basis))
            if self.partition is not None:
                raise ValueError("pointer_deviation measure takes no partition")
        else:
            if self.partition is None:
                raise ValueError("linear_entropy measure needs a partition (d_A, d_B)")
            d_a, d_b = (_positive_int(d, "partition dims") for d in self.partition)
            object.__setattr__(self, "partition", (d_a, d_b))
            if self.pointer_basis is not None:
                raise ValueError("linear_entropy measure takes no pointer_basis")

    @classmethod
    def pointer(cls, basis) -> "QuantumnessMeasure":
        return cls(MeasureKind.POINTER_DEVIATION, pointer_basis=basis)

    @classmethod
    def linear_entropy(cls, d_a: int, d_b: int) -> "QuantumnessMeasure":
        return cls(MeasureKind.LINEAR_ENTROPY, partition=(d_a, d_b))

    @property
    def dim(self) -> int:
        if self.kind is MeasureKind.POINTER_DEVIATION:
            return int(self.pointer_basis.shape[0])
        d_a, d_b = self.partition
        return d_a * d_b

    def value(self, psi: np.ndarray) -> float:
        """Q(psi) for a normalized amplitude vector: ``values`` of one row."""
        return float(self.values(np.reshape(psi, (1, -1)))[0])

    def values(self, rows: np.ndarray) -> np.ndarray:
        """Q of every row of an (n, dim) array of normalized states."""
        rows = np.asarray(rows, dtype=np.complex128)
        if self.kind is MeasureKind.POINTER_DEVIATION:
            fidelities = np.abs(rows @ self.pointer_basis.conj()) ** 2
            return np.maximum(0.0, 1.0 - fidelities.max(axis=1))
        d_a, d_b = self.partition
        m = rows.reshape(-1, d_a, d_b)
        rho_a = m @ m.conj().transpose(0, 2, 1)
        purity = np.real(np.einsum("nij,nji->n", rho_a, rho_a))
        return np.maximum(0.0, 1.0 - purity)

    def gradient_conj(self, psi: np.ndarray) -> np.ndarray:
        """dQ / d conj(psi), the Wirtinger gradient matching ``value``: ``gradients_conj``
        of one row, with its lowest-index choice at pointer ties."""
        return self.gradients_conj(np.reshape(psi, (1, -1)))[0].reshape(np.shape(psi))

    def gradients_conj(self, rows: np.ndarray) -> np.ndarray:
        """dQ / d conj(psi) of every row of an (n, dim) array of normalized
        states. For pointer deviation the active pointer is the argmax; at
        exact fidelity ties the lowest index is used, a deterministic
        subgradient choice on the measure's kink set."""
        rows = np.asarray(rows, dtype=np.complex128)
        if self.kind is MeasureKind.POINTER_DEVIATION:
            amps = rows @ self.pointer_basis.conj()
            best = np.argmax(np.abs(amps) ** 2, axis=1)
            a = amps[np.arange(len(rows)), best]
            return -a[:, None] * self.pointer_basis.T[best]
        d_a, d_b = self.partition
        m = rows.reshape(-1, d_a, d_b)
        rho_a = m @ m.conj().transpose(0, 2, 1)
        return (-2.0 * (rho_a @ m)).reshape(rows.shape)


def q_pointer_deviation(psi: StateVector, pointer_basis) -> float:
    """1 - max_k |<p_k|psi>|^2: zero iff psi is a pointer state (up to phase)."""
    measure = QuantumnessMeasure.pointer(pointer_basis)
    if measure.dim != psi.dim:
        raise ValueError(
            f"state dimension {psi.dim} does not match pointer basis dimension {measure.dim}"
        )
    return measure.value(psi.amplitudes)


def q_linear_entropy(psi: StateVector, d_a: int, d_b: int) -> float:
    """1 - Tr(rho_A^2) for the reduction over the first tensor factor."""
    measure = QuantumnessMeasure.linear_entropy(d_a, d_b)
    if measure.dim != psi.dim:
        raise ValueError(
            f"state dimension {psi.dim} is not the product of the partition "
            f"dims {d_a} x {d_b} = {measure.dim}"
        )
    return measure.value(psi.amplitudes)


@dataclass(frozen=True)
class PenaltyConfig:
    """Penalty weight lam (a rate, 1/time) and the measure it multiplies."""

    lam: float
    measure: QuantumnessMeasure

    def __post_init__(self) -> None:
        lam = float(self.lam)
        if not (math.isfinite(lam) and lam >= 0.0):
            raise ValueError(f"lam must be nonnegative and finite, got {self.lam!r}")
        object.__setattr__(self, "lam", lam)


@dataclass(frozen=True)
class PenalizedPathProblem:
    """A penalized path-weight maximization instance.

    Every slice of the path lives on the unit sphere, where the measure is
    defined; free-coefficient paths are the coherent chain's job
    (:mod:`statepath.lattice`).
    """

    psi_i: StateVector
    grid: TimeGrid
    hamiltonian: Hamiltonian
    penalty: PenaltyConfig

    def __post_init__(self) -> None:
        dim = self.hamiltonian.matrix.shape[0]
        if self.psi_i.dim != dim:
            raise ValueError(
                f"state dimension {self.psi_i.dim} does not match Hamiltonian dimension {dim}"
            )
        if self.penalty.measure.dim != dim:
            raise ValueError(
                f"measure dimension {self.penalty.measure.dim} does not match "
                f"Hamiltonian dimension {dim}"
            )


def penalized_log_magnitude(
    path: np.ndarray,
    hamiltonian: Hamiltonian,
    penalty: PenaltyConfig,
    grid: TimeGrid,
) -> float:
    """Log-magnitude of the discrete penalized path weight.

    Computes Im(S_dyn)/hbar - lam * sum_k w_k Q(Phi_k), with the action
    discretized as sum_k [i*hbar*<Phi_k|(Phi_{k+1}-Phi_k)> - <Phi_k|H|Phi_k>*dt]
    and the penalty integral quadratured by the trapezoid rule (w = dt at
    interior nodes, dt/2 at the endpoints). ``path`` is a (steps+1, dim)
    array of normalized row states.
    """
    dim = hamiltonian.matrix.shape[0]
    states = np.array(path, dtype=np.complex128)
    if states.ndim != 2 or states.shape[1] != dim:
        raise ValueError(f"path must be a (steps+1, {dim}) array, got shape {states.shape}")
    if not np.all(np.isfinite(states)):
        raise ValueError("path contains non-finite entries")
    n = states.shape[0]
    if n != grid.steps + 1:
        raise ValueError(
            f"path has {n} states but the grid has {grid.steps} steps (needs {grid.steps + 1})"
        )
    norms = np.linalg.norm(states, axis=1)
    if abs(norms[0] - 1.0) > _NORM_TOL or abs(norms[-1] - 1.0) > _NORM_TOL:
        raise ValueError(
            f"endpoint states must be normalized: norms {norms[0]!r}, {norms[-1]!r}"
        )
    if n > 2:
        worst = float(np.max(np.abs(norms[1:-1] - 1.0)))
        if worst > _NORM_TOL:
            raise ValueError(
                f"interior states must be normalized: max norm deviation {worst:.3e}"
            )
    return _log_magnitude(states, hamiltonian, penalty, grid)


def _log_magnitude(states: np.ndarray, hamiltonian: Hamiltonian, penalty: PenaltyConfig,
                   grid: TimeGrid) -> float:
    """``penalized_log_magnitude`` of a path already known to be valid."""
    left = states[:-1]
    diffs = states[1:] - left
    kinetic = float(np.sum(np.real(np.einsum("ij,ij->", left.conj(), diffs))))
    h_columns = left @ hamiltonian.matrix.T  # row k is H @ Phi_k
    h_imag = float(np.imag(np.einsum("ij,ij->", left.conj(), h_columns)))
    value = kinetic - (grid.dt / hamiltonian.hbar) * h_imag

    if penalty.lam > 0.0:
        # trapezoid rule for the integral of Q: w = dt at interior nodes, dt/2 at the endpoints
        weights = np.full(states.shape[0], grid.dt)
        weights[0] = weights[-1] = 0.5 * grid.dt
        value -= penalty.lam * float(weights @ penalty.measure.values(states))
    return float(value)


@dataclass(frozen=True)
class CollapseReport:
    """Diagnostics of one penalized run.

    ``final_state`` is ``StateVector(path[-1])`` of the outcome's path, which may
    move it off ``path[-1]`` in the last bit; ``log_magnitude`` uses ``path[-1]``.
    ``pointer_ties`` lists every pointer index whose fidelity to the final
    state is within 1e-9 of the best one; more than one entry means the
    outcome is degenerate and the nearest index alone would be misleading.
    ``sweep_trace`` holds the path's log-magnitude before the interior
    relaxation and after each of its sweeps, over-relaxed or plain, so
    ``log_magnitude`` is its last entry and ``sweeps`` is
    ``len(sweep_trace) - 1``, the plain sweeps that check a stop included;
    ``converged`` is the relaxation's flag: its last sweep was plain and
    raised the value by at most the tolerance.
    ``iterations`` is always 0: the final state is one slice solve, not an
    iterative ascent.
    """

    lam: float
    final_state: StateVector
    nearest_pointer_index: Optional[int]
    fidelity_to_pointer: Optional[float]
    pointer_ties: tuple[int, ...]
    q_trajectory: tuple[float, ...]
    log_magnitude: float
    converged: bool
    iterations: int
    sweeps: int
    sweep_trace: tuple[float, ...]


class PenalizedOutcome(NamedTuple):
    final_state: StateVector
    path: np.ndarray  # (steps+1, dim) rows, both endpoints included
    log_magnitude: float
    report: CollapseReport


def _initial_path(a: np.ndarray, b: np.ndarray, steps: int) -> np.ndarray:
    """Endpoint-pinned starting path: great-circle interpolation on the real
    sphere (cos of the arc = Re<a|b>)."""
    dim = a.size
    out = np.empty((steps + 1, dim), dtype=np.complex128)
    out[0] = a
    out[steps] = b
    if steps == 1:
        return out
    s = (np.arange(1, steps) / steps)[:, None]
    if np.array_equal(a, b):
        out[1:steps] = a
        return out
    cos_arc = float(np.clip(np.real(np.vdot(a, b)), -1.0, 1.0))
    arc = math.acos(cos_arc)
    sin_arc = math.sin(arc)
    if sin_arc < 1e-12:
        if cos_arc > 0.0:
            interior = (1.0 - s) * a + s * b
        else:
            # nearly antipodal endpoints: route through a deterministic
            # orthogonal intermediate instead of the ill-defined chord
            j = int(np.argmin(np.abs(a)))
            v = np.zeros(dim, dtype=np.complex128)
            v[j] = 1.0
            v -= np.vdot(a, v) * a
            v /= np.linalg.norm(v)
            interior = np.cos(math.pi * s) * a + np.sin(math.pi * s) * v
    else:
        interior = (np.sin((1.0 - s) * arc) * a + np.sin(s * arc) * b) / sin_arc
    interior /= np.linalg.norm(interior, axis=1)[:, None]
    out[1:steps] = interior
    return out


def _pointer_summary(x: np.ndarray, basis: Optional[np.ndarray]):
    if basis is None:
        return None, None, ()
    fidelities = np.abs(basis.conj().T @ x) ** 2
    nearest = int(np.argmax(fidelities))
    best = float(fidelities[nearest])
    ties = tuple(int(k) for k in np.flatnonzero(best - fidelities <= _TIE_TOL))
    return nearest, best, ties


def _slice_values(rows: np.ndarray, mids: np.ndarray, measure: QuantumnessMeasure,
                  c: float) -> np.ndarray:
    """The slice objective 2 Re<y|m> - c Q(y) of each row y against its midpoint m."""
    return 2.0 * np.real(np.einsum("ij,ij->i", rows.conj(), mids)) - c * measure.values(rows)


def _pointer_slice_solve(mids: np.ndarray, measure: QuantumnessMeasure, c: float):
    """Exact maximizer of 2 Re<y|m> - c Q(y) over unit y for each row m of
    ``mids``, with Q the pointer deviation and c >= 0; returns the maximizing
    rows and their values.

    Q = 1 - max_k |<p_k|y>|^2, so the maximum is the best over k of the
    rank-one trust-region problem max 2 Re<y|m> + c |<p_k|y>|^2 (Moré &
    Sorensen, SIAM J. Sci. Stat. Comput. 4, 1983). Write m = a p_k + m_perp,
    A = |a| and B = |m_perp|. The problem lives in the plane of p_k and
    m_perp, and for fixed |m| its value does not decrease as A grows, so the
    best k is the pointer with the largest overlap (the lowest index on a
    tie). Its maximizer is y = m_perp / (t + c) + (a / t) p_k, where
    t = mu - c > 0 and mu is the multiplier: |y(t)| = 1, i.e.
    A^2/t^2 + B^2/(t+c)^2 = 1. The function 1/|y(t)| is increasing and
    concave (Cauchy-Schwarz), so Newton on it from the lower bound
    max(A, B - c) rises monotonically to the root. The shift t, rather than
    mu, keeps the root from rounding away against c. Because the chosen
    overlap is the largest, A >= |m| / sqrt(dim), so the hard case of the
    trust-region problem (A = 0 with B <= c) arises only at m = 0, where
    every pointer state is a maximizer and y = p_k is taken.
    """
    basis = measure.pointer_basis
    amps = mids @ basis.conj()  # (rows, pointers): <p_k|m>
    best = np.argmax(np.abs(amps), axis=1)
    a = amps[np.arange(len(mids)), best]
    pointers = basis.T[best]
    perp = mids - a[:, None] * pointers
    a = np.where(a == 0.0, 1.0, a)  # m = 0: y = p_k
    big_a = np.abs(a)
    big_b = np.linalg.norm(perp, axis=1)
    t = np.maximum(big_a, big_b - c)
    for _ in range(_SECULAR_STEPS):
        r2 = (big_a / t) ** 2
        s = t + c
        q2 = (big_b / s) ** 2
        phi = r2 + q2  # |y(t)|^2
        step = phi * (np.sqrt(phi) - 1.0) / (r2 / t + q2 / s)
        t = t + step
        if (step <= _SECULAR_RTOL * t).all():
            break
    y = perp / (t + c)[:, None] + (a / t)[:, None] * pointers
    y /= np.linalg.norm(y, axis=1)[:, None]
    return y, _slice_values(y, mids, measure, c)


def _unit_rows(vectors: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Each row of ``vectors`` normalized; a vanishing one keeps its row of ``rows``."""
    norms = np.linalg.norm(vectors, axis=1)
    moved = norms > 1e-300
    safe = np.where(moved, norms, 1.0)[:, None]
    return np.where(moved[:, None], vectors / safe, rows)


def _singular_value_step(s: np.ndarray, sigma: np.ndarray, c: float) -> np.ndarray:
    """One power step s <- g / |g|, g = sigma + 2 c s^3, on the singular values
    of each row; a row whose g vanishes keeps its values."""
    return _unit_rows(sigma + 2.0 * c * s**3, s)


def _power_slice_solve(rows: np.ndarray, mids: np.ndarray, measure: QuantumnessMeasure,
                       c: float):
    """Stationary points of 2 Re<y|m> - c Q(y) over unit y, Q the linear
    entropy, one per row of ``mids``, by power steps warm-started from
    ``rows``; returns the rows and their values.

    As a d_A x d_B matrix Y, -Q = Tr rho_A^2 - 1 = ||Y||_S4^4 - 1 is convex,
    so the slice objective lies above its linearization and the unit
    y' = g / |g|, g = m - c dQ/d conj(y), which maximizes Re<g|y'>, never
    lowers it (Journée, Nesterov, Richtárik & Sepulchre, JMLR 11, 2010): no
    step size, no backtracking, and the fixed points are the stationary
    points. Each row starts as U diag(s(Y)) V^dag, with M = U diag(sigma)
    V^dag the SVD of its midpoint: Q is unchanged, and by von Neumann's trace
    inequality Re Tr(Y^dag M) <= sum_i s_i sigma_i, with equality there, so
    the slice value does not fall. Steps from there keep these singular
    vectors, g = U diag(sigma + 2 c s^3) V^dag, so they run on the singular
    values (``_singular_value_step``) and the row is built once at the end.
    The alignment removes the complex step's slow mode along the product
    states, whose rate is 2c / (2c + Re<y|m>): 64 steps did not settle it at
    c = 12.5. A row stops once a step would move its values by no more than
    rounding, and keeps them rather than take that step; at most
    ``_MAX_SLICE_ITERS`` steps are taken. A built row is renormalized, and one
    within rounding of its start keeps its bits.
    """
    d_a, d_b = measure.partition
    u, sigma, vh = np.linalg.svd(mids.reshape(-1, d_a, d_b), full_matrices=False)
    s = np.linalg.svd(rows.reshape(-1, d_a, d_b), compute_uv=False)
    done = np.zeros(len(rows), dtype=bool)
    for _ in range(_MAX_SLICE_ITERS):
        new = _singular_value_step(s, sigma, c)
        done |= np.max(np.abs(new - s), axis=1) <= _MOVE_TOL
        if done.all():
            break
        s = np.where(done[:, None], s, new)
    built = ((u * s[:, None, :]) @ vh).reshape(rows.shape)
    built /= np.linalg.norm(built, axis=1)[:, None]
    near = np.max(np.abs(built - rows), axis=1) <= _MOVE_TOL
    rows = np.where(near[:, None], rows, built)
    return rows, _slice_values(rows, mids, measure, c)


def _relax_colour(rows: np.ndarray, mids: np.ndarray, measure: QuantumnessMeasure,
                  c: float, omega: float = 1.0) -> np.ndarray:
    """New rows for one colour's slices, each maximizing the slice objective
    2 Re<y|m> - c Q(y) against its neighbours' midpoint m; a row is replaced
    only when its slice value does not fall.

    With ``omega`` != 1 each update ``new`` is over-relaxed: the row
    normalize(old + omega (new - old)) is taken when its slice value is not
    below the old row's, and ``new`` otherwise; the old and new values are
    computed once for both tests. At ``omega`` = 1 nothing is extrapolated,
    so a plain sweep (the relaxation's first four, and each one that checks
    a stop, counted in ``CollapseReport.sweeps``) keeps the plain bits. At
    c = 0 the normalized midpoint is taken as is: the great-circle start is
    already its fixed point, so such a run stops after one plain sweep.
    """
    if c == 0.0:
        return _unit_rows(mids, rows)
    if measure.kind is MeasureKind.POINTER_DEVIATION:
        new, new_values = _pointer_slice_solve(mids, measure, c)
    else:
        new, new_values = _power_slice_solve(rows, mids, measure, c)
    old_values = _slice_values(rows, mids, measure, c)
    if omega != 1.0:
        ext = _unit_rows(rows + omega * (new - rows), new)
        ext_values = _slice_values(ext, mids, measure, c)
        take = ext_values >= old_values
        new = np.where(take[:, None], ext, new)
        new_values = np.where(take, ext_values, new_values)
    keep = new_values < old_values
    return np.where(keep[:, None], rows, new)


def _young_omega(values: list[float], omega: float, cap: float) -> float:
    """The over-relaxation factor after four sweeps at ``omega``: raised
    toward the optimum that Young's relation gives for red-black ordering,
    never lowered and never above ``cap``; ``values`` are the path values
    before and after the last three sweeps.

    A sweep's gain is quadratic in the path's error, so the error contracts
    by lam_w = sqrt(gain_k / gain_{k-1}) per sweep. Young's relation
    (lam_w + omega - 1)^2 = lam_w omega^2 rho_J^2 (Hageman & Young, *Applied
    Iterative Methods*, 1981, ch. 9) then gives the Jacobi radius rho_J and
    the optimum 2 / (1 + sqrt(1 - rho_J^2)). The ratio is trusted only while
    the three gains fall, and only at lam_w >= omega - 1, the least modulus
    an SOR eigenvalue can have: a faster fall is a transient.
    """
    first, prev, last = np.diff(values).tolist()
    if not 0.0 < last < prev < first:
        return omega
    lam_w = math.sqrt(last / prev)
    if lam_w < omega - 1.0:
        return omega
    rho_sq = (lam_w + omega - 1.0) ** 2 / (lam_w * omega**2)
    return max(omega, min(cap, 2.0 / (1.0 + math.sqrt(max(0.0, 1.0 - rho_sq)))))


def optimize_penalized(
    problem: PenalizedPathProblem,
    config: OptimizerConfig | None = None,
    reporting_basis=None,
) -> PenalizedOutcome:
    """Maximize the penalized log-magnitude over final state and interior path.

    Stage one picks the final state x: it maximizes the boundary functional's
    exact log-magnitude Re<x|U psi_i> - 1 minus the endpoint's trapezoid
    share of the penalty, lam * dt / 2 * Q(x). Doubled, that is the slice
    objective 2 Re<y|m> - c Q(y) with m = U psi_i and c = lam * dt, so it is
    one slice update (``_relax_colour``) started from the evolved state. At
    lam = 0 the evolved state is the maximizer and is taken bit for bit, so
    the unpenalized behaviour is recovered exactly. Stage two pins both
    endpoints and relaxes the interior slices by red-black block coordinate
    ascent of the discrete path weight (Saad, *Iterative Methods for Sparse
    Linear Systems*, sec. 12.4): each sweep updates every odd slice at once,
    then every even one. A slice update is the closed-form maximizer at
    lam = 0 (the neighbours' midpoint, renormalized), the exact solve of
    ``_pointer_slice_solve`` for the pointer measure, and for linear entropy
    generalized power steps y <- g / |g| on the slice objective, taken on
    the singular values (``_power_slice_solve``), each of which never lowers
    it because -Q is convex there. Every update accepts only non-decreasing
    moves.

    The sweeps are over-relaxed (successive over-relaxation with Young's
    theory for red-black ordering; Hageman & Young, *Applied Iterative
    Methods*, 1981, ch. 9): ``_relax_colour`` extrapolates each update by a
    factor omega and keeps the extrapolation only when the slice value does
    not fall, so the sweep trace never decreases. Sweeps 1-4 are plain
    (omega = 1); after every 4 sweeps at one omega, ``_young_omega`` raises
    it toward the optimum estimated from the sweep gains, never above the
    Laplacian optimum 2 / (1 + sin(pi / steps)). When an over-relaxed sweep
    gains no more than the tolerance 1e-12 (1 + |value|), one plain sweep
    follows; the run stops as converged only when a plain sweep passes that
    test, and otherwise goes on at the same omega. ``sweeps`` counts those
    plain check sweeps.

    Only ``config.max_iters``, the sweep cap, is read. The run is
    deterministic: no randomness enters either stage. ``reporting_basis``
    supplies pointer states for the report when the penalty measure itself
    does not carry any (e.g. linear entropy).
    """
    config = config or OptimizerConfig()
    grid = problem.grid
    lam = problem.penalty.lam
    measure = problem.penalty.measure
    dt = grid.dt
    steps = grid.steps
    psi_i = problem.psi_i.amplitudes
    u = evolve(problem.hamiltonian, problem.psi_i, grid.duration).amplitudes

    # stage one: the final state is the slice solve against m = U psi_i
    x = _relax_colour(u[None], u[None], measure, lam * dt)[0] if lam > 0.0 else u

    # stage two: interior relaxation with both endpoints pinned
    states = _initial_path(psi_i, x, steps)

    sweep_trace = [_log_magnitude(states, problem.hamiltonian, problem.penalty, grid)]
    relax_converged = steps < 2
    if steps >= 2:
        # red-black ordering: a slice sees only its two neighbours, so each
        # colour is a set of independent slice problems
        colours = [ks for ks in (np.arange(1, steps, 2), np.arange(2, steps, 2)) if ks.size]
        omega, omega_cap = 1.0, 2.0 / (1.0 + math.sin(math.pi / steps))
        factor, run = omega, 0  # this sweep's factor; sweeps in a row at omega
        for _ in range(config.max_iters):
            for ks in colours:
                mids = 0.5 * (states[ks - 1] + states[ks + 1])
                states[ks] = _relax_colour(states[ks], mids, measure, lam * dt, factor)
            sweep_trace.append(_log_magnitude(states, problem.hamiltonian, problem.penalty, grid))
            if sweep_trace[-1] - sweep_trace[-2] <= 1e-12 * (1.0 + abs(sweep_trace[-1])):
                if factor == 1.0:
                    relax_converged = True
                    break
                factor = 1.0  # only a plain sweep confirms a stop
            elif factor != omega:
                factor, run = omega, 0  # the plain sweep still gained: over-relax again
            else:
                run += 1
                if run == 4:
                    omega = factor = _young_omega(sweep_trace[-4:], omega, omega_cap)
                    run = 0

    final_state = StateVector(x)
    log_magnitude = sweep_trace[-1]

    basis = measure.pointer_basis
    if basis is None and reporting_basis is not None:
        basis = _check_pointer_basis(reporting_basis)
    nearest, best, ties = _pointer_summary(x, basis)

    row_norms = np.linalg.norm(states, axis=1)
    q_trajectory = tuple(float(q) for q in measure.values(states / row_norms[:, None]))

    report = CollapseReport(
        lam=lam,
        final_state=final_state,
        nearest_pointer_index=nearest,
        fidelity_to_pointer=best,
        pointer_ties=ties,
        q_trajectory=q_trajectory,
        log_magnitude=log_magnitude,
        converged=relax_converged,
        iterations=0,
        sweeps=len(sweep_trace) - 1,
        sweep_trace=tuple(sweep_trace),
    )
    states.flags.writeable = False
    return PenalizedOutcome(final_state, states, log_magnitude, report)


def qubit_detector_model(
    weight0: float = 0.75, coupling: float = math.pi / 2, hbar: float = 1.0
):
    """Qubit-plus-detector toy model for the collapse demonstration.

    The qubit starts in sqrt(weight0)|0> + sqrt(1-weight0)|1>, the detector
    in its ready state |0>, and the interaction flips the detector exactly
    when the qubit is |1>: H = coupling * |1><1| (x) sigma_x. Over a unit
    horizon with coupling pi/2 the evolved state is the entangled
    superposition sqrt(weight0)|00> - i sqrt(1-weight0)|11>.

    Returns (hamiltonian, initial_state, pointer_basis), with the pointer
    basis the computational product basis as an identity matrix.
    """
    weight0 = float(weight0)
    if not (0.0 <= weight0 <= 1.0):
        raise ValueError(f"weight0 must lie in [0, 1], got {weight0!r}")
    if not math.isfinite(float(coupling)):
        raise ValueError(f"coupling must be finite, got {coupling!r}")
    sigma_x = np.array([[0.0, 1.0], [1.0, 0.0]])
    matrix = float(coupling) * np.kron(np.diag([0.0, 1.0]), sigma_x)
    hamiltonian = Hamiltonian(matrix, hbar=hbar)
    qubit = np.array([math.sqrt(weight0), math.sqrt(1.0 - weight0)])
    detector = np.array([1.0, 0.0])
    psi_i = StateVector(np.kron(qubit, detector))
    return hamiltonian, psi_i, np.eye(4, dtype=np.complex128)
