"""Sphere-constrained maximization of the boundary functional magnitude.

The objective f(psi_e) = |exp(<psi_e | U psi_i> - 1)| = exp(Re <psi_e | U psi_i> - 1)
is maximized over unit vectors psi_e. The constraint set is the real sphere
S^(2d-1): global phase is NOT quotiented out, because the functional itself
is phase sensitive — rotating psi_e by a phase changes Re of the overlap and
hence the value. The unique maximizer is psi_e = U psi_i exactly, including
its phase, where f = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .functional import ABS_Z_LOWER
from .hilbert import Hamiltonian, StateVector, _positive_int, evolve

__all__ = [
    "OptimizerConfig",
    "OptimizationResult",
    "objective",
    "euclidean_gradient",
    "maximize_final_state",
]

_MIN_STEP = 1e-18
_RANGE_SLACK = 1e-12


@dataclass(frozen=True)
class OptimizerConfig:
    """Knobs for projected gradient ascent with backtracking.

    ``grad_tol`` is compared against the max-norm of the tangent gradient.
    Defaults stay above ~1e-8 because near the maximum the objective differences
    that the line search relies on drop below double-precision resolution, and
    the measured gradient floors out around that scale even when the state has
    already converged to machine precision.
    """

    step_size: float = 1.0
    max_iters: int = 200
    grad_tol: float = 1e-7
    seed: int = 0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.step_size) and self.step_size > 0.0):
            raise ValueError(f"step_size must be positive and finite, got {self.step_size!r}")
        object.__setattr__(self, "max_iters", _positive_int(self.max_iters, "max_iters"))
        if not (math.isfinite(self.grad_tol) and self.grad_tol > 0.0):
            raise ValueError(f"grad_tol must be positive and finite, got {self.grad_tol!r}")


@dataclass(frozen=True)
class OptimizationResult:
    """Outcome of one ascent run.

    ``objective_trace`` holds the accepted objective value per iteration,
    starting with the initial point, and is non-decreasing by construction.
    ``fidelity_to_evolved`` is |<argmax, U psi_i>|^2 — phase-insensitive,
    unlike the objective, so tests that pin the phase must look at
    Re <argmax, U psi_i> instead.
    """

    final_state: StateVector
    objective_value: float
    objective_trace: tuple[float, ...]
    gradient_norms: tuple[float, ...]
    iterations: int
    converged: bool
    fidelity_to_evolved: float

    def __post_init__(self) -> None:
        if not (
            ABS_Z_LOWER - _RANGE_SLACK <= self.objective_value <= 1.0 + _RANGE_SLACK
        ):
            raise ValueError(
                f"objective value {self.objective_value!r} escapes the provable "
                f"range [{ABS_Z_LOWER!r}, 1.0] for normalized states"
            )
        if not (0.0 <= self.fidelity_to_evolved <= 1.0 + _RANGE_SLACK):
            raise ValueError(
                f"fidelity {self.fidelity_to_evolved!r} outside [0, 1]"
            )
        trace = tuple(float(v) for v in self.objective_trace)
        if any(b < a for a, b in zip(trace, trace[1:])):
            raise ValueError("objective trace must be non-decreasing")
        object.__setattr__(self, "objective_trace", trace)
        object.__setattr__(
            self, "gradient_norms", tuple(float(g) for g in self.gradient_norms)
        )


def objective(
    psi_e: StateVector, hamiltonian: Hamiltonian, psi_i: StateVector, t: float
) -> float:
    """exp(Re <psi_e | U(t) psi_i> - 1), the functional magnitude."""
    target = evolve(hamiltonian, psi_i, t).amplitudes
    return _objective_against(psi_e.amplitudes, target)


def euclidean_gradient(
    psi_e: StateVector, hamiltonian: Hamiltonian, psi_i: StateVector, t: float
) -> np.ndarray:
    """Conjugate (Wirtinger) gradient of the objective with respect to conj(psi_e).

    d f / d conj(psi_e) = f * (U psi_i) / 2, since Re <psi_e|u> is
    (<psi_e|u> + <u|psi_e>) / 2 and only the first term carries conj(psi_e).
    Central finite differences of the real parameterization recover it via
    df/dx_k = 2 Re(g_k) and df/dy_k = 2 Im(g_k).
    """
    target = evolve(hamiltonian, psi_i, t).amplitudes
    return _gradient_against(psi_e.amplitudes, target)


def _objective_against(x: np.ndarray, target: np.ndarray) -> float:
    return float(np.exp(np.real(np.vdot(x, target)) - 1.0))


def _gradient_against(x: np.ndarray, target: np.ndarray) -> np.ndarray:
    return 0.5 * _objective_against(x, target) * target


def _tangent(x: np.ndarray, grad_conj: np.ndarray) -> np.ndarray:
    """Project the ascent direction onto the tangent space of the sphere at x.

    Viewing C^d as R^(2d) with inner product Re <a, b>, the direction for a
    real step x -> x + s*r is r = 2 * grad_conj; subtracting the radial
    component keeps the retraction well conditioned.
    """
    r = 2.0 * grad_conj
    return r - np.real(np.vdot(x, r)) * x


def _sphere_ascend(x, value_fn, grad_fn, step_size, max_iters, grad_tol):
    """Projected gradient ascent on the unit sphere with backtracking.

    Each iteration projects ``grad_fn(x)`` (a conjugate gradient) onto the
    tangent space, stops once its max-norm is at most ``grad_tol``, and
    otherwise tries steps ``step_size``, ``step_size/2``, ... renormalizing
    each trial point (a retraction), accepting the first one that does not
    decrease ``value_fn``. A line search that halves below ``_MIN_STEP``
    means the point is numerically stationary and ends the run unconverged.
    Returns ``(x, f, trace, grad_norms, iterations, converged)``; ``trace``
    starts with the initial value and gains one entry per iteration.
    """
    f = value_fn(x)
    trace = [f]
    grad_norms: list[float] = []
    iterations = 0
    for _ in range(max_iters):
        tangent = _tangent(x, grad_fn(x))
        gnorm = float(np.max(np.abs(tangent)))
        grad_norms.append(gnorm)
        if gnorm <= grad_tol:
            return x, f, trace, grad_norms, iterations, True
        iterations += 1
        step = step_size
        while step >= _MIN_STEP:
            candidate = x + step * tangent
            candidate /= np.linalg.norm(candidate)
            fc = value_fn(candidate)
            if fc >= f:
                x, f = candidate, fc
                break
            step *= 0.5
        trace.append(f)
        if step < _MIN_STEP:
            # the line search exhausted itself: numerically stationary
            return x, f, trace, grad_norms, iterations, False
    # ran out of iterations; record the final gradient for the report
    gnorm = float(np.max(np.abs(_tangent(x, grad_fn(x)))))
    grad_norms.append(gnorm)
    return x, f, trace, grad_norms, iterations, gnorm <= grad_tol


def maximize_final_state(
    hamiltonian: Hamiltonian,
    psi_i: StateVector,
    t: float,
    config: OptimizerConfig | None = None,
    initial: StateVector | None = None,
) -> OptimizationResult:
    """Projected gradient ascent for the best final state at horizon t.

    Starts from ``initial`` (or a seeded random state), walks along the
    sphere-tangent gradient with backtracking halving, and renormalizes
    after every trial step. A step is accepted as soon as it does not
    decrease the objective; convergence is declared when the tangent
    gradient max-norm falls below ``config.grad_tol``. Non-convergence
    within ``max_iters`` is reported, not raised.
    """
    config = config or OptimizerConfig()
    target = evolve(hamiltonian, psi_i, t).amplitudes

    if initial is None:
        rng = np.random.default_rng(config.seed)
        x = rng.standard_normal(psi_i.dim) + 1j * rng.standard_normal(psi_i.dim)
        x /= np.linalg.norm(x)
    else:
        if initial.dim != psi_i.dim:
            raise ValueError(
                f"initial state dimension {initial.dim} does not match {psi_i.dim}"
            )
        x = initial.amplitudes.copy()

    x, f, trace, grad_norms, iterations, converged = _sphere_ascend(
        x,
        lambda y: _objective_against(y, target),
        lambda y: _gradient_against(y, target),
        config.step_size,
        config.max_iters,
        config.grad_tol,
    )
    fidelity = float(abs(np.vdot(x, target)) ** 2)
    return OptimizationResult(
        final_state=StateVector(x),
        objective_value=f,
        objective_trace=tuple(trace),
        gradient_norms=tuple(grad_norms),
        iterations=iterations,
        converged=converged,
        fidelity_to_evolved=fidelity,
    )
