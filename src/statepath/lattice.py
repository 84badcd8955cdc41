"""Time-sliced coherent-chain evaluation of the single-mode path weight.

A chain of complex variables z_0 .. z_N carries the discrete action for the
normal-ordered quadratic generator H(conj(z), z) = E conj(z) z. Integrating
the interior variables against the Gaussian measure d^2 z / pi one slice at
a time reduces the chain exactly; the reduced value converges first order in
1/N to the analytic propagator, which is the same expression as the
per-mode functional factor. A Monte-Carlo estimator validates the measure
convention directly at small N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hilbert import _positive_int

__all__ = [
    "TimeGrid",
    "PathLattice",
    "CoherentChainProblem",
    "ActionValue",
    "discrete_action",
    "chain_reduce_exact",
    "analytic_propagator",
    "convergence_study",
    "loglog_slope",
    "convergence_csv",
    "monte_carlo_estimate",
    "MAX_MC_STEPS",
    "MIN_MC_SAMPLES",
]

MAX_MC_STEPS = 6
MIN_MC_SAMPLES = 1000
_CHAIN_CHUNK = 1 << 14


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid: [t_start, t_end] split into ``steps`` slices.

    The slice width dt is always derived from the endpoints, never stored,
    so it cannot drift out of sync with them.
    """

    t_start: float
    t_end: float
    steps: int

    def __post_init__(self) -> None:
        for name in ("t_start", "t_end"):
            value = getattr(self, name)
            if isinstance(value, bool) or not (isinstance(value, (int, float))
                                               and math.isfinite(value)):
                raise ValueError(f"{name} must be a finite real, got {value!r}")
        if not self.t_end > self.t_start:
            raise ValueError(
                f"t_end must exceed t_start, got [{self.t_start!r}, {self.t_end!r}]"
            )
        if not math.isfinite(float(self.t_end) - float(self.t_start)):
            raise ValueError(f"t_end - t_start must be finite, got "
                             f"{self.t_end!r} - {self.t_start!r}")
        object.__setattr__(self, "steps", _positive_int(self.steps, "steps"))

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start

    @property
    def dt(self) -> float:
        return (self.t_end - self.t_start) / self.steps

    def times(self) -> np.ndarray:
        return np.linspace(self.t_start, self.t_end, self.steps + 1)


class PathLattice:
    """Discrete path of per-mode coefficients on a time grid.

    ``coefficients`` has shape (modes, steps + 1); a 1-d input is treated as
    a single mode. The first and last columns are the pinned boundary
    values; interior columns are unconstrained and may leave the unit
    sphere.
    """

    __slots__ = ("_grid", "_coefficients")

    def __init__(self, grid: TimeGrid, coefficients) -> None:
        arr = np.array(coefficients, dtype=np.complex128)
        if arr.ndim == 1:
            arr = arr[None, :]
        if arr.ndim != 2 or arr.shape[0] == 0:
            raise ValueError(f"coefficients must be 1-d or 2-d, got shape {arr.shape}")
        if arr.shape[1] != grid.steps + 1:
            raise ValueError(
                f"coefficients have {arr.shape[1]} columns but the grid has "
                f"{grid.steps} steps (needs {grid.steps + 1})"
            )
        if not np.all(np.isfinite(arr)):
            raise ValueError("coefficients contain non-finite entries")
        arr.flags.writeable = False
        self._grid = grid
        self._coefficients = arr

    @classmethod
    def pinned(cls, grid: TimeGrid, start, end, interior=None) -> "PathLattice":
        """Build a lattice from boundary values plus optional interior columns.

        When ``interior`` is omitted the interior is filled by linear
        interpolation between the boundaries.
        """
        start = np.atleast_1d(np.asarray(start, dtype=np.complex128))
        end = np.atleast_1d(np.asarray(end, dtype=np.complex128))
        if start.shape != end.shape or start.ndim != 1:
            raise ValueError(
                f"boundary values must be same-shape vectors, got {start.shape} and {end.shape}"
            )
        modes = start.size
        n = grid.steps
        if interior is None:
            s = np.arange(1, n) / n
            interior_arr = start[:, None] * (1.0 - s)[None, :] + end[:, None] * s[None, :]
        else:
            interior_arr = np.asarray(interior, dtype=np.complex128)
            if interior_arr.ndim == 1:
                interior_arr = interior_arr[None, :]
            if interior_arr.shape != (modes, n - 1):
                raise ValueError(
                    f"interior must have shape ({modes}, {n - 1}), got {interior_arr.shape}"
                )
        coeffs = np.concatenate(
            [start[:, None], interior_arr.reshape(modes, n - 1), end[:, None]], axis=1
        )
        return cls(grid, coeffs)

    @property
    def grid(self) -> TimeGrid:
        return self._grid

    @property
    def coefficients(self) -> np.ndarray:
        return self._coefficients

    @property
    def modes(self) -> int:
        return int(self._coefficients.shape[0])

    def __repr__(self) -> str:
        return f"PathLattice(modes={self.modes}, steps={self._grid.steps})"


@dataclass(frozen=True)
class CoherentChainProblem:
    """Boundary data for the single-mode chain with H = E conj(z) z."""

    z0: complex
    zf: complex
    energy: float
    grid: TimeGrid
    hbar: float = 1.0

    def __post_init__(self) -> None:
        for name in ("z0", "zf"):
            value = complex(getattr(self, name))
            if not (math.isfinite(value.real) and math.isfinite(value.imag)):
                raise ValueError(f"{name} must be finite, got {value!r}")
            object.__setattr__(self, name, value)
        if not math.isfinite(float(self.energy)):
            raise ValueError(f"energy must be finite, got {self.energy!r}")
        if not (math.isfinite(float(self.hbar)) and self.hbar > 0.0):
            raise ValueError(f"hbar must be positive and finite, got {self.hbar!r}")
        # the full-duration phase angle, in the order analytic_propagator computes it
        duration = self.grid.duration
        if not math.isfinite(float(self.energy) * duration / self.hbar):
            raise ValueError(f"energy * (t_end - t_start) / hbar must be finite, got "
                             f"{self.energy!r} * {duration!r} / {self.hbar!r}")


@dataclass(frozen=True)
class ActionValue:
    """Dimensionless exponent of one discrete path weight."""

    value: complex

    def __post_init__(self) -> None:
        value = complex(self.value)
        if not (math.isfinite(value.real) and math.isfinite(value.imag)):
            raise ValueError(f"action value must be finite, got {value!r}")
        object.__setattr__(self, "value", value)


def discrete_action(path: PathLattice, energy, hbar: float = 1.0) -> ActionValue:
    """Discrete action of a coefficient path.

    Sums, over slices k and modes j, the exponent terms

        (conj(z_{k+1}) - conj(z_k)) z_k / 2
        - conj(z_{k+1}) (z_{k+1} - z_k) / 2
        - (i dt / hbar) E_j conj(z_{k+1}) z_k

    with the normal-ordered substitution: creation -> conj(z_{k+1}),
    annihilation -> z_k. ``energy`` may be a scalar or one value per mode.
    """
    z = path.coefficients
    energies = np.broadcast_to(np.asarray(energy, dtype=np.float64), (path.modes,))
    if not np.all(np.isfinite(energies)):
        raise ValueError("energy contains non-finite entries")
    dt = path.grid.dt
    left = z[:, :-1]
    right = z[:, 1:]
    kinetic = 0.5 * (np.conj(right) - np.conj(left)) * left - 0.5 * np.conj(right) * (right - left)
    potential = (-1j * dt / hbar) * energies[:, None] * np.conj(right) * left
    return ActionValue(complex(np.sum(kinetic + potential)))


def chain_reduce_exact(problem: CoherentChainProblem) -> complex:
    """Integrate out the interior chain variables exactly, slice by slice.

    Tracks the running coefficient of conj(z_f) z_0 through every slice
    instead of jumping to the closed form, so the independent power-law
    oracle stays a meaningful check. Each elimination applies

        integral d^2 z / pi exp(-a |z|^2 + u conj(z) + v z) = (1/a) exp(u v / a)

    where a = 1 is fixed by the Gaussian weight the measure assigns to every
    interior variable, so the prefactor stays 1 and the coupling picks up
    one factor c per slice.

    The factors are applied left to right, one rounded product per slice,
    in chunks of ``_CHAIN_CHUNK`` slices by ``np.multiply.accumulate``; the
    first entry of each chunk carries the running coupling, so the result
    has the bits of the plain loop ``coupling *= c``. The coupling grows as
    |c|^N, so a large E dt / hbar can overflow it even though the analytic
    value is finite; a reduction that is not finite is refused.
    """
    c = 1.0 - 1j * problem.energy * problem.grid.dt / problem.hbar
    coupling = c  # coefficient of conj(z_1) z_0 before any elimination
    remaining = problem.grid.steps - 1
    with np.errstate(all="ignore"):  # an overflow is refused below, not warned about
        while remaining > 0:
            n = min(remaining, _CHAIN_CHUNK)
            chunk = np.full(n + 1, c)
            chunk[0] = coupling
            coupling = complex(np.multiply.accumulate(chunk)[-1])
            remaining -= n
        boundary = np.exp(-0.5 * (abs(problem.zf) ** 2 + abs(problem.z0) ** 2))
        value = complex(boundary * np.exp(coupling * np.conj(problem.zf) * problem.z0))
    if not np.isfinite([coupling, value]).all():
        raise ValueError(f"the exact chain reduction is not finite at N = {problem.grid.steps} "
                         f"for energy {problem.energy!r}, t_end - t_start "
                         f"{problem.grid.duration!r} and hbar {problem.hbar!r}")
    return value


def analytic_propagator(problem: CoherentChainProblem) -> complex:
    """Closed-form chain value for the full duration.

    exp(-(|z_f|^2 + |z_0|^2)/2) * exp(exp(-i E t / hbar) conj(z_f) z_0),
    written as the same floating-point expression as
    ``functional.z_mode_factor`` so the cross-module identity is bitwise.
    """
    phase = np.exp(-1j * problem.energy * problem.grid.duration / problem.hbar)
    return complex(
        np.exp(-0.5 * (abs(problem.zf) ** 2 + abs(problem.z0) ** 2))
        * np.exp(phase * np.conj(problem.zf) * problem.z0)
    )


def convergence_study(problem: CoherentChainProblem, n_list) -> list[tuple[int, float]]:
    """Absolute error of the exact chain reduction against the closed form.

    Rebuilds the problem at every slice count in ``n_list`` (which must be
    ascending positive integers) and returns (N, abs_error) rows.
    """
    ns = [int(n) for n in n_list]
    if len(ns) == 0 or any(n < 1 for n in ns) or any(b <= a for a, b in zip(ns, ns[1:])):
        raise ValueError(f"n_list must be strictly ascending positive integers, got {ns!r}")
    target = analytic_propagator(problem)
    rows = []
    for n in ns:
        grid_n = TimeGrid(problem.grid.t_start, problem.grid.t_end, n)
        problem_n = CoherentChainProblem(problem.z0, problem.zf, problem.energy, grid_n, problem.hbar)
        rows.append((n, float(abs(chain_reduce_exact(problem_n) - target))))
    return rows


def loglog_slope(rows) -> float:
    """Least-squares slope of log(abs_error) against log(N).

    Every error must be strictly positive; a lattice that is already exact
    (for instance E = 0) has no meaningful convergence rate.
    """
    ns = np.array([n for n, _ in rows], dtype=np.float64)
    errs = np.array([e for _, e in rows], dtype=np.float64)
    if ns.size < 2:
        raise ValueError("need at least two rows to fit a slope")
    if np.any(errs <= 0.0):
        raise ValueError("all errors must be positive to fit a log-log slope")
    slope, _ = np.polyfit(np.log(ns), np.log(errs), 1)
    return float(slope)


def convergence_csv(rows) -> str:
    """CSV table with header ``N,abs_error``; full double precision."""
    lines = ["N,abs_error"]
    for n, err in rows:
        lines.append(f"{int(n)},{float(err):.17g}")
    return "\n".join(lines) + "\n"


def monte_carlo_estimate(
    problem: CoherentChainProblem,
    samples: int,
    seed: int,
) -> tuple[complex, float]:
    """Importance-sampled estimate of the interior chain integral.

    Interior variables are drawn from the standard complex Gaussian weight
    exp(-|z|^2) d^2 z / pi and the residual chain coupling is averaged.
    Returns (estimate, standard_error) where the standard error is that of
    the complex sample mean. It is a confidence bound only at N = 2 slices.
    From N = 3 on, the weight holds the bilinear term c conj(z_{k+1}) z_k of
    two sampled variables, with |c| = sqrt(1 + (E dt / hbar)^2) > 1 for any
    E != 0, so E|w|^2 diverges: the weights have infinite variance, and the
    reported standard error is only a sample statistic with a heavy tail of
    misses (2 estimates beyond 5 standard errors in 3600 runs at N = 3 and
    10^5 samples).

    Results are deterministic for a fixed (seed, samples) pair: every
    sample comes from the one generator ``default_rng([seed, 0])``. An
    estimate or error bar that is not finite (a large E dt / hbar overflows
    the weights) is refused.
    """
    n = problem.grid.steps
    if n > MAX_MC_STEPS:
        raise ValueError(
            f"refusing Monte-Carlo evaluation for steps = {n} > {MAX_MC_STEPS}: "
            "the weight variance grows too quickly with chain length for a "
            "trustworthy error bar at desk scale"
        )
    samples = int(samples)
    if samples < MIN_MC_SAMPLES:
        raise ValueError(f"samples must be >= {MIN_MC_SAMPLES}, got {samples}")
    seed = int(seed)
    if seed < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {seed}")

    boundary = float(np.exp(-0.5 * (abs(problem.zf) ** 2 + abs(problem.z0) ** 2)))
    c = 1.0 - 1j * problem.energy * problem.grid.dt / problem.hbar
    with np.errstate(all="ignore"):  # a non-finite estimate is refused below, not warned about
        if n == 1:
            # no interior variables: the chain value is exact
            estimate, stderr = complex(boundary * np.exp(c * np.conj(problem.zf) * problem.z0)), 0.0
        else:
            weights = _chain_weights(problem, c, samples, seed)
            total_abs_sq = float(np.sum(np.abs(weights) ** 2))
            mean = complex(weights.sum()) / samples
            variance = max(0.0, total_abs_sq - samples * abs(mean) ** 2) / (samples - 1)
            estimate = complex(boundary * mean)
            stderr = boundary * math.sqrt(variance / samples)
    if not (np.isfinite(estimate) and math.isfinite(stderr)):
        raise ValueError(f"the Monte-Carlo estimate is not finite at N = {n} for energy "
                         f"{problem.energy!r}, t_end - t_start {problem.grid.duration!r} "
                         f"and hbar {problem.hbar!r}")
    return estimate, stderr


def _chain_weights(problem: CoherentChainProblem, c: complex, samples: int,
                   seed: int) -> np.ndarray:
    """exp(c sum_k conj(z_{k+1}) z_k) for ``samples`` draws of the interior,
    built one column at a time with the bits of the (samples, N + 1) chain
    form ``c * np.sum(conj(chain[:, 1:]) * chain[:, :-1], axis=1)``: the same
    draw order and products, added in the order numpy's pairwise sum takes
    below eight complex terms (left to right below four, else
    (t0 + t1) + (t2 + t3), then the rest).
    """
    n = problem.grid.steps
    draws = np.random.default_rng([seed, 0]).standard_normal((2, samples, n - 1))
    draws *= math.sqrt(0.5)
    z = np.empty((samples, n - 1), dtype=np.complex128)
    z.real = draws[0]
    z.imag = draws[1]
    terms = [np.conj(z[:, 0]) * problem.z0]
    terms += [np.conj(z[:, k]) * z[:, k - 1] for k in range(1, n - 1)]
    terms.append(np.conj(problem.zf) * z[:, -1])
    # c multiplies an unnamed temporary, as in c * np.sum(...): from 256 KiB up numpy
    # reuses it in place with the operands swapped, and that order rounds differently
    if n < 4:
        weights = c * sum(terms[2:], terms[0] + terms[1])
    else:
        weights = c * sum(terms[4:], (terms[0] + terms[1]) + (terms[2] + terms[3]))
    return np.exp(weights, out=weights)
