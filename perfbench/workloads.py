"""The four benchmark workloads: seeded inputs, the timed call, untimed checks.

Every job is built from raw numpy arrays (or a config file) drawn from the
workload seed, so the program receives only those inputs. ``Job.call`` is the
timed part and builds the library objects itself, so input validation is
measured; ``Job.check`` runs afterwards against references computed here
with the benchmark's own ``numpy.linalg.eigh``.

A check returns two lists of messages:

* ``wrong``: the output disagrees with an independent reference or breaks a
  proven invariant. Any such message makes the run's ``correct`` false.
* ``short``: the program reported non-convergence, exited with code 3, or
  missed a documented target. The job counts as failed, but its output is
  still correct; see README.md for the two known shortfalls on ``paths``.

Jobs come in cycles of fixed composition, and runs end on a cycle boundary,
so the job mix of a run is exact whatever its length.
"""

from __future__ import annotations

import dataclasses
import json
import math
import subprocess
import sys
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import statepath as sp

_EIGH = np.linalg.eigh  # kept before a tracer wraps numpy.linalg.eigh
ABS_Z_LOWER = math.exp(-2.0)
AGREE_TOL = 1e-10
BAND_SLACK = 1e-12
OPT_TOL = 1e-8
RECOVERY_TOL = 1e-6
POINTER_TOL = 1e-3
MC_SIGMAS = 5.0
SLOPE_RANGE = (-1.15, -0.85)

HERE = Path(__file__).resolve().parent


@dataclasses.dataclass
class Job:
    kind: str
    call: Callable[[], object]
    check: Callable[[object], tuple[list[str], list[str]]]
    corrupt: Optional[Callable[[object], object]] = None


# -- raw inputs and independent references ---------------------------------


def hermitian(rng, d: int) -> np.ndarray:
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return 0.5 * (a + a.conj().T)


def unit(rng, d: int) -> np.ndarray:
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


def ref_evolve(m: np.ndarray, a: np.ndarray, t: float) -> np.ndarray:
    energies, vectors = _EIGH(m)
    return vectors @ (np.exp(-1j * energies * t) * (vectors.conj().T @ a))


def ref_z(m: np.ndarray, a: np.ndarray, b: np.ndarray, t: float) -> complex:
    return complex(np.exp(np.vdot(b, ref_evolve(m, a, t)) - 1.0))


def check_z(z: complex, ref: complex, what: str) -> list[str]:
    wrong = []
    if not abs(z - ref) <= AGREE_TOL:
        wrong.append(f"{what}: |z - reference| = {abs(z - ref):.3e}")
    if not ABS_Z_LOWER - BAND_SLACK <= abs(z) <= 1.0 + BAND_SLACK:
        wrong.append(f"{what}: |z| = {abs(z)!r} outside [e^-2, 1]")
    return wrong


def check_ascent(x: np.ndarray, objective: float, evolved: np.ndarray, what: str) -> list[str]:
    re_overlap = float(np.real(np.vdot(x, evolved)))
    if objective >= 1.0 - OPT_TOL and re_overlap >= 1.0 - OPT_TOL:
        return []
    return [f"{what}: objective {objective!r}, Re<x, U psi_i> {re_overlap!r} below 1 - 1e-8"]


def chain_exact(z0: complex, zf: complex, energy: float, steps: int, t_end: float = 1.0) -> complex:
    """Closed form of the sliced chain: the coupling is c^N, with c = 1 - i E dt."""
    c = 1.0 - 1j * energy * t_end / steps
    boundary = math.exp(-0.5 * (abs(zf) ** 2 + abs(z0) ** 2))
    return complex(boundary * np.exp(c**steps * np.conj(zf) * z0))


def loglog_slope(rows) -> float:
    ns = np.log([float(n) for n, _ in rows])
    errs = np.log([float(e) for _, e in rows])
    return float(np.polyfit(ns, errs, 1)[0])


# -- band-sweep --------------------------------------------------------------


class BandSweep:
    """One fresh H per job and one closed-form evaluation: no reuse at all."""

    name = "band-sweep"
    setup_module = "statepath"
    # a block of 25 jobs holds the exact mix: 24 % each of d = 2, 4, 8, 16, 4 % d = 64
    block_dims = (2,) * 6 + (4,) * 6 + (8,) * 6 + (16,) * 6 + (64,)
    traced_cycles_per_s = 20

    def warm_up(self) -> None:
        for d in (2, 64):
            rng = np.random.default_rng(d)
            sp.z_closed_form(sp.StateVector(unit(rng, d)), sp.StateVector(unit(rng, d)),
                             sp.Hamiltonian(hermitian(rng, d)), 0.5)

    def cycle(self, seed: int, index: int) -> list[Job]:
        rng = np.random.default_rng([seed, 1, index])
        return [self._job(rng, int(d)) for d in rng.permutation(self.block_dims)]

    @staticmethod
    def _job(rng, d: int) -> Job:
        m, a, b = hermitian(rng, d), unit(rng, d), unit(rng, d)
        t = float(rng.uniform(-3.0, 3.0))

        def call():
            return sp.z_closed_form(sp.StateVector(a), sp.StateVector(b), sp.Hamiltonian(m), t)

        def check(value):
            return check_z(value.z, ref_z(m, a, b, t), f"z_closed_form d={d}"), []

        return Job(f"z d={d}", call, check, corrupt=lambda value: sp.FunctionalValue(z=-value.z))


# -- shared-h ----------------------------------------------------------------


class SharedH:
    """One H per job, reused by a time scan, a mode product and four ascents."""

    name = "shared-h"
    setup_module = "statepath"
    # 11/11/3 of 25: about 45/45/10, with no ladder percentile on a size boundary
    block_dims = (4,) * 11 + (16,) * 11 + (64,) * 3
    scan_points = 64
    ascents = 4
    traced_cycles_per_s = 0.4

    def warm_up(self) -> None:
        rng = np.random.default_rng(4)
        h = sp.Hamiltonian(hermitian(rng, 4))
        psi_i, psi_e = sp.StateVector(unit(rng, 4)), sp.StateVector(unit(rng, 4))
        sp.z_closed_form(psi_i, psi_e, h, 0.5)
        sp.z_from_mode_product(psi_i, psi_e, sp.spectral_decompose(h), 0.5, h.hbar)
        sp.maximize_final_state(h, psi_i, 0.5, sp.OptimizerConfig(seed=0))

    def cycle(self, seed: int, index: int) -> list[Job]:
        rng = np.random.default_rng([seed, 2, index])
        return [self._job(rng, int(d)) for d in rng.permutation(self.block_dims)]

    def _job(self, rng, d: int) -> Job:
        m, a, b = hermitian(rng, d), unit(rng, d), unit(rng, d)
        times = np.linspace(-3.0, 3.0, self.scan_points)
        mode_index = int(rng.integers(self.scan_points))
        t_ascent = float(rng.uniform(0.5, 2.0))
        seeds = [int(s) for s in rng.integers(0, 2**31, self.ascents)]

        def call():
            h = sp.Hamiltonian(m)
            psi_i, psi_e = sp.StateVector(a), sp.StateVector(b)
            scan = [sp.z_closed_form(psi_i, psi_e, h, float(t)).z for t in times]
            mode = sp.z_from_mode_product(
                psi_i, psi_e, sp.spectral_decompose(h), float(times[mode_index]), h.hbar).z
            ascents = [sp.maximize_final_state(h, psi_i, t_ascent, sp.OptimizerConfig(seed=s))
                       for s in seeds]
            return scan, mode, ascents

        def check(out):
            scan, mode, ascents = out
            wrong: list[str] = []
            short: list[str] = []
            for t, z in zip(times, scan):
                wrong += check_z(z, ref_z(m, a, b, float(t)), f"scan d={d} t={t:.3f}")
            if not abs(mode - scan[mode_index]) <= AGREE_TOL:
                wrong.append(f"mode product d={d}: |z_mode - z_closed| = "
                             f"{abs(mode - scan[mode_index]):.3e}")
            evolved = ref_evolve(m, a, t_ascent)
            for seed, result in zip(seeds, ascents):
                if not result.converged:
                    short.append(f"ascent d={d} seed={seed} did not converge")
                wrong += check_ascent(result.final_state.amplitudes, result.objective_value,
                                      evolved, f"ascent d={d} seed={seed}")
            return wrong, short

        def corrupt(out):
            scan, mode, ascents = out
            return [-scan[0]] + scan[1:], mode, ascents

        return Job(f"shared d={d}", call, check, corrupt)


# -- paths -------------------------------------------------------------------


class Paths:
    """Collapse lambda-sweeps on the qubit-detector model, chain reduction, Monte Carlo.

    The collapse jobs use the model's documented default (weight0 = 0.75),
    where the linear-entropy run is known not to converge; the seed draws
    the chain and Monte-Carlo inputs.
    """

    name = "paths"
    setup_module = "statepath"
    weight0 = 0.75
    pointer_lambdas = (0.0, 1.0, 5.0, 20.0, 200.0)
    pointer_steps = 32
    entropy_lambda = 1.0
    entropy_steps = 16
    n_list = (10**2, 10**3, 10**4, 10**5, 10**6)
    mc_samples = 10**5
    # six chain rounds per cycle put about 30 % of the time in lattice
    chain_rounds = 6
    traced_cycles_per_s = 0.1

    def warm_up(self) -> None:
        h, psi_i, basis = sp.qubit_detector_model(weight0=self.weight0)
        problem = sp.PenalizedPathProblem(
            psi_i, sp.TimeGrid(0.0, 1.0, 2), h, sp.PenaltyConfig(1.0, sp.QuantumnessMeasure.pointer(basis)))
        sp.optimize_penalized(problem, reporting_basis=basis)
        chain = sp.CoherentChainProblem(0.5, 0.5, 1.0, sp.TimeGrid(0.0, 1.0, 2))
        sp.convergence_study(chain, [10, 100])
        sp.monte_carlo_estimate(chain, 1000, 0)

    def cycle(self, seed: int, index: int) -> list[Job]:
        rng = np.random.default_rng([seed, 3, index])
        collapse = [self._collapse("pointer", lam, self.pointer_steps) for lam in self.pointer_lambdas]
        collapse.append(self._collapse("entropy", self.entropy_lambda, self.entropy_steps))
        jobs = []
        for k in range(self.chain_rounds):
            jobs.append(collapse[k])
            jobs.append(self._study(rng))
            jobs.append(self._monte_carlo(rng, 2))
            jobs.append(self._monte_carlo(rng, 3))
        return jobs

    def _collapse(self, measure_kind: str, lam: float, steps: int) -> Job:
        weight0 = self.weight0

        def call():
            h, psi_i, basis = sp.qubit_detector_model(weight0=weight0)
            if measure_kind == "pointer":
                measure = sp.QuantumnessMeasure.pointer(basis)
            else:
                measure = sp.QuantumnessMeasure.linear_entropy(2, 2)
            problem = sp.PenalizedPathProblem(
                psi_i, sp.TimeGrid(0.0, 1.0, steps), h, sp.PenaltyConfig(lam, measure))
            return sp.optimize_penalized(problem, reporting_basis=basis)

        def check(outcome):
            return check_collapse(outcome.report, weight0, lam, f"{measure_kind} lam={lam:g} steps={steps}")

        def corrupt(outcome):
            rolled = sp.StateVector(np.roll(outcome.final_state.amplitudes, 1))
            return outcome._replace(final_state=rolled,
                                    report=dataclasses.replace(outcome.report, final_state=rolled))

        return Job(f"collapse {measure_kind} lam={lam:g}", call, check, corrupt)

    def _study(self, rng) -> Job:
        z0, zf = complex(*rng.normal(0.0, 0.6, 2)), complex(*rng.normal(0.0, 0.6, 2))
        energy = float(rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0]))
        n_list = list(self.n_list)

        def call():
            problem = sp.CoherentChainProblem(z0, zf, energy, sp.TimeGrid(0.0, 1.0, n_list[0]))
            return sp.convergence_study(problem, n_list)

        def check(rows):
            if [n for n, _ in rows] != n_list:
                return [f"convergence study returned N = {[n for n, _ in rows]}"], []
            slope = loglog_slope(rows)
            if not SLOPE_RANGE[0] <= slope <= SLOPE_RANGE[1]:
                return [f"chain log-log slope {slope!r} outside {SLOPE_RANGE}"], []
            return [], []

        return Job("chain study", call, check)

    def _monte_carlo(self, rng, steps: int) -> Job:
        z0, zf = complex(*rng.normal(0.0, 0.6, 2)), complex(*rng.normal(0.0, 0.6, 2))
        energy = float(rng.uniform(0.5, 2.0))
        mc_seed = int(rng.integers(0, 2**31))
        samples = self.mc_samples

        def call():
            problem = sp.CoherentChainProblem(z0, zf, energy, sp.TimeGrid(0.0, 1.0, steps))
            return sp.monte_carlo_estimate(problem, samples, mc_seed)

        def check(out):
            estimate, stderr = out
            gap = abs(estimate - chain_exact(z0, zf, energy, steps))
            if not (stderr > 0.0 and gap <= MC_SIGMAS * stderr):
                return [f"monte carlo {steps} slices: |estimate - exact| = {gap:.3e}, "
                        f"standard error {stderr:.3e}"], []
            return [], []

        return Job(f"monte carlo {steps}", call, check)


def ref_detector_model(weight0: float) -> tuple[np.ndarray, np.ndarray]:
    """H = (pi/2) |1><1| (x) sigma_x and the start sqrt(w0)|00> + sqrt(1-w0)|10>."""
    h = (math.pi / 2) * np.kron(np.diag([0.0, 1.0]), np.array([[0.0, 1.0], [1.0, 0.0]]))
    psi_i = np.kron([math.sqrt(weight0), math.sqrt(1.0 - weight0)], [1.0, 0.0])
    return h.astype(complex), psi_i.astype(complex)


def check_collapse(report, weight0: float, lam: float, what: str) -> tuple[list[str], list[str]]:
    """Checks of one collapse run on the qubit-detector model over t in [0, 1]."""
    wrong: list[str] = []
    short: list[str] = []
    x = np.asarray(report.final_state.amplitudes)
    fidelities = np.abs(x) ** 2  # the pointer basis is the computational basis
    if not abs(np.linalg.norm(x) - 1.0) <= 1e-12:
        wrong.append(f"{what}: final state norm {np.linalg.norm(x)!r}")
    if not abs(report.fidelity_to_pointer - float(fidelities.max())) <= 1e-12:
        wrong.append(f"{what}: reported pointer fidelity {report.fidelity_to_pointer!r} "
                     f"but the final state gives {float(fidelities.max())!r}")
    if not report.log_magnitude <= 1e-12:
        wrong.append(f"{what}: log-magnitude {report.log_magnitude!r} above 0")
    if lam == 0.0:
        evolved = ref_evolve(*ref_detector_model(weight0), 1.0)
        recovery = float(abs(np.vdot(x, evolved)) ** 2)
        if not recovery >= 1.0 - RECOVERY_TOL:
            wrong.append(f"{what}: recovery fidelity {recovery!r} below 1 - 1e-6")
    if lam >= 200.0 and not report.fidelity_to_pointer >= 1.0 - POINTER_TOL:
        short.append(f"{what}: pointer fidelity {report.fidelity_to_pointer!r} below 1 - 1e-3")
    if not report.converged:
        short.append(f"{what}: reported converged = False after {report.sweeps} sweeps")
    return wrong, short


# -- cli ---------------------------------------------------------------------

COMMANDS = ("zeval", "lattice", "optimize", "collapse")


def _pairs(values) -> list:
    return [[float(z.real), float(z.imag)] for z in np.asarray(values).ravel()]


def cli_configs(seed: int) -> dict[str, dict]:
    """One small config per subcommand, all arrays explicit, drawn from the seed."""
    rng = np.random.default_rng([seed, 4])
    d = 16
    m, a, b = hermitian(rng, d), unit(rng, d), unit(rng, d)
    zeval = {
        "psi_i": {"kind": "explicit", "amplitudes": _pairs(a)},
        "psi_e": {"kind": "explicit", "amplitudes": _pairs(b)},
        "hamiltonian": {"kind": "explicit", "matrix": [_pairs(row) for row in m]},
        "t": float(rng.uniform(-3.0, 3.0)),
    }
    lattice = {
        "z0": _pairs(complex(*rng.normal(0.0, 0.6, 2)))[0],
        "zf": _pairs(complex(*rng.normal(0.0, 0.6, 2)))[0],
        "energy": float(rng.uniform(0.5, 2.0)),
        "t_end": 1.0,
        "n_list": [10**2, 10**3, 10**4, 10**5, 10**6],
    }
    m2, a2 = hermitian(rng, d), unit(rng, d)
    optimize = {
        "psi_i": {"kind": "explicit", "amplitudes": _pairs(a2)},
        "hamiltonian": {"kind": "explicit", "matrix": [_pairs(row) for row in m2]},
        "t": float(rng.uniform(0.5, 2.0)),
        "optimizer": {"seed": int(rng.integers(0, 2**31))},
    }
    # two lambdas: the subcommand's thread pool stays within two cores
    collapse = {
        "model": {"weight0": 0.75},
        "t_end": 1.0,
        "steps": 16,
        "lambdas": [1.0, 200.0],
        "measure": {"kind": "pointer_deviation"},
    }
    return {"zeval": zeval, "lattice": lattice, "optimize": optimize, "collapse": collapse}


def _vector(pairs) -> np.ndarray:
    return np.array([complex(re, im) for re, im in pairs])


def _matrix(rows) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in rows])


def library_result(command: str, cfg: dict):
    """The in-process library result the subcommand output must match."""
    if command == "zeval":
        return sp.z_closed_form(sp.StateVector(_vector(cfg["psi_i"]["amplitudes"])),
                                sp.StateVector(_vector(cfg["psi_e"]["amplitudes"])),
                                sp.Hamiltonian(_matrix(cfg["hamiltonian"]["matrix"])), cfg["t"])
    if command == "lattice":
        problem = sp.CoherentChainProblem(complex(*cfg["z0"]), complex(*cfg["zf"]), cfg["energy"],
                                          sp.TimeGrid(0.0, cfg["t_end"], cfg["n_list"][0]))
        return sp.convergence_study(problem, cfg["n_list"])
    if command == "optimize":
        return sp.maximize_final_state(
            sp.Hamiltonian(_matrix(cfg["hamiltonian"]["matrix"])),
            sp.StateVector(_vector(cfg["psi_i"]["amplitudes"])), cfg["t"],
            sp.OptimizerConfig(seed=cfg["optimizer"]["seed"]))
    h, psi_i, basis = sp.qubit_detector_model(weight0=cfg["model"]["weight0"])
    measure = sp.QuantumnessMeasure.pointer(basis)
    return [
        sp.optimize_penalized(
            sp.PenalizedPathProblem(psi_i, sp.TimeGrid(0.0, cfg["t_end"], cfg["steps"]), h,
                                    sp.PenaltyConfig(lam, measure)),
            sp.OptimizerConfig(grad_tol=1e-6), reporting_basis=basis).report
        for lam in sorted(cfg["lambdas"])
    ]


def _gap(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a, dtype=complex) - np.asarray(b, dtype=complex))))


def compare_output(command: str, cfg: dict, text: str, lib) -> list[str]:
    """Parse a subcommand's stdout and compare it with the library within 1e-10."""
    wrong: list[str] = []
    if command == "lattice":
        lines = text.strip().split("\n")
        rows = [(int(n), float(e)) for n, e in (line.split(",") for line in lines[1:])]
        if lines[0] != "N,abs_error" or [n for n, _ in rows] != [n for n, _ in lib]:
            return [f"lattice: unexpected table {lines[:2]}"]
        if _gap([e for _, e in rows], [e for _, e in lib]) > AGREE_TOL:
            wrong.append("lattice: errors differ from the library")
        slope = loglog_slope(rows)
        if not SLOPE_RANGE[0] <= slope <= SLOPE_RANGE[1]:
            wrong.append(f"lattice: log-log slope {slope!r} outside {SLOPE_RANGE}")
        return wrong
    payload = json.loads(text)
    if command == "zeval":
        z = complex(payload["z_re"], payload["z_im"])
        if _gap([z, complex(payload["overlap_re"], payload["overlap_im"])], [lib.z, lib.overlap]) > AGREE_TOL:
            wrong.append("zeval: z or overlap differs from the library")
        wrong += check_z(z, ref_z(_matrix(cfg["hamiltonian"]["matrix"]), _vector(cfg["psi_i"]["amplitudes"]),
                                  _vector(cfg["psi_e"]["amplitudes"]), cfg["t"]), "zeval")
    elif command == "optimize":
        x = _vector(payload["final_state"])
        if _gap(x, lib.final_state.amplitudes) > AGREE_TOL or \
                abs(payload["objective"] - lib.objective_value) > AGREE_TOL:
            wrong.append("optimize: final state or objective differs from the library")
        evolved = ref_evolve(_matrix(cfg["hamiltonian"]["matrix"]), _vector(cfg["psi_i"]["amplitudes"]), cfg["t"])
        wrong += check_ascent(x, payload["objective"], evolved, "optimize")
    else:
        if [row["lambda"] for row in payload] != [report.lam for report in lib]:
            return ["collapse: lambdas differ from the library"]
        for row, report in zip(payload, lib):
            if (_gap(_vector(row["final_state"]), report.final_state.amplitudes) > AGREE_TOL
                    or _gap(row["q_trajectory"], report.q_trajectory) > AGREE_TOL
                    or abs(row["log_magnitude"] - report.log_magnitude) > AGREE_TOL
                    or abs(row["fidelity_to_pointer"] - report.fidelity_to_pointer) > AGREE_TOL
                    or row["converged"] != report.converged):
                wrong.append(f"collapse lam={row['lambda']:g}: row differs from the library")
    return wrong


@dataclasses.dataclass
class ProcessRun:
    command: str
    exit_code: int
    stdout: bytes
    stderr: bytes
    trace_path: Optional[Path] = None


class CliRunner:
    """Runs ``statepath`` subcommands as child processes, one at a time.

    Untraced children run ``python -m statepath.cli``; traced ones run the
    benchmark's launcher, which installs the tracer before calling
    ``statepath.cli.main``. Configs live in the run's scratch directory.
    """

    timeout_s = 120.0

    def __init__(self, seed: int, scratch: Path, env: dict) -> None:
        self.configs = cli_configs(seed)
        self.env = env
        self.scratch = scratch
        self.traced = False
        self.traced_runs: list[ProcessRun] = []
        self.paths = {}
        for command, cfg in self.configs.items():
            path = scratch / f"{command}.json"
            path.write_text(json.dumps(cfg), encoding="utf-8")
            self.paths[command] = path
        self._library: dict[str, object] = {}
        self._first_bytes: dict[str, bytes] = {}

    def run(self, command: str) -> ProcessRun:
        argv = [sys.executable]
        trace_path = None
        if self.traced:
            trace_path = self.scratch / f"trace-{len(self.traced_runs)}.json"
            argv += [str(HERE / "launch.py"), "--trace-out", str(trace_path)]
        else:
            argv += ["-m", "statepath.cli"]
        argv += [command, "--config", str(self.paths[command])]
        try:
            done = subprocess.run(argv, env=self.env, capture_output=True, timeout=self.timeout_s)
            result = ProcessRun(command, done.returncode, done.stdout, done.stderr, trace_path)
        except subprocess.TimeoutExpired as exc:
            result = ProcessRun(command, -9, exc.stdout or b"", exc.stderr or b"", trace_path)
        if self.traced:
            self.traced_runs.append(result)
        return result

    def check(self, run: ProcessRun) -> tuple[list[str], list[str]]:
        command = run.command
        if run.exit_code not in (0, 3):
            tail = run.stderr.decode("utf-8", "replace").strip().splitlines()[-1:]
            return [f"{command}: exit code {run.exit_code} {tail}"], []
        short = [f"{command}: exit code 3 (non-convergence)"] if run.exit_code == 3 else []
        first = self._first_bytes.setdefault(command, run.stdout)
        if run.stdout != first:
            return [f"{command}: output bytes differ between two runs of one config"], short
        if command not in self._library:
            self._library[command] = library_result(command, self.configs[command])
        try:
            wrong = compare_output(command, self.configs[command], run.stdout.decode("utf-8"),
                                   self._library[command])
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            wrong = [f"{command}: unreadable output ({exc})"]
        return wrong, short

    def job(self, command: str) -> Job:
        corrupt = None
        if command == "zeval":
            def corrupt(run):
                payload = json.loads(run.stdout)
                payload["z_re"] += 0.5
                return ProcessRun(run.command, run.exit_code, json.dumps(payload).encode(), run.stderr)
        return Job(f"statepath {command}", lambda: self.run(command), self.check, corrupt)


class Cli:
    """Whole ``statepath`` processes: import, schema validation and serialization count."""

    name = "cli"
    setup_module = "statepath.cli"
    traced_cycles_per_s = 0.2

    def __init__(self) -> None:
        self.runner: Optional[CliRunner] = None

    def warm_up(self) -> None:
        pass

    # zeval runs twice per cycle, so the median lands inside one subcommand's
    # group instead of on the boundary between two of them
    cycle_commands = ("zeval", "lattice", "optimize", "zeval", "collapse")

    def cycle(self, seed: int, index: int) -> list[Job]:
        return [self.runner.job(command) for command in self.cycle_commands]


WORKLOADS = {w.name: w for w in (BandSweep(), SharedH(), Paths(), Cli())}
