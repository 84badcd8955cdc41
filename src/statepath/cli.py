"""Reproducible experiment runner for the library.

Four subcommands expose the main workflows — functional evaluation, lattice
convergence tables, final-state optimization, and the penalized collapse
demo — each driven by a schema-validated JSON config. Exit codes: 0 on
success, 2 on validation problems (config, schema, or domain errors), 3
when an optimization reports non-convergence. With a fixed (config, seed)
pair the emitted bytes are identical across runs.
"""

from __future__ import annotations

import argparse
import json
import math
import operator
import sys
from pathlib import Path

import numpy as np

from .functional import z_closed_form
from .hilbert import (
    Hamiltonian,
    StateVector,
    evolve,
    random_hamiltonian,
    random_state,
)
from .lattice import (
    CoherentChainProblem,
    PathLattice,
    TimeGrid,
    chain_reduce_exact,
    convergence_csv,
    convergence_study,
    discrete_action,
    monte_carlo_estimate,
)
from .optimizer import OptimizerConfig, maximize_final_state
from .quantumness import (
    PenaltyConfig,
    PenalizedPathProblem,
    QuantumnessMeasure,
    optimize_penalized,
    penalized_log_magnitude,
    q_linear_entropy,
    q_pointer_deviation,
    qubit_detector_model,
)
from .serialize import (
    dumps,
    fmt17,
    parse_complex,
    parse_matrix,
    parse_vector,
    vector_pairs,
)

__all__ = ["main", "entry"]

# Caps, checked by the schema before any work starts. Each keeps the slowest
# run at its cap, other fields at their defaults, under 10 s on a 2-core
# x86 VM: the eigh of a random H (dim), an unconverged collapse (max_iters,
# steps, lambdas) or the exact chain reduction (n_list). _MAX_DIM also caps
# explicit matrices and amplitudes, whose cost follows the size of the file.
_MAX_DIM = 1536
_MAX_ITERS = 1000
_MAX_STEPS = 64
_MAX_LAMBDAS = 64
_MAX_SLICES = 10**7
_MAX_SLICE_COUNTS = 10
# The collapse caps multiply, so the work of a collapse is capped as a whole
# before it starts: per lambda, up to max_iters sweeps over the steps - 1
# interior slices. A unit is one slice of one sweep; a sweep's two colour
# solves add a fixed cost of about 32 units, whatever the steps. At up to
# 50 us a unit on a 2-core x86 VM, the cap keeps the slowest run under 10 s.
_SWEEP_FIXED_SLICES = 32
_MAX_COLLAPSE_WORK = 200_000
# a schema message longer than this is clipped, so an error stays one short line
_MAX_MESSAGE_BYTES = 300

_COMPLEX_PAIR = {
    "type": "array",
    "prefixItems": [{"type": "number"}, {"type": "number"}],
    "minItems": 2,
    "items": False,
}
_VECTOR = {"type": "array", "minItems": 1, "maxItems": _MAX_DIM, "items": _COMPLEX_PAIR}
_MATRIX = {"type": "array", "minItems": 1, "maxItems": _MAX_DIM, "items": _VECTOR}


def _kind_rules(rules: dict) -> list:
    """``allOf`` branches from {kind: (its fields besides kind, the required ones)}."""
    return [
        {
            "if": {"properties": {"kind": {"const": kind}}, "required": ["kind"]},
            "then": {
                "propertyNames": {"enum": ["kind", *accepted]},
                "required": required,
            },
        }
        for kind, (accepted, required) in rules.items()
    ]


_STATE_RULES = {
    "random": (["dim", "seed"], []),
    "explicit": (["amplitudes"], ["amplitudes"]),
    "evolved": ([], []),
}


def _state_spec(kinds: list) -> dict:
    return {
        "type": "object",
        "properties": {
            "kind": {"enum": kinds},
            "dim": {"type": "integer", "minimum": 1, "maximum": _MAX_DIM},
            "seed": {"type": "integer", "minimum": 0},
            "amplitudes": _VECTOR,
        },
        "required": ["kind"],
        "additionalProperties": False,
        "allOf": _kind_rules({kind: _STATE_RULES[kind] for kind in kinds}),
    }


_STATE_SPEC = _state_spec(["random", "explicit"])
# a final state may additionally be requested as the evolved initial state
_FINAL_STATE_SPEC = _state_spec(["random", "explicit", "evolved"])

_HAMILTONIAN_SPEC = {
    "type": "object",
    "properties": {
        "kind": {"enum": ["random", "explicit"]},
        "dim": {"type": "integer", "minimum": 1, "maximum": _MAX_DIM},
        "seed": {"type": "integer", "minimum": 0},
        "energy_scale": {"type": "number", "exclusiveMinimum": 0},
        "matrix": _MATRIX,
        "hbar": {"type": "number", "exclusiveMinimum": 0},
    },
    "required": ["kind"],
    "additionalProperties": False,
    "allOf": _kind_rules({
        "random": (["dim", "seed", "energy_scale", "hbar"], ["dim"]),
        "explicit": (["hbar", "matrix"], ["matrix"]),
    }),
}

_OPTIMIZER_SPEC = {
    "type": "object",
    "properties": {
        "step_size": {"type": "number", "exclusiveMinimum": 0},
        "max_iters": {"type": "integer", "minimum": 1, "maximum": _MAX_ITERS},
        "grad_tol": {"type": "number", "exclusiveMinimum": 0},
        "seed": {"type": "integer", "minimum": 0},
    },
    "additionalProperties": False,
}

_SCHEMAS = {
    "zeval": {
        "$schema": "https://json-schema.org/draft/2020-12/schema",
        "type": "object",
        "properties": {
            "psi_i": _STATE_SPEC,
            "psi_e": _FINAL_STATE_SPEC,
            "hamiltonian": _HAMILTONIAN_SPEC,
            "t": {"type": "number"},
        },
        "required": ["psi_i", "psi_e", "hamiltonian", "t"],
        "additionalProperties": False,
    },
    "lattice": {
        "$schema": "https://json-schema.org/draft/2020-12/schema",
        "type": "object",
        "properties": {
            "z0": _COMPLEX_PAIR,
            "zf": _COMPLEX_PAIR,
            "energy": {"type": "number"},
            "t_start": {"type": "number"},
            "t_end": {"type": "number"},
            "n_list": {
                "type": "array",
                "minItems": 1,
                "maxItems": _MAX_SLICE_COUNTS,
                "items": {"type": "integer", "minimum": 1, "maximum": _MAX_SLICES},
            },
            "hbar": {"type": "number", "exclusiveMinimum": 0},
        },
        "required": ["z0", "zf", "energy", "t_end", "n_list"],
        "additionalProperties": False,
    },
    "optimize": {
        "$schema": "https://json-schema.org/draft/2020-12/schema",
        "type": "object",
        "properties": {
            "psi_i": _STATE_SPEC,
            "hamiltonian": _HAMILTONIAN_SPEC,
            "t": {"type": "number"},
            "optimizer": _OPTIMIZER_SPEC,
        },
        "required": ["psi_i", "hamiltonian", "t"],
        "additionalProperties": False,
    },
    "collapse": {
        "$schema": "https://json-schema.org/draft/2020-12/schema",
        "type": "object",
        "properties": {
            "model": {
                "type": "object",
                "properties": {
                    "weight0": {"type": "number", "minimum": 0, "maximum": 1},
                    "coupling": {"type": "number"},
                    "hbar": {"type": "number", "exclusiveMinimum": 0},
                },
                "additionalProperties": False,
            },
            "t_end": {"type": "number", "exclusiveMinimum": 0},
            "steps": {"type": "integer", "minimum": 1, "maximum": _MAX_STEPS},
            "lambdas": {
                "type": "array",
                "minItems": 1,
                "maxItems": _MAX_LAMBDAS,
                "items": {"type": "number", "minimum": 0},
            },
            "measure": {
                "type": "object",
                "properties": {
                    "kind": {"enum": ["pointer_deviation", "linear_entropy"]},
                    "partition": {
                        "type": "array",
                        "prefixItems": [
                            {"type": "integer", "minimum": 1},
                            {"type": "integer", "minimum": 1},
                        ],
                        "minItems": 2,
                        "items": False,
                    },
                },
                "required": ["kind"],
                "additionalProperties": False,
                "allOf": _kind_rules({
                    "pointer_deviation": ([], []),
                    "linear_entropy": (["partition"], []),
                }),
            },
            # the collapse reads only the sweep cap
            "optimizer": {"type": "object", "additionalProperties": False,
                          "properties": {"max_iters": _OPTIMIZER_SPEC["properties"]["max_iters"]}},
            "csv_out": {"type": "string"},
        },
        "required": ["lambdas"],
        "additionalProperties": False,
    },
}


# The configs are checked here, not by a validator package: _walk implements
# the 2020-12 semantics of exactly the keywords _SCHEMAS uses, and a refusal
# names the error jsonschema's best_match would pick, in jsonschema's wording.
# tests/test_cli_schema.py holds it to jsonschema and the schemas to the
# metaschema. ``then`` is read by ``if``; ``$schema`` names the dialect.
_KEYWORDS = frozenset({
    "type", "enum", "const", "required", "properties", "additionalProperties",
    "propertyNames", "minimum", "maximum", "exclusiveMinimum", "minItems", "maxItems",
    "prefixItems", "items", "allOf", "if", "then", "$schema",
})


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# the schemas' type names over what json.loads returns
_TYPES = {
    "object": lambda value: isinstance(value, dict),
    "array": lambda value: isinstance(value, list),
    "string": lambda value: isinstance(value, str),
    "number": _is_number,
    "integer": lambda value: _is_number(value) and (isinstance(value, int) or value.is_integer()),
}
_BOUNDS = {
    "minimum": (operator.lt, "is less than the minimum of"),
    "maximum": (operator.gt, "is greater than the maximum of"),
    "exclusiveMinimum": (operator.le, "is less than or equal to the minimum of"),
}


def _note(best: list, path: tuple, message: str, instance, schema: dict) -> None:
    """Keep ``message`` in ``best`` = [key, message] if it ranks above the kept
    one: a shorter path, then a later sibling, then an instance outside the
    schema's type, ties going to the first found (jsonschema's ``relevance``)."""
    key = (-len(path), path, "type" not in schema or not _TYPES[schema["type"]](instance))
    if best[0] is None or key > best[0]:
        best[:] = key, message


def _descends(path: tuple, best: list) -> bool:
    """Whether an error below ``path`` can still outrank the kept one."""
    return best[0] is None or best[0][0] < -len(path)


def _walk(instance, schema: dict, path: tuple, best: list) -> None:
    """Note in ``best`` the errors of ``instance`` at ``path`` against ``schema``,
    in jsonschema's order; a container's items are walked only where its
    type matches, so the depth is bounded by the schema's."""
    is_object, is_array = isinstance(instance, dict), isinstance(instance, list)
    for keyword, value in schema.items():
        message = None
        if keyword == "type":
            if not _TYPES[value](instance):
                message = f"{instance!r} is not of type {value!r}"
        elif keyword == "prefixItems":
            if is_array and _descends(path, best):
                for index, (item, subschema) in enumerate(zip(instance, value)):
                    _walk(item, subschema, (*path, index), best)
        elif keyword == "items":
            prefix = len(schema.get("prefixItems", ()))
            extra = len(instance) - prefix if is_array else 0
            if extra > 0 and value is False:
                rest = instance[prefix:] if extra != 1 else instance[prefix]
                message = (f"Expected at most {prefix} {'item' if prefix == 1 else 'items'} "
                           f"but found {extra} extra: {rest!r}")
            elif extra > 0 and _descends(path, best):
                for index in range(prefix, len(instance)):
                    _walk(instance[index], value, (*path, index), best)
        elif keyword == "minItems":
            if is_array and len(instance) < value:
                message = f"{instance!r} {'should be non-empty' if value == 1 else 'is too short'}"
        elif keyword == "maxItems":
            if is_array and len(instance) > value:
                message = f"{instance!r} {'is expected to be empty' if value == 0 else 'is too long'}"
        elif keyword in _BOUNDS:
            beyond, wording = _BOUNDS[keyword]
            if _is_number(instance) and beyond(instance, value):
                message = f"{instance!r} {wording} {value!r}"
        elif keyword == "enum":
            # every enum and const value is a string, which no other JSON value equals
            if instance not in value:
                message = f"{instance!r} is not one of {value!r}"
        elif keyword == "const":
            if instance != value:
                message = f"{value!r} was expected"
        elif keyword == "properties":
            if is_object and _descends(path, best):
                for name, subschema in value.items():
                    if name in instance:
                        _walk(instance[name], subschema, (*path, name), best)
        elif keyword == "required":
            for name in value if is_object else ():
                if name not in instance:
                    _note(best, path, f"{name!r} is a required property", instance, schema)
        elif keyword == "additionalProperties":
            # only ``false`` is used: every field must be named under ``properties``
            extras = sorted(name for name in instance
                            if name not in schema.get("properties", {})) if is_object else ()
            if extras:
                message = (f"Additional properties are not allowed ({', '.join(map(repr, extras))}"
                           f" {'was' if len(extras) == 1 else 'were'} unexpected)")
        elif keyword == "propertyNames":
            for name in instance if is_object else ():
                _walk(name, value, path, best)
        elif keyword == "allOf":
            for subschema in value:
                _walk(instance, subschema, path, best)
        elif keyword == "if":
            probe = [None, None]
            _walk(instance, value, path, probe)
            if probe[0] is None and "then" in schema:
                _walk(instance, schema["then"], path, best)
        if message is not None:
            _note(best, path, message, instance, schema)


def _schema_error(config, schema: dict):
    """(path, message) of the error ``jsonschema.validate`` would raise for
    ``config``, or None when the config is valid."""
    best = [None, None]
    _walk(config, schema, (), best)
    return None if best[0] is None else (best[0][1], best[1])


# sub-seed slots so one master seed drives every randomized ingredient
_SLOT_HAMILTONIAN = 0
_SLOT_PSI_I = 1
_SLOT_PSI_E = 2
_SLOT_OPTIMIZER = 3


def _derive_seed(master: int, slot: int) -> int:
    return int(np.random.SeedSequence([master, slot]).generate_state(1, dtype=np.uint64)[0])


def _resolve_seed(spec_seed, master, slot: int, what: str) -> int:
    if master is not None:
        return _derive_seed(master, slot)
    if spec_seed is None:
        raise ValueError(f"{what} needs a seed: set it in the config or pass --seed")
    return int(spec_seed)


def _given(spec, **casts) -> dict:
    """The fields named in ``casts`` that ``spec`` sets, each through its cast
    (``None`` passes it as parsed); the library's defaults fill the rest."""
    return {name: cast(spec[name]) if cast else spec[name]
            for name, cast in casts.items() if name in spec}


def _build_hamiltonian(spec, master) -> Hamiltonian:
    if spec["kind"] == "random":
        seed = _resolve_seed(spec.get("seed"), master, _SLOT_HAMILTONIAN, "random hamiltonian")
        return random_hamiltonian(int(spec["dim"]), seed,
                                  **_given(spec, energy_scale=None, hbar=None))
    return Hamiltonian(parse_matrix(spec["matrix"]), **_given(spec, hbar=None))


def _build_state(spec, dim: int, master, slot: int, what: str,
                 hamiltonian=None, psi_i=None, t=None) -> StateVector:
    kind = spec["kind"]
    if kind == "random":
        if "dim" in spec and int(spec["dim"]) != dim:
            raise ValueError(
                f"{what} dim {spec['dim']} does not match the hamiltonian dimension {dim}"
            )
        seed = _resolve_seed(spec.get("seed"), master, slot, f"random {what}")
        return random_state(dim, seed)
    if kind == "explicit":
        amplitudes = parse_vector(spec["amplitudes"])
        if amplitudes.size != dim:
            raise ValueError(
                f"{what} has {amplitudes.size} amplitudes but the hamiltonian "
                f"dimension is {dim}"
            )
        return StateVector(amplitudes)
    # evolved: the Schrodinger-evolved initial state
    return evolve(hamiltonian, psi_i, t)


def _optimizer_config(spec, master) -> OptimizerConfig:
    # the schema's "integer" admits 300.0, which OptimizerConfig refuses uncast
    fields = _given(spec or {}, step_size=float, max_iters=int, grad_tol=float, seed=int)
    if master is not None:
        fields["seed"] = _derive_seed(master, _SLOT_OPTIMIZER)
    return OptimizerConfig(**fields)


def _cmd_zeval(cfg, master) -> tuple[str, int]:
    hamiltonian = _build_hamiltonian(cfg["hamiltonian"], master)
    dim = hamiltonian.matrix.shape[0]
    t = cfg["t"]
    psi_i = _build_state(cfg["psi_i"], dim, master, _SLOT_PSI_I, "psi_i")
    psi_e = _build_state(
        cfg["psi_e"], dim, master, _SLOT_PSI_E, "psi_e",
        hamiltonian=hamiltonian, psi_i=psi_i, t=t,
    )
    value = z_closed_form(psi_i, psi_e, hamiltonian, t)
    payload = {
        "z_re": value.z.real,
        "z_im": value.z.imag,
        "abs_z": abs(value.z),
        "overlap_re": value.overlap.real,
        "overlap_im": value.overlap.imag,
    }
    return dumps(payload), 0


def _cmd_lattice(cfg, master) -> tuple[str, int]:
    del master  # the convergence table is fully deterministic
    n_list = [int(n) for n in cfg["n_list"]]
    grid = TimeGrid(cfg.get("t_start", 0.0), cfg["t_end"], n_list[0])
    problem = CoherentChainProblem(parse_complex(cfg["z0"]), parse_complex(cfg["zf"]),
                                   cfg["energy"], grid, **_given(cfg, hbar=None))
    return convergence_csv(convergence_study(problem, n_list)), 0


def _cmd_optimize(cfg, master) -> tuple[str, int]:
    hamiltonian = _build_hamiltonian(cfg["hamiltonian"], master)
    dim = hamiltonian.matrix.shape[0]
    t = cfg["t"]
    psi_i = _build_state(cfg["psi_i"], dim, master, _SLOT_PSI_I, "psi_i")
    config = _optimizer_config(cfg.get("optimizer"), master)
    result = maximize_final_state(hamiltonian, psi_i, t, config)
    payload = {
        "final_state": vector_pairs(result.final_state.amplitudes),
        "objective": result.objective_value,
        "iterations": result.iterations,
        "converged": result.converged,
        "fidelity_to_evolved": result.fidelity_to_evolved,
    }
    return dumps(payload), 0 if result.converged else 3


def _check_collapse_work(steps: int, lambdas: int, max_iters: int) -> None:
    work = (steps + _SWEEP_FIXED_SLICES) * lambdas * max_iters
    if work > _MAX_COLLAPSE_WORK:
        raise ValueError(
            f"config invalid: steps, lambdas and optimizer/max_iters exceed the work cap: "
            f"(steps {steps} + {_SWEEP_FIXED_SLICES}) x {lambdas} lambdas x max_iters "
            f"{max_iters} = {work} > {_MAX_COLLAPSE_WORK}"
        )


def _cmd_collapse(cfg, master) -> tuple[str, int]:
    del master  # no randomness enters the collapse
    steps = int(cfg.get("steps", 4))
    config = _optimizer_config(cfg.get("optimizer"), None)
    _check_collapse_work(steps, len(cfg["lambdas"]), config.max_iters)
    hamiltonian, psi_i, pointer_basis = qubit_detector_model(
        **_given(cfg.get("model", {}), weight0=float, coupling=None, hbar=None))
    grid = TimeGrid(0.0, cfg.get("t_end", 1.0), steps)
    measure_spec = cfg.get("measure", {"kind": "pointer_deviation"})
    if measure_spec["kind"] == "pointer_deviation":
        measure = QuantumnessMeasure.pointer(pointer_basis)
    else:
        d_a, d_b = (int(d) for d in measure_spec.get("partition", (2, 2)))
        if d_a * d_b != psi_i.dim:
            raise ValueError(
                f"partition {d_a} x {d_b} does not factor the model dimension {psi_i.dim}"
            )
        measure = QuantumnessMeasure.linear_entropy(d_a, d_b)
    lambdas = sorted(float(lam) for lam in cfg["lambdas"])

    rows = []
    for lam in lambdas:
        problem = PenalizedPathProblem(
            psi_i, grid, hamiltonian, PenaltyConfig(lam, measure)
        )
        report = optimize_penalized(problem, config, reporting_basis=pointer_basis).report
        row = {
            "lambda": lam,
            "final_state": vector_pairs(report.final_state.amplitudes),
            "nearest_pointer_index": report.nearest_pointer_index,
            "fidelity_to_pointer": report.fidelity_to_pointer,
            "q_trajectory": list(report.q_trajectory),
            "log_magnitude": report.log_magnitude,
            "converged": report.converged,
        }
        if len(report.pointer_ties) > 1:
            row["pointer_ties"] = list(report.pointer_ties)
        rows.append(row)

    if "csv_out" in cfg:
        lines = ["lambda,nearest_pointer_index,fidelity_to_pointer,log_magnitude,converged"]
        for row in rows:
            lines.append(
                ",".join(
                    [
                        fmt17(row["lambda"]),
                        str(row["nearest_pointer_index"]),
                        fmt17(row["fidelity_to_pointer"]),
                        fmt17(row["log_magnitude"]),
                        "true" if row["converged"] else "false",
                    ]
                )
            )
        Path(cfg["csv_out"]).write_text("\n".join(lines) + "\n", encoding="utf-8")

    all_converged = all(row["converged"] for row in rows)
    return dumps(rows), 0 if all_converged else 3


def _check(checks: list[tuple[str, bool]]) -> int:
    failed = False
    for name, ok in checks:
        print(f"  {'ok' if ok else 'FAIL'}  {name}")
        failed = failed or not ok
    return 1 if failed else 0


def _selftest_zeval() -> int:
    hamiltonian = random_hamiltonian(4, 5)
    psi_i = random_state(4, 6)
    t = 0.7
    evolved = evolve(hamiltonian, psi_i, t)
    identity = z_closed_form(psi_i, evolved, hamiltonian, t)
    plus = StateVector(np.array([1.0, 1.0]) / math.sqrt(2.0))
    pi_flip = Hamiltonian(np.diag([0.0, 1.0]))
    orthogonal = z_closed_form(plus, plus, pi_flip, math.pi)
    antipodal = z_closed_form(
        psi_i, StateVector(-evolved.amplitudes), hamiltonian, t
    )
    return _check(
        [
            ("evolved final state gives |z| = 1", abs(abs(identity.z) - 1.0) <= 1e-12),
            ("orthogonal final state gives |z| = 1/e",
             abs(abs(orthogonal.z) - math.exp(-1.0)) <= 1e-12),
            ("antipodal final state gives |z| = e^-2",
             abs(abs(antipodal.z) - math.exp(-2.0)) <= 1e-12),
        ]
    )


def _selftest_lattice() -> int:
    grid = TimeGrid(0.0, 1.0, 10)
    free = CoherentChainProblem(0.4 + 0.2j, -0.3 + 0.5j, 0.0, grid)
    free_rows = convergence_study(free, [10, 100])
    driven = CoherentChainProblem(1.0, 1.0, 1.0, grid)
    driven_rows = convergence_study(driven, [10, 100, 1000])
    constant = PathLattice.pinned(
        TimeGrid(0.0, 2.0, 5), [0.3 + 0.4j], [0.3 + 0.4j],
        np.full((1, 4), 0.3 + 0.4j),
    )
    action = discrete_action(constant, 1.5).value
    expected = -1j * 5 * 0.4 * 1.5 * 0.25
    single = CoherentChainProblem(0.2 + 0.1j, 0.5, 0.8, TimeGrid(0.0, 1.0, 1))
    estimate, stderr = monte_carlo_estimate(single, 2000, 7)
    return _check(
        [
            ("zero-energy chain is exact at every N",
             all(err <= 1e-14 for _, err in free_rows)),
            ("driven-chain errors decrease with N",
             all(b < a for (_, a), (_, b) in zip(driven_rows, driven_rows[1:]))),
            ("constant-path action keeps only the energy term",
             abs(action - expected) <= 1e-12),
            ("single-step estimator is exact with zero error bar",
             stderr == 0.0 and abs(estimate - chain_reduce_exact(single)) <= 1e-15),
        ]
    )


def _selftest_optimize() -> int:
    pi_flip = Hamiltonian(np.diag([0.0, 1.0]))
    plus = StateVector(np.array([1.0, 1.0]) / math.sqrt(2.0))
    minus = np.array([1.0, -1.0]) / math.sqrt(2.0)
    result = maximize_final_state(pi_flip, plus, math.pi, OptimizerConfig(seed=3))
    lone = maximize_final_state(
        Hamiltonian(np.array([[0.7]])), StateVector(np.array([1.0])), 1.3,
        OptimizerConfig(seed=4),
    )
    return _check(
        [
            ("known two-level evolution is recovered",
             result.converged
             and float(np.real(np.vdot(result.final_state.amplitudes, minus))) >= 1 - 1e-8),
            ("two-level objective reaches its provable maximum",
             result.objective_value >= 1 - 1e-8),
            ("one-dimensional case settles on the evolved phase",
             lone.converged and lone.objective_value >= 1 - 1e-8),
        ]
    )


def _selftest_collapse() -> int:
    basis = np.eye(4)
    pointer = StateVector(np.eye(4)[0])
    equal = StateVector(np.full(4, 0.5))
    tilted = StateVector(np.array([math.sqrt(0.9), math.sqrt(0.1)]))
    bell = StateVector(np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0))
    product = StateVector(np.kron(
        np.array([0.6, 0.8]), np.array([1.0 / math.sqrt(2), 1j / math.sqrt(2)])
    ))
    still = Hamiltonian(np.zeros((4, 4)))
    grid = TimeGrid(0.0, 1.0, 4)
    penalty = PenaltyConfig(3.0, QuantumnessMeasure.pointer(basis))
    problem = PenalizedPathProblem(pointer, grid, still, penalty)
    outcome = optimize_penalized(problem)
    resting = np.tile(pointer.amplitudes, (5, 1))
    resting_value = penalized_log_magnitude(resting, still, penalty, grid)
    return _check(
        [
            ("pointer state has zero deviation",
             q_pointer_deviation(pointer, basis) == 0.0),
            ("equal superposition deviation is 1 - 1/d",
             abs(q_pointer_deviation(equal, basis) - 0.75) <= 1e-12),
            ("two-level tilted state deviation is its minor weight",
             abs(q_pointer_deviation(tilted, np.eye(2)) - 0.1) <= 1e-12),
            ("product state has zero linear entropy",
             q_linear_entropy(product, 2, 2) <= 1e-12),
            ("maximally entangled pair has linear entropy 1/2",
             abs(q_linear_entropy(bell, 2, 2) - 0.5) <= 1e-12),
            ("motionless pointer start stays put with zero log-magnitude",
             outcome.log_magnitude == 0.0
             and abs(np.vdot(outcome.final_state.amplitudes, pointer.amplitudes)) ** 2
             >= 1 - 1e-12),
            ("path resting in a pointer state pays no penalty",
             resting_value == 0.0),
        ]
    )


# every subcommand: (its --help line, its handler, its built-in examples)
_COMMANDS = {
    "zeval": ("closed-form functional value for a state pair", _cmd_zeval, _selftest_zeval),
    "lattice": ("coherent-chain convergence table (CSV)", _cmd_lattice, _selftest_lattice),
    "optimize": ("maximize the functional magnitude over final states", _cmd_optimize, _selftest_optimize),
    "collapse": ("penalized collapse demo across a lambda sweep", _cmd_collapse, _selftest_collapse),
}


def _where(path) -> str:
    return "/".join(str(part) for part in path) or "(top level)"


def _clipped(message: str) -> str:
    """``message`` cut around "…" to its first and last ``_MAX_MESSAGE_BYTES // 2``
    UTF-8 bytes once longer; a schema message embeds the offending value whole."""
    data = message.encode("utf-8", "backslashreplace")
    if len(data) <= _MAX_MESSAGE_BYTES:
        return message
    half = _MAX_MESSAGE_BYTES // 2
    return f"{data[:half].decode(errors='ignore')}…{data[-half:].decode(errors='ignore')}"


def _oversized_integer(node, path=()):
    """Path and digit count of the first JSON integer that no float can hold."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        if isinstance(node, int) and not isinstance(node, bool):
            try:
                float(node)
            except OverflowError:
                return path, len(str(abs(node)))
        return None
    for key, value in children:
        found = _oversized_integer(value, (*path, key))
        if found is not None:
            return found
    return None


def _seed_value(text: str) -> int:
    value = int(text)
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError(f"seed must fit in a u64, got {text}")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="statepath",
        description="Evaluate, discretize, and maximize Hilbert-space path functionals.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, _) in _COMMANDS.items():
        sub = subparsers.add_parser(name, help=help_text)
        sub.add_argument("--config", type=Path, help="path to the JSON config")
        sub.add_argument("--seed", type=_seed_value,
                         help="master seed overriding every config seed")
        sub.add_argument("--out", type=Path, help="write the result here instead of stdout")
        sub.add_argument("--selftest", action="store_true",
                         help="run the built-in examples and exit nonzero on failure")
    args = parser.parse_args(argv)

    _, handler, selftest = _COMMANDS[args.command]
    if args.selftest:
        print(f"selftest: {args.command}")
        return selftest()

    if args.config is None:
        print("error: --config is required unless --selftest is given", file=sys.stderr)
        return 2

    try:
        raw = args.config.read_text(encoding="utf-8")
        cfg = json.loads(raw)
        error = _schema_error(cfg, _SCHEMAS[args.command])
        if error is not None:
            path, message = error
            raise ValueError(f"config invalid at {_where(path)}: {_clipped(message)}")
        oversized = _oversized_integer(cfg)
        if oversized is not None:
            path, digits = oversized
            raise ValueError(f"config invalid at {_where(path)}: an integer of {digits} "
                             f"digits does not fit a float")
        text, code = handler(cfg, args.seed)
        if args.out is not None:
            args.out.write_text(text, encoding="utf-8")
    except (ValueError, OverflowError, OSError, RecursionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory{f': {exc}' if str(exc) else ''}", file=sys.stderr)
        return 2

    if args.out is None:
        sys.stdout.write(text)
    return code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
