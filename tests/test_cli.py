"""End-to-end checks of the statepath command-line interface."""

import json
import math
import re
import sys
import warnings
from pathlib import Path

import pytest

import numpy as np

from statepath import (
    PenalizedPathProblem,
    PenaltyConfig,
    QuantumnessMeasure,
    TimeGrid,
    cli,
    optimize_penalized,
    qubit_detector_model,
    random_hamiltonian,
)
from statepath.cli import _build_hamiltonian, main

RANDOM_ZEVAL = {
    "psi_i": {"kind": "random", "seed": 1},
    "psi_e": {"kind": "evolved"},
    "hamiltonian": {"kind": "random", "dim": 4, "seed": 0},
    "t": 0.7,
}


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def test_every_command_has_a_schema_and_a_golden_case():
    assert set(cli._COMMANDS) == set(cli._SCHEMAS)
    manifest = Path(__file__).parent / "golden" / "manifest.json"
    covered = {case["command"] for case in json.loads(manifest.read_text(encoding="utf-8"))}
    assert covered == set(cli._COMMANDS)


@pytest.mark.parametrize("command", ["zeval", "lattice", "optimize", "collapse"])
def test_selftests_pass(command, capsys):
    assert main([command, "--selftest"]) == 0
    out = capsys.readouterr().out
    assert out.startswith(f"selftest: {command}")
    assert "  ok  " in out
    assert "FAIL" not in out


def test_zeval_evolved_final_state_is_maximal(tmp_path, capsys):
    config = _write(tmp_path, "cfg.json", RANDOM_ZEVAL)
    assert main(["zeval", "--config", str(config)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert abs(payload["abs_z"] - 1.0) <= 1e-12
    assert abs(payload["overlap_im"]) <= 1e-12


def test_random_hamiltonian_with_hbar_is_built_once(eigh_calls):
    spec = {"kind": "random", "dim": 5, "seed": 9, "energy_scale": 1.5, "hbar": 2.5}
    hamiltonian = _build_hamiltonian(spec, None)
    assert len(eigh_calls) == 1
    assert hamiltonian.hbar == 2.5
    assert np.array_equal(hamiltonian.matrix, random_hamiltonian(5, 9, energy_scale=1.5).matrix)


def test_zeval_explicit_states(tmp_path, capsys):
    s = 1.0 / math.sqrt(2.0)
    config = _write(
        tmp_path,
        "cfg.json",
        {
            "psi_i": {"kind": "explicit", "amplitudes": [[s, 0.0], [s, 0.0]]},
            "psi_e": {"kind": "explicit", "amplitudes": [[s, 0.0], [-s, 0.0]]},
            "hamiltonian": {
                "kind": "explicit",
                "matrix": [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
            },
            "t": math.pi,
        },
    )
    assert main(["zeval", "--config", str(config)]) == 0
    payload = json.loads(capsys.readouterr().out)
    # diag(0, 1) for a half period maps |+> onto |->: the overlap is exactly 1
    assert abs(payload["overlap_re"] - 1.0) <= 1e-12
    assert abs(payload["z_im"]) <= 1e-12


def test_lattice_convergence_table(tmp_path, capsys):
    config = _write(
        tmp_path,
        "cfg.json",
        {
            "z0": [1.0, 0.0],
            "zf": [1.0, 0.0],
            "energy": 1.0,
            "t_end": 1.0,
            "n_list": [10, 100, 1000],
        },
    )
    assert main(["lattice", "--config", str(config)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "N,abs_error"
    assert len(lines) == 4
    errors = [float(line.split(",")[1]) for line in lines[1:]]
    assert errors[0] > errors[1] > errors[2]


def test_optimize_reports_convergence(tmp_path, capsys):
    config = _write(
        tmp_path,
        "cfg.json",
        {
            "psi_i": {"kind": "random", "seed": 2},
            "hamiltonian": {"kind": "random", "dim": 6, "seed": 1},
            "t": 1.1,
            "optimizer": {"seed": 5, "max_iters": 300},
        },
    )
    assert main(["optimize", "--config", str(config)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["converged"] is True
    assert payload["objective"] >= 1.0 - 1e-8
    assert payload["fidelity_to_evolved"] >= 1.0 - 1e-8
    assert len(payload["final_state"]) == 6


def test_optimize_starved_run_exits_three(tmp_path, capsys):
    config = _write(
        tmp_path,
        "cfg.json",
        {
            "psi_i": {"kind": "random", "seed": 2},
            "hamiltonian": {"kind": "random", "dim": 6, "seed": 1},
            "t": 1.1,
            "optimizer": {"seed": 5, "max_iters": 1},
        },
    )
    assert main(["optimize", "--config", str(config)]) == 3
    payload = json.loads(capsys.readouterr().out)
    assert payload["converged"] is False


def test_collapse_lambda_sweep(tmp_path, capsys):
    config = _write(
        tmp_path,
        "cfg.json",
        {"lambdas": [200.0, 0.0], "measure": {"kind": "pointer_deviation"}},
    )
    assert main(["collapse", "--config", str(config)]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert [row["lambda"] for row in rows] == [0.0, 200.0]  # sorted sweep
    free, pinned = rows
    assert abs(free["fidelity_to_pointer"] - 0.75) <= 1e-6
    assert pinned["nearest_pointer_index"] == 0
    assert pinned["fidelity_to_pointer"] >= 1.0 - 1e-3
    for row in rows:
        assert row["converged"] is True
        assert len(row["q_trajectory"]) == 5  # default four steps


def test_collapse_row_equals_the_library_run_for_its_lambda_alone(tmp_path, capsys):
    config = _write(tmp_path, "cfg.json", {"lambdas": [200.0, 5.0, 1.0], "steps": 12})
    assert main(["collapse", "--config", str(config)]) == 0
    rows = json.loads(capsys.readouterr().out)
    hamiltonian, psi_i, basis = qubit_detector_model()
    for row in rows:
        penalty = PenaltyConfig(row["lambda"], QuantumnessMeasure.pointer(basis))
        problem = PenalizedPathProblem(psi_i, TimeGrid(0.0, 1.0, 12), hamiltonian, penalty)
        report = optimize_penalized(problem, reporting_basis=basis).report
        assert row["q_trajectory"] == list(report.q_trajectory)
        assert row["log_magnitude"] == report.log_magnitude
        assert row["converged"] == report.converged


def test_collapse_csv_side_file(tmp_path, capsys):
    csv_path = tmp_path / "sweep.csv"
    config = _write(
        tmp_path,
        "cfg.json",
        {"lambdas": [0.0, 200.0], "csv_out": str(csv_path)},
    )
    assert main(["collapse", "--config", str(config)]) == 0
    capsys.readouterr()
    lines = csv_path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "lambda,nearest_pointer_index,fidelity_to_pointer,log_magnitude,converged"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert first[4] == "true"


def test_collapse_balanced_model_reports_ties(tmp_path, capsys):
    config = _write(
        tmp_path,
        "cfg.json",
        {"model": {"weight0": 0.5}, "lambdas": [0.0]},
    )
    assert main(["collapse", "--config", str(config)]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert rows[0]["pointer_ties"] == [0, 3]


def test_collapse_entropy_measure(tmp_path, capsys):
    config = _write(
        tmp_path,
        "cfg.json",
        {
            "lambdas": [200.0],
            "measure": {"kind": "linear_entropy", "partition": [2, 2]},
        },
    )
    assert main(["collapse", "--config", str(config)]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert rows[0]["nearest_pointer_index"] == 0
    assert rows[0]["fidelity_to_pointer"] >= 1.0 - 1e-3


def test_same_seed_gives_identical_bytes(tmp_path, capsys):
    seedless = {
        "psi_i": {"kind": "random"},
        "psi_e": {"kind": "random"},
        "hamiltonian": {"kind": "random", "dim": 4},
        "t": 0.9,
    }
    config = _write(tmp_path, "cfg.json", seedless)
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    out_c = tmp_path / "c.json"
    assert main(["zeval", "--config", str(config), "--seed", "9", "--out", str(out_a)]) == 0
    assert main(["zeval", "--config", str(config), "--seed", "9", "--out", str(out_b)]) == 0
    assert main(["zeval", "--config", str(config), "--seed", "10", "--out", str(out_c)]) == 0
    assert capsys.readouterr().out == ""  # --out routes everything to the file
    assert out_a.read_bytes() == out_b.read_bytes()
    assert out_a.read_bytes() != out_c.read_bytes()


def test_random_pieces_without_any_seed_are_refused(tmp_path, capsys):
    config = _write(
        tmp_path,
        "cfg.json",
        {
            "psi_i": {"kind": "random"},
            "psi_e": {"kind": "evolved"},
            "hamiltonian": {"kind": "random", "dim": 4, "seed": 0},
            "t": 0.7,
        },
    )
    assert main(["zeval", "--config", str(config)]) == 2
    assert "needs a seed" in capsys.readouterr().err


def test_stray_top_level_key_is_rejected(tmp_path, capsys):
    config = _write(tmp_path, "cfg.json", dict(RANDOM_ZEVAL, bogus=1))
    assert main(["zeval", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert "config invalid at (top level)" in err
    assert "bogus" in err


def test_nested_schema_violation_names_the_path(tmp_path, capsys):
    bad = dict(RANDOM_ZEVAL, psi_i={"kind": "shuffled"})
    config = _write(tmp_path, "cfg.json", bad)
    assert main(["zeval", "--config", str(config)]) == 2
    assert "config invalid at psi_i/kind" in capsys.readouterr().err


def test_explicit_hamiltonian_rejects_random_fields(tmp_path, capsys):
    config = _write(
        tmp_path,
        "cfg.json",
        dict(
            RANDOM_ZEVAL,
            hamiltonian={
                "kind": "explicit",
                "dim": 2,
                "matrix": [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
            },
        ),
    )
    assert main(["zeval", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert "config invalid at hamiltonian" in err
    assert "'dim'" in err


HALF_FLIP = [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
BASIS_AMPLITUDES = [[1.0, 0.0], [0.0, 0.0]]

# (subcommand, config, where the error is reported, the field it names);
# each kind admits only its own fields, so a field of another kind is refused
KIND_FIELD_VIOLATIONS = {
    "random_hamiltonian_with_matrix": (
        "zeval",
        dict(RANDOM_ZEVAL, hamiltonian={"kind": "random", "dim": 2, "seed": 0,
                                        "matrix": HALF_FLIP}),
        "hamiltonian", "matrix",
    ),
    "random_hamiltonian_without_dim": (
        "zeval", dict(RANDOM_ZEVAL, hamiltonian={"kind": "random", "seed": 0}),
        "hamiltonian", "dim",
    ),
    "explicit_hamiltonian_with_seed": (
        "zeval",
        dict(RANDOM_ZEVAL, hamiltonian={"kind": "explicit", "seed": 2, "matrix": HALF_FLIP}),
        "hamiltonian", "seed",
    ),
    "explicit_hamiltonian_with_energy_scale": (
        "zeval",
        dict(RANDOM_ZEVAL, hamiltonian={"kind": "explicit", "energy_scale": 2.0,
                                        "matrix": HALF_FLIP}),
        "hamiltonian", "energy_scale",
    ),
    "explicit_hamiltonian_without_matrix": (
        "zeval", dict(RANDOM_ZEVAL, hamiltonian={"kind": "explicit"}),
        "hamiltonian", "matrix",
    ),
    "random_state_with_amplitudes": (
        "zeval",
        dict(RANDOM_ZEVAL, psi_i={"kind": "random", "seed": 1,
                                  "amplitudes": BASIS_AMPLITUDES}),
        "psi_i", "amplitudes",
    ),
    "explicit_state_with_dim": (
        "optimize",
        {
            "psi_i": {"kind": "explicit", "dim": 2, "amplitudes": BASIS_AMPLITUDES},
            "hamiltonian": {"kind": "random", "dim": 2, "seed": 0},
            "t": 1.0,
        },
        "psi_i", "dim",
    ),
    "explicit_state_with_seed": (
        "zeval",
        dict(RANDOM_ZEVAL, psi_e={"kind": "explicit", "seed": 3,
                                  "amplitudes": BASIS_AMPLITUDES}),
        "psi_e", "seed",
    ),
    "explicit_state_without_amplitudes": (
        "zeval", dict(RANDOM_ZEVAL, psi_i={"kind": "explicit"}),
        "psi_i", "amplitudes",
    ),
    "evolved_state_with_dim": (
        "zeval", dict(RANDOM_ZEVAL, psi_e={"kind": "evolved", "dim": 4}),
        "psi_e", "dim",
    ),
    "evolved_state_with_amplitudes": (
        "zeval",
        dict(RANDOM_ZEVAL, psi_e={"kind": "evolved", "amplitudes": BASIS_AMPLITUDES}),
        "psi_e", "amplitudes",
    ),
    "evolved_initial_state": (
        "zeval", dict(RANDOM_ZEVAL, psi_i={"kind": "evolved"}),
        "psi_i/kind", "evolved",
    ),
    "pointer_deviation_with_partition": (
        "collapse",
        {"lambdas": [1.0], "measure": {"kind": "pointer_deviation", "partition": [2, 2]}},
        "measure", "partition",
    ),
}


@pytest.mark.parametrize(
    "command, payload, where, field",
    list(KIND_FIELD_VIOLATIONS.values()),
    ids=list(KIND_FIELD_VIOLATIONS),
)
def test_kind_field_violation_is_one_schema_error(command, payload, where, field,
                                                  tmp_path, capsys):
    config = _write(tmp_path, "cfg.json", payload)
    assert main([command, "--config", str(config)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"error: config invalid at {where}: ")
    assert f"'{field}'" in lines[0]


def test_schema_range_violation_still_names_the_field(tmp_path, capsys):
    bad = dict(RANDOM_ZEVAL, hamiltonian={"kind": "random", "dim": 0, "seed": 0})
    config = _write(tmp_path, "cfg.json", bad)
    assert main(["zeval", "--config", str(config)]) == 2
    assert capsys.readouterr().err == (
        "error: config invalid at hamiltonian/dim: 0 is less than the minimum of 1\n"
    )


def test_non_hermitian_matrix_is_a_domain_error(tmp_path, capsys):
    config = _write(
        tmp_path,
        "cfg.json",
        dict(
            RANDOM_ZEVAL,
            hamiltonian={
                "kind": "explicit",
                "matrix": [[[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
            },
        ),
    )
    assert main(["zeval", "--config", str(config)]) == 2
    assert "error:" in capsys.readouterr().err


RANDOM_OPTIMIZE = {
    "psi_i": {"kind": "random", "seed": 1},
    "hamiltonian": {"kind": "random", "dim": 3, "seed": 0},
    "t": 0.7,
}
LATTICE = {"z0": [1.0, 0.0], "zf": [0.5, 0.5], "energy": 1.0, "t_end": 1.0, "n_list": [1, 10]}

# (command, base config, path to the number, field name the message must carry)
NON_FINITE_FIELDS = {
    "zeval-t": ("zeval", RANDOM_ZEVAL, ("t",), "t"),
    "optimize-t": ("optimize", RANDOM_OPTIMIZE, ("t",), "t"),
    "hamiltonian-hbar": ("zeval", RANDOM_ZEVAL, ("hamiltonian", "hbar"), "hbar"),
    "energy_scale": ("optimize", RANDOM_OPTIMIZE, ("hamiltonian", "energy_scale"),
                     "energy_scale"),
    "lattice-hbar": ("lattice", LATTICE, ("hbar",), "hbar"),
    "t_start": ("lattice", LATTICE, ("t_start",), "t_start"),
    "t_end": ("lattice", LATTICE, ("t_end",), "t_end"),
    "energy": ("lattice", LATTICE, ("energy",), "energy"),
    "collapse-t_end": ("collapse", {"lambdas": [0.0]}, ("t_end",), "t_end"),
    "model-hbar": ("collapse", {"lambdas": [0.0]}, ("model", "hbar"), "hbar"),
    "coupling": ("collapse", {"lambdas": [0.0]}, ("model", "coupling"), "coupling"),
}


def _single_error_line(capsys):
    """The one ``error:`` line on stderr, with nothing on stdout."""
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: ")
    return lines[0]


def _with(base, path, value):
    """Deep copy of ``base`` with the entry at ``path`` set to ``value``."""
    payload = json.loads(json.dumps(base))
    node = payload
    for key in path[:-1]:
        node = node.setdefault(key, {})
    node[path[-1]] = value
    return payload


@pytest.mark.parametrize("value", [math.nan, math.inf], ids=["NaN", "Infinity"])
@pytest.mark.parametrize(
    "command, base, path, field", list(NON_FINITE_FIELDS.values()), ids=list(NON_FINITE_FIELDS)
)
def test_non_finite_number_is_one_error_naming_the_field(command, base, path, field, value,
                                                         tmp_path, capsys):
    config = _write(tmp_path, "cfg.json", _with(base, path, value))
    assert main([command, "--config", str(config)]) == 2
    assert re.search(rf"\b{field}\b", _single_error_line(capsys))


HUGE = 10**400

# (command, config holding a 400-digit integer, the path the message must name)
HUGE_INTEGERS = {
    "zeval-t": ("zeval", _with(RANDOM_ZEVAL, ("t",), HUGE), "t"),
    "lattice-energy": ("lattice", _with(LATTICE, ("energy",), HUGE), "energy"),
    "amplitude": ("zeval", _with(
        RANDOM_ZEVAL, ("psi_i",), {"kind": "explicit", "amplitudes": [[HUGE, 0], [0, 0]]}
    ), "psi_i/amplitudes/0/0"),
    "lambda": ("collapse", {"lambdas": [0.0, HUGE]}, "lambdas/1"),
    "coupling": ("collapse", {"lambdas": [0.0], "model": {"coupling": HUGE}},
                 "model/coupling"),
    "hbar": ("zeval", _with(RANDOM_ZEVAL, ("hamiltonian", "hbar"), HUGE), "hamiltonian/hbar"),
    "energy_scale": ("optimize", _with(RANDOM_OPTIMIZE, ("hamiltonian", "energy_scale"), HUGE),
                     "hamiltonian/energy_scale"),
    "t_start": ("lattice", _with(LATTICE, ("t_start",), -HUGE), "t_start"),
    "t_end": ("lattice", _with(LATTICE, ("t_end",), HUGE), "t_end"),
    "collapse-t_end": ("collapse", {"lambdas": [0.0], "t_end": HUGE}, "t_end"),
    "seed": ("zeval", _with(RANDOM_ZEVAL, ("psi_i", "seed"), HUGE), "psi_i/seed"),
}


@pytest.mark.parametrize(
    "command, payload, path", list(HUGE_INTEGERS.values()), ids=list(HUGE_INTEGERS)
)
def test_huge_integer_is_one_error_line(command, payload, path, tmp_path, capsys):
    config = _write(tmp_path, "cfg.json", payload)
    assert main([command, "--config", str(config)]) == 2
    line = _single_error_line(capsys)
    assert line.startswith(f"error: config invalid at {path}: ")
    assert "401 digits" in line


def _walked(command, config):
    """``best`` = [rank key, message, oversized integer] after the schema walk."""
    best = [None, None, None]
    cli._walk(config, cli._SCHEMAS[command], (), best)
    return best


def test_oversized_integer_is_the_first_one_no_float_holds():
    # True is not an integer: it fails its type and is never size-checked
    key, _, oversized = _walked("collapse", {"lambdas": [True]})
    assert key is not None and oversized is None
    # float() rounds the largest double plus one down to it, so it converts
    assert _walked("collapse", {"lambdas": [int(sys.float_info.max) + 1]}) == [None] * 3
    assert _walked("collapse", {"lambdas": [0, 2**1024]})[2] == (("lambdas", 1),
                                                                 len(str(2**1024)))
    assert _walked("collapse", {"lambdas": [0], "model": {"coupling": -(10**400)}})[2] == (
        ("model", "coupling"), 401)
    # of two, the first in schema-walk order: the schema lists t_end before lambdas
    assert _walked("collapse", {"lambdas": [2**1024], "t_end": 10**400})[2] == (("t_end",), 401)


def test_a_schema_error_wins_over_an_oversized_integer(tmp_path, capsys):
    config = _write(tmp_path, "cfg.json", {"lambdas": [HUGE], "bogus": 1})
    assert main(["collapse", "--config", str(config)]) == 2
    assert _single_error_line(capsys) == (
        "error: config invalid at (top level): Additional properties are not allowed "
        "('bogus' was unexpected)")


def _value_schemas(schema, own_instance=True):
    """``schema`` and every subschema that a value inside its instance meets;
    ``allOf``, ``if`` and ``then`` meet the instance of the schema holding them."""
    if own_instance:
        yield schema
    for child in [*schema.get("properties", {}).values(), *schema.get("prefixItems", [])]:
        yield from _value_schemas(child)
    if isinstance(schema.get("items"), dict):
        yield from _value_schemas(schema["items"])
    for child in [*schema.get("allOf", []), *(schema[k] for k in ("if", "then") if k in schema)]:
        yield from _value_schemas(child, own_instance=False)


@pytest.mark.parametrize("command", sorted(cli._SCHEMAS))
def test_every_subschema_that_admits_a_number_names_a_type(command):
    # the walk checks an integer's size where it passes a ``type``, so a number
    # that met no ``type`` would skip that check
    for schema in _value_schemas(cli._SCHEMAS[command]):
        allowed = schema.get("enum", [schema["const"]] if "const" in schema else None)
        admits_number = allowed is None or not all(isinstance(v, str) for v in allowed)
        assert "type" in schema or not admits_number, schema


# (command, config, its one stderr line): a state whose dimension differs from
# the hamiltonian's is refused from the config before the operator is built,
# so at the dimension cap it costs no eigh, and an invalid operator is not reached
STATE_MISMATCHES = {
    "random-state-dim": (
        "zeval", _with(_with(RANDOM_ZEVAL, ("hamiltonian", "dim"), cli._MAX_DIM),
                       ("psi_i", "dim"), 2),
        f"error: psi_i dim 2 does not match the hamiltonian dimension {cli._MAX_DIM}"),
    "amplitude-count": (
        "optimize", _with(_with(RANDOM_OPTIMIZE, ("hamiltonian", "dim"), cli._MAX_DIM),
                          ("psi_i",), {"kind": "explicit", "amplitudes": [[1.0, 0.0]] * 3}),
        f"error: psi_i has 3 amplitudes but the hamiltonian dimension is {cli._MAX_DIM}"),
    "final-state-dim": (
        "zeval", _with(_with(RANDOM_ZEVAL, ("hamiltonian",), {"kind": "explicit",
                                                              "matrix": HALF_FLIP}),
                       ("psi_e",), {"kind": "random", "dim": 3, "seed": 2}),
        "error: psi_e dim 3 does not match the hamiltonian dimension 2"),
    "non-hermitian-operator": (
        "zeval", _with(_with(RANDOM_ZEVAL, ("hamiltonian",), {
            "kind": "explicit", "matrix": [[[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]}),
            ("psi_i", "dim"), 3),
        "error: psi_i dim 3 does not match the hamiltonian dimension 2"),
}


@pytest.mark.parametrize(
    "command, payload, line", list(STATE_MISMATCHES.values()), ids=list(STATE_MISMATCHES)
)
def test_state_dimension_mismatch_is_refused_before_any_eigh(command, payload, line,
                                                             tmp_path, capsys, monkeypatch):
    def no_eigh(*args, **kwargs):
        raise AssertionError("eigh ran before the state dimensions were checked")

    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    config = _write(tmp_path, "cfg.json", payload)
    assert main([command, "--config", str(config)]) == 2
    assert _single_error_line(capsys) == line


def test_partition_that_does_not_factor_the_model_is_refused(tmp_path, capsys):
    config = _write(tmp_path, "cfg.json", {
        "lambdas": [1.0], "measure": {"kind": "linear_entropy", "partition": [3, 2]}})
    assert main(["collapse", "--config", str(config)]) == 2
    assert _single_error_line(capsys) == (
        "error: partition 3 x 2 does not factor the model dimension 4")


EXPLICIT_ZEVAL = _with(RANDOM_ZEVAL, ("hamiltonian",), {"kind": "explicit", "matrix": HALF_FLIP})
EXPLICIT_STATE_ZEVAL = _with(RANDOM_ZEVAL, ("psi_i",),
                             {"kind": "explicit", "amplitudes": BASIS_AMPLITUDES})
# explicit operators and states at their caps: lists of one shared entry, so
# the row and column caps of a matrix are each checked without a d x d walk
PAIR = [0.5, 0.0]
CAP_ROW = [PAIR] * cli._MAX_DIM
LONG_ROW = [PAIR] * (cli._MAX_DIM + 1)

# (command, config, path, value at the cap, value past it): a cap is checked by
# the schema alone, so these tests validate and never run a capped config
CAPS = {
    "hamiltonian-dim": ("zeval", RANDOM_ZEVAL, ("hamiltonian", "dim"),
                        cli._MAX_DIM, cli._MAX_DIM + 1),
    "state-dim": ("zeval", RANDOM_ZEVAL, ("psi_i", "dim"), cli._MAX_DIM, cli._MAX_DIM + 1),
    "max_iters": ("optimize", RANDOM_OPTIMIZE, ("optimizer", "max_iters"),
                  cli._MAX_ITERS, cli._MAX_ITERS + 1),
    "collapse-max_iters": ("collapse", {"lambdas": [0.0]}, ("optimizer", "max_iters"),
                           cli._MAX_ITERS, cli._MAX_ITERS + 1),
    "steps": ("collapse", {"lambdas": [0.0]}, ("steps",), cli._MAX_STEPS, cli._MAX_STEPS + 1),
    "n_list-item": ("lattice", LATTICE, ("n_list",),
                    [1, cli._MAX_SLICES], [1, cli._MAX_SLICES + 1]),
    "n_list-length": ("lattice", LATTICE, ("n_list",),
                      list(range(1, cli._MAX_SLICE_COUNTS + 1)),
                      list(range(1, cli._MAX_SLICE_COUNTS + 2))),
    "lambdas-length": ("collapse", {"lambdas": [0.0]}, ("lambdas",),
                       [0.0] * cli._MAX_LAMBDAS, [0.0] * (cli._MAX_LAMBDAS + 1)),
    "matrix-rows": ("zeval", EXPLICIT_ZEVAL, ("hamiltonian", "matrix"),
                    [[PAIR]] * cli._MAX_DIM, [[PAIR]] * (cli._MAX_DIM + 1)),
    "matrix-columns": ("zeval", EXPLICIT_ZEVAL, ("hamiltonian", "matrix"),
                       [CAP_ROW], [LONG_ROW]),
    "amplitudes": ("zeval", EXPLICIT_STATE_ZEVAL, ("psi_i", "amplitudes"), CAP_ROW, LONG_ROW),
}


def _schema_errors(command, payload):
    """The path of the config error the CLI reports, as a list of none or one."""
    error = cli._schema_error(payload, cli._SCHEMAS[command])
    return [] if error is None else ["/".join(str(part) for part in error[0])]


@pytest.mark.parametrize(
    "command, base, path, at_cap, past_cap", list(CAPS.values()), ids=list(CAPS)
)
def test_caps_admit_the_cap_and_refuse_one_more(command, base, path, at_cap, past_cap):
    assert _schema_errors(command, _with(base, path, at_cap)) == []
    errors = _schema_errors(command, _with(base, path, past_cap))
    assert errors and all(e.startswith("/".join(path)) for e in errors)


def test_caps_admit_the_benchmark_configs():
    assert cli._MAX_SLICES >= 10**6 and cli._MAX_STEPS >= 32 and cli._MAX_DIM >= 64
    assert _schema_errors("lattice", _with(LATTICE, ("n_list",), [10**k for k in range(2, 7)])) == []


def test_collapse_work_cap_admits_the_cap_and_refuses_one_more():
    per_lambda = (cli._MAX_STEPS + cli._SWEEP_FIXED_SLICES) * 100
    lambdas = cli._MAX_COLLAPSE_WORK // per_lambda
    cli._check_collapse_work(cli._MAX_STEPS, lambdas, 100)
    with pytest.raises(ValueError, match="work cap"):
        cli._check_collapse_work(cli._MAX_STEPS, lambdas + 1, 100)
    # every cap alone, and the benchmark's collapse config, stay under it
    cli._check_collapse_work(cli._MAX_STEPS, 1, cli._MAX_ITERS)
    cli._check_collapse_work(1, cli._MAX_LAMBDAS, 40)
    cli._check_collapse_work(16, 2, 200)


def test_collapse_over_the_work_cap_exits_two_before_any_work(tmp_path, capsys, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("a refused collapse must not start")

    monkeypatch.setattr(cli, "qubit_detector_model", no_work)
    monkeypatch.setattr(cli, "optimize_penalized", no_work)
    payload = {"steps": cli._MAX_STEPS, "lambdas": [1.0] * cli._MAX_LAMBDAS,
               "optimizer": {"max_iters": cli._MAX_ITERS}}
    assert _schema_errors("collapse", payload) == []
    config = _write(tmp_path, "cfg.json", payload)
    assert main(["collapse", "--config", str(config)]) == 2
    line = _single_error_line(capsys)
    assert line.startswith("error: config invalid: steps, lambdas and optimizer/max_iters ")
    assert f"x {cli._MAX_LAMBDAS} lambdas x max_iters {cli._MAX_ITERS} =" in line


@pytest.mark.parametrize("field, value", [("step_size", 0.5), ("grad_tol", 1e-6), ("seed", 3)])
def test_collapse_optimizer_takes_only_max_iters(field, value, tmp_path, capsys):
    config = _write(tmp_path, "cfg.json", {"lambdas": [1.0], "optimizer": {field: value}})
    assert main(["collapse", "--config", str(config)]) == 2
    line = _single_error_line(capsys)
    assert line.startswith("error: config invalid at optimizer: ")
    assert f"'{field}'" in line
    config = _write(tmp_path, "cfg.json", {"lambdas": [1.0], "optimizer": {"max_iters": 50}})
    assert main(["collapse", "--config", str(config)]) == 0
    assert json.loads(capsys.readouterr().out)[0]["converged"] is True


@pytest.mark.parametrize("depth", [2000, 10**5])
def test_deeply_nested_config_is_one_error_line(depth, tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text('{"t": ' + "[" * depth + "]" * depth + "}", encoding="utf-8")
    assert main(["zeval", "--config", str(config)]) == 2
    assert "recursion" in _single_error_line(capsys)


# configs whose time ratio overflows a float, and the fields the refusal names
OVERFLOWING_TIME_RATIOS = {
    "lattice-hbar": ("lattice", _with(LATTICE, ("hbar",), 5e-324), ["energy", "hbar"]),
    "lattice-duration": ("lattice", dict(LATTICE, t_start=-1e308, t_end=1e308),
                         ["t_end", "t_start"]),
    "zeval-t": ("zeval", _with(_with(RANDOM_ZEVAL, ("hamiltonian", "hbar"), 1e-10),
                               ("t",), 1e300), ["t", "hbar"]),
}


@pytest.mark.parametrize(
    "command, payload, fields", list(OVERFLOWING_TIME_RATIOS.values()),
    ids=list(OVERFLOWING_TIME_RATIOS),
)
def test_overflowing_time_ratio_is_one_error_naming_the_fields(command, payload, fields,
                                                               tmp_path, capsys):
    config = _write(tmp_path, "cfg.json", payload)
    assert main([command, "--config", str(config)]) == 2
    line = _single_error_line(capsys)
    assert all(re.search(rf"\b{field}\b", line) for field in fields)



# lattice configs whose exact chain reduction overflows, and the first N it does at
OVERFLOWING_CHAINS = {
    "energy-1e300": (dict(LATTICE, energy=1e300, n_list=[10, 100]), 10),
    "energy-1e10": (dict(LATTICE, energy=1e10, n_list=[10, 100]), 100),
    "z0-zero": (dict(LATTICE, z0=[0.0, 0.0], energy=1e300, n_list=[10, 100]), 10),
}


@pytest.mark.parametrize("payload, n", list(OVERFLOWING_CHAINS.values()),
                         ids=list(OVERFLOWING_CHAINS))
def test_overflowing_chain_reduction_is_one_error_and_no_table(payload, n, tmp_path, capsys):
    config = _write(tmp_path, "cfg.json", payload)
    table = tmp_path / "table.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["lattice", "--config", str(config), "--out", str(table)]) == 2
    line = _single_error_line(capsys)
    assert f"at N = {n} for energy " in line
    assert "t_end - t_start" in line and "hbar" in line
    assert not table.exists()


@pytest.mark.parametrize("t_text", [json.dumps([0.5] * 10**5), "[" * 900 + "]" * 900],
                         ids=["list-of-1e5", "nested-900"])
def test_long_schema_message_is_clipped_to_a_short_line(t_text, tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(RANDOM_ZEVAL)[:-1] + ', "t": ' + t_text + "}",
                      encoding="utf-8")
    assert main(["zeval", "--config", str(config)]) == 2
    line = _single_error_line(capsys)
    assert len(line.encode()) < 400
    assert line.startswith("error: config invalid at t: [") and "\u2026" in line
    assert line.endswith("] is not of type 'number'")


@pytest.mark.parametrize("command, payload", [
    ("optimize", dict(RANDOM_OPTIMIZE, optimizer={"max_iters": 300})),
    ("collapse", {"lambdas": [1.0], "optimizer": {"max_iters": 300}}),
], ids=["optimize", "collapse"])
def test_integral_float_max_iters_is_accepted(command, payload, tmp_path, capsys):
    as_int = _write(tmp_path, "int.json", payload)
    as_float = tmp_path / "float.json"
    as_float.write_text(as_int.read_text(encoding="utf-8").replace("300", "300.0"),
                        encoding="utf-8")
    assert main([command, "--config", str(as_int)]) == 0
    expected = capsys.readouterr().out
    assert main([command, "--config", str(as_float)]) == 0
    assert capsys.readouterr() == (expected, "")

def test_out_of_memory_is_one_error_line(tmp_path, capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 149. GiB for an array")

    monkeypatch.setattr(cli, "random_hamiltonian", exhausted)
    config = _write(tmp_path, "cfg.json", RANDOM_ZEVAL)
    assert main(["zeval", "--config", str(config)]) == 2
    assert _single_error_line(capsys) == (
        "error: out of memory: Unable to allocate 149. GiB for an array"
    )


def test_unwritable_out_path_is_one_error_line(tmp_path, capsys):
    config = _write(tmp_path, "cfg.json", RANDOM_ZEVAL)
    out = tmp_path / "no" / "such" / "x.json"
    assert main(["zeval", "--config", str(config), "--out", str(out)]) == 2
    _single_error_line(capsys)
    assert not out.exists()


def test_missing_config_file(tmp_path, capsys):
    assert main(["zeval", "--config", str(tmp_path / "absent.json")]) == 2
    assert "error:" in capsys.readouterr().err


def test_malformed_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    assert main(["zeval", "--config", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_config_flag_is_required_without_selftest(capsys):
    assert main(["zeval"]) == 2
    assert "--config is required" in capsys.readouterr().err
