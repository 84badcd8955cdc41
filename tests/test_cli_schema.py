"""The CLI's config checker held to jsonschema, its reference.

``cli._schema_error`` walks a config against ``cli._SCHEMAS`` itself, so no
``statepath`` process imports jsonschema. These tests keep the schemas valid
2020-12 schemas that use only the keywords the walker implements, and require
the walker to accept and refuse exactly what ``Draft202012Validator`` does,
naming the error ``jsonschema.exceptions.best_match`` picks, by path and
message: on the golden configs, on the configs of ``test_cli``'s tables and on
a seeded corpus of mutated golden configs.
"""

import itertools
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from jsonschema import Draft202012Validator
from jsonschema.exceptions import best_match

import test_cli
from statepath import cli
from statepath.cli import main

GOLDEN = Path(__file__).parent / "golden"
GOLDEN_CONFIGS = [
    (case["name"], case["command"],
     json.loads((GOLDEN / f"{case['name']}.json").read_text(encoding="utf-8")))
    for case in json.loads((GOLDEN / "manifest.json").read_text(encoding="utf-8"))
]
VALIDATORS = {command: Draft202012Validator(schema) for command, schema in cli._SCHEMAS.items()}


def reference_error(command, config):
    """(path, message) of the error ``jsonschema.validate`` raises, or None."""
    error = best_match(VALIDATORS[command].iter_errors(config))
    return None if error is None else (tuple(error.absolute_path), error.message)


def subschemas(schema):
    """``schema`` and every schema nested in it."""
    yield schema
    for keyword, value in schema.items():
        if keyword == "properties":
            children = list(value.values())
        elif keyword in ("prefixItems", "allOf"):
            children = value
        elif keyword in ("items", "propertyNames", "if", "then") and isinstance(value, dict):
            children = [value]
        else:
            continue
        for child in children:
            yield from subschemas(child)


@pytest.mark.parametrize("command", sorted(cli._SCHEMAS))
def test_schema_passes_the_2020_12_metaschema(command):
    Draft202012Validator.check_schema(cli._SCHEMAS[command])


@pytest.mark.parametrize("command", sorted(cli._SCHEMAS))
def test_schema_uses_only_keywords_the_walker_implements(command):
    for schema in subschemas(cli._SCHEMAS[command]):
        for keyword, value in schema.items():
            assert keyword in cli._KEYWORDS, keyword
        # the forms of these keywords that the walker reads
        assert "then" not in schema or "if" in schema
        assert schema.get("type", "object") in cli._TYPES
        assert all(isinstance(value, str) for value in schema.get("enum", []))
        assert isinstance(schema.get("const", ""), str)
        assert schema.get("additionalProperties", False) is False
        assert schema.get("items", False) is False or isinstance(schema["items"], dict)


@pytest.mark.parametrize("name, command, config", GOLDEN_CONFIGS,
                         ids=[name for name, _, _ in GOLDEN_CONFIGS])
def test_walker_matches_jsonschema_on_golden_configs(name, command, config):
    assert cli._schema_error(config, cli._SCHEMAS[command]) is None
    assert reference_error(command, config) is None


def table_configs():
    """(id, command, config) for every config in ``test_cli``'s tables."""
    t = test_cli
    yield "random-zeval", "zeval", t.RANDOM_ZEVAL
    yield "random-optimize", "optimize", t.RANDOM_OPTIMIZE
    yield "lattice", "lattice", t.LATTICE
    for name, (command, payload, _, _) in t.KIND_FIELD_VIOLATIONS.items():
        yield f"kind-{name}", command, payload
    for name, (command, base, path, _) in t.NON_FINITE_FIELDS.items():
        for value in (math.nan, math.inf):
            yield f"non-finite-{name}-{value}", command, t._with(base, path, value)
    for name, (command, payload, _) in t.HUGE_INTEGERS.items():
        yield f"huge-{name}", command, payload
    for name, (command, base, path, at_cap, past_cap) in t.CAPS.items():
        yield f"cap-{name}", command, t._with(base, path, at_cap)
        yield f"past-cap-{name}", command, t._with(base, path, past_cap)
    for name, (command, payload, _) in t.OVERFLOWING_TIME_RATIOS.items():
        yield f"time-ratio-{name}", command, payload
    for name, (payload, _) in t.OVERFLOWING_CHAINS.items():
        yield f"chain-{name}", "lattice", payload
    for name, value in (("list-of-1e5", [0.5] * 10**5), ("nested-900", _nested(900))):
        yield f"long-message-{name}", "zeval", dict(t.RANDOM_ZEVAL, t=value)


def _nested(depth):
    node = []
    for _ in range(depth - 1):
        node = [node]
    return node


TABLE_CONFIGS = list(table_configs())


@pytest.mark.parametrize("name, command, config", TABLE_CONFIGS,
                         ids=[name for name, _, _ in TABLE_CONFIGS])
def test_walker_matches_jsonschema_on_test_cli_tables(name, command, config):
    assert cli._schema_error(config, cli._SCHEMAS[command]) == reference_error(command, config)


# field names the schemas know, plus one they do not
NAMES = sorted({name for schema in cli._SCHEMAS.values() for sub in subschemas(schema)
                for name in sub.get("properties", {})} | {"bogus"})
STRINGS = ["", "random", "explicit", "evolved", "pointer_deviation", "linear_entropy",
           "kind", "bogus"]
# integers and integral floats around every bound, other floats, and the non-finite ones
NUMBERS = [0, 1, -1, 2, 4, 17, cli._MAX_DIM, cli._MAX_DIM + 1, cli._MAX_SLICES,
           cli._MAX_SLICES + 1, 2**64, 0.0, 1.0, 2.0, -3.0, 64.0, 65.0, 1536.0, 0.5, -0.25,
           1e-300, 5e-324, 1e308, -1e308, math.inf, -math.inf, math.nan]


def random_value(rng, depth=0):
    """A JSON value of a random type: null, boolean, number, string, complex
    pair, array or object."""
    pick = rng.randrange(8 if depth < 2 else 6)
    if pick == 0:
        return rng.choice([None, True, False])
    if pick in (1, 2, 3):
        return rng.choice(NUMBERS)
    if pick == 4:
        return rng.choice(STRINGS)
    if pick == 5:
        return [rng.choice(NUMBERS) for _ in range(rng.choice([2, 2, 1, 3]))]
    if pick == 6:
        return [random_value(rng, depth + 1) for _ in range(rng.randrange(4))]
    return {rng.choice(NAMES): random_value(rng, depth + 1) for _ in range(rng.randrange(3))}


def containers(node):
    """``node`` and every object and array inside it."""
    yield node
    for child in (node.values() if isinstance(node, dict) else node):
        if isinstance(child, (dict, list)):
            yield from containers(child)


def mutate(config, rng):
    """Replace, delete or insert one field or list item somewhere in ``config``."""
    node = rng.choice(list(containers(config)))
    op = rng.randrange(3)
    if isinstance(node, dict):
        keys = list(node)
        if op == 0 and keys:
            node[rng.choice(keys)] = random_value(rng)
        elif op == 1 and keys:
            del node[rng.choice(keys)]
        else:
            node[rng.choice(NAMES)] = random_value(rng)
    elif op == 0 and node:
        node[rng.randrange(len(node))] = random_value(rng)
    elif op == 1 and node:
        del node[rng.randrange(len(node))]
    else:
        node.insert(rng.randrange(len(node) + 1), random_value(rng))


MUTANTS_PER_COMMAND = 2000


def mutants(command, seed):
    """A seeded corpus of golden configs of ``command``, each mutated one to three times."""
    rng = random.Random(seed)
    bases = [json.dumps(config) for _, cmd, config in GOLDEN_CONFIGS if cmd == command]
    for _ in range(MUTANTS_PER_COMMAND):
        config = json.loads(rng.choice(bases))
        for _ in range(rng.choice([1, 1, 1, 2, 3])):
            mutate(config, rng)
        yield config


@pytest.mark.parametrize("command", sorted(cli._SCHEMAS))
def test_walker_matches_jsonschema_on_mutated_configs(command):
    rejected = 0
    for index, config in enumerate(mutants(command, seed=sorted(cli._SCHEMAS).index(command))):
        expected = reference_error(command, config)
        assert cli._schema_error(config, cli._SCHEMAS[command]) == expected, (index, config)
        rejected += expected is not None
    # both verdicts are well represented
    assert 100 < rejected < MUTANTS_PER_COMMAND - 100


@pytest.mark.parametrize("command", sorted(cli._SCHEMAS))
def test_refused_mutant_prints_the_jsonschema_error_line(command, tmp_path, capsys):
    refused = ((config, error) for config in mutants(command, seed=99)
               if (error := reference_error(command, config)) is not None)
    path = tmp_path / "cfg.json"
    for config, (where, message) in itertools.islice(refused, 25):
        path.write_text(json.dumps(config), encoding="utf-8")
        assert main([command, "--config", str(path)]) == 2
        assert capsys.readouterr() == (
            "", f"error: config invalid at {cli._where(where)}: {cli._clipped(message)}\n")


def test_refusal_at_a_list_cap_skips_the_entries(monkeypatch):
    calls = []
    walk = cli._walk
    monkeypatch.setattr(cli, "_walk", lambda *args: calls.append(1) or walk(*args))
    config = test_cli._with(test_cli.EXPLICIT_ZEVAL, ("hamiltonian", "matrix"),
                            [test_cli.CAP_ROW] * (cli._MAX_DIM + 1))
    where, message = cli._schema_error(config, cli._SCHEMAS["zeval"])
    assert where == ("hamiltonian", "matrix") and message.endswith(" is too long")
    # the error at the matrix outranks any inside it, so no row is walked
    assert len(calls) < 50


def test_importing_the_cli_leaves_jsonschema_unloaded():
    src = str(Path(cli.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", "import sys, statepath.cli; print('jsonschema' in sys.modules)"],
        capture_output=True, text=True, env=env, check=True)
    assert done.stdout == "False\n"
