"""JSON/CSV number conventions used by the command-line tools."""

import json
import math

import numpy as np
import pytest

from statepath.serialize import (
    complex_pair,
    dumps,
    fmt17,
    parse_complex,
    parse_matrix,
    parse_vector,
    vector_pairs,
)


def test_complex_round_trip():
    z = 0.1 + 0.2j
    assert parse_complex(complex_pair(z)) == z


def test_vector_round_trip():
    vec = np.array([1.0, -0.5j, 0.25 + 0.75j])
    np.testing.assert_array_equal(parse_vector(vector_pairs(vec)), vec)


def test_matrix_round_trip():
    mat = np.array([[1.0, 2.0j], [3.0 - 1.0j, -4.0]])
    np.testing.assert_array_equal(parse_matrix([vector_pairs(row) for row in mat]), mat)


@pytest.mark.parametrize("bad", [[1.0], [1.0, 2.0, 3.0], "12", [1.0, math.nan], [1.0, None]])
def test_parse_complex_rejections(bad):
    with pytest.raises(ValueError, match="pair"):
        parse_complex(bad)


@pytest.mark.parametrize("bad", [[True, False], [1.0, True], (False, 0.0)])
def test_parse_complex_refuses_booleans(bad):
    with pytest.raises(ValueError, match="pair"):
        parse_complex(bad)


def test_parse_vector_rejections():
    with pytest.raises(ValueError, match="non-empty"):
        parse_vector([])
    with pytest.raises(ValueError, match="pair"):
        parse_vector([[1.0, 2.0], [3.0]])


def test_parse_matrix_rejections():
    with pytest.raises(ValueError, match="non-empty"):
        parse_matrix([])
    with pytest.raises(ValueError, match="inconsistent"):
        parse_matrix([[[1.0, 0.0]], [[1.0, 0.0], [2.0, 0.0]]])


def test_fmt17_is_lossless():
    for x in (1.0 / 3.0, math.pi, 1e-300, -0.1, 3.0, 0.0):
        assert float(fmt17(x)) == x


def test_dumps_layout():
    text = dumps({"a": 1})
    assert text.endswith("\n")
    assert json.loads(text) == {"a": 1}


def test_dumps_rejects_nan():
    with pytest.raises(ValueError):
        dumps({"a": math.nan})
