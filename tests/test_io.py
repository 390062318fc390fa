import numpy as np
import pytest

from dbarlab.errors import ValidationError
from dbarlab.grid import GridSpec
from dbarlab.io import format_value, read_field, write_csv, write_field, write_svg_plot
from dbarlab.metric import MetricField
from dbarlab.singular import singular_catalog
from dbarlab.weights import random_form


@pytest.fixture
def rng():
    return np.random.default_rng(909)


def test_eform_round_trip(tmp_path, rng):
    g = GridSpec(2, 8, 4.0)
    a = random_form(g, 2, 2, 1, rng)
    path = tmp_path / "form.hdbl"
    write_field(path, a)
    back = read_field(path)
    assert (back.rank, back.p, back.q) == (2, 2, 1)
    assert np.array_equal(back.coeffs, a.coeffs)


def test_metric_round_trip(tmp_path):
    g = GridSpec(1, 16, 8.0)
    h = singular_catalog("gaussian", g, c=1.0).metric
    path = tmp_path / "metric.hdbl"
    write_field(path, h)
    back = read_field(path)
    assert isinstance(back, MetricField)
    assert np.array_equal(back.mat, h.mat)


def test_magic_guard(tmp_path):
    path = tmp_path / "bogus.hdbl"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(ValidationError):
        read_field(path)


def test_csv_rfc4180_and_determinism(tmp_path):
    rows = [["a-check", 1, 0.1 + 0.2, True], ["with,comma", 2, float("1e-12"), False]]
    p1 = tmp_path / "r1.csv"
    p2 = tmp_path / "r2.csv"
    write_csv(p1, ["check", "n", "value", "passed"], rows)
    write_csv(p2, ["check", "n", "value", "passed"], rows)
    b1 = p1.read_bytes()
    assert b1 == p2.read_bytes()
    assert b"\r\n" in b1
    assert b'"with,comma"' in b1
    assert b"0.30000000000000004" in b1  # shortest-roundtrip float formatting


def test_format_value_kinds():
    assert format_value(True) == "1"
    assert format_value(np.int64(7)) == "7"
    assert format_value(0.5) == "0.5"
    assert format_value(1 + 2j) == "1.0+2.0j"


def test_svg_plot_embeds_data(tmp_path):
    path = tmp_path / "plot.svg"
    write_svg_plot(path, [(16, 0.1), (32, 0.01), (64, 1e-4)], "decay", "N", "residual")
    text = path.read_text()
    assert text.startswith("<svg")
    assert "polyline" in text
    assert "0.0001" in text  # embedded data table
