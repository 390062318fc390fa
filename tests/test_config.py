"""The config table: every shipped config parses, and corrupting any one field
of a small valid config exits 0, 1 or 2 without a traceback, naming the field
on exit 1.  The working-set cap is tested on its estimate alone: no oversized
run is started."""

import contextlib
import dataclasses
import io
import math
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dbarlab.cli import (
    FIELDS,
    WORKING_SET_CAP_MB,
    _check_relations,
    main,
    parse_config,
    run,
    working_set_mb,
)
from dbarlab.errors import ValidationError
from dbarlab.grid import GridSpec
from dbarlab.singular import singular_catalog
import region_reference as ref

ROOT = Path(__file__).resolve().parent.parent
SHIPPED = sorted((ROOT / "configs").glob("*.cfg")) + sorted(
    (ROOT / "perfbench" / "configs").glob("*.cfg")
)


@pytest.mark.parametrize("path", SHIPPED, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_parse_config_accepts_shipped_config(path):
    cfg = parse_config(path)
    assert cfg.operation in path.stem


# Small valid configs, n = 1 and N = 16, one per operation; each runs in well
# under a second.  The identity tolerances let the identities rows pass at
# this resolution, and regularize runs the smooth gaussian member because the
# log-pole geometry leaves no certified region at N = 16.
_DOMAIN = {"n": "1", "N": "16", "L": "8.0"}
BASES = {
    "identities": {"metric": {"catalog": "gaussian"}, "operation": {"count": "2"},
                   "tolerances": {"identity": "1.0", "integrated": "1.0"}},
    "positivity": {"metric": {"catalog": "gaussian"}},
    "solve": {"metric": {"catalog": "gaussian"}, "operation": {"count": "1", "sweep": "1"}},
    "regularize": {"metric": {"catalog": "gaussian"},
                   "operation": {"nu_max": "3", "eps0": "3.0"}},
    "convergence": {"metric": {"catalog": "gaussian"},
                    "operation": {"resolutions": "8,16,32"}},
}


def _sections(op: str) -> dict:
    base = BASES[op]
    return {
        "domain": dict(_DOMAIN),
        "metric": dict(base["metric"]),
        "operation": {"name": op, **base.get("operation", {})},
        "tolerances": dict(base.get("tolerances", {})),
        "random": {"seed": "7"},
    }


def _render(sections: dict) -> str:
    lines = []
    for name, entries in sections.items():
        lines.append(f"[{name}]")
        lines += [f"{key} = {value}" for key, value in entries.items()]
    return "\n".join(lines) + "\n"


def _number(x: float) -> str:
    return str(int(x)) if float(x).is_integer() else repr(float(x))


@st.composite
def _corruption(draw):
    """(operation, section, field, kind, text): one field of one base config, corrupted."""
    op = draw(st.sampled_from(sorted(BASES)))
    spec = draw(st.sampled_from(FIELDS))
    kind = draw(st.sampled_from(
        ["in-range", "boundary", "out-of-range", "nan", "inf", "garbage", "empty", "misspelled"]
    ))
    listed = isinstance(spec.default, tuple)
    if spec.admissible.startswith("{"):
        choices = [part.strip() for part in spec.admissible[1:-1].split(",")]
        value = {"in-range": draw(st.sampled_from(choices)), "boundary": choices[-1],
                 "out-of-range": "mystery"}.get(kind)
    else:
        lo, hi = (float(part) for part in spec.admissible[1:-1].split(","))
        # in-range draws stay near the low end so each run stays small
        low = max(lo, -4.0)
        top = min(hi, low + 4.0)
        inside = st.one_of(st.integers(math.ceil(low), math.floor(top)),
                           st.floats(low, top, allow_nan=False))
        ends = [x for x in (lo, hi) if math.isfinite(x)]
        outside = [lo - 1.0] if math.isfinite(lo) else [hi + 1.0] if math.isfinite(hi) else []
        value = {
            "in-range": _number(draw(inside)),
            "boundary": _number(draw(st.sampled_from(ends))) if ends else None,
            "out-of-range": _number(outside[0]) if outside else None,
        }.get(kind)
        if value is not None and listed:
            value = ",".join([value] * 3)
    value = value if value is not None else {
        "nan": "nan", "inf": "inf", "garbage": draw(st.sampled_from(["one", "1,,2", "0x1g"])),
        "empty": "", "misspelled": "1", "boundary": "0", "out-of-range": "-1e9",
    }[kind]
    return op, spec.section, spec.name, kind, value


# extreme in-range values overflow the weight on purpose; the exit code is the contract
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=600, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_corruption())
def test_corrupted_field_exits_cleanly_and_names_it(case):
    op, section, name, kind, value = case
    sections = _sections(op)
    entries = sections[section]
    if kind == "misspelled":
        value = entries.pop(name, value)
        name = name[:-1] + "_" if len(name) > 1 else name + "x"
    entries[name] = value
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "exp.cfg"
        path.write_text(_render(sections), encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([op, "--config", str(path), "--out", str(Path(tmp) / "out")])
    text = err.getvalue()
    assert code in (0, 1, 2)
    assert "Traceback" not in text
    if code == 1:
        assert f"{name!r}" in text or f"{name}=" in text, text


# a pole's drawn offset ranges over the whole box, wrapping at the seam
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(["positivity", "solve"]), st.floats(-4.5, 4.5), st.floats(-4.5, 4.5))
def test_a_pole_near_the_certified_box_exits_one_naming_its_offset(op, re, im):
    sections = _sections(op)
    sections["metric"] = {"catalog": "log_pole", "offset_re": _number(re),
                          "offset_im": _number(im)}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "exp.cfg"
        path.write_text(_render(sections), encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([op, "--config", str(path), "--out", str(Path(tmp) / "out")])
    text = err.getvalue()
    # the base configs run c = 1 on the default seam margin; K is the old
    # certified box, near the points within 3 spacings of the pole
    grid = GridSpec(1, int(_DOMAIN["N"]), float(_DOMAIN["L"]))
    cat = singular_catalog("log_pole", grid, offset=complex(re, im))
    near = ~ref.box_off_poles(grid, grid.L, cat.poles, 3.0 * grid.spacing)
    assert "Traceback" not in text
    if (ref.certified_region(0.125, grid, cat) & near).any():
        assert code == 1 and "offset_re" in text, text
    else:
        assert code in (0, 2), text


@pytest.mark.parametrize("path", SHIPPED, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_shipped_config_is_well_under_the_working_set_cap(path):
    assert sum(working_set_mb(parse_config(path)).values()) <= WORKING_SET_CAP_MB / 4


# the shipped configs, with fewer samples where count only repeats work
SMALLER = {"identities": {"count": 2}, "solve": {"count": 4, "sweep": (1.0,)}}


@pytest.mark.parametrize("op", sorted(BASES))
def test_working_set_estimate_bounds_the_traced_peak(op, tmp_path):
    cfg = dataclasses.replace(parse_config(ROOT / "configs" / f"{op}.cfg"), **SMALLER.get(op, {}))
    tracemalloc.start()
    try:
        assert run(cfg, tmp_path) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / 2**20 <= sum(working_set_mb(cfg).values())


@pytest.mark.parametrize("N, rank", [(16, 1), (16, 2), (32, 1)])
def test_working_set_estimate_bounds_the_identities_peak_at_n2(N, rank, tmp_path):
    # the Bochner-Kodaira pass sets this peak: 12.5, 6.6 and 11.8 fields, the
    # traced peak over one full-grid field of rank^2 complex entries
    cfg = dataclasses.replace(
        parse_config(ROOT / "perfbench" / "configs" / "identities-n2.cfg"), N=N, rank=rank
    )
    tracemalloc.start()
    try:
        assert run(cfg, tmp_path) in (0, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / 2**20 <= sum(working_set_mb(cfg).values())


@pytest.mark.parametrize("n, N, rank", [(1, 16, 1), (1, 16, 2), (2, 8, 1), (2, 8, 2)])
def test_working_set_estimate_bounds_the_identities_peak_at_tiny_grids(n, N, rank, tmp_path):
    # fixed allocations and the algebraic suite outweigh the grid's fields here:
    # 0.145 / 0.136 MiB at n = 1, N = 16 and 1.29 / 4.29 MiB at n = 2, N = 8
    cfg = dataclasses.replace(
        parse_config(ROOT / "configs" / "identities.cfg"), n=n, N=N, rank=rank, count=2
    )
    tracemalloc.start()
    try:
        assert run(cfg, tmp_path) in (0, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / 2**20 <= sum(working_set_mb(cfg).values())


def _base_config(op: str, tmp_path):
    path = tmp_path / f"{op}.cfg"
    path.write_text(_render(_sections(op)), encoding="utf-8")
    return parse_config(path)


@pytest.mark.parametrize("op, changes, name", [
    ("identities", {"n": 2, "N": 1024}, "N"),
    ("positivity", {"n": 2, "N": 128}, "N"),
    ("solve", {"count": 10**6}, "count"),
    ("regularize", {"N": 2**14}, "N"),
    ("regularize", {"nu_max": 10**6}, "nu_max"),
    ("convergence", {"n": 2, "resolutions": (8, 16, 128)}, "resolutions"),
])
def test_oversized_run_is_rejected_by_its_estimate(op, changes, name, tmp_path):
    # only the relation check runs: it raises before anything is allocated
    cfg = dataclasses.replace(_base_config(op, tmp_path), **changes)
    assert sum(working_set_mb(cfg).values()) > WORKING_SET_CAP_MB
    with pytest.raises(ValidationError, match=f"field '{name}'"):
        _check_relations(cfg)
