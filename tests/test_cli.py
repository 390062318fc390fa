import csv
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dbarlab import cli
from dbarlab.cli import main, parse_config, report_convergence
from dbarlab.errors import ValidationError
from dbarlab.grid import GridSpec
from dbarlab.weights import random_band_limited

import positivity_reference

ROOT = Path(__file__).resolve().parent.parent


def write_config(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


BASE = """
[domain]
n = 1
N = 16
L = 8.0

[metric]
catalog = gaussian
c = 1.0

[operation]
name = identities
count = 5

[tolerances]
identity = 1.0
integrated = 1.0

[random]
seed = 99
"""


def test_parse_config_round_trip(tmp_path):
    cfg = parse_config(write_config(tmp_path, BASE))
    assert (cfg.n, cfg.N, cfg.L) == (1, 16, 8.0)
    assert cfg.operation == "identities"
    assert cfg.seed == 99


def test_missing_field_names_the_field(tmp_path):
    broken = BASE.replace("N = 16\n", "")
    with pytest.raises(ValidationError) as err:
        parse_config(write_config(tmp_path, broken))
    assert "'N'" in str(err.value)


def test_malformed_line_rejected(tmp_path):
    with pytest.raises(ValidationError):
        parse_config(write_config(tmp_path, BASE + "\nstray token\n"))


def test_unknown_operation_rejected(tmp_path):
    with pytest.raises(ValidationError):
        parse_config(write_config(tmp_path, BASE.replace("identities", "mystery")))


def test_negative_tolerance_rejected(tmp_path):
    with pytest.raises(ValidationError):
        parse_config(write_config(tmp_path, BASE + "\n[tolerances]\nbad = -1\n"))


def test_cli_missing_config_exits_one(tmp_path):
    assert main(["identities", "--config", str(tmp_path / "nope.cfg")]) == 1


def test_cli_identities_small_run(tmp_path):
    cfg = write_config(tmp_path, BASE)
    out = tmp_path / "out"
    assert main(["identities", "--config", str(cfg), "--out", str(out)]) == 0
    text = (out / "identities.csv").read_text()
    assert text.splitlines()[0].startswith("check,verifies")
    assert "constants-lemma" in text


def test_cli_identities_two_dimensional(tmp_path):
    text = BASE.replace("n = 1", "n = 2").replace(
        "[tolerances]\nidentity = 1.0\nintegrated = 1.0",
        "[tolerances]\nidentity = 1.0\nintegrated = 1.0",
    ).replace("count = 5", "count = 2")
    cfg = write_config(tmp_path, text)
    out = tmp_path / "out2d"
    assert main(["identities", "--config", str(cfg), "--out", str(out)]) == 0
    report = (out / "identities.csv").read_text()
    # per-identity residual rows for both (2,1) and (2,2)
    assert report.count("hodge-star-reconstruction") == 2
    assert "bk-pointwise" in report


def _default_draw_modes(N):
    """Modes per axis that a default band-limited draw keeps, read off its spectrum."""
    field = random_band_limited(GridSpec(1, N, 8.0), np.random.default_rng(0))
    spectrum = np.abs(np.fft.fft2(field)).max(axis=1)
    return int(np.count_nonzero(spectrum > 1e-9 * spectrum.max()))


@pytest.mark.parametrize("n, N, count", [
    (1, 8, 1), (1, 16, 100), (1, 64, 200), (1, 128, 7), (1, 512, 3),
    (2, 8, 1), (2, 16, 5), (2, 32, 2), (2, 64, 1),
])
def test_suite_draws_cover_the_band_limited_coefficients(n, N, count):
    grid = GridSpec(n, N, 8.0)
    suite = cli._suite_grid(grid)
    points = suite.N ** (2 * n)
    assert suite.N <= N and points <= cli.SUITE_POINTS
    # the largest such grid
    assert 2 * suite.N > N or (2 * suite.N) ** (2 * n) > cli.SUITE_POINTS
    samples = cli._suite_samples(grid, suite, count)
    needed = count * _default_draw_modes(N) ** (2 * n)
    assert samples * points >= needed > (samples - 1) * points


@pytest.mark.parametrize("path, suite_N, samples", [
    (ROOT / "configs" / "identities.cfg", 64, 15),
    (ROOT / "perfbench" / "configs" / "identities-n2.cfg", 8, 4),
], ids=["identities", "identities-n2"])
def test_shipped_identities_suites_cover_their_counts(path, suite_N, samples):
    cfg = parse_config(path)
    grid = GridSpec(cfg.n, cfg.N, cfg.L)
    suite = cli._suite_grid(grid)
    assert (suite.N, cli._suite_samples(grid, suite, cfg.count)) == (suite_N, samples)
    assert samples * suite_N ** (2 * cfg.n) >= cfg.count * _default_draw_modes(cfg.N) ** (2 * cfg.n)


@pytest.mark.parametrize("n", [1, 2])
def test_suite_metric_and_curvature_keep_the_h_symmetry(n):
    rng = np.random.default_rng(40 + n)
    grid = cli._suite_grid(GridSpec(n, 32, 8.0))
    weight = cli._random_metric(grid, 1, rng).mat[..., 0, 0]
    assert weight.real.min() > 0 and weight.real.std() > 0.5
    h = cli._random_metric(grid, 2, rng)
    assert np.abs(h.mat[..., 0, 1]).min() > 0
    assert np.linalg.eigvalsh(h.mat).min() > 1 - 1e-12
    theta = cli._random_symmetric_curvature(h, rng)
    assert positivity_reference.hermitian_defect(theta, h) <= 1e-13


@pytest.mark.parametrize("rank", [1, 2])
@pytest.mark.parametrize("n", [1, 2])
def test_algebraic_rows_pass_on_the_suite_grid(n, rank):
    rows = cli._algebraic_rows(GridSpec(n, 16, 8.0), rank, 2, 1e-12, np.random.default_rng(7))
    assert [row[3] for row in rows] == [1] * 4 + ([] if n == 1 else [2] * 4)
    assert {row[4] for row in rows} == {16 if n == 1 else 8}
    assert all(row[-1] == 1 for row in rows), rows


def test_cli_subcommand_config_mismatch(tmp_path):
    cfg = write_config(tmp_path, BASE)
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1


def test_cli_flat_weight_fails_hormander_check(tmp_path):
    # c = 0 gives a flat metric with no positive floor: the bound check must
    # fail by name with exit code 2
    text = BASE.replace("name = identities", "name = solve\ncount = 2\nsweep = 0").replace(
        "c = 1.0", "c = 0"
    )
    cfg = write_config(tmp_path, text)
    out = tmp_path / "out2"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 2
    report = (out / "solve.csv").read_text()
    failing = [line for line in report.splitlines() if line.endswith(",0")]
    assert any("hormander-bound" in line for line in failing)


def test_cli_reproducibility_byte_identical(tmp_path):
    cfg = write_config(tmp_path, BASE)
    out1 = tmp_path / "r1"
    out2 = tmp_path / "r2"
    assert main(["identities", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["identities", "--config", str(cfg), "--out", str(out2)]) == 0
    assert (out1 / "identities.csv").read_bytes() == (out2 / "identities.csv").read_bytes()


def test_cli_seed_override_changes_report(tmp_path):
    # solve sources are seeded through their random centers, so a different
    # seed must change the measured ratios
    text = BASE.replace("name = identities\ncount = 5", "name = solve\ncount = 2\nsweep = 1")
    text = text.replace("[tolerances]\nidentity = 1.0\nintegrated = 1.0",
                        "[tolerances]\nsolve_residual = 1.0\nhormander = 10.0")
    cfg = write_config(tmp_path, text.replace("N = 16", "N = 32"))
    out1 = tmp_path / "s1"
    out2 = tmp_path / "s2"
    main(["solve", "--config", str(cfg), "--out", str(out1)])
    main(["solve", "--config", str(cfg), "--out", str(out2), "--seed", "123"])
    assert (out1 / "solve.csv").read_bytes() != (out2 / "solve.csv").read_bytes()


@pytest.mark.parametrize("op, field, value", [
    ("regularize", "nu_max", "2"),
    ("regularize", "nu_max", "9"),
    ("regularize", "eps0", "0.1"),
    ("identities", "count", "0"),
    ("solve", "count", "0"),
    ("solve", "count", "many"),
    ("solve", "sigma", "0"),
    ("solve", "sigma", "-0.3"),
    ("regularize", "sigma", "0"),
    ("regularize", "sigma", "nan"),
    ("regularize", "sigma", "0.6"),
    ("solve", "sweep", "1,x"),
    ("solve", "sweep", ""),
    ("solve", "spread", "9"),
    ("convergence", "resolutions", "16,x"),
    ("convergence", "resolutions", ""),
    ("convergence", "slope", "nan"),
])
def test_cli_rejects_crashing_operation_field(tmp_path, capsys, op, field, value):
    text = BASE.replace("name = identities\ncount = 5", f"name = {op}\n{field} = {value}")
    cfg = write_config(tmp_path, text)
    assert main([op, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert f"{field!r}" in err and "Traceback" not in err


@pytest.mark.parametrize("section, field, value", [
    ("domain", "seam_margin", "-0.2"),
    ("domain", "seam_margin", "0.6"),
    ("domain", "seam_margin", "nan"),
    ("domain", "seam_margin", "wide"),
    ("tolerances", "identity", "nan"),
])
def test_cli_rejects_bad_margin_or_tolerance(tmp_path, capsys, section, field, value):
    text = BASE.replace(f"[{section}]\n", f"[{section}]\n{field} = {value}\n", 1)
    if section == "tolerances":
        text = text.replace("identity = 1.0\n", "")
    cfg = write_config(tmp_path, text)
    assert main(["identities", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert f"{field!r}" in err and "Traceback" not in err


def test_cli_metric_not_positive_exits_two_without_traceback(tmp_path, capsys, monkeypatch):
    import dbarlab.cli as cli
    from dbarlab.metric import MetricField

    real_metric_for = cli._metric_for

    def indefinite_metric_for(cfg, grid, c=None):
        cat = real_metric_for(cfg, grid, c)
        mat = cat.metric.mat.copy()
        mat[(grid.N // 2,) * 2] *= -1.0
        cat.metric = MetricField(grid, cat.metric.rank, mat)
        return cat

    monkeypatch.setattr(cli, "_metric_for", indefinite_metric_for)
    text = BASE.replace("name = identities\ncount = 5", "name = positivity")
    cfg = write_config(tmp_path, text)
    assert main(["positivity", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "not positive" in err and "Traceback" not in err


def test_report_convergence_slope_and_rules():
    fit = report_convergence([(16, 1e-1), (32, 1e-3), (64, 1e-5)])
    assert fit["slope"] == pytest.approx(np.log(1e-5 / 1e-1) / np.log(4.0), rel=1e-6)
    assert not fit["saturated"]
    flat = report_convergence([(16, 0.5), (32, 0.5), (64, 0.5)])
    assert flat["slope"] == pytest.approx(0.0, abs=1e-12)
    saturated = report_convergence([(16, 1e-10), (32, 1e-14), (64, 1e-14)])
    assert saturated["saturated"]
    with pytest.raises(ValidationError):
        report_convergence([(16, 0.1), (32, 0.01)])


@pytest.mark.parametrize("op, field, value", [
    ("identities", "c", "one"),
    ("identities", "rank", "2.5"),
    ("positivity", "c", "nan"),
    ("positivity", "c", "inf"),
    ("positivity", "rank", "0"),
    ("positivity", "r0", "0"),
    ("positivity", "s", "-1"),
])
def test_cli_rejects_bad_metric_number(tmp_path, capsys, op, field, value):
    # c = nan used to report nan floors as passed, r0 = 0 silently took the
    # default radius and s = -1 gave a Nakano floor of -85.7.  The inserted
    # key follows c = 1.0 and overrides it when it is c.
    text = BASE.replace("name = identities\ncount = 5", f"name = {op}").replace(
        "c = 1.0\n", f"c = 1.0\n{field} = {value}\n"
    )
    cfg = write_config(tmp_path, text)
    assert main([op, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert f"{field!r}" in err or f"{field}=" in err


@pytest.mark.parametrize("op, line, replacement, field", [
    ("identities", "n = 1", "n = 3", "n"),
    ("identities", "N = 16", "N = 12", "N"),
    ("identities", "L = 8.0", "L = -1", "L"),
    ("identities", "L = 8.0", "L = nan", "L"),
    ("identities", "catalog = gaussian", "catalog = mystery", "catalog"),
    ("convergence", "count = 5", "resolutions = 12,16,32", "resolutions"),
])
def test_cli_names_rejected_domain_or_list_value(tmp_path, capsys, op, line, replacement, field):
    # each of these used to exit 1 with the grid's or the catalog's own
    # message, which names no config field (resolutions named N)
    text = BASE.replace("name = identities", f"name = {op}").replace(line, replacement)
    cfg = write_config(tmp_path, text)
    assert main([op, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert f"{field!r}" in err and "Traceback" not in err


@pytest.mark.parametrize("op, text, named", [
    ("solve", BASE.replace("name = identities\ncount = 5", "name = solve\ncount = 1\nsweep = 1")
     .replace("integrated = 1.0", "hormandr = 1e-7"), "'hormandr'"),
    ("identities", BASE.replace("count = 5", "cuont = 0"), "'cuont'"),
    ("identities", BASE.replace("integrated = 1.0", "algebriac = 1e-30"), "'algebriac'"),
    ("identities", BASE.replace("[tolerances]", "[tolerance]"), "[tolerance]"),
], ids=["hormandr", "cuont", "algebriac", "tolerance-section"])
def test_cli_rejects_unknown_field_or_section(tmp_path, capsys, op, text, named):
    # a misspelled key or section used to be ignored, so its default ran
    cfg = write_config(tmp_path, text)
    assert main([op, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert named in err and "Traceback" not in err


def test_parse_config_accepts_a_known_field_the_operation_does_not_read(tmp_path):
    text = BASE.replace("name = identities", "name = positivity\nsweep = 1,2")
    cfg = parse_config(write_config(tmp_path, text))
    assert (cfg.operation, cfg.count, cfg.sweep) == ("positivity", 5, (1.0, 2.0))


def test_metric_gaussian_rank_two_honours_budget(tmp_path):
    # the rank-2 gaussian used to ignore budget: r0 = 0.874 against 0.225
    import dbarlab.cli as cli
    from dbarlab.grid import GridSpec
    from dbarlab.singular import singular_catalog

    text = BASE.replace("c = 1.0\n", "c = 1.0\nrank = 2\nbudget = 3\n")
    grid = GridSpec(1, 16, 8.0)
    cat = cli._metric_for(parse_config(write_config(tmp_path, text)), grid)
    rank_one = singular_catalog("gaussian", grid, c=1.0, budget=3.0)
    assert cat.metric.rank == 2
    assert cat.plateau_radius == rank_one.plateau_radius
    assert np.array_equal(cat.metric.mat[..., 1, 1], rank_one.metric.mat[..., 0, 0])


def test_cli_flat_gaussian_rank_two_runs(tmp_path):
    # c = 0 at rank 2 used to exit 1 on a profile sized for c = 0; rank 1 ran
    # the flat member, and so does rank 2 now
    import dbarlab.cli as cli
    from dbarlab.grid import GridSpec

    text = BASE.replace("c = 1.0\n", "c = 0\nrank = 2\n")
    cfg = write_config(tmp_path, text)
    cat = cli._metric_for(parse_config(cfg), GridSpec(1, 16, 8.0))
    assert np.array_equal(cat.metric.mat, np.broadcast_to(np.eye(2), cat.metric.mat.shape))
    assert main(["identities", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0


def test_cli_solve_rank_two_matches_rank_one(tmp_path):
    # solve used to build its source at rank 1 whatever the metric's rank, so
    # the rank-2 gaussian exited 2 on a metric that did not match the source;
    # that metric is the rank-1 weight on both components and the source
    # fills the first, so the bound rows are rank 1's
    text = BASE.replace("name = identities\ncount = 5", "name = solve\ncount = 2\nsweep = 1,2")
    bound_rows = {}
    for rank in (1, 2):
        cfg = write_config(tmp_path, text.replace("c = 1.0\n", f"c = 1.0\nrank = {rank}\n"),
                           f"rank{rank}.cfg")
        out = tmp_path / f"o{rank}"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
        with open(out / "solve.csv", newline="", encoding="utf-8") as fh:
            bound_rows[rank] = {row["check"]: float(row["value"]) for row in csv.DictReader(fh)
                                if row["check"].startswith("hormander-bound")}
    assert len(bound_rows[1]) == 4 and bound_rows[2].keys() == bound_rows[1].keys()
    for check, value in bound_rows[1].items():
        assert abs(bound_rows[2][check] - value) <= 1e-12 * abs(value)


@pytest.mark.parametrize("op, catalog, code", [
    ("positivity", "log_pole", 0),
    ("positivity", "log_pole_pair", 0),
    ("solve", "log_pole", 0),
    # the pair's second pole stays at its fixed offset2, inside the certified
    # region: the c = 1 floor there is -19.6, so that entry claims no bound
    # and its three bound rows fail; the sweep's c = 2 and c = 4 entries pass
    ("solve", "log_pole_pair", 2),
])
def test_cli_log_pole_metrics_pass_the_default_symmetry_check(tmp_path, capsys, op, catalog,
                                                              code):
    # the catalog builds its log-pole metrics as plain positive diagonal
    # matrices; only a curvature from their derived exponents passes the
    # default 1e-6 block-symmetry check (h^{-1} dh misses it by 1e3 or more)
    text = (ROOT / "configs" / f"{op}.cfg").read_text(encoding="utf-8")
    text = text.replace("catalog = gaussian",
                        f"catalog = {catalog}\noffset_re = 1.5\noffset_im = 1.5")
    cfg = write_config(tmp_path, text.replace("count = 20", "count = 3"))
    out = tmp_path / "o"
    assert main([op, "--config", str(cfg), "--out", str(out)]) == code
    assert "symmetry" not in capsys.readouterr().err
    with open(out / f"{op}.csv", newline="", encoding="utf-8") as fh:
        rows = {row["check"]: row for row in csv.DictReader(fh)}
    failed = {check for check, row in rows.items() if row["passed"] != "1"}
    if code == 0:
        assert not failed
    else:
        assert failed == {f"hormander-bound-c1-{idx:02d}" for idx in range(3)}
        assert float(rows["certified-floor-c1"]["value"]) < 0


def test_cli_solve_reads_the_symmetry_tolerance(tmp_path, capsys):
    # solve took its curvature floors at the fixed default symmetry
    # tolerance, so the nondiagonal rank-2 metric, whose spectral curvature
    # misses block symmetry by 2.7e-4 at N = 64, could not be solved; with
    # [tolerances] symmetry = 1e-3 its floor certifies and the bound holds
    text = (ROOT / "configs" / "solve.cfg").read_text(encoding="utf-8")
    text = text.replace("catalog = gaussian", "catalog = matrix_psh_dual").replace(
        "count = 20", "count = 3").replace("sweep = 1,2,4", "sweep = 1")
    cfg = write_config(tmp_path, text)
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "symmetry: 2.736e-04 vs scale 5.012e-01" in capsys.readouterr().err
    cfg = write_config(tmp_path, text.replace("[tolerances]", "[tolerances]\nsymmetry = 1e-3"))
    out = tmp_path / "o"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
    with open(out / "solve.csv", newline="", encoding="utf-8") as fh:
        rows = {row["check"]: float(row["value"]) for row in csv.DictReader(fh)}
    assert abs(rows["certified-floor-c1"] - 0.24919) < 1e-5
    bounds = [value for check, value in rows.items() if check.startswith("hormander-bound")]
    assert len(bounds) == 3 and all(0.147 < value < 0.150 for value in bounds)


def test_cli_solve_seam_leakage_uses_seam_margin(tmp_path):
    # seam_leakage used to be measured on the solver's default band of 0.125
    # whatever the config said; the certified floors do not move with it here
    text = BASE.replace("name = identities\ncount = 5", "name = solve\ncount = 1\nsweep = 1")
    leaks, reports = [], []
    for margin in ("0.125", "0.25"):
        cfg = write_config(tmp_path, text.replace("L = 8.0", f"L = 8.0\nseam_margin = {margin}"))
        out = tmp_path / f"o{margin}"
        main(["solve", "--config", str(cfg), "--out", str(out)])
        header, row = (out / "solve_reports.csv").read_text().splitlines()
        leaks.append(float(row.split(",")[header.split(",").index("seam_leakage")]))
        reports.append((out / "solve.csv").read_bytes())
    assert reports[0] == reports[1]
    assert leaks[1] > leaks[0]


def test_cli_solve_zero_sampled_source_exits_without_traceback(tmp_path, capsys):
    # a bump narrower than the grid spacing can sample to zero; the bound
    # check used to divide by its zero norm
    text = BASE.replace("name = identities\ncount = 5",
                        "name = solve\ncount = 1\nsweep = 1\nsigma = 0.03125").replace(
        "seed = 99", "seed = 7")
    cfg = write_config(tmp_path, text)
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) in (0, 2)
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("sweep", ["1", "1,2"])
def test_cli_solve_zero_sampled_source_fails_its_bound_row(tmp_path, capsys, sweep):
    # the zero source meets its bound vacuously; the row must fail, not pass
    # with value 0, and a sweep whose mean ratio is 0 must not divide by it
    text = BASE.replace("name = identities\ncount = 5",
                        f"name = solve\ncount = 1\nsweep = {sweep}\nsigma = 0.03125").replace(
        "seed = 99", "seed = 7")
    cfg = write_config(tmp_path, text)
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "Traceback" not in capsys.readouterr().err
    with open(tmp_path / "o" / "solve.csv", newline="", encoding="utf-8") as fh:
        rows = {row["check"]: row for row in csv.DictReader(fh)}
    assert float(rows["hormander-bound-c1-00"]["value"]) == 0.0
    assert rows["hormander-bound-c1-00"]["passed"] == "0"


def test_cli_regularize_without_certified_region_names_the_fields(tmp_path, capsys):
    # at N = 32 every point of the half-r0 box lies within eps0 + 3 spacings
    # of the pole, so no curvature floor can be certified at the first radius
    shipped = Path(__file__).resolve().parent.parent / "perfbench" / "configs"
    text = (shipped / "regularize-n1.cfg").read_text(encoding="utf-8")
    text = text.replace("N = 64", "N = 32").replace("nu_max = 8", "nu_max = 3")
    cfg = write_config(tmp_path, text)
    assert main(["regularize", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    for field in ("eps0", "offset_re", "offset_im", "r0"):
        assert field in err


def test_cli_rank_that_the_catalog_does_not_fix_exits_one(tmp_path, capsys):
    # log_pole is rank 1; rank = 3 used to run the algebraic rows at rank 3
    # and the Bochner-Kodaira rows at rank 1 without a word
    text = BASE.replace("catalog = gaussian\n", "catalog = log_pole\nrank = 3\n")
    cfg = write_config(tmp_path, text)
    assert main(["identities", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "'rank'" in err and "catalog=log_pole" in err and "Traceback" not in err


def test_rank_defaults_to_the_catalog_rank(tmp_path):
    text = BASE.replace("catalog = gaussian\n", "catalog = log_pole_pair\n")
    assert parse_config(write_config(tmp_path, text)).rank == 2
    assert parse_config(write_config(tmp_path, BASE, "gaussian.cfg")).rank == 1


def test_cli_nan_in_an_informational_row_fails_it(tmp_path, capsys, monkeypatch):
    # nakano-floor has no threshold; a NaN floor used to read as a pass
    import dataclasses

    import dbarlab.cli as cli

    real_positivity_report = cli.positivity_report

    def nan_floor(*args, **kwargs):
        return dataclasses.replace(real_positivity_report(*args, **kwargs),
                                   delta_nakano=float("nan"))

    monkeypatch.setattr(cli, "positivity_report", nan_floor)
    text = BASE.replace("name = identities\ncount = 5", "name = positivity")
    cfg = write_config(tmp_path, text)
    assert main(["positivity", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "FAIL nakano-floor" in err and "Traceback" not in err
    with open(tmp_path / "o" / "positivity.csv", newline="") as handle:
        rows = {row["check"]: row for row in csv.DictReader(handle)}
    assert rows["nakano-floor"]["threshold"] == "" and rows["nakano-floor"]["passed"] == "0"
    assert rows["griffiths-floor"]["passed"] == "1"


def test_cli_floor_ordering_threshold_scales_with_a_griffiths_floor_above_one(tmp_path):
    # c = 2 puts the floors at 1.48 on this N = 16 grid, so the threshold's
    # roundoff part is 1e-9 |delta_G|, not 1e-9
    text = BASE.replace("name = identities\ncount = 5", "name = positivity").replace(
        "c = 1.0", "c = 2.0")
    cfg = write_config(tmp_path, text)
    assert main(["positivity", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    with open(tmp_path / "o" / "positivity.csv", newline="") as handle:
        rows = {row["check"]: row for row in csv.DictReader(handle)}
    dg = float(rows["griffiths-floor"]["value"])
    net_error = float(rows["net-refinement"]["value"])
    assert abs(dg) > 1.0
    assert float(rows["floor-ordering"]["threshold"]) == 1e-9 * abs(dg) + net_error


@pytest.mark.parametrize("seed", ["-1", "many"])
def test_cli_seed_override_is_read_through_the_seed_field(tmp_path, capsys, seed):
    # --seed=-1 used to reach PCG64 and end in its ValueError traceback
    shipped = Path(__file__).resolve().parent.parent / "configs" / "positivity.cfg"
    assert main(["positivity", "--config", str(shipped), "--out", str(tmp_path / "o"),
                 f"--seed={seed}"]) == 1
    err = capsys.readouterr().err
    assert "'seed'" in err and "Traceback" not in err


def test_config_that_is_not_utf8_names_the_path(tmp_path, capsys):
    cfg = tmp_path / "utf16.cfg"
    cfg.write_bytes(b"\xff\xfe" + BASE.encode("utf-16-le"))
    with pytest.raises(ValidationError) as err:
        parse_config(cfg)
    assert str(cfg) in str(err.value)
    assert main(["identities", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert str(cfg) in err and "Traceback" not in err


def test_cli_imports_no_scipy_and_its_runs_import_nothing(tmp_path):
    # in a fresh interpreter: the package loads numpy alone, and running each
    # shipped config loads no module the import did not, so no import cost
    # lands inside a run
    script = (
        "import sys\n"
        "import dbarlab.cli as cli\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
        "before = set(sys.modules)\n"
        "codes = [cli.run(cli.parse_config(path), sys.argv[1]) for path in sys.argv[2:]]\n"
        "print(sorted(set(sys.modules) - before))\n"
        "print(codes)\n"
    )
    configs = sorted(str(path) for path in (ROOT / "configs").glob("*.cfg"))
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", script, str(tmp_path), *configs],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    scipy_modules, loaded, codes = done.stdout.splitlines()
    assert scipy_modules == "[]"
    assert loaded == "[]"
    assert codes == str([0] * len(configs))
