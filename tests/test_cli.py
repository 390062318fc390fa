import numpy as np
import pytest

from dbarlab.cli import main, parse_config, report_convergence
from dbarlab.errors import ValidationError


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
    ("identities", "count", "0"),
    ("solve", "count", "0"),
    ("solve", "count", "many"),
    ("solve", "sigma", "0"),
    ("solve", "sigma", "-0.3"),
    ("regularize", "sigma", "0"),
    ("regularize", "sigma", "nan"),
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
