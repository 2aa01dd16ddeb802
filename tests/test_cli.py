"""End-to-end checks of the command-line surface, via subprocess."""

import csv
import json
import math
import subprocess
import sys

import pytest

from specfield.fieldgen import (CIRCULAR_GAUSSIAN, REAL_GAUSSIAN,
                                first_axis_ma1, spec_to_json, white_noise)
from specfield.kernels import dirichlet_mod, fejer


def run_cli(*args, **kwargs):
    return subprocess.run([sys.executable, "-m", "specfield", *args],
                          capture_output=True, text=True, **kwargs)


@pytest.fixture
def ma1_spec_file(tmp_path):
    path = tmp_path / "ma1.json"
    path.write_text(spec_to_json(first_axis_ma1(1, REAL_GAUSSIAN, 1.0, 1.0)))
    return str(path)


@pytest.fixture
def clt_config_file(tmp_path):
    def write(seed=2024, delta=0.25, name="cfg.json", drop=None):
        doc = {
            "spec": json.loads(spec_to_json(white_noise(1, CIRCULAR_GAUSSIAN, 1.0))),
            "dims": [16],
            "scheme": {"base": [math.pi / 2], "m": 2, "delta": delta},
            "R": 50,
            "seed": seed,
            "q": 0.2,
            "weights": [1.0, 0.0, 1.0, 0.0],
        }
        if drop:
            del doc[drop]
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    return write


def test_help_exits_zero():
    proc = run_cli("--help")
    assert proc.returncode == 0
    assert "subcommand" in proc.stdout


def test_version():
    proc = run_cli("--version")
    assert proc.returncode == 0
    assert proc.stdout.startswith("specfield ")


def test_no_subcommand_is_usage_error():
    proc = run_cli()
    assert proc.returncode == 64


def test_unknown_subcommand_is_usage_error():
    proc = run_cli("frobnicate")
    assert proc.returncode == 64
    assert "usage" in proc.stderr


def test_kernels_values():
    proc = run_cli("kernels", "--alpha", "1.0", "--n", "5")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["fejer"] == fejer(1.0, 5)
    d = dirichlet_mod(1.0, 5)
    assert doc["dirichlet"] == {"re": d.real, "im": d.imag}


def test_kernels_nan_is_refused():
    proc = run_cli("kernels", "--alpha", "nan", "--n", "5")
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1


def test_import_loads_no_scipy():
    code = "import sys, specfield; assert 'scipy' not in sys.modules"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_periodogram_runs(ma1_spec_file):
    proc = run_cli("periodogram", "--spec", ma1_spec_file, "--dims", "32",
                   "--freq", "0.7", "--seed", "3")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    s = complex(doc["S"]["re"], doc["S"]["im"])
    assert doc["I"] == pytest.approx(abs(s) ** 2 / 32, abs=1e-12)


def test_expectation_exact_and_quadrature(ma1_spec_file):
    proc = run_cli("expectation", "--spec", ma1_spec_file, "--dims", "2",
                   "--freq", "0", "--quadrature", "8")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    # E I at frequency 0 for the (1,1) moving average on a 2-point box:
    # lag sum (1 - 0/2)*2 + (1 - 1/2)*(1 + 1) = 3
    assert doc["exact"] == pytest.approx(3.0, abs=1e-12)
    assert doc["quadrature"] == pytest.approx(3.0, abs=1e-9)


def test_expectation_report_csv(ma1_spec_file, tmp_path):
    out = tmp_path / "report.csv"
    proc = run_cli("expectation", "--spec", ma1_spec_file,
                   "--report-csv", str(out), "--dims-sequence", "4;8",
                   "--grid", "64")
    assert proc.returncode == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["v"] for r in rows] == ["4", "8"]
    # sup |E I - f| for the triangular-weight bias of the (1,1) filter is 2/v1
    assert float(rows[0]["sup_err"]) == pytest.approx(0.5, abs=1e-9)
    assert float(rows[1]["sup_err"]) == pytest.approx(0.25, abs=1e-9)


def test_covariance_circular_product_vanishes(tmp_path):
    path = tmp_path / "circ.json"
    path.write_text(spec_to_json(first_axis_ma1(1, CIRCULAR_GAUSSIAN, 1.0, 0.5)))
    proc = run_cli("covariance", "--spec", str(path), "--dims", "8",
                   "--freq", "0.5", "--freq2", "1.1")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["product"] == {"re": 0.0, "im": 0.0, "abs": 0.0}
    assert doc["covariance"]["abs"] > 0.0


def test_blocking_plan(tmp_path):
    profile = tmp_path / "profile.json"
    profile.write_text(json.dumps({"values": {"4": 0.25}}))
    proc = run_cli("blocking-plan", "--v1", "100", "--profile", str(profile),
                   "--q", "0.2")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert (doc["s"], doc["p"], doc["r"]) == (4, 2, 47)
    assert doc["block_first_ranges"][0] == [1, 47]


def test_clt_report_schema_and_determinism(clt_config_file, tmp_path):
    cfg = clt_config_file(seed=2024)
    out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
    assert run_cli("clt-experiment", "--config", cfg, "--out", str(out_a)).returncode == 0
    assert run_cli("clt-experiment", "--config", cfg, "--out", str(out_b)).returncode == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    doc = json.loads(out_a.read_text())
    for key in ("dims", "frequencies", "target_diagonal", "covariance",
                "max_cov_error", "coordinate_ks", "periodogram_ks",
                "max_cross_correlation", "replications", "seed"):
        assert key in doc
    other = clt_config_file(seed=2025, name="cfg2.json")
    out_c = tmp_path / "c.json"
    assert run_cli("clt-experiment", "--config", other, "--out", str(out_c)).returncode == 0
    assert out_a.read_bytes() != out_c.read_bytes()


def test_clt_csv_rows(clt_config_file, tmp_path):
    cfg = clt_config_file()
    out_csv = tmp_path / "raw.csv"
    proc = run_cli("clt-experiment", "--config", cfg, "--out",
                   str(tmp_path / "r.json"), "--csv", str(out_csv))
    assert proc.returncode == 0
    with open(out_csv, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["replication", "s1_re", "s1_im", "i1", "s2_re", "s2_im", "i2"]
    assert len(rows) == 51  # header + R


def test_bad_delta_names_the_bound(clt_config_file):
    cfg = clt_config_file(delta=0.7, name="bad.json")
    proc = run_cli("clt-experiment", "--config", cfg)
    assert proc.returncode == 1
    assert "0 < delta < 1/2" in proc.stderr


def test_malformed_json_reports_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "spec": ,\n}')
    proc = run_cli("clt-experiment", "--config", str(path))
    assert proc.returncode == 1
    assert "line 2" in proc.stderr and "column" in proc.stderr


def test_missing_config_field(clt_config_file):
    cfg = clt_config_file(name="partial.json", drop="seed")
    proc = run_cli("clt-experiment", "--config", cfg)
    assert proc.returncode == 1
    assert "missing required field" in proc.stderr


def test_malformed_config_shapes_exit_one(clt_config_file, tmp_path):
    with open(clt_config_file()) as fh:
        doc = json.load(fh)
    inputs = [("list.json", [1, 2]), ("scheme.json", dict(doc, scheme=5)),
              ("weights.json", dict(doc, weights=5))]
    for name, content in inputs:
        path = tmp_path / name
        path.write_text(json.dumps(content))
        proc = run_cli("clt-experiment", "--config", str(path))
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert len(proc.stderr.splitlines()) == 1
        assert "malformed config document" in proc.stderr


def test_miller_single_replication_is_refused(clt_config_file):
    path = clt_config_file()
    with open(path) as fh:
        doc = json.load(fh)
    doc["R"] = 1
    with open(path, "w") as fh:
        json.dump(doc, fh)
    proc = run_cli("miller", "--config", path)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1
    assert "need at least 2 replications" in proc.stderr


def test_miller_table(clt_config_file):
    cfg = clt_config_file()
    proc = run_cli("miller", "--config", cfg)
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert len(doc["rows"]) == 1
    assert doc["rows"][0]["dims"] == [16]
    assert doc["rows"][0]["target"] == pytest.approx(1.0)  # f/2 * ||(1,0,1,0)||^2


def test_negligibility_table(clt_config_file, tmp_path):
    cfg = clt_config_file()
    out_csv = tmp_path / "neg.csv"
    proc = run_cli("negligibility", "--config", cfg, "--csv", str(out_csv))
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["rows"][0]["v1"] == 16
    with open(out_csv, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1 and rows[0]["v1"] == "16"


def test_mixing_estimate_feeds_blocking_plan(ma1_spec_file, tmp_path):
    profile = tmp_path / "estimated.json"
    proc = run_cli("mixing-estimate", "--spec", ma1_spec_file, "--window", "1",
                   "--set-size", "1", "--n-max", "2", "--out", str(profile))
    assert proc.returncode == 0
    doc = json.loads(profile.read_text())
    assert doc["values"]["1"] == pytest.approx(0.5, abs=1e-12)
    assert doc["values"]["2"] == 0.0
    follow = run_cli("blocking-plan", "--v1", "1000", "--profile", str(profile),
                     "--q", "0.2")
    assert follow.returncode == 0
    assert json.loads(follow.stdout)["s"] == 10


def _assert_one_line_refusal(proc, needle):
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1
    assert needle in proc.stderr


@pytest.mark.parametrize("path, value, field", [
    (("R",), 2.9, "'R'"),
    (("R",), True, "'R'"),
    (("seed",), 3.7, "'seed'"),
    (("scheme", "m"), 2.0, "'scheme.m'"),
    (("scheme", "axis"), False, "'scheme.axis'"),
], ids=["R-float", "R-bool", "seed-float", "m-float", "axis-bool"])
def test_config_integer_fields_refuse_floats_and_bools(clt_config_file, path, value,
                                                       field):
    cfg = clt_config_file()
    with open(cfg) as fh:
        doc = json.load(fh)
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    with open(cfg, "w") as fh:
        json.dump(doc, fh)
    _assert_one_line_refusal(run_cli("miller", "--config", cfg), field)


@pytest.mark.parametrize("doc", [
    {"values": {"4": [0.25]}},
    {"values": {"4": 0.25}, "dependence_range": [1]},
    {"values": {"4": 0.25}, "dependence_range": 1.5},
    {"values": {"4": 0.25}, "dependence_range": True},
], ids=["value-list", "range-list", "range-float", "range-bool"])
def test_malformed_profile_documents_exit_one(tmp_path, doc):
    profile = tmp_path / "profile.json"
    profile.write_text(json.dumps(doc))
    proc = run_cli("blocking-plan", "--v1", "100", "--profile", str(profile),
                   "--q", "0.2")
    _assert_one_line_refusal(proc, "malformed profile document")


@pytest.mark.parametrize("path, value, message", [
    (("weights", 0), True, "error: field 'weights[0]' must be a real number, got true"),
    (("q",), "0.2", "error: field 'q' must be a real number, got \"0.2\""),
    (("scheme", "delta"), True, "error: field 'scheme.delta' must be a real number, got true"),
], ids=["weight-bool", "q-string", "delta-bool"])
def test_config_real_fields_refuse_bools_and_strings(clt_config_file, path, value,
                                                    message):
    cfg = clt_config_file()
    with open(cfg) as fh:
        doc = json.load(fh)
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    with open(cfg, "w") as fh:
        json.dump(doc, fh)
    proc = run_cli("miller", "--config", cfg)
    _assert_one_line_refusal(proc, message)
    assert proc.stderr.strip() == message


def test_fan_whose_ends_meet_across_pi_is_refused(clt_config_file):
    """At v = 64 and delta = 0.49 the fan -3.1, ..., 2.65 has its ends 0.53
    apart on the circle, inside the 64^(-0.01) = 0.96 gap."""
    cfg = clt_config_file(delta=0.49)
    with open(cfg) as fh:
        doc = json.load(fh)
    doc["dims"] = [64]
    doc["scheme"].update(base=[-3.1], m=4)
    doc["weights"] = [1.0, 0.0] * 4
    with open(cfg, "w") as fh:
        json.dump(doc, fh)
    for cmd in ("clt-experiment", "miller"):
        _assert_one_line_refusal(run_cli(cmd, "--config", cfg),
                                 "violate separation at pair (1, 4)")
