"""Command-line interface: output formats, context plumbing, exit codes."""

import json

import numpy as np
import pytest

from hardyz.catalog import builtin
from hardyz.chain import z_derivative, z_grid
from hardyz.cli import main
from hardyz.fmtio import fmt15

from oracles import ZETA_ZEROS


def run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_catalog_json_parses(capsys):
    rc, out, _ = run(capsys, ["catalog"])
    assert rc == 0
    rows = json.loads(out)
    assert [r["name"] for r in rows] == ["zeta", "chi3", "chi4", "chi5"]
    rc, out, _ = run(capsys, ["catalog", "--experimental"])
    assert [r["name"] for r in json.loads(out)][-1] == "delta"


def test_eval_on_line_matches_library(capsys):
    rc, out, _ = run(capsys, ["eval", "--datum", "zeta", "--k", "1", "--t", "18.0"])
    assert rc == 0
    lib = z_derivative(builtin("zeta"), 18.0, 1).value
    assert out.strip() == fmt15(lib)


def test_eval_at_complex_point_reports_chain_fields(capsys):
    rc, out, _ = run(capsys, ["eval", "--datum", "zeta", "--k", "2",
                              "--s", "2.0,1.5"])
    assert rc == 0
    payload = json.loads(out)
    assert payload["k"] == 2
    assert set(payload) == {"s", "k", "coeff", "value", "lead_ratio",
                            "tail_ratio", "est_error"}


def test_zeros_csv_file(tmp_path, capsys):
    out_path = tmp_path / "zeros.csv"
    rc, _, _ = run(capsys, ["zeros", "--datum", "zeta", "--k", "0",
                            "--t0", "10", "--t1", "22", "--out", str(out_path)])
    assert rc == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "k,t,residual,bracket_width"
    got = float(lines[1].split(",")[1])
    assert abs(got - ZETA_ZEROS[0]) < 1e-8


def test_zeros_json_format(capsys):
    rc, out, _ = run(capsys, ["zeros", "--datum", "zeta", "--k", "0",
                              "--t0", "10", "--t1", "22", "--format", "json"])
    assert rc == 0
    payload = json.loads(out)
    assert payload["name"] == "zeta"
    assert abs(payload["gammas"][0] - ZETA_ZEROS[0]) < 1e-8


def test_count_json(capsys):
    rc, out, _ = run(capsys, ["count", "--datum", "zeta", "--k", "0", "--T", "50"])
    assert rc == 0
    payload = json.loads(out)
    assert payload["n_line"] == 10
    assert abs(payload["residual"] - 1.0) < 1e-3


def test_interlace_json(capsys):
    rc, out, _ = run(capsys, ["interlace", "--datum", "zeta", "--k", "0",
                              "--t0", "20", "--t1", "40"])
    assert rc == 0
    payload = json.loads(out)
    assert payload["violations"] == 0


def test_contour_prints_integer(capsys):
    rc, out, _ = run(capsys, ["contour", "--datum", "zeta", "--k", "0",
                              "--rect=-0.5,1.5,10,32"])
    assert rc == 0
    assert out.strip() == "4"


def test_mirror_json(capsys):
    rc, out, _ = run(capsys, ["mirror", "--datum", "zeta", "--k", "0",
                              "--t", "100", "--window", "40"])
    assert rc == 0
    payload = json.loads(out)
    assert payload["agree"] is True
    assert payload["lhs"] < 0.0


def test_sample_grid(capsys):
    rc, out, _ = run(capsys, ["sample", "--datum", "zeta", "--k", "0",
                              "--t0", "14", "--t1", "15", "--step", "0.25"])
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,z"
    assert len(lines) == 6
    ref, _ = z_grid(builtin("zeta"), np.array([14.5]), 0)
    assert lines[3].split(",")[1] == fmt15(float(ref[0]))


def test_exit_code_validation_errors(capsys, tmp_path):
    assert run(capsys, ["eval", "--datum", "nope", "--t", "10"])[0] == 2
    assert run(capsys, ["eval", "--datum", "delta", "--t", "10"])[0] == 2
    assert run(capsys, ["zeros", "--datum", "zeta", "--k", "0",
                        "--t0", "1", "--t1", "30"])[0] == 2
    assert run(capsys, ["zeros", "--datum", "zeta", "--t0", "10", "--t1", "12",
                        "--set", "scan_safety=-1"])[0] == 2
    assert run(capsys, ["zeros", "--datum", "zeta", "--t0", "10", "--t1", "12",
                        "--set", "nonsense"])[0] == 2
    # a tolerance finer than the float spacing near t = 500 is refused, not
    # refined forever
    assert run(capsys, ["zeros", "--datum", "zeta", "--t0", "100", "--t1", "102",
                        "--set", "refine_tol=1e-15"])[0] == 2
    # a scan step below the float spacing near t = 10 would never advance
    assert run(capsys, ["zeros", "--datum", "zeta", "--t0", "10", "--t1", "12",
                        "--set", "scan_safety=1e-16"])[0] == 2
    # non-finite context values and points
    for kv in ("refine_tol=nan", "refine_tol=inf", "scan_safety=nan"):
        assert run(capsys, ["zeros", "--datum", "zeta", "--t0", "10", "--t1", "12",
                            "--set", kv])[0] == 2
    assert run(capsys, ["eval", "--datum", "zeta", "--t", "nan"])[0] == 2
    assert run(capsys, ["eval", "--datum", "zeta", "--s", "nan,20"])[0] == 2
    # far outside the evaluation box: refused by the box check before psi
    # would need ~5e19 recurrence steps
    for k in ("0", "2"):
        rc, _, err = run(capsys, ["eval", "--datum", "zeta", "--k", k, "--s", "1e20,1"])
        assert rc == 2 and err.startswith("error: s outside the supported box"), err
    for budget in ("nan", "inf"):
        assert run(capsys, ["mirror", "--datum", "zeta", "--t", "100", "--window", "10",
                            "--budget", budget])[0] == 2
    for t, window, name in (("nan", "10", "t"), ("100", "nan", "window")):
        rc, _, err = run(capsys, ["mirror", "--datum", "zeta", "--t", t, "--window", window])
        assert rc == 2 and err.startswith(f"error: {name} must be finite"), err
    # malformed values are reported, not raised as tracebacks
    assert run(capsys, ["zeros", "--datum", "zeta", "--t0", "10", "--t1", "12",
                        "--set", "scan_safety=abc"])[0] == 2
    assert run(capsys, ["eval", "--datum", "zeta", "--s", "1,2,3"])[0] == 2
    for step in ("0", "nan"):
        assert run(capsys, ["sample", "--datum", "zeta", "--t0", "14", "--t1", "15",
                            "--step", step])[0] == 2
    # grids numpy refuses at once: 4.9e14 points (MemoryError) and 4.9e302
    # (ValueError)
    for step in ("1e-12", "1e-300"):
        rc, _, err = run(capsys, ["sample", "--datum", "zeta", "--t0", "10", "--t1", "500",
                                  "--step", step])
        assert rc == 2 and err.startswith("error:"), step
    assert run(capsys, ["contour", "--datum", "zeta", "--rect=a,b,c,d"])[0] == 2
    rc, _, err = run(capsys, ["contour", "--datum", "zeta", "--rect=nan,1,10,20"])
    assert rc == 2 and err.startswith("error: sigma_min must be finite, got nan"), err
    rc, _, err = run(capsys, ["zeros", "--datum", "zeta", "--t0", "10", "--t1", "12",
                              "--config", str(tmp_path / "missing.cfg")])
    assert rc == 2 and err.startswith("error:")
    rc, _, err = run(capsys, ["zeros", "--datum", "zeta", "--t0", "10", "--t1", "12",
                              "--out", str(tmp_path / "missing" / "x.csv")])
    assert rc == 2 and err.startswith("error:")


def test_jobs_flag_is_gone():
    for argv in (["zeros", "--t0", "10", "--t1", "20"], ["interlace", "--t0", "20", "--t1", "40"],
                 ["count", "--T", "50"], ["mirror", "--t", "100", "--window", "40"],
                 ["sample", "--t0", "14", "--t1", "15", "--step", "0.25"]):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--datum", "zeta", "--jobs", "2"])
        assert exc.value.code == 2


def test_fixed_settings_are_not_context_fields(capsys):
    for kv in ("cauchy_radius=0.2", "cauchy_nodes=32", "abs_tol=1e-10", "em_bernoulli=12",
               "sigma_right_base=6", "sigma_right_step=2", "em_cutoff=20", "em_scale=1",
               "exclusion_radius=0.1"):
        rc, _, err = run(capsys, ["zeros", "--datum", "zeta", "--t0", "10", "--t1", "12",
                                  "--set", kv])
        assert rc == 2 and "unknown context fields" in err


def test_policy_flags_only_on_scanning_subcommands():
    # eval, contour and sample take no scan policy, so they take no flag for it
    for argv in (["eval", "--t", "18"], ["contour", "--rect=-2,3,20,40"],
                 ["sample", "--t0", "14", "--t1", "15", "--step", "0.25"]):
        for flag in (["--set", "refine_tol=1e-10"], ["--config", "policy.cfg"]):
            with pytest.raises(SystemExit) as exc:
                main(argv + ["--datum", "zeta"] + flag)
            assert exc.value.code == 2


def test_exit_code_inconclusive(capsys):
    rc, _, err = run(capsys, ["contour", "--datum", "zeta", "--k", "0",
                              "--rect=-0.5,1.5,14.134725141734694,32"])
    assert rc == 3
    assert "inconclusive" in err


def test_config_file_and_overrides(tmp_path, capsys):
    cfg = tmp_path / "policy.cfg"
    cfg.write_text("scan_safety = 0.125  # finer scan\nrefine_tol = 1e-10\n")
    zeros = ["zeros", "--datum", "zeta", "--t0", "10", "--t1", "12"]
    rc, out, _ = run(capsys, zeros + ["--config", str(cfg)])
    assert rc == 0
    # --set wins over the file; invalid merged value fails cleanly
    rc2, _, _ = run(capsys, zeros + ["--config", str(cfg), "--set", "refine_tol=1e-11"])
    assert rc2 == 0
    rc3, _, _ = run(capsys, zeros + ["--config", str(cfg), "--set", "scan_safety=0.9"])
    assert rc3 == 2
    bad = tmp_path / "bad.cfg"
    bad.write_text("scan_safety = fast\n")
    rc4, _, err = run(capsys, zeros + ["--config", str(bad)])
    assert rc4 == 2 and "scan_safety" in err


def test_repeat_invocations_byte_identical(capsys):
    a = run(capsys, ["count", "--datum", "zeta", "--k", "0", "--T", "50"])
    b = run(capsys, ["count", "--datum", "zeta", "--k", "0", "--T", "50"])
    assert a == b


def test_experimental_flag_unlocks_delta(capsys):
    rc, out, _ = run(capsys, ["eval", "--datum", "delta", "--experimental",
                              "--k", "0", "--t", "20.0"])
    assert rc == 0
    assert out.strip() == fmt15(z_derivative(
        builtin("delta", experimental=True), 20.0, 0).value)
