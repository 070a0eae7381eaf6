"""CLI contract: exit codes, determinism, config layering, artifacts."""
import json
import subprocess
import sys

import pytest

from liyau.cli import main
from liyau.runio import RunManifest, read_config_file, sha256_of
from liyau.verify import VerificationReport


def run(args, **kw):
    return main([str(a) for a in args], **kw)


# ------------------------------------------------------------ exit codes

def test_no_subcommand_is_usage_error(capsys):
    assert run([]) == 1


def test_missing_required_flag_is_usage_error():
    assert run(["density"]) == 1


@pytest.mark.parametrize("argv", [
    ["verify", "--check", "key", "--samples", "0"],
    ["verify", "--check", "dh", "--samples", "-3"],
    ["verify", "--check", "liyau", "--n-fields", "0"],
    ["fraclap", "--beta", "1", "--pad-factor", "0"],
    ["liyau-const", "--beta", "1", "--nodes", "0"],
    ["sweep", "--steps", "0"],
    ["markov-verify", "--per-decade", "0"],
])
def test_non_positive_count_is_usage_error(argv, tmp_path):
    assert run(argv + ["--outdir", tmp_path]) == 1
    assert not (tmp_path / "manifest.json").exists()


@pytest.mark.parametrize("argv", [
    ["harnack", "--setting", "kn", "--n", "0"],
    ["harnack", "--setting", "kn", "--n", "1"],
    ["markov-verify", "--n", "1"],
    ["verify", "--check", "key", "--seed", "-1"],
])
def test_out_of_range_graph_size_or_seed_is_usage_error(argv, tmp_path):
    assert run(argv + ["--outdir", tmp_path]) == 1
    assert not (tmp_path / "manifest.json").exists()


def test_bad_beta_is_usage_error():
    assert run(["density", "--beta", "2.5"]) == 1
    assert run(["density", "--beta", "0"]) == 1


def test_config_error_is_usage_error(tmp_path):
    assert run(["liyau-const", "--outdir", tmp_path]) == 1
    assert run(["harnack", "--setting", "kn", "--t1", "2", "--t2", "1",
                "--outdir", tmp_path]) == 1
    assert run(["liyau-const", "--sweep", "beta:0.5:0.9",
                "--outdir", tmp_path]) == 1


def test_computation_error_exits_2(tmp_path):
    assert run(["markov-verify", "--graph", tmp_path / "missing.txt",
                "--outdir", tmp_path]) == 2


def test_verification_failure_exits_3(tmp_path):
    # no true inequality fails, so exercise the reporting path directly
    bad = VerificationReport(name="demo")
    bad.add_sample(-1.0, 0.1)
    from liyau.cli import _emit_report
    manifest = RunManifest(config={})
    assert _emit_report(manifest, tmp_path, "demo", bad) == 3
    assert manifest.verdicts["demo"] == "fail"


def test_pass_run_exits_0(tmp_path):
    assert run(["verify", "--check", "key", "--samples", "40",
                "--outdir", tmp_path]) == 0


# ----------------------------------------------------------- determinism

def test_csv_bodies_are_byte_identical_across_runs(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run(["verify", "--check", "key", "--samples", "60",
                    "--seed", "9", "--outdir", out]) == 0
    fa = (a / "verify_key_margins.csv").read_bytes()
    fb = (b / "verify_key_margins.csv").read_bytes()
    assert fa == fb
    assert sha256_of(a / "verify_key_margins.csv") == \
        json.loads((a / "manifest.json").read_text())["files"]["verify_key_margins.csv"]


def test_both_sweep_commands_write_the_same_table(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(["sweep", "--beta-start", "1.4", "--beta-stop", "1.6",
                "--steps", "2", "--outdir", a]) == 0
    assert run(["liyau-const", "--sweep", "beta:1.4:1.6:2",
                "--outdir", b]) == 0
    body = (a / "constant_sweep.csv").read_bytes()
    assert len(body.splitlines()) == 5  # version, comment, header, 2 rows
    assert body == (b / "liyau_const_sweep.csv").read_bytes()


def test_seed_changes_the_table(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    run(["verify", "--check", "key", "--samples", "60", "--seed", "1",
         "--outdir", a])
    run(["verify", "--check", "key", "--samples", "60", "--seed", "2",
         "--outdir", b])
    assert (a / "verify_key_margins.csv").read_bytes() != \
        (b / "verify_key_margins.csv").read_bytes()


# -------------------------------------------------------- config layering

def test_config_file_supplies_defaults(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("samples = 25   # small sweep\nseed = 4\n")
    assert run(["verify", "--check", "key", "--config", cfg,
                "--outdir", tmp_path]) == 0
    report = json.loads((tmp_path / "verify_key_report.json").read_text())
    assert report["n_samples"] == 25
    assert report["seed"] == 4


def test_flags_override_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("samples=25\n")
    assert run(["verify", "--check", "key", "--config", cfg,
                "--samples", "10", "--outdir", tmp_path]) == 0
    report = json.loads((tmp_path / "verify_key_report.json").read_text())
    assert report["n_samples"] == 10


def test_unknown_config_key_is_usage_error(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("nonsense=1\n")
    assert run(["verify", "--check", "key", "--config", cfg,
                "--outdir", tmp_path]) == 1


def test_malformed_config_line_is_usage_error(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("just a line without equals\n")
    assert run(["verify", "--check", "key", "--config", cfg,
                "--outdir", tmp_path]) == 1


def test_read_config_file_parsing(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment only\na = 1\nb=x y  # trailing\n\n")
    assert read_config_file(cfg) == {"a": "1", "b": "x y"}


def test_outdir_env_variable(tmp_path, monkeypatch):
    monkeypatch.setenv("LIYAU_OUTDIR", str(tmp_path / "envout"))
    assert run(["density", "--beta", "1"]) == 0
    assert (tmp_path / "envout" / "profile_b1_d1.json").exists()
    # explicit flag beats the environment
    assert run(["density", "--beta", "1", "--outdir", tmp_path / "flag"]) == 0
    assert (tmp_path / "flag" / "manifest.json").exists()


# -------------------------------------------------------------- artifacts

def test_density_artifacts(tmp_path):
    assert run(["density", "--beta", "1", "--outdir", tmp_path]) == 0
    payload = json.loads((tmp_path / "profile_b1_d1.json").read_text())
    assert payload["mass"] == pytest.approx(1.0, abs=1e-6)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["format"] == "liyau-manifest v1"
    assert "profile_b1_d1.txt" in manifest["files"]
    assert manifest["config"]["subcommand"] == "density"
    assert len(manifest["files"]["profile_b1_d1.txt"]) == 64


def test_fraclap_artifacts(tmp_path):
    assert run(["fraclap", "--beta", "1", "--spacing", "0.05", "--extent",
                "10", "--points", "0,1", "--pad-factor", "2",
                "--outdir", tmp_path]) == 0
    lines = (tmp_path / "fraclap.csv").read_text().splitlines()
    assert lines[0] == "# liyau-csv v1"
    assert lines[1] == "x,quadrature,error,spectral"
    assert len(lines) == 4
    payload = json.loads((tmp_path / "fraclap.json").read_text())
    # coarse demo grid: the two routes agree to the h^2 sampling error
    assert payload["max_rel_gap"] < 2e-3


def test_liyau_const_artifacts(tmp_path):
    assert run(["liyau-const", "--beta", "1", "--y-max", "20", "--nodes",
                "15", "--outdir", tmp_path]) == 0
    payload = json.loads((tmp_path / "liyau_const.json").read_text())
    assert payload["c_ly"] == pytest.approx(2.0, rel=1e-3)
    assert payload["closed_form"] == pytest.approx(2.0, rel=1e-15)
    assert (tmp_path / "j_table.csv").exists()


def test_markov_verify_artifacts(tmp_path):
    assert run(["markov-verify", "--n", "4", "--t-min", "0.1", "--t-max",
                "1.0", "--per-decade", "10", "--outdir", tmp_path]) == 0
    report = json.loads((tmp_path / "markov_kn_report.json").read_text())
    assert report["verdict"] != "fail"
    rows = (tmp_path / "markov_kn.csv").read_text().splitlines()
    assert rows[1] == "t,transition_gap,min_margin,sharpness_gap"


def test_markov_verify_edge_list(tmp_path):
    graph = tmp_path / "graph.txt"
    graph.write_text("0 1 1.0\n1 0 1.0\n1 2 0.5\n2 1 0.5\n")
    assert run(["markov-verify", "--graph", graph, "--outdir", tmp_path]) == 0
    assert (tmp_path / "markov_reduction_report.json").exists()


def test_harnack_gauss_artifacts(tmp_path):
    assert run(["harnack", "--setting", "gauss", "--t1", "1", "--t2", "2",
                "--x1", "0.7", "--x2", "-0.4", "--outdir", tmp_path]) == 0
    payload = json.loads((tmp_path / "harnack_gauss.json").read_text())
    assert abs(payload["sharpness_gap"]) <= 1e-12


def test_harnack_kn_artifacts(tmp_path):
    assert run(["harnack", "--setting", "kn", "--n", "3", "--outdir",
                tmp_path]) == 0
    report = json.loads((tmp_path / "harnack_kn_report.json").read_text())
    assert report["verdict"] != "fail"
    assert report["n_samples"] == 9


def test_console_script_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from liyau.cli import main; sys.exit(main(sys.argv[1:]))",
         "harnack", "--setting", "gauss", "--outdir", str(tmp_path)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "gaussian bound" in proc.stdout


def test_failed_runs_write_no_manifest(tmp_path):
    usage, compute = tmp_path / "usage", tmp_path / "compute"
    # neither --beta nor --sweep
    assert run(["liyau-const", "--outdir", usage]) == 1
    assert not (usage / "manifest.json").exists()
    assert run(["markov-verify", "--graph", tmp_path / "missing.txt",
                "--outdir", compute]) == 2
    assert not (compute / "manifest.json").exists()
