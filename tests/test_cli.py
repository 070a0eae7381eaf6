"""CLI contract: exit codes, determinism, config layering, artifacts."""
import json
import subprocess
import sys

import pytest

from liyau import cli
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
    ["liyau-const", "--beta", "1", "--nodes", "0"],
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


@pytest.mark.parametrize("argv", [
    ["fraclap", "--beta", "1", "--points", "0,x"],
    ["fraclap", "--beta", "1", "--points", ","],
    ["fraclap", "--beta", "1", "--points", "19"],  # beyond 0.8 * extent 20
    ["markov-verify", "--t-min", "10", "--t-max", "1"],
    # no range flag: a shorter table mis-states the mass with no error
    ["density", "--beta", "1", "--r-max", "10"],
    ["harnack", "--setting", "frac", "--x1", "150"],  # beyond the grid's 100
])
def test_flag_value_outside_its_domain_is_usage_error(argv, tmp_path):
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


def _graph_check_fails(monkeypatch, tmp_path):
    """A valid edge list whose check raises: a computation error."""
    def fail(*args):
        raise RuntimeError("the check failed")

    monkeypatch.setattr(cli, "reduction_theorem_check_discrete", fail)
    graph = tmp_path / "graph.txt"
    graph.write_text("0 1 1.0\n1 0 1.0\n")
    return graph


def test_computation_error_exits_2(tmp_path, monkeypatch):
    graph = _graph_check_fails(monkeypatch, tmp_path)
    assert run(["markov-verify", "--graph", graph, "--outdir", tmp_path]) == 2


@pytest.mark.parametrize("argv", [
    ["liyau-const", "--sweep", "beta:0.5:1.5:x"],
    ["liyau-const", "--sweep", "beta:0.5:1.5:abc"],
    ["liyau-const", "--sweep", "beta:0.5:1.5:2.5"],
    ["liyau-const", "--beta", "1", "--y-max", "inf"],
    ["markov-verify", "--t-max", "1e400"],
    ["harnack", "--setting", "kn", "--t1", "1", "--t2", "inf"],
    ["harnack", "--setting", "frac", "--t2", "inf"],
    ["harnack", "--setting", "gauss", "--t2", "inf"],
    ["harnack", "--setting", "gauss", "--x1", "nan"],
    ["harnack", "--setting", "gauss", "--x2", "-inf"],
    ["fraclap", "--beta", "1", "--extent", "1e-3"],
])
def test_bad_flag_value_is_usage_error(argv, tmp_path):
    # each exited 2 (computation failed) or 0 (a NaN or infinite result)
    assert run(argv + ["--outdir", tmp_path]) == 1
    assert not (tmp_path / "manifest.json").exists()


@pytest.mark.parametrize("text", [None, "0 1 x\n", "0 1\n", "0 0 1.0\n"])
def test_unreadable_graph_is_usage_error(text, tmp_path):
    graph = tmp_path / "graph.txt"  # None: no such file
    if text is not None:
        graph.write_text(text)
    out = tmp_path / "out"
    assert run(["markov-verify", "--graph", graph, "--outdir", out]) == 1
    assert not (out / "manifest.json").exists()


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


@pytest.mark.parametrize("kind", ["missing", "directory"])
def test_unreadable_config_file_is_usage_error(kind, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    if kind == "directory":
        cfg.mkdir()
    out = tmp_path / "out"
    assert run(["verify", "--check", "key", "--config", cfg,
                "--outdir", out]) == 1
    assert "cannot read config file" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


def test_config_equals_form_is_read(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("samples=abc\n")
    assert run(["verify", "--check", "key", f"--config={cfg}",
                "--outdir", tmp_path]) == 1
    assert not (tmp_path / "manifest.json").exists()


@pytest.mark.parametrize("second", [["--config"], ["--conf"]])
def test_config_given_twice_is_usage_error(second, tmp_path):
    a, b = tmp_path / "a.cfg", tmp_path / "b.cfg"
    a.write_text("samples=25\n")
    b.write_text("seed=4\n")
    assert run(["verify", "--check", "key", "--config", a, *second, b,
                "--outdir", tmp_path]) == 1
    assert not (tmp_path / "manifest.json").exists()


@pytest.mark.parametrize("argv", [
    ["liyau-const", "--beta", "1.0", "--sweep", "beta:0.5:0.6:1"],
    ["verify", "--check", "liyau", "--samples", "1"],
    ["verify", "--check", "key", "--samples", "10", "--n-fields", "7",
     "--beta", "0.3"],
    ["harnack", "--setting", "gauss", "--n", "9", "--beta", "0.5",
     "--alpha", "3"],
    ["harnack", "--setting", "kn", "--x1", "3", "--x2", "-2"],
])
def test_flag_the_mode_ignores_is_usage_error(argv, tmp_path):
    assert run(argv + ["--outdir", tmp_path]) == 1
    assert not (tmp_path / "manifest.json").exists()


@pytest.mark.parametrize("flags", [["--n", "5"], ["--per-decade", "3"],
                                   ["--n", "5", "--per-decade", "3"]])
def test_edge_list_run_rejects_the_kn_flags(flags, tmp_path):
    # an edge-list run checks one t between t-min and t-max
    graph = tmp_path / "g.txt"
    graph.write_text("0 1 1.0\n1 2 0.5\n2 0 2.0\n")
    out = tmp_path / "out"
    assert run(["markov-verify", "--graph", graph, *flags,
                "--outdir", out]) == 1
    assert not (out / "manifest.json").exists()
    assert run(["markov-verify", "--graph", graph, "--outdir", out]) == 0
    config = json.loads((out / "manifest.json").read_text())["config"]
    assert (config["n"], config["per_decade"]) == (None, None)


@pytest.mark.parametrize("argv,echo", [
    (["verify", "--check", "key", "--samples", "10"],
     {"samples": 10, "beta": None, "n_fields": None}),
    (["harnack", "--setting", "kn"],
     {"n": 3, "beta": None, "alpha": None, "dim": None, "x1": None,
      "x2": None}),
    (["harnack", "--setting", "gauss"], {"x1": 0.5, "x2": 0.0}),
    (["markov-verify", "--n", "4", "--t-max", "0.1"],
     {"n": 4, "per_decade": 60}),
    (["harnack", "--setting", "gauss", "--dim", "2"],
     {"n": None, "beta": None, "alpha": None, "dim": 2}),
])
def test_manifest_echoes_the_flags_the_mode_reads(argv, echo, tmp_path):
    # a flag the mode reads shows its value, default or given; one it
    # ignores shows null
    assert run(argv + ["--outdir", tmp_path]) == 0
    config = json.loads((tmp_path / "manifest.json").read_text())["config"]
    assert {k: config[k] for k in echo} == echo


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
                "10", "--points", "0,1", "--outdir", tmp_path]) == 0
    lines = (tmp_path / "fraclap.csv").read_text().splitlines()
    assert lines[0] == "# liyau-csv v1"
    assert lines[1] == "x,quadrature,error,exact"
    assert len(lines) == 4
    payload = json.loads((tmp_path / "fraclap.json").read_text())
    # coarse demo grid: the quadrature meets the closed form to the h^2
    # sampling error
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


@pytest.mark.parametrize("rate", ["nan", "inf"])
def test_markov_verify_rejects_a_non_finite_rate(rate, tmp_path):
    # each printed "markov_reduction: fail (min margin nan)" and exited 3
    graph = tmp_path / "graph.txt"
    graph.write_text(f"0 1 {rate}\n1 0 1.0\n1 2 0.5\n2 1 0.5\n")
    out = tmp_path / "out"
    assert run(["markov-verify", "--graph", graph, "--outdir", out]) == 1
    assert not (out / "manifest.json").exists()


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


def test_failed_runs_write_no_manifest(tmp_path, monkeypatch):
    usage, compute = tmp_path / "usage", tmp_path / "compute"
    # neither --beta nor --sweep
    assert run(["liyau-const", "--outdir", usage]) == 1
    assert not (usage / "manifest.json").exists()
    graph = _graph_check_fails(monkeypatch, tmp_path)
    assert run(["markov-verify", "--graph", graph,
                "--outdir", compute]) == 2
    assert not (compute / "manifest.json").exists()
