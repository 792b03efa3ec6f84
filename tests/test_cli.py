"""Command-line interface: exit codes, overrides, output files, entry points."""
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from ergodim.cli import main


@pytest.fixture
def config_file(tmp_path):
    def write(doc, name="config.json"):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    return write


def test_clean_run_exits_zero(tmp_path, config_file, capsys):
    cfg = config_file({"task": "hamming-bounds", "seed": 0, "n_values": [12, 16]})
    rc = main(["hamming-bounds", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "hamming-bounds: clean; wrote" in out
    assert (tmp_path / "out" / "hamming-bounds.json").exists()
    assert (tmp_path / "out" / "hamming-bounds.csv").exists()


def test_bernoulli_oracle_without_probs_is_uniform_over_the_alphabet(tmp_path, config_file):
    doc = {"task": "entropy", "seed": 0, "n": 4, "system": {"kind": "full_shift", "alphabet": 3}}
    payloads = []
    for name, oracle in (("given", {"oracle": {"kind": "bernoulli"}}), ("omitted", {})):
        cfg = config_file({**doc, **oracle}, name=f"{name}.json")
        assert main(["entropy", "--config", cfg, "--out", str(tmp_path / name)]) == 0
        payloads.append(json.loads((tmp_path / name / "entropy.json").read_text())["payload"])
    assert payloads[0] == payloads[1]


def test_flagged_run_exits_two(tmp_path, config_file, capsys):
    cfg = config_file({"task": "hamming-bounds", "seed": 0, "n_values": [4, 12], "eps": 0.01})
    rc = main(["hamming-bounds", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 2
    out = capsys.readouterr().out
    assert "1 flag(s); wrote" in out
    assert "  flag: crude bound fails" in out


def test_unknown_config_key_exits_one(tmp_path, config_file, capsys):
    cfg = config_file({"task": "entropy", "seed": 0, "bogus": True})
    rc = main(["entropy", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "unknown key(s) for task 'entropy': bogus" in err


@pytest.mark.parametrize("n_schedule", [[], "2,4,6"])
def test_malformed_schedule_exits_one(tmp_path, config_file, capsys, n_schedule):
    cfg = config_file({"task": "chi", "seed": 0, "n_schedule": n_schedule})
    rc = main(["chi", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "field 'n_schedule': expected a non-empty list of numbers" in capsys.readouterr().err


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"task": "entropy", "seed": 0, "n": 2.5}, "field 'n': expected a positive integer"),
        (
            {"task": "entropy", "seed": 0,
             "oracle": {"kind": "markov", "transitions": [[0.9, 0.3], [0.4, 0.6]]}},
            "field 'oracle': transition rows must be distributions",
        ),
        (
            {"task": "brin-katok", "seed": 0, "eps_schedule": [1.5, 0.45]},
            "field 'eps_schedule': every eps must lie in (0, 1]",
        ),
        (
            {"task": "chi", "seed": 0, "system": {"kind": "toral_automorphism", "matrix": "ab"}},
            "field 'system': invalid literal for int()",
        ),
        (
            {"task": "chi", "seed": 0, "system": {"kind": "torus_translation", "shift": [0.1]}},
            "field 'system': not enough values to unpack",
        ),
        (
            {"task": "chi", "seed": 0, "system": {"kind": "full_shift", "alphabet": 1}},
            "field 'system': alphabet_size must be >= 2",
        ),
        (
            {"task": "chi", "seed": 0,
             "system": {"kind": "toral_automorphism", "matrix": [[2.7, 1], [1, 1.9]]}},
            "field 'system': matrix entries must be integers, got 2.7",
        ),
        (
            {"task": "chi", "seed": 0,
             "system": {"kind": "toral_automorphism", "matrix": [[True, 1], [1, 1]]}},
            "field 'system': matrix entries must be integers, got True",
        ),
        (
            {"task": "entropy", "seed": 0, "system": {"kind": "full_shift", "alphabet": 2.7}},
            "field 'system': alphabet must be an integer, got 2.7",
        ),
        (
            {"task": "entropy", "seed": 0, "system": {"kind": "full_shift", "window": 16.9}},
            "field 'system': window must be an integer, got 16.9",
        ),
        (
            {"task": "entropy", "seed": 0, "system": {"kind": "full_shift", "inverted": "no"}},
            "field 'system': inverted must be true or false, got 'no'",
        ),
        (
            {"task": "appendix-hilbert", "seed": 0, "system": {"kind": "toral_automorphism"}},
            "field 'system': task 'appendix-hilbert' runs on full_shift/weighted, got toral_automorphism",
        ),
        (
            {"task": "smb-check", "seed": 0, "n_schedule": [2, 4], "paths": 4, "shift_k": 3},
            "field 'shift_k': must be below every n_schedule entry",
        ),
        (
            {"task": "dimension", "seed": 1, "system": {"kind": "full_shift", "metric": "weighted"}},
            "field 'scales': fewer than 4 default scales lie above",
        ),
        (
            {"task": "dimension", "seed": 0, "cloud_budget": 1},
            "field 'cloud_budget': expected an integer >= 100, got 1",
        ),
        (
            {"task": "verify", "seed": 0, "cloud_budget": 1},
            "field 'cloud_budget': expected an integer >= 100, got 1",
        ),
        (
            {"task": "chi", "seed": 0, "system": {"kind": "full_shift", "alphabet": 128},
             "oracle": {"kind": "bernoulli", "probs": [1 / 128] * 128}},
            "field 'system': alphabet_size must be >= 2 and <= 127",
        ),
        (
            {"task": "chi", "seed": 0, "system": {"kind": "full_shift", "alphabet": 200},
             "oracle": {"kind": "bernoulli", "probs": [1 / 200] * 200}},
            "field 'system': alphabet_size must be >= 2 and <= 127",
        ),
        (
            {"task": "chi", "seed": 0, "r_schedule": [1e-15]},
            "field 'r_schedule': radius 1e-15 lies at or below this system's resolution floor 1e-14",
        ),
        (
            {"task": "partition-build", "seed": 0, "system": {"kind": "full_shift", "metric": "weighted"}},
            "field 'delta': diam(beta_1) = 1.07",
        ),
        (
            {"task": "brin-katok", "seed": 0, "system": {"kind": "toral_automorphism"}},
            "field 'mode': 'exact_cylinder' needs a full_shift system",
        ),
        (
            {"task": "partition-build", "seed": 0, "system": {"kind": "toral_automorphism"}},
            "field 'system': task 'partition-build' runs on full_shift/dyadic, full_shift/weighted",
        ),
        (
            {"task": "smb-check", "seed": 0, "system": {"kind": "toral_automorphism"}},
            "field 'system': task 'smb-check' runs on full_shift/dyadic, full_shift/weighted",
        ),
        (
            {"task": "verify", "seed": 0,
             "system": {"kind": "toral_automorphism", "matrix": [[0, 1], [-1, 0]]}},
            "field 'system.matrix': [[0, 1], [-1, 0]] is not hyperbolic (trace 0, det 1)",
        ),
        (
            {"task": "dimension", "seed": 0,
             "system": {"kind": "toral_automorphism", "matrix": [[1, 1], [0, 1]]}},
            "field 'system.matrix': [[1, 1], [0, 1]] is not hyperbolic (trace 2, det 1)",
        ),
        (
            {"task": "chi", "seed": 0, "system": {"kind": "full_shift"}, "oracle": {"kind": "lebesgue"}},
            "field 'oracle': a LebesgueTorus oracle cannot serve a FullShift system",
        ),
        (
            {"task": "chi", "seed": 0, "oracle": {"kind": "bernoulli"}},
            "field 'oracle': a BernoulliIID oracle cannot serve a ToralAutomorphism system",
        ),
        (
            {"task": "entropy", "seed": 0, "system": {"kind": "full_shift", "alphabet": 3},
             "oracle": {"kind": "markov"}},
            "field 'oracle': it has 2 symbols, but the system's alphabet has 3",
        ),
        # entropy is exact at every n: no sampled route, no sample count
        ({"task": "entropy", "seed": 0, "mode": "auto"}, "field 'mode': expected one of ['exact']"),
        ({"task": "entropy", "seed": 0, "mode": "monte_carlo"},
         "field 'mode': expected one of ['exact']"),
        ({"task": "entropy", "seed": 0, "samples": 1000}, "unknown key(s) for task 'entropy': samples"),
        # the thread count is estimate_chi's, not a config key
        ({"task": "chi", "seed": 0, "threads": 2}, "unknown key(s) for task 'chi': threads"),
        # JSON that is not an object: run as the chi subcommand
        ([1, 2], "config must be a JSON object"),
        ("chi", "config must be a JSON object"),
        # a weighted cover deeper than its limit, refused before chi runs
        ({"task": "appendix-hilbert", "seed": 0, "octaves": 12},
         "field 'delta' or 'octaves': the cover of delta = 0.5 over 12 octaves reads cylinders deeper"),
        ({"task": "verify", "seed": 0, "delta": 0.01, "system": {"kind": "full_shift", "metric": "weighted"}},
         "field 'delta': the cover of delta = 0.01 over 4 octaves reads cylinders deeper than the "
         "cover depth limit 524288"),
    ],
)
def test_values_the_runners_reject_exit_one(tmp_path, config_file, capsys, doc, message):
    cfg = config_file(doc)
    task = doc["task"] if isinstance(doc, dict) else "chi"
    rc = main([task, "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_task_mismatch_exits_one(tmp_path, config_file, capsys):
    cfg = config_file({"task": "entropy", "seed": 0})
    rc = main(["chi", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "does not match subcommand" in capsys.readouterr().err


def test_malformed_json_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    rc = main(["entropy", "--config", str(bad), "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_missing_config_file_exits_one(tmp_path, capsys):
    rc = main(["entropy", "--config", str(tmp_path / "absent.json")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_missing_seed_exits_one(tmp_path, config_file, capsys):
    cfg = config_file({"task": "entropy"})
    rc = main(["entropy", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "seed" in capsys.readouterr().err


def test_seed_flag_fills_and_overrides(tmp_path, config_file):
    cfg = config_file({"task": "entropy"})
    rc = main(["entropy", "--config", cfg, "--seed", "7", "--out", str(tmp_path / "out")])
    assert rc == 0
    doc = json.loads((tmp_path / "out" / "entropy.json").read_text())
    assert doc["config"]["seed"] == 7


def test_threads_flag_is_refused(tmp_path, config_file):
    cfg = config_file({"task": "chi", "seed": 0})
    with pytest.raises(SystemExit) as exit_:
        main(["chi", "--config", cfg, "--threads", "2", "--out", str(tmp_path / "out")])
    assert exit_.value.code == 1
    assert not (tmp_path / "out").exists()


def test_format_selection(tmp_path, config_file, capsys):
    cfg = config_file({"task": "entropy", "seed": 0})
    rc = main(["entropy", "--config", cfg, "--out", str(tmp_path / "out"), "--format", "json"])
    assert rc == 0
    assert (tmp_path / "out" / "entropy.json").exists()
    assert not (tmp_path / "out" / "entropy.csv").exists()
    rc = main(["entropy", "--config", cfg, "--out", str(tmp_path / "out2"), "--format", "yaml"])
    assert rc == 1
    assert "unknown format(s): yaml" in capsys.readouterr().err


def test_no_config_runs_defaults(tmp_path):
    rc = main(["entropy", "--seed", "0", "--out", str(tmp_path / "out")])
    assert rc == 0
    doc = json.loads((tmp_path / "out" / "entropy.json").read_text())
    assert doc["payload"]["mode"] == "exact"


def test_bare_invocation_exits_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 1
    assert "usage:" in capsys.readouterr().err


def test_help_lists_every_task(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for task in ("chi", "entropy", "brin-katok", "partition-build", "smb-check",
                 "dimension", "verify", "appendix-hilbert", "hamming-bounds"):
        assert task in out


def test_module_entry_point(tmp_path, config_file):
    cfg = config_file({"task": "hamming-bounds", "seed": 0, "n_values": [12, 16]})
    proc = subprocess.run(
        [sys.executable, "-m", "ergodim", "hamming-bounds", "--config", cfg,
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "clean; wrote" in proc.stdout


def test_import_leaves_scipy_unloaded():
    """Start-up stays numpy-only: scipy is a test-time dependency."""
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, ergodim, ergodim.cli; print(sorted(m for m in sys.modules "
         "if m.split('.')[0] == 'scipy'))"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def _write_console_script(bin_dir, name):
    """Write the wrapper an installer generates for ``[project.scripts]`` entry ``name``."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with (Path(__file__).resolve().parents[1] / "pyproject.toml").open("rb") as f:
        module, attr = tomllib.load(f)["project"]["scripts"][name].split(":")
    bin_dir.mkdir()
    script = bin_dir / name
    script.write_text(
        f"#!{sys.executable}\nimport sys\nfrom {module} import {attr}\nsys.exit({attr}())\n"
    )
    script.chmod(0o755)


def test_console_script(tmp_path, config_file):
    """The declared ``ergodim`` console script runs a task without an install."""
    _write_console_script(tmp_path / "bin", "ergodim")
    path = os.pathsep.join([str(tmp_path / "bin"), os.environ.get("PATH", "")])
    env = {**os.environ, "PATH": path}
    cfg = config_file({"task": "hamming-bounds", "seed": 0, "n_values": [12, 16]})
    proc = subprocess.run(
        ["ergodim", "hamming-bounds", "--config", cfg, "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "hamming-bounds.json").exists()


@pytest.mark.skipif(shutil.which("ergodim") is None, reason="no installed ergodim on PATH")
def test_installed_console_script(tmp_path, config_file):
    cfg = config_file({"task": "hamming-bounds", "seed": 0, "n_values": [12, 16]})
    proc = subprocess.run(
        ["ergodim", "hamming-bounds", "--config", cfg, "--out", str(tmp_path / "out")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "hamming-bounds.json").exists()
