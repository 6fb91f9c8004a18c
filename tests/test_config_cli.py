"""Config grammar, validation, and the scenario CLI."""

import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from nsfarfield import cli
from nsfarfield.config import ConfigError, parse_config

QUICK = """\
[scenario]
name = quick
dimension = 2

[grid]
half_width = 16.0
points = 64

[time]
horizon = 0.5
slices = 16

[force]
kind = gaussian_bump
amplitude = 0.002 0.0
width = 1.0
time_profile = smooth_bump
time_on = 0.0
time_off = 0.25

[checks]
run = lemlog
window_radii = 16 24 32 48 64

[output]
directory = out
"""


def _artifact_hashes(out):
    return {p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(Path(out).rglob("*")) if p.is_file() and p.name != "run.log"}


def _drop_snapshot_line(tdir):
    manifest = tdir / "manifest.txt"
    lines = manifest.read_text().splitlines(keepends=True)
    manifest.write_text("".join(ln for ln in lines if not ln.startswith("snapshot 3 ")))


def _truncate(path):
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])


# ways a cached trajectory directory can be left incomplete
_DAMAGE = {
    "manifest_deleted": lambda tdir: (tdir / "manifest.txt").unlink(),
    "snapshot_truncated": lambda tdir: _truncate(tdir / "u00003.nsvf"),
    "snapshot_deleted": lambda tdir: (tdir / "u00003.nsvf").unlink(),
    "snapshot_line_dropped": _drop_snapshot_line,
}


@pytest.fixture(scope="module")
def fresh_verify(tmp_path_factory):
    """A cold `verify` of QUICK: (config, output directory, artifact hashes)."""
    root = tmp_path_factory.mktemp("fresh")
    cfg = root / "quick.cfg"
    cfg.write_text(QUICK)
    out = root / "out"
    assert cli.main(["verify", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_PASS
    return cfg, out, _artifact_hashes(out)


class TestParseConfig:
    def test_minimal_config_fills_defaults(self):
        cfg = parse_config("[scenario]\ndimension = 2\n")
        assert cfg.points == 256
        assert cfg.half_width == 32.0
        assert cfg.tolerance == 1e-10
        assert cfg.sweep_pairs == ((0.0, math.inf), (1.0, math.inf), (0.0, 2.0))

    def test_truncation_guard(self):
        with pytest.raises(ConfigError, match="half_width/8"):
            parse_config("[grid]\nhalf_width = 16.0\n[time]\nhorizon = 8.0\n")

    def test_regime_tagging(self):
        with pytest.raises(ConfigError, match="divergence_pairs"):
            parse_config("[checks]\nsweep_pairs = 1:1\n")
        with pytest.raises(ConfigError, match="sweep_pairs"):
            parse_config("[checks]\ndivergence_pairs = 0:4\n")

    def test_collects_all_violations(self):
        bad = "[scenario]\ndimension = 7\n[grid]\npoints = 100\n[solver]\ntolerance = -1\n"
        with pytest.raises(ConfigError) as err:
            parse_config(bad)
        assert len(err.value.problems) == 3

    def test_syntax_errors_carry_line_numbers(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config("[scenario]\nthis line has no equals sign\n")
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config("[nonsense]\nkey = 1\n")
        with pytest.raises(ConfigError, match="outside a"):
            parse_config("key = value\n")

    def test_unknown_key_and_check(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config("[scenario]\nflavor = vanilla\n")
        with pytest.raises(ConfigError, match="unknown key scenario.seed"):
            parse_config("[scenario]\nseed = 20260808\n")
        with pytest.raises(ConfigError, match="unknown key output.threads"):
            parse_config("[output]\nthreads = 2\n")
        with pytest.raises(ConfigError, match="unknown check"):
            parse_config("[checks]\nrun = profile suchcheck\n")

    def test_window_radii_validity_region(self):
        text = "[checks]\nrun = window\nwindow_time = 4.0\nwindow_radii = 5 48 64 96 128\n"
        with pytest.raises(ConfigError, match="e sqrt"):
            parse_config(text)

    def test_hash_source_excludes_output(self):
        c1 = parse_config(QUICK)
        c2 = parse_config(QUICK.replace("directory = out", "directory = elsewhere"))
        assert c1.hash_source() == c2.hash_source()

    @pytest.mark.parametrize("name,digest", [
        ("canonical", "9b1657cd30a878ae"),
        ("dipole", "83bf149c15cf4e56"),
        ("free_control", "813040f26dff7162"),
        ("short_time", "4c126817af7898ba"),
    ])
    def test_shipped_config_digests(self, name, digest):
        # the digest names every artifact and trajectory_<digest>/ cache of a
        # config, so an edit to the grammar or its defaults must not move it
        from nsfarfield.solver import scenario_digest

        text = (Path(__file__).parent.parent / "configs" / f"{name}.cfg").read_text()
        assert scenario_digest(parse_config(text).hash_source()) == digest


class TestScenarioBuild:
    def test_gaussian_force(self):
        cfg = parse_config(QUICK)
        grid, data, force, opts, digest = cli.build_scenario(cfg)
        assert grid.n == 64
        assert len(force.terms) == 1
        assert len(digest) == 16

    def test_dipole_pair_is_mean_free(self):
        from nsfarfield.forcing import first_moment, force_integral
        import numpy as np

        text = QUICK.replace("kind = gaussian_bump", "kind = dipole_pair")
        cfg = parse_config(text)
        _, _, force, _, _ = cli.build_scenario(cfg)
        assert len(force.terms) == 2
        assert np.linalg.norm(force_integral(force, 10.0)) < 1e-15
        assert np.abs(first_moment(force, 10.0)).max() > 0

    def test_quadrupole_kills_first_moment(self):
        from nsfarfield.forcing import first_moment, force_integral
        import numpy as np

        text = QUICK.replace("kind = gaussian_bump", "kind = quadrupole")
        cfg = parse_config(text)
        _, _, force, _, _ = cli.build_scenario(cfg)
        assert np.linalg.norm(force_integral(force, 10.0)) < 1e-15
        assert np.abs(first_moment(force, 10.0)).max() < 1e-15

    @pytest.mark.parametrize("kind,expected", [
        ("gaussian_bump", [((0.25, -0.5), (0.002, -0.001))]),
        ("dipole_pair", [((1.5, 0.5), (0.002, -0.001)), ((-1.5, -0.5), (-0.002, 0.001))]),
        ("quadrupole", [((1.5, 0.5), (0.002, -0.001)), ((-1.5, -0.5), (0.002, -0.001)),
                        ((0.0, 0.0), (-0.004, 0.002))]),
    ])
    def test_term_centers_and_amplitudes(self, kind, expected):
        text = QUICK.replace("kind = gaussian_bump", f"kind = {kind}").replace(
            "amplitude = 0.002 0.0",
            "amplitude = 0.002 -0.001\ncenter = 0.25 -0.5\nseparation = 1.5 0.5")
        _, _, force, _, _ = cli.build_scenario(parse_config(text))
        assert [(t.profile.center, t.amplitude) for t in force.terms] == expected
        assert all(t.profile.width == 1.0 for t in force.terms)


class TestCli:
    def test_kernel_check(self, tmp_path):
        code = cli.main(["kernel-check", "--out", str(tmp_path)])
        assert code == cli.EXIT_PASS
        assert (tmp_path / "kernel_envelopes_d2.csv").exists()
        payload = json.loads((tmp_path / "kernel_check_d2.json").read_text())
        assert payload["passed"]
        assert 0 < payload["oseen_envelope_constant"] < 10

    def test_config_error_exit_code(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[grid]\npoints = 100\n")
        assert cli.main(["simulate", "--config", str(cfg)]) == cli.EXIT_CONFIG_ERROR

    @pytest.mark.parametrize("check,key,value", [
        ("profile", "profile_radii", "16 32 64"),
        ("profile", "profile_radii", ""),
        ("window", "window_radii", "32 64 128 256"),
        ("next_order", "next_order_radii", "16 32"),
        ("divergence", "divergence_radii", "32 64"),
        ("divergence", "divergence_radii", "32 128 64"),
    ])
    def test_too_few_radii_is_a_config_error(self, tmp_path, check, key, value):
        # a selected check's fit needs 5 radii (3 increasing ones for the
        # divergence octaves); fewer is a config error, not a failed check
        text = QUICK.replace("run = lemlog", f"run = {check}")
        text += f"\n[checks]\n{key} = {value}\n"
        with pytest.raises(ConfigError) as exc:
            parse_config(text)
        assert all(p.startswith(f"checks.{key}:") for p in exc.value.problems)
        cfg = tmp_path / "short.cfg"
        cfg.write_text(text)
        code = cli.main(["verify", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == cli.EXIT_CONFIG_ERROR

    def test_missing_config(self):
        assert cli.main(["simulate", "--config", "/nonexistent.cfg"]) == cli.EXIT_CONFIG_ERROR

    def test_unknown_only_check(self, tmp_path):
        cfg = tmp_path / "quick.cfg"
        cfg.write_text(QUICK)
        code = cli.main(["verify", "--config", str(cfg), "--out", str(tmp_path / "o"),
                         "--only", "nonsense"])
        assert code == cli.EXIT_CONFIG_ERROR

    def test_zero_scenario_passes(self, tmp_path):
        text = QUICK.replace("kind = gaussian_bump", "kind = zero")
        text = text.replace("run = lemlog", "run = lemlog profile")
        text += "\n[checks]\nprofile_radii = 8 11 16 23 32\nprofile_time = 0.5\n"
        cfg = tmp_path / "zero.cfg"
        cfg.write_text(text)
        out = tmp_path / "out"
        code = cli.main(["all", "--config", str(cfg), "--out", str(out)])
        assert code == cli.EXIT_PASS
        reports = list(out.glob("report_*.json"))
        assert len(reports) == 1
        verdict = json.loads(reports[0].read_text())
        assert verdict["overall"] == "pass"

    def test_deterministic_rerun(self, tmp_path):
        cfg = tmp_path / "quick.cfg"
        cfg.write_text(QUICK)

        def run(out):
            code = cli.main(["all", "--config", str(cfg), "--out", str(out)])
            assert code == cli.EXIT_PASS
            return {
                p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(Path(out).rglob("*"))
                if p.is_file() and p.name != "run.log"
            }

        h1 = run(tmp_path / "o1")
        h2 = run(tmp_path / "o2")
        assert h1 == h2

    def test_thread_count_leaves_artifacts_unchanged(self, tmp_path):
        # far-field checks added so that batches split across the workers;
        # profile radius 8 is the L/2 ring
        text = QUICK.replace("run = lemlog", "run = lemlog profile window")
        text += ("\n[checks]\nprofile_time = 0.5\nprofile_radii = 8 11.31 16 22.63 32\n"
                 "window_time = 0.5\n")
        cfg = tmp_path / "quick.cfg"
        cfg.write_text(text)

        def run(out, threads):
            code = cli.main(["all", "--config", str(cfg), "--out", str(out),
                             "--threads", threads])
            assert code in (cli.EXIT_PASS, cli.EXIT_CHECK_FAILURE)
            return {
                p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(Path(out).rglob("*"))
                if p.is_file() and p.name != "run.log"
            }

        h1 = run(tmp_path / "t1", "1")
        h2 = run(tmp_path / "t2", "2")
        assert any(name.startswith("window_") for name in h1)
        assert h1 == h2

    def test_d2_run_leaves_scipy_special_unloaded(self, tmp_path):
        # only the d = 3 kernel branches import scipy.special
        text = QUICK.replace("run = lemlog", "run = kernel profile window sweep divergence lemlog")
        text += ("\n[checks]\nprofile_time = 0.5\nprofile_radii = 8 11.31 16 22.63 32\n"
                 "window_time = 0.5\nsweep_times = 0.25 0.3125 0.375 0.4375 0.5\n"
                 "divergence_time = 0.5\n")
        cfg = tmp_path / "quick.cfg"
        cfg.write_text(text)
        probe = ("import sys\nfrom nsfarfield import cli\n"
                 f"code = cli.main(['all', '--config', {str(cfg)!r}, '--out', "
                 f"{str(tmp_path / 'out')!r}])\n"
                 "print(code, 'scipy.special' in sys.modules)\n")
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        run = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                             env=env, timeout=300)
        assert run.returncode == 0, run.stderr
        code, loaded = run.stdout.split()[-2:]
        assert int(code) in (cli.EXIT_PASS, cli.EXIT_CHECK_FAILURE)
        assert loaded == "False"
        report = json.loads(next((tmp_path / "out").glob("report_*.json")).read_text())
        assert len(report["checks"]) == 6
        assert not [c for c, v in report["checks"].items() if "error" in v]

    def test_profile_ignores_window_directions(self, tmp_path):
        # the profile check samples its own fixed sphere, not the window
        # check's direction count
        base = QUICK.replace("run = lemlog", "run = profile")
        base += "\n[checks]\nprofile_time = 0.5\nprofile_radii = 8 11.31 16 22.63 32\n"
        payloads = []
        for n_dirs in (16, 24):
            cfg = tmp_path / f"dirs{n_dirs}.cfg"
            cfg.write_text(base + f"window_directions = {n_dirs}\n")
            out = tmp_path / f"o{n_dirs}"
            code = cli.main(["verify", "--config", str(cfg), "--out", str(out)])
            assert code in (cli.EXIT_PASS, cli.EXIT_CHECK_FAILURE)
            payloads.append(next(out.glob("profile_*.json")).read_text())
        assert payloads[0] == payloads[1]

    def test_env_override(self, tmp_path, monkeypatch):
        cfg = tmp_path / "quick.cfg"
        cfg.write_text(QUICK)
        out = tmp_path / "envout"
        monkeypatch.setenv("NSFF_CONFIG", str(cfg))
        monkeypatch.setenv("NSFF_OUT", str(out))
        code = cli.main(["verify"])
        assert code == cli.EXIT_PASS
        assert list(out.glob("lemlog_*.json"))

    def test_report_without_verify(self, tmp_path):
        cfg = tmp_path / "quick.cfg"
        cfg.write_text(QUICK)
        code = cli.main(["report", "--config", str(cfg), "--out", str(tmp_path / "empty")])
        assert code == cli.EXIT_CONFIG_ERROR

    def test_verify_runs_only_selected(self, tmp_path):
        cfg = tmp_path / "quick.cfg"
        cfg.write_text(QUICK)
        out = tmp_path / "sel"
        code = cli.main(["verify", "--config", str(cfg), "--out", str(out),
                         "--only", "lemlog"])
        assert code == cli.EXIT_PASS
        summary = json.loads(next(out.glob("verify_*.json")).read_text())
        assert list(summary["checks"]) == ["lemlog"]
        # the lemlog CSV abscissa is rho = |x|/sqrt(t), one per (|x|, t) row
        rows = next(out.glob("lemlog_*.csv")).read_text().splitlines()[1:]
        assert [float(row.split(",")[0]) for row in rows] == [
            r / math.sqrt(0.25 * 0.5**k) for r in (8.0, 16.0, 32.0, 64.0) for k in range(4)]
        # every rho here is >= 16, where the prediction is the ratio's exact
        # large-rho form: the residual is value - prediction, at round-off
        for row in rows:
            _, value, pred, resid = (float(v) for v in row.split(","))
            assert resid == value - pred and abs(resid) < 1e-15 * value

    def test_verify_builds_scenario_once(self, tmp_path, monkeypatch):
        # a cold verify solves the scenario it already built, a warm one loads;
        # `all` builds it once for simulate, verify and report
        cfg = tmp_path / "quick.cfg"
        cfg.write_text(QUICK)
        build = cli.build_scenario
        calls = []

        def counted(c):
            calls.append(1)
            return build(c)

        monkeypatch.setattr(cli, "build_scenario", counted)
        for command in ("verify", "all"):
            for _ in range(2):
                calls.clear()
                code = cli.main([command, "--config", str(cfg),
                                 "--out", str(tmp_path / command)])
                assert code == cli.EXIT_PASS and len(calls) == 1, command

    @pytest.mark.parametrize("damage", sorted(_DAMAGE))
    def test_incomplete_trajectory_is_solved_again(self, fresh_verify, tmp_path, damage):
        cfg, fresh, expected = fresh_verify
        out = tmp_path / "out"
        shutil.copytree(fresh, out)
        _DAMAGE[damage](next(out.glob("trajectory_*")))
        code = cli.main(["verify", "--config", str(cfg), "--out", str(out)])
        assert code == cli.EXIT_PASS
        assert _artifact_hashes(out) == expected
