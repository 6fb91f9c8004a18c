"""Config grammar, validation, and the scenario CLI."""

import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import helpers
from nsfarfield import cli
from nsfarfield.config import CHECKS, ConfigError, parse_config
from nsfarfield.grid import BoxGrid, VectorFieldGrid, read_snapshot

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


def _cut_snapshot_line(tdir):
    # keep "snapshot 3 <time>", drop the file name and the drift
    manifest = tdir / "manifest.txt"
    lines = [" ".join(ln.split()[:3]) + "\n" if ln.startswith("snapshot 3 ") else ln
             for ln in manifest.read_text().splitlines(keepends=True)]
    manifest.write_text("".join(lines))


def _older_format(tdir):
    # the format line of an older format, replacing or adding one
    manifest = tdir / "manifest.txt"
    lines = [ln for ln in manifest.read_text().splitlines(keepends=True)
             if not ln.startswith("format ")]
    manifest.write_text("format 0\n" + "".join(lines))


def _lying_header(**field):
    # snapshot 3's header claims more data than its file holds
    return lambda tdir: helpers.rewrite_snapshot_header(tdir / "u00003.nsvf", **field)


def _other_grid(tdir):
    # snapshot 3 at its own time, sampled on a grid of half the points
    snap = read_snapshot(tdir / "u00003.nsvf")
    grid = BoxGrid(snap.grid.d, snap.grid.length, snap.grid.n // 2)
    VectorFieldGrid(grid, snap.components[:, ::2, ::2], time=snap.time).save(
        tdir / "u00003.nsvf")


def _swap_snapshots(tdir):
    a, b = tdir / "u00003.nsvf", tdir / "u00004.nsvf"
    data = a.read_bytes()
    a.write_bytes(b.read_bytes())
    b.write_bytes(data)


def _edit_manifest(edit):
    # the manifest's lines, as ``edit(lines)`` returns them
    def apply(tdir):
        manifest = tdir / "manifest.txt"
        manifest.write_text("".join(edit(manifest.read_text().splitlines(keepends=True))))
    return apply


def _drop_line(key):
    # the manifest without its `key` line
    return _edit_manifest(lambda lines: [ln for ln in lines if ln.split()[0] != key])


def _truncate(path, size=None):
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2 if size is None else size])


# ways a cached trajectory directory can be left incomplete or inconsistent
_DAMAGE = {
    "manifest_deleted": lambda tdir: (tdir / "manifest.txt").unlink(),
    "snapshot_truncated": lambda tdir: _truncate(tdir / "u00003.nsvf"),
    "snapshot_extended": lambda tdir: (tdir / "u00003.nsvf").write_bytes(
        (tdir / "u00003.nsvf").read_bytes() + b"\0"),
    # inside the 34-byte header
    "snapshot_header_cut": lambda tdir: _truncate(tdir / "u00003.nsvf", 20),
    "snapshot_deleted": lambda tdir: (tdir / "u00003.nsvf").unlink(),
    "snapshot_line_dropped": _drop_snapshot_line,
    "snapshot_line_cut": _cut_snapshot_line,
    "older_format": _older_format,
    "snapshot_header_inflated_n": _lying_header(n=1 << 20),
    "snapshot_header_wrong_ncomp": _lying_header(ncomp=3),
    "snapshot_from_other_grid": _other_grid,
    "snapshots_swapped": _swap_snapshots,
    "iteration_log_dropped": _drop_line("iteration_log"),
    "kappa_dropped": _drop_line("kappa"),
    "scenario_hash_dropped": _drop_line("scenario_hash"),
    # the manifest of another scenario's solve
    "scenario_hash_changed": _edit_manifest(lambda lines: [
        "scenario_hash 0123456789abcdef\n" if ln.startswith("scenario_hash ") else ln
        for ln in lines]),
    # a second slices line ahead of the first, that of a solve with one slice fewer
    "slices_repeated": _edit_manifest(lambda lines: [
        f"slices {int(ln.split()[1]) - 1}\n" for ln in lines if ln.startswith("slices ")]
        + lines),
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

    def test_sup_norm_beyond_the_limit_pair_fits_no_list(self):
        # p = inf with alpha > d: an infinite norm that divergence_pairs,
        # which needs a finite p, cannot take either
        with pytest.raises(ConfigError) as exc:
            parse_config("[checks]\nsweep_pairs = 3:inf\n")
        assert exc.value.problems == [
            "checks.sweep_pairs: (3,inf) has alpha > d; its norm is infinite, "
            "and divergence_pairs needs a finite p"]

    @pytest.mark.parametrize("section,key,value,expected", [
        ("grid", "half_width", "nan", "finite number"),
        ("time", "horizon", "nan", "finite number"),
        ("initial_data", "amplitude", "nan", "finite number"),
        ("force", "width", "inf", "finite number"),
        ("force", "amplitude", "0.002 -inf", "finite number list"),
        ("checks", "profile_radii", "16 22.6 32 nan 64", "finite number list"),
        ("checks", "sweep_pairs", "nan:inf", "alpha:p list"),
        ("checks", "divergence_pairs", "0:nan", "alpha:p list"),
    ])
    def test_non_finite_numbers_rejected(self, section, key, value, expected):
        # p = inf (or oo) of a pair is the only infinity a config may hold
        with pytest.raises(ConfigError) as exc:
            parse_config(f"[{section}]\n{key} = {value}\n")
        assert exc.value.problems == [f"{section}.{key}: cannot parse {value!r} as {expected}"]

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

    def test_unknown_check_names_every_known_check(self):
        with pytest.raises(ConfigError) as exc:
            parse_config("[checks]\nrun = profile suchcheck\n")
        assert exc.value.problems == [
            "checks.run: unknown check 'suchcheck' (known: kernel, profile, window, sweep, "
            "divergence, lemlog, next_order)"]

    def test_repeated_check_is_one_problem(self):
        # run names a subset of the checks: a name given twice or more is one
        # problem, not a second run over the same artifacts
        with pytest.raises(ConfigError) as exc:
            parse_config("[checks]\nrun = lemlog profile lemlog lemlog\n")
        assert exc.value.problems == ["checks.run: 'lemlog' named more than once"]

    def test_check_table_names_every_runner(self):
        # the kernel check has no runner: run_verify runs it as kernel-check does
        assert set(cli._CHECK_RUNNERS) | {"kernel"} == set(CHECKS)

    def test_two_checks_break_their_rules_in_table_order(self):
        # each selected check's rules in the order of CHECKS, not of run: the
        # window's times, then its radii; the divergence pairs, then its radii
        text = QUICK.replace("run = lemlog", "run = divergence window") + (
            "\n[checks]\nwindow_time = 0.3\nwindow_radii = 1 16 24\n"
            "short_times = 0.1 0.125\ndivergence_time = 0.5\ndivergence_pairs =\n"
            "divergence_radii = 32 64\n")
        with pytest.raises(ConfigError) as exc:
            parse_config(text)
        grid = "k*horizon/slices in (0, 0.5] (slices = 16)"
        assert exc.value.problems == [
            f"checks.window_time: 0.3 not a slice time {grid}",
            f"checks.short_times: 0.1 not a slice time {grid}",
            "checks.window_radii: need at least 5 radii for the power-law fit, got 3",
            "checks.window_radii: radii [1.0] violate |x| >= e sqrt(t) = 1.489",
            "checks.divergence_pairs: need at least one alpha:p pair",
            "checks.divergence_radii: need at least 3 increasing radii, got [32.0, 64.0]"]

    def test_window_radii_validity_region(self):
        text = "[checks]\nrun = window\nwindow_time = 4.0\nwindow_radii = 5 48 64 96 128\n"
        with pytest.raises(ConfigError, match="e sqrt"):
            parse_config(text)

    @pytest.mark.parametrize("n_dirs", [0, -3])
    def test_window_directions_at_least_one(self, n_dirs):
        with pytest.raises(ConfigError) as exc:
            parse_config(f"[checks]\nwindow_directions = {n_dirs}\n")
        assert exc.value.problems == [f"checks.window_directions: need at least 1, "
                                      f"got {n_dirs}"]

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
        # divergence octaves); fewer is a config error, not a failed check.
        # The check's time is the horizon, a slice time.
        text = QUICK.replace("run = lemlog", f"run = {check}")
        text += f"\n[checks]\n{key} = {value}\n{check}_time = 0.5\n"
        with pytest.raises(ConfigError) as exc:
            parse_config(text)
        assert all(p.startswith(f"checks.{key}:") for p in exc.value.problems)
        cfg = tmp_path / "short.cfg"
        cfg.write_text(text)
        code = cli.main(["verify", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == cli.EXIT_CONFIG_ERROR

    @pytest.mark.parametrize("check,key,value", [
        ("profile", "profile_time", "0.3"),
        ("profile", "profile_time", "0.75"),
        ("window", "window_time", "0"),
        ("window", "short_times", "0.125 0.1"),
        ("divergence", "divergence_time", "2.0"),
        ("next_order", "next_order_time", "-0.25"),
    ])
    def test_check_time_off_the_slices_is_a_config_error(self, tmp_path, capsys,
                                                         check, key, value):
        # QUICK's slices are k/32, k = 1..16: a selected check's time must be
        # one of them, or the solved trajectory has no snapshot there
        times = {"profile_time": 0.5, "window_time": 0.5, "divergence_time": 0.5,
                 "next_order_time": 0.5, key: value}
        cfg = tmp_path / "offgrid.cfg"
        cfg.write_text(QUICK.replace("run = lemlog", f"run = {check}") + "\n[checks]\n"
                       + "".join(f"{k} = {v}\n" for k, v in times.items()))
        out = tmp_path / "o"
        assert cli.main(["all", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_CONFIG_ERROR
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"config error: checks.{key}:"), lines
        assert not list(out.glob("trajectory_*"))

    @pytest.mark.parametrize("old,new", [("time_on = 0.0", "time_on = 0.01"),
                                         ("time_off = 0.25", "time_off = 0.3")])
    def test_force_switch_off_the_slices_is_a_config_error(self, tmp_path, capsys, old, new):
        # the force switches on and off at slice times k/32, checked before
        # any solve: no output directory is made
        cfg = tmp_path / "offgrid.cfg"
        cfg.write_text(QUICK.replace(old, new))
        out = tmp_path / "o"
        assert cli.main(["all", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_CONFIG_ERROR
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1 and lines[0].startswith("config error: force.time_on/time_off:")
        assert not out.exists()

    @pytest.mark.parametrize("run,key,value", [
        ("sweep", "sweep_pairs", ""),
        ("divergence", "divergence_pairs", ""),
        ("sweep", "sweep_times", "0.25 0.5"),
        ("sweep", "sweep_times", "0.25 0.26 0.3125 0.375 0.5"),
        ("sweep", "sweep_times", "0 0.25 0.3125 0.375 0.5"),
        ("sweep", "sweep_times", "0.01 0.25 0.3125 0.375 0.5"),
    ])
    def test_sweep_or_divergence_without_a_fit_is_a_config_error(self, tmp_path, capsys,
                                                                 run, key, value):
        # an empty pair list would pass with nothing checked; sweep times that
        # snap to fewer than 5 distinct positive slice times cannot be fitted
        good = {"sweep_times": "0.25 0.3125 0.375 0.4375 0.5", "divergence_time": "0.5"}
        cfg = tmp_path / "nofit.cfg"
        cfg.write_text(QUICK.replace("run = lemlog", f"run = {run}") + "\n[checks]\n"
                       + "".join(f"{k} = {v}\n" for k, v in {**good, key: value}.items()))
        out = tmp_path / "o"
        assert cli.main(["all", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_CONFIG_ERROR
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"config error: checks.{key}:"), lines
        assert not list(out.glob("trajectory_*"))

    @pytest.mark.parametrize("horizon,slices", [(0.5, 16), (0.3, 10)])
    def test_sweep_time_rule_snaps_as_the_trajectory(self, horizon, slices):
        # a half-step time is a tie in exact arithmetic, broken by rounding on
        # the 0.3/10 grid; the config rule must pick the slice that
        # Trajectory.nearest_time picks.  Four fixed slice times plus one
        # half-step time: 5 distinct slices unless the half-step time lands
        # on a fixed one (or on t = 0).  The trajectory is a real (zero) solve,
        # so its times are the solver's own
        from nsfarfield import solver as sv
        from nsfarfield.forcing import ForceModel, InitialData

        traj = sv.picard_solve(InitialData(2), ForceModel.zero(2), BoxGrid(2, 16.0, 16),
                               horizon, sv.SolverOptions(slices=slices))
        times = traj.times
        fixed = tuple(float(times[i]) for i in (slices // 2, slices * 5 // 8,
                                                slices * 3 // 4, slices))
        # the force switches off at a slice time of either grid
        base = QUICK.replace("run = lemlog", "run = sweep").replace(
            "horizon = 0.5\nslices = 16", f"horizon = {horizon!r}\nslices = {slices}").replace(
            "time_off = 0.25", f"time_off = {horizon / 2!r}")
        outcomes = set()
        for k in range(slices):
            half = (k + 0.5) * horizon / slices
            snapped = traj.nearest_time(half)
            fits = snapped > 0 and snapped not in fixed
            try:
                parse_config(base + "\n[checks]\nsweep_times = "
                             + " ".join(repr(t) for t in (half,) + fixed) + "\n")
                parsed = True
            except ConfigError as exc:
                assert [p.split(":")[0] for p in exc.problems] == ["checks.sweep_times"]
                parsed = False
            assert parsed == fits, (k, half, snapped)
            outcomes.add(parsed)
        assert outcomes == {True, False}

    def test_check_time_on_the_slices_parses(self):
        text = QUICK + ("\n[checks]\nrun = profile window\nprofile_time = 0.15625\n"
                        "window_time = 0.5\nshort_times = 0.03125 0.0625\n")
        cfg = parse_config(text)
        assert cfg.profile_time == 0.15625 and cfg.short_times == (0.03125, 0.0625)

    def test_non_finite_number_exit_code(self, tmp_path):
        cfg = tmp_path / "nan.cfg"
        cfg.write_text(QUICK.replace("horizon = 0.5", "horizon = nan"))
        assert cli.main(["simulate", "--config", str(cfg)]) == cli.EXIT_CONFIG_ERROR

    def test_zero_window_directions_exit_code(self, tmp_path):
        cfg = tmp_path / "nodirs.cfg"
        cfg.write_text(QUICK.replace("run = lemlog", "run = window")
                       + "\n[checks]\nwindow_directions = 0\n")
        code = cli.main(["all", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == cli.EXIT_CONFIG_ERROR

    def test_missing_config(self):
        assert cli.main(["simulate", "--config", "/nonexistent.cfg"]) == cli.EXIT_CONFIG_ERROR

    def test_unknown_only_check(self, tmp_path):
        cfg = tmp_path / "quick.cfg"
        cfg.write_text(QUICK)
        code = cli.main(["verify", "--config", str(cfg), "--out", str(tmp_path / "o"),
                         "--only", "nonsense"])
        assert code == cli.EXIT_CONFIG_ERROR

    @pytest.mark.parametrize("command,run,only,problem", [
        ("all", "", None, "no check selected"),
        ("verify", "", None, "no check selected"),
        ("all", "lemlog", ",", "no check selected"),
        ("all", "lemlog", "profile", "--only names checks not in checks.run: profile"),
        ("verify", "lemlog", "lemlog,kernel,nonsense",
         "--only names checks not in checks.run: kernel, nonsense"),
    ])
    def test_no_check_run_is_a_config_error(self, tmp_path, capsys, command, run, only,
                                            problem):
        # before any solve: a run that checks nothing must not report a pass
        cfg = tmp_path / "quick.cfg"
        cfg.write_text(QUICK.replace("run = lemlog", f"run = {run}"))
        out = tmp_path / "o"
        argv = [command, "--config", str(cfg), "--out", str(out)]
        if only is not None:
            argv += ["--only", only]
        assert cli.main(argv) == cli.EXIT_CONFIG_ERROR
        lines = capsys.readouterr().out.splitlines()
        assert lines == [f"config error: {problem}"]
        assert not list(out.glob("trajectory_*"))

    @pytest.mark.parametrize("command", ["simulate", "verify", "all"])
    def test_repeated_check_is_a_config_error(self, tmp_path, capsys, command):
        cfg = tmp_path / "twice.cfg"
        cfg.write_text(QUICK.replace("run = lemlog", "run = lemlog lemlog"))
        out = tmp_path / "o"
        argv = [command, "--config", str(cfg), "--out", str(out)]
        assert cli.main(argv) == cli.EXIT_CONFIG_ERROR
        lines = capsys.readouterr().out.splitlines()
        assert lines == ["config error: checks.run: 'lemlog' named more than once"]
        assert not list(out.glob("trajectory_*"))

    def test_simulate_runs_without_checks(self, tmp_path):
        cfg = tmp_path / "quick.cfg"
        cfg.write_text(QUICK.replace("run = lemlog", "run ="))
        out = tmp_path / "o"
        assert cli.main(["simulate", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_PASS
        assert list(out.glob("trajectory_*"))

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

    def test_truncated_verify_summary_is_a_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "quick.cfg"
        cfg.write_text(QUICK)
        out = tmp_path / "out"
        out.mkdir()
        digest = cli.scenario_digest(parse_config(QUICK).hash_source())
        # cut JSON, then valid JSON of the wrong shape, then no check at all
        for text in ('{"checks": ', '[]', '{"checks": []}', '{"checks": {"a": 1}}',
                     '{"checks": {}}'):
            (out / f"verify_{digest}.json").write_text(text)
            code = cli.main(["report", "--config", str(cfg), "--out", str(out)])
            assert code == cli.EXIT_CONFIG_ERROR, text
            lines = capsys.readouterr().out.splitlines()
            assert len(lines) == 1 and lines[0].startswith("no readable verify summary"), text
            assert not list(out.glob("report_*.json"))

    @pytest.mark.parametrize("command", ["all", "kernel-check"])
    def test_out_path_that_is_a_file_is_a_config_error(self, tmp_path, capsys, command):
        cfg = tmp_path / "quick.cfg"
        cfg.write_text(QUICK)
        taken = tmp_path / "taken"
        taken.write_text("not a directory")
        argv = [command, "--out", str(taken)]
        if command == "all":
            argv += ["--config", str(cfg)]
        assert cli.main(argv) == cli.EXIT_CONFIG_ERROR
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1 and lines[0].startswith("cannot use output directory")
        assert taken.read_text() == "not a directory"

    def test_verify_runs_only_selected(self, tmp_path):
        cfg = tmp_path / "quick.cfg"
        cfg.write_text(QUICK)
        out = tmp_path / "sel"
        code = cli.main(["verify", "--config", str(cfg), "--out", str(out),
                         "--only", "lemlog"])
        assert code == cli.EXIT_PASS
        summary = json.loads(next(out.glob("verify_*.json")).read_text())
        assert list(summary["checks"]) == ["lemlog"]
        # the lemlog CSV abscissa is rho = |x|/sqrt(t), one per (|x|, t) row:
        # 16 distinct values, geometric over [e, 40]
        rows = next(out.glob("lemlog_*.csv")).read_text().splitlines()[1:]
        rhos = [float(row.split(",")[0]) for row in rows]
        assert len(set(rhos)) == len(rows) == 16
        np.testing.assert_allclose(rhos, np.geomspace(math.e, 40.0, 16), rtol=1e-14)
        # the residual is value - prediction; from rho = 16 on the prediction
        # is the ratio's exact large-rho form, so the residual is round-off
        for rho, row in zip(rhos, rows):
            _, value, pred, resid = (float(v) for v in row.split(","))
            assert resid == value - pred
            if rho >= 16.0:
                assert abs(resid) < 1e-15 * value

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

    def test_failed_resolve_keeps_the_previous_trajectory(self, fresh_verify, tmp_path):
        # a re-solve that runs out of sweeps after writing two sweeps into
        # its staging directory: the saved trajectory stays whole, and
        # nothing is left next to it
        from nsfarfield.solver import ConvergenceError, SolverOptions

        cfg, fresh, _ = fresh_verify
        out = tmp_path / "out"
        shutil.copytree(fresh, out)
        before = _artifact_hashes(out)
        config = parse_config(cfg.read_text())
        grid, data, force, _, digest = cli.build_scenario(config)
        scenario = (grid, data, force, SolverOptions(slices=config.slices, tol=1e-300,
                                                     max_sweeps=2), digest)
        with pytest.raises(ConvergenceError):
            cli.simulate(config, str(out), scenario)
        assert _artifact_hashes(out) == before
        assert not [p.name for p in out.iterdir() if p.name.startswith(".")]

    def test_all_reads_no_snapshot_sample_for_kernel_and_lemlog(self, tmp_path, monkeypatch):
        # the solve streams its slices to disk and hands the save its decay
        # constant; verify checks the headers and reads no sample for checks
        # that evaluate no field
        from nsfarfield import solver

        def refuse(path):
            raise AssertionError(f"read {path}")

        monkeypatch.setattr(solver, "read_snapshot", refuse)
        cfg = tmp_path / "quick.cfg"
        cfg.write_text(QUICK.replace("run = lemlog", "run = kernel lemlog"))
        out = tmp_path / "out"
        assert cli.main(["all", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_PASS
        assert len(list(next(out.glob("trajectory_*")).glob("u*.nsvf"))) == 17
