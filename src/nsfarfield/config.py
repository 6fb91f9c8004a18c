"""Declarative scenario configs: a flat, sectioned key-value text format.

Grammar (documented in the README):

* a section header is ``[name]`` alone on a line;
* inside a section, entries are ``key = value`` with ``value`` free text
  (split on whitespace for lists);
* ``#`` starts a comment; blank lines are ignored;
* no nesting, no includes, no quoting.

``parse_config`` reports malformed lines with line and column; semantic
validation collects every violation instead of stopping at the first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

__all__ = ["ScenarioConfig", "ConfigError", "parse_config", "norm_regime", "CHECKS"]

# check -> the [checks] keys it reads, by role: "times" are slice times, "radii" at
# least 5 with |x| >= e sqrt(first time), "pairs" at least one alpha:p (``_violations``)
CHECKS = {
    "kernel": {},
    "profile": {"times": ("profile_time",), "radii": "profile_radii"},
    "window": {"times": ("window_time", "short_times"), "radii": "window_radii"},
    "sweep": {"pairs": "sweep_pairs"},
    "divergence": {"times": ("divergence_time",), "pairs": "divergence_pairs"},
    "lemlog": {},
    "next_order": {"times": ("next_order_time",), "radii": "next_order_radii"},
}


class ConfigError(ValueError):
    """Carries every collected violation, not just the first."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


def norm_regime(d: int, alpha: float, p: float) -> str | None:
    """Where the weighted norm || (1+|x|)^alpha u(t) ||_p of a flow decaying
    like |x|^-d stands, by the sign of alpha + d/p - d (d/p = 0 at p = inf).

    "decay": the norm is finite and decays in t (``weighted_norm_sweep``).
    "limit": p = inf with alpha = d, a bounded norm that the sweep admits
    with a boundedness check.  "divergence": p finite with alpha + d/p >= d,
    an infinite norm (``divergence_detect``).  None: p = inf with alpha > d,
    infinite and left to no check.  A gap within 1e-12 of 0 counts as 0.
    """
    if math.isinf(p):
        gap = alpha - d
        return "limit" if abs(gap) < 1e-12 else ("decay" if gap < 0 else None)
    return "decay" if alpha + d / p - d < -1e-12 else "divergence"


def nearest_slice(times, t: float) -> int:
    """Index of the slice time in ``times`` nearest to t; the earlier on a tie."""
    return int(np.argmin(np.abs(times - t)))


def on_slice(times, t: float) -> bool:
    """Whether t is within 1e-9 * max(1, horizon) of a slice time in ``times`` (0 to horizon)."""
    return bool(abs(times[nearest_slice(times, t)] - t) <= 1e-9 * max(1.0, times[-1]))


def _number(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not finite")
    return value


def _floats(text: str) -> tuple:
    return tuple(_number(tok) for tok in text.split())


def _pairs(text: str) -> tuple:
    out = []
    for tok in text.split():
        alpha_s, p_s = tok.split(":")
        out.append((_number(alpha_s), math.inf if p_s in ("inf", "oo") else _number(p_s)))
    return tuple(out)


def _words(text: str) -> tuple:
    return tuple(text.split())


# what a parse failure says the value should have been
_EXPECTED = {int: "integer", _number: "finite number", _floats: "finite number list",
             _pairs: "alpha:p list"}


def _key(section: str, key: str, default: str, parse=str):
    """The config entry ``[section] key`` with its default text and parser."""
    return field(metadata={"key": (section, key), "default": default, "parse": parse})


@dataclass
class ScenarioConfig:
    dimension: int = _key("scenario", "dimension", "2", int)
    name: str = _key("scenario", "name", "scenario")
    half_width: float = _key("grid", "half_width", "32.0", _number)
    points: int = _key("grid", "points", "256", int)
    horizon: float = _key("time", "horizon", "2.0", _number)
    slices: int = _key("time", "slices", "128", int)
    data_kind: str = _key("initial_data", "kind", "zero")
    data_amplitude: float = _key("initial_data", "amplitude", "0.0", _number)
    data_width: float = _key("initial_data", "width", "1.0", _number)
    force_kind: str = _key("force", "kind", "gaussian_bump")
    force_amplitude: tuple = _key("force", "amplitude", "0.0018 0.0", _floats)
    force_width: float = _key("force", "width", "1.0", _number)
    force_center: tuple = _key("force", "center", "0.0 0.0", _floats)
    force_separation: tuple = _key("force", "separation", "1.0 0.0", _floats)
    time_profile: str = _key("force", "time_profile", "smooth_bump")
    time_on: float = _key("force", "time_on", "0.0", _number)
    time_off: float = _key("force", "time_off", "0.5", _number)
    tolerance: float = _key("solver", "tolerance", "1e-10", _number)
    max_sweeps: int = _key("solver", "max_sweeps", "12", int)
    refine: int = _key("solver", "refine", "1", int)
    checks: tuple = _key("checks", "run", "profile window sweep divergence", _words)
    profile_time: float = _key("checks", "profile_time", "1.0", _number)
    profile_radii: tuple = _key("checks", "profile_radii", "16 22.6 32 45.25 64 90.5 128",
                                _floats)
    window_time: float = _key("checks", "window_time", "1.0", _number)
    window_radii: tuple = _key("checks", "window_radii", "32 48 64 96 128", _floats)
    window_directions: int = _key("checks", "window_directions", "16", int)
    short_times: tuple = _key("checks", "short_times", "", _floats)
    sweep_pairs: tuple = _key("checks", "sweep_pairs", "0:inf 1:inf 0:2", _pairs)
    sweep_times: tuple = _key("checks", "sweep_times", "1.0 1.122 1.26 1.414 1.587 1.782 2.0",
                              _floats)
    divergence_pairs: tuple = _key("checks", "divergence_pairs", "0:1", _pairs)
    divergence_time: float = _key("checks", "divergence_time", "2.0", _number)
    divergence_radii: tuple = _key("checks", "divergence_radii", "32 64 128 256 512", _floats)
    next_order_time: float = _key("checks", "next_order_time", "1.0", _number)
    next_order_radii: tuple = _key("checks", "next_order_radii",
                                   "16 22.6 32 45.25 64 90.5 128", _floats)
    output_directory: str = _key("output", "directory", "out")
    raw: dict = field(default_factory=dict, repr=False)

    def hash_source(self) -> tuple:
        """Everything that determines the numbers (output location excluded)."""
        items = sorted((k, v) for k, v in self.raw.items() if k[0] != "output")
        return tuple(items)


_ENTRIES = [f for f in fields(ScenarioConfig) if f.metadata]
_DEFAULTS = {f.metadata["key"]: f.metadata["default"] for f in _ENTRIES}
_SECTIONS = sorted({s for s, _ in _DEFAULTS})


def _parse_lines(text: str):
    """Raw parse: returns {(section, key): value} or raises ConfigError with
    line/column positions for malformed syntax."""
    values = {}
    problems = []
    section = None
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        stripped = line.strip()
        if stripped.startswith("["):
            if not stripped.endswith("]") or len(stripped) < 3:
                problems.append(f"line {lineno}, col {len(line) + 1}: unterminated section header")
                continue
            section = stripped[1:-1].strip()
            if section not in _SECTIONS:
                problems.append(f"line {lineno}, col 1: unknown section [{section}]")
                section = None
            continue
        if "=" not in stripped:
            col = len(raw_line) - len(raw_line.lstrip()) + 1
            problems.append(f"line {lineno}, col {col}: expected 'key = value'")
            continue
        if section is None:
            problems.append(f"line {lineno}, col 1: entry outside a [section]")
            continue
        key, value = (part.strip() for part in stripped.split("=", 1))
        if not key:
            problems.append(f"line {lineno}, col 1: empty key")
            continue
        if (section, key) not in _DEFAULTS:
            problems.append(f"line {lineno}, col 1: unknown key {section}.{key}")
            continue
        values[(section, key)] = value
    if problems:
        raise ConfigError(problems)
    return values


def parse_config(text: str) -> ScenarioConfig:
    """Parse and validate; unset keys take documented defaults."""
    values = dict(_DEFAULTS)
    values.update(_parse_lines(text))
    parsed, problems = {}, []
    for f in _ENTRIES:
        section, key = f.metadata["key"]
        parse = f.metadata["parse"]
        try:
            parsed[f.name] = parse(values[(section, key)])
        except (ValueError, IndexError):
            problems.append(f"{section}.{key}: cannot parse {values[(section, key)]!r} "
                            f"as {_EXPECTED[parse]}")
    if problems:
        raise ConfigError(problems)
    cfg = ScenarioConfig(**parsed, raw=values)
    problems = _violations(cfg)
    if problems:
        raise ConfigError(problems)
    return cfg


def _violations(cfg: ScenarioConfig) -> list:
    """Semantic validation: every violated constraint, not just the first."""
    problems = []
    d = cfg.dimension
    if d not in (2, 3):
        problems.append(f"scenario.dimension: must be 2 or 3, got {d}")
    if cfg.points < 16 or cfg.points & (cfg.points - 1) != 0:
        problems.append(f"grid.points: must be a power of two >= 16, got {cfg.points}")
    if cfg.half_width <= 0:
        problems.append("grid.half_width: must be positive")
    if cfg.horizon <= 0:
        problems.append("time.horizon: must be positive")
    elif cfg.half_width > 0 and math.sqrt(cfg.horizon) > cfg.half_width / 8.0 + 1e-12:
        problems.append(
            f"time.horizon: sqrt(horizon) = {math.sqrt(cfg.horizon):.4g} exceeds the "
            f"truncation guard half_width/8 = {cfg.half_width / 8:.4g}")
    if cfg.slices < 4:
        problems.append("time.slices: need at least 4")
    if cfg.data_kind not in ("zero", "curl_bump"):
        problems.append(f"initial_data.kind: unknown kind {cfg.data_kind!r}")
    if cfg.data_width <= 0:
        problems.append("initial_data.width: must be positive")
    if cfg.force_kind not in ("zero", "gaussian_bump", "dipole_pair", "quadrupole"):
        problems.append(f"force.kind: unknown kind {cfg.force_kind!r}")
    if d in (2, 3) and len(cfg.force_amplitude) != d:
        problems.append(f"force.amplitude: need {d} components, got {len(cfg.force_amplitude)}")
    if cfg.force_width <= 0:
        problems.append("force.width: must be positive")
    if d in (2, 3) and len(cfg.force_center) != d:
        problems.append(f"force.center: need {d} components, got {len(cfg.force_center)}")
    if d in (2, 3) and len(cfg.force_separation) != d:
        problems.append(
            f"force.separation: need {d} components, got {len(cfg.force_separation)}")
    if cfg.time_profile not in ("smooth_bump", "indicator"):
        problems.append(f"force.time_profile: unknown profile {cfg.time_profile!r}")
    if not (0 <= cfg.time_on < cfg.time_off):
        problems.append("force.time_on/time_off: need 0 <= on < off")
    if cfg.time_off > cfg.horizon:
        problems.append("force.time_off: force must switch off within the horizon")
    if cfg.tolerance <= 0:
        problems.append("solver.tolerance: must be positive")
    if cfg.max_sweeps < 1:
        problems.append("solver.max_sweeps: need at least 1")
    if cfg.refine < 1:
        problems.append("solver.refine: need at least 1")
    for check in cfg.checks:
        if check not in CHECKS:
            problems.append(
                f"checks.run: unknown check {check!r} (known: {', '.join(CHECKS)})")
    for check in dict.fromkeys(c for i, c in enumerate(cfg.checks) if c in cfg.checks[:i]):
        problems.append(f"checks.run: {check!r} named more than once")
    if d in (2, 3):
        for alpha, p in cfg.sweep_pairs:
            regime = norm_regime(d, alpha, p)
            if regime == "divergence":
                problems.append(
                    f"checks.sweep_pairs: ({alpha:g},{p:g}) has alpha + d/p >= d; "
                    "it belongs under divergence_pairs")
            elif regime is None:
                problems.append(
                    f"checks.sweep_pairs: ({alpha:g},inf) has alpha > d; its norm is "
                    "infinite, and divergence_pairs needs a finite p")
        for alpha, p in cfg.divergence_pairs:
            if math.isinf(p):
                problems.append("checks.divergence_pairs: p must be finite")
            elif norm_regime(d, alpha, p) != "divergence":
                problems.append(
                    f"checks.divergence_pairs: ({alpha:g},{p:g}) has alpha + d/p < d; "
                    "it belongs under sweep_pairs")
    if cfg.window_directions < 1:
        problems.append(f"checks.window_directions: need at least 1, got "
                        f"{cfg.window_directions}")
    times = (np.linspace(0.0, cfg.horizon, cfg.slices + 1)
             if cfg.horizon > 0 and cfg.slices >= 1 else None)
    # a switch inside a slice falls between the GL4 nodes of the solve's slice
    # rule, which then misses part of tau(s): the force switches at slice times,
    # which are also the panel edges of the far field's linear term
    off = [t for t in (cfg.time_on, cfg.time_off) if times is not None
           and 0 <= t <= cfg.horizon and not on_slice(times, t)]
    if off:
        problems.append(
            f"force.time_on/time_off: {', '.join(f'{t:g}' for t in off)} not a slice time "
            f"k*horizon/slices (slices = {cfg.slices})")
    for check, keys in CHECKS.items():
        if check not in cfg.checks:
            continue
        for key in keys.get("times", ()):
            off = [t for t in np.atleast_1d(getattr(cfg, key)) if times is not None
                   and not (0 < t <= cfg.horizon and on_slice(times, t))]
            if off:
                problems.append(
                    f"checks.{key}: {', '.join(f'{t:g}' for t in off)} not a slice time "
                    f"k*horizon/slices in (0, {cfg.horizon:g}] (slices = {cfg.slices})")
        if "radii" in keys:
            radii, t_check = getattr(cfg, keys["radii"]), getattr(cfg, keys["times"][0])
            if len(radii) < 5:
                problems.append(f"checks.{keys['radii']}: need at least 5 radii for the "
                                f"power-law fit, got {len(radii)}")
            bound = math.e * math.sqrt(t_check) if t_check > 0 else -math.inf
            bad = [r for r in radii if r < bound]
            if bad:
                problems.append(f"checks.{keys['radii']}: radii {bad} violate "
                                f"|x| >= e sqrt(t) = {bound:.4g}")
        if "pairs" in keys and not getattr(cfg, keys["pairs"]):
            problems.append(f"checks.{keys['pairs']}: need at least one alpha:p pair")
    radii = cfg.divergence_radii
    if "divergence" in cfg.checks and (
            len(radii) < 3 or any(hi <= lo for lo, hi in zip(radii, radii[1:]))):
        problems.append(f"checks.divergence_radii: need at least 3 increasing radii, "
                        f"got {list(radii)}")
    # the sweep fits its norms at the slice times the solved trajectory snaps
    # sweep_times to (``Trajectory.nearest_time``)
    if "sweep" in cfg.checks and times is not None:
        snapped = {nearest_slice(times, t) for t in cfg.sweep_times}
        if 0 in snapped or len(snapped) < 5 or any(
                not 0 < t <= cfg.horizon for t in cfg.sweep_times):
            problems.append(
                f"checks.sweep_times: need times in (0, {cfg.horizon:g}] that snap to at least "
                f"5 distinct slice times k*horizon/slices > 0 (slices = {cfg.slices})")
    return problems
