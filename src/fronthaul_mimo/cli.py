"""Config ingestion, sweep orchestration and machine-readable output.

Config files are flat ``key = value`` text (UTF-8, ``#`` comments).  System
keys mirror SystemConfig field names; ``B_w``, ``M``, ``b`` anchor a design
point; ``sweep_*`` keys describe a grid.  Unknown keys are rejected with the
offending line number.

Exit codes: 0 success, 1 usage/parse error, 2 infeasible or model error.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import importlib.util
import json
import math
import os
import re
import sys
from typing import NamedTuple

from . import optimizer
from .errors import (
    ConfigError,
    ConfigSyntaxError,
    ConfigValueError,
    InfeasibleError,
    SweepPointError,
)
from .linkrate import achievable_rate
from .sysmodel import (
    QUANTIZE_MODES,
    Design,
    DesignPoint,
    SystemConfig,
    reference_snr_from_power,
    reference_snr_to_power,
    require_finite,
)


def _lazy_submodule(name: str):
    """Submodule ``name`` bound as ``import`` binds it, run on its first attribute read."""
    full_name = f"{__package__}.{name}"
    if full_name not in sys.modules:
        spec = importlib.util.find_spec(full_name)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        sys.modules[full_name] = module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        setattr(sys.modules[__package__], name, module)
    return sys.modules[full_name]


montecarlo = _lazy_submodule("montecarlo")  # numpy with it: an MC row or mc-validate loads it

CSV_VERSION = "fhmimo-sweep-csv v1"

CSV_COLUMNS = (
    "preset",
    "axis",
    "axis_value",
    "theta",
    "snr_db",
    "K",
    "C_f_bps",
    "B_w_hz",
    "M",
    "b",
    "s",
    "N",
    "N_p",
    "L",
    "x_int",
    "c",
    "gamma",
    "rate_bps",
    "sum_rate_bps",
    "f_b",
    "bandwidth_cond",
    "pade_cond",
    "antenna_cond",
    "mc_mode",
    "trials",
    "mc_rate_bps",
    "mc_stderr_bps",
    "clip_rate",
)

SWEEP_AXES = ("b", "B_w", "M", "s", "theta", "snr_db")
BIND_MODES = ("none", "antennas", "bandwidth")

_POSITIVE_KEYS = {"K", "C_f", "N", "L", "theta", "P", "X_int", "B_w", "M", "b"}


@dataclasses.dataclass(frozen=True)
class SweepSpec:
    """One sweep: the axis, its grid, the fixed design anchors, and MC knobs.

    ``trials`` unset means closed form only for a sweep and 100 trials for
    ``mc-validate``; a given value is used as it is.
    """

    axis: str | None = None
    values: tuple = ()
    bind: str = "none"
    B_w: float | None = None
    M: int | None = None
    b: int | None = None
    trials: int | None = None
    seed: int = 0
    mc_mode: str = "pqn"

    def __post_init__(self) -> None:
        require_finite(self)
        if self.bind not in BIND_MODES:
            raise ConfigValueError(f"bind must be one of {BIND_MODES}, got {self.bind!r}")
        if self.mc_mode not in QUANTIZE_MODES:
            raise ConfigValueError(f"mc_mode must be one of {QUANTIZE_MODES}, got {self.mc_mode!r}")
        if self.trials is not None and self.trials < 0:
            raise ConfigValueError(f"trials must be >= 0, got {self.trials}")
        if self.seed < 0:
            raise ConfigValueError(f"seed must be >= 0, got {self.seed}")
        # the bound variable comes from the cap; a fixed or swept value
        # (the s axis sets both) would be overwritten without a word
        bound = {"antennas": "M", "bandwidth": "B_w"}.get(self.bind)
        if bound and (getattr(self, bound) is not None or self.axis in (bound, "s")):
            raise ConfigValueError(
                f"bind={self.bind} sets {bound} from C_f, so {bound} must not also be "
                f"fixed or swept (sweep_axis={self.axis})"
            )
        if self.axis is None:
            return
        if self.axis not in SWEEP_AXES:
            raise ConfigValueError(
                f"sweep_axis must be one of {SWEEP_AXES}, got {self.axis!r}"
            )
        if not self.values:
            raise ConfigValueError("sweep_values must be a non-empty grid")
        if any(b >= a for a, b in zip(self.values[1:], self.values)):
            raise ConfigValueError("sweep_values must be strictly increasing")
        fixed = {"b": self.b, "B_w": self.B_w, "M": self.M}
        if self.axis in fixed and fixed[self.axis] is not None:
            raise ConfigValueError(
                f"swept axis {self.axis!r} must not also be fixed (key {self.axis})"
            )


def _parse_grid(text: str) -> tuple:
    values = tuple(float(v) for v in text.split(",") if v.strip())
    if not values:
        raise ValueError("empty list")
    return values


# Config keys are the dataclass fields, parsed by their annotation.  The two
# grid fields carry a ``sweep_`` prefix; gamma_ref_db sets P.
_SYSTEM_FIELDS = {f.name: f for f in dataclasses.fields(SystemConfig)}
_SPEC_FIELDS = {
    ("sweep_" + f.name if f.name in ("axis", "values") else f.name): f
    for f in dataclasses.fields(SweepSpec)
}
_PARSERS = {"int": int, "float": float, "str": str, "tuple": _parse_grid}
_KEY_PARSERS = {
    key: _PARSERS[f.type.split(" |")[0]]
    for key, f in {**_SYSTEM_FIELDS, **_SPEC_FIELDS}.items()
}
_KEY_PARSERS["gamma_ref_db"] = float
KNOWN_KEYS = set(_KEY_PARSERS)


def _echo(text: str) -> str:
    """``text`` quoted for an error detail; words instead when an item of it
    reads as a NaN or infinite float, as the finiteness checks name no such
    value."""
    for item in text.split(","):
        try:
            if not math.isfinite(float(item)):
                return "a non-finite value"
        except ValueError:
            pass
    return repr(text)


def _int_flag(text: str) -> int:
    """An integer flag value, read as argparse's ``int`` is."""
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {_echo(text)}") from None


def _parse_scalar(key: str, text: str, lineno: int):
    try:
        return _KEY_PARSERS[key](text)
    except ValueError as exc:
        raise ConfigSyntaxError(
            f"cannot parse value for key '{key}' (line {lineno}): {_echo(text)}"
        ) from exc


def parse_config_text(text: str, source: str = "<config>") -> tuple[SystemConfig, SweepSpec]:
    """Parse a flat key-value document into a config and a sweep spec.

    Errors carry the offending key and line number.  An empty document yields
    all defaults (reference SNR 15 dB).
    """
    raw: dict[str, tuple[object, int]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigSyntaxError(f"expected 'key = value' (line {lineno}): {line!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key not in KNOWN_KEYS:
            raise ConfigSyntaxError(f"unknown key '{key}' (line {lineno}) in {source}")
        if key in raw:
            raise ConfigSyntaxError(f"duplicate key '{key}' (line {lineno})")
        raw[key] = (_parse_scalar(key, value.strip(), lineno), lineno)

    for key in _POSITIVE_KEYS:
        if key in raw:
            value, lineno = raw[key]
            # -inf is left to the finiteness check, whose message names no value
            if not isinstance(value, tuple) and -math.inf < value <= 0:
                raise ConfigValueError(
                    f"key '{key}' must be positive (line {lineno}), got {value}"
                )

    if "P" in raw and "gamma_ref_db" in raw:
        raise ConfigValueError(
            "keys 'P' and 'gamma_ref_db' are mutually exclusive "
            f"(lines {raw['P'][1]} and {raw['gamma_ref_db'][1]})"
        )

    system_kwargs = {k: v for k, (v, _) in raw.items() if k in _SYSTEM_FIELDS}
    if "gamma_ref_db" in raw:
        system_kwargs["P"] = reference_snr_to_power(raw["gamma_ref_db"][0])
    config = SystemConfig(**system_kwargs)

    spec = SweepSpec(**{f.name: raw[key][0] for key, f in _SPEC_FIELDS.items() if key in raw})
    return config, spec


def parse_config(path: str) -> tuple[SystemConfig, SweepSpec]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:  # an OS error's reason, not its path again
        reason = getattr(exc, "strerror", None) or exc
        raise ConfigSyntaxError(f"cannot read config {path}: {reason}") from exc
    return parse_config_text(text, source=path)


def effective_config_text(config: SystemConfig, spec: SweepSpec) -> str:
    """Echo of every effective key, written alongside sweep outputs; as a
    config it reruns the same sweep."""
    lines = [
        f"# effective configuration ({CSV_VERSION})",
        f"# gamma_ref_db = {reference_snr_from_power(config)!r}, N_p = {config.n_pilot}",
    ]
    for source, table in ((config, _SYSTEM_FIELDS), (spec, _SPEC_FIELDS)):
        for key, f in table.items():
            value = getattr(source, f.name)
            if isinstance(value, tuple):
                value = ",".join(map(repr, value))
            if value is not None:
                lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


class SweepRun(NamedTuple):
    """The rows of one sweep run as columns, keyed by ``CSV_COLUMNS``: a
    list holds one cell per row; any other value is the one cell that
    every row of the run shares."""

    n: int
    columns: dict


def _cell(value) -> str:
    """One CSV cell: None is empty, a bool 1 or 0, anything else its str (a
    float's shortest round-trip repr)."""
    return "" if value is None else ("1" if value else "0") if value.__class__ is bool else str(value)


_FLAG_COLUMNS = frozenset(("bandwidth_cond", "pade_cond", "antenna_cond"))
_MC_COLUMNS = ("mc_rate_bps", "mc_stderr_bps", "clip_rate")


def rows_to_csv(runs: list[SweepRun]) -> str:
    """The CSV text of a sweep's runs, one line per row, each column
    formatted once per run.

    A shared value is formatted once.  A list column is formatted by
    ``str`` over its floats or ints, a condition column as 1 or 0, and a
    Monte Carlo column cell by cell (an undefined standard error is an
    empty cell).  A list that fills two columns (an ``s`` sweep's grid is
    its ``axis_value`` and its ``s``) is formatted once.
    """
    lines = [f"# {CSV_VERSION}", ",".join(CSV_COLUMNS)]
    for run in runs:
        formatted: dict[int, list[str]] = {}
        columns = []
        for name in CSV_COLUMNS:
            column = run.columns[name]
            if column.__class__ is not list:
                columns.append([_cell(column)] * run.n)
                continue
            texts = formatted.get(id(column))
            if texts is None:
                if name in _FLAG_COLUMNS:
                    texts = ["1" if flag else "0" for flag in column]
                elif name in _MC_COLUMNS:
                    texts = list(map(_cell, column))
                else:
                    texts = list(map(str, column))
                formatted[id(column)] = texts
            columns.append(texts)
        lines.extend(map(",".join, zip(*columns)))
    return "\n".join(lines) + "\n"


def _point_design(
    config: SystemConfig, spec: SweepSpec, value: float | None
) -> tuple[SystemConfig, DesignPoint, float | None]:
    """Resolve one grid point (or, with no grid, the spec's one point) into a
    concrete (config, design, s) triple."""
    cfg = config
    s = None
    b_w, m, b = spec.B_w, spec.M, spec.b
    if spec.axis == "b":
        b = value
    elif spec.axis == "B_w":
        b_w = float(value)
    elif spec.axis == "M":
        m = value
    elif spec.axis == "s":
        s = float(value)
    elif spec.axis == "theta":
        cfg = config.replace(theta=float(value))
    elif spec.axis == "snr_db":
        cfg = config.replace(P=reference_snr_to_power(float(value)))
    if b is None:
        b = 1
    if s is not None:
        b_w = optimizer.curve_bandwidth(cfg, s, b)
        m = round(1.0 / s)
    if spec.bind == "antennas" and b_w is not None:
        m = math.floor(cfg.C_f / (b_w * b))
        if m < 1:
            raise InfeasibleError(
                f"no antenna fits at B_w={b_w}, b={b}, C_f={cfg.C_f}"
            )
    elif spec.bind == "bandwidth" and m is not None:
        b_w = cfg.C_f / (m * b)
    if b_w is None or m is None:
        raise ConfigSyntaxError(
            "a design point needs B_w and M: fixed (config keys or flags), "
            "swept, or bound to the constraint"
        )
    design = DesignPoint(B_w=b_w, M=m, b=b)
    if spec.bind != "none" and not design.is_feasible(cfg.C_f):
        raise InfeasibleError(
            f"constraint violated: load {design.fronthaul_load} > C_f {cfg.C_f}"
        )
    return cfg, design, s


def _column(value):
    """An array as a list of Python numbers, one per row; anything else as
    it is, one value that every row shares."""
    return value.tolist() if getattr(value, "ndim", 0) > 0 else value


def _closed_form_run(
    cfg: SystemConfig, spec: SweepSpec, preset: str | None, n: int, axis_value, s, design,
    breakdown,
) -> SweepRun:
    """The closed-form columns of a run of n rows: ``axis_value`` and ``s``
    the run's grid list or one point's values, ``design`` and ``breakdown``
    the run's arrays or one point's numbers.  The Monte Carlo cells are
    empty."""
    m = design.M
    mc_mode, trials = (spec.mc_mode, spec.trials) if spec.trials else (None, None)
    return SweepRun(n, {
        "preset": preset,
        "axis": spec.axis,
        "axis_value": axis_value,
        "theta": cfg.theta,
        "snr_db": reference_snr_from_power(cfg),
        "K": cfg.K,
        "C_f_bps": cfg.C_f,
        "B_w_hz": _column(design.B_w),
        "M": list(map(int, m.tolist())) if getattr(m, "ndim", 0) > 0 else int(m),
        "b": design.b,
        "s": s,
        "N": cfg.N,
        "N_p": cfg.n_pilot,
        "L": cfg.L,
        "x_int": cfg.X_int,
        "c": _column(breakdown.c),
        "gamma": _column(breakdown.gamma),
        "rate_bps": _column(breakdown.rate_bps),
        "sum_rate_bps": _column(breakdown.sum_rate_bps),
        "f_b": optimizer.threshold_f(design.b, cfg.X_int),
        "bandwidth_cond": _column(optimizer.bandwidth_condition(cfg, design)),
        "pade_cond": _column(optimizer.pade_bandwidth_condition(cfg, design)),
        "antenna_cond": _column(optimizer.antenna_condition(cfg, design)),
        "mc_mode": mc_mode,
        "trials": trials,
        "mc_rate_bps": None,
        "mc_stderr_bps": None,
        "clip_rate": None,
    })


def _point_run(
    config: SystemConfig, spec: SweepSpec, value: float, preset: str | None
) -> tuple[SystemConfig, DesignPoint, SweepRun]:
    """One grid point's config, design and one-row run, every check raising in turn."""
    cfg, design, s = _point_design(config, spec, value)
    breakdown = achievable_rate(cfg, design)
    _require_positive_rate(breakdown.rate_bps)
    return cfg, design, _closed_form_run(cfg, spec, preset, 1, value, s, design, breakdown)


_CURVE_AXES = ("B_w", "M", "s")  # the axes along which every point shares (config, b)


def _curve_run(config: SystemConfig, spec: SweepSpec, preset: str | None) -> SweepRun | None:
    """A closed-form sweep along B_w, M or s as one run: its designs
    resolved as arrays, as ``_point_design`` resolves each point, then one
    call of each closed form.

    None when a point fails a check, or when a step raises or leaves the
    float range (numpy flags what Python raises on, or rounds to inf or
    NaN): the row path then names the first failing point in grid order.
    """
    import numpy as np
    b = 1 if spec.b is None else spec.b
    grid = np.array(spec.values, dtype=float)
    b_w = grid if spec.axis == "B_w" else spec.B_w
    m = grid if spec.axis == "M" else spec.M
    s = grid if spec.axis == "s" else None
    if not isinstance(b, int) or b < 1:
        return None
    try:
        with np.errstate(all="raise", under="ignore"):
            ok = True
            if s is not None:
                curve = optimizer.constraint_curve(config, b)
                ok = (1.0 / curve.slope <= s) & (s <= 1.0)
                b_w = curve.slope * s
                m = np.rint(1.0 / s)
            if spec.bind == "antennas":
                m = np.floor(config.C_f / (b_w * b))
            elif spec.bind == "bandwidth":
                b_w = config.C_f / (m * b)
            if b_w is None or m is None:
                return None
            design = Design(B_w=b_w, M=m, b=b)
            ok = ok & np.isfinite(b_w) & (b_w > 0) & np.isfinite(m) & (m >= 1) & (m == np.floor(m))
            if spec.bind != "none":
                ok = ok & design.is_feasible(config.C_f)
            if not np.all(ok):
                return None
            breakdown = achievable_rate(config, design)
            if not np.all((breakdown.rate_bps > 0.0) & (breakdown.rate_bps < math.inf)):
                return None
            values = list(spec.values)
            return _closed_form_run(config, spec, preset, len(values), values,
                                    values if s is not None else None, design, breakdown)
    # FloatingPointError is an ArithmeticError; numpy raises TypeError on an
    # int beyond the float range
    except (ValueError, ArithmeticError, TypeError):
        return None


def _monte_carlo(
    cfg: SystemConfig, spec: SweepSpec, index: int, design: Design
) -> tuple[float, float | None, float]:
    """A design's Monte Carlo cells (rate, standard error, clip rate),
    simulated on the grid index's substream."""
    import numpy as np
    seq = np.random.SeedSequence(entropy=spec.seed, spawn_key=(index,))
    [mc] = montecarlo.empirical_rate(cfg, [design], spec.trials, seq, [spec.mc_mode])
    if not math.isfinite(mc.rate_bps):  # few symbols can zero the ratio's denominator
        raise ConfigValueError("mc_rate_bps is not finite: the simulated rate left the float range")
    return mc.rate_bps, _defined(mc.stderr_bps), mc.clip_rate


def run_sweep(
    config: SystemConfig,
    spec: SweepSpec,
    threads: int = 1,
    preset: str | None = None,
) -> list[SweepRun]:
    """Evaluate every grid point, as runs in grid order regardless of
    parallelism.

    A sweep along B_w, M or s is one run of points that share (config, b):
    its closed-form columns come from one call of each closed form on
    arrays.  Along b, theta or snr_db each point is a one-row run of its
    own, and a run with any failing point is evaluated point by point, so
    the error names the first failing point as a point-by-point sweep
    would.  Only Monte Carlo cells (``spec.trials`` set) go to a pool of
    ``threads``, one simulation per grid index; a closed-form row costs
    less than handing it to a thread.
    """
    if threads < 1:
        raise ConfigSyntaxError(f"--threads must be at least 1, got {threads}")
    if spec.axis is None:
        raise ConfigSyntaxError("sweep needs a sweep_axis key")
    curve = _curve_run(config, spec, preset) if spec.axis in _CURVE_AXES else None
    if curve is not None and not spec.trials:
        return [curve]

    def job(index):
        """A curve point's Monte Carlo cells, or a point's one-row run."""
        value = spec.values[index]
        try:
            if curve is not None:
                cells = [curve.columns[name] for name in ("B_w_hz", "M", "b")]
                design = Design(*(c[index] if c.__class__ is list else c for c in cells))
                return _monte_carlo(config, spec, index, design)
            cfg, design, run = _point_run(config, spec, value, preset)
            if spec.trials:
                run.columns.update(zip(_MC_COLUMNS, _monte_carlo(cfg, spec, index, design)))
            return run
        except ConfigSyntaxError:  # no B_w or M at any point: a usage error, as in rate
            raise
        except (ValueError, ArithmeticError) as exc:
            raise SweepPointError(
                f"{spec.axis}={value} (grid index {index}): {exc}"
            ) from exc

    indices = range(len(spec.values))
    if threads <= 1 or not spec.trials:
        results = [job(i) for i in indices]
    else:
        import concurrent.futures
        # LazyLoader runs a module in the first thread to read it, unlocked before 3.12
        montecarlo.empirical_rate  # noqa: B018  (loads the simulator in this thread)
        with concurrent.futures.ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(job, indices))
    if curve is None:
        return results
    curve.columns.update(zip(_MC_COLUMNS, map(list, zip(*results))))
    return [curve]


# --- figure presets -------------------------------------------------------

_BITS = tuple(float(b) for b in range(1, 13))
_SNRS = tuple({"gamma_ref_db": snr} for snr in (0.0, 15.0, 30.0))
_AT_200_MHZ = dict(axis="b", values=_BITS, bind="antennas", B_w=200e6)

# name -> (SystemConfig overrides, one config per curve; the sweep).  Curve i
# runs its Monte Carlo at seed + i; fig3 pins trials to 0 (closed form only).
# An s grid is 200 points of np.logspace over ``log_grid``, built on use.
_PRESET_TABLE = {
    "fig2": (({},), _AT_200_MHZ),
    "fig3": (({},), dict(_AT_200_MHZ, trials=0, seed=0)),
    "fig4": (({},), dict(axis="b", values=_BITS, bind="bandwidth", M=200)),
    # Calibrated reproduction of the interior optimum on the constraint
    # curve: 50 Gbit/s fronthaul with a 4-sigma converter interval places the
    # one-bit optimum near M* ~ 250, B_w* ~ 200 MHz.
    "fig5": (
        ({"C_f": 50e9, "X_int": 4.0},),
        dict(axis="s", b=1, log_grid=(math.log10(2e-4), math.log10(0.1))),
    ),
    "fig6": (_SNRS, _AT_200_MHZ),
    "fig7": (_SNRS, dict(axis="b", values=_BITS, bind="bandwidth", M=1000)),
    "fig8": (
        tuple({"theta": theta} for theta in (1.0, 2.0, 4.0, 8.0)),
        dict(axis="s", log_grid=(-4, -1), b=1),
    ),
}


def _preset(curves, sweep, trials, seed) -> list[tuple[SystemConfig, SweepSpec]]:
    sweep = dict(sweep)
    if "log_grid" in sweep:  # numpy is imported here, not with the CLI
        import numpy as np
        sweep["values"] = tuple(np.logspace(*sweep.pop("log_grid"), 200).tolist())
    out = []
    for i, overrides in enumerate(curves):
        config = SystemConfig.from_reference_snr(**overrides)
        out.append((config, SweepSpec(**{"trials": trials, "seed": seed + i, **sweep})))
    return out


PRESETS = {name: functools.partial(_preset, *row) for name, row in _PRESET_TABLE.items()}


def run_preset(name: str, trials: int = 0, seed: int = 0, threads: int = 1) -> list[SweepRun]:
    if name not in PRESETS:
        raise ConfigSyntaxError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
    runs: list[SweepRun] = []
    for config, spec in PRESETS[name](trials, seed):
        runs.extend(run_sweep(config, spec, threads=threads, preset=name))
    return runs


# --- reports --------------------------------------------------------------


def _defined(stderr_bps: float) -> float | None:
    """An MC standard error, or None (JSON null, an empty CSV cell) where it
    is undefined: below two batches of trials."""
    return stderr_bps if math.isfinite(stderr_bps) else None


def _require_positive_rate(rate_bps: float) -> None:
    # a rate underflows to zero, or an SINR overflows, only on an extreme input
    if not math.isfinite(rate_bps):
        raise ConfigValueError("rate_bps is not finite: an input is beyond the float range")
    if rate_bps <= 0.0:
        raise ConfigValueError(f"rate_bps={rate_bps}: an input is beyond the float range")


def optimize_report(config: SystemConfig) -> dict:
    result = optimizer.optimize_full(config)
    _require_positive_rate(result.rate.rate_bps)
    return {
        "best": {"B_w_hz": result.best.B_w, "M": result.best.M, "b": result.best.b},
        "rate_bps": result.rate.rate_bps,
        "sum_rate_bps": result.rate.sum_rate_bps,
        "c": result.rate.c,
        "gamma": result.rate.gamma,
        "binding": result.binding,
        "fronthaul_load_bps": result.best.fronthaul_load,
        "relaxed": {
            "s": result.relaxed_s,
            "M": 1.0 / result.relaxed_s,
            "B_w_hz": optimizer.curve_bandwidth(config, result.relaxed_s, result.best.b),
            "rate_bps": result.relaxed_rate_bps,
        },
        "fixed_one_bit": result.fixed_one_bit,
        "trace_points": result.trace_points,
    }


def rate_report(config: SystemConfig, design: DesignPoint) -> dict:
    breakdown = achievable_rate(config, design)
    _require_positive_rate(breakdown.rate_bps)
    return {
        "design": {"B_w_hz": design.B_w, "M": design.M, "b": design.b},
        "c": breakdown.c,
        "gamma": breakdown.gamma,
        "rate_bps": breakdown.rate_bps,
        "sum_rate_bps": breakdown.sum_rate_bps,
        "fronthaul_load_bps": design.fronthaul_load,
        "conditions": {
            "bandwidth": optimizer.bandwidth_condition(config, design),
            "pade_bandwidth": optimizer.pade_bandwidth_condition(config, design),
            "antenna": optimizer.antenna_condition(config, design),
        },
    }


def mc_validate_report(
    config: SystemConfig,
    spec: SweepSpec,
    bits: tuple[int, ...],
    modes: tuple[str, ...] = ("pqn", "uniform"),
) -> dict:
    """Simulator against closed form at the spec's point, one design per b;
    an unset ``trials`` runs 100, once every closed-form rate is checked.

    Every row uses the spec's seed.  Rows whose designs share (B_w, M) run
    as one group, which draws each trial's block once, so each row equals
    a call with its design and mode alone bit for bit.
    """
    trials = 100 if spec.trials is None else spec.trials
    resolved = [_point_design(config, dataclasses.replace(spec, b=b), None)[:2] for b in bits]
    closed = []
    groups: dict[tuple[SystemConfig, float, int], list[DesignPoint]] = {}
    for cfg, design in resolved:
        closed.append(achievable_rate(cfg, design).rate_bps)
        _require_positive_rate(closed[-1])
        groups.setdefault((cfg, design.B_w, design.M), []).append(design)
    mc = {}
    for (cfg, _, _), designs in groups.items():
        rates = montecarlo.empirical_rate(cfg, designs, trials, spec.seed, modes)
        mc.update(zip(((d.b, mode) for d in designs for mode in modes), rates))
    points = []
    for (_, design), closed_bps in zip(resolved, closed):
        for mode in modes:
            rate = mc[design.b, mode]
            point = {
                "b": design.b,
                "mode": mode,
                "closed_form_bps": closed_bps,
                "mc_bps": rate.rate_bps,
                "stderr_bps": _defined(rate.stderr_bps),
                "rel_err": abs(rate.rate_bps - closed_bps) / closed_bps,
                "clip_rate": rate.clip_rate,
            }
            for field in ("mc_bps", "rel_err"):  # few symbols can zero the SINR's denominator
                if not math.isfinite(point[field]):
                    raise ConfigValueError(f"b={design.b}, mode={mode}: {field} is not finite")
            points.append(point)
    return {"trials": trials, "seed": spec.seed, "points": points}


# --- entry point ----------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    # A flag value that starts with "-" is read as an option unless it
    # matches argparse's negative-number pattern, which has no exponent and
    # no inf or nan: "--bw -1e8" would be a missing value, "--bw=-1e8" not.
    NEGATIVE_NUMBER = re.compile(
        r"^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$|^-(inf|infinity|nan)$", re.IGNORECASE
    )

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = self.NEGATIVE_NUMBER  # sub-commands too

    def error(self, message):  # one JSON line and exit 1, not argparse's usage and 2
        sys.stdout.write(json.dumps({"error": "config", "detail": message}) + "\n")
        raise SystemExit(1)


@functools.cache  # built on the first main call, not at import
def _build_parser() -> _Parser:
    parser = _Parser(
        prog="fhmimo",
        description="Uplink rate analysis and fronthaul-constrained design search "
        "for quantized multi-antenna receivers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, monte_carlo=False):
        p.add_argument("--config", help="key=value config file")
        p.add_argument("--out", help="output path (default: stdout)")
        if monte_carlo:
            p.add_argument("--seed", type=_int_flag, help="RNG seed override")
            p.add_argument("--trials", type=_int_flag, help="Monte Carlo trials override")

    p_rate = sub.add_parser("rate", help="closed-form rate at one design point")
    common(p_rate)
    p_rate.add_argument("--bw", type=float, help="bandwidth in Hz (overrides config)")
    p_rate.add_argument("--m", type=_int_flag, help="antenna count (overrides config)")
    p_rate.add_argument("--b", type=_int_flag, help="ADC bits (overrides config)")

    p_opt = sub.add_parser("optimize", help="maximize rate under the fronthaul cap")
    common(p_opt)

    p_sweep = sub.add_parser("sweep", help="evaluate a config-defined grid to CSV")
    common(p_sweep, monte_carlo=True)
    p_sweep.add_argument("--threads", type=_int_flag, default=1,
                         help="threads for Monte Carlo rows")

    p_mc = sub.add_parser("mc-validate", help="simulator vs closed form comparison")
    common(p_mc, monte_carlo=True)
    p_mc.add_argument("--bits", default="1,2,3", help="comma list of resolutions")
    p_mc.add_argument("--mode", choices=("pqn", "uniform", "both"), default="both")
    p_mc.add_argument("--bw", type=float, help="bandwidth in Hz (overrides config)")
    p_mc.add_argument("--m", type=_int_flag, help="antenna count (overrides config)")

    p_preset = sub.add_parser("preset", help="run a bundled scenario sweep")
    p_preset.add_argument("name", choices=sorted(PRESETS))
    p_preset.add_argument("--out", help="output path (default: stdout)")
    p_preset.add_argument("--seed", type=_int_flag, default=0)
    p_preset.add_argument("--trials", type=_int_flag, default=0)
    p_preset.add_argument("--threads", type=_int_flag, default=1,
                          help="threads for Monte Carlo rows")
    return parser


# flag -> the config key it overrides, when the flag is given
_FLAG_KEYS = {"bw": "B_w", "m": "M", "b": "b", "seed": "seed", "trials": "trials"}


def _load(args, **changes) -> tuple[SystemConfig, SweepSpec]:
    """The config with every given flag applied; ``changes`` set spec fields
    first (``rate`` and ``mc-validate`` clear the grid).  The spec is
    rebuilt, and checked again, only when something changes it."""
    config, spec = parse_config(args.config) if args.config else parse_config_text("")
    changes.update({key: value for flag, key in _FLAG_KEYS.items()
                    if (value := getattr(args, flag, None)) is not None})
    return config, dataclasses.replace(spec, **changes) if changes else spec


def _emit(text: str, out_path: str | None, echo: str | None = None) -> None:
    """Write text to out_path, or to stdout when there is none; ``echo``, when
    given, to out_path + ".effective".  A failed write leaves no file that
    this call opened."""
    if not out_path:
        sys.stdout.write(text)
        return
    files = {out_path: text} if echo is None else {out_path: text, out_path + ".effective": echo}
    opened = []
    try:
        for path, content in files.items():
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                opened.append(path)
                fh.write(content)
    except OSError as exc:
        for done in opened:
            with contextlib.suppress(OSError):
                os.remove(done)
        raise ConfigSyntaxError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _emit_json(report: dict, out_path: str | None) -> None:
    try:
        text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise ConfigValueError(f"non-finite result: {exc}") from exc
    _emit(text + "\n", out_path)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "rate":
            config, spec = _load(args, axis=None, values=())
            config, design, _ = _point_design(config, spec, None)
            _emit_json(rate_report(config, design), args.out)
        elif args.command == "optimize":
            _emit_json(optimize_report(_load(args)[0]), args.out)
        elif args.command == "sweep":
            config, spec = _load(args)
            runs = run_sweep(config, spec, threads=args.threads)
            echo = effective_config_text(config, spec) if args.out else None
            _emit(rows_to_csv(runs), args.out, echo)
        elif args.command == "mc-validate":
            config, spec = _load(args, axis=None, values=())
            try:
                bits = tuple(int(v) for v in args.bits.split(","))
            except ValueError:
                raise ConfigSyntaxError(
                    f"--bits must be a comma list of integers, got {_echo(args.bits)}"
                ) from None
            if len(set(bits)) < len(bits):
                raise ConfigSyntaxError(f"--bits repeats a resolution: {args.bits!r}")
            modes = ("pqn", "uniform") if args.mode == "both" else (args.mode,)
            _emit_json(mc_validate_report(config, spec, bits, modes), args.out)
        elif args.command == "preset":
            runs = run_preset(args.name, trials=args.trials, seed=args.seed,
                              threads=args.threads)
            _emit(rows_to_csv(runs), args.out)
        return 0
    except (ConfigError, InfeasibleError, SweepPointError, ArithmeticError) as exc:
        detail = str(exc)
        if isinstance(exc, ArithmeticError):  # a formula left the float range
            detail = f"{type(exc).__name__}: {exc}: an input is beyond the float range"
        error, code = ("config", 1) if isinstance(exc, ConfigSyntaxError) else ("model", 2)
        sys.stdout.write(json.dumps({"error": error, "detail": detail}) + "\n")
        return code


def console_entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_entry()
