"""Config ingestion, sweep orchestration and machine-readable output.

Config files are flat ``key = value`` text (UTF-8, ``#`` comments).  System
keys mirror SystemConfig field names; ``B_w``, ``M``, ``b`` anchor a design
point; ``sweep_*`` keys describe a grid.  Unknown keys are rejected with the
offending line number.

Exit codes: 0 success, 1 usage/parse error, 2 infeasible or model error.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import dataclasses
import functools
import json
import math
import sys

import numpy as np

from . import montecarlo, optimizer
from .errors import (
    ConfigError,
    ConfigSyntaxError,
    ConfigValueError,
    InfeasibleError,
    SweepPointError,
)
from .linkrate import achievable_rate
from .sysmodel import (
    DesignPoint,
    SystemConfig,
    reference_snr_from_power,
    reference_snr_to_power,
    require_finite,
)

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

_POSITIVE_KEYS = {"K", "C_f", "N", "L", "theta", "N_0", "P_max", "X_int",
                  "cell_radius_km", "B_w", "M", "b"}


@dataclasses.dataclass(frozen=True)
class SweepSpec:
    """One sweep: the axis, its grid, the fixed design anchors, and MC knobs."""

    axis: str | None = None
    values: tuple = ()
    bind: str = "none"
    B_w: float | None = None
    M: int | None = None
    b: int | None = None
    trials: int = 0
    seed: int = 0
    mc_mode: str = "pqn"

    def __post_init__(self) -> None:
        require_finite(self)
        if self.bind not in BIND_MODES:
            raise ConfigValueError(f"bind must be one of {BIND_MODES}, got {self.bind!r}")
        if self.mc_mode not in montecarlo.QUANTIZE_MODES:
            raise ConfigValueError(
                f"mc_mode must be one of {montecarlo.QUANTIZE_MODES}, got {self.mc_mode!r}"
            )
        if self.trials < 0:
            raise ConfigValueError(f"trials must be >= 0, got {self.trials}")
        if self.seed < 0:
            raise ConfigValueError(f"seed must be >= 0, got {self.seed}")
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
# grid fields carry a ``sweep_`` prefix; gamma_ref_db sets P_max.
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


def _parse_scalar(key: str, text: str, lineno: int):
    try:
        return _KEY_PARSERS[key](text)
    except ValueError as exc:
        raise ConfigSyntaxError(
            f"cannot parse value for key '{key}' (line {lineno}): {text!r}"
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
            if not isinstance(value, tuple) and value <= 0:
                raise ConfigValueError(
                    f"key '{key}' must be positive (line {lineno}), got {value}"
                )

    if "P_max" in raw and "gamma_ref_db" in raw:
        raise ConfigValueError(
            "keys 'P_max' and 'gamma_ref_db' are mutually exclusive "
            f"(lines {raw['P_max'][1]} and {raw['gamma_ref_db'][1]})"
        )

    system_kwargs = {k: v for k, (v, _) in raw.items() if k in _SYSTEM_FIELDS}
    if "P_max" not in system_kwargs:
        gamma_db = raw.get("gamma_ref_db", (15.0, 0))[0]
        config = SystemConfig.from_reference_snr(gamma_db, **system_kwargs)
    else:
        config = SystemConfig(**system_kwargs)

    spec = SweepSpec(**{f.name: raw[key][0] for key, f in _SPEC_FIELDS.items() if key in raw})
    return config, spec


def parse_config(path: str) -> tuple[SystemConfig, SweepSpec]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read(), source=path)


def effective_config_text(config: SystemConfig, spec: SweepSpec) -> str:
    """Echo of every effective key, written alongside sweep outputs."""
    lines = [f"# effective configuration ({CSV_VERSION})"]
    for key in sorted(_SYSTEM_FIELDS):
        lines.append(f"{key} = {getattr(config, key)!r}")
    lines.append(f"gamma_ref_db = {reference_snr_from_power(config)!r}")
    lines.append(f"N_p = {config.n_pilot}")
    for f in dataclasses.fields(SweepSpec):
        if f.name != "values":
            lines.append(f"sweep_{f.name} = {getattr(spec, f.name)!r}")
    lines.append(f"sweep_values = {','.join(repr(v) for v in spec.values)}")
    return "\n".join(lines) + "\n"


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def rows_to_csv(rows: list[dict]) -> str:
    lines = [f"# {CSV_VERSION}", ",".join(CSV_COLUMNS)]
    for row in rows:
        lines.append(",".join(_format_cell(row.get(col)) for col in CSV_COLUMNS))
    return "\n".join(lines) + "\n"


def _point_design(
    config: SystemConfig, spec: SweepSpec, value: float
) -> tuple[SystemConfig, DesignPoint, float | None]:
    """Resolve one grid point into a concrete (config, design, s) triple."""
    cfg = config
    s = None
    b_w, m, b = spec.B_w, spec.M, spec.b
    if spec.axis == "b":
        b = int(value)
    elif spec.axis == "B_w":
        b_w = float(value)
    elif spec.axis == "M":
        m = int(value)
    elif spec.axis == "s":
        s = float(value)
    elif spec.axis == "theta":
        cfg = config.replace(theta=float(value))
    elif spec.axis == "snr_db":
        cfg = config.replace(P_max=reference_snr_to_power(config, float(value)))
    if b is None:
        b = 1
    if s is not None:
        b_w = optimizer.curve_bandwidth(cfg, s, b)
        m = max(1, int(round(1.0 / s)))
    if spec.bind == "antennas":
        if b_w is None:
            raise ConfigValueError("bind=antennas needs a bandwidth (key B_w)")
        m = int(math.floor(cfg.C_f / (b_w * b)))
        if m < 1:
            raise InfeasibleError(
                f"no antenna fits at B_w={b_w}, b={b}, C_f={cfg.C_f}"
            )
    elif spec.bind == "bandwidth":
        if m is None:
            raise ConfigValueError("bind=bandwidth needs an antenna count (key M)")
        b_w = cfg.C_f / (m * b)
    if b_w is None or m is None:
        raise ConfigValueError(
            "sweep needs B_w and M fixed, bound to the constraint, or swept"
        )
    return cfg, DesignPoint(B_w=float(b_w), M=int(m), b=int(b)), s


def _evaluate_point(
    config: SystemConfig,
    spec: SweepSpec,
    index: int,
    value: float,
    preset: str | None,
) -> dict:
    cfg, design, s = _point_design(config, spec, value)
    if spec.bind != "none" and not design.is_feasible(cfg.C_f):
        raise InfeasibleError(
            f"constraint violated at grid point {value}: load {design.fronthaul_load} "
            f"> C_f {cfg.C_f}"
        )
    breakdown = achievable_rate(cfg, design)
    row = {
        "preset": preset,
        "axis": spec.axis,
        "axis_value": value,
        "theta": cfg.theta,
        "snr_db": reference_snr_from_power(cfg),
        "K": cfg.K,
        "C_f_bps": cfg.C_f,
        "B_w_hz": design.B_w,
        "M": design.M,
        "b": design.b,
        "s": s,
        "N": cfg.N,
        "N_p": cfg.n_pilot,
        "L": cfg.L,
        "x_int": cfg.X_int,
        "c": breakdown.c,
        "gamma": breakdown.gamma,
        "rate_bps": breakdown.rate_bps,
        "sum_rate_bps": breakdown.sum_rate_bps,
        "f_b": optimizer.threshold_f(design.b, cfg.X_int),
        "bandwidth_cond": optimizer.bandwidth_condition(cfg, design),
        "pade_cond": optimizer.pade_bandwidth_condition(cfg, design),
        "antenna_cond": optimizer.antenna_condition(cfg, design),
        "mc_mode": spec.mc_mode if spec.trials else None,
        "trials": spec.trials if spec.trials else None,
        "mc_rate_bps": None,
        "mc_stderr_bps": None,
        "clip_rate": None,
    }
    if spec.trials:
        seq = np.random.SeedSequence(entropy=spec.seed, spawn_key=(index,))
        mc = montecarlo.empirical_rate(cfg, design, spec.trials, seq, mode=spec.mc_mode)
        row["mc_rate_bps"] = mc.rate_bps
        row["mc_stderr_bps"] = mc.stderr_bps
        row["clip_rate"] = mc.clip_rate
    return row


def run_sweep(
    config: SystemConfig,
    spec: SweepSpec,
    threads: int = 1,
    preset: str | None = None,
) -> list[dict]:
    """Evaluate every grid point, in grid order regardless of parallelism."""
    if spec.axis is None:
        raise ConfigSyntaxError("sweep needs a sweep_axis key")

    def job(iv):
        index, value = iv
        try:
            return _evaluate_point(config, spec, index, value, preset)
        except (ConfigError, InfeasibleError, ValueError, ArithmeticError) as exc:
            raise SweepPointError(
                f"{spec.axis}={value} (grid index {index}): {exc}"
            ) from exc

    items = list(enumerate(spec.values))
    if threads <= 1:
        return [job(iv) for iv in items]
    with concurrent.futures.ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(job, items))


# --- figure presets -------------------------------------------------------

_BASE = dict(K=20, C_f=500e9, N=2000, L=10, theta=1.0, X_int=1.0)
_BITS = tuple(float(b) for b in range(1, 13))
_SNRS = tuple({"snr_db": snr} for snr in (0.0, 15.0, 30.0))
_AT_200_MHZ = dict(axis="b", values=_BITS, bind="antennas", B_w=200e6)

# name -> (config overrides, one config per curve; the sweep).  Curve i runs
# its Monte Carlo at seed + i; fig3 pins trials to 0 (closed form only).
_PRESET_TABLE = {
    "fig2": (({},), _AT_200_MHZ),
    "fig3": (({},), dict(_AT_200_MHZ, trials=0, seed=0)),
    "fig4": (({},), dict(axis="b", values=_BITS, bind="bandwidth", M=200)),
    # Calibrated reproduction of the interior optimum on the constraint
    # curve: 50 Gbit/s fronthaul with a 4-sigma converter interval places the
    # one-bit optimum near M* ~ 250, B_w* ~ 200 MHz.
    "fig5": (
        ({"C_f": 50e9, "X_int": 4.0},),
        dict(axis="s", values=tuple(np.logspace(math.log10(2e-4), math.log10(0.1), 200)), b=1),
    ),
    "fig6": (_SNRS, _AT_200_MHZ),
    "fig7": (_SNRS, dict(axis="b", values=_BITS, bind="bandwidth", M=1000)),
    "fig8": (
        tuple({"theta": theta} for theta in (1.0, 2.0, 4.0, 8.0)),
        dict(axis="s", values=tuple(np.logspace(-4, -1, 200)), b=1),
    ),
}


def _preset(curves, sweep, trials, seed) -> list[tuple[SystemConfig, SweepSpec]]:
    out = []
    for i, overrides in enumerate(curves):
        fields = {**_BASE, **overrides}
        config = SystemConfig.from_reference_snr(fields.pop("snr_db", 15.0), **fields)
        out.append((config, SweepSpec(**{"trials": trials, "seed": seed + i, **sweep})))
    return out


PRESETS = {name: functools.partial(_preset, *row) for name, row in _PRESET_TABLE.items()}


def run_preset(name: str, trials: int = 0, seed: int = 0, threads: int = 1) -> list[dict]:
    if name not in PRESETS:
        raise ConfigSyntaxError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
    rows: list[dict] = []
    for config, spec in PRESETS[name](trials, seed):
        rows.extend(run_sweep(config, spec, threads=threads, preset=name))
    return rows


# --- reports --------------------------------------------------------------


def _require_positive_rate(rate_bps: float) -> None:
    if not rate_bps > 0.0:  # a rate underflows to zero only on an extreme input
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
    design_anchor: DesignPoint,
    bits: tuple[int, ...],
    trials: int,
    seed: int,
    modes: tuple[str, ...] = ("pqn", "uniform"),
) -> dict:
    points = []
    for b in bits:
        design = DesignPoint(B_w=design_anchor.B_w, M=design_anchor.M, b=b)
        closed = achievable_rate(config, design)
        for mode in modes:
            mode_key = montecarlo.QUANTIZE_MODES.index(mode)
            seq = np.random.SeedSequence(entropy=seed, spawn_key=(b, mode_key))
            mc = montecarlo.empirical_rate(config, design, trials, seq, mode=mode)
            points.append(
                {
                    "b": b,
                    "mode": mode,
                    "closed_form_bps": closed.rate_bps,
                    "mc_bps": mc.rate_bps,
                    # undefined below two batches of trials
                    "stderr_bps": mc.stderr_bps if math.isfinite(mc.stderr_bps) else None,
                    "rel_err": abs(mc.rate_bps - closed.rate_bps) / closed.rate_bps,
                    "clip_rate": mc.clip_rate,
                }
            )
    return {"trials": trials, "seed": seed, "points": points}


# --- entry point ----------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        raise SystemExit(1)


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
            p.add_argument("--seed", type=int, help="RNG seed override")
            p.add_argument("--trials", type=int, help="Monte Carlo trials override")

    p_rate = sub.add_parser("rate", help="closed-form rate at one design point")
    common(p_rate)
    p_rate.add_argument("--bw", type=float, help="bandwidth in Hz (overrides config)")
    p_rate.add_argument("--m", type=int, help="antenna count (overrides config)")
    p_rate.add_argument("--b", type=int, help="ADC bits (overrides config)")

    p_opt = sub.add_parser("optimize", help="maximize rate under the fronthaul cap")
    common(p_opt)

    p_sweep = sub.add_parser("sweep", help="evaluate a config-defined grid to CSV")
    common(p_sweep, monte_carlo=True)
    p_sweep.add_argument("--threads", type=int, default=1)

    p_mc = sub.add_parser("mc-validate", help="simulator vs closed form comparison")
    common(p_mc, monte_carlo=True)
    p_mc.add_argument("--bits", default="1,2,3", help="comma list of resolutions")
    p_mc.add_argument("--mode", choices=("pqn", "uniform", "both"), default="both")
    p_mc.add_argument("--bw", type=float, help="bandwidth in Hz (overrides config)")
    p_mc.add_argument("--m", type=int, help="antenna count (overrides config)")

    p_preset = sub.add_parser("preset", help="run a bundled scenario sweep")
    p_preset.add_argument("name", choices=sorted(PRESETS))
    p_preset.add_argument("--out", help="output path (default: stdout)")
    p_preset.add_argument("--seed", type=int, default=0)
    p_preset.add_argument("--trials", type=int, default=0)
    p_preset.add_argument("--threads", type=int, default=1)
    return parser


def _load(args) -> tuple[SystemConfig, SweepSpec]:
    config, spec = parse_config(args.config) if args.config else parse_config_text("")
    changes = {k: v for k in ("seed", "trials") if (v := getattr(args, k, None)) is not None}
    return config, dataclasses.replace(spec, **changes)


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(report: dict, out_path: str | None) -> None:
    try:
        text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise ConfigValueError(f"non-finite result: {exc}") from exc
    _emit(text + "\n", out_path)


def _anchor_design(spec: SweepSpec, args) -> DesignPoint:
    """Design point from the flags, falling back to the config's anchors."""

    def pick(flag: str, anchor):
        value = getattr(args, flag, None)
        return anchor if value is None else value

    b_w, m, b = pick("bw", spec.B_w), pick("m", spec.M), pick("b", spec.b)
    if b is None:
        b = 1
    if b_w is None or m is None:
        raise ConfigSyntaxError("a design point needs B_w and M (config keys or flags)")
    return DesignPoint(B_w=b_w, M=m, b=b)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "rate":
            config, spec = _load(args)
            report = rate_report(config, _anchor_design(spec, args))
            _emit_json(report, args.out)
        elif args.command == "optimize":
            config, _ = _load(args)
            report = optimize_report(config)
            _emit_json(report, args.out)
        elif args.command == "sweep":
            config, spec = _load(args)
            rows = run_sweep(config, spec, threads=args.threads)
            _emit(rows_to_csv(rows), args.out)
            if args.out:
                with open(args.out + ".effective", "w", encoding="utf-8", newline="\n") as fh:
                    fh.write(effective_config_text(config, spec))
        elif args.command == "mc-validate":
            config, spec = _load(args)
            anchor = _anchor_design(spec, args)
            try:
                bits = tuple(int(v) for v in args.bits.split(","))
            except ValueError:
                raise ConfigSyntaxError(
                    f"--bits must be a comma list of integers, got {args.bits!r}"
                ) from None
            modes = ("pqn", "uniform") if args.mode == "both" else (args.mode,)
            report = mc_validate_report(
                config,
                anchor,
                bits,
                # a given --trials is used as is; a config without trials runs 100
                trials=spec.trials if args.trials is not None else spec.trials or 100,
                seed=spec.seed,
                modes=modes,
            )
            _emit_json(report, args.out)
        elif args.command == "preset":
            rows = run_preset(args.name, trials=args.trials, seed=args.seed,
                              threads=args.threads)
            _emit(rows_to_csv(rows), args.out)
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
