"""Batch command-line frontend.

Subcommands: map, spectrum, cool, retherm, scan, check.  Every command
writes plot-ready CSV plus a JSON manifest (config hash, seed, argv,
version) so a run can be reproduced byte-identically.  Exit codes: 0 on
success, 1 on runtime/numerical failure, 2 on usage or validation errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .coherence import config_budget, feasibility_budget
from .dynamics import (MAX_PLAN_FLOATS, RateMeasurement, SimPlan,
                       detuning_scan, measure_rate, measurement_row,
                       off_state_mode, reduced_model, write_ensemble_csv,
                       write_scan_csv)
from .errors import (ConfigParseError, InstabilityError, OptospringError,
                     ValidationError)
from .model import TWO_PI, load_config, resolve_config_path
from .response import (MAP_CELL_FLOATS, cancellation_gain,
                       closed_loop_response, extract_mode, stability_map,
                       write_map_csv, write_response_csv)
from .spectra import (build_frequency_grid, displacement_to_voltage,
                      freqnoise_spectrum, mode_temperature, occupations,
                      thermal_spectrum, voltage_to_displacement,
                      write_spectrum_csv, Spectrum)
from .tables import write_table


def _range_spec(text: str, name: str) -> tuple[float, float, int]:
    """start:stop:count, checked: finite ends and span, and 1 <= count <=
    MAX_PLAN_FLOATS, before any array is built."""
    try:
        start, stop, count = text.split(":")
        start, stop, count = float(start), float(stop), int(count)
    except ValueError as exc:
        raise ValidationError(f"{name} parses as start:stop:count",
                              name, text) from exc
    if not math.isfinite(stop - start):  # a NaN or infinite end, or span
        raise ValidationError(f"{name} start and stop finite, and their span",
                              name, text)
    if count < 1:
        raise ValidationError(f"{name} nonempty", name, text)
    if count > MAX_PLAN_FLOATS:
        raise ValidationError(
            f"{name} count <= MAX_PLAN_FLOATS = {MAX_PLAN_FLOATS:.1e}", name, text)
    return start, stop, count


def _parse_range(text: str, name: str) -> np.ndarray:
    return np.linspace(*_range_spec(text, name))


def _config_hash(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_manifest(out_dir: Path, command: str, args: argparse.Namespace,
                    config_path: Path | None, outputs: list[Path],
                    seed: int | None, extra: dict | None = None) -> Path:
    manifest = {
        "command": command,
        "argv": getattr(args, "invoked_argv", sys.argv[1:]),
        "config": None if config_path is None else str(config_path),
        "config_sha256": None if config_path is None else _config_hash(config_path),
        "master_seed": seed,
        "outputs": [str(p) for p in outputs],
        "toolkit_version": __version__,
        "timestamp_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    if extra:
        manifest.update(extra)
    path = out_dir / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path


def _out_dir(args) -> Path:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load(args):
    path = resolve_config_path(args.config)
    return load_config(path), path


def _auto_delta_range(config) -> tuple[float, float, int]:
    return 0.0, 1.5 * config.cavity.kappa / TWO_PI, 13


def _auto_gel_range(config) -> tuple[float, float, int]:
    # scale off the cancellation gain where the spring is strongest
    cfg = config.with_detuning(config.cavity.kappa)
    model = reduced_model(cfg, config.noise)
    return 0.0, 2.0 * cancellation_gain(cfg, model.omega_ref), 9


def cmd_map(args) -> int:
    config, path = _load(args)
    out = _out_dir(args)
    delta_spec = (_auto_delta_range(config) if args.delta_range == "auto"
                  else _range_spec(args.delta_range, "--delta-range"))
    gel_spec = (_auto_gel_range(config) if args.gel_range == "auto"
                else _range_spec(args.gel_range, "--gel-range"))
    if MAP_CELL_FLOATS * delta_spec[2] * gel_spec[2] > MAX_PLAN_FLOATS:
        raise ValidationError(
            f"map grid arrays, MAP_CELL_FLOATS = {MAP_CELL_FLOATS} a cell, "
            f"<= MAX_PLAN_FLOATS = {MAX_PLAN_FLOATS:.1e} floats",
            "--delta-range x --gel-range", f"{delta_spec[2]} x {gel_spec[2]}")
    deltas = np.linspace(*delta_spec) * TWO_PI
    gels = np.linspace(*gel_spec)
    smap = stability_map(config, deltas, gels)
    csv_path = out / "map.csv"
    write_map_csv(csv_path, smap, comment=f"stability map for {config.label}")
    counts = {"cells": int(smap.converged.size),
              "unconverged": int(np.count_nonzero(~smap.converged)),
              "ambiguous": int(np.count_nonzero(smap.ambiguous))}
    _write_manifest(out, "map", args, path, [csv_path], None,
                    {"delta_range_hz": [float(d) / TWO_PI for d in deltas],
                     "gel_range": [float(g) for g in gels], **counts})
    print(f"map: {smap.deltas.size} x {smap.gels.size} cells "
          f"({counts['unconverged']} unconverged, {counts['ambiguous']} "
          f"ambiguous) -> {csv_path}")
    return 0


def _spectrum_bundle(config, temperature: float):
    """(mode, chi_eff, thermal, freq-noise, total) on the default grid."""
    mode = extract_mode(config)
    grid_hz = build_frequency_grid(
        peaks=((mode.omega_eff / TWO_PI, max(abs(mode.gamma_eff),
                                             config.mirror1.gamma0)),))
    chi_eff = closed_loop_response(config, grid_hz * TWO_PI)
    s_th = thermal_spectrum(temperature, config.mirror1, chi_eff)
    s_fr = freqnoise_spectrum(config.noise, config, chi_eff)
    total = Spectrum(grid=grid_hz, values=s_th.values + s_fr.values,
                     kind="displacement")
    return mode, chi_eff, s_th, s_fr, total


def cmd_spectrum(args) -> int:
    config, path = _load(args)
    out = _out_dir(args)
    noise = config.noise
    if args.noise_amp is not None:  # the 1/f model replaces any noise table
        noise = dataclasses.replace(noise, freq_noise_amp=args.noise_amp,
                                    freq_noise_table=None)
    if args.temperature is not None:
        noise = dataclasses.replace(noise, temperature=args.temperature)
    config = dataclasses.replace(config, noise=noise, raw_items=())
    temperature = noise.temperature

    mode, chi_eff, s_th, s_fr, total = _spectrum_bundle(config, temperature)
    s_v = displacement_to_voltage(total, config, mode.omega_eff)
    outputs = []
    for name, spec in (("thermal", s_th), ("freqnoise", s_fr),
                       ("total", total), ("voltage", s_v)):
        p = out / f"spectrum_{name}.csv"
        write_spectrum_csv(p, spec, comment=f"{name} spectrum, "
                           f"f_eff_Hz = {float(mode.omega_eff / TWO_PI)!r}")
        outputs.append(p)
    sweep_path = out / "response_chi_eff.csv"
    write_response_csv(sweep_path, chi_eff,
                       comment="closed-loop susceptibility chi_eff, m/N")
    outputs.append(sweep_path)

    if args.calibrate_then_invert:
        back = voltage_to_displacement(s_v, config, mode.omega_eff)
        nonzero = total.values > 0
        err = 0.0 if not nonzero.any() else float(np.max(
            np.abs(back.values[nonzero] / total.values[nonzero] - 1.0)))
        print(f"calibration round trip max rel err = {err:.3e}")

    _write_manifest(out, "spectrum", args, path, outputs, None,
                    {"temperature_K": temperature,
                     "f_eff_Hz": mode.omega_eff / TWO_PI})
    print(f"spectrum: f_eff = {mode.omega_eff / TWO_PI:.4g} Hz -> {out}")
    return 0


def cmd_cool(args) -> int:
    config, path = _load(args)
    out = _out_dir(args)
    gains = ([config.servo.g_el] if args.gel_range is None
             else list(_parse_range(args.gel_range, "--gel-range")))
    rows, nan_rows = [], []
    for gel in gains:
        gel = float(gel)
        cfg = config.with_gain(gel)
        mode, chi_eff, s_th, s_fr, total = _spectrum_bundle(cfg, config.noise.temperature)
        try:
            t_eff = mode_temperature(total, mode.omega_eff, mode.gamma_eff,
                                     config.mirror1).t_eff * 1e3
        except OptospringError as exc:
            t_eff = np.nan
            nan_rows.append({"gel": gel, "reason": f"{type(exc).__name__}: {exc}"})
            print(f"gel = {gel:.4g}: {exc}", file=sys.stderr)
        try:
            occ = occupations(cfg, config.noise, mode, s_fr)
        except InstabilityError:  # an undamped mode has none
            occ = (np.nan,) * 3
        rows.append((gel, mode.omega_eff / TWO_PI, mode.gamma_eff / TWO_PI,
                     t_eff) + occ + (int(mode.stable),))
    csv_path = out / "cool.csv"
    write_table(csv_path, ("gel", "f_eff_Hz", "gamma_eff_Hz", "T_eff_mK",
                           "n_th_prime", "n_freq", "n_th_bare", "stable"),
                zip(*rows))
    _write_manifest(out, "cool", args, path, [csv_path], None,
                    {"nan_t_eff_rows": nan_rows})
    print(f"cool: {len(gains)} gain point(s), {len(nan_rows)} with T_eff = NaN "
          f"-> {csv_path}")
    return 0


def _plan_from_args(args) -> SimPlan:
    return SimPlan(duration=args.duration, n_trajectories=args.n_trajectories,
                   master_seed=args.seed, dt=args.dt,
                   record_stride=args.record_stride)


def _plan_record(plan: SimPlan, m: RateMeasurement) -> dict:
    """The plan as run, for the manifest: the resolved dt and
    record_stride, and the kernel step record_stride*dt (None where the
    measurement failed before its protocol was built)."""
    ran = m.record_stride is not None
    return {"duration": plan.duration, "n_trajectories": plan.n_trajectories,
            "record_stride": m.record_stride, "dt": m.dt if ran else None,
            "kernel_step": m.record_stride * m.dt if ran else None}


def _measurement_manifest(plan: SimPlan, rows: list[RateMeasurement]) -> dict:
    """The measurement keys of the retherm and scan manifests, one entry
    per detuning: its plan as run, and the anti-damped rows (gamma_off <=
    0) and the rows whose gamma fit failed, with the reason."""
    return {"plans": [_plan_record(plan, r) for r in rows],
            "anti_damped_rows": [{"delta_Hz": r.delta / TWO_PI,
                                  "gamma_off": r.gamma_off}
                                 for r in rows if r.gamma_off <= 0],
            "gamma_fit_errors": [{"delta_Hz": r.delta / TWO_PI,
                                  "reason": r.ensemble.gamma_fit_error}
                                 for r in rows
                                 if r.ensemble and r.ensemble.gamma_fit_error]}


def cmd_retherm(args) -> int:
    config, path = _load(args)
    out = _out_dir(args)
    plan = _plan_from_args(args)
    m = measure_rate(config, config.noise, plan)
    csv_path = out / "retherm_mean_n.csv"
    write_ensemble_csv(csv_path, m.ensemble, comment=f"rethermalization, "
                       f"{config.label}, seed {plan.master_seed}")
    fit_path = out / "retherm_fit.json"
    fit_path.write_text(json.dumps(measurement_row(m), indent=2,
                                   sort_keys=True) + "\n")
    _write_manifest(out, "retherm", args, path, [csv_path, fit_path],
                    plan.master_seed, _measurement_manifest(plan, [m]))
    gamma_error = m.ensemble.gamma_fit_error
    gamma = (f"gamma_measured = NaN: {gamma_error}" if gamma_error
             else f"gamma = {m.ensemble.fitted_gamma_eff:.4g}")
    anti = (f", anti-damped (gamma_off = {m.gamma_off:.4g} rad/s <= 0)"
            if m.gamma_off <= 0 else "")
    print(f"retherm: rate = {m.rate_measured:.4g} +- "
          f"{m.rate_exact_err:.2g} /s (exact {m.rate_exact:.4g}, "
          f"predicted {m.rate_predicted:.4g}), "
          f"{gamma} (exact {m.gamma_exact:.4g} +- {m.gamma_exact_err:.2g} "
          f"rad/s){anti} -> {csv_path}")
    return 0


def cmd_scan(args) -> int:
    config, path = _load(args)
    out = _out_dir(args)
    deltas = _parse_range(args.deltas, "--deltas") * TWO_PI
    plan = _plan_from_args(args)
    rows = detuning_scan(config, config.noise, plan, deltas)
    csv_path = out / "scan.csv"
    write_scan_csv(csv_path, rows, comment=f"detuning scan, {config.label}, "
                   f"seed {plan.master_seed}")
    keys = _measurement_manifest(plan, rows)
    _write_manifest(out, "scan", args, path, [csv_path], plan.master_seed,
                    {"deltas_Hz": [float(d) / TWO_PI for d in deltas], **keys})
    failed = [r for r in rows if not r.ok]
    worst = max((abs(r.rate_measured - r.rate_exact) / r.rate_exact_err
                 for r in rows if r.ok and r.rate_exact_err > 0),
                default=math.nan)
    print(f"scan: {len(rows)} detunings ({len(failed)} failed, "
          f"{len(keys['anti_damped_rows'])} anti-damped: gamma_off <= 0), worst "
          f"|rate_measured - rate_exact| = {worst:.2f} exact errors "
          f"-> {csv_path}")
    for r in failed:
        print(f"  delta = {r.delta / TWO_PI:.4g} Hz: {r.error}", file=sys.stderr)
    return 0


_CHECK_SCALARS = ("m1_mg", "f_eff_Hz", "noise_mHz_rtHz", "length_cm",
                  "q1", "f1_Hz", "temperature_K")


def cmd_check(args) -> int:
    if args.config is not None:
        config, path = _load(args)
        budget = config_budget(config,
                               off_state_mode(config, config.noise).omega_eff)
    else:
        missing = [name for name in _CHECK_SCALARS
                   if getattr(args, name.lower()) is None]
        if missing:
            raise ValidationError(
                "check needs --config or every scalar; missing: "
                + ", ".join("--" + m.lower().replace("_", "-") for m in missing),
                "check", missing)
        budget = feasibility_budget(
            m1=args.m1_mg * 1e-6,
            omega_eff=TWO_PI * args.f_eff_hz,
            noise_amp_at_omega_eff=args.noise_mhz_rthz * 1e-3,
            length=args.length_cm * 1e-2,
            q1=args.q1, omega1=TWO_PI * args.f1_hz,
            temperature=args.temperature_k)
    print(budget.verdict_line())
    if args.json_out:
        Path(args.json_out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.json_out).write_text(budget.to_json() + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="optospring",
        description="Optically trapped suspended-mirror toolkit: stability "
                    "maps, noise spectra, cooling, and rethermalization "
                    "Monte Carlo.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, seeded=False):
        p.add_argument("--config", required=True,
                       help="config file path or preset name "
                            "(experiment, ideal; $OPTOSPRING_PRESET_DIR searched)")
        p.add_argument("--out-dir", default="runs", help="output directory")
        if seeded:
            p.add_argument("--seed", type=int, default=2024,
                           help="master seed for the trajectory streams")

    p_map = sub.add_parser("map", help="stability map over detuning and gain")
    add_common(p_map)
    p_map.add_argument("--delta-range", default="auto",
                       help="start:stop:count in Hz (default auto)")
    p_map.add_argument("--gel-range", default="auto",
                       help="start:stop:count in N*s/m (default auto)")
    p_map.set_defaults(func=cmd_map)

    p_spec = sub.add_parser("spectrum",
                            help="thermal / trap-noise / total / voltage spectra")
    add_common(p_spec)
    p_spec.add_argument("--temperature", type=float, default=None,
                        help="bath temperature override, K")
    p_spec.add_argument("--noise-amp", type=float, default=None,
                        help="1/f amplitude, Hz^2/sqrt(Hz); replaces the "
                             "config's amplitude and noise table")
    p_spec.add_argument("--calibrate-then-invert", action="store_true",
                        help="report the voltage-calibration round-trip error")
    p_spec.set_defaults(func=cmd_spectrum)

    p_cool = sub.add_parser("cool", help="cooled-mode temperatures vs gain")
    add_common(p_cool)
    p_cool.add_argument("--gel-range", default=None,
                        help="start:stop:count in N*s/m (default: config gain)")
    p_cool.set_defaults(func=cmd_cool)

    for name, helptext in (("retherm", "rethermalization ensemble"),
                           ("scan", "decoherence rate vs detuning")):
        p = sub.add_parser(name, help=helptext)
        add_common(p, seeded=True)
        p.add_argument("--duration", type=float, default=1.0,
                       help="seconds past the first switch-off")
        p.add_argument("--n-trajectories", type=int, default=100)
        p.add_argument("--dt", type=float, default=None)
        p.add_argument("--record-stride", type=int, default=None,
                       help="steps of dt per record (default: about "
                            "2,000 records per phase, at least 10 steps)")
        if name == "scan":
            p.add_argument("--deltas", required=True,
                           help="start:stop:count in Hz")
            p.set_defaults(func=cmd_scan)
        else:
            p.set_defaults(func=cmd_retherm)

    p_check = sub.add_parser("check",
                             help="coherence condition and 1/n_osc budget")
    p_check.add_argument("--config", default=None)
    p_check.add_argument("--m1-mg", type=float, default=None, dest="m1_mg")
    p_check.add_argument("--f-eff-hz", type=float, default=None, dest="f_eff_hz")
    p_check.add_argument("--noise-mhz-rthz", type=float, default=None,
                         dest="noise_mhz_rthz",
                         help="sqrt(S_phidot) at f_eff, mHz/sqrt(Hz)")
    p_check.add_argument("--length-cm", type=float, default=None,
                         dest="length_cm")
    p_check.add_argument("--q1", type=float, default=None)
    p_check.add_argument("--f1-hz", type=float, default=None, dest="f1_hz")
    p_check.add_argument("--temperature-k", type=float, default=None,
                         dest="temperature_k")
    p_check.add_argument("--json-out", default=None)
    p_check.set_defaults(func=cmd_check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    args.invoked_argv = argv
    try:
        return args.func(args)
    except (ValidationError, ConfigParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OptospringError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (np.linalg.LinAlgError, ArithmeticError) as exc:
        print(f"numerical error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
