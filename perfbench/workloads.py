"""Inputs, timed operations, correctness checks and metrics of the three
benchmark workloads (``retherm``, ``welch``, ``cli``).

The benchmark generates every input: the preset it loads, the trajectory
seeds (drawn from ``--seed``), and the command lines.  The toolkit only
receives them.  See README.md for why each workload exists and which layer
metric should move which end-to-end metric.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import optospring
from optospring import cli, dynamics, model, response, spectra

from spans import Tracer

TWO_PI = 2.0 * math.pi

# Trapped frequency of the experiment preset with the servo parked.
F_REF_HZ, F_REF_TOL_HZ = 950.0, 5.0

# |fitted/predicted - 1| and |T_eff/(T*gamma1/gamma_on) - 1| bounds.  Each is
# the mean offset plus 4 standard deviations of the seed-to-seed spread
# measured over 20 seeds at the full sizes (README.md, "Correctness bounds").
RATE_BOUND = 0.31
T_EFF_BOUND = 0.25

# The gain sweep of scripts/run_cooling_spectra.py.  At the toolkit's first
# commit 6 of its 14 rows have T_eff = NaN; each NaN row is a failed
# operation.  Do not narrow the range to hide them.
COOL_GAINS = "14:560:14"

# Segment length of the acceptance-8 Welch estimate.
WELCH_SEGMENT = 8192
WELCH_GAIN = 56.0

_MAX_ERRORS_KEPT = 5


@dataclasses.dataclass(frozen=True)
class Sizes:
    n_traj: int = 100              # retherm ensemble width
    retherm_s: float = 2.0         # retherm duration past the first switch-off
    welch_s: float = 2.0           # welch trajectory duration
    switch_hz: float | None = None  # None keeps the preset's 1 Hz switching
    map_deltas: str = "0:1.7e6:120"
    map_gels: str = "0:1.5:100"
    setup_samples: int = 4         # cold set-ups per run for setup_s
    importtime_samples: int = 3    # -X importtime children per traced run
    load_config_calls: int = 10    # traced load_config calls


FULL = Sizes()
# A few seconds per workload: 20 Hz switching lets a 0.1-0.2 s run cover
# several servo periods; the map shrinks to 6 x 5 cells.
SMOKE = Sizes(n_traj=8, retherm_s=0.1, welch_s=0.2, switch_hz=20.0,
              map_deltas="0:1.7e6:6", map_gels="0:1.5:5", setup_samples=1,
              importtime_samples=1, load_config_calls=2)


class Tally:
    """Operations attempted and failed, and the outcome of every check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.checks: dict[str, dict] = {}
        self.errors: list[str] = []
        self.breakdown: dict[str, list[int]] = {}

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        entry = self.checks.setdefault(name, {"passed": 0, "failed": 0,
                                              "first_failure": None})
        if ok:
            entry["passed"] += 1
        else:
            entry["failed"] += 1
            if entry["first_failure"] is None:
                entry["first_failure"] = detail
        return bool(ok)

    def ops(self, kind: str, attempted: int, failed: int):
        self.attempted += attempted
        self.failed += failed
        total = self.breakdown.setdefault(kind, [0, 0])
        total[0] += failed
        total[1] += attempted

    def error(self, kind: str):
        """Record the exception being handled as one failed operation."""
        self.ops(kind, 1, 1)
        if len(self.errors) < _MAX_ERRORS_KEPT:
            self.errors.append(traceback.format_exc(limit=3))

    @property
    def correct(self) -> bool:
        return bool(self.checks) and all(c["failed"] == 0
                                         for c in self.checks.values())


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(optospring.__file__).parent.parent)
    return env


def load_inputs(sizes: Sizes):
    cfg = model.load_config("experiment")
    if sizes.switch_hz is not None:
        cfg = dataclasses.replace(cfg, servo=dataclasses.replace(
            cfg.servo, switch_frequency=sizes.switch_hz), raw_items=())
    return cfg


def protocol_steps(cfg, plan, omega_ref: float) -> int:
    """Steps per trajectory from the first switch-off to the end of the
    run: (2 * periods - 1) servo half-periods at the plan's dt, with the
    dt default documented on SimPlan."""
    dt = plan.dt if plan.dt is not None else 1.0 / (200.0 * omega_ref / TWO_PI)
    period = 1.0 / cfg.servo.switch_frequency
    half = max(1, int(round(0.5 * period / dt)))
    periods = max(1, int(round(plan.duration / period)))
    return (2 * periods - 1) * half


# --------------------------------------------------------------------------
# retherm: the cool/release Monte Carlo at B = 100
# --------------------------------------------------------------------------

class Retherm:
    def __init__(self, sizes: Sizes):
        self.sizes = sizes
        self.cfg = load_inputs(sizes)
        mode = dynamics.off_state_mode(self.cfg, self.cfg.noise)
        self.predicted = dynamics.predicted_rate(self.cfg, self.cfg.noise, mode)[0]
        self.width = sizes.n_traj
        self.protocol_steps = 0  # per trajectory, of the last good operation

    def op(self, master_seed: int, tally: Tally) -> float:
        plan = dynamics.SimPlan(duration=self.sizes.retherm_s,
                                n_trajectories=self.sizes.n_traj,
                                master_seed=master_seed)
        start = time.perf_counter()
        try:
            result = dynamics.run_ensemble(self.cfg, self.cfg.noise, plan)
        except Exception:  # a failed operation is counted; the run goes on
            tally.error("run_ensemble")
            return time.perf_counter() - start
        elapsed = time.perf_counter() - start
        f_ref = result.omega_ref / TWO_PI
        rate = result.fitted_rate
        dev = rate / self.predicted - 1.0
        ok = tally.check("retherm.f_ref_950Hz",
                         abs(f_ref - F_REF_HZ) <= F_REF_TOL_HZ, f"{f_ref!r} Hz")
        ok &= tally.check("retherm.rate_finite_positive",
                          math.isfinite(rate) and rate > 0, f"{rate!r} /s")
        ok &= tally.check("retherm.rate_vs_predicted",
                          abs(dev) <= RATE_BOUND,
                          f"fitted/predicted - 1 = {dev:+.4f} (seed {master_seed})")
        tally.ops("run_ensemble", 1, 0 if ok else 1)
        self.protocol_steps = protocol_steps(self.cfg, plan, result.omega_ref)
        return elapsed


# --------------------------------------------------------------------------
# welch: one full-resolution trajectory -> Welch -> mode temperature
# --------------------------------------------------------------------------

class Welch:
    def __init__(self, sizes: Sizes):
        self.sizes = sizes
        base = load_inputs(sizes)
        servo = dataclasses.replace(base.servo, g_el=WELCH_GAIN,
                                    off_gain=WELCH_GAIN)
        self.cfg = dataclasses.replace(base, servo=servo, raw_items=())
        self.noise = dataclasses.replace(base.noise, freq_noise_amp=0.0)
        gamma_on = dynamics.reduced_model(self.cfg, self.noise).gamma_on
        self.t_expected = (self.noise.temperature * self.cfg.mirror1.gamma0
                           / gamma_on)
        self.width = 1
        self.protocol_steps = 0  # of the last good operation

    def op(self, master_seed: int, tally: Tally) -> float:
        plan = dynamics.SimPlan(duration=self.sizes.welch_s, n_trajectories=1,
                                master_seed=master_seed, record_stride=1)
        start = time.perf_counter()
        try:
            t, x, _, _ = dynamics.simulate_trajectory(self.cfg, self.noise,
                                                      plan, 0)
            spec = spectra.welch_psd(x, float(t[1] - t[0]),
                                     segment_length=WELCH_SEGMENT)
            mode = response.extract_mode(self.cfg, gel=WELCH_GAIN)
            temp = spectra.mode_temperature(spec, mode.omega_eff,
                                            mode.gamma_eff, self.cfg.mirror1)
        except Exception:  # a failed operation is counted; the run goes on
            tally.error("welch_pipeline")
            return time.perf_counter() - start
        elapsed = time.perf_counter() - start
        dev = temp.t_eff / self.t_expected - 1.0
        ok = tally.check("welch.t_eff_vs_analytic",
                         math.isfinite(dev) and abs(dev) <= T_EFF_BOUND,
                         f"T_eff/(T*gamma1/gamma_on) - 1 = {dev:+.4f} "
                         f"(seed {master_seed})")
        tally.ops("welch_pipeline", 1, 0 if ok else 1)
        self.protocol_steps = t.size  # stride 1 records every step
        return elapsed


# --------------------------------------------------------------------------
# cli: cold processes of four commands (no Monte Carlo)
# --------------------------------------------------------------------------

def _range_count(text: str) -> int:
    return int(text.split(":")[2])


def _csv_rows(path: Path) -> list[list[str]]:
    lines = [ln for ln in path.read_text().splitlines()
             if ln and not ln.startswith("#")]
    return [ln.split(",") for ln in lines[1:]]


class Cli:
    commands = ("check", "spectrum", "cool", "map")

    def __init__(self, sizes: Sizes, out: Path):
        self.sizes = sizes
        self.out = out / "cli"

    def argv(self, command: str) -> list[str]:
        out = str(self.out / command)
        return {
            "check": ["check", "--config", "experiment"],
            "spectrum": ["spectrum", "--config", "experiment", "--out-dir", out],
            "cool": ["cool", "--config", "experiment",
                     "--gel-range", COOL_GAINS, "--out-dir", out],
            "map": ["map", "--config", "experiment",
                    "--delta-range", self.sizes.map_deltas,
                    "--gel-range", self.sizes.map_gels, "--out-dir", out],
        }[command]

    def cold(self, command: str, tally: Tally) -> float:
        """One cold ``python -m optospring.cli`` process; returns its wall time."""
        shutil.rmtree(self.out / command, ignore_errors=True)
        start = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "optospring.cli", *self.argv(command)],
                capture_output=True, text=True, env=child_env(), timeout=170)
        except subprocess.TimeoutExpired:
            tally.error(f"cli.{command}")
            return time.perf_counter() - start
        elapsed = time.perf_counter() - start
        self.verify(command, proc.returncode, proc.stdout, tally)
        return elapsed

    def in_process(self, command: str, tally: Tally) -> float:
        """The same command through ``cli.main`` in this process."""
        shutil.rmtree(self.out / command, ignore_errors=True)
        stdout = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(io.StringIO()):
                rc = cli.main(self.argv(command))
        except Exception:  # a failed operation is counted; the run goes on
            tally.error(f"cli.{command}")
            return time.perf_counter() - start
        elapsed = time.perf_counter() - start
        self.verify(command, rc, stdout.getvalue(), tally)
        return elapsed

    def bytes_written(self) -> int:
        return sum(p.stat().st_size for p in self.out.rglob("*") if p.is_file())

    def verify(self, command: str, rc: int, stdout: str, tally: Tally):
        """Exit code, outputs and manifest, row counts; NaN cool rows and
        unconverged map cells are counted as failed operations."""
        ok = tally.check(f"cli.{command}.exit_0", rc == 0, f"exit {rc}")
        out = self.out / command
        if ok and command == "check":
            ok = tally.check("cli.check.verdict_line",
                             re.match(r"n_osc = \S+ \(thermal 1/n_osc = ",
                                      stdout) is not None, stdout[:200])
        elif ok:
            expected = {
                "spectrum": ["spectrum_thermal.csv", "spectrum_freqnoise.csv",
                             "spectrum_total.csv", "spectrum_voltage.csv",
                             "response_chi_eff.csv"],
                "cool": ["cool.csv"],
                "map": ["map.csv"],
            }[command]
            manifest = out / "manifest.json"
            listed = []
            if manifest.is_file():
                listed = [Path(p) for p in json.loads(manifest.read_text())
                          .get("outputs", [])]
            present = all((out / f).is_file() for f in expected) \
                and manifest.is_file() and all(p.is_file() for p in listed)
            ok = tally.check(f"cli.{command}.outputs_exist", present,
                             f"files in {out}: "
                             f"{sorted(p.name for p in out.glob('*'))}")
            if ok:
                ok = getattr(self, f"_verify_{command}")(out, tally)
        tally.ops(f"cli.{command}", 1, 0 if ok else 1)

    def _verify_spectrum(self, out: Path, tally: Tally) -> bool:
        cols = {}
        for name in ("thermal", "freqnoise", "total", "voltage"):
            rows = _csv_rows(out / f"spectrum_{name}.csv")
            cols[name] = np.array([float(r[1]) for r in rows])
        n_resp = len(_csv_rows(out / "response_chi_eff.csv"))
        sizes = {name: v.size for name, v in cols.items()}
        ok = tally.check("cli.spectrum.row_counts",
                         len(set(sizes.values())) == 1
                         and n_resp == sizes["total"] >= 2,
                         f"{sizes}, response {n_resp}")
        if ok:
            total = cols["thermal"] + cols["freqnoise"]
            ok = tally.check("cli.spectrum.total_is_sum",
                             np.allclose(cols["total"], total, rtol=1e-12, atol=0),
                             "total != thermal + freqnoise")
        return ok

    def _verify_cool(self, out: Path, tally: Tally) -> bool:
        rows = _csv_rows(out / "cool.csv")
        want = _range_count(COOL_GAINS)
        ok = tally.check("cli.cool.row_count", len(rows) == want,
                         f"{len(rows)} rows, argv asks {want}")
        nan_rows = sum(1 for r in rows if math.isnan(float(r[3])))
        tally.ops("cool_row", len(rows), nan_rows)
        return ok

    def _verify_map(self, out: Path, tally: Tally) -> bool:
        rows = _csv_rows(out / "map.csv")
        want = _range_count(self.sizes.map_deltas) * _range_count(self.sizes.map_gels)
        ok = tally.check("cli.map.row_count", len(rows) == want,
                         f"{len(rows)} rows, argv asks {want}")
        unconverged = sum(1 for r in rows if math.isnan(float(r[2])))
        tally.ops("map_cell", len(rows), unconverged)
        return ok


# --------------------------------------------------------------------------
# set-up and import timing (cold child processes)
# --------------------------------------------------------------------------

_SETUP_CODE = ("import time; t0 = time.perf_counter(); import optospring; "
               "{load}print(time.perf_counter() - t0)")


def setup_times(with_config: bool, samples: int) -> list[float]:
    """Cold set-up in fresh processes: ``import optospring`` (and the
    preset load) timed inside each child."""
    load = "optospring.load_config('experiment'); " if with_config else ""
    out = []
    for _ in range(samples):
        proc = subprocess.run([sys.executable, "-c", _SETUP_CODE.format(load=load)],
                              capture_output=True, text=True, env=child_env(),
                              check=True, timeout=120)
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


IMPORT_MODULES = {"import.optospring_s": "optospring",
                  "import.scipy_signal_s": "scipy.signal",
                  "import.scipy_optimize_s": "scipy.optimize",
                  "import.scipy_constants_s": "scipy.constants"}

_IMPORTTIME = re.compile(r"import time:\s+\d+ \|\s+(\d+) \|\s*(\S+)\s*$")


def import_times(samples: int) -> dict[str, float]:
    """Cumulative import time of each module in IMPORT_MODULES, from
    ``-X importtime`` of a cold ``import optospring``; 0 when the module is
    not imported at all.  Median over ``samples`` children."""
    per_child = []
    for _ in range(samples):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                               "import optospring"], capture_output=True,
                              text=True, env=child_env(), check=True,
                              timeout=120)
        cumulative = {}
        for line in proc.stderr.splitlines():
            m = _IMPORTTIME.match(line)
            if m:
                cumulative.setdefault(m.group(2), int(m.group(1)) * 1e-6)
        per_child.append(cumulative)
    return {metric: statistics.median(c.get(mod, 0.0) for c in per_child)
            for metric, mod in IMPORT_MODULES.items()}


def peak_rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


# --------------------------------------------------------------------------
# traced run
# --------------------------------------------------------------------------

_WRITERS = ("optospring.response:write_map_csv",
            "optospring.response:write_response_csv",
            "optospring.spectra:write_spectrum_csv",
            "optospring.dynamics:write_ensemble_csv",
            "optospring.cli:_write_manifest")


def _record_map(sp, smap):
    sp.attrs["cells"] = int(smap.converged.size)
    sp.attrs["unconverged"] = int(np.count_nonzero(~smap.converged))


def _record_points(sp, grid):
    sp.attrs["points"] = int(np.size(grid))


class _CountingGenerator:
    """Delegates to a numpy Generator and counts the normals it draws."""

    def __init__(self, gen, counts):
        self._gen = gen
        self._counts = counts

    def standard_normal(self, *args, **kwargs):
        out = self._gen.standard_normal(*args, **kwargs)
        self._counts["dynamics.normals"] += int(np.size(out))
        return out

    def __getattr__(self, name):
        return getattr(self._gen, name)


def instrument(tracer: Tracer):
    """Wrap the toolkit's layer entry points (README.md, "Per-layer
    metrics")."""
    spans = [
        ("optospring.model:load_config", "model"),
        ("optospring.response:extract_mode", "response"),
        ("optospring.response:stability_map", "response", _record_map),
        ("optospring.response:closed_loop_response", "response"),
        ("optospring.spectra:build_frequency_grid", "spectra", _record_points),
        ("optospring.spectra:thermal_spectrum", "spectra"),
        ("optospring.spectra:freqnoise_spectrum", "spectra"),
        ("optospring.spectra:welch_psd", "spectra"),
        ("optospring.spectra:mode_temperature", "spectra"),
        ("optospring.spectra:occupations", "spectra"),
        ("optospring.spectra:displacement_to_voltage", "spectra"),
        ("optospring.cli:_spectrum_bundle", "spectra"),
        ("optospring.dynamics:run_ensemble", "dynamics"),
        ("optospring.dynamics:simulate_trajectory", "dynamics"),
        ("optospring.dynamics:reduced_model", "dynamics"),
        ("optospring.dynamics:off_state_mode", "dynamics"),
        ("optospring.dynamics:predicted_rate", "dynamics"),
        ("optospring.dynamics:fit_decoherence_rate", "dynamics"),
        ("optospring.dynamics:_fit_exponential", "dynamics"),
        ("optospring.dynamics:PhaseMap.__init__", "dynamics"),
        ("optospring.coherence:feasibility_budget", "coherence"),
        ("optospring.cli:main", "cli"),
    ] + [(w, "cli") for w in _WRITERS]
    for target, layer, *hook in spans:
        name = target.split(":")[1].replace(".__init__", "")
        tracer.patch_span(target, f"{layer}.{name}", layer,
                          hook[0] if hook else None)
    tracer.patch_count("optospring.dynamics:PhaseMap.advance",
                       "dynamics.advance_calls")
    tracer.counts.setdefault("dynamics.normals", 0)
    tracer.patch_result(
        "optospring.dynamics:_trajectory_generators",
        lambda gens: [_CountingGenerator(g, tracer.counts) for g in gens])


def _median(values, scale: float) -> float:
    values = list(values)
    return statistics.median(values) * scale if values else -1.0


def layer_metrics(tracer: Tracer, roots: dict, ops: dict, cli_bytes: int) -> dict:
    """Per-layer metrics from the spans of one traced suite.  A metric whose
    hook is missing at this commit reads -1."""
    def durations(name, within=None):
        return [sp.duration for sp in tracer.find(name, within)]

    children = tracer.children()
    m = {}
    m["model.load_config_ms"] = _median(durations("model.load_config"), 1e3)
    m["response.extract_mode_us"] = _median(durations("response.extract_mode"), 1e6)
    maps = tracer.find("response.stability_map")
    m["response.map_cells"] = sum(sp.attrs.get("cells", 0) for sp in maps)
    m["response.map_unconverged"] = sum(sp.attrs.get("unconverged", 0) for sp in maps)
    m["response.closed_loop_response_ms"] = _median(
        durations("response.closed_loop_response"), 1e3)
    m["spectra.grid_points"] = _median(
        (sp.attrs["points"] for sp in tracer.find("spectra.build_frequency_grid")), 1)
    m["spectra.spectrum_bundle_ms"] = _median(durations("spectra._spectrum_bundle"), 1e3)
    temps = tracer.find("spectra.mode_temperature")
    m["spectra.mode_temperature_ms"] = _median((sp.duration for sp in temps), 1e3)
    m["spectra.mode_temperature_failed"] = sum(1 for sp in temps if sp.error)
    m["spectra.welch_ms"] = _median(durations("spectra.welch_psd"), 1e3)
    m["dynamics.reduced_model_us"] = _median(durations("dynamics.reduced_model"), 1e6)
    m["dynamics.phase_map_us"] = _median(durations("dynamics.PhaseMap"), 1e6)

    retherm_root = roots["retherm"]
    fits = (durations("dynamics.fit_decoherence_rate", retherm_root)
            + durations("dynamics._fit_exponential", retherm_root))
    m["dynamics.fit_ms"] = sum(fits) * 1e3 if fits else -1.0
    ens = tracer.find("dynamics.run_ensemble", retherm_root)
    rops = ops["retherm"]
    m["dynamics.steps"] = rops["traj_steps"]
    m["dynamics.burn_in_steps"] = rops["burn_in_steps"]
    m["dynamics.normals"] = rops["normals"]
    m["dynamics.ns_per_traj_step"] = (
        tracer.self_time(ens[0], children) / rops["traj_steps"] * 1e9
        if ens and rops["traj_steps"] > 0 else -1.0)
    sim = tracer.find("dynamics.simulate_trajectory", roots["welch"])
    wops = ops["welch"]
    m["dynamics.us_per_step_b1"] = (
        tracer.self_time(sim[0], children) / wops["traj_steps"] * 1e6
        if sim and wops["traj_steps"] > 0 else -1.0)
    m["coherence.budget_us"] = _median(durations("coherence.feasibility_budget"), 1e6)
    writes = [sp.duration for w in _WRITERS
              for sp in tracer.find("cli." + w.split(":")[1], roots["cli"])]
    m["cli.write_ms"] = sum(writes) * 1e3 if writes else -1.0
    m["cli.bytes_written"] = cli_bytes
    return m


def traced_suite(workload: str, sizes: Sizes, seeds: dict, out: Path,
                 tally: Tally) -> tuple[dict, Tracer, dict]:
    """Per-layer metrics: the workload's own operation once untraced and
    once traced (the difference is the tracing overhead), then the other two
    workloads' operations traced, so every layer is measured in every traced
    run with the same definition.  The cli operation replays the four
    commands in-process through ``cli.main``."""
    metrics = import_times(sizes.importtime_samples)
    retherm, welch, cmds = Retherm(sizes), Welch(sizes), Cli(sizes, out)
    ops = {
        "retherm": lambda: retherm.op(seeds["retherm"], tally),
        "welch": lambda: welch.op(seeds["welch"], tally),
        "cli": lambda: sum(cmds.in_process(c, tally) for c in Cli.commands),
    }
    untraced = ops[workload]()
    tracer = Tracer()
    instrument(tracer)
    roots, deltas = {}, {}
    try:
        with tracer.span("op.load_config", "bench"):
            for _ in range(sizes.load_config_calls):
                model.load_config("experiment")
        for name in [workload] + [n for n in ops if n != workload]:
            before = dict(tracer.counts)
            with tracer.span(f"op.{name}", "bench") as root:
                ops[name]()
            roots[name] = root
            deltas[name] = {k: v - before.get(k, 0)
                            for k, v in tracer.counts.items()}
    finally:
        tracer.restore()

    hooked = {"advance": "optospring.dynamics:PhaseMap.advance" not in tracer.missing,
              "normals": "optospring.dynamics:_trajectory_generators"
                         not in tracer.missing}
    op_counts = {}
    for name, obj in (("retherm", retherm), ("welch", welch)):
        steps = obj.protocol_steps
        counts = {"traj_steps": obj.width * steps, "burn_in_steps": -1,
                  "normals": -1}
        if steps and hooked["advance"]:
            counts["burn_in_steps"] = deltas[name]["dynamics.advance_calls"] - steps
        if steps and hooked["normals"]:
            counts["normals"] = deltas[name]["dynamics.normals"]
        op_counts[name] = counts
    metrics.update(layer_metrics(tracer, roots, op_counts, cmds.bytes_written()))
    metrics["trace.overhead_pct"] = (roots[workload].duration / untraced - 1.0) * 100.0
    metrics["trace.spans"] = len(tracer.spans)
    summary = {
        "untraced_op_s": untraced,
        "traced_op_s": {name: sp.duration for name, sp in roots.items()},
        "layer_self_ms": {name: {layer: t * 1e3 for layer, t in
                                 tracer.layer_self_times(sp).items()}
                          for name, sp in roots.items()},
        "op_counts": op_counts,
    }
    return metrics, tracer, summary
