#!/usr/bin/env python3
"""optospring benchmark: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload {retherm,welch,cli} --seed N \
        --seconds S --trace {0,1} [--smoke]

Run from the root of a source tree (``src/optospring`` must exist; nothing
needs installing).  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics of BENCHMARK.json with ``--trace 0``, its per-layer
metrics from a traced run with ``--trace 1``.  ``--smoke`` shrinks every
size (see tests/smoke.py).  The environment, the checks and, for a traced
run, the spans are written under ``.perfbench_out/``.
"""

import os
import sys

# One BLAS thread, here and in every child process.  Set before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# Cold imports read cached bytecode, as an installed package's would,
# whatever the caller's setting.
os.environ.pop("PYTHONDONTWRITEBYTECODE", None)
sys.dont_write_bytecode = False

import argparse
import hashlib
import json
import platform
import random
import resource
import signal
import statistics
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("retherm", "welch", "cli")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny sizes: checks that every metric is emitted")
    return p.parse_args(argv)


def measure(op, seconds: float) -> list[float]:
    """Repeat ``op`` (which returns its own duration) while one more call is
    expected to finish within ``seconds``; always at least once."""
    times = []
    start = time.perf_counter()
    while True:
        times.append(op())
        if time.perf_counter() - start + statistics.median(times) > seconds:
            return times


def untraced(W, workload, sizes, seconds, rng, tally):
    if workload == "cli":
        setup = W.setup_times(False, sizes.setup_samples)
        cmds = W.Cli(sizes, OUT)
        per_command = {c: [] for c in cmds.commands}

        def op():
            total = 0.0
            for command in rng.sample(cmds.commands, len(cmds.commands)):
                elapsed = cmds.cold(command, tally)
                per_command[command].append(elapsed)
                total += elapsed
            return total

        times = measure(op, seconds)
        rss = W.peak_rss_mb(resource.RUSAGE_CHILDREN)
        named = {f"cli_{c}_s": statistics.median(v) for c, v in per_command.items()}
    else:
        setup = W.setup_times(True, sizes.setup_samples)
        work = (W.Retherm if workload == "retherm" else W.Welch)(sizes)
        times = measure(lambda: work.op(rng.randrange(2**32), tally), seconds)
        rss = W.peak_rss_mb(resource.RUSAGE_SELF)
        named = {"retherm_s" if workload == "retherm" else "welch_temp_s":
                 statistics.median(times)}
    values = {"setup_s": statistics.median(setup),
              "work_s": statistics.median(times),
              "peak_rss_mb": rss}
    details = {"setup_samples_s": setup, "op_times_s": times,
               "named_times_s": named}
    return values, details


def _commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(args) -> dict:
    import numpy
    import scipy

    return {
        "commit": _commit(),
        "src_sha256": _src_sha256(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "blas_threads": {v: os.environ[v] for v in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                          "MKL_NUM_THREADS")},
        "file_cache": "warm: the benchmark drops no caches",
    }


def main(argv=None) -> int:
    # SIGTERM unwinds like an exception, so subprocess.run kills its child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (SRC / "optospring" / "__init__.py").is_file():
        print(f"error: no toolkit source at {SRC / 'optospring'}; run from "
              "the root of an optospring source tree", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads as W

    if SRC not in Path(W.optospring.__file__).resolve().parents:
        print(f"error: imported optospring from {W.optospring.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    env = environment(args)
    sizes = W.SMOKE if args.smoke else W.FULL
    rng = random.Random(f"{args.workload}:{args.seed}")
    tally = W.Tally()
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}" \
        + ("-smoke" if args.smoke else "")
    result = {"environment": env}
    if args.trace:
        seeds = {name: rng.randrange(2**32) for name in WORKLOADS}
        values, tracer, summary = W.traced_suite(args.workload, sizes, seeds,
                                                 OUT, tally)
        result["trace"] = summary
        (OUT / f"{stem}-spans.json").write_text(json.dumps(tracer.to_json()))
    else:
        values, result["details"] = untraced(W, args.workload, sizes,
                                             args.seconds, rng, tally)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in listed}
    final = {"correct": tally.correct, "attempted": tally.attempted,
             "failed": tally.failed, "metrics": metrics}
    result.update(final)
    result["checks"] = tally.checks
    result["failures"] = {kind: f"{f}/{a}" for kind, (f, a) in tally.breakdown.items()}
    result["errors"] = tally.errors
    (OUT / f"{stem}.json").write_text(json.dumps(result, indent=2) + "\n")

    print("environment: " + json.dumps(env))
    for kind, share in result["failures"].items():
        print(f"failed {kind}: {share}")
    for name, value in result.get("details", {}).get("named_times_s", {}).items():
        print(f"{name} = {value:.4f} s")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
