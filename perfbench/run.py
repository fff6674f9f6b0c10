"""koopnet sweep benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload bio-n20 --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; koopnet is imported from ``src``.
Every sweep runs in a fresh child process (``child.py``) whose BLAS thread
variables are pinned to 1 before numpy loads.

``--trace 0`` runs the workload's sweeps untraced, one child each, on
instances drawn from ``--seed``, and reports the end-to-end metrics as
medians over the children.  ``--trace 1`` runs instance 0 twice, untraced
and then traced, and reports the per-layer metrics of the traced sweep;
``trace.overhead_s`` is the difference of the two sweep times.  Metric names, units and
directions are listed in BENCHMARK.json; see perfbench/README.md.

Stdout carries one line per sweep (its CSV sha256 included), the
environment, the metrics by name and unit, and, last, the JSON object
``{"correct", "attempted", "failed", "metrics"}``.  A failed child or a
missing checkout exits non-zero without that object.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from child import THREAD_VARS  # noqa: E402
from workloads import WORKLOADS, instance_seed, sweeps_per_run  # noqa: E402

CHILD_TIMEOUT_S = 150

END_TO_END = {"sweep_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# Reported on stdout beside the end-to-end metrics; they vary with the
# instance too much to carry a bound, so BENCHMARK.json lists them per layer.
NRMSE = ("nrmse.log-koopman", "nrmse.log", "baselines.poly-gramian.nrmse")


def layer_unit(name: str) -> str:
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    if name.endswith("_frac") or "nrmse" in name:
        return "ratio"
    return "count"


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0,
                   help="workload seed; 0 for baselines, 1 held out for "
                        "re-checking claims")
    p.add_argument("--seconds", type=float, default=30.0,
                   help="run length; sets how many sweeps an untraced run makes")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_child(workload: str, config_seed: int, out: Path, *flags: str) -> dict:
    """Run one child to completion and return its result, set-up time added."""
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--config-seed", str(config_seed), "--out", str(out), *flags]
    spawned = time.monotonic()
    proc = subprocess.run(cmd, env=_child_env(), cwd=ROOT, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"child {' '.join(cmd[1:])} exited "
                           f"{proc.returncode}:\n{proc.stderr[-3000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result.pop("setup_end") - spawned
    return result


def _quality(result: dict) -> dict:
    return {"failed_frac": result["failed"] / result["attempted"],
            **{name: result[name] for name in NRMSE}}


def _untraced(args, out: Path):
    sweeps = [run_child(args.workload, instance_seed(args.seed, k), out / str(k))
              for k in range(sweeps_per_run(args.seconds))]
    metrics = {name: statistics.median(r[name] for r in sweeps)
               for name in END_TO_END}
    qualities = [_quality(r) for r in sweeps]
    info = {name: statistics.mean(q[name] for q in qualities)
            for name in qualities[0]}
    return sweeps, metrics, info


def _traced(args, out: Path):
    seed = instance_seed(args.seed, 0)
    plain = run_child(args.workload, seed, out / "untraced")
    traced = run_child(args.workload, seed, out / "traced", "--trace")
    if traced["csv_sha256"] != plain["csv_sha256"]:
        traced["problems"].append("tracing changed the sweep CSV")
    metrics = {**traced.pop("layers"), **_quality(traced),
               "trace.overhead_s": traced["sweep_s"] - plain["sweep_s"]}
    return [plain, traced], metrics, {}


def main(argv=None) -> int:
    # On SIGTERM, unwind through subprocess.run, which kills and reaps the child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    args = _parse(argv)
    if not (ROOT / "src" / "koopnet" / "__init__.py").is_file():
        print(f"no koopnet sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    out = ROOT / ".perfbench_out" / args.workload
    shutil.rmtree(out, ignore_errors=True)
    try:
        sweeps, metrics, info = (_traced if args.trace else _untraced)(args, out)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    problems = [p for r in sweeps for p in r["problems"]]
    labels = ("untraced", "traced") if args.trace else range(len(sweeps))
    for label, r in zip(labels, sweeps):
        print(f"sweep {label}: sweep_s={r['sweep_s']:.4f} setup_s={r['setup_s']:.4f} "
              f"records={r['attempted']} failed={r['failed']} "
              f"csv_sha256={r['csv_sha256']}")
    print("environment:", json.dumps({**sweeps[0]["environment"],
                                      "seed": args.seed}))
    for name, value in {**metrics, **info}.items():
        unit = END_TO_END.get(name) or layer_unit(name)
        print(f"{name} = {value:.6g} {unit}")
    for problem in problems:
        print(f"FAIL: {problem}", file=sys.stderr)

    units = END_TO_END if not args.trace else {n: layer_unit(n) for n in metrics}
    result = {
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in sweeps),
        "failed": sum(r["failed"] for r in sweeps),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    (out / f"result-trace{args.trace}.json").write_text(json.dumps(
        {**result, "environment": sweeps[0]["environment"], "seed": args.seed,
         "sweeps": sweeps, "problems": problems}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
