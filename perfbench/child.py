"""One benchmark child: set up, run one koopnet sweep, emit it, check it.

``run.py`` starts this script with the BLAS thread variables already pinned in
its environment and ``src`` on ``PYTHONPATH``.  The child prints one JSON line:
its set-up end time on the system-wide monotonic clock, the sweep figures,
the output checks, and, when traced, the per-layer figures.  Any failure to
set up or to run exits non-zero without that line.

    python3 perfbench/child.py --workload bio-n20 --config-seed 0 \
        --out .perfbench_out/bio-n20/0 [--trace]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import sys
import time
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
ROOT = Path(__file__).resolve().parent.parent

# Method whose mean N-RMSE is the workload's quality figure, per sweep kind.
PROPOSED = {"sampling": "log-koopman", "linearization": "log"}


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--config-seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--trace", action="store_true")
    return p.parse_args(argv)


def environment(np) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        **{var: os.environ.get(var) for var in THREAD_VARS},
    }


def _mean_nrmse(records, method) -> float:
    values = [r.nrmse for r in records
              if r.method == method and r.error is None and r.nrmse is not None]
    return sum(values) / len(values) if values else 0.0


def _expected_records(config, sweep) -> int:
    n = len(config.n_values)
    if sweep == "sampling":
        return (n * config.trials * len(config.sampling_rates)
                * (1 + len(config.baselines)))
    return n * (int(config.include_dmd) + len(config.log_power_grid)
                + len(config.poly_power_grid))


def main(argv=None) -> int:
    args = _parse(argv)
    unpinned = [v for v in THREAD_VARS if os.environ.get(v) != "1"]
    if unpinned:
        raise SystemExit(f"BLAS thread variables not pinned to 1: {unpinned}")

    import numpy as np
    import koopnet
    from koopnet import experiments

    src = ROOT / "src"
    if Path(koopnet.__file__).resolve().parent != src / "koopnet":
        raise SystemExit(f"koopnet imported from {koopnet.__file__}, "
                         f"not from {src}")
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    config = experiments.ExperimentConfig(seed=args.config_seed, trials=1,
                                          workers=1, **workload.config)
    runner = getattr(experiments, f"run_{workload.sweep}_sweep")
    # Warm up the BLAS and LAPACK entry points every sweep uses.
    warm = np.linalg.qr(np.arange(1.0, 65.0).reshape(8, 8) + np.eye(8))[1]
    np.linalg.svd(warm @ warm.T)
    np.linalg.eig(warm)
    np.linalg.lstsq(warm, np.ones(8), rcond=None)
    result = {"setup_end": time.monotonic()}

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    if args.trace:
        from spans import Tracer
        with Tracer() as tracer:
            report = tracer.call(f"experiments.run_{workload.sweep}_sweep",
                                 runner, config)
            paths = tracer.call("experiments.emit", experiments.emit,
                                report, out)
    else:
        report = runner(config)
        paths = experiments.emit(report, out)
    sweep_s = time.perf_counter() - start

    records = report.records
    csv_path = next(p for p in paths if p.suffix == ".csv")
    csv_bytes = csv_path.read_bytes()
    expected = _expected_records(config, workload.sweep)
    proposed = _mean_nrmse(records, PROPOSED[workload.sweep])
    problems = []
    if len(records) != expected:
        problems.append(f"{len(records)} records, expected {expected}")
    if csv_bytes.count(b"\n") != expected + 1:
        problems.append("CSV row count differs from the record count")
    if not (math.isfinite(proposed) and proposed > 0.0):
        problems.append(f"no finite N-RMSE for {PROPOSED[workload.sweep]}")
    result.update({
        "sweep_s": sweep_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": len(records),
        "failed": sum(r.error is not None for r in records),
        "csv_sha256": hashlib.sha256(csv_bytes).hexdigest(),
        "nrmse.log-koopman": _mean_nrmse(records, "log-koopman"),
        "nrmse.log": _mean_nrmse(records, "log"),
        "baselines.poly-gramian.nrmse": _mean_nrmse(records, "poly-gramian"),
        "environment": environment(np),
    })
    if args.trace:
        missing = tracer.missing(workload.expected_spans)
        if missing:
            problems.append(f"expected spans never fired: {missing}")
        tracer.write_spans(out / "spans.csv")
        result["layers"] = tracer.layer_metrics()
    result["problems"] = problems
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
