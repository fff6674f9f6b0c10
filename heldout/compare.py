"""Held-out paired comparison of two koopnet checkouts, beside a noise band.

A change that moves sweep values is judged on instances other than those
the acceptance criteria check (config seed 0), trial by trial, against the
parent's own sensitivity to rounding.  For each checkout this script starts one child
process with ``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` and
``MKL_NUM_THREADS`` set to 1 and ``PYTHONPATH=<checkout>/src``.  The child
runs the biochemical (25/50/75%) and regulatory (50%) sampling sweeps at
n = 20 with ``baselines=()``, on config seed ``--seed``.  The parent's child
then runs both sweeps once more with every Koopman operator, fitted or
refit, perturbed to ``K * (1 + eps * N(0, 1))`` entrywise, eps = 1e-10, from
a seeded generator: ``koopman.KoopmanModel``, which builds each of them, is
wrapped from outside.

Per cell it prints one markdown table row: both means, the median per-trial
relative change and the trials better and worse by more than 1%; then the
same figures for the parent's own shift under the perturbation, with its
largest shift.  That shift is the noise band: a change whose moves are no
larger cannot be told from a rounding difference.  A last
line says whether every cell's median change lies within 5% (a nan median,
from a cell with no trial finished on both sides, counts as outside).

    python3 heldout/compare.py --parent ../koopnet-parent --change . --seed 1
    python3 heldout/compare.py --parent DIR --change DIR --seed S --trials 4

Run it from any directory; the two checkouts may be the same.  With 20
trials both children take about a minute on two cores.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# (dynamics, rates) of the two acceptance sweeps, at n = 20
SWEEPS = (("biochemical", (0.25, 0.5, 0.75)), ("regulatory", (0.5,)))
EPSILON = 1e-10
MOVE = 0.01            # a trial is better or worse when it moves by more
BAND = 0.05            # the adoption rule's bound on a cell's median change


def cell_name(dynamics: str, rate: float) -> str:
    return f"{dynamics[:3]} {round(100 * rate)}%"


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", type=Path)
    p.add_argument("--change", type=Path)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--perturb", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not args.child and (args.parent is None or args.change is None):
        p.error("--parent and --change are required")
    if args.trials < 1:
        p.error("--trials must be at least 1")
    return args


# ---------------------------------------------------------------------------
# Child: one checkout's sweeps, printed as one JSON object

def _sweeps(seed: int, trials: int) -> dict[str, list[float | None]]:
    """Each cell's N-RMSE per trial, None where the record failed."""
    from koopnet import ExperimentConfig, run_sampling_sweep

    cells: dict[str, list[float | None]] = {}
    for dynamics, rates in SWEEPS:
        report = run_sampling_sweep(ExperimentConfig(
            dynamics=dynamics, n_values=(20,), seed=seed, trials=trials,
            sampling_rates=rates, baselines=()))
        for rec in report.records:
            values = cells.setdefault(cell_name(dynamics, rec.rate),
                                      [None] * trials)
            values[rec.trial] = None if rec.error else rec.nrmse
    return cells


def _perturbing_fit(fit, rng):
    """``fit``, or any callable returning a model, whose operator comes back
    multiplied by 1 + eps * N(0, 1)."""
    def perturbed(*args, **kwargs):
        model = fit(*args, **kwargs)
        k = model.operator
        return dataclasses.replace(
            model, operator=k * (1.0 + EPSILON * rng.standard_normal(k.shape)))

    return perturbed


@contextlib.contextmanager
def perturbed_operators(seed: int):
    """Within the block, every operator koopman builds is perturbed.

    Fits and refits both build their model by calling ``KoopmanModel`` from
    koopman's globals, so wrapping that one name reaches both, whether or
    not a refit goes through ``fit``.
    """
    import numpy as np
    from koopnet import koopman

    model_class = koopman.KoopmanModel
    koopman.KoopmanModel = _perturbing_fit(model_class,
                                           np.random.default_rng(seed))
    try:
        yield
    finally:
        koopman.KoopmanModel = model_class


def child(seed: int, trials: int, perturb: bool) -> dict:
    out = {"plain": _sweeps(seed, trials)}
    if perturb:
        with perturbed_operators(seed):
            out["perturbed"] = _sweeps(seed, trials)
    return out


# ---------------------------------------------------------------------------
# Parent: start both children, compare cell by cell

def _start(checkout: Path, seed: int, trials: int, perturb: bool):
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS},
               PYTHONPATH=str(checkout.resolve() / "src"))
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child",
           "--seed", str(seed), "--trials", str(trials)]
    return subprocess.Popen(cmd + ["--perturb"] * perturb, env=env,
                            stdout=subprocess.PIPE, text=True)


def _finish(proc, checkout: Path) -> dict:
    out, _ = proc.communicate()
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: child exited with {proc.returncode}")
    return json.loads(out)


def _mean(values) -> float:
    ok = [v for v in values if v is not None]
    return sum(ok) / len(ok) if ok else math.nan


def _moves(new, old) -> dict:
    """Per-trial relative moves (new - old) / old, over the trials both
    sides finished: their median, largest size, and how many are better
    and worse by more than ``MOVE``."""
    rel = [(b - a) / a for a, b in zip(old, new)
           if a is not None and b is not None and a > 0]
    return {"median": statistics.median(rel) if rel else math.nan,
            "largest": max(map(abs, rel), default=math.nan),
            "better": sum(m < -MOVE for m in rel),
            "worse": sum(m > MOVE for m in rel)}


def compare(parent: dict, change: dict) -> list[dict]:
    """One summary per cell of the parent's plain run: the change's moves
    and, as the noise band, the parent's moves under the perturbation."""
    rows = []
    for cell, old in parent["plain"].items():
        new = change["plain"][cell]
        rows.append({"cell": cell, "parent": _mean(old), "change": _mean(new),
                     "trials": len(old),
                     "failed": sum(v is None for v in old + new),
                     "move": _moves(new, old),
                     "noise": _moves(parent["perturbed"][cell], old)})
    return rows


def table(rows: list[dict]) -> list[str]:
    lines = ["| cell | parent mean | change mean | median change "
             "| better / worse > 1% | parent at eps: median shift "
             "| better / worse > 1% | largest shift |",
             "|---|---|---|---|---|---|---|---|"]
    for r in rows:
        move, noise = r["move"], r["noise"]
        lines.append(
            f"| {r['cell']} | {r['parent']:.4f} | {r['change']:.4f} "
            f"| {move['median']:+.1%} | {move['better']} / {move['worse']} "
            f"| {noise['median']:+.1%} | {noise['better']} / {noise['worse']} "
            f"| {100 * noise['largest']:.2g}% |")
    failed = sum(r["failed"] for r in rows)
    if failed:
        lines.append(f"failed records (left out of every figure): {failed}")
    inside = all(abs(r["move"]["median"]) <= BAND for r in rows)
    lines.append(f"median change within ±{BAND:.0%} in every cell: "
                 f"{'yes' if inside else 'no'}")
    return lines


def main(argv=None) -> int:
    args = _parse(argv)
    if args.child:
        print(json.dumps(child(args.seed, args.trials, args.perturb)))
        return 0
    procs = [(_start(args.parent, args.seed, args.trials, True), args.parent),
             (_start(args.change, args.seed, args.trials, False), args.change)]
    try:
        parent, change = [_finish(proc, path) for proc, path in procs]
    finally:  # a failed child must not leave the other running
        for proc, _ in procs:
            if proc.poll() is None:
                proc.kill()
    print(f"held-out comparison: config seed {args.seed}, trials "
          f"{args.trials}, n = 20, eps = {EPSILON:g}")
    print("\n".join(table(compare(parent, change))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
