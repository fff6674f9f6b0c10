"""Config-driven experiment sweeps and their on-disk reports.

Two sweeps are provided: a linearization sweep that scores dictionary
families over a grid of dictionary sizes, and a sampling sweep that runs the
full select/sample/recover pipeline (plus baselines) over sensor budgets.
Every random draw is derived from the config seed through ``SeedSequence``,
so a sweep is reproducible record-for-record; CSV output contains only
deterministic fields and is byte-identical across reruns of the same config.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .baselines import (build_laplacian_basis, gramian_nodes_for_budget,
                        linear_gft_recover_trajectory, linear_gft_select,
                        linear_observable_recover)
from .dynamics import (BIOCHEMICAL, DynamicsParams, default_initial_range,
                       generate_er_graph, random_initial_states,
                       simulate_ensemble)
from .koopman import (assemble_training, build_theta, fit, linearization_nrmse,
                      refine_with_samples)
from .metrics import nrmse
from .observables import IDENTITY, LOG, POLY, identity_spec, log_spec, poly_spec
from .recovery import OptimizerConfig, recover_initial_state, take_samples
from .sampling import SelectionConfig, gamma_map, greedy_select

PROPOSED = "log-koopman"
POLY_GRAMIAN = "poly-gramian"
LINEAR_GFT = "linear-gft"

CSV_COLUMNS = ("experiment", "n", "method", "dictionary_size", "rate",
               "budget", "trial", "seed", "nrmse", "converged", "error")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a sweep needs; see the README for the JSON schema."""

    # dynamics
    dynamics: str = BIOCHEMICAL
    flow_in: float | None = None          # None = conventional rate for the kind
    # topology / data
    n_values: tuple[int, ...] = (20,)
    er_probability: float = 0.5
    seed: int = 0
    training_trajectories: int = 100
    test_trajectories: int = 20
    training_ticks: int = 50
    sampling_ticks: int = 20
    # dictionaries
    scale: float = 500.0
    log_powers: tuple[int, ...] = (1, 2)
    # linearization sweep grid
    include_dmd: bool = True
    log_power_grid: tuple[tuple[int, ...], ...] = ((1,), (1, 2), (1, 2, 3))
    poly_power_grid: tuple[int, ...] = (1, 2)
    # sampling sweep
    sampling_rates: tuple[float, ...] = (0.25, 0.5, 0.75)
    gamma: float | None = None            # None: run every budget to its cap
    selection_rate: float = 0.5           # single-shot selection budget (CLI)
    dictionary: str = "log"               # single-shot fit dictionary (CLI)
    trials: int = 20
    refine_trajectories: int = 50
    baselines: tuple[str, ...] = (POLY_GRAMIAN, LINEAR_GFT)
    workers: int = 1

    def __post_init__(self):
        if self.selection_rate is None:  # null once meant "every node"
            raise ValueError("selection_rate must lie in (0, 1]")
        _check_numbers(self)
        # the dynamics, dictionary and selection constructors hold their own
        # checks
        self.params()
        SelectionConfig(gamma=self.gamma)
        log_spec(1, scale=self.scale, powers=self.log_powers)
        for powers in self.log_power_grid:
            log_spec(1, scale=self.scale, powers=tuple(powers))
        for max_power in self.poly_power_grid:
            poly_spec(1, max_power=max_power)
        if self.dictionary not in (LOG, POLY, IDENTITY):
            raise ValueError(f"unknown dictionary kind {self.dictionary!r}")
        if not self.n_values:
            raise ValueError("need at least one node count")
        if any(n < 1 for n in self.n_values):
            raise ValueError("node counts must be positive")
        if not 0.0 <= self.er_probability <= 1.0:
            raise ValueError("er_probability must lie in [0, 1]")
        if self.training_trajectories < 1 or self.test_trajectories < 1:
            raise ValueError("need at least one training and one test trajectory")
        if self.training_ticks < 2 or self.sampling_ticks < 2:
            raise ValueError("a trajectory needs at least two ticks")
        if not self.sampling_rates:
            raise ValueError("need at least one sampling rate")
        if any(not 0.0 < r <= 1.0 for r in self.sampling_rates):
            raise ValueError("sampling rates must lie in (0, 1]")
        if not 0.0 < self.selection_rate <= 1.0:
            raise ValueError("selection_rate must lie in (0, 1]")
        if self.trials < 1:
            raise ValueError("need at least one trial")
        if self.refine_trajectories < 0:
            raise ValueError("refine_trajectories must be nonnegative")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        for name in self.baselines:
            if name not in (POLY_GRAMIAN, LINEAR_GFT):
                raise ValueError(f"unknown baseline {name!r}")

    def params(self) -> DynamicsParams:
        flow = self.flow_in
        if flow is None:
            flow = 10.0 if self.dynamics == BIOCHEMICAL else 0.0
        return DynamicsParams(kind=self.dynamics, flow_in=flow)

    def optimizer(self, seed: int) -> OptimizerConfig:
        """Recovery solver settings; unsampled nodes start at the midpoint of
        the dynamics' initial-state range."""
        low, high = default_initial_range(self.dynamics)
        return OptimizerConfig(fill_value=0.5 * (low + high), seed=seed)

    def to_dict(self) -> dict:
        """The JSON form: every tuple becomes a list."""
        return json.loads(json.dumps(asdict(self)))

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(d) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**{key: _tuples(value) for key, value in d.items()})

    @classmethod
    def from_json(cls, path: str | Path) -> "ExperimentConfig":
        return cls.from_dict(json.loads(Path(path).read_text()))


def _check_numbers(config: ExperimentConfig) -> None:
    """Reject, naming the field, a bool in any numeric field or entry, a
    value without ``__index__`` (what ``operator.index`` needs; 1.5 has none)
    where an integer belongs, a value that is not ``numbers.Real`` where a
    float belongs and anything but a bool where a bool belongs.  ``None``
    passes only in the fields that take it."""
    values = [(f.name, getattr(config, f.name), f.type) for f in fields(config)]
    values += [(name, v, "int")
               for name in ("n_values", "log_powers", "poly_power_grid")
               for v in getattr(config, name)]
    values += [("log_power_grid", v, "int") for powers in config.log_power_grid
               for v in powers]
    values += [("sampling_rates", v, "float") for v in config.sampling_rates]
    for name, value, kind in values:
        if value is None and kind.endswith(" | None"):
            continue
        kind = kind.removesuffix(" | None")
        if kind == "int" and (isinstance(value, bool)
                              or not hasattr(value, "__index__")):
            raise ValueError(f"{name}: {value!r} is not an integer")
        if kind == "float" and (isinstance(value, bool)
                                or not isinstance(value, numbers.Real)):
            raise ValueError(f"{name}: {value!r} is not a real number")
        if kind == "bool" and not isinstance(value, bool):
            raise ValueError(f"{name}: {value!r} is not a bool")


def _tuples(value):
    """JSON lists back into (nested) tuples; other values pass through."""
    return tuple(map(_tuples, value)) if isinstance(value, list) else value


@dataclass(frozen=True)
class TrialRecord:
    experiment: str
    n: int
    method: str
    dictionary_size: int | None
    rate: float | None
    budget: int | None
    trial: int
    seed: int
    nrmse: float | None
    converged: bool | None
    error: str | None
    # Wall-clock seconds, JSON only.  Work a sampling method shares across
    # its rates (its model fit, greedy selection, the gramian node order) is
    # charged to the first rate's record.
    runtime_s: float | None = None
    # Where a failed record's work raised, JSON only: "setup" (the trial's
    # data), "prepare" (a method's model and the step it runs once per
    # trial) or "solve" (one rate's, or one linearization cell's, work).
    stage: str | None = None

    def sort_key(self):
        return (self.experiment, self.n, self.trial, self.method,
                -1.0 if self.rate is None else self.rate,
                -1 if self.dictionary_size is None else self.dictionary_size)

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class ExperimentReport:
    name: str
    config: dict
    records: tuple[TrialRecord, ...]

    @property
    def aggregates(self) -> list[dict]:
        return aggregate(self.records)


def aggregate(records) -> list[dict]:
    """Mean/min/max N-RMSE per (experiment, n, method, rate, size) group."""
    groups: dict[tuple, list[TrialRecord]] = {}
    for rec in records:
        key = (rec.experiment, rec.n, rec.method, rec.rate, rec.dictionary_size)
        groups.setdefault(key, []).append(rec)
    out = []
    for key in sorted(groups, key=lambda k: tuple(-1 if v is None else v
                                                  for v in k[1:]) + (k[0], k[2])):
        recs = groups[key]
        ok = [r.nrmse for r in recs if r.error is None and r.nrmse is not None]
        out.append({
            "experiment": key[0], "n": key[1], "method": key[2],
            "rate": key[3], "dictionary_size": key[4],
            "trials": len(recs), "failures": sum(r.error is not None for r in recs),
            "mean_nrmse": float(np.mean(ok)) if ok else None,
            "min_nrmse": float(np.min(ok)) if ok else None,
            "max_nrmse": float(np.max(ok)) if ok else None,
        })
    return out


def _child_seed(*parts: int) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def _trial_seeds(config: ExperimentConfig, n: int, *trial: int) -> dict[str, int]:
    """The seeds of one sampling trial, or with no trial index, of the
    linearization sweep at ``n`` (whose test ensemble is drawn from
    ``"truth"``).  The single-shot CLI commands use trial 0's, so
    simulate/fit/select/recover compose with the sweep."""
    return {name: _child_seed(config.seed, n, *trial, phase)
            for phase, name in enumerate(("graph", "train", "truth", "refine",
                                          "opt"), start=1)}


def _trial_data(config: ExperimentConfig, n: int, seeds: dict[str, int],
                truths: int, ticks: int):
    """The graph, training ensemble and ``truths`` held-out trajectories of
    ``ticks`` ticks that one set of ``_trial_seeds`` draws."""
    params = config.params()
    low, high = default_initial_range(params.kind)
    graph = generate_er_graph(n, config.er_probability, seeds["graph"])
    train_x1 = random_initial_states(n, config.training_trajectories, low, high,
                                     seeds["train"])
    train_trajs = simulate_ensemble(graph, params, train_x1,
                                    config.training_ticks)
    truth_x1 = random_initial_states(n, truths, low, high, seeds["truth"])
    return graph, train_trajs, simulate_ensemble(graph, params, truth_x1, ticks)


def _budget(rate: float, n: int) -> int:
    return min(n, max(1, math.ceil(rate * n)))


def _failed(experiment: str, n: int, method: str, size: int | None,
            rate: float | None, trial: int, seed: int, exc: Exception,
            stage: str, runtime_s: float | None = None) -> TrialRecord:
    """The record of a cell whose work raised ``exc`` in ``stage``."""
    budget = None if rate is None else _budget(rate, n)
    return TrialRecord(experiment, n, method, size, rate, budget, trial, seed,
                       None, None, f"{type(exc).__name__}: {exc}", runtime_s,
                       stage)


# ---------------------------------------------------------------------------
# Linearization sweep

def _linearization_cells(config: ExperimentConfig, n: int):
    cells = []
    if config.include_dmd:
        cells.append(("dmd", identity_spec(n)))
    for powers in config.log_power_grid:
        cells.append(("log", log_spec(n, scale=config.scale, powers=tuple(powers))))
    for max_power in config.poly_power_grid:
        cells.append(("poly", poly_spec(n, max_power=max_power)))
    return cells


def _run_linearization_cell(config, n, train_trajs, test_trajs, method, spec,
                            seed) -> TrialRecord:
    start = time.perf_counter()
    try:
        training = assemble_training(train_trajs, spec)
        model = fit(training)
        err = linearization_nrmse(model, test_trajs)
        return TrialRecord("linearization", n, method, spec.size, None, None,
                           0, seed, err, True, None,
                           time.perf_counter() - start)
    except Exception as exc:  # per-cell failures must not kill the sweep
        return _failed("linearization", n, method, spec.size, None, 0, seed,
                       exc, "solve", time.perf_counter() - start)


def _linearization_for_n(config: ExperimentConfig, n: int) -> list[TrialRecord]:
    cells = _linearization_cells(config, n)
    seeds = _trial_seeds(config, n)
    test_seed = seeds["truth"]
    try:
        _, train_trajs, test_trajs = _trial_data(config, n, seeds,
                                                 config.test_trajectories,
                                                 config.training_ticks)
    except Exception as exc:  # e.g. divergence while generating the data
        return [_failed("linearization", n, method, spec.size, None, 0,
                        test_seed, exc, "setup")
                for method, spec in cells]
    return [_run_linearization_cell(config, n, train_trajs, test_trajs,
                                    method, spec, test_seed)
            for method, spec in cells]


def run_linearization_sweep(config: ExperimentConfig) -> ExperimentReport:
    """Held-out rollout N-RMSE for each dictionary over its size grid."""
    records = _map_work(config, _linearization_for_n,
                        [(config, n) for n in config.n_values])
    return ExperimentReport(name="linearization", config=config.to_dict(),
                            records=tuple(sorted(records,
                                                 key=TrialRecord.sort_key)))


# ---------------------------------------------------------------------------
# Sampling-rate sweep

def _sampling_trial(config: ExperimentConfig, n: int, trial: int) -> list[TrialRecord]:
    seeds = _trial_seeds(config, n, trial)
    methods = [m for m in _METHODS if m == PROPOSED or m in config.baselines]
    try:
        graph, train_trajs, (truth,) = _trial_data(config, n, seeds, 1,
                                                   config.sampling_ticks)
    except Exception as exc:  # e.g. divergence while simulating the data
        return [_failed("sampling", n, method, None, rate, trial,
                        seeds["truth"], exc, "setup")
                for method in methods for rate in config.sampling_rates]
    return [rec for method in methods for rec in _rate_records(
        config, n, trial, seeds["truth"], truth, method,
        *_METHODS[method](config, n, seeds, graph, train_trajs, truth))]


def _rate_records(config: ExperimentConfig, n: int, trial: int, seed: int,
                  truth, method: str, size: int | None, prepare,
                  solve) -> list[TrialRecord]:
    """One method's records, one per sampling rate, from the
    ``(size, prepare, solve)`` that ``_METHODS[method]`` builds.

    ``prepare(max_budget)`` builds the method's model and runs its
    once-per-trial step at the largest budget of the sweep, and its result
    serves every rate: ``solve(shared, budget)`` returns that rate's
    ``(trajectory, converged)``, scored here against ``truth``.  Should
    ``prepare`` raise, every rate records its error at stage ``"prepare"``.
    Its time is charged to the first rate's record.
    """
    budgets = [_budget(rate, n) for rate in config.sampling_rates]
    start = time.perf_counter()
    try:
        shared = prepare(max(budgets))
    except Exception as exc:
        return [_failed("sampling", n, method, size, rate, trial, seed, exc,
                        "prepare",
                        time.perf_counter() - start if i == 0 else 0.0)
                for i, rate in enumerate(config.sampling_rates)]
    records = []
    for rate, budget in zip(config.sampling_rates, budgets):
        try:
            x_hat, converged = solve(shared, budget)
            records.append(TrialRecord("sampling", n, method, size, rate,
                                       budget, trial, seed,
                                       nrmse(x_hat, truth.states), converged,
                                       None, time.perf_counter() - start))
        except Exception as exc:
            records.append(_failed("sampling", n, method, size, rate, trial,
                                   seed, exc, "solve",
                                   time.perf_counter() - start))
        start = time.perf_counter()
    return records


def _log_koopman(config, n, seeds, graph, train_trajs, truth):
    params = config.params()
    tau = config.sampling_ticks
    spec = log_spec(n, scale=config.scale, powers=config.log_powers)
    opt = config.optimizer(seeds["opt"])

    def prepare(max_budget):
        training = assemble_training(train_trajs, spec)
        model = fit(training)
        theta = build_theta(model, tau)
        # greedy picks never depend on the budget, which only stops the loop
        # (and so does gamma): each rate's set is a prefix of this one
        order = greedy_select(theta, spec,
                              SelectionConfig(gamma=config.gamma,
                                              max_nodes=max_budget)).nodes
        return training, model, theta, order

    def solve(shared, budget):
        training, model, theta, order = shared
        plan = gamma_map(order[:budget], spec, tau)
        samples = take_samples(truth, spec, plan)
        if config.refine_trajectories > 0:
            refined, _ = refine_with_samples(
                model, training, plan.nodes,
                truth.states[list(plan.nodes), 0], graph, params, tau,
                config.refine_trajectories, seed=seeds["refine"])
            theta = build_theta(refined, tau)
        result = recover_initial_state(samples, theta, spec, opt)
        return result.trajectory, result.converged

    return spec.size, prepare, solve


def _poly_gramian(config, n, seeds, graph, train_trajs, truth):
    tau = config.sampling_ticks
    spec = poly_spec(n)

    def prepare(max_budget):
        model = fit(assemble_training(train_trajs, spec))
        # smaller budgets stop the same picking loop earlier: each a prefix
        return model, gramian_nodes_for_budget(model, max_budget)

    def solve(shared, budget):
        model, order = shared
        plan = gamma_map(order[:budget], spec, tau)
        samples = take_samples(truth, spec, plan)
        trajectory, _ = linear_observable_recover(samples, model, spec)
        return trajectory, True

    return spec.size, prepare, solve


def _linear_gft(config, n, seeds, graph, train_trajs, truth):
    def solve(_, budget):
        basis = build_laplacian_basis(graph, budget)
        nodes, reached = linear_gft_select(basis, budget)
        return linear_gft_recover_trajectory(nodes, basis,
                                             truth.states[list(nodes)]), reached

    return None, lambda max_budget: None, solve


_METHODS = {PROPOSED: _log_koopman, POLY_GRAMIAN: _poly_gramian,
            LINEAR_GFT: _linear_gft}


def run_sampling_sweep(config: ExperimentConfig) -> ExperimentReport:
    """Full pipeline (select, sample, recover) per trial and sensor budget."""
    items = [(config, n, trial) for n in config.n_values
             for trial in range(config.trials)]
    records = _map_work(config, _sampling_trial, items)
    return ExperimentReport(name="sampling", config=config.to_dict(),
                            records=tuple(sorted(records,
                                                 key=TrialRecord.sort_key)))


def _map_work(config, fn, items) -> list[TrialRecord]:
    if config.workers > 1:
        with ThreadPoolExecutor(max_workers=config.workers) as pool:
            chunks = list(pool.map(lambda args: fn(*args), items))
    else:
        chunks = [fn(*args) for args in items]
    return [rec for chunk in chunks for rec in chunk]


# ---------------------------------------------------------------------------
# Emission

def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def emit(report: ExperimentReport, out_dir: str | Path,
         formats: tuple[str, ...] = ("csv", "json")) -> list[Path]:
    """Write the report; CSV carries only deterministic per-record fields
    (wall-clock runtimes live in the JSON document)."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for fmt in formats:
        if fmt == "csv":
            path = out_dir / f"{report.name}_report.csv"
            with path.open("w", newline="") as fh:
                writer = csv.writer(fh, lineterminator="\n")
                writer.writerow(CSV_COLUMNS)
                for rec in report.records:
                    d = rec.to_dict()
                    writer.writerow([_csv_cell(d[col]) for col in CSV_COLUMNS])
        elif fmt == "json":
            path = out_dir / f"{report.name}_report.json"
            payload = {
                "name": report.name,
                "config": report.config,
                "records": [rec.to_dict() for rec in report.records],
                "aggregates": report.aggregates,
            }
            path.write_text(json.dumps(payload, indent=1))
        else:
            raise ValueError(f"unknown format {fmt!r}")
        written.append(path)
    return written


def report_from_json(path: str | Path) -> ExperimentReport:
    payload = json.loads(Path(path).read_text())
    records = tuple(TrialRecord(**rec) for rec in payload["records"])
    return ExperimentReport(name=payload["name"], config=payload["config"],
                            records=records)
