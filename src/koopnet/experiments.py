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
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
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
from .observables import (build_spec, check_fields, identity_spec,
                          lift_jacobian, log_spec, poly_spec)
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
    dictionary: str = "log"               # single-shot fit dictionary (CLI)
    trials: int = 20
    refine_trajectories: int = 50
    baselines: tuple[str, ...] = (POLY_GRAMIAN, LINEAR_GFT)
    workers: int = 1

    def __post_init__(self):
        check_fields(vars(self), type(self), "config")
        # a repeated entry would run its cells again and count as more trials
        for name in ("n_values", "sampling_rates", "log_power_grid",
                     "poly_power_grid"):
            entries = [list(v) if isinstance(v, (list, tuple)) else v
                       for v in getattr(self, name)]
            twice = [v for i, v in enumerate(entries) if v in entries[:i]]
            if twice:
                raise ValueError(f"{name}: {twice[0]!r} is listed twice")
        # the dynamics, dictionary and selection constructors check the rest
        self.params()
        SelectionConfig(gamma=self.gamma)
        log_spec(1, scale=self.scale, powers=self.log_powers)
        for powers in self.log_power_grid:
            log_spec(1, scale=self.scale, powers=tuple(powers))
        for max_power in self.poly_power_grid:
            poly_spec(1, max_power=max_power)
        build_spec(self.dictionary, 1)
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

    def optimizer(self) -> OptimizerConfig:
        """Recovery solver settings; unsampled nodes start at the midpoint of
        the dynamics' initial-state range."""
        low, high = default_initial_range(self.dynamics)
        return OptimizerConfig(fill_value=0.5 * (low + high))

    def to_dict(self) -> dict:
        """The JSON form: every tuple becomes a list."""
        return json.loads(json.dumps(asdict(self)))

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        check_fields(d, cls, "config", strict=True)
        return cls(**{key: _tuples(value) for key, value in d.items()})

    @classmethod
    def from_json(cls, path: str | Path) -> "ExperimentConfig":
        return cls.from_dict(json.loads(Path(path).read_text()))


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
    simulate/fit/select draw the sweep's data.  The ``k``-th phase's seed
    derives from ``(config.seed, n, *trial, k)``."""
    return {name: _child_seed(config.seed, n, *trial, phase)
            for phase, name in enumerate(("graph", "train", "truth", "refine"),
                                         start=1)}


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


def _budget(rate: float | None, n: int) -> int | None:
    # less 1e-9: a product rounded just above an integer (0.28 * 25 reads
    # 7.000000000000001) must not buy one sensor more
    return None if rate is None else min(n, max(1, math.ceil(rate * n - 1e-9)))


def _failed(experiment: str, n: int, method: str, size: int | None,
            rate: float | None, trial: int, seed: int, exc: Exception,
            stage: str, runtime_s: float | None = None) -> TrialRecord:
    """The record of a cell whose work raised ``exc`` in ``stage``."""
    return TrialRecord(experiment, n, method, size, rate, _budget(rate, n),
                       trial, seed, None, None, f"{type(exc).__name__}: {exc}",
                       runtime_s, stage)


def _trial(experiment: str, config: ExperimentConfig, n: int, trial: int,
           seeds, rates, cells, truths: int, ticks: int) -> list[TrialRecord]:
    """Every record of one trial of either sweep.  Its data, with ``truths``
    held-out trajectories of ``ticks`` ticks, is drawn from ``seeds`` once
    for all ``(method, spec, build)`` cells; should the draw raise, every
    rate of every cell records it at stage "setup", with the cell's size."""
    try:
        graph, train, held_out = _trial_data(config, n, seeds, truths, ticks)
    except Exception as exc:  # e.g. divergence while simulating the data
        return [_failed(experiment, n, method, spec and spec.size, rate,
                        trial, seeds["truth"], exc, "setup")
                for method, spec, _ in cells for rate in rates]
    return [rec for method, spec, build in cells for rec in _rate_records(
        experiment, n, trial, seeds["truth"], rates, method, spec and spec.size,
        *build(config, seeds, spec, graph, train, *held_out))]


# ---------------------------------------------------------------------------
# Linearization sweep

def _linearization_cell(config, seeds, spec, graph, train_trajs, *test_trajs):
    """A dictionary as a method without a shared step: ``solve`` fits it."""
    def solve(_, budget):
        model = fit(assemble_training(train_trajs, spec))
        return linearization_nrmse(model, test_trajs), True, budget

    return lambda max_budget: None, solve


def _linearization_for_n(config: ExperimentConfig, n: int) -> list[TrialRecord]:
    specs = (([("dmd", identity_spec(n))] if config.include_dmd else [])
             + [("log", log_spec(n, scale=config.scale, powers=tuple(powers)))
                for powers in config.log_power_grid]
             + [("poly", poly_spec(n, max_power=max_power))
                for max_power in config.poly_power_grid])
    return _trial("linearization", config, n, 0, _trial_seeds(config, n), (None,),
                  [(method, spec, _linearization_cell) for method, spec in specs],
                  config.test_trajectories, config.training_ticks)


def run_linearization_sweep(config: ExperimentConfig) -> ExperimentReport:
    """Held-out rollout N-RMSE for each dictionary over its size grid."""
    return _run("linearization", config, _linearization_for_n,
                [(config, n) for n in config.n_values])


# ---------------------------------------------------------------------------
# Sampling-rate sweep

def _sampling_trial(config: ExperimentConfig, n: int, trial: int) -> list[TrialRecord]:
    # the proposed method's dictionary comes from the config, the poly
    # baseline's takes its default power, the graph basis has none
    cells = [(PROPOSED, log_spec(n, scale=config.scale,
                                 powers=config.log_powers), _log_koopman)]
    if POLY_GRAMIAN in config.baselines:
        cells.append((POLY_GRAMIAN, poly_spec(n), _poly_gramian))
    if LINEAR_GFT in config.baselines:
        cells.append((LINEAR_GFT, None, _linear_gft))
    return _trial("sampling", config, n, trial, _trial_seeds(config, n, trial),
                  config.sampling_rates, cells, 1, config.sampling_ticks)


def _rate_records(experiment: str, n: int, trial: int, seed: int, rates,
                  method: str, size: int | None, prepare,
                  solve) -> list[TrialRecord]:
    """One cell's records, one per rate, from the ``(prepare, solve)`` that
    its ``build(config, seeds, spec, graph, train_trajs, *truth_trajs)``
    returns: every record of both sweeps past the trial's data is made here.

    ``prepare(max_budget)`` builds the method's model and runs its
    once-per-trial step at the largest budget; its result serves every rate,
    and ``solve(shared, budget)`` returns that rate's ``(nrmse, converged,
    nodes)``, ``nodes`` the count its plan holds, which the record keeps as
    its budget: fewer than the cap when ``gamma`` stopped selection early.
    A linearization cell has the one rate ``None``, no budget and no shared
    step.  Should ``prepare`` raise, every rate records its error at stage
    ``"prepare"``.  Its time is charged to the first rate's record.
    """
    budgets = [_budget(rate, n) for rate in rates]
    start = time.perf_counter()
    try:
        shared = prepare(max(budgets))
    except Exception as exc:
        return [_failed(experiment, n, method, size, rate, trial, seed, exc,
                        "prepare", 0.0 if i else time.perf_counter() - start)
                for i, rate in enumerate(rates)]
    records = []
    for rate, budget in zip(rates, budgets):
        try:  # a failed rate or cell must not kill the sweep
            err, converged, nodes = solve(shared, budget)
            records.append(TrialRecord(experiment, n, method, size, rate,
                                       nodes, trial, seed, err, converged,
                                       None, time.perf_counter() - start))
        except Exception as exc:
            records.append(_failed(experiment, n, method, size, rate, trial,
                                   seed, exc, "solve",
                                   time.perf_counter() - start))
        start = time.perf_counter()
    return records


def _log_koopman(config, seeds, spec, graph, train_trajs, truth):
    params = config.params()
    tau = config.sampling_ticks
    opt = config.optimizer()

    def prepare(max_budget):
        training = assemble_training(train_trajs, spec)
        model = fit(training)
        # greedy picks never depend on the budget, which only stops the loop
        # (and so does gamma): each rate's set is a prefix of this one
        return training, model, _select(model, config, max_budget).nodes

    def solve(shared, budget):
        training, model, order = shared
        plan = gamma_map(order[:budget], spec, tau)
        samples = take_samples(truth, plan)
        if config.refine_trajectories > 0:
            model, _ = refine_with_samples(
                training, plan.nodes, truth.states[list(plan.nodes), 0],
                graph, params, tau, config.refine_trajectories,
                seed=seeds["refine"])
        # by keyword: the benchmark's tracer reads ``config`` by name
        result = recover_initial_state(samples, model, config=opt)
        return (nrmse(result.trajectory, truth.states), result.converged,
                len(plan.nodes))

    return prepare, solve


def _select(model, config: ExperimentConfig, max_nodes: int):
    """The proposed method's greedy pass to ``max_nodes`` sensors, once per
    sweep trial and in ``koopnet select``, on K**t J rolled out of J at the
    recovery's fill value, the matrix ``verify_rank`` reads.  It calls
    ``build_theta`` and ``greedy_select`` through this module's names, which
    the benchmark's tracer wraps."""
    spec = model.spec
    jac = lift_jacobian(spec, np.full(spec.n, config.optimizer().fill_value))
    return greedy_select(build_theta(model, config.sampling_ticks, jac), spec,
                         SelectionConfig(gamma=config.gamma, max_nodes=max_nodes))


def _poly_gramian(config, seeds, spec, graph, train_trajs, truth):
    tau = config.sampling_ticks

    def prepare(max_budget):
        model = fit(assemble_training(train_trajs, spec))
        # smaller budgets stop the same picking loop earlier: each a prefix
        return model, gramian_nodes_for_budget(model, max_budget)

    def solve(shared, budget):
        model, order = shared
        plan = gamma_map(order[:budget], spec, tau)
        trajectory, _ = linear_observable_recover(take_samples(truth, plan),
                                                  model)
        return nrmse(trajectory, truth.states), True, len(plan.nodes)

    return prepare, solve


def _linear_gft(config, seeds, spec, graph, train_trajs, truth):
    def solve(_, budget):
        basis = build_laplacian_basis(graph, budget)
        nodes, reached = linear_gft_select(basis, budget)
        x_hat = linear_gft_recover_trajectory(nodes, basis,
                                              truth.states[list(nodes)])
        return nrmse(x_hat, truth.states), reached, len(nodes)

    return lambda max_budget: None, solve


def run_sampling_sweep(config: ExperimentConfig) -> ExperimentReport:
    """Full pipeline (select, sample, recover) per trial and sensor budget."""
    return _run("sampling", config, _sampling_trial,
                [(config, n, trial) for n in config.n_values
                 for trial in range(config.trials)])


def _run(name: str, config: ExperimentConfig, fn, items) -> ExperimentReport:
    """Every ``fn(*item)``'s records, on ``config.workers`` threads, sorted."""
    if config.workers > 1:
        with ThreadPoolExecutor(max_workers=config.workers) as pool:
            chunks = list(pool.map(lambda args: fn(*args), items))
    else:
        chunks = [fn(*args) for args in items]
    records = sorted((rec for chunk in chunks for rec in chunk),
                     key=TrialRecord.sort_key)
    return ExperimentReport(name=name, config=config.to_dict(),
                            records=tuple(records))


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


def emit(report: ExperimentReport, out_dir: str | Path) -> list[Path]:
    """Write the report's CSV and then its JSON document, and return
    ``[csv_path, json_path]``.  The CSV carries only deterministic
    per-record fields (wall-clock runtimes live in the JSON document)."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"{report.name}_report.csv"
    with csv_path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for rec in report.records:
            d = rec.to_dict()
            writer.writerow([_csv_cell(d[col]) for col in CSV_COLUMNS])
    json_path = out_dir / f"{report.name}_report.json"
    payload = {"name": report.name, "config": report.config,
               "records": [rec.to_dict() for rec in report.records],
               "aggregates": report.aggregates}
    json_path.write_text(json.dumps(payload, indent=1))
    return [csv_path, json_path]


def report_from_json(path: str | Path) -> ExperimentReport:
    """Load a report; a record's N-RMSE may be non-finite (a diverged cell)."""
    payload = json.loads(Path(path).read_text())
    check_fields(payload, ExperimentReport, "report")
    for rec in payload["records"]:
        check_fields(rec, TrialRecord, "record", strict=True, finite=False)
    records = tuple(TrialRecord(**rec) for rec in payload["records"])
    return ExperimentReport(name=payload["name"], config=payload["config"],
                            records=records)
