"""Command-line front end.

Subcommands mirror the pipeline stages: ``simulate`` writes one ground-truth
trajectory, ``fit`` trains an operator, ``select`` picks sensor nodes,
``recover`` reconstructs a trajectory from samples, and the two ``sweep-*``
commands run the batch experiments.  Every command reads a JSON config (see
the README schema); ``--seed`` overrides the config seed wherever the output
depends on it, and a sweep writes both its CSV and its JSON report.
Failures exit nonzero after printing a one-line JSON error object to stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from . import __version__
from .dynamics import trajectory_from_csv, trajectory_to_csv
from .experiments import (ExperimentConfig, _budget, _select, _trial_data,
                          _trial_seeds, emit, run_linearization_sweep,
                          run_sampling_sweep)
from .koopman import assemble_training, fit, load_model, save_model
from .metrics import nrmse
from .observables import build_spec
from .recovery import recover_initial_state, save_result, take_samples
from .sampling import load_plan, save_plan


def _load_config(args) -> ExperimentConfig:
    config = ExperimentConfig.from_json(args.config)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    return config


def _out_dir(args) -> Path:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _trial_0(config: ExperimentConfig):
    """The sweep's first trial at the first node count: graph, training
    ensemble and ground truth."""
    n = config.n_values[0]
    graph, trajectories, (truth,) = _trial_data(
        config, n, _trial_seeds(config, n, 0), 1, config.sampling_ticks)
    return graph, trajectories, truth


def _cmd_simulate(args) -> int:
    config = _load_config(args)
    out = _out_dir(args)
    _, _, truth = _trial_0(config)
    print(f"wrote {trajectory_to_csv(truth, out / 'trajectory.csv')}")
    return 0


def _cmd_fit(args) -> int:
    config = _load_config(args)
    out = _out_dir(args)
    _, trajectories, _ = _trial_0(config)
    spec = build_spec(config.dictionary, config.n_values[0], scale=config.scale,
                      powers=config.log_powers)
    model = fit(assemble_training(trajectories, spec))
    path = save_model(model, out / "model.json")
    print(f"wrote {path} (dictionary size {model.size}, "
          f"training residual {model.residual:.3e})")
    return 0


def _cmd_select(args) -> int:
    config = ExperimentConfig.from_json(args.config)
    out = _out_dir(args)
    model = load_model(args.model)
    plan = _select(model, config,
                   _budget(max(config.sampling_rates), model.spec.n))
    path = save_plan(plan, out / "plan.json")
    print(f"wrote {path} (nodes {list(plan.nodes)}, score {plan.score:.6g})")
    return 0


def _cmd_recover(args) -> int:
    config = _load_config(args)
    out = _out_dir(args)
    model = load_model(args.model)
    plan = load_plan(args.plan)
    trajectory = trajectory_from_csv(args.trajectory)
    samples = take_samples(trajectory, plan)
    result = recover_initial_state(samples, model, config.optimizer())
    path = save_result(result, out / "recovery.json", truth=trajectory.states)
    print(f"wrote {path} (N-RMSE "
          f"{nrmse(result.trajectory, trajectory.states):.6g}, "
          f"converged {result.converged})")
    return 0


def _cmd_sweep(runner):
    def command(args) -> int:
        config = _load_config(args)
        out = _out_dir(args)
        report = runner(config)
        paths = emit(report, out)
        failures = sum(rec.error is not None for rec in report.records)
        print(f"wrote {', '.join(str(p) for p in paths)} "
              f"({len(report.records)} records, {failures} failures)")
        return 0

    return command


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="koopnet",
        description="Koopman linearization, sensor selection, and recovery "
                    "for networked nonlinear dynamics")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def subcommand(name, handler, summary, seed=True):
        p = sub.add_parser(name, help=summary)
        p.add_argument("--config", required=True, help="JSON config path")
        if seed:
            p.add_argument("--seed", type=int, default=None,
                           help="override the config seed")
        p.add_argument("--out-dir", default="results", help="output directory")
        p.set_defaults(handler=handler)
        return p

    subcommand("simulate", _cmd_simulate, "simulate one ground-truth trajectory")
    subcommand("fit", _cmd_fit, "train the lifted operator on simulated data")
    p = subcommand("select", _cmd_select, "greedily choose sensor nodes",
                   seed=False)
    p.add_argument("--model", required=True, help="model.json from 'fit'")
    p = subcommand("recover", _cmd_recover,
                   "recover a trajectory from node samples")
    p.add_argument("--model", required=True, help="model.json from 'fit'")
    p.add_argument("--plan", required=True, help="plan.json from 'select'")
    p.add_argument("--trajectory", required=True,
                   help="trajectory.csv to sample (also serves as ground truth)")
    subcommand("sweep-linearization", _cmd_sweep(run_linearization_sweep),
               "dictionary-size sweep of rollout accuracy")
    subcommand("sweep-sampling", _cmd_sweep(run_sampling_sweep),
               "sampling-rate sweep of recovery accuracy")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except Exception as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
