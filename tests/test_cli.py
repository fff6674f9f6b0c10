"""CLI tests, run in-process through ``main`` (plus one subprocess smoke).

A module-scoped fixture drives the four single-shot stages once on a 6-node
configuration and the tests pick the artifacts apart; errors, argparse exits,
and the sweep commands get their own small runs.
"""

import dataclasses
import json
import subprocess
import sys

import numpy as np
import pytest

import koopnet
from koopnet.cli import main
from koopnet.dynamics import (default_initial_range, generate_er_graph,
                              random_initial_states, simulate_ensemble,
                              trajectory_from_csv)
from koopnet.experiments import (ExperimentConfig, _child_seed,
                                 run_sampling_sweep)
from koopnet.koopman import load_model
from koopnet.sampling import load_plan

CONFIG = {
    "n_values": [6],
    "seed": 13,
    "training_trajectories": 30,
    "training_ticks": 30,
    "sampling_ticks": 12,
    "sampling_rates": [0.5],
    "dictionary": "log",
    "refine_trajectories": 0,
}


def _write_config(directory, **overrides):
    path = directory / "config.json"
    path.write_text(json.dumps({**CONFIG, **overrides}))
    return path


@pytest.fixture(scope="module")
def chain(tmp_path_factory):
    """simulate -> fit -> select -> recover, all into one output directory."""
    tmp = tmp_path_factory.mktemp("cli_chain")
    cfg = _write_config(tmp)
    out = tmp / "out"
    base = ["--config", str(cfg), "--out-dir", str(out)]
    assert main(["simulate"] + base) == 0
    assert main(["fit"] + base) == 0
    assert main(["select", "--model", str(out / "model.json")] + base) == 0
    assert main(["recover", "--model", str(out / "model.json"),
                 "--plan", str(out / "plan.json"),
                 "--trajectory", str(out / "trajectory.csv")] + base) == 0
    return {"tmp": tmp, "config": cfg, "out": out}


def test_simulate_artifacts(chain):
    out = chain["out"]
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "t," + ",".join(f"x_{i}" for i in range(1, 7))
    assert len(lines) == 1 + CONFIG["sampling_ticks"]
    assert not (out / "trajectory.json").exists()


def test_simulate_writes_the_sweeps_trial_0_truth(chain):
    cfg = ExperimentConfig.from_json(chain["config"])
    n = cfg.n_values[0]
    params = cfg.params()
    low, high = default_initial_range(params.kind)
    truth_seed = _child_seed(cfg.seed, n, 0, 3)
    graph = generate_er_graph(n, cfg.er_probability,
                              _child_seed(cfg.seed, n, 0, 1))
    (truth,) = simulate_ensemble(
        graph, params, random_initial_states(n, 1, low, high, truth_seed),
        cfg.sampling_ticks)
    saved = trajectory_from_csv(chain["out"] / "trajectory.csv")
    assert np.array_equal(saved.states, truth.states)  # repr() round trips floats
    # the sweep's trial-0 records are scored against the truth of that seed
    report = run_sampling_sweep(dataclasses.replace(
        cfg, trials=1, sampling_rates=(1.0,), baselines=()))
    assert [rec.seed for rec in report.records] == [truth_seed]
    assert report.records[0].error is None


@pytest.mark.parametrize("dynamics", ["biochemical", "regulatory"])
def test_cli_chain_is_the_sweeps_trial_0(tmp_path, dynamics):
    # select runs the sweep's greedy pass to the budget of its largest rate
    cfg = _write_config(tmp_path, dynamics=dynamics, n_values=[8], seed=3,
                        trials=1, sampling_rates=[0.25, 0.5, 0.75],
                        baselines=[])
    out = tmp_path / "out"
    base = ["--config", str(cfg), "--out-dir", str(out)]
    assert main(["simulate"] + base) == 0
    assert main(["fit"] + base) == 0
    assert main(["select", "--model", str(out / "model.json")] + base) == 0
    assert main(["recover", "--model", str(out / "model.json"),
                 "--plan", str(out / "plan.json"),
                 "--trajectory", str(out / "trajectory.csv")] + base) == 0
    report = run_sampling_sweep(ExperimentConfig.from_json(cfg))
    *_, record = report.records
    assert record.method == "log-koopman" and record.error is None
    assert record.rate == 0.75
    assert len(load_plan(out / "plan.json").nodes) == record.budget == 6
    payload = json.loads((out / "recovery.json").read_text())
    assert payload["nrmse"] == record.nrmse


def test_fit_artifact(chain):
    model = load_model(chain["out"] / "model.json")
    assert model.spec.n == 6
    assert model.size == 1 + 6 * 3  # constant + linear + two log terms per node
    assert model.operator.shape == (19, 19)


def test_select_artifact(chain):
    plan = load_plan(chain["out"] / "plan.json")
    assert len(plan.nodes) == 3  # ceil(0.5 * 6)
    assert plan.tau == CONFIG["sampling_ticks"]
    assert not plan.rank_deficient


def test_recover_artifact(chain):
    payload = json.loads((chain["out"] / "recovery.json").read_text())
    assert payload["converged"] is True
    assert payload["nrmse"] < 0.05
    assert len(payload["x1"]) == 6
    assert len(payload["trajectory"]) == 6
    assert len(payload["trajectory"][0]) == CONFIG["sampling_ticks"]


def test_select_prints_summary(chain, capsys):
    out2 = chain["tmp"] / "select_again"
    rc = main(["select", "--config", str(chain["config"]),
               "--model", str(chain["out"] / "model.json"),
               "--out-dir", str(out2)])
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.out.startswith("wrote ")
    assert "nodes" in captured.out and "score" in captured.out


def test_seed_override(chain, tmp_path):
    for name, extra in (("a", []), ("b", ["--seed", "99"]),
                        ("c", ["--seed", str(CONFIG["seed"])])):
        rc = main(["simulate", "--config", str(chain["config"]),
                   "--out-dir", str(tmp_path / name)] + extra)
        assert rc == 0
    read = lambda name: (tmp_path / name / "trajectory.csv").read_bytes()
    assert read("a") != read("b")       # override changes the draw
    assert read("a") == read("c")       # explicit seed == config seed


# ---------------------------------------------------------------------------
# sweeps


def test_sweep_linearization_command(tmp_path, capsys):
    cfg = _write_config(tmp_path, n_values=[5], training_trajectories=10,
                        training_ticks=15, test_trajectories=3,
                        log_power_grid=[[1]], poly_power_grid=[1])
    rc = main(["sweep-linearization", "--config", str(cfg),
               "--out-dir", str(tmp_path / "res")])
    assert rc == 0
    assert "3 records, 0 failures" in capsys.readouterr().out
    rows = (tmp_path / "res" / "linearization_report.csv").read_text().splitlines()
    assert len(rows) == 1 + 3  # header + dmd + log + poly
    assert (tmp_path / "res" / "linearization_report.json").exists()


def test_sweep_sampling_command_writes_both_reports(tmp_path):
    cfg = _write_config(tmp_path, n_values=[5], trials=1,
                        training_trajectories=10, training_ticks=15,
                        sampling_ticks=8, sampling_rates=[0.5],
                        refine_trajectories=4)
    rc = main(["sweep-sampling", "--config", str(cfg),
               "--out-dir", str(tmp_path / "res")])
    assert rc == 0
    rows = (tmp_path / "res" / "sampling_report.csv").read_text().splitlines()
    assert len(rows) == 1 + 3  # header + one row per method
    payload = json.loads((tmp_path / "res" / "sampling_report.json").read_text())
    methods = {rec["method"] for rec in payload["records"]}
    assert methods == {"log-koopman", "poly-gramian", "linear-gft"}
    assert payload["aggregates"]


# ---------------------------------------------------------------------------
# failure modes


def test_unknown_config_key_reports_json_error(tmp_path, capsys):
    cfg = _write_config(tmp_path, typo_field=1)
    rc = main(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path)])
    captured = capsys.readouterr()
    assert rc == 1
    err = json.loads(captured.err)
    assert err["error"] == "ValueError"
    assert "unknown config keys" in err["message"]


def test_missing_config_file_reports_json_error(tmp_path, capsys):
    rc = main(["simulate", "--config", str(tmp_path / "nope.json"),
               "--out-dir", str(tmp_path)])
    captured = capsys.readouterr()
    assert rc == 1
    assert json.loads(captured.err)["error"] == "FileNotFoundError"


def test_recover_rejects_a_plan_of_another_dictionary(tmp_path, capsys):
    # one model and one plan per dictionary; crossing them must fail with a
    # message naming both dictionaries, not deep inside the sample lookup
    runs = {}
    for kind in ("log", "poly"):
        (tmp_path / kind).mkdir()
        cfg = _write_config(tmp_path / kind, dictionary=kind)
        out = tmp_path / kind / "out"
        base = ["--config", str(cfg), "--out-dir", str(out)]
        assert main(["simulate"] + base) == 0
        assert main(["fit"] + base) == 0
        assert main(["select", "--model", str(out / "model.json")] + base) == 0
        runs[kind] = (cfg, out, load_model(out / "model.json").size)
    capsys.readouterr()
    for model_kind, plan_kind in (("poly", "log"), ("log", "poly")):
        cfg, out, model_size = runs[model_kind]
        _, plan_out, plan_size = runs[plan_kind]
        rc = main(["recover", "--config", str(cfg), "--out-dir", str(out),
                   "--model", str(out / "model.json"),
                   "--plan", str(plan_out / "plan.json"),
                   "--trajectory", str(out / "trajectory.csv")])
        err = json.loads(capsys.readouterr().err)
        assert rc == 1 and err["error"] == "ValueError"
        assert err["message"] == (
            f"plan was selected on the {plan_kind} dictionary of size "
            f"{plan_size} and is read with another, the {model_kind} "
            f"dictionary of size {model_size}")


@pytest.mark.parametrize("command,flag", [
    ("simulate", ["--format", "csv"]), ("fit", ["--format", "csv"]),
    ("select", ["--format", "json"]), ("recover", ["--format", "json"]),
    ("select", ["--seed", "5"]), ("sweep-sampling", ["--format", "json"])],
    ids=["simulate-format", "fit-format", "select-format", "recover-format",
         "select-seed", "sweep-sampling-format"])
def test_flags_without_an_effect_are_rejected(tmp_path, command, flag):
    # the single-shot commands write one file each and a sweep always writes
    # both of its reports; select ignores the seed
    args = [command, "--config", str(_write_config(tmp_path)),
            "--out-dir", str(tmp_path / "out")] + flag
    if command in ("select", "recover"):
        args += ["--model", "m"]
    if command == "recover":
        args += ["--plan", "p", "--trajectory", "t"]
    with pytest.raises(SystemExit) as excinfo:
        main(args)
    assert excinfo.value.code == 2


def test_recover_requires_model_flag(tmp_path):
    cfg = _write_config(tmp_path)
    with pytest.raises(SystemExit) as excinfo:
        main(["recover", "--config", str(cfg), "--plan", "p", "--trajectory", "t"])
    assert excinfo.value.code == 2


def test_subcommand_required():
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 2


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    assert capsys.readouterr().out.strip() == koopnet.__version__


def test_console_script_smoke():
    proc = subprocess.run([sys.executable, "-m", "koopnet.cli", "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == koopnet.__version__
