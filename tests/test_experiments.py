"""Sweep-harness tests: config handling, seeding, reports, determinism.

The two module-scoped sweeps here are deliberately small (n = 10 and n = 8)
so the whole file stays in the tens-of-seconds range while still running the
full select/sample/recover pipeline end to end.
"""

import dataclasses
import json
import math
import re

import numpy as np
import pytest

from koopnet import (DynamicsParams, ExperimentConfig, ExperimentReport,
                     OptimizerConfig, SelectionConfig, TrialRecord, aggregate,
                     emit, linearization_nrmse, report_from_json,
                     run_linearization_sweep, run_sampling_sweep)
from koopnet import experiments, recovery, sampling
from koopnet.dynamics import (default_initial_range, generate_er_graph,
                              random_initial_states, simulate_ensemble)
from koopnet.experiments import (CSV_COLUMNS, LINEAR_GFT, POLY_GRAMIAN,
                                 PROPOSED, _budget, _child_seed, _trial_data,
                                 _trial_seeds)
from koopnet.koopman import (assemble_training, build_theta, fit,
                             refine_with_samples)
from koopnet.observables import LOG, POLY, log_spec, poly_spec


# ---------------------------------------------------------------------------
# configuration


def test_config_round_trip():
    cfg = ExperimentConfig(dynamics="regulatory", n_values=(8, 16), seed=3,
                           log_power_grid=((1,), (1, 2)), sampling_rates=(0.5,),
                           baselines=("linear-gft",), gamma=1.05)
    # every tuple-valued field away from its default
    every_tuple = ExperimentConfig(n_values=(5, 7), log_powers=(1, 3),
                                   log_power_grid=((2,), (1, 3, 4)),
                                   poly_power_grid=(1,),
                                   sampling_rates=(0.2, 1.0),
                                   baselines=("poly-gramian",))
    for cfg in (cfg, every_tuple):
        again = ExperimentConfig.from_dict(cfg.to_dict())
        assert again == cfg
        assert hash(again) == hash(cfg)
        # to_dict is JSON-clean
        assert json.loads(json.dumps(cfg.to_dict())) == cfg.to_dict()


def test_config_from_json(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"n_values": [6], "trials": 2, "seed": 9}))
    cfg = ExperimentConfig.from_json(path)
    assert cfg.n_values == (6,) and cfg.trials == 2 and cfg.seed == 9
    # untouched fields keep their defaults
    assert cfg.dynamics == "biochemical" and cfg.scale == 500.0


def test_config_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown config keys"):
        ExperimentConfig.from_dict({"n_values": [6], "typo_field": 1})


# Each input keeps the id it has always had in the suite, so removing one
# input renames no other; inputs added later are named by key and value.
@pytest.mark.parametrize("bad", [pytest.param(bad, id=name) for bad, name in [
    ({"dynamics": "lorenz"}, "bad0"),
    ({"n_values": (0,)}, "bad1"),
    ({"sampling_rates": (0.0,)}, "bad2"),
    ({"sampling_rates": (1.5,)}, "bad3"),
    ({"trials": 0}, "bad4"),
    ({"workers": 0}, "bad5"),
    ({"baselines": ("poly-gramian", "kalman")}, "bad6"),
    ({"training_trajectories": 0}, "bad7"),
    ({"test_trajectories": 0}, "bad8"),
    ({"training_ticks": 1}, "bad9"),
    ({"sampling_ticks": 1}, "bad10"),
    ({"scale": -1.0}, "bad11"),
    ({"scale": 0.0}, "bad12"),
    ({"refine_trajectories": -1}, "bad13"),
    ({"er_probability": 1.5}, "bad17"),
    ({"er_probability": -0.1}, "bad18"),
    ({"gamma": 0.5}, "bad19"),
    ({"n_values": ()}, "bad20"),
    ({"sampling_rates": ()}, "bad21"),
    ({"log_powers": ()}, "bad26"),
    ({"log_power_grid": ((0,),)}, "bad28"),
    ({"poly_power_grid": (0,)}, "bad29"),
    ({"dictionary": "nope"}, "bad32"),
    ({"flow_in": -5.0}, "bad33"),
    # integer settings that are not integers
    ({"n_values": (4.0,)}, "bad34"),
    ({"seed": 0.5}, "bad35"),
    ({"seed": True}, "bad36"),
    ({"trials": 1.5}, "bad37"),
    ({"training_ticks": 10.5}, "bad38"),
    ({"log_powers": (1, 2.0)}, "bad39"),
    ({"log_power_grid": ((1.5,),)}, "bad40"),
    ({"poly_power_grid": (1.7,)}, "bad41"),
    # float settings that are not real numbers
    ({"sampling_rates": (True,)}, "sampling_rates=[True]"),
    ({"flow_in": True}, "flow_in=True"),
    ({"scale": True}, "scale=True"),
    ({"scale": "500"}, "scale='500'"),
    ({"gamma": "5"}, "gamma='5'"),
    # a bool setting that is not a bool
    ({"include_dmd": "no"}, "include_dmd='no'"),
    ({"include_dmd": None}, "include_dmd=None"),
    ({"include_dmd": 1}, "include_dmd=1"),
    # a scalar or a string where a list belongs
    ({"n_values": 20}, "n_values=20"),
    ({"n_values": "20"}, "n_values='20'"),
    ({"log_powers": 2}, "log_powers=2"),
    ({"log_power_grid": 1}, "log_power_grid=1"),
    ({"log_power_grid": ((1,), 2)}, "log_power_grid=[[1], 2]"),
    ({"log_power_grid": ("12",)}, "log_power_grid=['12']"),
    ({"poly_power_grid": 2}, "poly_power_grid=2"),
    ({"sampling_rates": 0.5}, "sampling_rates=0.5"),
    ({"baselines": "linear-gft"}, "baselines='linear-gft'"),
    # an inflow on the dynamics that has none
    ({"dynamics": "regulatory", "flow_in": 5.0}, "regulatory-flow_in=5.0"),
]])
def test_config_validation(bad):
    with pytest.raises(ValueError):
        ExperimentConfig(**bad)


def test_number_checks_name_the_key():
    for bad in ({"n_values": (4.0,)}, {"seed": 0.5}, {"seed": True},
                {"trials": 1.5}, {"log_power_grid": ((1.5,),)},
                {"sampling_rates": (True,)}, {"flow_in": True},
                {"scale": True}, {"scale": "500"},
                {"gamma": "5"}, {"er_probability": None},
                {"include_dmd": "no"}, {"include_dmd": None},
                {"include_dmd": 1}, {"n_values": 20}, {"n_values": "20"},
                {"log_powers": 2}, {"log_power_grid": 1},
                {"log_power_grid": ((1,), 2)}, {"log_power_grid": ("12",)},
                {"poly_power_grid": 2}, {"sampling_rates": 0.5},
                {"baselines": "linear-gft"}):
        (key,) = bad
        with pytest.raises(ValueError, match=f"^{key}: "):
            ExperimentConfig(**bad)


# Every config field by the kind it holds, and the kinds each must not hold.
CONFIG_KINDS = {
    "dynamics": "str", "flow_in": "float or null", "n_values": "ints",
    "er_probability": "float", "seed": "int", "training_trajectories": "int",
    "test_trajectories": "int", "training_ticks": "int",
    "sampling_ticks": "int", "scale": "float", "log_powers": "ints",
    "include_dmd": "bool", "log_power_grid": "int lists",
    "poly_power_grid": "ints", "sampling_rates": "floats",
    "gamma": "float or null", "dictionary": "str",
    "trials": "int", "refine_trajectories": "int", "baselines": "strs",
    "workers": "int"}
WRONG_KINDS = {
    "int": ([1], "1", True, None, 1.5),
    "float": ([0.5], "0.5", True, None, math.nan, math.inf),
    "float or null": ([0.5], "0.5", True, math.nan, -math.inf),
    "str": (1, ["log"], True, None),
    "bool": (1, "true", [True], None),
    "ints": (2, "2", True, None, [1.5], [None], [[1]]),
    "floats": (0.5, "0.5", True, None, ["0.5"], [None], [math.nan]),
    "strs": (1, "linear-gft", True, None, [1], [None]),
    "int lists": (1, "1", True, None, [1], [None], [[1.5]]),
}


def test_config_kinds_cover_every_field():
    assert set(CONFIG_KINDS) == {f.name for f in
                                 dataclasses.fields(ExperimentConfig)}


@pytest.mark.parametrize("field, value", [
    (field, value) for field, kind in CONFIG_KINDS.items()
    for value in WRONG_KINDS[kind]])
def test_config_names_the_field_of_each_wrong_kind(field, value):
    # read from a file and passed to the constructor alike
    for load in (ExperimentConfig.from_dict, lambda d: ExperimentConfig(**d)):
        with pytest.raises(ValueError, match=rf"^{field}\b"):
            load({field: value})


@pytest.mark.parametrize("build, message", [
    (lambda: log_spec(3, scale=math.nan), "scale must be positive"),
    (lambda: SelectionConfig(gamma=math.nan), "gamma is a singular-value"),
    (lambda: DynamicsParams(kind="biochemical", flow_in=math.nan),
     "flow_in must be nonnegative")], ids=["scale", "gamma", "flow_in"])
def test_constructor_range_checks_reject_nan(build, message):
    # each once constructed; the NaN inflow failed only deep in a sweep,
    # as "simulation diverged at tick 1"
    with pytest.raises(ValueError, match=message):
        build()


@pytest.mark.parametrize("build, message", [
    (lambda: DynamicsParams(kind="biochemical", flow_in="5"), "flow_in: '5'"),
    (lambda: SelectionConfig(gamma="5"), "gamma: '5'"),
    (lambda: SelectionConfig(max_nodes="3"), "max_nodes: '3'"),
    (lambda: OptimizerConfig(fill_value="0.5"),
     "fill_value: '0.5' is not a real number"),
    (lambda: OptimizerConfig(fill_value=math.nan),
     "fill_value: nan is not finite"),
    (lambda: ExperimentConfig(seed=1.5), "seed: 1.5 is not an integer")],
    ids=["flow_in", "gamma", "max_nodes", "fill_value-string",
         "fill_value-nan", "seed-float"])
def test_constructor_number_checks_name_the_field(build, message):
    # the first three once raised a bare TypeError from comparing a string;
    # the last three constructed and failed only inside the recovery
    with pytest.raises(ValueError, match="^" + re.escape(message)):
        build()


@pytest.mark.parametrize("config, type_name", [
    ("abc", "str"), ([1, 2], "list"), ([], "list"), (None, "NoneType"),
    (5, "int")], ids=["string", "list", "empty-list", "null", "number"])
def test_config_must_be_a_json_object(config, type_name):
    with pytest.raises(ValueError,
                       match=f"must be a JSON object, got {type_name}$"):
        ExperimentConfig.from_dict(config)


# Settings of older versions, at the one value each of them ever ran with.
REMOVED_KEYS = {"decay": 1.0, "coupling": 1.0, "dt": 0.01,
                "steps_per_sample": 10, "poly_max_power": 2,
                "recovery_max_iterations": 500, "recovery_gradient_tol": 1e-8,
                "recovery_multistarts": 3, "selection_rate": 0.5}


@pytest.mark.parametrize("key", REMOVED_KEYS)
def test_config_rejects_removed_keys(key):
    with pytest.raises(ValueError, match="unknown config keys"):
        ExperimentConfig.from_dict({key: REMOVED_KEYS[key]})


@pytest.mark.parametrize("field, value", [
    ("n_values", [6, 6]), ("sampling_rates", [0.5, 0.5]),
    ("log_power_grid", [[1], [1]]), ("poly_power_grid", [1, 1])])
def test_config_rejects_a_repeated_entry(field, value):
    # each once ran its cells again: n_values (6, 6) at rates (0.5, 0.5)
    # wrote four identical records, aggregated as four trials
    message = f"{field}: {value[0]!r} is listed twice"
    with pytest.raises(ValueError, match="^" + re.escape(message)):
        ExperimentConfig.from_dict({field: value})
    with pytest.raises(ValueError, match="^" + re.escape(message)):
        ExperimentConfig(**{field: value})


def test_params_flow_defaults():
    assert ExperimentConfig(dynamics="biochemical").params().flow_in == 10.0
    assert ExperimentConfig(dynamics="regulatory").params().flow_in == 0.0
    assert ExperimentConfig(flow_in=2.5).params().flow_in == 2.5


# ---------------------------------------------------------------------------
# seeding and budgets


def test_child_seed_is_deterministic_and_order_sensitive():
    assert _child_seed(0, 20, 3) == _child_seed(0, 20, 3)
    assert _child_seed(0, 20, 3) != _child_seed(0, 3, 20)
    seeds = {_child_seed(0, 20, t, phase) for t in range(5) for phase in (1, 2, 3)}
    assert len(seeds) == 15


@pytest.mark.parametrize("rate,n,expected", [
    (0.25, 20, 5),
    (0.5, 3, 2),     # ceil(1.5)
    (0.75, 8, 6),
    (0.01, 10, 1),   # floor of one sensor
    (1.0, 7, 7),
    # products that floating point lifts just above an integer
    (0.28, 25, 7),
    (0.56, 25, 14),
    (0.07, 100, 7),
    (0.14, 50, 7),
])
def test_budget_ceil(rate, n, expected):
    assert _budget(rate, n) == expected


@pytest.mark.parametrize("n", [5, 20, 40])
@pytest.mark.parametrize("dynamics", ["biochemical", "regulatory"])
def test_trial_truth_is_the_single_state_simulation(dynamics, n):
    """A trial's truth, drawn as a one-trajectory ensemble, is bit for bit
    the one-column run from the ``n`` uniform draws of its truth seed."""
    cfg = ExperimentConfig(dynamics=dynamics, seed=4, training_trajectories=3,
                           training_ticks=5)
    low, high = default_initial_range(dynamics)
    for trial in range(3):
        seeds = _trial_seeds(cfg, n, trial)
        _, train, (truth,) = _trial_data(cfg, n, seeds, 1, cfg.sampling_ticks)
        assert len(train) == 3
        x1 = np.random.default_rng(seeds["truth"]).uniform(low, high, n)
        (reference,) = simulate_ensemble(
            generate_er_graph(n, cfg.er_probability, seeds["graph"]),
            cfg.params(), x1[:, None], cfg.sampling_ticks)
        assert np.array_equal(truth.states, reference.states)


def test_trial_seeds_are_pinned():
    # each phase's seed derives from its position, so these values, and every
    # sweep CSV drawn from them, move only if a phase ahead of it does
    assert _trial_seeds(ExperimentConfig(), 20, 0) == {
        "graph": 2255857561, "train": 947686497, "truth": 2337777764,
        "refine": 3451715002}
    assert _trial_seeds(ExperimentConfig(), 30) == {
        "graph": 3044451371, "train": 1537413525, "truth": 2367399688,
        "refine": 523857748}


# ---------------------------------------------------------------------------
# aggregation over hand-built records


def _rec(method, nrmse, error=None, rate=0.5, trial=0):
    return TrialRecord("sampling", 10, method, 31, rate, 5, trial, 123,
                       nrmse, None if error else True, error, 0.1)


def test_aggregate_groups_and_skips_failures():
    records = [_rec("log-koopman", 0.2, trial=0),
               _rec("log-koopman", 0.4, trial=1),
               _rec("log-koopman", None, error="RuntimeError: boom", trial=2),
               _rec("linear-gft", 0.9, trial=0)]
    rows = aggregate(records)
    assert len(rows) == 2
    by_method = {row["method"]: row for row in rows}
    log = by_method["log-koopman"]
    assert log["trials"] == 3 and log["failures"] == 1
    assert log["mean_nrmse"] == pytest.approx(0.3)
    assert log["min_nrmse"] == pytest.approx(0.2)
    assert log["max_nrmse"] == pytest.approx(0.4)
    gft = by_method["linear-gft"]
    assert gft["trials"] == 1 and gft["failures"] == 0


def test_aggregate_all_failed_group_has_none_stats():
    rows = aggregate([_rec("log-koopman", None, error="x")])
    assert rows[0]["mean_nrmse"] is None
    assert rows[0]["min_nrmse"] is None and rows[0]["max_nrmse"] is None
    assert rows[0]["failures"] == 1


# ---------------------------------------------------------------------------
# linearization sweep (shared small run)


@pytest.fixture(scope="module")
def lin_report():
    cfg = ExperimentConfig(n_values=(10,), seed=7, training_trajectories=40,
                           test_trajectories=10, training_ticks=40,
                           log_power_grid=((1,), (1, 2), (1, 2, 3)),
                           poly_power_grid=(1, 2))
    return cfg, run_linearization_sweep(cfg)


def test_linearization_sweep_cells(lin_report):
    cfg, report = lin_report
    methods = [(r.method, r.dictionary_size) for r in report.records]
    # one dmd cell, three log sizes, two poly sizes, all for n = 10
    assert methods == [("dmd", 10), ("log", 21), ("log", 31), ("log", 41),
                       ("poly", 66), ("poly", 221)]
    assert all(r.error is None and r.converged for r in report.records)
    assert all(r.experiment == "linearization" and r.n == 10
               for r in report.records)


def test_nested_log_dictionaries_do_not_hurt(lin_report):
    """Adding log powers grows the dictionary and (here) the rollout accuracy."""
    _, report = lin_report
    errs = [r.nrmse for r in report.records if r.method == "log"]
    print("\n    log dictionary sizes -> nrmse:",
          ["%.4e" % e for e in errs])
    for smaller, larger in zip(errs, errs[1:]):
        assert larger <= smaller * (1 + 1e-3)


def test_log_beats_raw_state_dictionary(lin_report):
    _, report = lin_report
    dmd = next(r.nrmse for r in report.records if r.method == "dmd")
    best_log = min(r.nrmse for r in report.records if r.method == "log")
    assert best_log < dmd / 100


def test_records_sorted_by_key(lin_report):
    _, report = lin_report
    keys = [r.sort_key() for r in report.records]
    assert keys == sorted(keys)


def test_report_round_trip_through_json(lin_report, tmp_path):
    _, report = lin_report
    paths = emit(report, tmp_path)
    json_path = [p for p in paths if p.suffix == ".json"][0]
    again = report_from_json(json_path)
    assert again.records == report.records
    assert again.aggregates == report.aggregates
    assert again.config == report.config
    # a report written before records carried a stage still loads
    payload = json.loads(json_path.read_text())
    for rec in payload["records"]:
        del rec["stage"]
    json_path.write_text(json.dumps(payload))
    assert report_from_json(json_path).records == report.records


@pytest.mark.parametrize("payload, message", [
    ([], "a report must be a JSON object, got list"),
    ({"name": "sampling", "records": []}, "missing report keys: ['config']"),
    # these two once loaded, and raised a bare TypeError
    ({"name": "sampling", "config": 5, "records": []},
     "config: 5 is not a JSON object"),
    ({"name": "sampling", "config": {}, "records": 5},
     "records: 5 is not a list"),
])
def test_report_file_that_is_not_a_report_is_rejected(payload, message,
                                                      tmp_path):
    path = tmp_path / "report.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError) as info:
        report_from_json(path)
    assert str(info.value) == message


@pytest.mark.parametrize("record, message", [
    ({"n": 3}, "missing record keys: ['experiment', 'method', "
               "'dictionary_size', 'rate', 'budget', 'trial', 'seed', "
               "'nrmse', 'converged', 'error']"),
    ("record", "a record must be a JSON object, got str"),
])
def test_report_record_that_is_not_a_record_is_rejected(record, message,
                                                        tmp_path):
    # {"n": 3} once raised a bare TypeError from TrialRecord
    path = tmp_path / "report.json"
    path.write_text(json.dumps({"name": "sampling", "config": {},
                                "records": [record]}))
    with pytest.raises(ValueError) as info:
        report_from_json(path)
    assert str(info.value) == message


# Every record field by the kind it holds; a record's numbers need not be
# finite, as a diverged cell writes Infinity or NaN.
RECORD_KINDS = {
    "experiment": "str", "n": "int", "method": "str",
    "dictionary_size": "int or null", "rate": "float or null",
    "budget": "int or null", "trial": "int", "seed": "int",
    "nrmse": "float or null", "converged": "bool or null",
    "error": "str or null", "runtime_s": "float or null",
    "stage": "str or null"}
RECORD_WRONG_KINDS = {
    "int": ([1], "1", True, None, 1.5), "int or null": ([1], "1", True, 1.5),
    "float or null": ([0.5], "abc", True), "bool or null": (1, "yes", [True]),
    "str": (1, ["x"], True, None), "str or null": (1, ["x"], True),
}
# A report's own fields: a name, its config as an object, a list of records.
REPORT_WRONG_KINDS = (
    [("name", v) for v in (5, ["sampling"], True, None)]
    + [("config", v) for v in (5, "{}", [], True, None)]
    + [("records", v) for v in (5, "[]", True, None, {})])


def _record():
    return {"experiment": "sampling", "n": 4, "method": PROPOSED,
            "dictionary_size": 13, "rate": 0.5, "budget": 2, "trial": 0,
            "seed": 7, "nrmse": 0.25, "converged": True, "error": None,
            "runtime_s": 1.5, "stage": None}


def test_record_kinds_cover_every_field():
    assert set(RECORD_KINDS) == set(_record()) == {
        f.name for f in dataclasses.fields(TrialRecord)}


@pytest.mark.parametrize("field, value", [
    (field, value) for field, kind in RECORD_KINDS.items()
    for value in RECORD_WRONG_KINDS[kind]] + REPORT_WRONG_KINDS)
def test_report_names_the_field_of_each_wrong_kind(field, value, tmp_path):
    payload = {"name": "sampling", "config": {}, "records": [_record()]}
    if field in payload:
        payload[field] = value
    else:
        payload["records"][0][field] = value
    path = tmp_path / "report.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match=f"^{field}: "):
        report_from_json(path)


def test_failed_infinite_and_older_records_load_back_unchanged(tmp_path):
    failed = TrialRecord(**{**_record(), "nrmse": None, "converged": None,
                            "error": "RuntimeError: simulation diverged",
                            "stage": "prepare"})
    infinite = TrialRecord(**{**_record(), "trial": 1, "nrmse": math.inf,
                              "converged": False})
    older = TrialRecord(**{**_record(), "trial": 2, "runtime_s": None})
    report = ExperimentReport(name="sampling", config={"seed": 0},
                              records=(failed, infinite, older))
    _, path = emit(report, tmp_path)
    assert '"nrmse": Infinity' in path.read_text()
    # the third record as written before runtimes and stages were kept
    payload = json.loads(path.read_text())
    del payload["records"][2]["runtime_s"], payload["records"][2]["stage"]
    path.write_text(json.dumps(payload))
    again = report_from_json(path)
    assert again.records == report.records
    assert again.config == report.config and again.name == report.name


def test_report_record_with_an_unknown_key_is_rejected(lin_report, tmp_path):
    _, report = lin_report
    _, json_path = emit(report, tmp_path)
    payload = json.loads(json_path.read_text())
    payload["records"][1]["wall_s"] = 1.0
    json_path.write_text(json.dumps(payload))
    with pytest.raises(ValueError) as info:
        report_from_json(json_path)
    assert str(info.value) == "unknown record keys: ['wall_s']"
    # a record written before runtimes and stages were kept still loads
    del payload["records"][1]["wall_s"]
    for rec in payload["records"]:
        del rec["runtime_s"], rec["stage"]
    json_path.write_text(json.dumps(payload))
    again = report_from_json(json_path)
    assert again.records == tuple(dataclasses.replace(r, runtime_s=None)
                                  for r in report.records)


def test_report_with_removed_config_keys_still_loads(lin_report, tmp_path):
    # a report's config is kept as written, so one whose config carries
    # settings of older versions loads with its name and records
    _, report = lin_report
    _, json_path = emit(report, tmp_path)
    payload = json.loads(json_path.read_text())
    payload["config"] = {**payload["config"], **REMOVED_KEYS}
    json_path.write_text(json.dumps(payload))
    again = report_from_json(json_path)
    assert again.name == report.name == "linearization"
    assert again.records == report.records
    assert again.config == payload["config"]


# ---------------------------------------------------------------------------
# sampling sweep (shared small run)


@pytest.fixture(scope="module")
def samp_report():
    cfg = ExperimentConfig(n_values=(8,), seed=11, trials=1,
                           training_trajectories=40, training_ticks=40,
                           sampling_ticks=15, sampling_rates=(1.0,),
                           refine_trajectories=20, baselines=())
    return cfg, run_sampling_sweep(cfg)


def test_full_sampling_recovers_near_model_floor(samp_report):
    """At a 100% sampling rate the pipeline should sit at the linearization
    floor: rebuild the trial's refined model from the same child seeds and
    compare against its rollout error on the truth trajectory."""
    cfg, report = samp_report
    rec = report.records[0]
    assert rec.method == PROPOSED and rec.budget == 8
    assert rec.error is None and rec.converged

    n, trial = 8, 0
    params = cfg.params()
    low, high = default_initial_range(params.kind)
    graph = generate_er_graph(n, cfg.er_probability,
                              _child_seed(cfg.seed, n, trial, 1))
    train_x1 = random_initial_states(n, cfg.training_trajectories, low, high,
                                     _child_seed(cfg.seed, n, trial, 2))
    train = simulate_ensemble(graph, params, train_x1, cfg.training_ticks)
    truth_seed = _child_seed(cfg.seed, n, trial, 3)
    truth_x1 = random_initial_states(n, 1, low, high, truth_seed)
    (truth,) = simulate_ensemble(graph, params, truth_x1, cfg.sampling_ticks)
    assert rec.seed == truth_seed

    spec = log_spec(n, scale=cfg.scale, powers=cfg.log_powers)
    training = assemble_training(train, spec)
    model = fit(training)
    refined, _ = refine_with_samples(training, tuple(range(n)),
                                     truth.states[:, 0], graph, params,
                                     cfg.sampling_ticks,
                                     cfg.refine_trajectories,
                                     seed=_child_seed(cfg.seed, n, trial, 4))
    floor = linearization_nrmse(refined, [truth])
    print(f"\n    sweep nrmse {rec.nrmse:.3e} vs model floor {floor:.3e}")
    assert rec.nrmse <= 5 * floor
    assert rec.nrmse < 1e-2


def test_sampling_record_fields(samp_report):
    _, report = samp_report
    rec = report.records[0]
    assert rec.experiment == "sampling"
    assert rec.dictionary_size == 1 + 8 * 3
    assert rec.rate == 1.0 and rec.trial == 0
    assert rec.runtime_s is not None and rec.runtime_s > 0


# ---------------------------------------------------------------------------
# failure recording: a guaranteed-divergent configuration


def test_linearization_sweep_records_setup_failures():
    cfg = ExperimentConfig(n_values=(5,), flow_in=1e6, seed=1,
                           training_trajectories=3, test_trajectories=2,
                           training_ticks=5, log_power_grid=((1, 2),),
                           poly_power_grid=(1,))
    report = run_linearization_sweep(cfg)
    assert len(report.records) == 3  # dmd + one log + one poly
    for rec in report.records:
        assert rec.nrmse is None and rec.converged is None
        assert "diverged" in rec.error
        assert rec.stage == "setup"
    # failures show up in the aggregates rather than vanishing
    assert all(row["failures"] == row["trials"] for row in report.aggregates)


def test_sampling_sweep_records_setup_failures():
    cfg = ExperimentConfig(n_values=(5,), flow_in=1e6, seed=1, trials=2,
                           training_trajectories=3, training_ticks=5,
                           sampling_ticks=5, sampling_rates=(0.5, 1.0),
                           refine_trajectories=0)
    report = run_sampling_sweep(cfg)
    # trials x rates x (proposed + two baselines)
    assert len(report.records) == 2 * 2 * 3
    assert {r.method for r in report.records} == {PROPOSED, POLY_GRAMIAN,
                                                  LINEAR_GFT}
    sizes = {PROPOSED: log_spec(5, scale=cfg.scale, powers=cfg.log_powers).size,
             POLY_GRAMIAN: poly_spec(5).size, LINEAR_GFT: None}
    for rec in report.records:
        assert rec.error is not None and "diverged" in rec.error
        assert rec.budget == _budget(rec.rate, 5)
        assert rec.dictionary_size == sizes[rec.method]
        assert rec.stage == "setup"


def test_failed_draw_counts_in_its_methods_aggregate_row(monkeypatch):
    # a setup record once carried no dictionary size, so a failed trial
    # split each dictionary method's rows in two
    cfg = ExperimentConfig(n_values=(5,), seed=2, trials=3,
                           training_trajectories=20, training_ticks=20,
                           sampling_ticks=8, sampling_rates=(0.4, 1.0),
                           refine_trajectories=0)
    failing = _trial_seeds(cfg, 5, 1)

    def fail_trial_1(config, n, seeds, truths, ticks):
        if seeds == failing:
            raise RuntimeError("boom")
        return _trial_data(config, n, seeds, truths, ticks)

    monkeypatch.setattr(experiments, "_trial_data", fail_trial_1)
    report = run_sampling_sweep(cfg)
    sizes = {PROPOSED: log_spec(5, scale=cfg.scale, powers=cfg.log_powers).size,
             POLY_GRAMIAN: poly_spec(5).size, LINEAR_GFT: None}
    rows = report.aggregates
    assert sorted((row["method"], row["rate"]) for row in rows) == \
        sorted((method, rate) for method in sizes for rate in cfg.sampling_rates)
    for row in rows:
        assert row["trials"] == 3 and row["failures"] == 1
        assert row["dictionary_size"] == sizes[row["method"]]


def test_linearization_cell_failure_fails_that_cell_alone(monkeypatch):
    def boom_on_poly(training):
        if training.spec.kind == POLY and training.spec.poly_max_power == 2:
            raise RuntimeError("boom")
        return fit(training)

    monkeypatch.setattr(experiments, "fit", boom_on_poly)
    cfg = ExperimentConfig(n_values=(5,), seed=4, training_trajectories=10,
                           test_trajectories=3, training_ticks=10,
                           log_power_grid=((1,), (1, 2)),
                           poly_power_grid=(1, 2))
    report = run_linearization_sweep(cfg)
    assert len(report.records) == 5  # dmd + two log + two poly
    (failed,) = [r for r in report.records if r.error is not None]
    assert failed.method == "poly" and failed.stage == "solve"
    assert failed.error == "RuntimeError: boom"
    assert failed.dictionary_size == poly_spec(5, max_power=2).size
    assert failed.nrmse is None and failed.converged is None
    assert failed.rate is None and failed.budget is None
    assert failed.runtime_s is not None and failed.runtime_s >= 0
    others = [r for r in report.records if r is not failed]
    assert all(r.stage is None and r.converged and r.nrmse is not None
               for r in others)


def test_shared_step_failure_fails_every_rate_of_its_method(monkeypatch):
    def boom(*args, **kwargs):
        raise RuntimeError("boom")

    def boom_on_poly(training, **kwargs):
        if training.spec.kind == POLY:
            boom()
        return fit(training, **kwargs)

    cfg = ExperimentConfig(n_values=(5,), seed=2, trials=1,
                           training_trajectories=20, training_ticks=20,
                           sampling_ticks=8, sampling_rates=(0.4, 0.8, 1.0),
                           refine_trajectories=0)
    # a method's model is part of its prepare step: a failed fit or stack of
    # powers fails that method's rows alone
    sizes = {PROPOSED: log_spec(5, scale=cfg.scale, powers=cfg.log_powers).size,
             POLY_GRAMIAN: poly_spec(5).size}
    for name, fake, method in (("greedy_select", boom, PROPOSED),
                               ("build_theta", boom, PROPOSED),
                               ("gramian_nodes_for_budget", boom, POLY_GRAMIAN),
                               ("fit", boom_on_poly, POLY_GRAMIAN)):
        with monkeypatch.context() as m:
            m.setattr(experiments, name, fake)
            report = run_sampling_sweep(cfg)
        failed = [r for r in report.records if r.method == method]
        assert [r.rate for r in failed] == list(cfg.sampling_rates)
        for rec in failed:
            assert rec.error == "RuntimeError: boom"
            assert rec.nrmse is None and rec.converged is None
            assert rec.budget == _budget(rec.rate, 5)
            assert rec.dictionary_size == sizes[method]
            assert rec.stage == "prepare"
        # the shared step's time is charged to the first rate alone
        assert failed[0].runtime_s > 0
        assert all(r.runtime_s == 0.0 for r in failed[1:])
        others = [r for r in report.records if r.method != method]
        assert len(others) == 2 * 3
        assert all(r.error is None and r.stage is None for r in others)
    # a per-rate failure names the solve step; the selection still ran
    with monkeypatch.context() as m:
        m.setattr(experiments, "recover_initial_state", boom)
        report = run_sampling_sweep(cfg)
    failed = [r for r in report.records if r.method == PROPOSED]
    assert [(r.error, r.stage) for r in failed] == \
        [("RuntimeError: boom", "solve")] * len(cfg.sampling_rates)


def test_poly_gramian_baseline_builds_no_stack_of_poly_powers(monkeypatch):
    # the baseline, the recovery and verify_rank read their rows off K, so
    # the one stack of powers a trial builds is the log model's, for its one
    # greedy pass; both go through the names experiments imports, which are
    # the ones the benchmark's tracer wraps
    builds, picks = [], []

    def spy(model, tau):
        builds.append((experiments.__name__, model.spec.kind))
        return build_theta(model, tau)

    def pick(*args, **kwargs):
        picks.append(args[1].kind)
        return sampling.greedy_select(*args, **kwargs)

    monkeypatch.setattr(experiments, "build_theta", spy)
    monkeypatch.setattr(experiments, "greedy_select", pick)
    assert not hasattr(sampling, "build_theta")
    assert not hasattr(recovery, "build_theta")
    assert not hasattr(recovery, "selected_rows")
    cfg = ExperimentConfig(n_values=(5,), seed=2, trials=2,
                           training_trajectories=20, training_ticks=20,
                           sampling_ticks=8, sampling_rates=(0.4, 1.0),
                           refine_trajectories=0,
                           baselines=(POLY_GRAMIAN,))
    report = run_sampling_sweep(cfg)
    assert all(r.error is None for r in report.records)
    assert len([r for r in report.records if r.method == POLY_GRAMIAN]) == 4
    assert builds == [("koopnet.experiments", LOG)] * cfg.trials
    assert picks == [LOG] * cfg.trials


def test_sweep_passes_the_recovery_config_by_keyword(monkeypatch):
    # the benchmark's tracer reads the recovery's config by name only; a
    # positional config would be traced as the default
    calls = []
    real = experiments.recover_initial_state

    def spy(*args, **kwargs):
        calls.append((len(args), kwargs.get("config")))
        return real(*args, **kwargs)

    monkeypatch.setattr(experiments, "recover_initial_state", spy)
    cfg = ExperimentConfig(n_values=(5,), seed=2, trials=1,
                           training_trajectories=20, training_ticks=20,
                           sampling_ticks=8, sampling_rates=(0.4, 1.0),
                           refine_trajectories=0, baselines=())
    report = run_sampling_sweep(cfg)
    assert all(r.error is None for r in report.records)
    assert calls == [(2, cfg.optimizer())] * len(cfg.sampling_rates)


@pytest.mark.parametrize("gamma", [None, 5000.0])
def test_multi_rate_sweep_matches_single_rate_sweeps(gamma, tmp_path):
    # one selection per trial, sliced per rate, must give each rate the
    # rows a sweep over that rate alone gives; gamma=5000 stops this trial's
    # selection at three of its six nodes, inside the two larger budgets
    cfg = ExperimentConfig(n_values=(6,), seed=8, trials=1,
                           training_trajectories=25, training_ticks=25,
                           sampling_ticks=10, sampling_rates=(0.3, 0.6, 1.0),
                           refine_trajectories=4, gamma=gamma)
    joint, _ = emit(run_sampling_sweep(cfg), tmp_path / "joint")
    singles = [rec for rate in cfg.sampling_rates
               for rec in run_sampling_sweep(
                   dataclasses.replace(cfg, sampling_rates=(rate,))).records]
    merged = ExperimentReport("sampling", cfg.to_dict(),
                              tuple(sorted(singles, key=TrialRecord.sort_key)))
    apart, _ = emit(merged, tmp_path / "apart")
    assert joint.read_bytes() == apart.read_bytes()


def test_budget_is_the_node_count_when_gamma_stops_selection_early():
    # gamma = 200 stops greedy at nodes (1, 5, 4), inside the two larger
    # caps (6 and 10); each rate once recorded its cap as its budget
    cfg = ExperimentConfig(n_values=(10,), seed=0, trials=1, gamma=200.0,
                           baselines=(), refine_trajectories=0,
                           sampling_rates=(0.3, 0.6, 1.0))
    records = run_sampling_sweep(cfg).records
    assert [r.budget for r in records] == [3, 3, 3]
    assert len({r.nrmse for r in records}) == 1
    assert records[0].nrmse == pytest.approx(0.012853, abs=5e-7)


# ---------------------------------------------------------------------------
# emission and determinism


def test_emit_empty_report_writes_header_only(tmp_path):
    report = ExperimentReport(name="sampling", config={}, records=())
    paths = emit(report, tmp_path)
    assert [p.name for p in paths] == ["sampling_report.csv",
                                       "sampling_report.json"]
    lines = paths[0].read_text().splitlines()
    assert lines == [",".join(CSV_COLUMNS)]


def test_csv_has_no_runtime_column(lin_report, tmp_path):
    _, report = lin_report
    csv_path, _ = emit(report, tmp_path)
    header = csv_path.read_text().splitlines()[0]
    assert "runtime" not in header
    assert header.split(",") == list(CSV_COLUMNS)


def test_sampling_sweep_csv_is_byte_identical_across_runs(tmp_path):
    cfg = ExperimentConfig(n_values=(6,), seed=5, trials=1,
                           training_trajectories=30, training_ticks=30,
                           sampling_ticks=12, sampling_rates=(0.5, 1.0),
                           refine_trajectories=8)
    blobs, payloads = [], []
    for run in ("a", "b"):
        report = run_sampling_sweep(cfg)
        out = tmp_path / run
        csv_path, json_path = emit(report, out)
        blobs.append(csv_path.read_bytes())
        payloads.append(json.loads(json_path.read_text()))
    assert blobs[0] == blobs[1]
    # JSON differs only in wall-clock runtimes
    for payload in payloads:
        for rec in payload["records"]:
            rec["runtime_s"] = None
    assert payloads[0] == payloads[1]


@pytest.mark.parametrize("sweep,cfg", [
    (run_sampling_sweep, ExperimentConfig(
        dynamics="biochemical", n_values=(6,), trials=3,
        sampling_rates=(0.5, 1.0), refine_trajectories=5)),
    (run_sampling_sweep, ExperimentConfig(
        dynamics="regulatory", n_values=(6,), trials=3,
        sampling_rates=(0.5, 1.0), refine_trajectories=5)),
    (run_linearization_sweep, ExperimentConfig(n_values=(5, 6))),
], ids=["sampling-biochemical", "sampling-regulatory", "linearization"])
def test_threaded_sweep_writes_the_serial_csv(sweep, cfg, tmp_path):
    blobs = []
    for workers in (1, 2):
        csv_path, _ = emit(sweep(dataclasses.replace(cfg, workers=workers)),
                           tmp_path / str(workers))
        blobs.append(csv_path.read_bytes())
    assert blobs[0] == blobs[1]


def test_sweep_dfp_runs_keep_the_inverse_hessian_exactly_symmetric(monkeypatch):
    runs = []
    real = recovery.minimize_dfp

    def recording(*args, **kwargs):
        runs.append(real(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(recovery, "minimize_dfp", recording)
    for dynamics, rates in (("biochemical", (0.25, 0.5, 0.75)),
                            ("regulatory", (0.5,))):
        run_sampling_sweep(ExperimentConfig(dynamics=dynamics, n_values=(20,),
                                            trials=1, sampling_rates=rates,
                                            baselines=()))
    assert len(runs) == 8       # four recoveries, base and warm starts each
    assert [run.max_asymmetry for run in runs] == [0.0] * 8
