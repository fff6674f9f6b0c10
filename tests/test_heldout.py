"""The held-out comparison script: its per-cell figures and one real run."""

import importlib.util
import math
from pathlib import Path

import numpy as np

from koopnet import KoopmanModel, identity_spec

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("heldout_compare",
                                               ROOT / "heldout" / "compare.py")
compare_script = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_script)


def test_cells_count_moves_against_the_parent_trial_by_trial():
    parent = {"plain": {"bio 25%": [1.0, 2.0, 4.0, None, 1.0]},
              "perturbed": {"bio 25%": [1.0, 2.01, 4.0, 3.0, 1.0]}}
    change = {"plain": {"bio 25%": [0.5, 2.0, 4.2, 1.0, 1.0]}}
    [row] = compare_script.compare(parent, change)
    # trial 3 failed on the parent's side, so only four trials pair up
    assert row["move"] == {"median": 0.0, "largest": 0.5, "better": 1,
                           "worse": 1}
    assert row["noise"]["better"] == 0 and row["noise"]["worse"] == 0
    assert math.isclose(row["noise"]["largest"], 0.005)
    assert row["parent"] == 2.0 and math.isclose(row["change"], 1.74)
    assert row["failed"] == 1
    lines = compare_script.table([row])
    assert lines[2] == ("| bio 25% | 2.0000 | 1.7400 | +0.0% | 1 / 1 "
                        "| +0.0% | 0 / 0 | 0.5% |")
    assert lines[-2] == "failed records (left out of every figure): 1"
    assert lines[-1] == "median change within ±5% in every cell: yes"


def test_a_median_outside_the_band_or_undefined_fails_the_rule():
    for change in ([1.1, 1.1], [None, None]):
        parent = {"plain": {"reg 50%": [1.0, 1.0]},
                  "perturbed": {"reg 50%": [1.0, 1.0]}}
        rows = compare_script.compare(parent, {"plain": {"reg 50%": change}})
        assert compare_script.table(rows)[-1].endswith(": no")


def test_the_perturbed_fit_moves_every_entry_by_about_epsilon():
    operator = np.arange(1.0, 10.0).reshape(3, 3)

    def fit(training):
        return KoopmanModel(operator=operator.copy(), spec=identity_spec(3),
                            residual=0.0)

    rng = np.random.default_rng(0)
    model = compare_script._perturbing_fit(fit, rng)(None)
    ratio = model.operator / operator - 1.0
    assert (ratio != 0.0).all()
    assert np.abs(ratio).max() < 10 * compare_script.EPSILON


def test_a_checkout_against_itself_moves_nothing(capsys):
    assert compare_script.main(["--parent", str(ROOT), "--change", str(ROOT),
                                "--seed", "1", "--trials", "1"]) == 0
    out = capsys.readouterr().out.splitlines()
    rows = [line.strip("| ").split(" | ") for line in out[3:-1]]
    assert [row[0] for row in rows] == ["bio 25%", "bio 50%", "bio 75%",
                                        "reg 50%"]
    for row in rows:
        assert row[1] == row[2] and row[3] == "+0.0%" and row[4] == "0 / 0"
    assert out[-1] == "median change within ±5% in every cell: yes"
