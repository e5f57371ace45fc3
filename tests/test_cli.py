import json

import numpy as np
import pytest

import sparseridge.methods as methods
from helpers import random_spec
from sparseridge import (
    ConvergenceError,
    InvalidArgumentError,
    ProblemSpec,
    RelaxationSolution,
    fit,
    gcv_select,
)
from sparseridge.cli import main
from sparseridge.data_io import load_dataset_csv


@pytest.fixture
def data_csv(tmp_path):
    path = tmp_path / "data.csv"
    code = main([
        "gen", "--n", "40", "--p", "8", "--ktrue", "3",
        "--seed", "7", "--out", str(path),
        "--truth", str(tmp_path / "truth.json"),
    ])
    assert code == 0
    return path


def test_gen_is_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        assert main([
            "gen", "--n", "20", "--p", "4", "--ktrue", "2",
            "--seed", "3", "--out", str(out),
        ]) == 0
    assert a.read_text() == b.read_text()


def test_gen_truth_payload(tmp_path, data_csv):
    truth = json.loads((tmp_path / "truth.json").read_text())
    assert truth["true_support"] == [0, 1, 2]
    assert len(truth["true_beta"]) == 8
    assert truth["sigma_sq"] > 0
    assert truth["config"]["seed"] == 7


@pytest.mark.parametrize("method", ["greedy", "brute", "bnb", "heuristic",
                                    "restricted", "randomized"])
def test_fit_methods(tmp_path, data_csv, method):
    out = tmp_path / f"fit_{method}.json"
    code = main([
        "fit", "--input", str(data_csv), "--lambda", "0.1", "--k", "3",
        "--method", method, "--out", str(out),
    ])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["config"]["method"] == method
    assert len(payload["support"]) <= 3
    assert payload["objective"] > 0
    assert len(payload["beta"]) == 8


def test_fit_randomized_defaults(tmp_path, data_csv):
    out = tmp_path / "fit.json"
    assert main([
        "fit", "--input", str(data_csv), "--lambda", "0.1", "--k", "3",
        "--method", "randomized", "--out", str(out),
    ]) == 0
    payload = json.loads(out.read_text())
    spec = ProblemSpec(data=load_dataset_csv(str(data_csv)), lam=0.1, k=3)
    est = fit(spec, "randomized", trials=100, seed=0)
    assert payload["support"] == list(est.support)
    assert payload["objective"] == est.objective
    assert payload["beta"] == est.beta.tolist()


@pytest.mark.parametrize("method", ["restricted", "randomized"])
def test_unconverged_relaxation_fails_fit(tmp_path, data_csv, monkeypatch, method):
    def stalled(spec):
        return RelaxationSolution(z=np.full(spec.p, spec.k / spec.p), value=0.0,
                                  iterations=7, kkt_residual=0.25, converged=False)

    monkeypatch.setattr(methods, "solve_v4", stalled)
    spec = random_spec(np.random.default_rng(0), 20, 6, 2, 0.1)
    with pytest.raises(ConvergenceError, match=r"v2 .* 7 iterations .*0\.25"):
        fit(spec, method)
    assert main([
        "fit", "--input", str(data_csv), "--lambda", "0.1", "--k", "3",
        "--method", method, "--out", str(tmp_path / "fit.json"),
    ]) == 3


def test_fit_normalize_flag(tmp_path, data_csv):
    out = tmp_path / "fit_norm.json"
    assert main([
        "fit", "--input", str(data_csv), "--lambda", "0.1", "--k", "2",
        "--method", "greedy", "--normalize", "--out", str(out),
    ]) == 0
    assert json.loads(out.read_text())["config"]["normalize"] is True


@pytest.mark.parametrize("which", ["v1", "v2", "v3", "v4"])
def test_relax_outputs(tmp_path, data_csv, which):
    out = tmp_path / f"relax_{which}.json"
    code = main([
        "relax", "--input", str(data_csv), "--lambda", "0.1", "--k", "3",
        "--which", which, "--out", str(out),
    ])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["converged"] is True
    assert len(payload["z"]) == 8
    assert sum(payload["z"]) <= 3 + 1e-6


def test_relaxation_values_ordered(tmp_path, data_csv):
    values = {}
    for which in ("v1", "v2", "v3", "v4"):
        out = tmp_path / f"ord_{which}.json"
        main(["relax", "--input", str(data_csv), "--lambda", "0.1",
              "--k", "3", "--which", which, "--out", str(out)])
        values[which] = json.loads(out.read_text())["value"]
    assert values["v1"] <= values["v3"] + 1e-6
    assert values["v2"] <= values["v3"] + 1e-6
    assert abs(values["v2"] - values["v4"]) <= 1e-5 * (1 + values["v4"])


def test_tune(tmp_path, data_csv):
    out = tmp_path / "gcv.json"
    code = main([
        "tune", "--input", str(data_csv), "--k", "3",
        "--grid", "1e-3,1e-2,1e-1", "--method", "greedy", "--out", str(out),
    ])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["best_lambda"] in (1e-3, 1e-2, 1e-1)
    assert len(payload["scores"]) == 3


def test_precision(tmp_path):
    sigma = tmp_path / "sigma.csv"
    rng = np.random.default_rng(0)
    A = rng.standard_normal((3, 3))
    spd = A @ A.T + 3 * np.eye(3)
    np.savetxt(sigma, spd, delimiter=",")
    out = tmp_path / "omega.json"
    code = main([
        "precision", "--input", str(sigma), "--lambda", "0.5", "--k", "4",
        "--method", "greedy", "--out", str(out),
    ])
    assert code == 0
    payload = json.loads(out.read_text())
    omega = np.asarray(payload["omega"])
    assert omega.shape == (3, 3)
    assert np.count_nonzero(omega) <= 4
    assert payload["objective_matrix_form"] == pytest.approx(
        float(np.sum((np.eye(3) - spd @ omega) ** 2) + 0.5 * np.sum(omega**2)),
        rel=1e-9,
    )


def test_bench(tmp_path):
    config = tmp_path / "bench.json"
    config.write_text(json.dumps({
        "cells": [{"n": 20, "p": 6, "k": 2}],
        "methods": ["greedy"],
        "reps": 2,
        "seed": 1,
        "lambda": 0.1,
    }))
    out = tmp_path / "report.csv"
    assert main(["bench", "--config", str(config), "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 3


def test_bench_passes_only_given_keys(tmp_path, monkeypatch):
    # Defaults live in run_benchmark alone; an integral float count passes.
    seen = {}

    def record(**kwargs):
        seen.update(kwargs)
        raise InvalidArgumentError("stop")

    monkeypatch.setattr("sparseridge.cli.run_benchmark", record)
    config = tmp_path / "bench.json"
    config.write_text(json.dumps({"cells": [], "methods": ["greedy"], "reps": 2.0, "lambda": 1}))
    assert main(["bench", "--config", str(config), "--out", str(tmp_path / "r.csv")]) == 2
    assert seen == {"cells": [], "methods": ["greedy"], "reps": 2.0, "lam": 1,
                    "time_budget": None, "method_options": None}


def test_gen_seed_beyond_float_range(tmp_path):
    # a 401-digit seed is a valid NumPy seed; it used to overflow in validation
    assert main([
        "gen", "--n", "20", "--p", "4", "--ktrue", "2",
        "--seed", str(10**400), "--out", str(tmp_path / "d.csv"),
    ]) == 0
    assert load_dataset_csv(tmp_path / "d.csv").X.shape == (20, 4)


def test_gen_negative_seed_exits_2(tmp_path):
    assert main([
        "gen", "--n", "20", "--p", "4", "--ktrue", "2",
        "--seed", "-1", "--out", str(tmp_path / "d.csv"),
    ]) == 2
    assert not (tmp_path / "d.csv").exists()


@pytest.mark.parametrize("config, match", [
    ({"methods": ["greedy"]}, '"cells"'),
    ({"cells": [{"n": 20, "p": 6, "k": 2}]}, '"methods"'),
    ([1, 2], '"cells"'),
    ({"cells": [{"n": 20, "p": 6, "k": 2}], "methods": ["greedy"], "reps": "x"}, '"reps"'),
    ({"cells": [{"n": 20, "p": 6, "k": 2}], "methods": ["greedy"], "lambda": None},
     '"lambda"'),
    ({"cells": [{"n": 20, "p": 6, "k": 2}, {"n": 20, "p": 6}], "methods": ["greedy"]}, '"k"'),
    ({"cells": [{"n": 20, "p": 6, "k": 2}], "methods": ["greedy"], "seed": -1}, "seed"),
    ({"cells": [{"n": 20, "p": 6, "k": 2}], "methods": "greedy"}, "not the string 'greedy'"),
    ({"cells": [{"n": 20, "p": 6.5, "k": 2}], "methods": ["greedy"]}, "p must be an integer"),
    ({"cells": [{"n": 3, "p": 6, "k": 4}], "methods": ["greedy"]}, "k <= n"),
    ({"cells": [{"n": 20, "p": 6, "k": 2}], "methods": ["greedy"], "time_budget": "abc"},
     "time_budget"),
    ({"cells": [{"n": 20, "p": 6, "k": 2}], "methods": ["greedy"], "time_budget": -1},
     "time_budget"),
    ({"cells": [{"n": 20, "p": 6, "k": 2}], "methods": ["greedy"], "time_budget": float("nan")},
     "time_budget"),
    ({"cells": [{"n": 20, "p": 6, "k": 2}], "methods": ["greedy"], "method_options": ["greedy"]},
     "method_options"),
    ({"cells": [{"n": 20, "p": 6, "k": 2}], "methods": ["greedy"], "method_options": {"greedy": 5}},
     "method_options"),
    ({"cells": [{"n": 20, "p": 6, "k": 2}], "methods": ["greedy"], "reps": 2.7}, '"reps"'),
    ({"cells": [{"n": 20, "p": 6, "k": 2}], "methods": ["greedy"], "seed": 1.5}, '"seed"'),
    ({"cells": [{"n": 20, "p": 6, "k": 2}], "methods": ["greedy"], "reps": True}, '"reps"'),
    ({"cells": [{"n": 20, "p": 6, "k": 2}], "methods": ["greedy"], "rho": "0.5"}, '"rho"'),
])
def test_malformed_bench_config_exits_2(tmp_path, capsys, monkeypatch, config, match):
    def no_fit(*args, **kwargs):
        raise AssertionError("a fit ran before the config was checked")

    monkeypatch.setattr("sparseridge.bench.fit", no_fit)
    path = tmp_path / "bench.json"
    path.write_text(json.dumps(config))
    assert main(["bench", "--config", str(path), "--out", str(tmp_path / "r.csv")]) == 2
    assert match in capsys.readouterr().err
    assert not (tmp_path / "r.csv").exists()


def test_tune_bad_grid_value_exits_2(tmp_path, capsys, data_csv):
    assert main([
        "tune", "--input", str(data_csv), "--k", "3",
        "--grid", "0.1,abc", "--out", str(tmp_path / "gcv.json"),
    ]) == 2
    assert "'abc'" in capsys.readouterr().err
    assert not (tmp_path / "gcv.json").exists()


def test_unknown_method_option_rejected(tmp_path):
    spec = random_spec(np.random.default_rng(0), 20, 6, 2, 0.1)
    with pytest.raises(InvalidArgumentError, match="'trails'"):
        fit(spec, "greedy", trails=5)
    with pytest.raises(InvalidArgumentError, match="'trails'"):
        gcv_select(spec.data, k=2, grid=[0.1], method="randomized", trails=5)
    config = tmp_path / "bench.json"
    config.write_text(json.dumps({
        "cells": [{"n": 20, "p": 6, "k": 2}],
        "methods": ["greedy", "randomized"],
        "reps": 1,
        "method_options": {"randomized": {"trails": 5}},
    }))
    assert main(["bench", "--config", str(config), "--out", str(tmp_path / "r.csv")]) == 2
    assert not (tmp_path / "r.csv").exists()


def test_header_and_response_column(tmp_path):
    path = tmp_path / "named.csv"
    path.write_text("a,b,target\n1,2,3\n4,5,6\n7,8,10\n2,1,4\n")
    out = tmp_path / "fit.json"
    code = main([
        "fit", "--input", str(path), "--header", "--response-col", "target",
        "--lambda", "0.5", "--k", "1", "--method", "greedy", "--out", str(out),
    ])
    assert code == 0
    assert len(json.loads(out.read_text())["beta"]) == 2


class TestExitCodes:
    def test_missing_required_argument(self):
        assert main(["fit", "--lambda", "0.1"]) == 2

    def test_unknown_method(self, tmp_path, data_csv):
        assert main([
            "fit", "--input", str(data_csv), "--lambda", "0.1", "--k", "2",
            "--method", "magic", "--out", str(tmp_path / "x.json"),
        ]) == 2

    def test_invalid_k(self, tmp_path, data_csv):
        assert main([
            "fit", "--input", str(data_csv), "--lambda", "0.1", "--k", "0",
            "--method", "greedy", "--out", str(tmp_path / "x.json"),
        ]) == 2

    def test_missing_input_file(self, tmp_path):
        assert main([
            "fit", "--input", str(tmp_path / "absent.csv"), "--lambda", "0.1",
            "--k", "1", "--method", "greedy", "--out", str(tmp_path / "x.json"),
        ]) == 4

    def test_enumeration_cap(self, tmp_path):
        path = tmp_path / "wide.csv"
        assert main([
            "gen", "--n", "40", "--p", "30", "--ktrue", "5",
            "--seed", "1", "--out", str(path),
        ]) == 0
        assert main([
            "fit", "--input", str(path), "--lambda", "0.1", "--k", "15",
            "--method", "brute", "--out", str(tmp_path / "x.json"),
        ]) == 3

    def test_bad_response_column(self, tmp_path, data_csv):
        assert main([
            "fit", "--input", str(data_csv), "--response-col", "nope",
            "--lambda", "0.1", "--k", "1", "--method", "greedy",
            "--out", str(tmp_path / "x.json"),
        ]) == 2

    @pytest.mark.parametrize("method, flag", [("greedy", "--trials"), ("greedy", "--delta"),
                                              ("randomized", "--delta"), ("heuristic", "--seed")])
    def test_option_the_method_does_not_take(self, tmp_path, data_csv, method, flag):
        out = tmp_path / "x.json"
        assert main([
            "fit", "--input", str(data_csv), "--lambda", "0.1", "--k", "2",
            "--method", method, flag, "5", "--out", str(out),
        ]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("method", ["heuristic", "restricted"])
    def test_nan_delta(self, tmp_path, data_csv, method):
        out = tmp_path / "x.json"
        assert main([
            "fit", "--input", str(data_csv), "--lambda", "0.1", "--k", "2",
            "--method", method, "--delta", "nan", "--out", str(out),
        ]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("level", ["nan", "inf"])
    def test_non_finite_big_m_level(self, tmp_path, data_csv, level):
        assert main([
            "relax", "--input", str(data_csv), "--lambda", "0.1", "--k", "2",
            "--which", "v3", "--vupper", level, "--out", str(tmp_path / "x.json"),
        ]) == 2

    def test_nonconverged_relaxation(self, tmp_path, data_csv, monkeypatch):
        import sparseridge.cli as cli
        from sparseridge import RelaxationSolution

        def stub(spec, *a, **kw):
            return RelaxationSolution(
                z=np.zeros(spec.p), value=1.0, iterations=1,
                kkt_residual=1.0, converged=False,
            )

        monkeypatch.setattr(cli, "solve_v4", stub)
        out = tmp_path / "nc.json"
        assert main([
            "relax", "--input", str(data_csv), "--lambda", "0.1", "--k", "2",
            "--which", "v4", "--out", str(out),
        ]) == 3
        assert json.loads(out.read_text())["converged"] is False
