import csv
import json
import subprocess
import sys
import warnings

import numpy as np
import pytest

from conftest import child_env
from leafage import cli, models
from leafage.cli import main
from leafage.data import Dataset, SplitSpec, train_test_split
from leafage.report import load_report


def run(argv):
    return main([str(a) for a in argv])


def three_class_csv(path):
    rng = np.random.default_rng(0)
    rows = ["a,b,label"]
    for i in range(60):
        rows.append(f"{rng.normal()},{rng.normal()},{['x','y','z'][i % 3]}")
    path.write_text("\n".join(rows) + "\n")
    return path


def must_not_fit(*args, **kwargs):
    raise AssertionError("a model was trained before the options were checked")


def read_results(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestGenAd:
    def test_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "ad.csv"
        assert run(["gen-ad", "--n-per-class", 10, "--seed", 3, "--out", out]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "x1,x2,label"
        assert len(lines) == 21

    def test_deterministic(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        run(["gen-ad", "--n-per-class", 25, "--seed", 5, "--out", a])
        run(["gen-ad", "--n-per-class", 25, "--seed", 5, "--out", b])
        assert a.read_bytes() == b.read_bytes()

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("LEAFAGE_SEED", "5")
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        run(["gen-ad", "--n-per-class", 10, "--out", a])
        run(["gen-ad", "--n-per-class", 10, "--seed", 5, "--out", b])
        assert a.read_bytes() == b.read_bytes()

    def test_negative_seed_usage_error(self, tmp_path):
        out = tmp_path / "ad.csv"
        with pytest.raises(SystemExit) as exc:
            run(["gen-ad", "--n-per-class", 10, "--seed", -1, "--out", out])
        assert exc.value.code == 2
        assert not out.exists()

    def test_non_integer_seed_usage_error(self, tmp_path, capsys):
        out = tmp_path / "ad.csv"
        with pytest.raises(SystemExit) as exc:
            run(["gen-ad", "--seed", "abc", "--out", out])
        assert exc.value.code == 2
        assert "must be a non-negative integer, got 'abc'" in capsys.readouterr().err
        assert not out.exists()


class TestExplain:
    def test_ad_knn_report_shape(self, tmp_path):
        out = tmp_path / "report.json"
        code = run(
            ["explain", "--train", "ad", "--model", "knn", "--instance", 4,
             "--seed", 1, "--out", out]
        )
        assert code == 0
        report = load_report(str(out))
        assert len(report["importances"]) == 2
        assert len(report["allies"]) == 5
        assert len(report["enemies"]) == 5
        assert report["model"] == "knn"

    def test_k_passthrough(self, tmp_path):
        out = tmp_path / "report.json"
        run(["explain", "--train", "ad", "--model", "knn", "--instance", 4,
             "--k", 3, "--seed", 1, "--out", out])
        report = load_report(str(out))
        assert len(report["allies"]) == 3
        assert len(report["enemies"]) == 3

    def test_svg_emitted(self, tmp_path):
        out = tmp_path / "report.json"
        svg = tmp_path / "report.svg"
        run(["explain", "--train", "ad", "--model", "lda", "--instance", 0,
             "--seed", 1, "--out", out, "--svg", svg])
        assert svg.read_text().startswith("<svg")

    def test_malformed_instance_json_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        with pytest.raises(SystemExit) as exc:
            run(["explain", "--train", "ad", "--model", "knn",
                 "--instance", "{broken", "--seed", 1, "--out", out])
        assert exc.value.code == 2

    def test_instance_json_not_an_object_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        with pytest.raises(SystemExit) as exc:
            run(["explain", "--train", "ad", "--model", "knn",
                 "--instance", "[1, 2]", "--seed", 1, "--out", out])
        assert exc.value.code == 2
        assert "must be an object" in capsys.readouterr().err
        assert not out.exists()

    def test_byte_order_marked_csv(self, tmp_path):
        # A spreadsheet's "CSV UTF-8" export: the BOM must not stick to
        # the first column's name.
        train = tmp_path / "train.csv"
        rng = np.random.default_rng(0)
        rows = [f"{a},{b},{'AB'[i % 2]}" for i, (a, b) in
                enumerate(rng.normal(size=(40, 2)))]
        train.write_text("\n".join(["x1,x2,label", *rows]) + "\n",
                         encoding="utf-8-sig")
        out = tmp_path / "report.json"
        code = run(["explain", "--train", train, "--model", "knn",
                    "--instance", json.dumps({"x1": 0.1, "x2": 0.9}),
                    "--seed", 1, "--out", out])
        assert code == 0
        assert list(load_report(str(out))["instance"]) == ["x1", "x2"]

    def test_inline_json_instance(self, tmp_path):
        out = tmp_path / "report.json"
        code = run(
            ["explain", "--train", "ad", "--model", "knn",
             "--instance", json.dumps({"x1": 0.1, "x2": 0.9}),
             "--seed", 1, "--out", out]
        )
        assert code == 0
        report = load_report(str(out))
        assert report["instance"] == {"x1": 0.1, "x2": 0.9}

    def test_wrong_feature_names_data_error(self, tmp_path):
        out = tmp_path / "report.json"
        code = run(
            ["explain", "--train", "ad", "--model", "knn",
             "--instance", json.dumps({"a": 1.0, "x2": 0.0}),
             "--seed", 1, "--out", out]
        )
        assert code == 3

    def test_non_finite_instance_exit_5_without_report(self, tmp_path):
        out = tmp_path / "report.json"
        code = run(["explain", "--train", "ad", "--model", "lr",
                    "--instance", '{"x1": NaN, "x2": 1.0}', "--out", out])
        assert code == 5
        assert not out.exists()

    def test_unknown_model_usage_error(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        with pytest.raises(SystemExit) as exc:
            run(["explain", "--train", "ad", "--model", "quantum",
                 "--instance", 1, "--out", out])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(
            "argument --model: invalid choice: 'quantum' "
            "(choose from 'lr', 'svm', 'lda', 'dt', 'rf', 'knn')\n"
        )
        assert not out.exists()

    def test_negative_seed_usage_error(self, tmp_path):
        out = tmp_path / "report.json"
        with pytest.raises(SystemExit) as exc:
            run(["explain", "--train", "ad", "--instance", 1, "--seed", -2,
                 "--out", out])
        assert exc.value.code == 2
        assert not out.exists()

    @pytest.mark.parametrize("value", [1e300, 1.7e308])
    def test_far_instance_exit_5_without_report(self, tmp_path, value):
        X = 0.5 + 0.0094 * np.random.default_rng(0).standard_normal((60, 2))
        train = tmp_path / "narrow.csv"
        train.write_text("a,b,label\n" + "".join(
            f"{a!r},{b!r},{'p' if a > 0.5 else 'n'}\n" for a, b in X.tolist()
        ))
        out = tmp_path / "report.json"
        code = run(["explain", "--train", train, "--instance",
                    json.dumps({"a": value, "b": 0.5}), "--out", out])
        assert code == 5
        assert not out.exists()

    @pytest.mark.parametrize(
        "value", ["true", '"0.5"', "null", "[1]", "1" + "0" * 400]
    )
    def test_non_number_instance_exit_3_without_report(self, tmp_path, value):
        out = tmp_path / "report.json"
        code = run(["explain", "--train", "ad", "--model", "lr",
                    "--instance", '{"x1": %s, "x2": 1}' % value, "--out", out])
        assert code == 3
        assert not out.exists()

    @pytest.mark.parametrize("model", ["dt", "rf"])
    def test_ulp_adjacent_values_exit_0(self, tmp_path, model):
        # After standardization the first and last x are adjacent doubles
        # whose midpoint rounds onto the lower one.
        csv = tmp_path / "ulp.csv"
        csv.write_text(
            "x,label\n1.8844673057094008,A\n-1.1107857602089624,B\n"
            "-3.6490349497758876,A\n2.214883401940817,B\n"
            "0.25354322475725866,A\n-1.8975812444104436,B\n"
            "1.884467305709401,B\n"
        )
        out = tmp_path / "report.json"
        code = run(["explain", "--train", csv, "--model", model,
                    "--instance", 0, "--seed", 0, "--out", out])
        assert code == 0
        assert load_report(str(out))["model"] == model

    @pytest.mark.parametrize("option, value", [("--k", 0), ("--i-small", 1)])
    def test_out_of_range_config_exit_3_before_training(
        self, tmp_path, monkeypatch, option, value
    ):
        monkeypatch.setattr(models, "fit", must_not_fit)
        out = tmp_path / "report.json"
        code = run(["explain", "--train", "ad", "--model", "knn", "--instance", 4,
                    option, value, "--seed", 1, "--out", out])
        assert code == 3
        assert not out.exists()

    def test_missing_train_file_exit_3(self, tmp_path):
        code = run(["explain", "--train", tmp_path / "nope.csv", "--model", "knn",
                    "--instance", 0, "--seed", 1, "--out", tmp_path / "r.json"])
        assert code == 3

    def test_out_of_range_index_exit_3(self, tmp_path):
        code = run(["explain", "--train", "ad", "--n-per-class", 5, "--model", "knn",
                    "--instance", 999, "--seed", 1, "--out", tmp_path / "r.json"])
        assert code == 3

    def test_csv_training_set(self, tmp_path):
        csv = tmp_path / "tiny.csv"
        csv.write_text("a,b,label\n1,2,x\n3,4,x\n5,6,y\n2,8,y\n")
        code = run(["explain", "--train", csv, "--label-column", "label",
                    "--model", "knn", "--instance", 0, "--seed", 1,
                    "--out", tmp_path / "r.json"])
        assert code == 0
        report = load_report(str(tmp_path / "r.json"))
        assert report["dataset"] == str(csv)
        assert list(report["instance"]) == ["a", "b"]

    @pytest.mark.parametrize("model", ["knn", "lr"])
    def test_three_class_csv_exit_4_without_report(self, tmp_path, model):
        csv_path = three_class_csv(tmp_path / "three.csv")
        out = tmp_path / "r.json"
        code = run(["explain", "--train", csv_path, "--model", model,
                    "--instance", 2, "--seed", 1, "--out", out])
        assert code == 4
        assert not out.exists()

    def test_deterministic_report_bytes(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        for out in (a, b):
            run(["explain", "--train", "ad", "--model", "rf", "--instance", 7,
                 "--seed", 11, "--out", out])
        assert a.read_bytes() == b.read_bytes()


class TestEvaluate:
    def test_baseline_only_all_means_half(self, tmp_path):
        out = tmp_path / "results.csv"
        code = run(
            ["evaluate", "--datasets", "ad", "--n-per-class", 40,
             "--classifiers", "knn,lda", "--strategies", "baseline",
             "--seed", 2, "--out", out]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 3
        for line in lines[1:]:
            cells = line.split(",")
            assert cells[1] == "baseline"
            assert float(cells[2]) == 0.5
            assert float(cells[3]) == 0.0

    def test_byte_identical_reruns(self, tmp_path):
        args = ["evaluate", "--datasets", "ad", "--n-per-class", 40,
                "--classifiers", "dt", "--strategies", "leafage,baseline",
                "--lime-samples", 500, "--seed", 9]
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        ta = tmp_path / "a.txt"
        tb = tmp_path / "b.txt"
        run(args + ["--out", a, "--table", ta])
        run(args + ["--out", b, "--table", tb])
        assert a.read_bytes() == b.read_bytes()
        assert ta.read_bytes() == tb.read_bytes()

    def test_one_vs_rest_expansion(self, tmp_path):
        csv_path = three_class_csv(tmp_path / "three.csv")
        out = tmp_path / "results.csv"
        code = run(
            ["evaluate", "--datasets", csv_path, "--label-column", "label",
             "--classifiers", "knn", "--strategies", "baseline",
             "--seed", 0, "--out", out]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 4  # header + 3 one-vs-rest settings
        settings = {line.split(",")[0] for line in lines[1:]}
        assert len(settings) == 3

    def test_six_classifiers_two_strategies_twelve_rows(self, tmp_path):
        out = tmp_path / "results.csv"
        code = run(
            ["evaluate", "--datasets", "ad", "--n-per-class", 30,
             "--classifiers", "lr,svm,lda,dt,rf,knn",
             "--strategies", "leafage,baseline", "--seed", 0, "--out", out]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 13  # header + 6 classifiers x 2 strategies

    def test_unknown_classifier_exit_4(self, tmp_path, capsys):
        code = run(["evaluate", "--datasets", "ad", "--n-per-class", 20,
                    "--classifiers", "quantum", "--strategies", "baseline",
                    "--seed", 0, "--out", tmp_path / "r.csv"])
        assert code == 4
        assert capsys.readouterr().err == (
            "leafage: model error: unknown classifier 'quantum'; "
            "choose from ('lr', 'svm', 'lda', 'dt', 'rf', 'knn')\n"
        )

    def test_table_to_stdout(self, tmp_path, capsys):
        run(["evaluate", "--datasets", "ad", "--n-per-class", 30,
             "--classifiers", "knn", "--strategies", "baseline",
             "--seed", 1, "--out", tmp_path / "r.csv"])
        captured = capsys.readouterr()
        assert "50.0 (0.0)" in captured.out


class TestEvaluateSeeds:
    ARGS = ["evaluate", "--datasets", "ad", "--n-per-class", 30,
            "--classifiers", "lr,knn", "--strategies", "leafage,lime,baseline",
            "--lime-samples", 200]

    @staticmethod
    def must_not_run(*args, **kwargs):
        raise AssertionError("run_setting called before the options were checked")

    def test_pooled_over_seeds(self, tmp_path, monkeypatch):
        run_setting = cli.run_setting
        write_results_csv = cli.write_results_csv
        per_call = []
        pooled = []

        def recording_run_setting(train, test, *args, **kwargs):
            summaries = run_setting(train, test, *args, **kwargs)
            per_call.append((test.n, summaries))
            return summaries

        def recording_write(summaries, path, alpha):
            pooled.extend(summaries)
            return write_results_csv(summaries, path, alpha=alpha)

        monkeypatch.setattr(cli, "run_setting", recording_run_setting)
        monkeypatch.setattr(cli, "write_results_csv", recording_write)
        out = tmp_path / "r.csv"
        assert run(self.ARGS + ["--seed", 0, 1, 2, "--out", out]) == 0
        rows = read_results(out)
        assert len(rows) == len(pooled) == 6
        assert len(per_call) == 2 * 3  # two classifiers, three seeds

        for row, summary in zip(rows, pooled):
            setting = summary.setting
            calls = [(n, s) for n, ss in per_call for s in ss if s.setting == setting]
            assert len(calls) == 3
            assert int(row["n"]) + int(row["n_skipped"]) == sum(n for n, _ in calls)
            vector = np.concatenate([s.per_instance_auc for _, s in calls])
            np.testing.assert_array_equal(summary.per_instance_auc, vector)
            assert float(row["mean_auc"]) == vector[~np.isnan(vector)].mean()

        for classifier in ("lr", "knn"):
            masks = [np.isnan(s.per_instance_auc) for s in pooled
                     if s.setting[2] == classifier]
            assert len(masks) == 3
            assert all(np.array_equal(masks[0], m) for m in masks[1:])

    def test_p_changes_results(self, tmp_path):
        outs = []
        for p in (0.5, 0.95):
            out = tmp_path / f"p{p}.csv"
            assert run(self.ARGS + ["--seed", 0, "--p", p, "--out", out]) == 0
            outs.append(out.read_bytes())
        assert outs[0] != outs[1]

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        args = self.ARGS[:7] + ["--strategies", "leafage"]
        assert run(args + ["--seed", 4, "--out", a]) == 0
        monkeypatch.setenv("LEAFAGE_SEED", "4")
        assert run(args + ["--out", b]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_duplicate_seeds_usage_error(self, tmp_path):
        out = tmp_path / "r.csv"
        with pytest.raises(SystemExit) as exc:
            run(self.ARGS + ["--seed", 1, 1, "--out", out])
        assert exc.value.code == 2
        assert not out.exists()

    def test_negative_seed_usage_error(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "run_setting", self.must_not_run)
        out = tmp_path / "r.csv"
        with pytest.raises(SystemExit) as exc:
            run(self.ARGS + ["--seed", 1, -1, "--out", out])
        assert exc.value.code == 2
        assert not out.exists()

    def test_negative_env_seed_data_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "run_setting", self.must_not_run)
        monkeypatch.setenv("LEAFAGE_SEED", "-3")
        out = tmp_path / "r.csv"
        assert run(self.ARGS + ["--out", out]) == 3
        assert "LEAFAGE_SEED must be a non-negative integer" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "option, value",
        [("--classifiers", ""), ("--strategies", ""), ("--datasets", ""),
         ("--classifiers", ",")],
    )
    def test_empty_list_usage_error(self, tmp_path, monkeypatch, option, value):
        monkeypatch.setattr(cli, "run_setting", self.must_not_run)
        out = tmp_path / "r.csv"
        with pytest.raises(SystemExit) as exc:
            run(self.ARGS + [f"{option}={value}", "--seed", 0, "--out", out])
        assert exc.value.code == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "option, value",
        [("--classifiers", "lr,lr"), ("--datasets", "ad,ad"),
         ("--strategies", "leafage,lime,leafage")],
    )
    def test_duplicate_list_values_usage_error(self, tmp_path, monkeypatch,
                                               option, value):
        monkeypatch.setattr(cli, "run_setting", self.must_not_run)
        out = tmp_path / "r.csv"
        with pytest.raises(SystemExit) as exc:
            run(self.ARGS + [option, value, "--seed", 0, "--out", out])
        assert exc.value.code == 2
        assert not out.exists()

    def test_unknown_classifier_in_list_exit_4_before_any_setting(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(cli, "run_setting", self.must_not_run)
        out = tmp_path / "r.csv"
        code = run(self.ARGS + ["--classifiers", "lr,svm,lda,dt,rf,foo",
                                "--seed", 0, "--out", out])
        assert code == 4
        assert not out.exists()

    @pytest.mark.parametrize("alpha", [0, 1, 1.5, -0.1, "nan"])
    def test_alpha_outside_open_unit_interval_exit_3(self, tmp_path, monkeypatch,
                                                     alpha):
        monkeypatch.setattr(cli, "run_setting", self.must_not_run)
        out = tmp_path / "r.csv"
        code = run(self.ARGS + ["--seed", 0, "--alpha", alpha, "--out", out])
        assert code == 3
        assert not out.exists()

    def test_missing_csv_exit_3_before_any_setting(self, tmp_path, monkeypatch,
                                                  capsys):
        monkeypatch.setattr(cli, "run_setting", self.must_not_run)
        missing = tmp_path / "missing.csv"
        out = tmp_path / "r.csv"
        code = run(self.ARGS + ["--datasets", f"ad,{missing}", "--seed", 0,
                                "--out", out])
        assert code == 3
        assert f"cannot open {missing}" in capsys.readouterr().err
        assert not out.exists()

    def test_each_csv_read_once(self, tmp_path, monkeypatch):
        paths = [tmp_path / "a.csv", three_class_csv(tmp_path / "b.csv")]
        assert run(["gen-ad", "--n-per-class", 20, "--out", paths[0]]) == 0
        load_csv = cli.load_csv
        reads = []

        def counting_load_csv(path, label_column):
            reads.append(path)
            return load_csv(path, label_column)

        monkeypatch.setattr(cli, "load_csv", counting_load_csv)
        out = tmp_path / "r.csv"
        code = run(["evaluate", "--datasets", ",".join(map(str, paths)),
                    "--classifiers", "lr", "--strategies", "baseline",
                    "--seed", 0, 1, 2, "--out", out])
        assert code == 0
        assert reads == [str(path) for path in paths]
        assert len(read_results(out)) == 1 + 3  # two-class a, one-vs-rest b


    @pytest.mark.parametrize("option, value", [("--i-small", 1), ("--lime-samples", 0)])
    def test_out_of_range_config_exit_3_before_training(
        self, tmp_path, monkeypatch, option, value
    ):
        monkeypatch.setattr(models, "fit", must_not_fit)
        out = tmp_path / "r.csv"
        code = run(self.ARGS + [option, value, "--seed", 0, "--out", out])
        assert code == 3
        assert not out.exists()


def wide_value_csv(path, wide_row, spread, n=40):
    """x1 is the row index and x2 spreads over ``spread``, except for a
    value of 1e200 in row ``wide_row``."""
    x2 = spread * np.random.default_rng(1).standard_normal(n)
    x2[wide_row] = 1e200
    rows = ["x1,x2,label"] + [f"{i},{float(x2[i])!r},{'ab'[i % 2]}" for i in range(n)]
    path.write_text("\n".join(rows) + "\n")
    return path


def default_split_rows(n, seed):
    """Row indices of the train and test parts of evaluate's split."""
    ds = Dataset(np.arange(n, dtype=float)[:, None], np.arange(n) % 2, ["i"], ["a", "b"])
    parts = train_test_split(ds, SplitSpec(seed=seed))
    return [part.features[:, 0].astype(int) for part in parts]


class TestTooWideForADouble:
    """A feature value whose standardization overflows a double is a data
    error, reported before any output is written and without a warning."""

    def run_quietly(self, argv, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(argv)
        err = capsys.readouterr().err
        assert "Warning" not in err
        return code, err

    def test_explain_exit_3_without_report(self, tmp_path, capsys):
        csv_path = wide_value_csv(tmp_path / "wide.csv", wide_row=5, spread=1.0)
        out = tmp_path / "r.json"
        code, err = self.run_quietly(
            ["explain", "--train", csv_path, "--model", "lr", "--instance", 0,
             "--seed", 1, "--out", out], capsys)
        assert code == 3
        assert "column 1" in err
        assert not out.exists()

    @pytest.mark.parametrize("part, spread, message", [
        (0, 1.0, "column 1"),
        (1, 1e-150, "standardized test row"),
    ])
    def test_evaluate_exit_3_without_results(self, tmp_path, capsys, part, spread,
                                             message):
        # Part 0 puts the wide value in the training rows, part 1 in the test rows.
        wide_row = default_split_rows(40, seed=2)[part][0]
        csv_path = wide_value_csv(tmp_path / "wide.csv", wide_row, spread)
        out = tmp_path / "results.csv"
        code, err = self.run_quietly(
            ["evaluate", "--datasets", csv_path, "--classifiers", "lr,knn,rf",
             "--strategies", "baseline", "--seed", 2, "--out", out], capsys)
        assert code == 3
        assert message in err
        assert not out.exists()


class TestUnwritableOutput:
    MISSING = "no-such-dir"

    def test_gen_ad(self, tmp_path, capsys):
        out = tmp_path / self.MISSING / "ad.csv"
        assert run(["gen-ad", "--n-per-class", 10, "--out", out]) == 3
        err = capsys.readouterr().err.strip()
        assert err == f"leafage: data error: cannot write {out}: No such file or directory"

    @pytest.mark.parametrize("option", ["--out", "--svg"])
    def test_explain(self, tmp_path, option):
        paths = {"--out": tmp_path / "r.json", "--svg": tmp_path / "v.svg"}
        paths[option] = tmp_path / self.MISSING / "x"
        code = run(["explain", "--train", "ad", "--model", "knn", "--instance", 2,
                    "--n-per-class", 30, "--out", paths["--out"],
                    "--svg", paths["--svg"]])
        assert code == 3
        assert not any(path.exists() for path in paths.values())

    def test_render(self, tmp_path):
        report = tmp_path / "report.json"
        run(["explain", "--train", "ad", "--model", "knn", "--instance", 2,
             "--n-per-class", 30, "--out", report])
        svg = tmp_path / self.MISSING / "v.svg"
        assert run(["render", "--report", report, "--out", svg]) == 3

    @pytest.mark.parametrize("option", ["--out", "--table"])
    def test_evaluate_exit_3_before_any_setting(self, tmp_path, monkeypatch, option):
        monkeypatch.setattr(cli, "run_setting", TestEvaluateSeeds.must_not_run)
        paths = {"--out": tmp_path / "r.csv", "--table": tmp_path / "t.txt"}
        paths[option] = tmp_path / self.MISSING / "x"
        code = run(TestEvaluateSeeds.ARGS + ["--seed", 0, "--out", paths["--out"],
                                             "--table", paths["--table"]])
        assert code == 3
        assert not any(path.exists() for path in paths.values())


class TestCollidingPaths:
    """An output that names an input or another output is a usage error,
    raised before any file is read or written."""

    @staticmethod
    def assert_usage_error(argv, capsys):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2
        assert "names the same file as" in capsys.readouterr().err

    def test_explain_out_is_the_training_csv(self, tmp_path, monkeypatch, capsys):
        data = tmp_path / "d.csv"
        run(["gen-ad", "--n-per-class", 20, "--out", data])
        before = data.read_bytes()
        monkeypatch.setattr(models, "fit_on_standardized", must_not_fit)
        self.assert_usage_error(
            ["explain", "--train", data, "--instance", 0, "--out", data], capsys
        )
        assert data.read_bytes() == before

    def test_explain_svg_is_the_report(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(models, "fit_on_standardized", must_not_fit)
        out = tmp_path / "p"
        self.assert_usage_error(
            ["explain", "--train", "ad", "--instance", 0, "--out", out, "--svg", out],
            capsys,
        )
        assert not out.exists()

    def test_evaluate_table_is_the_csv(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "run_setting", TestEvaluateSeeds.must_not_run)
        out = tmp_path / "r.csv"
        out.write_text("kept\n")
        self.assert_usage_error(
            TestEvaluateSeeds.ARGS + ["--seed", 0, "--out", out, "--table", out],
            capsys,
        )
        assert out.read_text() == "kept\n"

    @pytest.mark.parametrize("link", [False, True])
    def test_render_out_is_the_report(self, tmp_path, capsys, link):
        report = tmp_path / "r.json"
        run(["explain", "--train", "ad", "--model", "knn", "--instance", 2,
             "--n-per-class", 30, "--out", report])
        before = report.read_bytes()
        out = report
        if link:
            out = tmp_path / "link.json"
            out.symlink_to(report)
        self.assert_usage_error(["render", "--report", report, "--out", out], capsys)
        assert report.read_bytes() == before


class TestUnreadableInput:
    """An input that is not UTF-8, or holds a field longer than the csv
    module's limit, is a data error (exit 3) and writes nothing."""

    UNDECODABLE = b"a,b,label\n1,2,x\n3,\xff,y\n4,5,x\n"
    OVER_LONG = ('a,b,label\n1,2,x\n3,"' + "9" * 200_000 + '",y\n').encode()

    @pytest.mark.parametrize("content", [UNDECODABLE, OVER_LONG],
                             ids=["undecodable", "over-long"])
    def test_explain_train(self, tmp_path, capsys, content):
        data = tmp_path / "d.csv"
        data.write_bytes(content)
        out = tmp_path / "r.json"
        assert run(["explain", "--train", data, "--instance", 0, "--out", out]) == 3
        assert f"cannot read {data}" in capsys.readouterr().err
        assert not out.exists()

    def test_evaluate_datasets(self, tmp_path):
        data = tmp_path / "d.csv"
        data.write_bytes(self.UNDECODABLE)
        out = tmp_path / "r.csv"
        code = run(["evaluate", "--datasets", data, "--classifiers", "lr",
                    "--strategies", "baseline", "--out", out])
        assert code == 3
        assert not out.exists()

    def test_evaluate_names_the_csv_with_a_non_finite_cell(self, tmp_path, capsys):
        good, bad = tmp_path / "a.csv", tmp_path / "b.csv"
        rows = "".join(f"{i},{i % 3},{'xy'[i % 2]}\n" for i in range(20))
        good.write_text("a,b,label\n" + rows)
        bad.write_text("a,b,label\n" + rows.replace("4,1,x", "4,inf,x"))
        out = tmp_path / "r.csv"
        code = run(["evaluate", "--datasets", f"{good},{bad}", "--classifiers", "lr",
                    "--strategies", "baseline", "--out", out])
        assert code == 3
        err = capsys.readouterr().err
        assert f"{bad}: non-finite feature value at row 5, column 'b'" in err
        assert not out.exists()

    def test_render_report(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        report.write_bytes(b'{"schema_version": "\xff"}')
        svg = tmp_path / "v.svg"
        assert run(["render", "--report", report, "--out", svg]) == 3
        assert f"cannot read {report}" in capsys.readouterr().err
        assert not svg.exists()


class TestRender:
    def test_render_roundtrip(self, tmp_path):
        report = tmp_path / "report.json"
        svg = tmp_path / "view.svg"
        run(["explain", "--train", "ad", "--model", "knn", "--instance", 2,
             "--seed", 4, "--out", report])
        assert run(["render", "--report", report, "--out", svg]) == 0
        assert svg.read_text().startswith("<svg")

    def test_render_rejects_tampered_report(self, tmp_path):
        report = tmp_path / "report.json"
        run(["explain", "--train", "ad", "--model", "knn", "--instance", 2,
             "--seed", 4, "--out", report])
        doc = json.loads(report.read_text())
        doc["extra"] = True
        report.write_text(json.dumps(doc))
        assert run(["render", "--report", report, "--out", tmp_path / "v.svg"]) == 3

    def test_render_rejects_non_numeric_feature(self, tmp_path):
        report = tmp_path / "report.json"
        svg = tmp_path / "v.svg"
        run(["explain", "--train", "ad", "--model", "knn", "--instance", 2,
             "--seed", 4, "--out", report])
        doc = json.loads(report.read_text())
        doc["allies"][0]["features"]["x1"] = "oops"
        report.write_text(json.dumps(doc))
        assert run(["render", "--report", report, "--out", svg]) == 3
        assert not svg.exists()

    @pytest.mark.parametrize("field, value", [("feature", "x1"), ("feature", "nope"),
                                              ("value", 1.382)])
    def test_render_rejects_misnamed_importance(self, tmp_path, field, value):
        report = tmp_path / "report.json"
        svg = tmp_path / "v.svg"
        run(["explain", "--train", "ad", "--model", "knn", "--instance", 2,
             "--seed", 4, "--out", report])
        doc = json.loads(report.read_text())
        assert doc["instance"]["x2"] != 1.382
        doc["importances"][1][field] = value
        report.write_text(json.dumps(doc))
        assert run(["render", "--report", report, "--out", svg]) == 3
        assert not svg.exists()

    @pytest.mark.parametrize("section, bad", [("allies", 5), ("enemies", None)])
    def test_render_rejects_non_object_entry(self, tmp_path, section, bad):
        report = tmp_path / "report.json"
        svg = tmp_path / "v.svg"
        run(["explain", "--train", "ad", "--model", "knn", "--instance", 2,
             "--seed", 4, "--out", report])
        doc = json.loads(report.read_text())
        doc[section][0] = bad
        report.write_text(json.dumps(doc))
        assert run(["render", "--report", report, "--out", svg]) == 3
        assert not svg.exists()

    def test_render_rejects_integer_beyond_a_double(self, tmp_path):
        report = tmp_path / "report.json"
        svg = tmp_path / "v.svg"
        run(["explain", "--train", "ad", "--model", "knn", "--instance", 2,
             "--seed", 4, "--out", report])
        doc = json.loads(report.read_text())
        doc["instance"]["x1"] = 10**400
        for entry in doc["importances"]:
            entry["value"] = doc["instance"][entry["feature"]]
        report.write_text(json.dumps(doc))
        assert run(["render", "--report", report, "--out", svg]) == 3
        assert not svg.exists()

    def test_usage_error_on_unknown_command(self):
        with pytest.raises(SystemExit) as exc:
            run(["confabulate"])
        assert exc.value.code == 2


def test_import_loads_no_network_modules():
    # xml.sax.saxutils pulled in urllib.request and with it http.client,
    # ssl and email: 5.6 MB of resident memory that nothing uses.
    script = (
        "import sys, leafage.cli\n"
        "print(sorted(m for m in ('urllib.request', 'http.client', 'ssl', 'email')"
        " if m in sys.modules))"
    )
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        timeout=60, check=True, env=child_env(),
    )
    assert done.stdout.strip() == "[]"
