import numpy as np
import pytest

from crnn_forecast.cli import main
from crnn_forecast.data import Normalizer, ingest_csv
from crnn_forecast.models import load_checkpoint, model_from_checkpoint
from crnn_forecast.tensor import Tensor


@pytest.fixture()
def dataset(tmp_path):
    """A small generated CSV shared by the command tests."""
    out = tmp_path / "gen"
    code = main(["generate", "--len", "300", "--seed", "3", "--out", str(out)])
    assert code == 0
    return out / "data.csv"


def train_args(data, out, model="crnn", epochs="3"):
    return ["train", "--model", model, "--data", str(data),
            "--l", "8", "--p", "2", "--filters", "2", "--filter-size", "3",
            "--hidden", "4", "--epochs", epochs, "--seed", "1",
            "--out", str(out)]


class TestExitCodes:
    def test_missing_data_flag_is_usage_error(self, tmp_path, capsys):
        code = main(["train", "--model", "crnn", "--l", "8", "--p", "2",
                     "--out", str(tmp_path / "t")])
        assert code == 1
        assert "usage" in capsys.readouterr().err

    def test_indivisible_window_length_is_usage_error(self, dataset, tmp_path, capsys):
        code = main(["train", "--model", "crnn", "--data", str(dataset),
                     "--l", "51", "--p", "2", "--out", str(tmp_path / "t")])
        assert code == 1
        assert "divisible" in capsys.readouterr().err

    def test_missing_file_is_data_error(self, tmp_path, capsys):
        code = main(["train", "--model", "crnn", "--data",
                     str(tmp_path / "nope.csv"), "--l", "8", "--p", "2",
                     "--out", str(tmp_path / "t")])
        assert code == 2
        assert "data" in capsys.readouterr().err

    def test_unknown_command_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == 1


class TestGenerate:
    def test_deterministic_bytes(self, tmp_path):
        out = tmp_path / "g"
        args = ["generate", "--len", "120", "--seed", "9", "--out", str(out)]
        assert main(args) == 0
        first_csv = (out / "data.csv").read_bytes()
        first_manifest = (out / "manifest.txt").read_bytes()
        assert main(args) == 0
        assert (out / "data.csv").read_bytes() == first_csv
        assert (out / "manifest.txt").read_bytes() == first_manifest

    def test_manifest_records_command_and_output(self, tmp_path):
        out = tmp_path / "g"
        main(["generate", "--len", "80", "--out", str(out)])
        manifest = (out / "manifest.txt").read_text()
        assert "run.command=generate" in manifest
        assert "run.output.data=data.csv" in manifest
        assert "len=80" in manifest

    def test_independent_kind(self, tmp_path):
        out = tmp_path / "g"
        assert main(["generate", "--kind", "independent", "--len", "60",
                     "--out", str(out)]) == 0
        assert ingest_csv(out / "data.csv").num_series == 2


class TestTrain:
    def test_end_to_end_artifacts(self, dataset, tmp_path):
        out = tmp_path / "t"
        assert main(train_args(dataset, out)) == 0
        assert (out / "checkpoint.txt").exists()
        assert (out / "train_report.tsv").exists()
        manifest = (out / "manifest.txt").read_text()
        assert "run.command=train" in manifest
        assert "run.digest.data=" in manifest

    def test_checkpoint_carries_normalizer(self, dataset, tmp_path):
        out = tmp_path / "t"
        main(train_args(dataset, out))
        _, tensors = load_checkpoint(out / "checkpoint.txt")
        assert "norm.min" in tensors and "norm.max" in tensors

    def test_baseline_model_trains(self, dataset, tmp_path):
        out = tmp_path / "t"
        assert main(train_args(dataset, out, model="lstm", epochs="2")) == 0
        fields, _ = load_checkpoint(out / "checkpoint.txt")
        assert fields["model"] == "lstm-baseline"

    def test_config_file_supplies_defaults_cli_overrides(self, dataset, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("l=8\np=4\nepochs=2\n")
        out = tmp_path / "t"
        code = main(["train", "--model", "crnn", "--data", str(dataset),
                     "--config", str(cfg), "--p", "2", "--out", str(out)])
        assert code == 0
        fields, _ = load_checkpoint(out / "checkpoint.txt")
        assert fields["input_length"] == "8"   # from config file
        assert fields["horizon"] == "2"        # CLI flag wins over config

    def test_config_equals_path_is_read(self, dataset, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("l=8\np=4\nepochs=2\n")
        out = tmp_path / "t"
        code = main(["train", "--model", "crnn", "--data", str(dataset),
                     f"--config={cfg}", "--out", str(out)])
        assert code == 0
        fields, _ = load_checkpoint(out / "checkpoint.txt")
        assert fields["input_length"] == "8" and fields["horizon"] == "4"

    def test_bare_trailing_config_is_usage_error(self, dataset, capsys):
        code = main(["train", "--model", "crnn", "--data", str(dataset), "--config"])
        assert code == 1
        assert "--config expects a file path" in capsys.readouterr().err

    def test_manifest_feeds_back_as_config(self, dataset, tmp_path):
        out1 = tmp_path / "t1"
        assert main(train_args(dataset, out1)) == 0
        out2 = tmp_path / "t2"
        code = main(["train", "--config", str(out1 / "manifest.txt"),
                     "--out", str(out2)])
        assert code == 0
        assert ((out1 / "checkpoint.txt").read_bytes()
                == (out2 / "checkpoint.txt").read_bytes())


class TestForecast:
    def test_emits_horizon_rows_matching_model_output(self, dataset, tmp_path):
        train_out = tmp_path / "t"
        main(train_args(dataset, train_out))
        fc_out = tmp_path / "f"
        code = main(["forecast", "--checkpoint", str(train_out / "checkpoint.txt"),
                     "--data", str(dataset), "--offset", "10",
                     "--out", str(fc_out)])
        assert code == 0
        lines = (fc_out / "predictions.tsv").read_text().splitlines()
        assert lines[0] == "step\tvalue"
        assert len(lines) == 1 + 2  # header + p rows

        # same code path as the library: identical bits
        fields, tensors = load_checkpoint(train_out / "checkpoint.txt")
        model, extras = model_from_checkpoint(fields, tensors)
        norm = Normalizer.from_tensors(extras)
        cset = ingest_csv(dataset)
        window = norm.transform(cset.slice_time(10, 18)).values_matrix()
        expected = norm.inverse_target(model.forward(Tensor(window)).values)
        got = [float(line.split("\t")[1]) for line in lines[1:]]
        assert got == expected.tolist()

    def test_wrong_series_count_is_data_error(self, dataset, tmp_path, capsys):
        train_out = tmp_path / "t"
        main(train_args(dataset, train_out))
        bad = tmp_path / "bad.csv"
        bad.write_text("a\n" + "\n".join(str(v) for v in range(40)) + "\n")
        code = main(["forecast", "--checkpoint", str(train_out / "checkpoint.txt"),
                     "--data", str(bad), "--out", str(tmp_path / "f")])
        assert code == 2
        assert "series" in capsys.readouterr().err

    def test_truncated_checkpoint_is_data_error(self, dataset, tmp_path, capsys):
        train_out = tmp_path / "t"
        main(train_args(dataset, train_out))
        ckpt = train_out / "checkpoint.txt"
        text = ckpt.read_text()
        ckpt.write_text(text[:text.index("rnn.w_xh") + 30])
        code = main(["forecast", "--checkpoint", str(ckpt), "--data", str(dataset),
                     "--out", str(tmp_path / "f")])
        assert code == 2
        assert "rnn.w_xh" in capsys.readouterr().err

    def test_out_of_range_offset_is_data_error(self, dataset, tmp_path):
        train_out = tmp_path / "t"
        main(train_args(dataset, train_out))
        code = main(["forecast", "--checkpoint", str(train_out / "checkpoint.txt"),
                     "--data", str(dataset), "--offset", "9999",
                     "--out", str(tmp_path / "f")])
        assert code == 2


class TestEvaluate:
    def test_on_csv_across_seeds(self, dataset, tmp_path, capsys):
        out = tmp_path / "e"
        code = main(["evaluate", "--method", "yesterday", "--data", str(dataset),
                     "--l", "8", "--p", "2", "--seeds", "0,1",
                     "--out", str(out)])
        assert code == 0
        assert (out / "report.tsv").exists()
        assert (out / "predictions_seed0.tsv").exists()
        assert "yesterday" in capsys.readouterr().out

    def test_on_synthetic_source(self, tmp_path):
        out = tmp_path / "e"
        code = main(["evaluate", "--method", "ewma", "--len", "260",
                     "--l", "8", "--p", "2", "--out", str(out)])
        assert code == 0


class TestGridsearch:
    def test_single_cell_grid_equals_plain_training(self, dataset, tmp_path):
        grid = tmp_path / "grid.cfg"
        grid.write_text("stages=1\nfilters=2\nfilter-size=3\nhidden=4\n")
        gs_out = tmp_path / "gs"
        code = main(["gridsearch", "--model", "crnn", "--data", str(dataset),
                     "--l", "8", "--p", "2", "--grid", str(grid),
                     "--epochs", "3", "--seed", "1", "--out", str(gs_out)])
        assert code == 0
        train_out = tmp_path / "t"
        main(train_args(dataset, train_out))
        assert ((gs_out / "best_checkpoint.txt").read_bytes()
                == (train_out / "checkpoint.txt").read_bytes())

    def test_failed_cells_are_isolated(self, dataset, tmp_path):
        # l=8 only supports up to 3 stages; force a failing axis value
        grid = tmp_path / "grid.cfg"
        grid.write_text("stages=1,4\nfilters=2\nfilter-size=3\nhidden=4\n")
        out = tmp_path / "gs"
        code = main(["gridsearch", "--model", "crnn", "--data", str(dataset),
                     "--l", "8", "--p", "2", "--grid", str(grid),
                     "--epochs", "2", "--out", str(out)])
        assert code == 0
        report = (out / "grid_report.tsv").read_text()
        assert "FAILED" in report
        assert report.count("\n") >= 3  # header + ranked row + failed row

    def test_parallel_jobs_match_serial_ranking(self, dataset, tmp_path):
        grid = tmp_path / "grid.cfg"
        grid.write_text("stages=1\nfilters=2,3\nfilter-size=3\nhidden=3\n")
        serial = tmp_path / "gs1"
        parallel = tmp_path / "gs2"
        base = ["gridsearch", "--model", "crnn", "--data", str(dataset),
                "--l", "8", "--p", "2", "--grid", str(grid), "--epochs", "2"]
        assert main(base + ["--out", str(serial)]) == 0
        assert main(base + ["--jobs", "2", "--out", str(parallel)]) == 0
        assert ((serial / "grid_report.tsv").read_text()
                == (parallel / "grid_report.tsv").read_text())


class TestGradcheckCommand:
    def test_small_reference_config_passes(self, tmp_path, capsys):
        code = main(["gradcheck", "--model", "crnn", "--small",
                     "--out", str(tmp_path / "gc")])
        assert code == 0
        assert "PASS" in capsys.readouterr().out

    def test_aecrnn_passes_too(self, tmp_path, capsys):
        code = main(["gradcheck", "--model", "aecrnn", "--small",
                     "--out", str(tmp_path / "gc")])
        assert code == 0
        assert "PASS" in capsys.readouterr().out


class TestRobustnessCommand:
    def test_synthetic_quick_run(self, tmp_path):
        out = tmp_path / "r"
        code = main(["robustness", "--len", "260", "--l", "8", "--p", "2",
                     "--seeds", "0", "--epochs", "2", "--out", str(out)])
        assert code == 0
        table = (out / "robustness.tsv").read_text().splitlines()
        assert len(table) == 4
        assert table[0] == "input\tcrnn_mape\taecrnn_mape"


class TestOutputRoot:
    def test_env_var_controls_default_root(self, dataset, tmp_path, monkeypatch):
        monkeypatch.setenv("CRNN_FORECAST_OUT", str(tmp_path / "root"))
        code = main(["generate", "--len", "60"])
        assert code == 0
        assert (tmp_path / "root" / "generate" / "data.csv").exists()
