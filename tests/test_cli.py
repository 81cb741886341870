import argparse
import hashlib
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from crnn_forecast import cli, data, evaluation, models, training
from crnn_forecast.cli import main
from crnn_forecast.data import CorrelatedSet, Normalizer, ingest_csv, prepare, write_csv
from crnn_forecast.models import MODELS, load_checkpoint, model_from_checkpoint, save_checkpoint
from crnn_forecast.tensor import Tensor
from crnn_forecast.training import TrainConfig, train


@pytest.fixture()
def dataset(tmp_path):
    """A small generated CSV shared by the command tests."""
    out = tmp_path / "gen"
    code = main(["generate", "--len", "300", "--seed", "3", "--out", str(out)])
    assert code == 0
    return out / "data.csv"


FORMAT2_TRAINED = Path(__file__).with_name("data") / "checkpoint_format2_aecrnn_trained.txt"


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


def _flags_by_command(parser) -> dict[str, list[str]]:
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {name: [a.dest for a in p._actions] for name, p in sub.choices.items()}


class TestParser:
    def test_only_the_named_command_gets_its_flags(self):
        every = _flags_by_command(cli.build_parser())
        assert list(every) == list(cli.COMMANDS)
        for name in cli.COMMANDS:
            built = _flags_by_command(cli.build_parser(["--", name, "--seed", "1"]))
            assert built == {name: every[name]}

    def test_choices_are_the_domain_tuples_themselves(self):
        owners = {"cell": models.CELL_KINDS, "layout": models.RNN_LAYOUTS,
                  "conv_activation": models.CONV_ACTIVATIONS,
                  "features": models.BASELINE_FEATURES, "model": MODELS,
                  "optimizer": training.OPTIMIZERS, "kind": data.SYNTHETIC_KINDS,
                  "method": evaluation.METHODS}
        seen = set()
        sub = next(a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        for command in sub.choices.values():
            for action in command._actions:
                if action.choices is not None:
                    assert action.choices is owners[action.dest], action.dest
                    seen.add(action.dest)
        assert seen == set(owners)

    def test_defaults_are_the_fields_they_set(self):
        args = cli.build_parser().parse_args(
            ["evaluate", "--method", "yesterday", "--l", "8", "--p", "2"])
        spec, train_config = evaluation.ExperimentSpec(8, 2), TrainConfig()
        assert (args.train_frac, args.val_frac, args.ewma_smoothing) == (
            spec.train_frac, spec.val_fraction, spec.ewma_smoothing)
        assert (args.optimizer, args.lr, args.batch_size, args.patience) == (
            train_config.optimizer, train_config.learning_rate, train_config.batch_size,
            train_config.patience)
        assert cli._synthetic_from_args(args) == data.SyntheticConfig()
        config, fields = models.ModelConfig(1, 8, 2), cli._model_fields(args)
        for name in ("conv_pool_stages", "filter_size", "rnn_hidden", "cell_kind",
                     "rnn_layout", "conv_activation", "allow_off_grid"):
            assert fields[name] == getattr(config, name), name
        assert args.filters == config.filters_per_layer
        assert fields["features"] == models.BaselineConfig(1, 8, 2).features
        assert args.epochs == train_config.max_epochs

    @pytest.mark.parametrize("argv", [[], ["-h"], ["--version"], ["frobnicate", "-h"]])
    def test_argv_naming_no_command_builds_every_command(self, argv):
        assert _flags_by_command(cli.build_parser(argv)) == _flags_by_command(
            cli.build_parser())

    @pytest.mark.parametrize("command, flag", [("generate", "--noise"),
                                               ("gradcheck", "--tolerance")])
    @pytest.mark.parametrize("text, value", [
        ("-1", -1.0), ("-0.5", -0.5), ("-1e-2", -0.01), ("-1.5E+3", -1500.0),
        ("-.5e1", -5.0), ("-2.", -2.0)])
    def test_negative_number_is_an_option_value(self, command, flag, text, value):
        argv = [command, flag, text]
        args = cli.build_parser(argv).parse_args(argv)
        assert getattr(args, flag[2:]) == value

    @pytest.mark.parametrize("text", ["-inf", "-INF", "-Infinity", "-infinity", "-nan",
                                      "-NaN", "-NAN"])
    def test_negative_non_finite_word_is_an_option_value(self, text):
        argv = ["generate", "--stoch-amp", text]
        value = cli.build_parser(argv).parse_args(argv).stoch_amp
        assert repr(value) == repr(float(text))

    @pytest.mark.parametrize("text", ["-e5", "-1e", "-x", "-in", "-infinit", "-nana", "-inf5"])
    def test_dash_word_is_still_an_option(self, text):
        argv = ["generate", "--noise", text]
        with pytest.raises(cli.UsageError, match="expected one argument"):
            cli.build_parser(argv).parse_args(argv)


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

    def test_byte_order_mark_is_read_past_but_digested(self, dataset, tmp_path):
        bom_data = tmp_path / "bom.csv"
        bom_data.write_bytes(b"\xef\xbb\xbf" + dataset.read_bytes())
        for data_file, out in ((dataset, tmp_path / "plain"), (bom_data, tmp_path / "bom")):
            assert main(train_args(data_file, out, epochs="1")) == 0
        assert ((tmp_path / "bom" / "checkpoint.txt").read_bytes()
                == (tmp_path / "plain" / "checkpoint.txt").read_bytes())
        manifest = _manifest(tmp_path / "bom")
        assert manifest["run.digest.data"] == hashlib.sha256(bom_data.read_bytes()).hexdigest()

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

    def test_baseline_skips_conv_grid_checks(self, dataset, tmp_path):
        # l=15 is not divisible by 2 and hidden=8 is off the grid
        out = tmp_path / "t"
        code = main(["train", "--model", "rnn", "--data", str(dataset), "--l", "15",
                     "--p", "2", "--hidden", "8", "--epochs", "1", "--out", str(out)])
        assert code == 0
        fields, _ = load_checkpoint(out / "checkpoint.txt")
        assert fields["input_length"] == "15" and fields["rnn_hidden"] == "8"

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

    @pytest.mark.parametrize("line", ["model=foo", "cell=gru"])
    def test_config_value_outside_its_choices_is_usage_error(self, dataset, tmp_path,
                                                            capsys, line):
        cfg = tmp_path / "c.txt"
        cfg.write_text(line + "\n")
        args = train_args(dataset, tmp_path / "t")
        del args[1:3]  # --model crnn, so the config file's value is the one used
        code = main(args + ["--config", str(cfg)])
        assert code == 1
        assert f"config file sets {line}, not one of" in capsys.readouterr().err

    def test_repeated_config_key_is_usage_error_naming_file_key_and_value(
            self, dataset, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("lr=0.1\nlr=0.5\n")
        out = tmp_path / "t"
        assert main(train_args(dataset, out) + ["--config", str(cfg)]) == 1
        assert (capsys.readouterr().err
                == f"error: usage: {cfg}:2: lr is set again, to '0.5', after '0.1'\n")
        assert not out.exists()

    def test_two_spellings_of_one_option_are_usage_error_naming_both(
            self, dataset, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("filter-size=3\nfilter_size=5\n")
        out = tmp_path / "t"
        assert main(train_args(dataset, out) + ["--config", str(cfg)]) == 1
        assert (capsys.readouterr().err == "error: usage: config file sets both "
                "filter-size and filter_size, which name one option\n")
        assert not out.exists()

    def test_manifest_feeds_back_as_config(self, dataset, tmp_path):
        out1 = tmp_path / "t1"
        assert main(train_args(dataset, out1)) == 0
        out2 = tmp_path / "t2"
        code = main(["train", "--config", str(out1 / "manifest.txt"),
                     "--out", str(out2)])
        assert code == 0
        assert ((out1 / "checkpoint.txt").read_bytes()
                == (out2 / "checkpoint.txt").read_bytes())


class TestFit:
    @pytest.mark.parametrize("kind", MODELS)
    def test_trains_the_model_built_from_the_windows_and_seed(self, dataset, tmp_path, kind):
        # fit reads n, l and p from the windows and the seed from the config;
        # the train command writes the checkpoint of the same model
        prepared = prepare(ingest_csv(dataset), 8, 2, train_frac=0.84, val_fraction=0.15)
        hparams = dict(filters_per_layer=2, filter_size=3, rnn_hidden=4)
        config = TrainConfig(max_epochs=3, seed=1)
        model, report = evaluation.fit(kind, hparams, prepared, config)
        by_hand = MODELS[kind]({**hparams, "num_series": 2, "input_length": 8,
                                "horizon": 2, "seed": 1})
        _, expected = train(by_hand, prepared.train, config, val_samples=prepared.val)
        assert report == expected
        for name, trained in (("fit", model), ("by_hand", by_hand)):
            save_checkpoint(tmp_path / name, trained, extra_tensors=prepared.norm.tensors())
        assert main(train_args(dataset, tmp_path / "cli", model=kind)) == 0
        written = (tmp_path / "fit").read_bytes()
        assert written == (tmp_path / "by_hand").read_bytes()
        assert written == (tmp_path / "cli" / "checkpoint.txt").read_bytes()


class TestTargetFlag:
    @pytest.fixture()
    def four_columns(self, tmp_path):
        """t, then a, b and c, whose values lie in [100, 101), [200, 201)
        and [300, 301)."""
        path = tmp_path / "tabc.csv"
        rows = [f"{i},{100 + i % 7 / 7},{200 + i % 5 / 5},{300 + i % 3 / 3}"
                for i in range(60)]
        path.write_text("t,a,b,c\n" + "\n".join(rows) + "\n")
        return path

    @pytest.mark.parametrize("flags, hundreds", [
        (["--columns", "a,b", "--target", "1"], [1, 2]),
        (["--columns", "1,2", "--target", "a"], [1, 2]),
        (["--timestamp", "t", "--target", "1"], [1, 2, 3]),
        (["--columns", "a,b", "--timestamp", "t", "--target", "1"], [1, 2]),
        (["--columns", "a,b", "--target", "c"], [3, 1, 2]),
    ])
    def test_integer_target_is_a_file_column_read_once(self, four_columns, tmp_path,
                                                       flags, hundreds):
        out = tmp_path / "t"
        assert main(["train", "--model", "rnn", "--data", str(four_columns), "--l", "8",
                     "--p", "2", "--epochs", "1", *flags, "--out", str(out)]) == 0
        fields, tensors = load_checkpoint(out / "checkpoint.txt")
        assert fields["num_series"] == str(len(hundreds))
        assert [int(v // 100) for v in tensors["norm.min"]] == hundreds

    def test_timestamp_column_in_columns_is_data_error(self, four_columns, tmp_path, capsys):
        out = tmp_path / "t"
        assert main(["train", "--model", "rnn", "--data", str(four_columns), "--l", "8",
                     "--p", "2", "--epochs", "1", "--columns", "t,a", "--timestamp", "t",
                     "--out", str(out)]) == 2
        assert "column 0 is the timestamp column" in capsys.readouterr().err
        assert not out.exists()


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
        expected = norm.inverse_target(model.forward(Tensor(window))[0].values)
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

    @pytest.mark.parametrize("keep_lines", [0, 5])
    def test_checkpoint_cut_at_a_line_boundary_is_data_error(self, dataset, tmp_path,
                                                              capsys, keep_lines):
        train_out = tmp_path / "t"
        main(train_args(dataset, train_out))
        ckpt = train_out / "checkpoint.txt"
        lines = ckpt.read_text().splitlines(keepends=True)
        ckpt.write_text("".join(lines[:keep_lines]))
        code = main(["forecast", "--checkpoint", str(ckpt), "--data", str(dataset),
                     "--out", str(tmp_path / "f")])
        assert code == 2
        assert "error: data:" in capsys.readouterr().err

    @pytest.mark.parametrize("model", ["crnn", "rnn"])
    @pytest.mark.parametrize("old, new, message", [
        (" num_series=2", "", "lacks the field 'num_series'"),
        ("input_length=8", "input_length=eight", "input_length='eight' is not an integer"),
    ])
    def test_bad_header_field_is_data_error(self, dataset, tmp_path, capsys, model,
                                            old, new, message):
        train_out = tmp_path / "t"
        assert main(train_args(dataset, train_out, model=model, epochs="1")) == 0
        ckpt = train_out / "checkpoint.txt"
        header, rest = ckpt.read_text().split("\n", 1)
        assert old in header
        ckpt.write_text(header.replace(old, new) + "\n" + rest)
        capsys.readouterr()
        code = main(["forecast", "--checkpoint", str(ckpt), "--data", str(dataset),
                     "--out", str(tmp_path / "f")])
        assert code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("old, new, message", [
        ("model=crnn", "model=foo", "unknown model kind 'foo'"),
        ("format=3", "format=9", "unsupported checkpoint format '9'"),
        ("num_series=2", "num_series=0", "num_series must be at least 1"),
        ("filters_per_layer=2", "filters_per_layer=7", "filters_per_layer=7 is outside"),
        ("input_length=8", "input_length=7", "input_length 7 is not divisible"),
    ], ids=["model", "format", "num_series", "filters_per_layer", "input_length"])
    def test_header_breaking_the_model_contract_is_data_error(self, dataset, tmp_path,
                                                               capsys, old, new, message):
        train_out = tmp_path / "t"
        assert main(train_args(dataset, train_out, epochs="1")) == 0
        ckpt = train_out / "checkpoint.txt"
        header, rest = ckpt.read_text().split("\n", 1)
        assert f" {old} " in f" {header} "
        ckpt.write_text(f" {header} ".replace(f" {old} ", f" {new} ").strip() + "\n" + rest)
        capsys.readouterr()
        out = tmp_path / "f"
        code = main(["forecast", "--checkpoint", str(ckpt), "--data", str(dataset),
                     "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: data:") and message in err
        assert not out.exists()

    @pytest.mark.parametrize("mins, maxs, message", [
        ([0.0, 1.0, 2.0], [9.0, 9.0, 9.0], "norm.min holds 3 values, for a model of 2 series"),
        ([0.0, 1.0, 2.0], [9.0, 9.0], "norm.min holds 3 values, norm.max 2"),
        ([[0.0], [1.0]], [9.0, 9.0], "norm.min has shape (2, 1)"),
        ([0.0, 1.0], [9.0, float("nan")], "norm.max holds non-finite values"),
        ([0.0, -float("inf")], [9.0, 9.0], "norm.min holds non-finite values"),
        ([5.0, 0.0], [1.0, 2.0], "norm.max lies below norm.min at series 0"),
        ([0.0, -1e308], [9.0, 1e308], "above norm.min at series 1: the span overflows"),
    ], ids=["series-count", "lengths", "shape", "nan", "inf", "max-below-min", "span-overflow"])
    def test_bad_normalizer_statistics_are_data_error(self, dataset, tmp_path, capsys,
                                                      mins, maxs, message):
        train_out = tmp_path / "t"
        assert main(train_args(dataset, train_out, epochs="1")) == 0
        ckpt = train_out / "checkpoint.txt"
        model, _ = model_from_checkpoint(*load_checkpoint(ckpt))
        save_checkpoint(ckpt, model, extra_tensors={"norm.min": mins, "norm.max": maxs})
        capsys.readouterr()
        out = tmp_path / "f"
        code = main(["forecast", "--checkpoint", str(ckpt), "--data", str(dataset),
                     "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: data:") and message in err
        assert not out.exists()

    def test_out_of_range_offset_is_data_error(self, dataset, tmp_path):
        train_out = tmp_path / "t"
        main(train_args(dataset, train_out))
        code = main(["forecast", "--checkpoint", str(train_out / "checkpoint.txt"),
                     "--data", str(dataset), "--offset", "9999",
                     "--out", str(tmp_path / "f")])
        assert code == 2


    def test_format_2_checkpoint_forecasts(self, dataset, tmp_path):
        out = tmp_path / "f"
        assert main(["forecast", "--checkpoint", str(FORMAT2_TRAINED), "--data", str(dataset),
                     "--out", str(out)]) == 0
        assert len((out / "predictions.tsv").read_text().splitlines()) == 1 + 2


def _manifest(out: Path) -> dict[str, str]:
    lines = (out / "manifest.txt").read_text().splitlines()
    return dict(line.split("=", 1) for line in lines)


def _feed(fifo: Path, payload: bytes, stop: threading.Event) -> None:
    """Write payload to the first reader of fifo, then give every later reader
    an empty pipe, as a shell's <(cat file) does, until stop is set."""
    with open(fifo, "wb") as fh:
        fh.write(payload)
    while not stop.is_set():
        try:
            os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
        except OSError:  # no reader waits
            time.sleep(0.001)


class TestPipedInputs:
    """A command parses and hashes the bytes of one read of each input."""

    @pytest.mark.parametrize("command", [
        ["train", "--model", "crnn", "--l", "8", "--p", "2", "--epochs", "1"],
        ["forecast"],
        ["evaluate", "--method", "yesterday", "--l", "8", "--p", "2"],
        ["robustness", "--l", "8", "--p", "2", "--epochs", "1"],
        ["gridsearch", "--l", "8", "--p", "2", "--epochs", "1", "--grid", "GRID"],
    ], ids=lambda argv: argv[0])
    def test_digest_is_of_the_bytes_read_from_a_pipe(self, dataset, tmp_path, command):
        grid = tmp_path / "grid.cfg"
        grid.write_text("stages=1\nfilters=2\nfilter-size=3\nhidden=3\n")
        payloads = {"data": dataset.read_bytes()}
        if command[0] == "forecast":
            assert main(train_args(dataset, tmp_path / "t", epochs="1")) == 0
            payloads["checkpoint"] = (tmp_path / "t" / "checkpoint.txt").read_bytes()
        argv = [str(grid) if token == "GRID" else token for token in command]
        stop, feeders = threading.Event(), []
        for name, payload in payloads.items():
            fifo = tmp_path / f"{name}.fifo"
            os.mkfifo(fifo)
            argv += [f"--{name}", str(fifo)]
            feeders.append(threading.Thread(target=_feed, args=(fifo, payload, stop),
                                            daemon=True))
        for feeder in feeders:
            feeder.start()
        try:
            assert main(argv + ["--out", str(tmp_path / "out")]) == 0
        finally:
            stop.set()
        manifest = _manifest(tmp_path / "out")
        for name, payload in payloads.items():
            assert manifest[f"run.digest.{name}"] == hashlib.sha256(payload).hexdigest()


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

    @pytest.mark.parametrize("smoothing", ["0", "2.5"])
    def test_ewma_smoothing_outside_unit_interval_is_usage_error(self, tmp_path, capsys,
                                                                 smoothing):
        code = main(["evaluate", "--method", "ewma", "--len", "260", "--l", "8",
                     "--p", "2", "--ewma-smoothing", smoothing, "--out", str(tmp_path)])
        assert code == 1
        assert "smoothing" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["yesterday", "crnn"])
    def test_ewma_smoothing_is_checked_for_every_method(self, dataset, tmp_path, capsys,
                                                        method):
        out = tmp_path / "e"
        code = main(["evaluate", "--method", method, "--data", str(dataset), "--l", "8",
                     "--p", "2", "--epochs", "1", "--ewma-smoothing", "0", "--out", str(out)])
        assert code == 1
        assert "smoothing" in capsys.readouterr().err
        assert not out.exists()

    def test_target_flag_reorders_the_series(self, dataset, tmp_path):
        cset = ingest_csv(dataset)
        swapped = tmp_path / "swapped.csv"
        write_csv(CorrelatedSet(cset.series[::-1]), swapped)
        common = ["evaluate", "--method", "yesterday", "--l", "8", "--p", "2"]
        assert main(common + ["--data", str(dataset), "--target", "driver",
                              "--out", str(tmp_path / "a")]) == 0
        assert main(common + ["--data", str(swapped), "--out", str(tmp_path / "b")]) == 0
        assert ((tmp_path / "a" / "report.tsv").read_bytes()
                == (tmp_path / "b" / "report.tsv").read_bytes())

    def test_allow_off_grid_reaches_the_model(self, dataset, tmp_path):
        args = ["evaluate", "--method", "crnn", "--data", str(dataset), "--l", "8",
                "--p", "2", "--filters", "7", "--epochs", "1", "--out", str(tmp_path)]
        assert main(args) == 1
        assert main(args + ["--allow-off-grid"]) == 0

    @pytest.mark.parametrize("x", ["0", "-1"])
    def test_series_count_below_one_is_usage_error(self, dataset, tmp_path, capsys, x):
        out = tmp_path / "e"
        assert main(["evaluate", "--method", "yesterday", "--data", str(dataset),
                     "--l", "8", "--p", "2", "--x", x, "--out", str(out)]) == 1
        assert "num_series" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("seeds", ["0,0", "1,0,1", ","])
    def test_repeated_or_no_seed_is_usage_error(self, dataset, tmp_path, capsys, seeds):
        out = tmp_path / "e"
        assert main(["evaluate", "--method", "yesterday", "--data", str(dataset),
                     "--l", "8", "--p", "2", "--seeds", seeds, "--out", str(out)]) == 1
        assert "--seeds" in capsys.readouterr().err
        assert not out.exists()

    def test_prepares_a_fixed_dataset_once_and_each_drawn_set_once(self, dataset, tmp_path,
                                                                   monkeypatch):
        calls = []
        real_prepare = evaluation.prepare

        def counting_prepare(*args, **kwargs):
            calls.append(1)
            return real_prepare(*args, **kwargs)

        monkeypatch.setattr(evaluation, "prepare", counting_prepare)
        common = ["evaluate", "--method", "yesterday", "--l", "8", "--p", "2",
                  "--seeds", "0,1,2"]
        assert main(common + ["--data", str(dataset), "--out", str(tmp_path / "a")]) == 0
        assert len(calls) == 1
        assert main(common + ["--len", "260", "--out", str(tmp_path / "b")]) == 0
        assert len(calls) == 1 + 3

    @pytest.mark.parametrize("stride", ["0", "-1"])
    def test_eval_stride_below_one_is_usage_error(self, dataset, tmp_path, capsys,
                                                  stride):
        out = tmp_path / "e"
        code = main(["evaluate", "--method", "yesterday", "--data", str(dataset),
                     "--l", "8", "--p", "2", "--eval-stride", stride, "--out", str(out)])
        assert code == 1
        assert "eval_stride" in capsys.readouterr().err
        assert not (out / "report.tsv").exists()


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
        assert ((serial / "best_checkpoint.txt").read_bytes()
                == (parallel / "best_checkpoint.txt").read_bytes())

    @staticmethod
    def modules_loaded_by_importing_the_cli(prefix):
        script = ("import sys, crnn_forecast.cli\n"
                  f"print(sorted(m for m in sys.modules if m.startswith({prefix!r})))\n")
        src = Path(cli.__file__).resolve().parents[1]
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": str(src)}, timeout=60)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    def test_importing_the_cli_leaves_multiprocessing_unloaded(self):
        # only gridsearch --jobs > 1 uses it, and a fresh process pays for its import
        assert self.modules_loaded_by_importing_the_cli("multiprocessing") == "[]\n"

    def test_importing_the_cli_leaves_concurrent_futures_unloaded(self):
        # only a batch that splits across two threads uses it
        assert self.modules_loaded_by_importing_the_cli("concurrent") == "[]\n"

    def test_jobs_forked_after_the_worker_thread_started_match_serial(self, dataset,
                                                                     tmp_path):
        # The process starts the models' worker thread, then forks the pool's
        # processes, which have no copy of that thread; each must start its
        # own. Every batch splits, in the forked processes too.
        script = (
            "import sys, threading\n"
            "import numpy as np\n"
            "from crnn_forecast import cli, models\n"
            "models.SPLIT_MIN_VALUES = 0\n"
            "model = models.CRNN(models.ModelConfig(num_series=2, input_length=8, horizon=2,"
            " filters_per_layer=2))\n"
            "model.batch_forecast(np.zeros((2, 2, 8)))\n"
            "assert any(t.name.startswith('crnn-series') for t in threading.enumerate())\n"
            "sys.exit(cli.main(sys.argv[1:]))\n")
        grid = tmp_path / "grid.cfg"
        grid.write_text("stages=1\nfilters=2,3\nfilter-size=3\nhidden=3\n")
        serial = tmp_path / "gs1"
        parallel = tmp_path / "gs2"
        base = ["gridsearch", "--model", "aecrnn", "--data", str(dataset),
                "--l", "8", "--p", "2", "--grid", str(grid), "--epochs", "2"]
        assert main(base + ["--out", str(serial)]) == 0
        src = Path(cli.__file__).resolve().parents[1]
        # its own session, so that a hang ends with every forked process
        proc = subprocess.Popen([sys.executable, "-c", script, *base, "--jobs", "2",
                                 "--out", str(parallel)],
                                env={**os.environ, "PYTHONPATH": str(src)},
                                stderr=subprocess.PIPE, text=True, start_new_session=True)
        try:
            _, err = proc.communicate(timeout=120)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            raise
        assert proc.returncode == 0, err
        assert ((serial / "grid_report.tsv").read_text()
                == (parallel / "grid_report.tsv").read_text())
        assert ((serial / "best_checkpoint.txt").read_bytes()
                == (parallel / "best_checkpoint.txt").read_bytes())

    def test_trains_each_cell_once(self, dataset, tmp_path, monkeypatch):
        calls = []
        real_train = evaluation.train  # the train that evaluation.fit calls

        def counting_train(*args, **kwargs):
            calls.append(1)
            return real_train(*args, **kwargs)

        monkeypatch.setattr(evaluation, "train", counting_train)
        grid = tmp_path / "grid.cfg"
        grid.write_text("stages=1\nfilters=2,3\nfilter-size=3\nhidden=3,4\n")
        assert main(["gridsearch", "--data", str(dataset), "--l", "8", "--p", "2",
                     "--grid", str(grid), "--epochs", "1", "--out", str(tmp_path)]) == 0
        assert len(calls) == 4
        assert (tmp_path / "best_checkpoint.txt").exists()

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_prepares_the_data_once(self, dataset, tmp_path, monkeypatch, jobs):
        # each call, in this process or in a forked worker, adds a line
        calls = tmp_path / "prepare_calls.txt"
        real_prepare = cli.prepare

        def logging_prepare(*args, **kwargs):
            with open(calls, "a", encoding="ascii") as fh:
                fh.write("prepare\n")
            return real_prepare(*args, **kwargs)

        monkeypatch.setattr(cli, "prepare", logging_prepare)
        grid = tmp_path / "grid.cfg"
        grid.write_text("stages=1\nfilters=2,3\nfilter-size=3\nhidden=3\n")
        assert main(["gridsearch", "--data", str(dataset), "--l", "8", "--p", "2",
                     "--grid", str(grid), "--epochs", "1", "--jobs", jobs,
                     "--out", str(tmp_path / "gs")]) == 0
        assert calls.read_text() == "prepare\n"

    def test_too_short_data_is_data_error(self, tmp_path, capsys):
        # 30 values leave 6 training windows at l+p = 20, and none for validation
        data = tmp_path / "short.csv"
        data.write_text("a,b\n" + "".join(f"{v},{v % 7}\n" for v in range(30)))
        grid = tmp_path / "grid.cfg"
        grid.write_text("stages=1\nfilters=2,3\nfilter-size=3\nhidden=4\n")
        out = tmp_path / "gs"
        assert main(["gridsearch", "--data", str(data), "--l", "16", "--p", "4",
                     "--grid", str(grid), "--epochs", "1", "--out", str(out)]) == 2
        assert "validation" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--train-frac", "--val-frac"])
    def test_fraction_outside_its_range_is_usage_error(self, dataset, tmp_path, capsys,
                                                      flag):
        grid = tmp_path / "grid.cfg"
        grid.write_text("stages=1\nfilters=2,3\nfilter-size=3\nhidden=4\n")
        out = tmp_path / "gs"
        assert main(["gridsearch", "--data", str(dataset), "--l", "8", "--p", "2",
                     "--grid", str(grid), "--epochs", "1", flag, "1.5",
                     "--out", str(out)]) == 1
        assert "1.5" in capsys.readouterr().err
        assert not out.exists()

    def test_allow_off_grid_cell_ranks(self, dataset, tmp_path):
        grid = tmp_path / "grid.cfg"
        grid.write_text("stages=1\nfilters=7\nfilter-size=3\nhidden=4\n")
        out = tmp_path / "gs"
        assert main(["gridsearch", "--data", str(dataset), "--l", "8", "--p", "2",
                     "--grid", str(grid), "--epochs", "1", "--allow-off-grid",
                     "--out", str(out)]) == 0
        report = (out / "grid_report.tsv").read_text().splitlines()
        assert report[1].startswith("1\t1\t7\t3\t4\t")

    def test_target_among_columns_ranks_cells(self, dataset, tmp_path):
        grid = tmp_path / "grid.cfg"
        grid.write_text("stages=1\nfilters=2\nfilter-size=3\nhidden=3,4\n")
        out = tmp_path / "gs"
        assert main(["gridsearch", "--data", str(dataset), "--l", "8", "--p", "2",
                     "--columns", "target", "--target", "driver", "--grid", str(grid),
                     "--epochs", "1", "--out", str(out)]) == 0
        assert "FAILED" not in (out / "grid_report.tsv").read_text()
        fields, _ = load_checkpoint(out / "best_checkpoint.txt")
        assert fields["num_series"] == "2"

    def test_empty_grid_axis_is_usage_error(self, dataset, tmp_path, capsys):
        grid = tmp_path / "grid.cfg"
        grid.write_text("stages=\nfilters=2\n")
        out = tmp_path / "gs"
        assert main(["gridsearch", "--data", str(dataset), "--l", "8", "--p", "2",
                     "--grid", str(grid), "--epochs", "1", "--out", str(out)]) == 1
        assert "stages" in capsys.readouterr().err
        assert not (out / "grid_report.tsv").exists()

    def test_non_integer_grid_value_is_usage_error_naming_file_axis_and_value(
            self, dataset, tmp_path, capsys):
        grid = tmp_path / "grid.cfg"
        grid.write_text("stages=1\nfilters=2,x\n")
        out = tmp_path / "gs"
        assert main(["gridsearch", "--data", str(dataset), "--l", "8", "--p", "2",
                     "--grid", str(grid), "--epochs", "1", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: usage: grid file {grid}: axis filters takes integers, got '2,x'\n"
        assert not out.exists()

    def test_baseline_varies_only_the_hidden_axis(self, dataset, tmp_path):
        grid = tmp_path / "grid.cfg"
        grid.write_text("hidden=3,4\n")
        out = tmp_path / "gs"
        assert main(["gridsearch", "--model", "rnn", "--data", str(dataset), "--l", "8",
                     "--p", "2", "--filters", "3", "--grid", str(grid), "--epochs", "1",
                     "--out", str(out)]) == 0
        rows = [line.split("\t") for line in
                (out / "grid_report.tsv").read_text().splitlines()[1:]]
        # one cell per hidden size; the axes a baseline does not read keep their flags' values
        assert sorted(row[1:5] for row in rows) == [["1", "3", "3", "3"], ["1", "3", "3", "4"]]
        manifest = (out / "manifest.txt").read_text().splitlines()
        assert f"hidden={rows[0][4]}" in manifest and "filters=3" in manifest

    def test_best_cell_is_recorded_by_axis_name(self, dataset, tmp_path):
        grid = tmp_path / "grid.cfg"
        grid.write_text("hidden=3\nfilter-size=5\nfilters=2\nstages=1\n")
        out = tmp_path / "gs"
        assert main(["gridsearch", "--data", str(dataset), "--l", "8", "--p", "2",
                     "--grid", str(grid), "--epochs", "1", "--out", str(out)]) == 0
        manifest = (out / "manifest.txt").read_text().splitlines()
        assert {"hidden=3", "filter-size=5", "filters=2", "stages=1"} <= set(manifest)

    @pytest.mark.parametrize("model", ["rnn", "lstm"])
    def test_axis_the_baseline_does_not_read_is_usage_error(self, dataset, tmp_path, capsys,
                                                             model):
        grid = tmp_path / "grid.cfg"
        grid.write_text("stages=1\nhidden=4\n")
        out = tmp_path / "gs"
        assert main(["gridsearch", "--model", model, "--data", str(dataset), "--l", "8",
                     "--p", "2", "--grid", str(grid), "--epochs", "1", "--out", str(out)]) == 1
        assert (capsys.readouterr().err
                == f"error: usage: grid file {grid}: model {model} does not read axis stages\n")
        assert not out.exists()

    @pytest.mark.parametrize("text, message", [
        ("stages=1,1\nfilters=2\nfilter-size=3\nhidden=4\n",
         "grid file {grid}: axis stages gives the value 1 twice"),
        ("filters=2\nstages=1\nfilter-size=3\nhidden=4\nfilters=3\n",
         "{grid}:5: filters is set again, to '3', after '2'"),
    ])
    def test_repeated_grid_entry_is_usage_error_naming_file_axis_and_value(
            self, dataset, tmp_path, capsys, text, message):
        grid = tmp_path / "grid.cfg"
        grid.write_text(text)
        out = tmp_path / "gs"
        assert main(["gridsearch", "--data", str(dataset), "--l", "8", "--p", "2",
                     "--grid", str(grid), "--epochs", "1", "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: usage: {message.format(grid=grid)}\n"
        assert not out.exists()

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_is_usage_error(self, dataset, tmp_path, capsys, jobs):
        out = tmp_path / "gs"
        assert main(["gridsearch", "--data", str(dataset), "--l", "8", "--p", "2",
                     "--jobs", jobs, "--epochs", "1", "--out", str(out)]) == 1
        assert "--jobs" in capsys.readouterr().err
        assert not (out / "grid_report.tsv").exists()


class TestGradcheckCommand:
    @pytest.mark.parametrize("kind", MODELS)
    def test_small_reference_config_passes(self, capsys, kind):
        code = main(["gradcheck", "--model", kind, "--small"])
        assert code == 0
        assert "PASS" in capsys.readouterr().out

    @pytest.mark.parametrize("flag", [("--x", "3"), ("--l", "16"), ("--p", "2"),
                                      ("--stages", "2"), ("--filters", "3"),
                                      ("--filter-size", "3"), ("--hidden", "5")],
                             ids=lambda flag: flag[0])
    def test_small_refuses_a_flag_it_sets(self, tmp_path, capsys, flag):
        assert main(["gradcheck", "--small", *flag]) == 1
        assert flag[0] in capsys.readouterr().err
        config = tmp_path / "gc.cfg"
        config.write_text(f"{flag[0][2:]}={flag[1]}\n")
        assert main(["gradcheck", "--small", "--config", str(config)]) == 1
        assert flag[0] in capsys.readouterr().err

    def test_out_is_usage_error(self, tmp_path, capsys):
        # gradcheck writes no file, so an output directory has no use
        out = tmp_path / "gc"
        assert main(["gradcheck", "--small", "--out", str(out)]) == 1
        assert "--out" in capsys.readouterr().err
        config = tmp_path / "gc.cfg"
        config.write_text(f"out={out}\n")
        assert main(["gradcheck", "--small", "--config", str(config)]) == 1
        assert "'out'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv, hidden", [([], 4), (["--small"], 3),
                                              (["--hidden", "5"], 5)])
    def test_checks_the_model_its_flags_describe(self, capsys, argv, hidden):
        model = MODELS["crnn"](dict(num_series=2, input_length=8, horizon=2,
                                    conv_pool_stages=1, filters_per_layer=2,
                                    filter_size=3, rnn_hidden=hidden))
        assert main(["gradcheck", *argv]) == 0
        count = sum(p.size for p in model.params.values())
        assert f"checked={count}" in capsys.readouterr().out


class TestRobustnessCommand:
    def test_synthetic_quick_run(self, tmp_path):
        out = tmp_path / "r"
        code = main(["robustness", "--len", "260", "--l", "8", "--p", "2",
                     "--seeds", "0", "--epochs", "2", "--out", str(out)])
        assert code == 0
        table = (out / "robustness.tsv").read_text().splitlines()
        assert len(table) == 4
        assert table[0] == "input\tcrnn_mape\taecrnn_mape"

    @pytest.mark.parametrize("flag", [("--cell", "lstm"), ("--layout", "single-step"),
                                      ("--conv-activation", "tanh"),
                                      ("--train-frac", "0.7"), ("--val-frac", "0.3")])
    def test_model_and_split_flags_are_honoured(self, tmp_path, flag):
        base = ["robustness", "--len", "260", "--l", "8", "--p", "2", "--epochs", "2"]
        assert main(base + ["--out", str(tmp_path / "default")]) == 0
        assert main(base + [*flag, "--out", str(tmp_path / "flag")]) == 0
        assert ((tmp_path / "default" / "robustness.tsv").read_text()
                != (tmp_path / "flag" / "robustness.tsv").read_text())


    @pytest.mark.parametrize("seeds", ["0,0", "1,0,1", ","])
    def test_repeated_or_no_seed_is_usage_error(self, tmp_path, capsys, seeds):
        out = tmp_path / "r"
        assert main(["robustness", "--len", "260", "--l", "8", "--p", "2", "--epochs", "1",
                     "--seeds", seeds, "--out", str(out)]) == 1
        assert "--seeds" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_constant_target_is_data_error_naming_it(self, tmp_path, capsys):
        data = tmp_path / "flat.csv"
        data.write_text("t,x\n" + "".join(f"1.5,{v}\n" for v in range(60)))
        out = tmp_path / "r"
        assert main(["robustness", "--data", str(data), "--l", "8", "--p", "2",
                     "--out", str(out)]) == 2
        assert "series 't' is constant" in capsys.readouterr().err
        assert not out.exists()


class TestUnusableNumericFlags:
    """A numeric flag no run can use is a usage error that names its field,
    raised before any work."""

    @pytest.mark.parametrize("argv, field", [
        pytest.param(["train", "--lr", "nan"], "learning_rate", id="lr-nan"),
        pytest.param(["train", "--lr", "inf"], "learning_rate", id="lr-inf"),
        pytest.param(["gradcheck", "--tolerance", "nan"], "tolerance", id="tolerance-nan"),
        pytest.param(["gradcheck", "--tolerance=-1e-5"], "tolerance", id="tolerance-negative"),
        # the exponent form reaches the check, not argparse's "expected one argument"
        pytest.param(["gradcheck", "--tolerance", "-1e-5"], "tolerance must be >= 0",
                     id="tolerance-negative-exponent"),
        pytest.param(["generate", "--period", "0"], "season_period", id="period-0"),
        pytest.param(["generate", "--period", "-3"], "season_period", id="period-negative"),
        pytest.param(["generate", "--noise", "-1e-2"], "noise must be >= 0",
                     id="noise-negative-exponent"),
        pytest.param(["generate", "--noise", "-0.01"], "noise", id="noise-negative"),
        pytest.param(["generate", "--noise", "nan"], "noise", id="noise-nan"),
        pytest.param(["generate", "--noise", "inf"], "noise", id="noise-inf"),
        pytest.param(["generate", "--base", "inf"], "base", id="base-inf"),
        pytest.param(["generate", "--season-amp", "nan"], "season_amplitude",
                     id="season-amp-nan"),
        pytest.param(["generate", "--stoch-amp", "inf"], "stoch_amplitude",
                     id="stoch-amp-inf"),
        pytest.param(["generate", "--ar", "nan"], "ar_coeff", id="ar-nan"),
        # -inf and -nan reach the check, not argparse's "expected one argument"
        pytest.param(["generate", "--len", "50", "--stoch-amp", "-inf"],
                     "stoch_amplitude must be finite", id="stoch-amp-negative-inf"),
        pytest.param(["generate", "--len", "50", "--base", "-nan"], "base must be finite",
                     id="base-negative-nan"),
        pytest.param(["generate", "--ar", "5"], "ar_coeff", id="ar-diverges"),
        pytest.param(["evaluate", "--ar", "5"], "ar_coeff", id="evaluate-ar-diverges"),
        pytest.param(["robustness", "--ar", "-5"], "ar_coeff", id="robustness-ar-diverges"),
        pytest.param(["evaluate", "--noise", "-1e-2"], "noise must be >= 0",
                     id="evaluate-noise-negative"),
        pytest.param(["robustness", "--ar", "inf"], "ar_coeff", id="robustness-ar-inf"),
        # a size below one is refused by name, before the grid check that
        # --allow-off-grid skips
        pytest.param(["train", "--model", "rnn", "--hidden", "0"],
                     "hidden must be at least 1, got 0", id="rnn-hidden-0"),
        pytest.param(["train", "--model", "rnn", "--hidden", "-3"],
                     "hidden must be at least 1, got -3", id="rnn-hidden-negative"),
        pytest.param(["train", "--model", "lstm", "--hidden", "0"],
                     "hidden must be at least 1, got 0", id="lstm-hidden-0"),
        pytest.param(["train", "--hidden", "0", "--allow-off-grid"],
                     "rnn_hidden must be at least 1, got 0", id="crnn-hidden-0-off-grid"),
        pytest.param(["train", "--filters", "0", "--allow-off-grid"],
                     "filters_per_layer must be at least 1, got 0", id="filters-0-off-grid"),
        pytest.param(["train", "--filters", "0"],
                     "filters_per_layer must be at least 1, got 0", id="filters-0"),
        pytest.param(["train", "--filter-size", "0", "--allow-off-grid"],
                     "filter_size must be at least 1, got 0", id="filter-size-0-off-grid"),
        # a negative seed is refused by name, not by numpy's generator
        pytest.param(["generate", "--seed", "-1"], "seed must be >= 0, got -1",
                     id="generate-seed-negative"),
        pytest.param(["train", "--seed", "-1"], "seed must be >= 0, got -1",
                     id="train-seed-negative"),
        pytest.param(["train", "--model", "rnn", "--seed", "-1"], "seed must be >= 0, got -1",
                     id="train-rnn-seed-negative"),
        pytest.param(["gradcheck", "--model", "lstm", "--seed", "-1"],
                     "seed must be >= 0, got -1", id="gradcheck-seed-negative"),
        pytest.param(["evaluate", "--seeds", "-1"], "--seeds takes seeds >= 0, got -1",
                     id="evaluate-seeds-negative"),
        pytest.param(["evaluate", "--method", "crnn", "--seeds", "-1"],
                     "--seeds takes seeds >= 0, got -1", id="evaluate-crnn-seeds-negative"),
        pytest.param(["robustness", "--seeds", "0,-2"], "--seeds takes seeds >= 0, got -2",
                     id="robustness-seeds-negative"),
    ])
    def test_is_usage_error_naming_the_field(self, dataset, tmp_path, capsys, argv, field):
        command, *flags = argv
        out = ["--out", str(tmp_path / "out")]
        extra = {"train": train_args(dataset, tmp_path / "out")[1:],
                 "gradcheck": ["--small"],
                 "generate": out,
                 "evaluate": ["--method", "yesterday", "--l", "8", "--p", "2", *out],
                 "robustness": ["--l", "8", "--p", "2", *out]}[command]
        assert main([command, *extra, *flags]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: usage: ") and field in err
        assert not (tmp_path / "out").exists()

    def test_negative_seed_on_csv_data_is_usage_error(self, dataset, tmp_path, capsys):
        # a fixed dataset needs no seeded generator, so only --seeds' own check refuses it
        out = tmp_path / "out"
        assert main(["evaluate", "--method", "yesterday", "--data", str(dataset), "--l", "8",
                     "--p", "2", "--seeds", "-1", "--out", str(out)]) == 1
        assert "--seeds takes seeds >= 0, got -1" in capsys.readouterr().err
        assert not out.exists()


class TestFailedRunLeavesNoDirectory:
    """A command makes its output directory only once its inputs have been
    read and checked."""

    @pytest.mark.parametrize("argv, code", [
        pytest.param(["generate", "--len", "1"], 1, id="generate-bad-length"),
        pytest.param(["train", "--model", "crnn", "--data", "MISSING", "--l", "8", "--p", "2"],
                     2, id="train-missing-data"),
        pytest.param(["train", "--model", "crnn", "--data", "DATA", "--l", "51", "--p", "2"],
                     1, id="train-indivisible-l"),
        pytest.param(["forecast", "--data", "MISSING", "--checkpoint", "CKPT"], 2,
                     id="forecast-missing-data"),
        pytest.param(["forecast", "--data", "DATA", "--checkpoint", "CKPT",
                      "--offset", "9999"], 2, id="forecast-offset-outside"),
        pytest.param(["evaluate", "--method", "yesterday", "--data", "MISSING", "--l", "8",
                      "--p", "2"], 2, id="evaluate-missing-data"),
        pytest.param(["evaluate", "--method", "yesterday", "--data", "DATA", "--l", "8",
                      "--p", "2", "--eval-stride", "0"], 1, id="evaluate-stride-0"),
        pytest.param(["evaluate", "--method", "yesterday", "--data", "DATA", "--l", "256",
                      "--p", "2"], 2, id="evaluate-too-short"),
        pytest.param(["robustness", "--data", "MISSING", "--l", "8", "--p", "2"], 2,
                     id="robustness-missing-data"),
        pytest.param(["robustness", "--data", "ONE_SERIES", "--l", "8", "--p", "2"], 2,
                     id="robustness-one-series"),
        pytest.param(["gridsearch", "--data", "MISSING", "--l", "8", "--p", "2"], 2,
                     id="gridsearch-missing-data"),
    ])
    def test_error_leaves_no_directory(self, dataset, tmp_path, capsys, argv, code):
        one_series = tmp_path / "one.csv"
        one_series.write_text("a\n" + "\n".join(str(v) for v in range(40)) + "\n")
        paths = {"MISSING": str(tmp_path / "missing.csv"), "DATA": str(dataset),
                 "CKPT": str(FORMAT2_TRAINED), "ONE_SERIES": str(one_series)}
        out = tmp_path / "out"
        argv = [paths.get(token, token) for token in argv] + ["--out", str(out)]
        assert main(argv) == code
        assert "error:" in capsys.readouterr().err
        assert not out.exists()


class TestOutputRoot:
    def test_env_var_controls_default_root(self, dataset, tmp_path, monkeypatch):
        monkeypatch.setenv("CRNN_FORECAST_OUT", str(tmp_path / "root"))
        code = main(["generate", "--len", "60"])
        assert code == 0
        assert (tmp_path / "root" / "generate" / "data.csv").exists()
