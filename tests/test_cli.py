import json
import re
import warnings

import numpy as np
import pytest

from swingfreq.cli import build_parser, main
from swingfreq.controllers import LinearController, save_controller


# every numeric entry of certificate.json, by key path; the benchmark compares
# the certificate's numbers against stored values by position
CERTIFICATE_NUMBERS = {
    "beta1", "beta1_sampled", "beta2", "beta2_sampled", "dt", "gamma1", "gamma2",
    "horizon", "margin", "n_trajectories", "roa.r", "roa.rho", "samples", "tol",
    "tol_coeff", "worst_by_trajectory[]", "worst_margin", "worst_time",
}


def numeric_paths(doc, prefix=""):
    if isinstance(doc, dict):
        return set().union(*(numeric_paths(v, f"{prefix}{k}.") for k, v in doc.items()))
    if isinstance(doc, list):
        return set().union(*(numeric_paths(v, prefix[:-1] + "[].") for v in doc))
    if isinstance(doc, (int, float)) and not isinstance(doc, bool):
        return {prefix[:-1]}
    return set()


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    data = np.array([[float(x) for x in row.split(",")] for row in lines[1:]])
    return header, data


class TestSimulate:
    def test_step_scenario_record_count(self, tmp_path):
        rc = main([
            "simulate", "--case", "ne39", "--controller", "droop",
            "--horizon", "15", "--out", str(tmp_path),
        ])
        assert rc == 0
        header, data = read_csv(tmp_path / "trajectory.csv")
        assert data.shape[0] == 1501
        assert header[0] == "t"
        # four blocks of 39 buses plus the time column
        assert len(header) == 1 + 4 * 39
        assert (tmp_path / "trajectory.json").exists()

    def test_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            rc = main([
                "simulate", "--case", "two_bus", "--seed", "3",
                "--noise", "0.01", "--out", str(out),
            ])
            assert rc == 0
        for name in ("trajectory.csv", "trajectory.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_zero_disturbance_reports_zero_nadir(self, tmp_path, capsys):
        rc = main([
            "simulate", "--case", "two_bus", "--no-disturbance",
            "--horizon", "2", "--out", str(tmp_path),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        nadir = float(re.search(r"nadir\s+(\S+) rad/s", out).group(1))
        assert nadir <= 1e-10

    def test_missing_case_exits_2_naming_path(self, tmp_path, capsys):
        rc = main([
            "simulate", "--case", "/nowhere/missing.json", "--out", str(tmp_path),
        ])
        assert rc == 2
        assert "/nowhere/missing.json" in capsys.readouterr().err

    def test_malformed_checkpoint_exits_2_naming_file_and_key(self, tmp_path, capsys):
        main(["train", "--case", "two_bus", "--controller", "droop",
              "--scenarios", "2", "--epochs", "1", "--out", str(tmp_path)])
        path = tmp_path / "checkpoint.json"
        doc = json.loads(path.read_text())
        del doc["optimizer"]["v"]
        path.write_text(json.dumps(doc))
        rc = main([
            "simulate", "--case", "two_bus", "--checkpoint", str(path),
            "--horizon", "1", "--out", str(tmp_path),
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert str(path) in err and "'v'" in err

    def test_controller_document_error_names_the_checkpoint(self, tmp_path, capsys):
        main(["train", "--case", "two_bus", "--controller", "droop",
              "--scenarios", "2", "--epochs", "1", "--out", str(tmp_path)])
        path = tmp_path / "checkpoint.json"
        doc = json.loads(path.read_text())
        del doc["controller"]["raw_gain"]
        path.write_text(json.dumps(doc))
        rc = main([
            "simulate", "--case", "two_bus", "--checkpoint", str(path),
            "--horizon", "1", "--out", str(tmp_path),
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert str(path) in err and "'raw_gain'" in err

    def test_horizon_before_onset_summarises_whole_run(self, tmp_path, capsys):
        rc = main([
            "simulate", "--case", "two_bus", "--horizon", "1", "--out", str(tmp_path),
        ])
        assert rc == 0
        header, data = read_csv(tmp_path / "trajectory.csv")
        w_cols = [i for i, h in enumerate(header) if h.startswith("omega_")]
        nadir = float(re.search(r"nadir\s+(\S+) rad/s", capsys.readouterr().out).group(1))
        assert nadir == pytest.approx(np.abs(data[:, w_cols]).max(), rel=1e-5)

    def test_saturation_caps_recorded_control(self, tmp_path):
        rc = main([
            "simulate", "--case", "two_bus", "--saturate", "0.05",
            "--horizon", "4", "--out", str(tmp_path),
        ])
        assert rc == 0
        header, data = read_csv(tmp_path / "trajectory.csv")
        u_cols = [i for i, h in enumerate(header) if h.startswith("u_")]
        assert np.abs(data[:, u_cols]).max() <= 0.05 + 1e-12


class TestTrain:
    def test_writes_one_loss_per_epoch(self, tmp_path):
        rc = main([
            "train", "--case", "two_bus", "--controller", "droop",
            "--scenarios", "4", "--epochs", "20", "--out", str(tmp_path),
        ])
        assert rc == 0
        doc = json.loads((tmp_path / "checkpoint.json").read_text())
        assert len(doc["losses"]) == 20
        assert doc["config"]["epochs_done"] == 20
        assert doc["controller"]["type"] == "droop"

    def test_resume_matches_uninterrupted_run(self, tmp_path):
        base = ["train", "--case", "two_bus", "--controller", "droop",
                "--scenarios", "4"]
        assert main(base + ["--epochs", "10", "--out", str(tmp_path / "full")]) == 0
        assert main(base + ["--epochs", "5", "--out", str(tmp_path / "half")]) == 0
        rc = main([
            "train", "--case", "two_bus",
            "--checkpoint", str(tmp_path / "half" / "checkpoint.json"),
            "--epochs", "5", "--out", str(tmp_path / "resumed"),
        ])
        assert rc == 0
        full = json.loads((tmp_path / "full" / "checkpoint.json").read_text())
        resumed = json.loads((tmp_path / "resumed" / "checkpoint.json").read_text())
        assert resumed == full

    def test_resume_needs_a_training_checkpoint(self, tmp_path, capsys):
        # a bare controller file carries no config to resume from
        bare = tmp_path / "bare.json"
        main(["train", "--case", "two_bus", "--controller", "droop",
              "--scenarios", "2", "--epochs", "1", "--out", str(tmp_path)])
        doc = json.loads((tmp_path / "checkpoint.json").read_text())
        bare.write_text(json.dumps(doc["controller"]))
        rc = main([
            "train", "--case", "two_bus", "--checkpoint", str(bare),
            "--epochs", "1", "--out", str(tmp_path),
        ])
        assert rc == 2
        assert "config" in capsys.readouterr().err

    def test_malformed_config_exits_2_naming_file_and_key(self, tmp_path, capsys):
        main(["train", "--case", "two_bus", "--controller", "droop",
              "--scenarios", "2", "--epochs", "1", "--out", str(tmp_path)])
        path = tmp_path / "checkpoint.json"
        doc = json.loads(path.read_text())
        del doc["config"]["seed"]
        path.write_text(json.dumps(doc))
        rc = main([
            "train", "--case", "two_bus", "--checkpoint", str(path),
            "--epochs", "1", "--out", str(tmp_path / "resumed"),
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert str(path) in err and "'seed'" in err

    @pytest.mark.parametrize("key, value", [
        ("lr", -1.0), ("lr", 0.0), ("lr", float("nan")), ("lr", "fast"), ("dt", 0.0),
    ])
    def test_resumed_step_sizes_must_be_positive(self, key, value, tmp_path, capsys):
        main(["train", "--case", "two_bus", "--controller", "droop",
              "--scenarios", "2", "--epochs", "1", "--out", str(tmp_path)])
        path = tmp_path / "checkpoint.json"
        doc = json.loads(path.read_text())
        doc["config"][key] = value
        path.write_text(json.dumps(doc))
        rc = main([
            "train", "--case", "two_bus", "--checkpoint", str(path),
            "--epochs", "1", "--out", str(tmp_path / "resumed"),
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert str(path) in err and f"'{key}'" in err
        assert not (tmp_path / "resumed").exists()

    @pytest.mark.parametrize("key, value", [
        ("seed", "x"), ("batch_size", 2.5), ("smooth_max", "yes"), ("batch_size", 0),
        ("n_scenarios", 0), ("epochs_done", -1), ("noise", -1),
    ])
    def test_resumed_config_values_are_checked(self, key, value, tmp_path, capsys):
        main(["train", "--case", "two_bus", "--controller", "droop",
              "--scenarios", "2", "--epochs", "1", "--out", str(tmp_path)])
        path = tmp_path / "checkpoint.json"
        doc = json.loads(path.read_text())
        doc["config"][key] = value
        path.write_text(json.dumps(doc))
        rc = main([
            "train", "--case", "two_bus", "--checkpoint", str(path),
            "--epochs", "1", "--out", str(tmp_path / "resumed"),
        ])
        assert rc == 2
        assert f"malformed checkpoint {path}: config key '{key}' must be" in (
            capsys.readouterr().err
        )
        assert not (tmp_path / "resumed").exists()

    def test_resume_refuses_a_disagreeing_flag(self, tmp_path, capsys):
        main(["train", "--case", "two_bus", "--controller", "droop",
              "--scenarios", "2", "--epochs", "1", "--out", str(tmp_path)])
        path = tmp_path / "checkpoint.json"
        rc = main([
            "train", "--case", "two_bus", "--checkpoint", str(path), "--epochs", "1",
            "--lr", "0.5", "--seed", "9", "--scenarios", "7", "--noise", "0.1",
            "--out", str(tmp_path / "resumed"),
        ])
        assert rc == 2
        # the first disagreeing flag is named, with the config's value
        err = capsys.readouterr().err
        assert f"--lr disagrees with the config of {path}, which has lr = 0.001" in err
        assert not (tmp_path / "resumed").exists()

    def test_resume_refuses_smooth_max_on_a_hard_max_run(self, tmp_path, capsys):
        main(["train", "--case", "two_bus", "--controller", "droop",
              "--scenarios", "2", "--epochs", "1", "--out", str(tmp_path)])
        path = tmp_path / "checkpoint.json"
        rc = main(["train", "--case", "two_bus", "--checkpoint", str(path),
                   "--epochs", "1", "--smooth-max", "--out", str(tmp_path / "resumed")])
        assert rc == 2
        assert "--smooth-max disagrees" in capsys.readouterr().err
        assert not (tmp_path / "resumed").exists()

    def test_resume_accepts_flags_matching_its_config(self, tmp_path):
        main(["train", "--case", "two_bus", "--controller", "droop",
              "--scenarios", "2", "--epochs", "1", "--out", str(tmp_path)])
        assert main([
            "train", "--case", "two_bus", "--checkpoint", str(tmp_path / "checkpoint.json"),
            "--epochs", "1", "--lr", "0.001", "--seed", "0", "--scenarios", "2",
            "--noise", "0", "--dt", "0.01", "--batch-size", "25",
            "--out", str(tmp_path / "resumed"),
        ]) == 0

    def test_resume_checks_optimizer_size(self, tmp_path, capsys):
        # two_bus droop has 2 raw parameters; a 1-entry moment would broadcast
        main(["train", "--case", "two_bus", "--controller", "droop",
              "--scenarios", "2", "--epochs", "1", "--out", str(tmp_path)])
        path = tmp_path / "checkpoint.json"
        doc = json.loads(path.read_text())
        doc["optimizer"]["m"] = [1.0]
        path.write_text(json.dumps(doc))
        rc = main([
            "train", "--case", "two_bus", "--checkpoint", str(path),
            "--epochs", "1", "--out", str(tmp_path / "resumed"),
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert str(path) in err and "'m'" in err
        assert not (tmp_path / "resumed" / "checkpoint.json").exists()

    def test_divergence_exits_3(self, tmp_path, capsys):
        rc = main([
            "train", "--case", "two_bus", "--controller", "droop",
            "--scenarios", "2", "--epochs", "5", "--lr", "1e8",
            "--out", str(tmp_path),
        ])
        assert rc == 3
        assert "diverged" in capsys.readouterr().err
        # the checkpoint still holds usable (finite) parameters
        doc = json.loads((tmp_path / "checkpoint.json").read_text())
        assert np.all(np.isfinite(doc["controller"]["raw_gain"]))


class TestEvaluate:
    def test_three_controllers_share_one_battery(self, tmp_path):
        rc = main([
            "evaluate", "--case", "two_bus",
            "--controller", "droop", "--controller", "pwl",
            "--controller", "integral",
            "--scenarios", "3", "--out", str(tmp_path),
        ])
        assert rc == 0
        lines = (tmp_path / "comparison.csv").read_text().strip().splitlines()
        assert len(lines) == 4
        hashes = {row.split(",")[1] for row in lines[1:]}
        assert len(hashes) == 1
        doc = json.loads((tmp_path / "comparison.json").read_text())
        per_ctrl = {}
        for row in doc["rows"]:
            per_ctrl.setdefault(row["controller"], set()).add(row["scenario_hash"])
        assert len(set(map(frozenset, per_ctrl.values()))) == 1
        assert all(s["n_scenarios"] == 3 for s in doc["summary"].values())

    def test_trained_checkpoint_is_accepted(self, tmp_path):
        main(["train", "--case", "two_bus", "--controller", "droop",
              "--scenarios", "2", "--epochs", "2", "--out", str(tmp_path)])
        rc = main([
            "evaluate", "--case", "two_bus",
            "--checkpoint", str(tmp_path / "checkpoint.json"),
            "--controller", "droop",
            "--scenarios", "2", "--out", str(tmp_path),
        ])
        assert rc == 0
        lines = (tmp_path / "comparison.csv").read_text().strip().splitlines()
        assert len(lines) == 3  # header + checkpoint row + fresh droop row

    def test_thread_cap_does_not_change_results(self, tmp_path, monkeypatch):
        args = ["evaluate", "--case", "two_bus", "--controller", "droop",
                "--scenarios", "4"]
        monkeypatch.setenv("SWINGFREQ_THREADS", "1")
        assert main(args + ["--out", str(tmp_path / "serial")]) == 0
        monkeypatch.setenv("SWINGFREQ_THREADS", "3")
        assert main(args + ["--out", str(tmp_path / "pooled")]) == 0
        assert (
            (tmp_path / "serial" / "comparison.csv").read_bytes()
            == (tmp_path / "pooled" / "comparison.csv").read_bytes()
        )

    def test_bad_thread_cap_exits_2(self, tmp_path, monkeypatch, capsys):
        for bad in ("0", "abc"):
            monkeypatch.setenv("SWINGFREQ_THREADS", bad)
            rc = main([
                "evaluate", "--case", "two_bus", "--controller", "droop",
                "--scenarios", "1", "--out", str(tmp_path),
            ])
            assert rc == 2
            assert "SWINGFREQ_THREADS" in capsys.readouterr().err

    def test_equilibrium_solved_once_per_command(self, tmp_path, monkeypatch):
        from swingfreq import cli, dynamics, netmodel

        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return netmodel.solve_equilibrium(*args, **kwargs)

        for mod in (cli, dynamics):
            monkeypatch.setattr(mod, "solve_equilibrium", counting)
        assert main([
            "evaluate", "--case", "two_bus", "--controller", "droop",
            "--controller", "integral", "--scenarios", "3", "--out", str(tmp_path),
        ]) == 0
        assert len(calls) == 1
        assert main([
            "certify", "--case", "two_bus", "--controller", "integral",
            "--scenarios", "3", "--calibration", "2", "--samples", "50",
            "--out", str(tmp_path),
        ]) == 0
        assert len(calls) == 2

    def test_nothing_to_evaluate_exits_2(self, tmp_path, capsys):
        rc = main(["evaluate", "--case", "two_bus", "--out", str(tmp_path)])
        assert rc == 2
        assert "nothing to evaluate" in capsys.readouterr().err

    def test_short_horizon_exits_2(self, tmp_path, capsys):
        rc = main([
            "evaluate", "--case", "two_bus", "--controller", "droop",
            "--horizon", "10", "--out", str(tmp_path),
        ])
        assert rc == 2
        assert "horizon" in capsys.readouterr().err


class TestCertify:
    def test_droop_certificate_passes(self, tmp_path, capsys):
        rc = main([
            "certify", "--case", "two_bus", "--controller", "droop",
            "--scenarios", "3", "--calibration", "2", "--samples", "50",
            "--out", str(tmp_path),
        ])
        assert rc == 0
        assert "certificate PASS" in capsys.readouterr().out
        doc = json.loads((tmp_path / "certificate.json").read_text())
        assert doc["pass"] is True
        assert doc["worst_margin"] <= doc["tol"]
        assert doc["n_trajectories"] == 3
        assert numeric_paths(doc) == CERTIFICATE_NUMBERS

    def test_destabilizing_feedback_fails_with_violation_time(self, tmp_path, capsys):
        # u = -omega cancels more than the local damping on the 39-bus case
        path = tmp_path / "negative.json"
        save_controller(LinearController(np.full(39, -1.0)), path)
        rc = main([
            "certify", "--case", "ne39", "--controller", str(path),
            "--scenarios", "2", "--calibration", "2", "--samples", "20",
            "--out", str(tmp_path),
        ])
        assert rc == 4
        err = capsys.readouterr().err
        assert re.search(r"t=\d+\.\d+", err)
        # every rolled trajectory, calibration ones included, leaves the region
        # max |delta_i - delta_j| <= pi/2 - margin, named by its first exit
        exits = re.findall(
            r"(calibration trajectory|trajectory) (\d) left the operating region at "
            r"t=\d+\.\d+ s: line (\d+)-(\d+) angle (\d+\.\d+) rad exceeds "
            r"pi/2 - margin = 1\.561 rad", err,
        )
        assert {(kind, i) for kind, i, *_ in exits} == {
            ("calibration trajectory", "0"), ("calibration trajectory", "1"),
            ("trajectory", "0"), ("trajectory", "1"),
        }
        assert all(1 <= int(a) < int(b) <= 39 and float(x) > 1.561 for *_, a, b, x in exits)
        doc = json.loads((tmp_path / "certificate.json").read_text())
        assert doc["pass"] is False
        assert doc["worst_margin"] > doc["tol"]
        assert numeric_paths(doc) == CERTIFICATE_NUMBERS

    def test_diverging_trajectory_is_named(self, tmp_path, capsys):
        path = tmp_path / "negative.json"
        save_controller(LinearController(np.full(2, -300.0)), path)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main([
                "certify", "--case", "two_bus", "--controller", str(path),
                "--scenarios", "2", "--calibration", "2", "--samples", "10",
                "--out", str(tmp_path / "out"),
            ])
        assert rc == 1
        # the divergence is reported once, as the error below, not as overflow warnings
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert re.search(
            r"error: (calibration trajectory|trajectory) [01] diverged: "
            r"non-finite state at step \d+ \(t=\d+\.\d+\)",
            capsys.readouterr().err,
        )

    def test_battery_is_one_batch_without_histories(self, tmp_path, monkeypatch):
        from swingfreq import dynamics, lyapunov, training

        calls = []
        integrate = dynamics._integrate

        def recording(net, controller, stack, method, record, observe=None):
            hist = integrate(net, controller, stack, method, record, observe)
            calls.append((stack.B, tuple(record), observe is not None, hist))
            return hist

        for mod in (dynamics, lyapunov, training):
            monkeypatch.setattr(mod, "_integrate", recording)
        assert main([
            "certify", "--case", "two_bus", "--controller", "adaptive",
            "--scenarios", "3", "--calibration", "2", "--samples", "20",
            "--out", str(tmp_path),
        ]) == 0
        # calibration and battery in one batch, reduced by an observer
        assert calls == [(5, (), True, {})]
        doc = json.loads((tmp_path / "certificate.json").read_text())
        assert numeric_paths(doc) == CERTIFICATE_NUMBERS

    def test_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main([
                "certify", "--case", "two_bus", "--controller", "adaptive",
                "--scenarios", "2", "--calibration", "2", "--samples", "20",
                "--out", str(out),
            ]) == 0
        assert (a / "certificate.json").read_bytes() == (b / "certificate.json").read_bytes()

    def test_document_is_the_library_certificate(self, tmp_path):
        from swingfreq.cli import _fresh_controller
        from swingfreq.lyapunov import certify
        from swingfreq.netmodel import bundled_case_path, load_case, solve_equilibrium

        assert main([
            "certify", "--case", "two_bus", "--controller", "integral", "--seed", "3",
            "--scenarios", "3", "--calibration", "2", "--samples", "50",
            "--out", str(tmp_path),
        ]) == 0
        net = load_case(bundled_case_path("two_bus"))
        doc, failures = certify(
            net, _fresh_controller("integral", net.n), solve_equilibrium(net),
            scenarios=3, calibration=2, seed=3, horizon=6.0, dt=0.005, margin=0.01,
            samples=50,
        )
        written = json.loads((tmp_path / "certificate.json").read_text())
        assert (written.pop("controller"), written.pop("case")) == ("integral", "two_bus")
        assert written == doc and failures == []

    def test_saturated_controller_is_refused(self, tmp_path, capsys):
        rc = main([
            "certify", "--case", "two_bus", "--controller", "droop",
            "--saturate", "0.1", "--out", str(tmp_path),
        ])
        assert rc == 4
        assert "refused" in capsys.readouterr().err
        assert not (tmp_path / "certificate.json").exists()


@pytest.mark.parametrize("command", [
    ["simulate", "--case", "two_bus", "--horizon", "1"],
    ["certify", "--case", "two_bus", "--scenarios", "1", "--calibration", "1",
     "--samples", "10"],
])
def test_every_command_checks_thread_cap(command, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SWINGFREQ_THREADS", "abc")
    assert main(command + ["--out", str(tmp_path)]) == 2
    assert "SWINGFREQ_THREADS" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["simulate", "train", "evaluate", "certify"])
def test_case_without_lines_exits_2_naming_it(command, tmp_path, capsys):
    case = tmp_path / "lonely.json"
    case.write_text(json.dumps({
        "version": 1, "buses": [{"id": 1, "M": 1.0, "D": 1.0, "p_star": 0.0}], "lines": [],
    }))
    assert main([command, "--case", str(case), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert str(case) in err and "has no lines" in err


@pytest.mark.parametrize("command, flag, value", [
    ("simulate", "--dt", "0"),
    ("simulate", "--dt", "-0.01"),
    ("simulate", "--horizon", "0"),
    ("simulate", "--noise", "-0.1"),
    ("train", "--log-every", "0"),
    ("train", "--batch-size", "0"),
    ("train", "--epochs", "-1"),
    ("train", "--lr", "nan"),
    ("train", "--lr", "-1"),
    ("evaluate", "--scenarios", "0"),
    ("certify", "--samples", "0"),
    ("certify", "--scenarios", "0"),
    ("certify", "--calibration", "0"),
    ("certify", "--margin", "2"),
    ("simulate", "--saturate", "-1"),
    ("certify", "--saturate", "inf"),
])
def test_bad_numeric_flag_exits_2_naming_it(command, flag, value, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--case", "two_bus", flag, value, "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert f"argument {flag}:" in capsys.readouterr().err


class TestSharedInputs:
    def test_dt_defaults_stay_per_command(self):
        # parents share their actions, so a set_defaults on one subparser would
        # leak into the others; each command keeps its own --dt default
        parser = build_parser()
        got = {cmd: parser.parse_args([cmd]).dt
               for cmd in ("simulate", "train", "evaluate", "certify")}
        assert got == {"simulate": 0.01, "train": 0.01, "evaluate": 0.01, "certify": 0.005}

    @pytest.mark.parametrize("command", ["simulate", "train", "evaluate", "certify"])
    def test_every_command_takes_seed_and_out(self, command):
        args = build_parser().parse_args([command, "--seed", "7", "--out", "there"])
        assert (args.seed, args.out) == (7, "there")

    @pytest.mark.parametrize("flag, method", [(None, "rk4"), ("--rk4", "rk4"), ("--euler", "euler")])
    def test_method_flags(self, flag, method, tmp_path):
        extra = [flag] if flag else []
        assert main(["simulate", "--case", "two_bus", "--horizon", "1", *extra,
                     "--out", str(tmp_path / "sim")]) == 0
        meta = json.loads((tmp_path / "sim" / "trajectory.json").read_text())
        assert meta["method"] == method
        assert main(["evaluate", "--case", "two_bus", "--controller", "droop",
                     "--scenarios", "1", *extra, "--out", str(tmp_path / "eval")]) == 0
        doc = json.loads((tmp_path / "eval" / "comparison.json").read_text())
        assert doc["method"] == method

    @pytest.mark.parametrize("command", ["simulate", "train", "certify"])
    def test_controller_and_checkpoint_exclude_each_other(self, command, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--controller", "pwl", "--checkpoint", "c.json",
                  "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert ("argument --checkpoint: not allowed with argument --controller"
                in capsys.readouterr().err)
        assert not any(tmp_path.iterdir())

    def test_euler_and_rk4_exclude_each_other(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--euler", "--rk4"])
        assert exc.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err

    def test_checkpoint_works_as_controller_file(self, tmp_path):
        main(["train", "--case", "two_bus", "--controller", "droop",
              "--scenarios", "2", "--epochs", "1", "--out", str(tmp_path)])
        ckpt = str(tmp_path / "checkpoint.json")
        for flag in ("--controller", "--checkpoint"):
            out = tmp_path / flag.strip("-")
            assert main(["simulate", "--case", "two_bus", flag, ckpt, "--horizon", "1",
                         "--out", str(out)]) == 0
        assert ((tmp_path / "controller" / "trajectory.csv").read_bytes()
                == (tmp_path / "checkpoint" / "trajectory.csv").read_bytes())

    def test_controller_file_error_names_the_file(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text(json.dumps({"type": "droop"}))
        rc = main(["certify", "--case", "two_bus", "--controller", str(path),
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert str(path) in err and "'raw_gain'" in err

    def test_non_finite_controller_file_exits_2_naming_it(self, tmp_path, capsys):
        path = tmp_path / "nan.json"
        path.write_text(json.dumps({"type": "droop", "raw_gain": [float("nan"), 0.0]}))
        rc = main(["certify", "--case", "two_bus", "--controller", str(path),
                   "--scenarios", "1", "--calibration", "1", "--samples", "10",
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert str(path) in err and "raw_gain must be finite" in err
        assert not (tmp_path / "out").exists()

    def test_evaluate_names_the_diverging_controller(self, tmp_path, capsys):
        path = tmp_path / "lin300.json"
        save_controller(LinearController(np.full(2, -300.0)), path)
        rc = main(["evaluate", "--case", "two_bus", "--controller", "droop",
                   "--controller", str(path), "--scenarios", "2", "--out", str(tmp_path)])
        assert rc == 1
        assert re.search(
            r"error: controller 'lin300' diverged in scenario 0 \([0-9a-f]{12}\): "
            r"non-finite state at step \d+ \(t=\d+\.\d+\)",
            capsys.readouterr().err,
        )
