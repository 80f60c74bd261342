import hashlib
import json
import os
import subprocess
import sys
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest

from omplab import cli, experiments, sensing
from omplab import (
    SparseSignal,
    gaussian_sensing_matrix,
    generate_measurement,
    random_sparse_signal,
    write_matrix,
    write_signal,
    write_vector,
)
from omplab.cli import main
from omplab.omp import STOP_RESIDUAL

from _oracles import ZeroColumn, ZeroNoise


@pytest.fixture()
def workspace(tmp_path):
    A = gaussian_sensing_matrix(10, 14, seed=31)
    x = random_sparse_signal(14, 2, 1.0, 5.0, seed=32)
    inst = generate_measurement(A, x, 0.05, seed=33)
    paths = {
        "A": tmp_path / "A.mat",
        "x": tmp_path / "x.sig",
        "y": tmp_path / "y.vec",
        "dir": tmp_path,
    }
    write_matrix(paths["A"], A)
    write_signal(paths["x"], x)
    write_vector(paths["y"], inst.measurement)
    return paths


def test_cli_ric(workspace, capsys):
    code = main(["ric", "--matrix", str(workspace["A"]), "--order", "2"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["order"] == 2
    assert payload["subsets_examined"] == 91
    assert len(payload["witness"]) == 2


def test_cli_ric_capacity_exit_code(workspace, capsys):
    code = main(
        ["ric", "--matrix", str(workspace["A"]), "--order", "7", "--budget", "10"]
    )
    assert code == 3
    assert "capacity" in capsys.readouterr().err


def test_cli_ric_validation_exit_code(workspace, capsys):
    assert main(["ric", "--matrix", str(workspace["A"]), "--order", "0"]) == 2
    assert main(["ric", "--matrix", "/nonexistent.mat", "--order", "2"]) == 2
    for budget in ("0", "-5"):
        args = ["ric", "--matrix", str(workspace["A"]), "--order", "2"]
        assert main(args + ["--budget", budget]) == 2
        assert "subset budget must be positive" in capsys.readouterr().err


def test_cli_ric_at_high_order(tmp_path, capsys):
    # one subset of 1010 columns: the enumeration must not recurse per order
    A = tmp_path / "A.mat"
    write_matrix(A, gaussian_sensing_matrix(3, 1010, seed=4))
    assert main(["ric", "--matrix", str(A), "--order", "1010"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["subsets_examined"] == 1
    assert payload["witness"] == list(range(1010))


def test_cli_ric_and_check_reject_overflowing_gram(tmp_path, capsys):
    A = tmp_path / "A.mat"
    x = tmp_path / "x.sig"
    write_matrix(A, [[1e200, 0, 0], [0, 1, 0], [0, 0, 1]])
    write_signal(x, SparseSignal(dimension=3, support=[0], values=[1.0]))
    for argv in (
        ["ric", "--matrix", str(A), "--order", "2"],
        ["check", "--matrix", str(A), "--signal", str(x), "--eps", "0.1"],
    ):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "overflows" in err
        assert "Traceback" not in err


def test_cli_omp_with_trace(workspace, capsys):
    trace = workspace["dir"] / "trace.csv"
    code = main(
        [
            "omp",
            "--matrix", str(workspace["A"]),
            "--measurement", str(workspace["y"]),
            "--eps", "0.05",
            "--trace", str(trace),
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["stopped_by"] == "rule_met"
    assert payload["final_residual_norm"] <= 0.05
    lines = trace.read_text().strip().splitlines()
    assert lines[0].startswith("k,selected_index")
    assert len(lines) == payload["iterations"] + 1


def test_cli_omp_max_iter(workspace, capsys):
    code = main(
        [
            "omp",
            "--matrix", str(workspace["A"]),
            "--measurement", str(workspace["y"]),
            "--max-iter", "2",
        ]
    )
    assert code == 0
    assert json.loads(capsys.readouterr().out)["iterations"] == 2


def test_cli_check(workspace, capsys):
    code = main(
        [
            "check",
            "--matrix", str(workspace["A"]),
            "--signal", str(workspace["x"]),
            "--eps", "0.05",
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) >= {"ric_ok", "min_mag_ok", "overall"}


def test_cli_check_needs_a_column_beyond_the_support(tmp_path, capsys):
    A = tmp_path / "A.mat"
    x = tmp_path / "x.sig"
    write_matrix(A, [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    write_signal(x, SparseSignal(dimension=3, support=[0, 1, 2], values=[1.0] * 3))
    assert main(["check", "--matrix", str(A), "--signal", str(x), "--eps", "0.1"]) == 2
    err = capsys.readouterr().err
    assert "order must lie in [1, 3], got 4" in err  # exact_ric's order check
    assert "Traceback" not in err


def _tree_digest(directory):
    """sha256 of every file of ``directory``, names and bytes, in name order."""
    digest = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


GOLDEN_CLI_DIGESTS = {
    "ric2": "bbee2a9c6dda32a9b71888ca4d0493156aa51157c257b111daa6d343091e5ec7",
    "ric3": "0bd1f87501c19bc431f53a433d182679d6f2e970867dd7d80bc404acf628f336",
    "check": "e8501da7e08b68a0f15bcc8a80091a4c48d0e5b54f87082e195413dced6aecb2",
    "check_tall0": "a745ecd12ac549aa4b50a12aac5287be4d5c078183b9517b243ddce5c1281cc9",
    "check_tall": "53e8b63c16bae6ab46d097612054feb154069ee6c247a3ae000b104073787de3",
    "omp": "38b1b5f14bf9ecbfdf6588fda07a198136b19fa4f76d59fbdb5b3d6a8616a123",
    "trace": "9f1e4f3bdec0c76bceab29876eb1135d6fbc487b89d0f31c600cb06b9fc713e2",
    "sharpness2": "01dd86a174ea06ab51b0881ca489752de71f97fd680ca390c85585097b63c49a",
    "sharpness2_dir": "cdbb6844f8ff72c5d6781894efd027d360df8c522f8275a5ea6d00940aa4e5db",
    "sharpness3": "a974818555aa108d7aa06630834f82190697706e13fc5007f6a9c6a4edc6c921",
    "sharpness3_dir": "1931578c5b7a5941308bc43d25fe1a4d496140b7e8906fb7135bc20a29725c55",
    "sharpness5": "95ceb0b72ba90196c1b5eaaf8c6e534a616840de7916119f01e95c1053961eac",
    "sharpness5_dir": "d9b25a4840d9f49ded0048d6f439fb58ace7f12d6f5a0d21b0d499f2049e480a",
    "sharpness4_tie": "f3da236acc0dee07862701106be812bacd06ce6e6a53cac705fe95474313e0f7",
}


def test_cli_outputs_keep_their_bytes(workspace, capsys):
    # sha256 of each output as first recorded: the ric and check JSON, the
    # omp --trace stdout and trace CSV, and the sharpness directories
    A, x, y = (str(workspace[key]) for key in ("A", "x", "y"))
    tall, spike = workspace["dir"] / "tall.mat", workspace["dir"] / "spike.sig"
    write_matrix(tall, gaussian_sensing_matrix(48, 10, seed=5))  # RIC condition holds
    write_signal(spike, random_sparse_signal(10, 1, 1.0, 5.0, seed=6))
    trace = workspace["dir"] / "trace.csv"
    digests = {}
    for name, argv in (
        ("ric2", ["ric", "--matrix", A, "--order", "2"]),
        ("ric3", ["ric", "--matrix", A, "--order", "3"]),
        ("check", ["check", "--matrix", A, "--signal", x, "--eps", "0.05"]),
        ("check_tall0", ["check", "--matrix", str(tall), "--signal", str(spike),
                         "--eps", "0"]),
        ("check_tall", ["check", "--matrix", str(tall), "--signal", str(spike),
                        "--eps", "0.05"]),
        ("omp", ["omp", "--matrix", A, "--measurement", y, "--eps", "0.05",
                 "--trace", str(trace)]),
    ):
        assert main(argv) == 0
        digests[name] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    digests["trace"] = hashlib.sha256(trace.read_bytes()).hexdigest()
    for k, t in (("2", "0.7"), ("3", "0.9"), ("5", "0.5")):
        out = workspace["dir"] / f"sharpness_{k}"
        assert main(["sharpness", "--k", k, "--t", t, "--out", str(out)]) == 0
        text = capsys.readouterr().out.replace(str(out), "OUT")
        digests[f"sharpness{k}"] = hashlib.sha256(text.encode()).hexdigest()
        digests[f"sharpness{k}_dir"] = _tree_digest(out)
    # one ulp above 1/sqrt(5): rounding breaks the tie toward the support
    out = workspace["dir"] / "sharpness_tie"
    assert main(["sharpness", "--k", "4", "--t", "0.447213595499958", "--out", str(out)]) == 0
    digests["sharpness4_tie"] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert not out.exists()
    assert digests == GOLDEN_CLI_DIGESTS


def test_cli_validate_and_phase_determinism(workspace, capsys):
    cfg = workspace["dir"] / "exp.cfg"
    cfg.write_text(
        "m = 10\nn = 12\nk = 1\nepsilon = 0.0, 0.05\ntrials = 6\nmaster_seed = 3\n"
    )
    outs = {}
    for cmd in ("validate-theorem1", "phase"):
        texts = []
        for par in (1, 4, 8):
            out = workspace["dir"] / f"{cmd}-{par}.csv"
            code = main(
                [
                    cmd,
                    "--config", str(cfg),
                    "--out", str(out),
                    "--parallelism", str(par),
                ]
            )
            assert code == 0
            texts.append(out.read_bytes())
        assert texts[0] == texts[1] == texts[2]
        outs[cmd] = texts[0]
    capsys.readouterr()
    assert outs["validate-theorem1"].startswith(b"m,n,K,epsilon")


def test_cli_bad_config_exit_code(workspace, capsys):
    cfg = workspace["dir"] / "bad.cfg"
    cfg.write_text("m = 10\n")
    out = workspace["dir"] / "out.csv"
    assert main(["validate-theorem1", "--config", str(cfg), "--out", str(out)]) == 2
    cfg.write_text("m = 10\nn = 12\nk = 1\nepsilon = 0.0\ntrials = ten\n")
    assert main(["validate-theorem1", "--config", str(cfg), "--out", str(out)]) == 2
    assert "config key 'trials' on line 5: " in capsys.readouterr().err
    assert not out.exists()
    cfg.write_text("m = 10\nn = 12\nk = 1\nepsilon = 0.0\ntrials = 2\n")
    assert main(["phase", "--config", str(cfg), "--out", str(out), "--parallelism", "0"]) == 2
    assert "parallelism must be positive" in capsys.readouterr().err
    assert not out.exists()


def test_cli_non_finite_config_exit_code(workspace, capsys):
    cfg = workspace["dir"] / "inf.cfg"
    cfg.write_text("m = 10\nn = 12\nk = 1\nepsilon = 0.0\ntrials = 2\n"
                   "dynamic_range = inf\n")
    out = workspace["dir"] / "out.csv"
    assert main(["validate-theorem1", "--config", str(cfg), "--out", str(out)]) == 2
    assert "dynamic_range" in capsys.readouterr().err
    assert not out.exists()
    # finite values whose magnitude range overflows the float maximum
    for command, tail in (
        ("phase", "epsilon = 0.0\nmin_mag_policy = fixed\nmin_mag_fixed = 1e308\n"),
        ("validate-theorem1", "epsilon = 1e307\n"),
    ):
        cfg.write_text("m = 10\nn = 12\nk = 1\ntrials = 2\n" + tail)
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert "must be finite" in capsys.readouterr().err
        assert not out.exists()


def test_cli_overflowing_theorem_bound_floor_exit_code(workspace, capsys, monkeypatch):
    # every trial of this grid skips on its RIC, so only the config can
    # refuse a floor range that overflows; both commands do, before any trial
    ran = []
    monkeypatch.setattr(experiments, "_run_unit", ran.append)
    cfg = workspace["dir"] / "floor.cfg"
    out = workspace["dir"] / "out.csv"
    for tail in ("epsilon = 1e307\n", "epsilon = 0.1\nmargin_factor = 1e308\n"):
        cfg.write_text("m = 3\nn = 6\nk = 2\ntrials = 5\n" + tail)
        for command in ("validate-theorem1", "phase"):
            assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert "margin_factor * 2 * epsilon * dynamic_range must be finite" in err
            assert not out.exists()
    assert ran == []


def test_cli_bad_sign_pattern_exit_code(workspace, capsys, monkeypatch):
    # refused by the config, before any trial could skip on its RIC
    ran = []
    monkeypatch.setattr(experiments, "_run_unit", ran.append)
    cfg = workspace["dir"] / "sign.cfg"
    cfg.write_text("m = 3\nn = 6\nk = 2\nepsilon = 0\ntrials = 5\nsign_pattern = bogus\n")
    out = workspace["dir"] / "out.csv"
    for command in ("validate-theorem1", "phase"):
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert "sign_pattern must be one of" in capsys.readouterr().err
    assert not out.exists()
    assert ran == []



def test_cli_empty_lemma1_deltas_exit_code(workspace, capsys, monkeypatch):
    # lemma1_family draws each matrix's delta from lemma1_deltas, so an empty
    # list is refused by the config, before any trial runs
    ran = []
    monkeypatch.setattr(experiments, "_run_unit", ran.append)
    cfg = workspace["dir"] / "family.cfg"
    cfg.write_text("m = 3\nn = 3\nk = 2\nepsilon = 0\ntrials = 2\n"
                   "ensemble = lemma1_family\nlemma1_deltas =\n")
    out = workspace["dir"] / "out.csv"
    for command in ("validate-theorem1", "phase"):
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert "lemma1_deltas must be non-empty" in capsys.readouterr().err
    assert not out.exists()
    assert ran == []

def test_cli_phase_rejects_noiseless_cell_with_k_above_min_mn(
    workspace, capsys, monkeypatch
):
    # a noiseless cell runs K iterations, which needs K <= min(m, n); the run
    # is refused before any trial, naming the cell
    ran = []
    monkeypatch.setattr(experiments, "_run_unit", ran.append)
    cfg = workspace["dir"] / "deep.cfg"
    cfg.write_text("m = 8\nn = 30\nk = 2, 12\nepsilon = 0.05, 0\ntrials = 2\n")
    out = workspace["dir"] / "out.csv"
    assert main(["phase", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "cell (m=8, n=30, K=12, epsilon=0.0)" in err
    assert "Traceback" not in err
    assert not out.exists()
    assert ran == []
    # noisy cells stop on the residual, so the same K is accepted there
    monkeypatch.undo()
    cfg.write_text("m = 8\nn = 30\nk = 12\nepsilon = 0.05\ntrials = 2\n")
    assert main(["phase", "--config", str(cfg), "--out", str(out)]) == 0
    assert out.exists()


@pytest.mark.parametrize("command, text, message", [
    ("ric", "2 2\n1.0 nan\n0.0 1.0\n", "matrix contains non-finite entries"),
    ("ric", "0 3\n", "matrix dimensions must be positive"),
    ("ric", "2 3\n1.0 2.0 3.0\n", "expected 2 data lines, got 1"),
    ("check", "3\n0 1.0\n", "signal header must be 'n K'"),
    ("check", "14 2\n0 1.0\n", "expected 2 entries, got 1"),
    ("check", "14 1\n0 1 2\n", "signal entries must be 'index value'"),
    ("check", "", "empty signal text"),
    ("check", "0 0\n", "dimension must be positive"),
    ("check", "13 1\n0 1.0\n", "matrix columns must match signal dimension"),
    ("check", "14 0\n", "signal must have nonempty support"),
])
def test_cli_malformed_input_exit_code(workspace, capsys, command, text, message):
    bad = workspace["dir"] / "bad.txt"
    bad.write_text(text)
    if command == "ric":
        argv = ["ric", "--matrix", str(bad), "--order", "1"]
    else:
        argv = ["check", "--matrix", str(workspace["A"]), "--signal", str(bad), "--eps", "0"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err


def test_cli_lemmas_guarantee_violation_exit_code(tmp_path, capsys, monkeypatch):
    def one_failing_row(A, omega, x, delta_k1, in_S):
        lhs, rhs = np.zeros((len(A), len(in_S))), np.zeros((len(A), len(in_S)))
        lhs[:, -1] = -1.0
        return lhs, rhs, lhs >= rhs - 1e-10

    monkeypatch.setattr(experiments, "_lemma1_sides", one_failing_row)
    monkeypatch.chdir(tmp_path)
    assert main(["lemmas", "--seed", "7", "--instances", "5"]) == 4
    captured = capsys.readouterr()
    assert captured.err.startswith("guarantee violation: lemma violations [(0, 'lemma1', ")
    assert captured.out == ""
    assert [d.name for d in (tmp_path / "lemma-sweep-failures").iterdir()] == ["instance_0"]


def test_cli_validate_theorem1_guarantee_violation_exit_code(tmp_path, capsys, monkeypatch):
    real_stack = experiments._omp_stack

    def drop_stack_support_in_noisy_cells(AT, Y, rule):
        runs = real_stack(AT, Y, rule)
        if rule.kind == STOP_RESIDUAL:
            return [run._replace(picks=run.picks[:0]) for run in runs]
        return runs

    monkeypatch.setattr(experiments, "_omp_stack", drop_stack_support_in_noisy_cells)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "exp.cfg").write_text(
        "m = 12\nn = 14\nk = 1\nepsilon = 0.0, 0.05\ntrials = 6\nmaster_seed = 11\n"
    )
    argv = ["validate-theorem1", "--config", "exp.cfg", "--out", "out.csv", "--parallelism", "1"]
    assert main(argv) == 4
    err = capsys.readouterr().err
    assert err.startswith("guarantee violation: recovery guarantee violated in cell "
                          "(12, 14, 1, 0.05), trial ")
    records = [d.name for d in (tmp_path / "theorem1-failures").iterdir()]
    assert len(records) == 1 and records[0].startswith("cell_m12_n14_K1_eps0.05_trial")
    assert not (tmp_path / "out.csv").exists()


def test_cli_zero_column_draw_exit_code(workspace, capsys, monkeypatch):
    # a draw with a zero column cannot be normalized; the command exits 2
    # with the draw's message, not a traceback
    monkeypatch.setattr(sensing, "_keyed", lambda seed: ZeroColumn())
    cfg = workspace["dir"] / "exp.cfg"
    cfg.write_text("m = 10\nn = 12\nk = 1\nepsilon = 0.05\ntrials = 2\n")
    out = workspace["dir"] / "out.csv"
    for argv in (["phase", "--config", str(cfg), "--out", str(out), "--parallelism", "1"],
                 ["lemmas", "--seed", "1", "--instances", "1"]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: drew a zero column; reseed\n"
        assert captured.out == ""
    assert not out.exists()
    # a zero noise direction at epsilon > 0 is refused the same way
    monkeypatch.setattr(sensing, "_keyed", ZeroNoise)
    assert main(["phase", "--config", str(cfg), "--out", str(out), "--parallelism", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: drew a zero noise direction; reseed\n"
    assert captured.out == ""
    assert not out.exists()


def test_cli_nan_eps_exit_code(workspace, capsys):
    A, x, y = (str(workspace[key]) for key in ("A", "x", "y"))
    for eps in ("nan", "inf"):
        assert main(["check", "--matrix", A, "--signal", x, "--eps", eps]) == 2
        assert main(["omp", "--matrix", A, "--measurement", y, "--eps", eps]) == 2
        assert "epsilon must be non-negative" in capsys.readouterr().err


def test_cli_repeated_config_key_exit_code(workspace, capsys):
    cfg = workspace["dir"] / "dup.cfg"
    cfg.write_text("m = 10\nn = 12\nk = 1\nepsilon = 0.0\ntrials = 6\ntrials = 7\n")
    out = workspace["dir"] / "out.csv"
    assert main(["phase", "--config", str(cfg), "--out", str(out)]) == 2
    assert "'trials' repeated on lines 5 and 6" in capsys.readouterr().err
    assert not out.exists()


def test_cli_broken_pool_exit_code(workspace, capsys, monkeypatch):
    class DyingPool:
        """Stands in for a process pool whose worker died; starts no process."""

        def __init__(self, max_workers):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            raise BrokenProcessPool("a worker process terminated abruptly")

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", DyingPool)
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: 2)
    cfg = workspace["dir"] / "exp.cfg"
    cfg.write_text("m = 10\nn = 12\nk = 1\nepsilon = 0.0\ntrials = 4\n")
    out = workspace["dir"] / "out.csv"
    args = ["phase", "--config", str(cfg), "--out", str(out), "--parallelism", "2"]
    assert main(args) == 3
    assert "worker pool failed: a worker process" in capsys.readouterr().err
    assert not out.exists()


def test_cli_oversized_matrix_header_exit_code(workspace, capsys):
    A = workspace["dir"] / "huge.mat"
    A.write_text("1 1000000000000\n1.0\n")
    assert main(["ric", "--matrix", str(A), "--order", "1"]) == 2
    args = ["omp", "--matrix", str(A), "--measurement", str(workspace["y"])]
    assert main(args + ["--max-iter", "1"]) == 2
    err = capsys.readouterr().err
    assert err.count("error: row 0 has 1 entries, expected 1000000000000") == 2


def test_cli_memory_error_exit_code(workspace, capsys, monkeypatch):
    def no_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 7.28 TiB for an array")

    monkeypatch.setattr(experiments, "_draw_stack", no_memory)
    cfg = workspace["dir"] / "exp.cfg"
    cfg.write_text("m = 10\nn = 12\nk = 1\nepsilon = 0.0\ntrials = 4\n")
    out = workspace["dir"] / "out.csv"
    args = ["validate-theorem1", "--config", str(cfg), "--out", str(out),
            "--parallelism", "1"]
    assert main(args) == 3
    assert capsys.readouterr().err == "capacity error: Unable to allocate 7.28 TiB for an array\n"
    assert not out.exists()


def test_cli_refuses_a_run_above_the_trial_ceiling(workspace, capsys, monkeypatch):
    # 2 cells of 1e9 trials would build about 0.7 TB of trial tasks, and a
    # 4 KB config of 200 values per key 1.6e9 cells of about 80 bytes: each
    # run is refused with exit 3 before any task is built or the cell list
    # is (building either fails the test instead of allocating)
    def no_task(*args, **kwargs):
        raise AssertionError("a trial task was built")

    def no_cells(self):
        raise AssertionError("the cell list was built")

    monkeypatch.setattr(experiments, "_TrialTask", no_task)
    monkeypatch.setattr(experiments.ExperimentConfig, "cells", no_cells)
    values = ", ".join(str(v) for v in range(1, 201))
    epsilons = ", ".join(f"{v / 1000}" for v in range(200))
    texts = [
        ("m = 10\nn = 12\nk = 1, 2\nepsilon = 0.0\ntrials = 1000000000\n",
         "2 cells of 1000000000 trials are 2000000000 trials"),
        (f"m = {values}\nn = {values}\nk = {values}\nepsilon = {epsilons}\ntrials = 1\n",
         "1600000000 cells of 1 trials are 1600000000 trials"),
    ]
    cfg = workspace["dir"] / "exp.cfg"
    out = workspace["dir"] / "out.csv"
    for text, count in texts:
        cfg.write_text(text)
        for command in ("validate-theorem1", "phase"):
            assert main([command, "--config", str(cfg), "--out", str(out)]) == 3
            assert capsys.readouterr().err == (
                f"capacity error: {count}, above the ceiling of 1000000 trials per run\n")
            assert not out.exists()


def test_trial_ceiling_admits_a_run_at_it(workspace, capsys, monkeypatch):
    # the ceiling counts every cell's trials: 2 cells of 2 trials run under a
    # ceiling of 4, and are refused under a ceiling of 3
    cfg = workspace["dir"] / "exp.cfg"
    cfg.write_text("m = 10\nn = 12\nk = 1, 2\nepsilon = 0.0\ntrials = 2\n")
    out = workspace["dir"] / "out.csv"
    args = ["phase", "--config", str(cfg), "--out", str(out)]
    monkeypatch.setattr(experiments, "MAX_RUN_TRIALS", 4)
    assert main(args) == 0
    out.unlink()
    monkeypatch.setattr(experiments, "MAX_RUN_TRIALS", 3)
    assert main(args) == 3
    assert "above the ceiling of 3 trials per run" in capsys.readouterr().err
    assert not out.exists()


def test_cli_builds_its_parser_once(workspace, capsys, monkeypatch):
    # main reuses one parser per process, while build_parser keeps handing
    # out fresh ones with the same help; exit codes are unchanged
    assert cli.build_parser() is not cli.build_parser()
    help_text = cli.build_parser().format_help()
    assert cli._parser().format_help() == help_text
    monkeypatch.setattr(cli, "build_parser", lambda: pytest.fail("parser rebuilt"))
    args = ["ric", "--matrix", str(workspace["A"]), "--order", "2"]
    assert main(args) == 0
    assert main(args) == 0
    assert main(["ric", "--matrix", str(workspace["A"]), "--order", "0"]) == 2
    with pytest.raises(SystemExit) as exc:
        main(["ric", "--order", "2"])
    assert exc.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == help_text


def test_cli_sharpness(workspace, capsys):
    out = workspace["dir"] / "failure"
    code = main(
        [
            "sharpness",
            "--k", "2",
            "--t", "0.9",
            "--budget", "20000",
            "--seed", "2",
            "--out", str(out),
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["found"] is True
    assert abs(payload["verified_delta"] - 0.9) <= 1e-6
    assert (out / "A.mat").exists()
    assert (out / "report.json").exists()
    assert (out / "trace.csv").exists()


def test_cli_sharpness_invalid_t(workspace, capsys):
    out = workspace["dir"] / "failure2"
    code = main(
        [
            "sharpness",
            "--k", "2",
            "--t", "0.2",
            "--budget", "100",
            "--seed", "2",
            "--out", str(out),
        ]
    )
    assert code == 2


def test_cli_sharpness_ignores_budget_and_seed(workspace, capsys):
    # both flags are optional: a run without them writes the same bytes
    outs = []
    for flags in (["--budget", "20000", "--seed", "2"], ["--budget", "3", "--seed", "99"], []):
        out = workspace["dir"] / f"failure_{len(outs)}"
        args = ["sharpness", "--k", "3", "--t", "0.8", *flags, "--out", str(out)]
        assert main(args) == 0
        assert json.loads(capsys.readouterr().out)["found"] is True
        outs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert sorted(outs[0]) == ["A.mat", "report.json", "trace.csv", "v.vec",
                               "x.sig", "y.vec"]
    assert outs[0] == outs[1] == outs[2]


def test_cli_sharpness_validation_exit_codes(workspace, capsys):
    out = workspace["dir"] / "failure3"
    base = ["sharpness", "--t", "0.9", "--seed", "2", "--out", str(out)]
    assert main(base + ["--k", "2", "--budget", "0"]) == 2
    assert "--budget must be positive" in capsys.readouterr().err
    too_big = str(experiments.MAX_SHARPNESS_K + 1)
    assert main(base + ["--k", too_big, "--budget", "100"]) == 2
    assert "K must lie in" in capsys.readouterr().err
    assert not out.exists()


def test_cli_lemmas(capsys):
    assert main(["lemmas", "--seed", "4", "--instances", "8"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["violations"] == 0
    assert payload["instances"] == 8


def test_cli_lemmas_keep_their_bytes(capsys):
    # sha256 of the JSON as the one-instance-at-a-time sweep printed it
    for seed, instances, digest in (
        (1, 150, "38d28e5019fe3aa604bc0827a4263b862d717cf3f06897a508e71228c33f3e4c"),
        (3, 150, "a1217b50e33fca5440dda1880a4993436976475e9d9b6386c0f3bb8513c38f6c"),
        (77, 500, "e6c02e2abd44dcace51165c55234feb9e1814877dd3212f1c998ceb7e55eb26b"),
    ):
        assert main(["lemmas", "--seed", str(seed), "--instances", str(instances)]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest, (seed, instances)


def test_cli_imports_numpy_only():
    """numpy is the only numerical dependency; scipy must not creep back in."""
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, omplab.cli; print('scipy' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_import_leaves_numpy_random_unloaded():
    """``import omplab`` does not load ``numpy.random``; the first drawn
    generator does. This keeps the package's import time down."""
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, omplab; print('numpy.random' in sys.modules); "
         "omplab.philox_generator(1); print('numpy.random' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "True"]
