import csv
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spdsgd import cli, dataio, experiment, rsgd
from spdsgd.experiment import FitInputs, model_steps

from conftest import capped_fit_case


def invoke(argv):
    return cli.main(argv)


@pytest.mark.parametrize("command", ["gen", "descriptors", "run", "sweep", "fit"])
def test_help_exits_zero(command, capsys):
    # Help strings are %-formatted only when printed, so a bad one shows only here.
    with pytest.raises(SystemExit) as exc:
        invoke([command, "--help"])
    assert exc.value.code == 0
    assert "usage: spdsgd " + command in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["sweep", "--data", "x.msf", "--seeds", "a,b"], "--seeds"),
        (["run", "--data", "x.msf", "--epsilons", "abc"], "--epsilons"),
        (["run", "--data", "x.msf", "--epsilons", "0.1,nan,inf"], "--epsilons"),
        (["sweep", "--data", "x.msf", "--epsilons", "nan"], "--epsilons"),
        (["sweep", "--data", "x.msf", "--epsilons", ""], "--epsilons"),
        (["run", "--data", "x.msf", "--epsilons", "0.5,-1"], "--epsilons"),
        (["gen", "--center", "scale:abc"], "--center"),
        (["gen", "--center", "scale:0"], "--center"),
        (["gen", "--center", "scale:nan"], "--center"),
        (["gen", "--spread", "nan"], "--spread"),
        (["gen", "--spread", "inf"], "--spread"),
        (["gen", "--spread", "0"], "--spread"),
        (["descriptors", "--pgm", "x.pgm", "--reg", "nan"], "--reg"),
        (["descriptors", "--pgm", "x.pgm", "--reg", "inf"], "--reg"),
        (["descriptors", "--pgm", "x.pgm", "--reg", "-1"], "--reg"),
        (["fit", "--sweep-csv", "x.csv", "--schedule", "constant", "--epsilon", "0.5",
          "--sigma2", "1", "--G", "1", "--b-range", "16"], "--b-range"),
        (["fit", "--sweep-csv", "x.csv", "--schedule", "constant", "--epsilon", "0.5",
          "--sigma2", "1", "--G", "1", "--b-range", "10:4"], "--b-range"),
        (["gen", "--n", "0"], "--n"),
        (["gen", "--d", "-1"], "--d"),
        (["gen", "--n", "1.5"], "--n"),
        (["run", "--data", "x.msf", "--batch", "0"], "--batch"),
        (["run", "--data", "x.msf", "--steps", "-1"], "--steps"),
        (["sweep", "--data", "x.msf", "--steps", "0"], "--steps"),
        (["sweep", "--data", "x.msf", "--jobs", "0"], "--jobs"),
        (["sweep", "--data", "x.msf", "--batches", "0,4"], "--batches"),
        # Checked as the flag is parsed, before the missing --data file is read.
        (["sweep", "--data", "missing.msf", "--seeds=-1,0"], "--seeds"),
        (["fit", "--sweep-csv", "x.csv", "--schedule", "constant", "--epsilon", "0",
          "--sigma2", "1", "--G", "1"], "--epsilon"),
        (["fit", "--sweep-csv", "x.csv", "--schedule", "constant", "--epsilon", "0.5",
          "--sigma2", "-1", "--G", "1"], "--sigma2"),
        (["fit", "--sweep-csv", "x.csv", "--schedule", "constant", "--epsilon", "0.5",
          "--sigma2", "1", "--G", "-1"], "--G"),
    ],
    ids=["seeds", "epsilons", "epsilons-non-finite", "epsilons-nan", "epsilons-empty",
         "epsilons-negative", "center-not-a-number", "center-zero", "center-nan",
         "spread-nan", "spread-inf", "spread-zero", "reg-nan", "reg-inf", "reg-negative",
         "b-range-single", "b-range-reversed", "n-zero", "d-negative", "n-not-an-integer",
         "batch-zero", "run-steps-negative", "sweep-steps-zero", "jobs-zero", "batches-zero",
         "seeds-negative-before-data", "epsilon-zero", "sigma2-negative", "G-negative"],
)
def test_bad_flag_text_is_usage_error(tmp_path, capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        invoke([*argv, "--out", str(tmp_path / "o.csv")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    # argparse's fallback "invalid <function name> value: ..." would hide the reason.
    assert f"error: argument {flag}: " in err and " value: " not in err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["gen", "--seed", str(2**64)], "--seed"),
        (["run", "--data", "x.msf", "--seed", str(2**64)], "--seed"),
        (["sweep", "--data", "x.msf", "--seeds", f"0,{2**64}"], "--seeds"),
    ],
    ids=["gen", "run", "sweep"],
)
def test_seed_beyond_64_bits_is_usage_error(tmp_path, capsys, argv, flag):
    # A seed keys a Philox generator with one 64-bit word.
    with pytest.raises(SystemExit) as exc:
        invoke([*argv, "--out", str(tmp_path / "o.csv")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"error: argument {flag}: " in err and f"below {2**64}" in err


def test_largest_seed_is_accepted(tmp_path):
    assert invoke(["gen", "--n", "2", "--d", "2", "--seed", str(2**64 - 1),
                   "--out", str(tmp_path / "x.msf")]) == 0


@pytest.mark.parametrize(
    "argv",
    [["run", "--batch", str(2**50)], ["sweep", "--batches", "2^50..2^50"]],
    ids=["run", "sweep"],
)
def test_unallocatable_batch_is_runtime_error(tmp_path, capsys, argv):
    # 2^50 indices take 8 PiB, beyond any user address space, so the
    # allocation fails at once.
    data = make_data(tmp_path)
    capsys.readouterr()
    code = invoke([argv[0], "--data", str(data), *argv[1:], "--steps", "3",
                   "--out", str(tmp_path / "o.csv")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


# Each command that takes --out, with the functions that read its input or
# compute its result.
out_commands = pytest.mark.parametrize(
    "argv, work",
    [
        (["gen", "--n", "4", "--d", "2"], [(dataio, "generate_synthetic")]),
        (["descriptors", "--pgm", "x.pgm"], [(dataio, "read_pgm")]),
        (["run", "--data", "x.msf"], [(dataio, "read_matrix_set"), (rsgd, "run")]),
        (["sweep", "--data", "x.msf"], [(dataio, "read_matrix_set"), (experiment, "sweep")]),
        (["fit", "--sweep-csv", "x.csv", "--schedule", "constant", "--epsilon", "0.1",
          "--sigma2", "1", "--G", "1"], [(cli, "_read_sweep_csv"), (experiment, "fit_model")]),
    ],
    ids=["gen", "descriptors", "run", "sweep", "fit"],
)


def forbid(monkeypatch, work):
    def never(*args, **kwargs):
        raise AssertionError("the command read or computed before checking --out")

    for module, name in work:
        monkeypatch.setattr(module, name, never)


@out_commands
@pytest.mark.parametrize("where", ["missing-directory", "directory"])
def test_unwritable_out_fails_before_any_work(tmp_path, capsys, monkeypatch, argv, work, where):
    forbid(monkeypatch, work)
    out = tmp_path / "missing" / "o.csv" if where == "missing-directory" else tmp_path
    assert invoke([*argv, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: cannot write {out}: ")


@out_commands
def test_empty_out_fails_before_any_work(capsys, monkeypatch, argv, work):
    # abspath("") is the working directory, whose parent exists.
    forbid(monkeypatch, work)
    assert invoke([*argv, "--out", ""]) == 1
    assert capsys.readouterr().err.startswith("error: cannot write an empty --out path")


def test_failed_command_leaves_existing_out_untouched(tmp_path):
    out = tmp_path / "o.csv"
    out.write_text("earlier output\n")
    assert invoke(["run", "--data", str(tmp_path / "nope.msf"), "--out", str(out)]) == 1
    assert out.read_text() == "earlier output\n"


def make_data(tmp_path, n=12, d=3, spread=0.4, seed=3):
    path = tmp_path / "data.msf"
    code = invoke(
        [
            "gen",
            "--n", str(n),
            "--d", str(d),
            "--spread", str(spread),
            "--seed", str(seed),
            "--out", str(path),
        ]
    )
    assert code == 0
    return path


class TestGen:
    def test_writes_loadable_set(self, tmp_path, capsys):
        path = make_data(tmp_path)
        out = capsys.readouterr().out
        assert "12 SPD matrices of dimension 3" in out
        data = dataio.read_matrix_set(path)
        assert (data.n, data.dim) == (12, 3)

    def test_byte_identical_across_invocations(self, tmp_path):
        p1, p2 = tmp_path / "a.msf", tmp_path / "b.msf"
        for p in (p1, p2):
            invoke(["gen", "--n", "6", "--d", "3", "--seed", "9", "--out", str(p)])
        assert p1.read_bytes() == p2.read_bytes()

    def test_zero_count_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            invoke(["gen", "--n", "0", "--out", str(tmp_path / "x.msf")])
        assert exc.value.code == 2

    def test_unknown_flag_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            invoke(["gen", "--frobnicate", "--out", str(tmp_path / "x.msf")])
        assert exc.value.code == 2

    def test_scaled_center(self, tmp_path):
        path = tmp_path / "c.msf"
        invoke(["gen", "--n", "4", "--d", "2", "--spread", "1e-9",
                "--center", "scale:3.0", "--out", str(path)])
        data = dataio.read_matrix_set(path)
        np.testing.assert_allclose(data.points[0], 3.0 * np.eye(2), rtol=1e-6, atol=1e-7)

    def test_negative_seed_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            invoke(["gen", "--seed", "-1", "--out", str(tmp_path / "x.msf")])
        assert exc.value.code == 2
        assert "error: argument --seed: " in capsys.readouterr().err

    def test_eigensolver_failure_is_runtime_error(self, tmp_path, capsys, monkeypatch):
        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        assert invoke(["gen", "--n", "4", "--d", "2", "--out", str(tmp_path / "x.msf")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: symmetric eigensolver did not converge")
        assert "Traceback" not in err

    def test_config_file_merges_under_flags(self, tmp_path):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"n": 5, "d": 2, "seed": 11}))
        p1 = tmp_path / "c1.msf"
        invoke(["gen", "--config", str(conf), "--out", str(p1)])
        assert dataio.read_matrix_set(p1).n == 5
        p2 = tmp_path / "c2.msf"
        invoke(["gen", "--config", str(conf), "--n", "7", "--out", str(p2)])
        assert dataio.read_matrix_set(p2).n == 7  # explicit flag wins

    @pytest.mark.parametrize(
        "text, named",
        [("5", "conf.json"), ('["n"]', "conf.json"), ('{"n": "abc"}', "'n'"), ("{bad", "conf.json")],
        ids=["number", "list", "mistyped-value", "not-json"],
    )
    def test_bad_config_is_usage_error(self, tmp_path, capsys, text, named):
        conf = tmp_path / "conf.json"
        conf.write_text(text)
        with pytest.raises(SystemExit) as exc:
            invoke(["gen", "--config", str(conf), "--out", str(tmp_path / "x.msf")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "error: config" in err and named in err

    def test_config_lists_parse_like_flags(self, tmp_path):
        data = make_data(tmp_path)
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"epsilons": [0.5, 0.25], "T": 3, "schedule": "staircase",
                                    "batch": 4, "steps": 7, "seed": 3}))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        invoke(["run", "--data", str(data), "--config", str(conf), "--out", str(p1)])
        invoke(["run", "--data", str(data), "--schedule", "staircase", "--T", "3",
                "--epsilons", "0.5,0.25", "--batch", "4", "--steps", "7", "--seed", "3",
                "--out", str(p2)])
        assert p1.read_bytes() == p2.read_bytes()


class TestDescriptors:
    def test_grid_counts(self, tmp_path):
        img = np.random.default_rng(0).integers(0, 256, size=(16, 16))
        pgm = tmp_path / "t.pgm"
        dataio.write_pgm(pgm, img)
        out = tmp_path / "desc.msf"
        assert invoke(["descriptors", "--pgm", str(pgm), "--grid", "4", "--out", str(out)]) == 0
        assert dataio.read_matrix_set(out).n == 16

    def test_non_divisible_grid_usage_error(self, tmp_path):
        img = np.zeros((10, 10))
        pgm = tmp_path / "t.pgm"
        dataio.write_pgm(pgm, img)
        with pytest.raises(SystemExit) as exc:
            invoke(["descriptors", "--pgm", str(pgm), "--grid", "4", "--out", str(tmp_path / "o.msf")])
        assert exc.value.code == 2

    def test_one_pixel_grid_usage_error(self, tmp_path, capsys):
        pgm = tmp_path / "t.pgm"
        dataio.write_pgm(pgm, np.zeros((8, 8)))
        with pytest.raises(SystemExit) as exc:
            invoke(["descriptors", "--pgm", str(pgm), "--grid", "1", "--out", str(tmp_path / "o.msf")])
        assert exc.value.code == 2
        assert "error: cell size 1 is below 2" in capsys.readouterr().err

    def test_constant_image_noted(self, tmp_path, capsys):
        pgm = tmp_path / "t.pgm"
        dataio.write_pgm(pgm, np.full((8, 8), 42))
        out = tmp_path / "o.msf"
        assert invoke(["descriptors", "--pgm", str(pgm), "--grid", "4", "--out", str(out)]) == 0
        assert "all descriptors identical" in capsys.readouterr().out

    def test_bad_file_is_runtime_error(self, tmp_path):
        bad = tmp_path / "bad.pgm"
        bad.write_bytes(b"P6 nonsense")
        assert invoke(["descriptors", "--pgm", str(bad), "--out", str(tmp_path / "o.msf")]) == 1


class TestRun:
    def test_zero_steps_single_row(self, tmp_path):
        data = make_data(tmp_path)
        out = tmp_path / "run.csv"
        assert invoke(["run", "--data", str(data), "--steps", "0", "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "step,f,grad_norm,alpha_k,V_k,dist_ref"
        data_rows = [ln for ln in lines[1:] if not ln.startswith("K,")]
        footer_rows = [ln for ln in lines[1:] if ln.startswith("K,")]
        assert len(data_rows) == 1
        assert len(footer_rows) == 2  # default thresholds 0.5, 0.25

    def test_default_schedule_matches_flags(self, tmp_path):
        data = make_data(tmp_path)
        out = tmp_path / "run.csv"
        invoke(["run", "--data", str(data), "--steps", "3", "--out", str(out)])
        rows = out.read_text().strip().splitlines()
        first = rows[1].split(",")
        assert float(first[3]) == 5e-4  # constant schedule, default alpha

    def test_byte_identical_runs(self, tmp_path):
        data = make_data(tmp_path)
        o1, o2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        for o in (o1, o2):
            invoke(["run", "--data", str(data), "--steps", "20", "--seed", "5",
                    "--batch", "4", "--out", str(o)])
        assert o1.read_bytes() == o2.read_bytes()

    def test_censored_footer(self, tmp_path):
        data = make_data(tmp_path)
        out = tmp_path / "run.csv"
        invoke(["run", "--data", str(data), "--steps", "2", "--epsilons", "1e-9",
                "--out", str(out)])
        footers = [ln for ln in out.read_text().splitlines() if ln.startswith("K,")]
        assert len(footers) == 1
        _, eps_text, value = footers[0].split(",")
        assert float(eps_text) == pytest.approx(1e-9)
        assert value == "censored"

    def test_missing_data_is_runtime_error(self, tmp_path):
        assert invoke(["run", "--data", str(tmp_path / "nope.msf"),
                       "--out", str(tmp_path / "o.csv")]) == 1

    def test_oracle_failure_is_runtime_error(self, tmp_path, capsys, monkeypatch):
        data = make_data(tmp_path)

        def fail(data, tol):
            raise rsgd.ConvergenceError("step size collapsed with gradient norm 2.000e-09", 2e-9)

        monkeypatch.setattr(rsgd, "reference_centroid", fail)
        assert invoke(["run", "--data", str(data), "--steps", "2",
                       "--out", str(tmp_path / "o.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: step size collapsed with gradient norm 2.000e-09")
        assert "Traceback" not in err

    def test_config_value_out_of_range_names_file_and_key(self, tmp_path, capsys):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"batch": 0}))
        with pytest.raises(SystemExit) as exc:
            invoke(["run", "--data", "x.msf", "--config", str(conf),
                    "--out", str(tmp_path / "o.csv")])
        assert exc.value.code == 2
        assert f"error: config {conf}: 'batch': " in capsys.readouterr().err

    def test_negative_seed_is_usage_error(self, tmp_path, capsys):
        data = make_data(tmp_path)
        with pytest.raises(SystemExit) as exc:
            invoke(["run", "--data", str(data), "--seed", "-3",
                    "--out", str(tmp_path / "o.csv")])
        assert exc.value.code == 2
        assert "error: argument --seed: " in capsys.readouterr().err


def write_sweep(tmp_path, data, name="sweep.csv", jobs="1", epsilons="0.9"):
    out = tmp_path / name
    code = invoke(
        [
            "sweep",
            "--data", str(data),
            "--schedule", "constant:0.05",
            "--epsilons", epsilons,
            "--batches", "2^2..2^4",
            "--seeds", "0,1",
            "--steps", "400",
            "--jobs", jobs,
            "--out", str(out),
        ]
    )
    assert code == 0
    return out


def without_wall_ms(path):
    return [ln.rsplit(",", 1)[0] for ln in path.read_text().splitlines()]


class TestSweep:
    def test_row_cardinality_and_sfo(self, tmp_path):
        data = make_data(tmp_path)
        out = write_sweep(tmp_path, data)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "schedule,epsilon,batch,seed,K,censored,sfo,final_f,wall_ms"
        rows = [ln.split(",") for ln in lines[1:]]
        assert len(rows) == 3 * 2  # batches {4,8,16} x seeds {0,1}
        for r in rows:
            if r[5] == "false":
                assert int(r[6]) == int(r[4]) * int(r[2])

    def test_deterministic_modulo_wall_time(self, tmp_path):
        data = make_data(tmp_path)
        s1 = write_sweep(tmp_path, data, "s1.csv", jobs="1")
        s2 = write_sweep(tmp_path, data, "s2.csv", jobs="2")
        assert without_wall_ms(s1) == without_wall_ms(s2)

    def test_repeated_threshold_is_kept_once(self, tmp_path):
        data = make_data(tmp_path)
        once = write_sweep(tmp_path, data, "once.csv")
        twice = write_sweep(tmp_path, data, "twice.csv", epsilons="0.9,0.9")
        assert without_wall_ms(once) == without_wall_ms(twice)

    def test_negative_or_repeated_seeds_are_usage_errors(self, tmp_path, capsys):
        data = make_data(tmp_path)
        for seeds, message in (("-1,0", "argument --seeds: "),
                               ("0,0", "seeds must be distinct")):
            with pytest.raises(SystemExit) as exc:
                invoke(["sweep", "--data", str(data), f"--seeds={seeds}",
                        "--out", str(tmp_path / "s.csv")])
            assert exc.value.code == 2
            assert f"error: {message}" in capsys.readouterr().err

    def test_staircase_sweep_fits(self, tmp_path, capsys):
        # A staircase label holds commas; both CSVs must quote it so that
        # fit reads the sweep's rows and its own output parses back.
        data = tmp_path / "data.msf"
        assert invoke(["gen", "--n", "12", "--d", "3", "--spread", "0.4", "--center", "scale:2",
                       "--seed", "3", "--out", str(data)]) == 0
        sweep_csv, fit_csv = tmp_path / "sweep.csv", tmp_path / "fit.csv"
        assert invoke(["sweep", "--data", str(data), "--schedule", "staircase:0.05,0.5,20,2",
                       "--epsilons", "0.9", "--batches", "2^2..2^4", "--seeds", "0,1",
                       "--steps", "400", "--out", str(sweep_csv)]) == 0
        with open(sweep_csv, newline="") as fh:
            rows = list(csv.reader(fh))
        assert all(len(r) == 9 and r[0] == "staircase:0.05,0.5,20,2" for r in rows[1:])
        assert invoke(["fit", "--sweep-csv", str(sweep_csv), "--schedule", "staircase",
                       "--epsilon", "0.9", "--sigma2", "1", "--G", "1",
                       "--out", str(fit_csv)]) == 0
        assert "schedule: staircase:0.05,0.5,20,2" in capsys.readouterr().out
        with open(fit_csv, newline="") as fh:
            header, row = csv.reader(fh)
        assert len(row) == len(header) == 9
        assert row[:2] == ["staircase:0.05,0.5,20,2", "0.90000000000000002"]

    def test_row_order_fixed_by_grid(self, tmp_path):
        data = make_data(tmp_path)
        out = write_sweep(tmp_path, data)
        rows = [ln.split(",") for ln in out.read_text().strip().splitlines()[1:]]
        keys = [(r[0], float(r[1]), int(r[2]), int(r[3])) for r in rows]
        assert keys == sorted(keys, key=lambda k: (k[0], -k[1], k[2], k[3]))


FIT_HEADER = "schedule,epsilon,batch,seed,K,censored,sfo,final_f,wall_ms"


def model_csv(tmp_path, *, sigma2=1.5, g=0.8, alpha=1e-3, eps=0.1, c1=2.3, c2=7.7,
              kind="constant"):
    inputs = FitInputs(sigma2=sigma2, grad_bound=g, alpha=alpha, eps=eps)
    label = f"constant:{alpha:g}" if kind == "constant" else kind
    rows = [FIT_HEADER]
    for b in [2**p for p in range(4, 10)]:
        k = model_steps(kind, b, c1, c2, inputs)
        rows.append(f"{label},{eps:.17g},{b},0,{k:.17g},false,{k * b:.17g},0.1,1")
    path = tmp_path / "model.csv"
    path.write_text("\n".join(rows) + "\n")
    return path


class TestFit:
    def test_recovers_model_constants(self, tmp_path, capsys):
        path = model_csv(tmp_path)
        code = invoke(
            [
                "fit",
                "--sweep-csv", str(path),
                "--schedule", "constant",
                "--epsilon", "0.1",
                "--sigma2", "1.5",
                "--G", "0.8",
                "--b-range", "0.04:10",
            ]
        )
        assert code == 0
        out = dict(
            ln.split(": ", 1) for ln in capsys.readouterr().out.strip().splitlines()
        )
        assert float(out["C1"]) == pytest.approx(2.3, rel=1e-6)
        assert float(out["C2"]) == pytest.approx(7.7, rel=1e-6)
        assert float(out["critical_batch_numeric"]) == pytest.approx(
            float(out["critical_batch_closed_form"]), rel=1e-6
        )
        assert out["boundary"] == "false"

    def test_zero_noise_boundary(self, tmp_path, capsys):
        path = model_csv(tmp_path, sigma2=0.0)
        code = invoke(
            [
                "fit",
                "--sweep-csv", str(path),
                "--schedule", "constant",
                "--epsilon", "0.1",
                "--sigma2", "0",
                "--G", "0.8",
            ]
        )
        assert code == 0
        out = dict(
            ln.split(": ", 1) for ln in capsys.readouterr().out.strip().splitlines()
        )
        assert out["boundary"] == "true"
        assert float(out["critical_batch_numeric"]) == 16.0
        assert out["critical_batch_closed_form"] == "none"

    def test_schedule_mismatch_usage_error(self, tmp_path):
        path = model_csv(tmp_path)
        with pytest.raises(SystemExit) as exc:
            invoke(
                ["fit", "--sweep-csv", str(path), "--schedule", "staircase",
                 "--epsilon", "0.1", "--sigma2", "1", "--G", "1"]
            )
        assert exc.value.code == 2

    @pytest.mark.filterwarnings("error")  # a numpy RuntimeWarning fails the case
    @pytest.mark.parametrize("flag, value", [("--sigma2", "nan"), ("--sigma2", "inf"),
                                             ("--G", "nan"), ("--G", "1e200"),
                                             ("--epsilon", "inf")])
    def test_non_finite_constant_is_usage_error(self, tmp_path, capsys, flag, value):
        flags = {"--sweep-csv": str(model_csv(tmp_path)), "--schedule": "constant",
                 "--epsilon": "0.1", "--sigma2": "1.5", "--G": "0.8", flag: value}
        with pytest.raises(SystemExit) as exc:
            invoke(["fit", *(x for item in flags.items() for x in item)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        # 1e200 is finite; 2*G^2*b overflows, which the check after the CSV is read names.
        assert (f"error: argument {flag}: " in err if value != "1e200"
                else "error: --G 1e+200 is too large" in err)

    @pytest.mark.parametrize("kind", ["constant", "inverse_sqrt"])
    @pytest.mark.parametrize("g, b_range", [("1e154", None), ("1e152", "16:1e6")])
    def test_constant_overflowing_the_models_is_usage_error(self, tmp_path, capsys,
                                                            kind, g, b_range):
        # 2 G^2 b overflows at the largest batch the fit evaluates: the CSV's
        # 512, or the top of --b-range.
        args = ["fit", "--sweep-csv", str(model_csv(tmp_path, kind=kind)), "--schedule", kind,
                "--epsilon", "0.1", "--sigma2", "1.5", "--G", g]
        with pytest.raises(SystemExit) as exc:
            invoke(args + (["--b-range", b_range] if b_range else []))
        assert exc.value.code == 2
        assert f"--G {float(g):g} is too large" in capsys.readouterr().err

    def test_largest_accepted_constant_fits(self, tmp_path, capsys):
        path = model_csv(tmp_path)
        code = invoke(["fit", "--sweep-csv", str(path), "--schedule", "constant",
                       "--epsilon", "0.1", "--sigma2", "1.5", "--G", "4e152"])
        assert code == 0
        assert "C1: " in capsys.readouterr().out

    def test_infinite_b_range_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            invoke(["fit", "--sweep-csv", str(model_csv(tmp_path)), "--schedule", "constant",
                    "--epsilon", "0.1", "--sigma2", "1.5", "--G", "0.8", "--b-range", "1:inf"])
        assert exc.value.code == 2

    def test_all_censored_is_runtime_error(self, tmp_path):
        path = tmp_path / "cens.csv"
        path.write_text(
            FIT_HEADER + "\n"
            + "constant:0.001,0.10000000000000001,16,0,,true,,0.5,1\n"
            + "constant:0.001,0.10000000000000001,32,0,,true,,0.5,1\n"
        )
        code = invoke(
            ["fit", "--sweep-csv", str(path), "--schedule", "constant",
             "--epsilon", "0.1", "--sigma2", "1", "--G", "1"]
        )
        assert code == 1

    def test_failed_search_names_why_it_stopped(self, tmp_path, monkeypatch, capsys):
        # With no feasible (C1, C2), every vertex is infinite and the simplex
        # shrinks until its evaluation budget runs out.
        monkeypatch.setattr(experiment, "model_steps", lambda kind, b, c1, c2, inputs: np.nan * b)
        code = invoke(["fit", "--sweep-csv", str(model_csv(tmp_path)), "--schedule", "constant",
                       "--epsilon", "0.1", "--sigma2", "1.5", "--G", "0.8"])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: two-parameter search did not converge: "
            "Maximum number of function evaluations has been exceeded.\n")

    def test_fit_csv_output(self, tmp_path, capsys):
        path = model_csv(tmp_path)
        out = tmp_path / "fit.csv"
        code = invoke(
            ["fit", "--sweep-csv", str(path), "--schedule", "constant",
             "--epsilon", "0.1", "--sigma2", "1.5", "--G", "0.8", "--out", str(out)]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert captured.err == ""  # the search converged: no note
        printed = dict(ln.split(": ", 1) for ln in captured.out.splitlines())
        with open(out, newline="") as fh:
            header, row = csv.reader(fh)
        assert header == ["schedule", "epsilon", "C1", "C2", "residual", "critical_numeric",
                          "critical_closed_form", "boundary", "batch_lower_bound"]
        assert row[0] == "constant:0.001"
        # Each column holds the text of the printed line it mirrors.
        line_of = {"critical_numeric": "critical_batch_numeric",
                   "critical_closed_form": "critical_batch_closed_form"}
        assert row == [printed[line_of.get(column, column)] for column in header]

    def test_capped_search_is_noted_on_stderr(self, tmp_path, capsys):
        # The CSV holds a seeded case whose search stops at its evaluation
        # cap; the report is written as for any fit, and stderr names the cap.
        kind, points, inputs = capped_fit_case()
        label = f"{kind}:{inputs.alpha!r}"
        path = tmp_path / "capped.csv"
        path.write_text(FIT_HEADER + "\n" + "".join(
            f"{label},{inputs.eps!r},{int(b)},0,{k!r},false,,0.1,1\n" for b, k in points))
        code = invoke(["fit", "--sweep-csv", str(path), "--schedule", kind,
                       "--epsilon", repr(inputs.eps), "--sigma2", repr(inputs.sigma2),
                       "--G", repr(inputs.grad_bound)])
        assert code == 0
        out, err = capsys.readouterr()
        assert f"C1: {cli._fmt(experiment.fit_model(kind, points, inputs).c1)}" in out.splitlines()
        assert err == ("note: the (C1, C2) search stopped at its cap: "
                       "Maximum number of function evaluations has been exceeded.\n")


# Fuzzing: whatever the bytes, the sweep-CSV reader raises only FormatError,
# and a config file sets the defaults or is a usage error.
_FUZZ = settings(max_examples=150, deadline=None, derandomize=True, database=None)

_CSV_FIELD = st.sampled_from([
    "constant:0.001", "staircase:0.1,0.5,10,2", '"staircase:0.1,0.5,10,2"', "inverse_sqrt",
    "constant:", "constant:2", "staircase:1,2", "inverse_sqrt:1", "x", "0.1", "16", "0", "-1",
    "1.5", "nan", "inf", "1e400", "", "error", "true", "false", '"', "a,b",
])


@st.composite
def _sweep_csv_text(draw) -> bytes:
    """A near-valid sweep CSV: a header, then rows whose width and fields may
    be wrong, with a few bytes possibly overwritten."""
    header = ",".join(cli._SWEEP_HEADER)
    lines = [draw(st.sampled_from([header, header, header[:-1], "schedule,epsilon", ""]))]
    for _ in range(draw(st.integers(0, 4))):
        width = draw(st.sampled_from([9, 9, 9, 8, 10, 1]))
        lines.append(",".join(draw(_CSV_FIELD) for _ in range(width)))
    blob = bytearray("\n".join(lines).encode() + b"\n")
    for pos, byte in draw(st.lists(st.tuples(st.integers(0, len(blob) - 1),
                                             st.integers(0, 255)), max_size=2)):
        blob[pos] = byte
    return bytes(blob)


_JSON_VALUE = st.recursive(
    st.none() | st.booleans() | st.integers(-10**6, 10**6) | st.floats()
    | st.sampled_from(["0.5,0.25", "2^2..2^4", "2^0..2^99999999", "2^3..2^1", "constant:0.01", "inverse_sqrt",
                       "staircase:0.1,0.5,10,2", "scale:0.8", "scale:-1", "identity", "1,x",
                       "", "nan"])
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=2),
    max_leaves=6,
)
_CONFIG_KEY = st.sampled_from([
    "data", "schedule", "schedules", "epsilons", "batches", "seeds", "steps", "jobs", "alpha",
    "gamma", "T", "n", "d", "batch", "seed", "spread", "center", "config", "out", "other",
])


@pytest.fixture(scope="module")
def fuzz_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input"


def _fit_exits_cleanly(path, blob: bytes) -> None:
    path.write_bytes(blob)
    try:
        cli._read_sweep_csv(str(path))
    except dataio.FormatError:
        pass
    try:
        code = invoke(["fit", "--sweep-csv", str(path), "--schedule", "constant",
                       "--epsilon", "0.1", "--sigma2", "1", "--G", "1"])
    except SystemExit as exc:
        assert exc.code == 2
    else:
        assert code in (0, 1)


def _config_sets_defaults_or_exits_2(path, command: str, blob: bytes) -> None:
    path.write_bytes(blob)
    parser = cli.build_parser()
    argv = [command, "--config", str(path), "--out", "unused"]
    try:
        cli._set_config_defaults(parser.parse_args(argv).parser, str(path))
        parser.parse_args(argv)
    except SystemExit as exc:
        assert exc.code == 2


class TestInputFuzz:
    @_FUZZ
    @given(blob=st.binary(max_size=64))
    def test_sweep_csv_random_bytes(self, fuzz_file, blob):
        _fit_exits_cleanly(fuzz_file, blob)

    @_FUZZ
    @given(blob=_sweep_csv_text())
    def test_sweep_csv_near_valid(self, fuzz_file, blob):
        _fit_exits_cleanly(fuzz_file, blob)

    @_FUZZ
    @given(command=st.sampled_from(["gen", "run", "sweep"]), blob=st.binary(max_size=48))
    def test_config_random_bytes(self, fuzz_file, command, blob):
        _config_sets_defaults_or_exits_2(fuzz_file, command, blob)

    @_FUZZ
    @given(command=st.sampled_from(["gen", "run", "sweep"]),
           conf=st.dictionaries(_CONFIG_KEY, _JSON_VALUE, max_size=4) | _JSON_VALUE)
    def test_config_near_valid(self, fuzz_file, command, conf):
        _config_sets_defaults_or_exits_2(fuzz_file, command, json.dumps(conf).encode())
