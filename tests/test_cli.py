import dataclasses
import hashlib
import re
import subprocess
import sys

import numpy as np
import pytest

from fedmm.cli import _BOUNDS_TABLE, CSV_HEADER, _parser, main
from fedmm.datagen import QuadraticGenSpec, RlrGenSpec, gen_quadratic, load_dataset
from fedmm.genbounds import BoundInputs, bound_terms, vc_rademacher_bound


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def scalar_run_config(tmp_path, *, rounds=300, extra_output=""):
    out = tmp_path / "trace.csv"
    cfg = write(tmp_path / "run.ini", f"""
[problem]
kind = scalar2

[algo]
name = FedGDAGT
K = 5
rounds = {rounds}

[output]
trace = {out}
{extra_output}
""")
    return cfg, out


def read_rows(path):
    lines = path.read_text().strip().split("\n")
    assert lines[0] == CSV_HEADER
    return [line.split(",") for line in lines[1:]]


class TestRun:
    def test_scalar2_auto_eta_converges(self, tmp_path):
        cfg, out = scalar_run_config(tmp_path)
        assert main(["run", cfg]) == 0
        rows = read_rows(out)
        assert len(rows) == 301
        final = rows[-1]
        assert float(final[6]) <= 1e-10  # grad_norm
        assert float(final[5]) <= 1e-16  # gap_sq (closed form known for scalar2)
        assert final[7] == ""  # robust_loss absent
        assert final[8] == ""  # timing off by default

    def test_zero_rounds_emits_only_round_zero(self, tmp_path):
        cfg, out = scalar_run_config(tmp_path, rounds=0)
        assert main(["run", cfg]) == 0
        rows = read_rows(out)
        assert len(rows) == 1
        assert rows[0][0] == "0"

    def test_explicit_eta_pair(self, tmp_path):
        out = tmp_path / "t.csv"
        cfg = write(tmp_path / "c.ini", f"""
[problem]
kind = scalar2

[algo]
name = LocalSGDA
K = 10
rounds = 5
eta_x = 0.001
eta_y = 0.002

[output]
trace = {out}
""")
        assert main(["run", cfg]) == 0
        rows = read_rows(out)
        assert rows[0][3] == "0.001"
        assert rows[0][4] == "0.002"

    def test_timing_opt_in_fills_elapsed(self, tmp_path):
        cfg, out = scalar_run_config(tmp_path, rounds=3, extra_output="timing = true")
        assert main(["run", cfg]) == 0
        rows = read_rows(out)
        assert all(row[8] != "" for row in rows)

    def test_emit_plot_data(self, tmp_path):
        cfg, out = scalar_run_config(tmp_path, rounds=3,
                                     extra_output="emit_plot_data = true")
        assert main(["run", cfg]) == 0
        plot = out.with_suffix(".plot.csv")
        lines = plot.read_text().strip().split("\n")
        assert lines[0] == "round,algorithm,metric,value"
        assert lines[1].split(",")[2] == "gap_sq"

    def test_divergence_exits_3(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        cfg = write(tmp_path / "c.ini", f"""
[problem]
kind = scalar2

[algo]
name = LocalSGDA
K = 5
rounds = 100
eta = 10.0

[output]
trace = {out}
""")
        assert main(["run", cfg]) == 3
        assert "diverged" in capsys.readouterr().err

    def test_overflowing_divergence_prints_one_line(self, tmp_path):
        # the first local steps overflow to inf and NaN; the divergence check
        # alone reports it, with no numpy warning before its line
        cfg = write(tmp_path / "c.ini", f"""
[problem]
kind = rlr
m = 10
d = 5
n = 50
alpha = 20
seed = 11

[algo:LocalSGDA]
name = LocalSGDA
K = 10
eta = 1e-3
rounds = 20

[algo:FedGDAGT]
name = FedGDAGT
K = 10
eta = 1e-3
rounds = 20

[output]
trace = {tmp_path / "t.csv"}
""")
        proc = subprocess.run([sys.executable, "-m", "fedmm", "compare", cfg],
                              capture_output=True, text=True)
        assert proc.returncode == 3
        assert proc.stderr == "error: LocalSGDA diverged at round 1: iterate is not finite\n"

    def test_in_process_determinism(self, tmp_path):
        o1, o2 = tmp_path / "a.csv", tmp_path / "b.csv"
        base = """
[problem]
kind = quadratic
m = 3
d = 4
n = 8
seed = 5

[algo]
name = FedGDAGT
K = 4
rounds = 30

[output]
trace = {out}
"""
        c1 = write(tmp_path / "c1.ini", base.format(out=o1))
        c2 = write(tmp_path / "c2.ini", base.format(out=o2))
        assert main(["run", c1]) == 0
        assert main(["run", c2]) == 0
        assert o1.read_bytes() == o2.read_bytes()

    def test_rlr_compare_determinism(self, tmp_path):
        # robust loss recorded every round, as the rlr default
        o1, o2 = tmp_path / "a.csv", tmp_path / "b.csv"
        base = """
[problem]
kind = rlr
m = 10
d = 5
n = 50
alpha = 5.0
seed = 11

[algo:local]
name = LocalSGDA
K = 10
eta = 1e-3
rounds = 20

[algo:tracked]
name = FedGDAGT
K = 10
eta = 1e-3
rounds = 20

[output]
trace = {out}
"""
        c1 = write(tmp_path / "c1.ini", base.format(out=o1))
        c2 = write(tmp_path / "c2.ini", base.format(out=o2))
        assert main(["compare", c1]) == 0
        assert main(["compare", c2]) == 0
        rows = read_rows(o1)
        assert len(rows) == 2 * 21 and all(r[7] != "" for r in rows)
        assert o1.read_bytes() == o2.read_bytes()

    def test_fedmm_seed_env_override(self, tmp_path, monkeypatch):
        o1, o2 = tmp_path / "a.csv", tmp_path / "b.csv"
        base = """
[problem]
kind = quadratic
m = 2
d = 3
n = 6
seed = 5

[algo]
name = FedGDAGT
K = 2
rounds = 10

[output]
trace = {out}
"""
        c1 = write(tmp_path / "c1.ini", base.format(out=o1))
        c2 = write(tmp_path / "c2.ini", base.format(out=o2))
        assert main(["run", c1]) == 0
        monkeypatch.setenv("FEDMM_SEED", "99")
        assert main(["run", c2]) == 0
        assert o1.read_bytes() != o2.read_bytes()

    def test_rlr_auto_eta_rejected_for_fedgda(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        cfg = write(tmp_path / "c.ini", f"""
[problem]
kind = rlr
m = 2
d = 3
n = 5
alpha = 1.0
seed = 3

[algo]
name = FedGDAGT
K = 2
rounds = 5

[output]
trace = {out}
""")
        assert main(["run", cfg]) == 2
        assert "auto-select" in capsys.readouterr().err

    def test_rlr_radius_override_constrains_y(self, tmp_path):
        out = tmp_path / "t.csv"
        cfg = write(tmp_path / "c.ini", f"""
[problem]
kind = rlr
m = 2
d = 3
n = 5
alpha = 1.0
seed = 3
radius_y = 0.25

[algo]
name = FedGDAGT
K = 2
rounds = 5
eta = 1e-3

[output]
trace = {out}
robust_loss = false
""")
        assert main(["run", cfg]) == 0
        assert read_rows(out)  # trace written

    def test_rlr_requires_explicit_eta_for_local_sgda(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        cfg = write(tmp_path / "c.ini", f"""
[problem]
kind = rlr
m = 2
d = 3
n = 5
alpha = 1.0
seed = 3

[algo]
name = LocalSGDA
K = 2
rounds = 5

[output]
trace = {out}
""")
        assert main(["run", cfg]) == 2
        assert "explicit stepsize" in capsys.readouterr().err


class TestParser:
    def test_built_once_per_process(self):
        assert _parser() is _parser()

    def test_a_bad_argv_exits_2_on_every_call(self, capsys):
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(["fixed-point", "--K", "ten", "--eta", "0.1"])
            assert exc.value.code == 2
            assert "invalid int value" in capsys.readouterr().err


class TestConfigErrors:
    def test_unknown_key_named(self, tmp_path, capsys):
        cfg = write(tmp_path / "c.ini", """
[problem]
kind = scalar2
typo_key = 1

[algo]
name = GDA
eta = 0.1
rounds = 1

[output]
trace = x.csv
""")
        assert main(["run", cfg]) == 2
        assert "typo_key" in capsys.readouterr().err

    def test_unknown_section_named(self, tmp_path, capsys):
        cfg = write(tmp_path / "c.ini", """
[problem]
kind = scalar2

[algo]
name = GDA
eta = 0.1
rounds = 1

[outputs]
trace = x.csv
""")
        assert main(["run", cfg]) == 2
        assert "outputs" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "nope.ini")]) == 2
        assert "cannot read" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "bounds"])
    def test_undecodable_config_names_the_file(self, tmp_path, capsys, command):
        path = tmp_path / "c.ini"
        path.write_bytes(b"\xff\xfe[problem]\n")
        assert main([command, str(path)]) == 2
        assert re.fullmatch(rf"error: cannot read config {re.escape(str(path))}: "
                            r"'utf-8' codec can't decode byte 0xff [^\n]*\n",
                            capsys.readouterr().err)

    def test_failed_allocation_exits_2(self, tmp_path, capsys):
        # 10^15 samples of 3 features are 21 PiB: numpy's request for them
        # fails at once, before anything is touched
        out = tmp_path / "t.csv"
        cfg = write(tmp_path / "c.ini", f"""
[problem]
kind = rlr
m = 2
d = 3
n = {10**15}
alpha = 1.0
seed = 3

[algo]
name = GDA
rounds = 5
eta = 1e-3

[output]
trace = {out}
""")
        assert main(["run", cfg]) == 2
        assert re.fullmatch(r"error: Unable to allocate 21\.3 PiB [^\n]*\n",
                            capsys.readouterr().err)
        assert not out.exists()

    def test_unwritable_trace_exits_2(self, tmp_path, capsys):
        cfg = write(tmp_path / "c.ini", f"""
[problem]
kind = scalar2

[algo]
name = GDA
eta = 0.1
rounds = 1

[output]
trace = {tmp_path / "missing_dir" / "t.csv"}
""")
        assert main(["run", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        # the configured trace path, not the temporary file written first
        assert str(tmp_path / "missing_dir" / "t.csv") in err and ".tmp" not in err

    def test_failed_write_leaves_existing_trace_intact(self, tmp_path, capsys,
                                                       monkeypatch):
        cfg, out = scalar_run_config(tmp_path, rounds=3)
        out.write_bytes(b"earlier trace\n")

        def refuse(src, dst):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr("fedmm.cli.os.replace", refuse)
        assert main(["run", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert out.read_bytes() == b"earlier trace\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.ini", "trace.csv"]

    def test_trace_path_naming_a_directory_leaves_no_temp_file(self, tmp_path, capsys):
        cfg, out = scalar_run_config(tmp_path, rounds=3)
        out.mkdir()
        assert main(["run", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert out.is_dir() and not any(out.iterdir())
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.ini", "trace.csv"]

    def test_gda_with_k_over_one(self, tmp_path, capsys):
        cfg = write(tmp_path / "c.ini", """
[problem]
kind = scalar2

[algo]
name = GDA
K = 3
eta = 0.1
rounds = 1

[output]
trace = x.csv
""")
        assert main(["run", cfg]) == 2
        assert "K must be 1" in capsys.readouterr().err

    @pytest.mark.parametrize("K", [0, -2])
    def test_auto_eta_with_k_below_one_exits_2(self, tmp_path, capsys, K):
        cfg = write(tmp_path / "c.ini", f"""
[problem]
kind = scalar2

[algo]
name = FedGDAGT
K = {K}
rounds = 5

[output]
trace = {tmp_path / "t.csv"}
""")
        assert main(["run", cfg]) == 2
        assert re.fullmatch(r"error: \[algo\]: K must be >= 1\n", capsys.readouterr().err)

    @pytest.mark.parametrize("stepsizes", [
        "eta = inf", "eta_x = inf\neta_y = 0.1", "eta_x = 0.1\neta_y = inf", "eta = nan",
    ])
    def test_non_finite_stepsize_exits_2(self, tmp_path, capsys, stepsizes):
        cfg = write(tmp_path / "c.ini", f"""
[problem]
kind = scalar2

[algo]
name = LocalSGDA
K = 5
rounds = 5
{stepsizes}

[output]
trace = {tmp_path / "t.csv"}
""")
        assert main(["run", cfg]) == 2
        assert capsys.readouterr().err == (
            "error: [algo]: stepsizes must be finite and positive\n")
        assert not (tmp_path / "t.csv").exists()

    @pytest.mark.parametrize("alpha", ["nan", "inf"])
    def test_non_finite_alpha_exits_2(self, tmp_path, capsys, alpha):
        problem = f"""
[problem]
kind = rlr
m = 2
d = 3
n = 5
alpha = {alpha}
seed = 3
"""
        out = tmp_path / "data.fedmm"
        assert main(["gen-data", write(tmp_path / "g.ini", problem), "--out", str(out)]) == 2
        assert not out.exists()
        cfg = write(tmp_path / "c.ini", problem + f"""
[algo]
name = GDA
rounds = 5
eta = 1e-3

[output]
trace = {tmp_path / "t.csv"}
""")
        assert main(["run", cfg]) == 2
        err = capsys.readouterr().err
        assert re.fullmatch(r"(error: [^\n]*alpha must be finite[^\n]*\n){2}", err)
        assert not (tmp_path / "t.csv").exists()

    def test_infinite_radius_exits_2(self, tmp_path, capsys):
        cfg = write(tmp_path / "c.ini", f"""
[problem]
kind = rlr
m = 2
d = 3
n = 5
alpha = 1.0
seed = 3
radius_y = inf

[algo]
name = GDA
rounds = 5
eta = 1e-3

[output]
trace = {tmp_path / "t.csv"}
""")
        assert main(["run", cfg]) == 2
        assert re.fullmatch(r"error: [^\n]*radius must be finite and positive, got inf\n",
                            capsys.readouterr().err)
        assert not (tmp_path / "t.csv").exists()

    def test_both_eta_forms_rejected(self, tmp_path, capsys):
        cfg = write(tmp_path / "c.ini", """
[problem]
kind = scalar2

[algo]
name = GDA
eta = 0.1
eta_x = 0.1
eta_y = 0.1
rounds = 1

[output]
trace = x.csv
""")
        assert main(["run", cfg]) == 2
        assert "not both" in capsys.readouterr().err

    def test_robust_loss_flag_rejected_for_scalar2(self, tmp_path, capsys):
        cfg, _ = scalar_run_config(tmp_path, rounds=1,
                                   extra_output="robust_loss = true")
        assert main(["run", cfg]) == 2
        assert "rlr" in capsys.readouterr().err

    def test_unparseable_value_names_key(self, tmp_path, capsys):
        cfg = write(tmp_path / "c.ini", """
[problem]
kind = quadratic
m = three
d = 2
n = 4
seed = 1

[algo]
name = GDA
eta = 0.1
rounds = 1

[output]
trace = x.csv
""")
        assert main(["run", cfg]) == 2
        assert "'m'" in capsys.readouterr().err


class TestCompare:
    def compare_config(self, tmp_path, out):
        return write(tmp_path / "cmp.ini", f"""
[problem]
kind = quadratic
m = 3
d = 4
n = 8
seed = 9

[algo:baseline]
name = GDA
eta = 1e-3
rounds = 25

[algo:local]
name = LocalSGDA
K = 5
eta = 1e-3
rounds = 25

[algo:tracked]
name = FedGDAGT
K = 5
eta = 1e-3
rounds = 25

[output]
trace = {out}
""")

    def test_three_groups_one_file(self, tmp_path):
        out = tmp_path / "cmp.csv"
        assert main(["compare", self.compare_config(tmp_path, out)]) == 0
        rows = read_rows(out)
        labels = [r[1] for r in rows]
        assert sorted(set(labels)) == ["baseline", "local", "tracked"]
        assert len(rows) == 3 * 26
        # ordered by (algorithm, round)
        assert labels == sorted(labels)
        rounds = [int(r[0]) for r in rows if r[1] == "local"]
        assert rounds == list(range(26))

    def test_divergence_keeps_the_traces_that_finished(self, tmp_path, capsys):
        def config(name, sections):
            out = tmp_path / f"{name}.csv"
            cfg = write(tmp_path / f"{name}.ini", f"""
[problem]
kind = scalar2
{sections}
[output]
trace = {out}
emit_plot_data = true
""")
            return cfg, out

        stable = """
[algo:stable]
name = GDA
eta = 0.01
rounds = 20
"""
        unstable = """
[algo:unstable]
name = GDA
eta = 10.0
rounds = 100
"""
        cfg, out = config("cmp", stable + unstable)
        assert main(["compare", cfg]) == 3
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: GDA diverged at round \d+: [^\n]*\n", err)
        rows = read_rows(out)
        assert [r[1] for r in rows] == ["stable"] * 21
        # the kept files equal those of the stable algorithm run alone
        ref_cfg, ref = config("ref", stable)
        assert main(["run", ref_cfg]) == 0
        assert out.read_bytes() == ref.read_bytes()
        assert (out.with_suffix(".plot.csv").read_bytes()
                == ref.with_suffix(".plot.csv").read_bytes())

    def test_compare_needs_two_algos(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        cfg, _ = scalar_run_config(tmp_path)
        assert main(["compare", cfg]) == 2
        assert "at least two" in capsys.readouterr().err

    def test_run_rejects_multiple_algos(self, tmp_path, capsys):
        out = tmp_path / "cmp.csv"
        assert main(["run", self.compare_config(tmp_path, out)]) == 2
        assert "exactly one" in capsys.readouterr().err

    def test_rlr_compare_has_robust_loss_every_round(self, tmp_path):
        out = tmp_path / "rlr.csv"
        cfg = write(tmp_path / "c.ini", f"""
[problem]
kind = rlr
m = 2
d = 3
n = 6
alpha = 1.0
seed = 4

[algo:local]
name = LocalSGDA
K = 3
eta = 1e-3
rounds = 8

[algo:tracked]
name = FedGDAGT
K = 3
eta = 1e-3
rounds = 8

[output]
trace = {out}
""")
        assert main(["compare", cfg]) == 0
        rows = read_rows(out)
        assert len(rows) == 2 * 9
        assert all(r[7] != "" for r in rows)  # robust_loss filled
        assert all(r[5] == "" for r in rows)  # no closed-form gap for rlr

    def test_duplicate_labels_rejected(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        # configparser rejects truly duplicate section names itself; exercise
        # our label check via an [algo] named like an explicit label
        cfg2 = write(tmp_path / "c2.ini", f"""
[problem]
kind = scalar2

[algo]
name = GDA
eta = 0.1
rounds = 1

[algo:GDA]
name = LocalSGDA
eta = 0.1
rounds = 1

[output]
trace = {out}
""")
        assert main(["compare", cfg2]) == 2
        assert "duplicate" in capsys.readouterr().err


class TestFixedPointCommand:
    def test_k1_gap_negligible(self, capsys):
        assert main(["fixed-point", "--K", "1", "--eta", "0.1"]) == 0
        out = capsys.readouterr().out
        gap = float(out.split("squared gap to minimax:")[1].split()[0])
        assert gap <= 1e-10
        assert re.search(r"^simulated rounds: +\d+ \(converged\)$", out, re.M)

    def test_gap_strictly_increases_with_k(self, capsys):
        gaps = []
        agreements = []
        for K in (10, 20, 50):
            assert main(["fixed-point", "--K", str(K), "--eta", "0.001"]) == 0
            out = capsys.readouterr().out
            gaps.append(float(out.split("squared gap to minimax:")[1].split()[0]))
            agreements.append(
                float(out.split("closed-form vs simulated:")[1].split()[0])
            )
        assert gaps[0] < gaps[1] < gaps[2]
        assert gaps[0] > 0
        assert all(a <= 1e-6 for a in agreements)

    def test_unstable_eta_exits_2(self, capsys):
        assert main(["fixed-point", "--K", "10", "--eta", "0.5"]) == 2
        assert "unstable" in capsys.readouterr().err

    @pytest.mark.parametrize("eta", ["0", "-1", "nan"])
    def test_stepsize_that_is_not_finite_and_positive_exits_2(self, capsys, eta):
        # the round engine's stepsize rule, not the stability test, refuses it
        assert main(["fixed-point", "--K", "10", "--eta", eta]) == 2
        assert capsys.readouterr().err == "error: stepsizes must be finite and positive\n"


class TestBoundsCommand:
    def test_matches_library_values(self, tmp_path, capsys):
        cfg = write(tmp_path / "b.ini", """
[bounds]
m = 3
n = 50
M_i = 0.5, 1.5, 2.5
cover_size = 7
delta = 0.05
epsilon = 0.01
L_y = 2.0
rademacher = 0.3
vc_dim = 4
""")
        assert main(["bounds", cfg]) == 0
        out = capsys.readouterr().out
        inputs = BoundInputs(m=3, n=50, M_i=[0.5, 1.5, 2.5], cover_size=7,
                             delta=0.05, epsilon=0.01, L_y=2.0, rademacher=0.3)
        terms = bound_terms(inputs)
        assert repr(terms["concentration_term"]) in out
        assert repr(terms["rademacher_term"]) in out
        assert repr(terms["lipschitz_term"]) in out
        vc = vc_rademacher_bound(3, 50, 4, float(np.dot(inputs.M_i, inputs.M_i)))
        assert repr(vc) in out

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = write(tmp_path / "b.ini", """
[bounds]
m = 1
n = 10
M_i = 1.0
cover_size = 1
delta = 0.5
epsilon = 0.1
L_y = 0.0
rademacher = 0.0
surprise = 2
""")
        assert main(["bounds", cfg]) == 2
        assert "surprise" in capsys.readouterr().err

    def test_invalid_delta_rejected(self, tmp_path, capsys):
        cfg = write(tmp_path / "b.ini", """
[bounds]
m = 1
n = 10
M_i = 1.0
cover_size = 1
delta = 1.5
epsilon = 0.1
L_y = 0.0
rademacher = 0.0
""")
        assert main(["bounds", cfg]) == 2
        assert "delta" in capsys.readouterr().err

    @pytest.mark.parametrize("line", [
        "M_i = nan, 1", "epsilon = inf", "L_y = nan", "rademacher = nan",
    ])
    def test_non_finite_input_exits_2(self, tmp_path, capsys, line):
        valid = {"M_i": "1, 1", "epsilon": "0.1", "L_y": "0.0", "rademacher": "0.0"}
        key = line.split(" = ")[0]
        lines = [line if name == key else f"{name} = {raw}" for name, raw in valid.items()]
        cfg = write(tmp_path / "b.ini", "\n".join([
            "[bounds]", "m = 2", "n = 10", "cover_size = 1", "delta = 0.5", *lines, ""]))
        assert main(["bounds", cfg]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.fullmatch(rf"error: \[bounds\]: [^\n]*{key} [^\n]*must be finite[^\n]*\n",
                            captured.err)


    # finite inputs whose bound overflows: 1e200 squared in sum M_i^2, and a
    # product past the largest float
    OVERFLOWING = {
        "M_i": ("M_i = 1e200, 2", "vc_dim = 1"),
        "rademacher": ("rademacher = 1e308",),
    }
    # finite bounds of inputs whose quotient cover_size / delta no float
    # holds: a quotient past the largest float, a cover size no float holds,
    # and that log times a zero sum of squares
    FINITE = {
        "log": (("cover_size = 100000000000000000000000", "delta = 1e-300"),
                12.44768205528206),
        "int": (("cover_size = 1" + "0" * 400,), 13.857362546511288),
        "zero-M_i": (("M_i = 0, 0", "cover_size = 100000000000000000000000",
                      "delta = 1e-300"), 0.0),
    }

    def overflowing_config(self, tmp_path, case):
        return self.bounds_config(tmp_path, self.OVERFLOWING[case])

    def bounds_config(self, tmp_path, lines):
        valid = {"m": "2", "n": "3", "M_i": "1, 2", "cover_size": "2", "delta": "0.5",
                 "epsilon": "1", "L_y": "0", "rademacher": "0"}
        valid.update(line.split(" = ") for line in lines)
        return write(tmp_path / "b.ini", "\n".join(
            ["[bounds]", *(f"{key} = {raw}" for key, raw in valid.items()), ""]))

    @pytest.mark.parametrize("case", sorted(FINITE))
    def test_a_quotient_no_float_holds_prints_the_finite_bound(self, tmp_path, capsys, case):
        lines, value = self.FINITE[case]
        assert main(["bounds", self.bounds_config(tmp_path, lines)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert f"concentration_term  = {value!r}\n" in captured.out
        assert f"empirical risk f(x,y) + {value!r}\n" in captured.out

    @pytest.mark.parametrize("case", sorted(OVERFLOWING))
    def test_overflowing_bound_exits_2_before_printing(self, tmp_path, capsys, case):
        assert main(["bounds", self.overflowing_config(tmp_path, case)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.fullmatch(r"error: \[bounds\]: the inputs overflow the bounds [^\n]*\n",
                            captured.err)

    def test_overflowing_bound_prints_no_numpy_warning(self, tmp_path):
        # in a fresh interpreter, where numpy's warnings are printed, not raised
        result = subprocess.run(
            [sys.executable, "-m", "fedmm", "bounds", self.overflowing_config(tmp_path, "M_i")],
            capture_output=True, text=True)
        assert result.returncode == 2 and result.stdout == ""
        assert result.stderr == ("error: [bounds]: the inputs overflow the bounds "
                                 "(concentration_term = inf)\n")


class TestGenData:
    def gen_quadratic_data(self, tmp_path, capsys):
        cfg = write(tmp_path / "g.ini", """
[problem]
kind = quadratic
m = 3
d = 4
n = 8
seed = 12
""")
        out = tmp_path / "data.fedmm"
        assert main(["gen-data", cfg, "--out", str(out)]) == 0
        problem, spec = load_dataset(out)
        assert capsys.readouterr().out == f"wrote {spec} to {out}\n"
        return problem, spec

    def test_round_trip(self, tmp_path, capsys):
        problem, spec = self.gen_quadratic_data(tmp_path, capsys)
        assert spec == QuadraticGenSpec(m=3, d=4, n_i=8, seed=12)
        assert len(problem.agents) == 3

    def test_header_names_the_seed_the_data_came_from(self, tmp_path, capsys,
                                                       monkeypatch):
        monkeypatch.setenv("FEDMM_SEED", "99")
        problem, spec = self.gen_quadratic_data(tmp_path, capsys)
        assert spec == QuadraticGenSpec(m=3, d=4, n_i=8, seed=99)
        regenerated = gen_quadratic(spec)
        assert np.array_equal(problem.Q, regenerated.Q)
        assert np.array_equal(problem.c, regenerated.c)

    def test_scalar2_has_nothing_to_dump(self, tmp_path, capsys):
        cfg = write(tmp_path / "g.ini", "[problem]\nkind = scalar2\n")
        assert main(["gen-data", cfg, "--out", str(tmp_path / "x")]) == 2
        assert "quadratic or rlr" in capsys.readouterr().err

    def test_rlr_radius_without_container_field_exits_2(self, tmp_path, capsys):
        cfg = write(tmp_path / "g.ini", """
[problem]
kind = rlr
m = 2
d = 3
n = 5
alpha = 2.0
seed = 8
radius_y = 3.0
""")
        out = tmp_path / "data.fedmm"
        assert main(["gen-data", cfg, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.fullmatch(r"error: [^\n]*radius 3\.0[^\n]*\n", captured.err)
        assert not out.exists()

    def test_rlr_dump(self, tmp_path):
        cfg = write(tmp_path / "g.ini", """
[problem]
kind = rlr
m = 2
d = 3
n = 5
alpha = 2.0
seed = 8
""")
        out = tmp_path / "data.fedmm"
        assert main(["gen-data", cfg, "--out", str(out)]) == 0
        problem, spec = load_dataset(out)
        assert spec == RlrGenSpec(m=2, d=3, n_i=5, alpha=2.0, seed=8)
        assert problem.agents[0].A.shape == (5, 3)


RUN_PROBLEM = "[problem]\nkind = scalar2\n"
RUN_ALGO = "[algo]\nname = GDA\neta = 0.1\nrounds = 1\n"
RUN_OUTPUT = "[output]\ntrace = {trace}\n"
BOUNDS = """[bounds]
m = 2
n = 10
M_i = 1, 1
cover_size = 1
delta = 0.5
epsilon = 0.1
L_y = 0.0
rademacher = 0.0
"""
QUAD_PROBLEM = "[problem]\nkind = quadratic\nm = 2\nd = 3\nn = 6\nseed = 5\n"

# (command, config text, FEDMM_SEED, what the one error line must name)
BRANCHES = {
    "malformed-ini": ("run", "kind = scalar2\n" + RUN_ALGO, None, "malformed config"),
    "malformed-line": ("run", RUN_PROBLEM + "garbage\n" + RUN_ALGO, None, "[line  3]: 'garbage"),
    "missing-key": ("run", RUN_PROBLEM + "[algo]\nname = GDA\neta = 0.1\n" + RUN_OUTPUT,
                    None, "missing required key 'rounds' in [algo]"),
    "non-boolean-timing": ("run", RUN_PROBLEM + RUN_ALGO + RUN_OUTPUT + "timing = maybe\n",
                           None, "key 'timing' in [output]: cannot parse 'maybe'"),
    "unknown-kind": ("run", "[problem]\nkind = cubic\n" + RUN_ALGO + RUN_OUTPUT,
                     None, "unknown problem kind 'cubic'"),
    "non-integer-seed": ("run", QUAD_PROBLEM + RUN_ALGO + RUN_OUTPUT, "seven",
                         "FEDMM_SEED must be an integer, got 'seven'"),
    "empty-label": ("compare", RUN_PROBLEM + RUN_ALGO.replace("[algo]", "[algo:]")
                    + RUN_ALGO.replace("[algo]", "[algo:b]") + RUN_OUTPUT,
                    None, "empty label in section [algo:]"),
    "unknown-algorithm": ("run", RUN_PROBLEM + RUN_ALGO.replace("GDA", "Adam") + RUN_OUTPUT,
                          None, "unknown algorithm 'Adam' in [algo]"),
    "eta-x-alone": ("run", RUN_PROBLEM + RUN_ALGO.replace("eta", "eta_x") + RUN_OUTPUT,
                    None, "eta_x and eta_y must be given together"),
    "missing-output": ("run", RUN_PROBLEM + RUN_ALGO, None,
                       "missing required section [output]"),
    "run-missing-problem": ("run", RUN_ALGO + RUN_OUTPUT, None,
                            "missing required section [problem]"),
    "gen-data-missing-problem": ("gen-data", "", None,
                                 "missing required section [problem]"),
    "missing-bounds": ("bounds", "[limits]\nm = 1\n", None,
                       "missing required section [bounds]"),
    "bounds-unknown-section": ("bounds", BOUNDS + "[extra]\n", None,
                               "unknown section [extra]"),
    "gen-data-unknown-section": ("gen-data", QUAD_PROBLEM + RUN_ALGO, None,
                                 "unknown section [algo]"),
    "vc-dim-above-m-n": ("bounds", BOUNDS + "vc_dim = 100\n", None, "vc_dim"),
    "empty-trace": ("run", RUN_PROBLEM + RUN_ALGO + "[output]\ntrace =\n", None,
                    "key 'trace' in [output]: cannot parse ''"),
}


class TestConfigErrorBranches:
    """Each config error exits 2 before writing anything, with one line on
    stderr that names the offending item."""

    @pytest.mark.parametrize("case", BRANCHES)
    def test_exits_2_with_one_line(self, tmp_path, capsys, monkeypatch, case):
        command, text, env_seed, named = BRANCHES[case]
        trace = tmp_path / "t.csv"
        cfg = write(tmp_path / "c.ini", text.format(trace=trace))
        if env_seed is not None:
            monkeypatch.setenv("FEDMM_SEED", env_seed)
        out = tmp_path / "data.fedmm"
        argv = [command, cfg] + (["--out", str(out)] if command == "gen-data" else [])
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.fullmatch(rf"error: [^\n]*{re.escape(named)}[^\n]*\n", captured.err)
        assert not trace.exists() and not out.exists()


RLR_PROBLEM = "[problem]\nkind = rlr\nm = 2\nd = 3\nn = 6\nseed = 5\n"
RLR_ALGO = "[algo:a]\nname = LocalSGDA\nK = 2\neta = 1e-3\nrounds = 5\n"

# (config text, the whole error line): an error in a later algo section
LATER_SECTION_ERRORS = {
    "bad-key": (RUN_PROBLEM + RUN_ALGO.replace("[algo]", "[algo:a]")
                + RUN_ALGO.replace("[algo]", "[algo:b]") + "bogus = 1\n" + RUN_OUTPUT,
                "unknown key 'bogus' in section [algo:b]"),
    "duplicate-label": (RUN_PROBLEM + RUN_ALGO.replace("[algo]", "[algo:GDA]") + RUN_ALGO
                        + RUN_OUTPUT, "duplicate algorithm label 'GDA'"),
    "auto-eta-refused": (RLR_PROBLEM + "alpha = 1.0\n" + RLR_ALGO
                         + "[algo:b]\nname = FedGDAGT\nK = 2\nrounds = 5\n" + RUN_OUTPUT,
                         "[algo:b]: cannot auto-select a stepsize for this problem "
                         "(constants are not estimated for RobustLinearRegression; "
                         "supply stepsizes explicitly); give eta explicitly"),
    # the first algorithm would diverge: the config error comes first, exit 2
    "after-divergent": (RUN_PROBLEM + RUN_ALGO.replace("[algo]", "[algo:a]")
                        .replace("eta = 0.1\nrounds = 1", "eta = 10.0\nrounds = 100")
                        + RUN_ALGO.replace("[algo]", "[algo:b]").replace("rounds", "round")
                        + RUN_OUTPUT, "unknown key 'round' in section [algo:b]"),
}


@pytest.mark.parametrize("case", LATER_SECTION_ERRORS)
def test_later_section_error_precedes_every_run(tmp_path, capsys, monkeypatch, case):
    text, line = LATER_SECTION_ERRORS[case]
    trace = tmp_path / "t.csv"
    cfg = write(tmp_path / "c.ini", text.format(trace=trace))
    calls = []
    monkeypatch.setattr("fedmm.cli.run_algorithm", lambda *a, **kw: calls.append(a))
    assert main(["compare", cfg]) == 2
    assert calls == []
    assert capsys.readouterr().err == f"error: {line}\n"
    assert not trace.exists()


def test_bounds_table_is_the_bound_inputs_fields():
    assert list(_BOUNDS_TABLE) == [f.name for f in dataclasses.fields(BoundInputs)]

# (command, config text, the whole error line): a key that is missing or
# unparsable is named by its own reason, not wrapped in a second context
KEY_ERRORS = {
    "bounds-missing-n": ("bounds", BOUNDS.replace("n = 10\n", ""),
                         "missing required key 'n' in [bounds]"),
    "bounds-unparsable-M_i": ("bounds", BOUNDS.replace("M_i = 1, 1", "M_i = one, two"),
                              "key 'M_i' in [bounds]: cannot parse 'one, two'"),
    "gen-data-missing-alpha": ("gen-data", RLR_PROBLEM,
                               "missing required key 'alpha' in [problem]"),
    "run-unparsable-radius": ("run", RLR_PROBLEM + "alpha = 1.0\nradius_y = wide\n"
                              + RUN_ALGO + RUN_OUTPUT,
                              "key 'radius_y' in [problem]: cannot parse 'wide'"),
}


@pytest.mark.parametrize("case", KEY_ERRORS)
def test_key_error_names_its_context_once(tmp_path, capsys, case):
    command, text, line = KEY_ERRORS[case]
    trace = tmp_path / "t.csv"
    cfg = write(tmp_path / "c.ini", text.format(trace=trace))
    out = tmp_path / "data.fedmm"
    argv = [command, cfg] + (["--out", str(out)] if command == "gen-data" else [])
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {line}\n"
    assert not trace.exists() and not out.exists()


class TestPlotMetrics:
    @pytest.mark.parametrize("robust_loss, metric", [
        ("", "robust_loss"), ("robust_loss = false", "grad_norm"),
    ])
    def test_rlr_plot_rows(self, tmp_path, robust_loss, metric):
        out = tmp_path / "rlr.csv"
        cfg = write(tmp_path / "c.ini", f"""
[problem]
kind = rlr
m = 2
d = 3
n = 6
alpha = 1.0
seed = 4

[algo]
name = GDA
eta = 1e-3
rounds = 3

[output]
trace = {out}
emit_plot_data = true
{robust_loss}
""")
        assert main(["run", cfg]) == 0
        trace = read_rows(out)
        column = CSV_HEADER.split(",").index(metric)
        plot = out.with_suffix(".plot.csv").read_text().splitlines()
        assert plot[0] == "round,algorithm,metric,value"
        assert [line.split(",") for line in plot[1:]] == [
            [row[0], "GDA", metric, row[column]] for row in trace
        ]


class TestPinnedOutputs:
    """SHA-256 of outputs of d = 1 problems, which involve no BLAS kernel, so
    any change of their bits is a change of the program's arithmetic."""

    def test_scalar_compare_trace(self, tmp_path):
        out = tmp_path / "scalar.csv"
        cfg = write(tmp_path / "c.ini", f"""
[problem]
kind = scalar2

[algo:GDA]
name = GDA
eta = 0.01
rounds = 200

[algo:LocalSGDA]
name = LocalSGDA
K = 10
eta = 1e-3
rounds = 200

[algo:FedGDAGT]
name = FedGDAGT
K = 10
rounds = 200

[output]
trace = {out}
""")
        assert main(["compare", cfg]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "e831172d3e54e93022d3f5e520232fdc5394e51e16961866d35596bf177848a4")

    @pytest.mark.parametrize("K,eta,digest", [
        ("10", "5e-4", "8e1f3f07340b0b92068b00cf522ad8ec89bdb2752a8702f4822cb767aa156e76"),
        ("1", "0.1", "d1b337d4261fc0f3873fabf11fc1b619cd5c07591f54ebbc2c6ae6be045c2471"),
    ], ids=["K10", "K1"])
    def test_fixed_point_stdout(self, capsys, K, eta, digest):
        assert main(["fixed-point", "--K", K, "--eta", eta]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest
