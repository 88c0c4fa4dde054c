import json
import math
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

from vvaf import cli
from vvaf.cli import RunConfig, run
from vvaf.forms import BUILTIN_FORMS, delta_form
from vvaf.lfunc import completed_dirichlet_L

SRC = Path(__file__).resolve().parents[1] / "src"


def read(path: Path) -> str:
    return path.read_text()


def strict_json(text: str):
    """Parse ``text`` as strict JSON, refusing NaN, Infinity and -Infinity."""

    def refuse(name):
        raise ValueError(f"non-finite constant {name} is not JSON")

    return json.loads(text, parse_constant=refuse)


# the nine README commands at small sizes, with the files each writes
README_COMMANDS = [
    ("repr check --builtin theta-eta", {"repr_check_theta-eta.json"}),
    ("repr growth --builtin nonpoly --param a=1j", {"repr_growth_nonpoly.json"}),
    (
        "vvaf coeffs --builtin theta-eta -N 10 --format csv",
        {"coeffs_theta-eta.json", "coeffs_theta-eta_c0.csv", "coeffs_theta-eta_c1.csv", "coeffs_theta-eta_c2.csv"},
    ),
    ("vvaf transform-check --builtin theta-eta --gamma s --gamma t --n-terms 60", {"transform_theta-eta.json"}),
    ("vvaf growth --builtin delta -N 400", {"vvaf_growth_delta.json"}),
    ("vvaf meansq --builtin eta4-theta-eta -N 400", {"vvaf_meansq_eta4-theta-eta.json"}),
    (
        "lfunc eval --builtin delta --s 8,6+3i --method both --n-terms 300",
        {"lfunc_eval_delta_truncated-sum.csv", "lfunc_eval_delta_split-mellin.csv"},
    ),
    ("lfunc fe-scan --builtin delta --s-grid 5,6,7 --n-terms 300", {"lfunc_fescan_delta.csv", "lfunc_fescan_delta.json"}),
    ("expsum scan --builtin eta4-theta-eta --cutoffs 100,200,400", {"expsum_eta4-theta-eta.csv", "expsum_eta4-theta-eta.json"}),
]


def fresh_python(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a new interpreter that imports the package from the source tree."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)


class TestRunConfig:
    def test_round_trip(self):
        text = "n_terms = 123\ntolerance = 1e-09\nseed = 7\nout_dir = runs/x\nformat = csv\nalpha = 0.5\n"
        expected = RunConfig(n_terms=123, tolerance=1e-9, seed=7, out_dir="runs/x", format="csv", alpha=0.5)
        assert RunConfig.from_text(text) == expected

    def test_defaults_documented(self):
        # every field is a config key, and each default parses back to itself
        keys = ("n_terms", "tolerance", "seed", "out_dir", "format", "alpha")
        assert tuple(field.name for field in fields(RunConfig)) == keys
        defaults = RunConfig()
        for key in keys:
            assert RunConfig.from_text(f"{key} = {getattr(defaults, key)}\n") == defaults

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            RunConfig.from_text("bogus = 1\n")

    def test_unknown_format_rejected(self):
        # the same two formats the --format flag accepts
        with pytest.raises(ValueError, match="format must be one of json, csv, got 'xml'"):
            RunConfig.from_text("format = xml\n")
        assert RunConfig.from_text("format = csv\n").format == "csv"

    @pytest.mark.parametrize("value", ["nan", "inf", "-1", "0"])
    def test_tolerance_must_be_finite_and_positive(self, value):
        with pytest.raises(ValueError, match=f"tolerance must be finite and positive, got {float(value)!r}"):
            RunConfig.from_text(f"tolerance = {value}\n")

    @pytest.mark.parametrize("value", [0, -4])
    def test_n_terms_below_one_refused(self, value):
        with pytest.raises(ValueError, match=f"n_terms must be at least 1, got {value}$"):
            RunConfig.from_text(f"n_terms = {value}\n")
        with pytest.raises(ValueError, match=f"n_terms must be at least 1, got {value}$"):
            RunConfig(n_terms=value)

    def test_negative_seed_refused(self):
        with pytest.raises(ValueError, match="seed must be at least 0, got -1$"):
            RunConfig.from_text("seed = -1\n")
        with pytest.raises(ValueError, match="seed must be at least 0, got -1$"):
            RunConfig(seed=-1)

    def test_removed_quad_samples_key_rejected(self):
        # the key configured nothing; a config file naming it is refused
        with pytest.raises(ValueError, match="unknown config key 'quad_samples'"):
            RunConfig.from_text("n_terms = 80\nquad_samples = 64\n")


class TestSubcommands:
    @pytest.mark.parametrize("argv,files", README_COMMANDS, ids=["-".join(c.split()[:2]) for c, _ in README_COMMANDS])
    def test_readme_command_artifacts(self, tmp_path, argv, files):
        code = run(argv.split() + ["--out-dir", str(tmp_path), "--seed", "4"])
        assert code == 0
        assert {p.name for p in tmp_path.iterdir()} == files
        builtin_name = argv.split()[argv.split().index("--builtin") + 1]
        for name in files:
            if name.endswith(".json"):
                payload = strict_json(read(tmp_path / name))
                assert (payload["builtin"], payload["seed"]) == (builtin_name, 4)

    @pytest.mark.parametrize("cutoffs", ["0,10", "-5,10"])
    def test_expsum_scan_refuses_cutoff_below_one(self, tmp_path, capsys, cutoffs):
        code = run(["--out-dir", str(tmp_path), "expsum", "scan", "--builtin", "delta", f"--cutoffs={cutoffs}"])
        assert code == 2
        assert "cutoffs must be at least 1" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_expsum_scan_refuses_non_finite_theta(self, tmp_path, capsys):
        code = run(["--out-dir", str(tmp_path), "expsum", "scan", "--builtin", "delta", "--thetas", "0,nan"])
        assert code == 2
        assert "theta must be finite, got nan" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["vvaf", "growth", "--builtin", "delta", "-N", "200"],
            ["vvaf", "meansq", "--builtin", "delta", "-N", "200"],
            ["lfunc", "eval", "--builtin", "delta", "--s", "8", "--method", "truncated-sum"],
            ["expsum", "scan", "--builtin", "delta", "--cutoffs", "10,20"],
        ],
    )
    def test_non_finite_alpha_in_config_is_usage_error(self, tmp_path, capsys, argv):
        # alpha = nan used to exit 1, a FAIL verdict, from growth and meansq
        config = tmp_path / "run.cfg"
        config.write_text("alpha = nan\n")
        out = tmp_path / "out"
        assert run(["--config", str(config), "--out-dir", str(out), *argv]) == 2
        assert "alpha must be finite, got nan" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("value", ["nan", "-1"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["vvaf", "transform-check", "--builtin", "theta-eta", "--gamma", "s"],
            ["lfunc", "fe-scan", "--builtin", "delta", "--s-grid", "5,6,7"],
        ],
        ids=["transform-check", "fe-scan"],
    )
    def test_bad_tolerance_in_config_is_usage_error(self, tmp_path, capsys, argv, value):
        # tolerance = nan or -1 used to exit 1, a FAIL verdict
        config = tmp_path / "run.cfg"
        config.write_text(f"tolerance = {value}\n")
        out = tmp_path / "out"
        assert run(["--config", str(config), "--out-dir", str(out), *argv]) == 2
        assert "tolerance must be finite and positive" in capsys.readouterr().err
        assert not out.exists()

    def test_transform_check_refuses_zero_samples(self, tmp_path, capsys):
        argv = ["--out-dir", str(tmp_path), "vvaf", "transform-check", "--builtin", "delta", "--gamma", "s", "--samples", "0"]
        assert run(argv) == 2
        assert "no sample points" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_repr_check(self, tmp_path):
        code = run(["--out-dir", str(tmp_path), "repr", "check", "--builtin", "theta-eta"])
        assert code == 0
        payload = json.loads(read(tmp_path / "repr_check_theta-eta.json"))
        assert payload["validation"]["passed"]
        assert payload["admissible"] is True
        assert payload["seed"] == 0

    def test_repr_check_failing_input_exits_nonzero(self, tmp_path):
        code = run(["--out-dir", str(tmp_path), "repr", "check", "--builtin", "nope"])
        assert code == 2

    @pytest.mark.parametrize("name, param", [("theta-eta", "a=2"), ("sym2", "a=1j"), ("nonpoly", "b=1")])
    def test_repr_check_refuses_parameter_not_taken(self, tmp_path, capsys, name, param):
        code = run(["--out-dir", str(tmp_path), "repr", "check", "--builtin", name, "--param", param])
        assert code == 2
        assert f"builtin representation {name!r} takes" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_repr_check_refuses_group_that_is_not_a_subgroup(self, tmp_path, capsys):
        argv = ["--out-dir", str(tmp_path), "repr", "check", "--builtin", "trivial", "--param", "group=2"]
        assert run(argv) == 2
        assert "group must be a SubgroupDescriptor, got (2+0j)" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["check", "growth"])
    def test_repr_nonpoly_refuses_zero_a(self, tmp_path, capsys, command):
        argv = ["--out-dir", str(tmp_path), "repr", command, "--builtin", "nonpoly", "--param", "a=0"]
        assert run(argv) == 2
        assert "a must be nonzero" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_repr_growth_nonpoly(self, tmp_path):
        code = run(["--out-dir", str(tmp_path), "repr", "growth", "--builtin", "nonpoly", "--param", "a=1j"])
        assert code == 0
        fit = strict_json(read(tmp_path / "repr_growth_nonpoly.json"))["fit"]
        assert fit["classification"] == "exponential"
        # an exponential-growth fit has no finite exponent or ratio: both are null
        assert (fit["alpha_emp"], fit["max_ratio"]) == (None, None)

    def test_vvaf_coeffs_csv(self, tmp_path):
        code = run(["--out-dir", str(tmp_path), "vvaf", "coeffs", "--builtin", "theta-eta", "-N", "10", "--format", "csv"])
        assert code == 0
        manifest = json.loads(read(tmp_path / "coeffs_theta-eta.json"))
        assert len(manifest["components"]) == 3
        lines = read(tmp_path / "coeffs_theta-eta_c0.csv").strip().splitlines()
        assert lines[0] == "exponent_num,exponent_den,re,im"
        first = lines[1].split(",")
        assert (int(first[0]), int(first[1])) == (1, 12)
        assert float(first[2]) == 2.0

    def test_transform_check_pass_and_exit_codes(self, tmp_path):
        code = run(
            [
                "--out-dir",
                str(tmp_path),
                "vvaf",
                "transform-check",
                "--builtin",
                "theta-eta",
                "--gamma",
                "s",
                "--gamma",
                "t",
                "--gamma",
                "2,1,1,1",
                "--n-terms",
                "60",
            ]
        )
        assert code == 0
        payload = json.loads(read(tmp_path / "transform_theta-eta.json"))
        assert payload["verdict"] == "PASS"
        assert payload["max_residual"] < 1e-8

    def test_vvaf_growth_and_meansq(self, tmp_path):
        code = run(["--out-dir", str(tmp_path), "--format", "csv", "vvaf", "growth", "--builtin", "delta", "-N", "400"])
        assert code == 0
        payload = json.loads(read(tmp_path / "vvaf_growth_delta.json"))
        assert payload["report"]["verdict"] == "PASS"
        assert (tmp_path / "vvaf_growth_delta.csv").exists()
        code = run(["--out-dir", str(tmp_path), "vvaf", "meansq", "--builtin", "delta", "-N", "400"])
        assert code == 0

    @pytest.mark.parametrize("command, n", [("meansq", "2"), ("meansq", "1"), ("growth", "1")])
    def test_vvaf_fit_through_fewer_than_two_points_degenerate(self, tmp_path, command, n):
        code = run(["--out-dir", str(tmp_path), "vvaf", command, "--builtin", "delta", "-N", n])
        assert code == 0
        payload = strict_json(read(tmp_path / f"vvaf_{command}_delta.json"))
        report = payload["report"] if command == "growth" else payload
        assert report["verdict"] == "DEGENERATE"
        # a fit through fewer than two points has no slope: it is written as null
        undefined = ("beta_emp", "residual") if command == "growth" else ("slope",)
        assert [report[key] for key in undefined] == [None] * len(undefined)

    @pytest.mark.parametrize("command", ["growth", "meansq", "coeffs"])
    def test_vvaf_negative_n_refused(self, tmp_path, capsys, command):
        code = run(["--out-dir", str(tmp_path), "vvaf", command, "--builtin", "delta", "-N", "-4"])
        assert code == 2
        assert "nmax must be at least 0, got -4" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_lfunc_eval_refuses_fewer_than_one_term(self, tmp_path, capsys):
        argv = ["--out-dir", str(tmp_path), "lfunc", "eval", "--builtin", "delta", "--s", "8", "--n-terms", "-3"]
        assert run(argv) == 2
        assert "n_terms must be at least 1, got -3" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("s", ["0", "-1"])
    def test_lfunc_eval_refuses_gamma_pole(self, tmp_path, capsys, s):
        # the truncated sum at a pole of Gamma used to write a nan,nan,nan row
        argv = ["--out-dir", str(tmp_path), "lfunc", "eval", "--builtin", "delta", f"--s={s}", "--method", "truncated-sum"]
        assert run(argv) == 2
        assert f"Gamma(s + j) has a pole at s = {complex(float(s))}, log power j = 0" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_lfunc_eval_large_argument_is_finite(self, tmp_path):
        # Gamma(200) overflows on its own; the completed value, 9.1e212, does not
        argv = ["--out-dir", str(tmp_path), "lfunc", "eval", "--builtin", "delta", "--s", "200", "--method", "truncated-sum"]
        assert run(argv) == 0
        (row,) = read(tmp_path / "lfunc_eval_delta_truncated-sum.csv").splitlines()[1:]
        values = [float(x) for x in row.split(",")]
        assert all(math.isfinite(x) for x in values)
        assert 9.1e212 < values[3] < 9.2e212

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["lfunc", "eval", "--builtin", "delta", "--s", "inf"], "s = (inf+0j) is not finite"),
            (["lfunc", "eval", "--builtin", "delta", "--s", "8,,9"], "--s: '' is not a complex number"),
            (["lfunc", "eval", "--builtin", "delta", "--s", "8,6+3x"], "--s: '6+3x' is not a complex number"),
            (["lfunc", "fe-scan", "--builtin", "delta", "--s-grid", "5,infi"], "s = infj is not finite"),
            (["lfunc", "fe-scan", "--builtin", "delta", "--s-grid", "5,,6"], "--s-grid: '' is not a complex number"),
            (["repr", "check", "--builtin", "nonpoly", "--param", "a"], "--param: 'a' is not key=value"),
            (["repr", "check", "--builtin", "nonpoly", "--param", "a=1k"], "--param: '1k' is not a complex number"),
        ],
    )
    def test_complex_arguments_refused_by_name(self, tmp_path, capsys, argv, message):
        # an i inside inf used to turn into j, and every bad item failed with
        # complex()'s own message, which names neither the flag nor the item
        assert run(["--out-dir", str(tmp_path), *argv]) == 2
        assert f"error: {message}\n" == capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "item", ["8", " 6+3i", "6-3i ", "1j", "i", "-2.5e-1+1e3i", "(6+3i)", "( 1+2i ) ", "3J", "nan", "1_0"]
    )
    def test_complex_reader_keeps_every_value(self, item):
        # every item the old reader took, with each i replaced by j, reads as
        # it did; str tells nan and -0.0 apart where == does not
        assert str(cli._parse_complex("--s", item)) == str(complex(item.replace("i", "j")))

    @pytest.mark.parametrize("where", ["before", "after"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["repr", "check", "--builtin", "theta-eta"],
            ["vvaf", "coeffs", "--builtin", "delta", "-N", "5"],
            ["expsum", "scan", "--builtin", "delta", "--cutoffs", "10"],
        ],
        ids=["repr-check", "vvaf-coeffs", "expsum-scan"],
    )
    def test_n_terms_flag_checked_like_config_key(self, tmp_path, capsys, argv, where):
        # flags are merged into the config through its constructor, so every
        # command refuses --n-terms 0 by name, as it refuses n_terms = 0 in a file
        flag = ["--n-terms", "0"]
        out = tmp_path / "out"
        full = ["--out-dir", str(out), *flag, *argv] if where == "before" else ["--out-dir", str(out), *argv, *flag]
        assert run(full) == 2
        assert "n_terms must be at least 1, got 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("where", ["flag", "config"])
    def test_negative_seed_is_usage_error_before_out_dir(self, tmp_path, capsys, where):
        # numpy's sampler used to refuse it unnamed, after the directory was made
        out = tmp_path / "out"
        argv = ["--out-dir", str(out), "repr", "growth", "--builtin", "nonpoly", "--param", "a=1j"]
        if where == "flag":
            argv += ["--seed", "-1"]
        else:
            config = tmp_path / "run.cfg"
            config.write_text("seed = -1\n")
            argv = ["--config", str(config), *argv]
        assert run(argv) == 2
        assert "seed must be at least 0, got -1" in capsys.readouterr().err
        assert not out.exists()

    def test_flags_replace_config_file_values(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("n_terms = 80\nseed = 3\n")
        out = tmp_path / "out"
        base = ["--config", str(config), "--out-dir", str(out), "repr", "check", "--builtin", "sym2"]
        # a valid file with an invalid flag: the merged config is what is checked
        assert run([*base, "--n-terms", "0"]) == 2
        assert "n_terms must be at least 1, got 0" in capsys.readouterr().err
        assert not out.exists()
        assert run([*base, "--seed", "5"]) == 0
        assert json.loads(read(out / "repr_check_sym2.json"))["seed"] == 5

    def test_vvaf_growth_csv_writes_coefficient_norms(self, tmp_path):
        from vvaf.forms import sym2_log_form
        from vvaf.growth import coefficient_norms

        code = run(["--out-dir", str(tmp_path), "--format", "csv", "vvaf", "growth", "--builtin", "sym2-log", "-N", "30"])
        assert code == 0
        rows = read(tmp_path / "vvaf_growth_sym2-log.csv").strip().splitlines()[1:]
        norms = coefficient_norms(sym2_log_form(RunConfig().n_terms), 30)
        assert [float(row.split(",")[1]) for row in rows] == [float(x) for x in norms[1:] if x > 0]

    def test_lfunc_eval_csv_schema(self, tmp_path):
        code = run(["--out-dir", str(tmp_path), "--n-terms", "400", "lfunc", "eval", "--builtin", "delta", "--s", "8"])
        assert code == 0
        for method in ("truncated-sum", "split-mellin"):
            lines = read(tmp_path / f"lfunc_eval_delta_{method}.csv").strip().splitlines()
            assert lines[0] == "s_re,s_im,component,value_re,value_im,err"
        sum_value = float(read(tmp_path / "lfunc_eval_delta_truncated-sum.csv").splitlines()[1].split(",")[3])
        mellin_value = float(read(tmp_path / "lfunc_eval_delta_split-mellin.csv").splitlines()[1].split(",")[3])
        assert abs(sum_value - mellin_value) < 1e-6

    def test_lfunc_fescan(self, tmp_path):
        code = run(
            ["--out-dir", str(tmp_path), "--n-terms", "300", "lfunc", "fe-scan", "--builtin", "delta", "--s-grid", "5,6,7"]
        )
        assert code == 0
        payload = json.loads(read(tmp_path / "lfunc_fescan_delta.json"))
        assert payload["selected_sign"] == 1
        lines = read(tmp_path / "lfunc_fescan_delta.csv").strip().splitlines()
        assert lines[0] == "s_re,s_im,residual_plus,residual_minus"

    def test_expsum_scan(self, tmp_path):
        code = run(
            ["--out-dir", str(tmp_path), "expsum", "scan", "--builtin", "delta", "--cutoffs", "100,200,400"]
        )
        assert code == 0
        payload = json.loads(read(tmp_path / "expsum_delta.json"))
        assert payload["verdict"] == "PASS"
        lines = read(tmp_path / "expsum_delta.csv").strip().splitlines()
        assert lines[0] == "theta,X,component,sum_re,sum_im,ratio"

    def test_determinism_byte_identical(self, tmp_path):
        dir1 = tmp_path / "run1"
        dir2 = tmp_path / "run2"
        for out in (dir1, dir2):
            run(["--out-dir", str(out), "repr", "growth", "--builtin", "theta-eta", "--seed", "11"])
            run(["--out-dir", str(out), "expsum", "scan", "--builtin", "delta", "--cutoffs", "100,200"])
        for name in ("repr_growth_theta-eta.json", "expsum_delta.csv", "expsum_delta.json"):
            assert read(dir1 / name) == read(dir2 / name)

    def test_config_file(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text(f"n_terms = 80\nout_dir = {tmp_path}\nseed = 3\n")
        code = run(["--config", str(config), "repr", "check", "--builtin", "sym2"])
        assert code == 0
        payload = json.loads(read(tmp_path / "repr_check_sym2.json"))
        assert payload["seed"] == 3


# the arguments that run each form subcommand at a small size
FORM_COMMAND_ARGS = {
    ("vvaf", "coeffs"): ["-N", "20"],
    ("vvaf", "transform-check"): ["--gamma", "s", "--gamma", "t", "--samples", "3"],
    ("vvaf", "growth"): ["-N", "30"],
    ("vvaf", "meansq"): ["-N", "30"],
    ("lfunc", "eval"): ["--s", "9", "--method", "both"],
    ("lfunc", "fe-scan"): ["--s-grid", "5,6"],
    ("expsum", "scan"): ["--cutoffs", "10,20"],
}


class TestEveryFormCommand:
    def test_table_covers_every_form_subcommand(self):
        form_commands = {(group, action) for group, action, arguments, _ in cli._COMMANDS if cli._FORM in arguments}
        assert form_commands == set(FORM_COMMAND_ARGS)

    @pytest.mark.parametrize("form", sorted(BUILTIN_FORMS))
    @pytest.mark.parametrize("command", sorted(FORM_COMMAND_ARGS), ids=lambda c: "-".join(c))
    def test_runs_or_refuses_by_name(self, tmp_path, capsys, form, command):
        # 0 or 1 (a verdict) on every built-in form; 2 only where a form has no
        # L-values, the non-cusp theta-eta
        argv = [*command, "--builtin", form, *FORM_COMMAND_ARGS[command], "--n-terms", "40", "--out-dir", str(tmp_path)]
        code = run(argv)
        err = capsys.readouterr().err
        if form == "theta-eta" and command[0] == "lfunc":
            assert code == 2
            assert "L-values are defined here for cusp forms only" in err
            assert list(tmp_path.iterdir()) == []
            return
        assert code in (0, 1), err
        names = [path.name for path in tmp_path.iterdir()]
        assert names
        for name in names:
            if name.endswith(".json"):
                assert strict_json(read(tmp_path / name))["builtin"] == form


class TestStartup:
    def test_commands_run_with_scipy_blocked(self, tmp_path):
        # scipy is a test dependency only: with every scipy import made to
        # fail, the README commands and the truncated sum over log slots
        # (sym2-log) and over three components (eta4-theta-eta) still run
        commands = [(argv, files) for argv, files in README_COMMANDS] + [
            (f"lfunc eval --builtin {form} --s 9 --method both", {f"lfunc_eval_{form}_{m}.csv" for m in ("truncated-sum", "split-mellin")})
            for form in ("sym2-log", "eta4-theta-eta")
        ]
        runs = [argv.split() + ["--out-dir", str(tmp_path / str(k))] for k, (argv, _) in enumerate(commands)]
        proc = fresh_python(
            "import json, sys\n"
            "sys.modules['scipy'] = None\n"
            "from vvaf.cli import run\n"
            f"print(json.dumps([run(argv) for argv in {runs!r}]))\n"
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [0] * len(commands)
        for k, (_, files) in enumerate(commands):
            assert {path.name for path in (tmp_path / str(k)).iterdir()} == files

    def test_fft_products_load_no_scipy(self, tmp_path):
        # eta4-theta-eta at N = 5000 squares operands past _BIG_CONV, so its
        # build takes the FFT branch of _convolve, which is numpy.fft only
        argv = ["--out-dir", str(tmp_path), "vvaf", "growth", "--builtin", "eta4-theta-eta", "-N", "5000"]
        proc = fresh_python(
            "import json, sys\n"
            "from vvaf import qseries\n"
            "big = []\n"
            "convolve = qseries._convolve\n"
            "def spy(a, b):\n"
            "    big.append(len(a) + len(b) > qseries._BIG_CONV)\n"
            "    return convolve(a, b)\n"
            "qseries._convolve = spy\n"
            "from vvaf.cli import run\n"
            f"code = run({argv!r})\n"
            "print(json.dumps({'code': code, 'fft': any(big), 'scipy': [m for m in sys.modules if m.split('.')[0] == 'scipy']}))\n"
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == {"code": 0, "fft": True, "scipy": []}

    def test_truncated_sum_eval_in_fresh_process(self, tmp_path):
        argv = ["--out-dir", str(tmp_path), "--n-terms", "400", "lfunc", "eval", "--builtin", "delta", "--s", "8",
                "--method", "truncated-sum"]
        proc = fresh_python(f"import sys\nfrom vvaf.cli import run\nsys.exit(run({argv!r}))\n")
        assert proc.returncode == 0, proc.stderr
        rows = [line.split(",") for line in read(tmp_path / "lfunc_eval_delta_truncated-sum.csv").splitlines()[1:]]
        expected = completed_dirichlet_L(delta_form(400), 8, n_terms=400)
        assert [complex(float(r[3]), float(r[4])) for r in rows] == list(expected.value)
        assert [float(r[5]) for r in rows] == [expected.error] * len(expected.value)
