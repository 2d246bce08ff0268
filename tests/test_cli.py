import json
import math
import shlex
from pathlib import Path

import pytest

from cavicore.cli import (EXIT_CONFIG, EXIT_FLAGGED, EXIT_OK, LIMIT_RADII, _fmt,
                          build_parser, main, write_csv, write_json)

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def _strict_loads(text):
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    return json.loads(text, parse_constant=reject)


def test_example_sweep_radial(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(["example-sweep", "--example", "radial", "--b", "0.5",
                 "--radii", "0.2,0.1,0.05,0.025", "--output", str(out)])
    assert code == EXIT_OK
    text = out.read_text()
    lines = text.strip().splitlines()
    assert lines[0] == "r,volume,perimeter,n_samples"
    assert lines[-1].startswith("# config=")
    limit_row = next(l for l in lines if l.startswith("limit,"))
    per = float(limit_row.split(",")[2])
    assert abs(per - 2.828427) <= 1e-3


def test_example_sweep_spike_flags(tmp_path, capsys):
    out = tmp_path / "spike.csv"
    code = main(["example-sweep", "--example", "spike", "--output", str(out)])
    assert code == EXIT_FLAGGED
    assert out.exists()  # partial outputs written despite the flag
    captured = capsys.readouterr().out
    assert "flag: conv-perimeter-violated\n" in captured
    # the README promises the gap to the reduced-boundary perimeter pi
    assert "reduced-boundary perimeter 3.14159265, gap +1.000000" in captured


def test_example_sweep_flags_unconverged_traces(tmp_path, capsys):
    # no two passes agree to 1e-20, so every sweep stops at the node cap
    out = tmp_path / "sweep.csv"
    code = main(["example-sweep", "--example", "radial", "--radii", "0.2,0.1,0.05",
                 "--trace-tol", "1e-20", "--output", str(out)])
    assert code == EXIT_FLAGGED
    assert out.read_text().splitlines()[0] == "r,volume,perimeter,n_samples"
    captured = capsys.readouterr().out
    for r in ("0.2", "0.1", "0.05"):
        assert f"flag: trace-not-converged at (0, 0), r={r}\n" in captured


def test_example_sweep_flags_uncertain_extrapolation(tmp_path, capsys):
    # three coarse radii leave a volume error estimate of 9.4e-2, above EXTRAP_UNC_TOL
    code = main(["example-sweep", "--example", "radial", "--radii", "0.5,0.4,0.3",
                 "--output", str(tmp_path / "sweep.csv")])
    assert code == EXIT_FLAGGED
    assert "flag: extrapolation-uncertain at (0, 0)\n" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["gamma-sweep", "--max-iter", "1"],
    ["minimize-radial", "--eps", "0.1", "--max-iter", "1"],
], ids=["gamma-sweep", "minimize-radial"])
def test_unconverged_solve_prints_a_flag(tmp_path, capsys, argv):
    assert main(argv + ["--output", str(tmp_path / "x.csv")]) == EXIT_FLAGGED
    assert "flag: minimize-not-converged" in capsys.readouterr().out


# every subcommand's parsed options with minimal argv, as the config hashes see them
DEFAULTS = {
    "example-sweep": (["--example", "radial"],
                      {"example": "radial", "b": 0.5, "radii": LIMIT_RADII,
                       "trace_tol": 1e-9, "output": "example_sweep.csv"}),
    "limit-energy": (["--example", "radial"],
                     {"example": "radial", "b": 0.5, "density": "subquadratic", "p": 1.1,
                      "lambda_v": 1.0, "lambda_p": 1.0, "radii": LIMIT_RADII,
                      "output": "limit_energy.json"}),
    "recovery": (["--example", "radial"],
                 {"example": "radial", "b": 0.5, "density": "subquadratic", "p": 1.1,
                  "lambda_v": 2.5, "lambda_p": 2.5, "eps_list": "0.2,0.1,0.05,0.025",
                  "output": "recovery.csv"}),
    "minimize-radial": (["--eps", "0.1"],
                        {"eps": 0.1, "density": "standard", "p": 2.0, "lambda_v": 1.0,
                         "lambda_p": 1.0, "outer_radius": 1.0, "boundary_value": 1.0,
                         "K": 16, "tol": 1e-7, "max_iter": 100000,
                         "output": "minimize_radial.csv"}),
    "gamma-sweep": ([],
                    {"eps_list": "0.2,0.1,0.05", "density": "standard", "p": 2.0,
                     "lambda_v": 1.0, "lambda_p": 1.0, "outer_radius": 1.0,
                     "boundary_value": 1.0, "K": 16, "max_iter": 20000,
                     "output": "gamma_sweep.csv"}),
    "check": (["--example", "radial"],
              {"example": "radial", "b": 0.5, "eps": 0.1, "radii": "",
               "output": "check.json"}),
}


def test_parsed_defaults_are_pinned():
    # one parser for all subcommands: a default set on one must not reach another
    ap = build_parser()
    for command, (argv, expected) in DEFAULTS.items():
        parsed = vars(ap.parse_args([command] + argv))
        del parsed["func"]
        assert parsed == {"seed": 0, "command": command, **expected}, command


def test_example_sweep_bad_radii(tmp_path):
    code = main(["example-sweep", "--example", "radial",
                 "--radii", "0.1,0.2", "--output", str(tmp_path / "x.csv")])
    assert code == EXIT_CONFIG


@pytest.mark.parametrize("argv", [
    ["recovery", "--example", "radial", "--eps-list", ","],
    ["gamma-sweep", "--eps-list", ","],
    ["limit-energy", "--example", "radial", "--radii", ","],
], ids=["recovery", "gamma-sweep", "limit-energy"])
def test_empty_list_is_config_error(tmp_path, argv):
    assert main(argv + ["--output", str(tmp_path / "x")]) == EXIT_CONFIG


@pytest.mark.parametrize("argv", [
    ["minimize-radial", "--eps", "2.0"],
    ["gamma-sweep", "--eps-list", "0.1,0.2,0.05"],
    ["gamma-sweep", "--eps-list", "1.5,0.2,0.05"],
    ["check", "--example", "radial", "--eps", "0.7"],
    ["minimize-radial", "--eps", "-0.1"],
    ["gamma-sweep", "--eps-list", "0.2,0.1,-0.05"],
    ["minimize-radial", "--eps", "0.1", "--boundary-value", "nan"],
    ["minimize-radial", "--eps", "0.1", "--boundary-value", "inf"],
    ["minimize-radial", "--eps", "0.1", "--outer-radius", "inf"],
    ["minimize-radial", "--eps", "0.1", "--p", "nan"],
    ["minimize-radial", "--eps", "0.1", "--p", "inf"],
    ["limit-energy", "--example", "radial", "--lambda-v", "nan"],
    ["limit-energy", "--example", "radial", "--lambda-p", "nan"],
    ["limit-energy", "--example", "radial", "--lambda-v", "inf"],
    ["example-sweep", "--example", "radial", "--trace-tol", "nan"],
    ["example-sweep", "--example", "radial", "--trace-tol", "0"],
    ["example-sweep", "--example", "radial", "--trace-tol", "-1"],
    ["example-sweep", "--example", "radial", "--trace-tol", "inf"],
], ids=["minimize-eps", "gamma-order", "gamma-eps", "check-eps", "minimize-negative-eps",
        "gamma-negative-eps", "minimize-nan-boundary", "minimize-inf-boundary",
        "minimize-inf-outer", "minimize-nan-p", "minimize-inf-p", "limit-nan-lambda-v",
        "limit-nan-lambda-p", "limit-inf-lambda-v", "sweep-nan-trace-tol",
        "sweep-zero-trace-tol", "sweep-negative-trace-tol", "sweep-inf-trace-tol"])
def test_config_error_is_reported(tmp_path, capsys, argv):
    assert main(argv + ["--output", str(tmp_path / "x")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and len(err.splitlines()) == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("key", ["radial", "spike"])
def test_example_sweep_limit_is_limit_energy_flaw(tmp_path, key):
    # both commands compute the flaw's limit on the same default radii
    csv_out, json_out = tmp_path / "sweep.csv", tmp_path / "limit.json"
    main(["example-sweep", "--example", key, "--output", str(csv_out)])
    main(["limit-energy", "--example", key, "--output", str(json_out)])
    row = next(l for l in csv_out.read_text().splitlines() if l.startswith("limit,"))
    flaw = json.loads(json_out.read_text())["flaws"][0]
    assert row.split(",")[1:3] == [_fmt(flaw["volume"]), _fmt(flaw["perimeter"])]


def test_byte_identical_reruns(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    args = ["example-sweep", "--example", "change-of-reference", "--b", "0.5",
            "--radii", "0.2,0.1,0.05"]
    assert main(args + ["--output", str(a)]) == EXIT_OK
    assert main(args + ["--output", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_minimize_radial_cli(tmp_path):
    out = tmp_path / "prof.csv"
    code = main(["minimize-radial", "--eps", "0.1", "--boundary-value", "1.0",
                 "--lambda-v", "0", "--lambda-p", "0", "--output", str(out)])
    assert code == EXIT_OK
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "node,value"
    assert len(lines) == 1 + 17 + 1  # header + K+1 nodes + hash comment


def test_minimize_radial_bad_config(tmp_path):
    code = main(["minimize-radial", "--eps", "2.0",
                 "--output", str(tmp_path / "x.csv")])
    assert code == EXIT_CONFIG


def test_gamma_sweep_cli(tmp_path):
    out = tmp_path / "gamma.csv"
    code = main(["gamma-sweep", "--eps-list", "0.2,0.1,0.05",
                 "--boundary-value", "1.0", "--lambda-v", "0",
                 "--lambda-p", "0", "--output", str(out)])
    assert code == EXIT_OK
    header = out.read_text().splitlines()[0]
    assert header.split(",")[:3] == ["eps", "elastic", "volume_term"]


def test_check_cli(tmp_path):
    out = tmp_path / "check.json"
    code = main(["check", "--example", "radial", "--eps", "0.1",
                 "--output", str(out)])
    assert code == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["ok"] is True
    assert all(row["passed"] for row in payload["rows"])


def test_limit_energy_cli(tmp_path):
    out = tmp_path / "limit.json"
    code = main(["limit-energy", "--example", "radial", "--b", "0.5",
                 "--radii", "0.2,0.1,0.05,0.025", "--output", str(out)])
    payload = json.loads(out.read_text())
    assert payload["flaws"][0]["volume"] == pytest.approx(0.5, abs=1e-4)
    assert code in (EXIT_OK, EXIT_FLAGGED)


def test_unknown_example_is_config_error(tmp_path):
    code = main(["example-sweep", "--example", "radial", "--b", "7",
                 "--output", str(tmp_path / "x.csv")])
    assert code == EXIT_CONFIG


def test_write_json_non_finite_is_null(tmp_path):
    out = tmp_path / "x.json"
    write_json(out, {"a": math.inf, "b": [1.5, -math.inf, (math.nan, 2.0)],
                     "c": {"d": float("nan")}, "e": "inf"}, {})
    payload = _strict_loads(out.read_text())
    assert payload["a"] is None
    assert payload["b"] == [1.5, None, [None, 2.0]]
    assert payload["c"] == {"d": None}
    assert payload["e"] == "inf"


def test_write_csv_non_finite_is_empty_cell(tmp_path):
    out = tmp_path / "x.csv"
    write_csv(out, ["a", "b", "c", "d"], [[math.inf, -math.inf, math.nan, 0.25]], {})
    assert out.read_text().splitlines()[1] == ",,,0.25"


def test_limit_energy_spike_writes_strict_json(tmp_path, capsys):
    out = tmp_path / "spike.json"
    code = main(["limit-energy", "--example", "spike", "--output", str(out)])
    assert code == EXIT_FLAGGED
    payload = _strict_loads(out.read_text())
    assert "elastic-not-converged" in payload["flags"]
    assert payload["total"] is None
    captured = capsys.readouterr().out
    assert "flag: elastic-not-converged\n" in captured
    assert "flag: conv-perimeter-violated\n" in captured


def test_recovery_spike_rows_report_elastic_convergence(tmp_path, capsys):
    # the spike's pushed maps have a log-divergent bulk energy: every row is
    # written, marked unconverged, and flagged
    out = tmp_path / "spike.csv"
    code = main(["recovery", "--example", "spike", "--eps-list", "0.2",
                 "--output", str(out)])
    assert code == EXIT_FLAGGED
    header, row = out.read_text().splitlines()[:2]
    assert header.split(",")[-1] == "elastic_converged"
    assert row.split(",")[-1] == "False"
    captured = capsys.readouterr().out
    assert "flag: elastic-not-converged at eps 0.2" in captured
    assert captured.count("conv-perimeter") == 1


def test_recovery_unconverged_row_exits_flagged(tmp_path, capsys, monkeypatch):
    # a clean limit with one unconverged row still exits 1
    import dataclasses

    import cavicore.cli as cli

    real = cli.recovery_energy_table

    def last_row_unconverged(*args, **kwargs):
        table = real(*args, **kwargs)
        rows = table.rows[:-1] + (dataclasses.replace(table.rows[-1],
                                                      elastic_converged=False),)
        return dataclasses.replace(table, rows=rows)

    monkeypatch.setattr(cli, "recovery_energy_table", last_row_unconverged)
    out = tmp_path / "radial.csv"
    code = main(["recovery", "--example", "radial", "--eps-list", "0.2,0.1",
                 "--output", str(out)])
    assert code == EXIT_FLAGGED
    rows = out.read_text().splitlines()[1:3]
    assert [r.split(",")[-1] for r in rows] == ["True", "False"]
    assert "flag: elastic-not-converged at eps 0.1" in capsys.readouterr().out


def _readme_commands():
    """The `cavicore ...` invocations of the README's Command line block."""
    text = README.read_text()
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    joined = block.replace("\\\n", " ")
    return [shlex.split(line)[1:] for line in joined.splitlines()
            if line.startswith("cavicore ")]


def test_readme_commands_exit_codes(tmp_path, capsys):
    commands = _readme_commands()
    assert len(commands) == 7
    for i, argv in enumerate(commands):
        k = argv.index("--output")
        argv[k + 1] = str(tmp_path / f"{i}_{argv[k + 1]}")
        expected = EXIT_FLAGGED if argv[:3] == ["example-sweep", "--example", "spike"] else EXIT_OK
        code = main(argv)
        assert code == expected, argv
        assert Path(argv[k + 1]).exists()
        # exit 1 exactly when at least one flag is printed
        flagged = any(l.startswith("flag: ") for l in capsys.readouterr().out.splitlines())
        assert (code == EXIT_FLAGGED) == flagged, argv
