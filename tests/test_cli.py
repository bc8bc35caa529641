import dataclasses
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import corralign
from corralign import bounds, cli, oracle
from corralign.bounds import BoundCurvePoint
from corralign.cli import (
    CURVE_HEADER,
    ExperimentConfig,
    UsageError,
    main,
    resolve_config,
)


@pytest.fixture
def read_config(tmp_path):
    """Resolve a JSON config text the way ``--config`` reads a file."""

    def read(text: str) -> ExperimentConfig:
        path = tmp_path / "cfg.json"
        path.write_text(text)
        return resolve_config([json.loads(text)["command"], "--config", str(path)])

    return read


class TestConfigRoundTrip:
    def test_simulate_round_trip(self, read_config):
        cfg = ExperimentConfig(
            command="simulate-detection",
            n=50,
            d=100,
            rho=0.3,
            trials=500,
            seed=9,
            threads=2,
            threshold=12.5,
            format="json",
        )
        assert read_config(cfg.render()) == cfg

    def test_curve_round_trip(self, read_config):
        cfg = ExperimentConfig(
            command="curve",
            n=1000,
            axis="d",
            grid=(100.0, 5000.0, 7),
            risk=0.05,
            kstar=40,
            margin=0.2,
            epsilon_d=0.1,
            format="json",
        )
        assert read_config(cfg.render()) == cfg

    @pytest.mark.parametrize("argv, fmt", [
        (["verify"], "json"),
        (["curve", "--axis", "d", "--grid", "10:90:5", "--n", "100"], "csv"),
    ])
    def test_format_is_resolved(self, argv, fmt):
        assert resolve_config(argv).format == fmt

    def test_logged_config_reproduces_the_run(self, tmp_path, capsys):
        # The config line names the threshold the results used, and a re-run
        # from it prints the same report, timestamp aside.
        argv = ["simulate-detection", "--n", "20", "--d", "50", "--rho", "0.3",
                "--trials", "200"]
        assert main(argv) == 0
        first = capsys.readouterr()
        logged = json.loads(first.err.splitlines()[0].removeprefix("config: "))
        assert logged["format"] == "json"
        assert logged["threshold"] == json.loads(first.out)["results"]["threshold"] == 150.0
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(logged))
        assert main(["simulate-detection", "--config", str(path)]) == 0
        second = capsys.readouterr()
        assert second.err.splitlines()[0] == first.err.splitlines()[0]
        stamp = re.compile(r'"timestamp": "[^"]*"')
        assert stamp.sub("", second.out) == stamp.sub("", first.out)

    def test_unknown_field_rejected(self, read_config):
        with pytest.raises(UsageError, match="bogus"):
            read_config(json.dumps({"command": "verify", "bogus": 1}))

    def test_unknown_command_rejected(self, read_config):
        with pytest.raises(UsageError, match="invalid choice: 'flyswatter'"):
            read_config(json.dumps({"command": "flyswatter"}))

    def test_missing_required_named(self, read_config):
        with pytest.raises(UsageError, match="'rho'"):
            read_config(
                json.dumps({"command": "simulate-detection", "n": 3, "d": 3})
            )

    def test_grid_string_form(self, read_config):
        cfg = read_config(
            json.dumps({"command": "curve", "axis": "d", "grid": "10:90:5", "n": 100})
        )
        assert cfg.grid == (10.0, 90.0, 5)

    def test_grid_malformed(self, read_config):
        with pytest.raises(UsageError, match="grid"):
            read_config(
                json.dumps({"command": "curve", "axis": "d", "grid": "10:90", "n": 5})
            )
        for grid in ([10, 90, 2.5], [True, 90, 5]):
            with pytest.raises(UsageError, match="grid"):
                read_config(
                    json.dumps({"command": "curve", "axis": "d", "grid": grid, "n": 5})
                )

    def test_validation_messages_name_field(self, read_config):
        with pytest.raises(UsageError, match="'trials': must be a positive integer"):
            read_config(
                json.dumps(
                    {"command": "simulate-recovery", "n": 3, "d": 3, "rho": 0.5, "trials": 0}
                )
            )
        with pytest.raises(UsageError, match=r"'risk': must lie in \(0, 1\)"):
            read_config(
                json.dumps({"command": "curve", "axis": "d", "grid": "10:90:5", "n": 100,
                            "risk": 2.0})
            )


class TestCurveGridFloor:
    # Fewer than one user or one feature is no grid point; reject it before
    # any bound is evaluated.
    @pytest.mark.parametrize(
        "args",
        [
            ["--axis", "n", "--grid", "0.5:10:3", "--d", "100"],
            ["--axis", "d", "--grid", "0.5:10:3", "--n", "100"],
            ["--axis", "d", "--grid", "10:0.9:3", "--n", "100"],
        ],
    )
    def test_endpoint_below_one_is_usage_error(self, monkeypatch, capsys, args):
        def spy(*a, **k):
            raise AssertionError("curve_points called")

        monkeypatch.setattr(bounds, "curve_points", spy)
        assert main(["curve", *args]) == 1
        captured = capsys.readouterr()
        assert "usage error: invalid field 'grid'" in captured.err
        assert captured.out == ""

    def test_endpoint_at_one_is_accepted(self, read_config):
        cfg = read_config(
            json.dumps({"command": "curve", "axis": "n", "grid": "1:10:3", "d": 100})
        )
        assert cfg.grid == (1.0, 10.0, 3)


class TestCurveKstar:
    # A k_star above every n on the grid would send every det-conv point to
    # the unconditional fallback without a word; reject it up front.
    @pytest.mark.parametrize(
        "args",
        [
            ["--axis", "d", "--grid", "1000:5000:2", "--n", "10000", "--kstar", "20000"],
            ["--axis", "n", "--grid", "10:100:3", "--d", "1000", "--kstar", "101"],
            ["--axis", "n", "--grid", "100:10:3", "--d", "1000", "--kstar", "101"],
        ],
    )
    def test_unusable_kstar_is_usage_error(self, monkeypatch, capsys, args):
        def spy(*a, **k):
            raise AssertionError("curve_points called")

        monkeypatch.setattr(bounds, "curve_points", spy)
        assert main(["curve", *args]) == 1
        captured = capsys.readouterr()
        assert "usage error: invalid field 'kstar'" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "fields",
        [
            {"axis": "d", "grid": "1000:5000:2", "n": 10000, "kstar": 10000},
            {"axis": "n", "grid": "10:100:3", "d": 1000, "kstar": 100},
            {"axis": "n", "grid": "100:10:3", "d": 1000, "kstar": 50},
        ],
    )
    def test_kstar_usable_somewhere_is_accepted(self, fields, read_config):
        assert read_config(json.dumps({"command": "curve", **fields})).kstar == fields["kstar"]


class TestResolveConfig:
    def test_flags_win_over_config_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(
            json.dumps(
                {"command": "verify", "seed": 1, "threads": 2, "format": "csv"}
            )
        )
        cfg = resolve_config(["verify", "--config", str(path), "--seed", "42"])
        assert cfg.seed == 42  # flag wins
        assert cfg.threads == 2  # file value survives
        assert cfg.format == "csv"

    def test_config_command_mismatch(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"command": "curve"}))
        with pytest.raises(UsageError, match="conflicts"):
            resolve_config(["verify", "--config", str(path)])

    def test_missing_config_file_is_io_error(self):
        from corralign.cli import OutputError

        with pytest.raises(OutputError):
            resolve_config(["verify", "--config", "/nonexistent/c.json"])

    def test_usage_error_for_bad_flag_value(self):
        with pytest.raises(UsageError):
            resolve_config(["curve", "--axis", "q"])

    def test_no_command_is_usage_error(self):
        with pytest.raises(UsageError):
            resolve_config([])


class TestMainExitCodes:
    def test_usage_error_is_1(self, capsys):
        assert main(["curve", "--axis", "q"]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_missing_params_is_1(self, capsys):
        assert main(["simulate-detection", "--n", "3"]) == 1
        err = capsys.readouterr().err
        assert "'d'" in err or "'rho'" in err

    def test_io_error_is_3(self, tmp_path, capsys):
        out = tmp_path / "no" / "such" / "dir" / "x.csv"
        code = main(
            [
                "curve",
                "--axis",
                "d",
                "--grid",
                "500:1000:2",
                "--n",
                "100",
                "--out",
                str(out),
            ]
        )
        assert code == 3
        assert "cannot write" in capsys.readouterr().err

    # Each request exceeds the address space, so it fails without touching
    # memory; at two threads the worker's error is re-raised in the parent.
    @pytest.mark.parametrize(
        "args, size",
        [
            (["simulate-recovery", "--n", str(10**18), "--d", "10", "--trials", "2"], "6.94 EiB"),
            (["simulate-recovery", "--n", str(10**18), "--d", "10", "--trials", "128",
              "--threads", "2"], "6.94 EiB"),
        ],
    )
    def test_unallocatable_input_is_1(self, capsys, args, size):
        assert main([*args, "--rho", "0.5"]) == 1
        err = capsys.readouterr().err
        assert f"usage error: Unable to allocate {size}" in err
        assert "Traceback" not in err

    def test_simulate_detection_allocates_nothing_per_feature(self, capsys):
        # A detection trial draws two chi-square_d values, so d = 10^15
        # (14.2 PiB as two d-vectors) runs like any other d.
        argv = ["simulate-detection", "--n", "10", "--d", str(10**15), "--rho", "0.5",
                "--trials", "2", "--format", "csv"]
        assert main(argv) == 0
        header, row = capsys.readouterr().out.splitlines()[-2:]
        results = dict(zip(header.split(","), row.split(",")))
        for key in ("fa_rate", "md_rate"):
            assert 0.0 <= float(results[key]) <= 1.0

    def test_simulate_detection_json(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        code = main(
            [
                "simulate-detection",
                "--n", "5", "--d", "10", "--rho", "0.5",
                "--trials", "50", "--seed", "3", "--out", str(out),
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["schema"] == 1
        assert payload["config"]["trials"] == 50
        assert 0.0 <= payload["results"]["risk"] <= 2.0
        assert "timestamp" in payload

    def test_simulate_recovery_runs(self, tmp_path):
        out = tmp_path / "r.json"
        code = main(
            [
                "simulate-recovery",
                "--n", "5", "--d", "30", "--rho", "0.8",
                "--trials", "40", "--seed", "4", "--out", str(out),
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["results"]["error_bound"] > 0.0


class TestZeroRho:
    # rho = 0 has no correlated law; it must fail in validation, before any
    # trial is drawn.
    @pytest.mark.parametrize(
        "command, sampler, extra",
        [
            ("simulate-detection", "monte_carlo_risk", ["--threshold", "5"]),
            ("simulate-recovery", "recovery_error_mc", []),
            # Detection also needs rho^2 > 0, which this rho underflows (the
            # last --rho flag wins).
            ("simulate-detection", "monte_carlo_risk", ["--rho", "1e-170"]),
        ],
    )
    def test_rejected_before_sampling(self, monkeypatch, capsys, command, sampler, extra):
        def spy(*args, **kwargs):
            raise AssertionError(f"{sampler} called")

        monkeypatch.setattr(cli, sampler, spy)
        args = [command, "--n", "20", "--d", "50", "--rho", "0", "--trials", "5", *extra]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert "usage error: invalid field 'rho'" in err
        assert "Traceback" not in err


class TestConfigTypes:
    @pytest.mark.parametrize(
        "command, field, value",
        [
            ("simulate-detection", "trials", "5"),
            ("simulate-detection", "rho", "0.3"),
            ("simulate-detection", "threads", 2.5),
            ("simulate-detection", "seed", 1.5),
            ("simulate-recovery", "d", 10.9),
            ("simulate-recovery", "n", True),
            ("curve", "margin", float("nan")),
            ("curve", "out", 5),
        ],
    )
    def test_wrong_type_is_usage_error(self, tmp_path, capsys, command, field, value):
        config = {"n": 20, "d": 50, "rho": 0.3, "trials": 5}
        if command == "curve":
            config = {"axis": "d", "grid": "100:200:2", "n": 100}
        config[field] = value
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        assert main([command, "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert f"usage error: invalid field '{field}'" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "command, field, args",
        [
            ("curve", "n", ["--axis", "d", "--grid", "100:200:2", "--n", "1" + "0" * 400]),
            ("simulate-detection", "d", ["--n", "10", "--d", "1" + "0" * 400, "--rho", "0.5"]),
        ],
    )
    def test_integer_beyond_float_range_is_usage_error(
        self, monkeypatch, capsys, command, field, args
    ):
        def spy(*a, **k):
            raise AssertionError("evaluation started")

        for module, name in [(bounds, "curve_points"), (cli, "nominal_threshold"),
                             (cli, "monte_carlo_risk")]:
            monkeypatch.setattr(module, name, spy)
        assert main([command, *args]) == 1
        err = capsys.readouterr().err
        assert f"usage error: invalid field '{field}'" in err
        assert "Traceback" not in err

    def test_curve_takes_real_d(self, read_config):
        cfg = read_config(
            json.dumps({"command": "curve", "axis": "n", "grid": "10:90:5", "d": 10.9})
        )
        assert cfg.d == 10.9


_VALID = {
    "simulate-detection": {"n": 20, "d": 50, "rho": 0.3, "trials": 5},
    "simulate-recovery": {"n": 20, "d": 50, "rho": 0.3, "trials": 5},
    "curve": {"axis": "d", "grid": "100:200:2", "n": 100},
    "verify": {},
}

# One value outside each field rule's domain (for ``out``, its type: every
# flag value is a string, so ``out`` has no rejected flag value).
_RULE_CASES = [
    ("simulate-recovery", "n", 0),
    ("simulate-detection", "d", 0),
    ("curve", "d", 0.5),
    ("simulate-detection", "rho", 1.0),
    ("simulate-recovery", "trials", 0),
    ("verify", "seed", 2**64),
    ("verify", "out", 5),
    ("curve", "format", "xml"),
    ("verify", "threads", 0),
    ("simulate-detection", "threshold", float("nan")),
    ("curve", "axis", "q"),
    ("curve", "risk", 1.0),
    ("curve", "kstar", 0),
    ("curve", "margin", 0.0),
    ("curve", "epsilon_d", -0.5),
]


class TestFieldRules:
    def test_one_rule_per_config_field(self):
        names = {f.name for f in dataclasses.fields(ExperimentConfig)}
        assert set(cli._FIELDS) == names - {"command", "grid"}
        assert {field for _, field, _ in _RULE_CASES} == set(cli._FIELDS)

    @pytest.mark.parametrize(
        "source, command, field, value",
        [("config", *case) for case in _RULE_CASES]
        + [("flag", *case) for case in _RULE_CASES if case[1] != "out"],
    )
    def test_rejected_value_is_usage_error(
        self, tmp_path, monkeypatch, capsys, source, command, field, value
    ):
        def spy(config):
            raise AssertionError(f"{command} ran")

        monkeypatch.setitem(cli._COMMANDS, command, cli._COMMANDS[command]._replace(run=spy))
        config = {**_VALID[command], field: value}
        if source == "flag":
            argv = [command]
            for key, item in config.items():
                argv += ["--" + key.replace("_", "-"), str(item)]
        else:
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(config))
            argv = [command, "--config", str(path)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert f"usage error: invalid field '{field}'" in err
        assert "Traceback" not in err


# The fields each command reads: its flags, its config keys and the config
# attributes its runner touches (33 pairs of the 4 x 15 command-field pairs).
_READS = {
    "simulate-detection": {"seed", "trials", "out", "format", "threads", "n", "d", "rho",
                           "threshold"},
    "simulate-recovery": {"seed", "trials", "out", "format", "threads", "n", "d", "rho",
                          "epsilon_d"},
    "curve": {"out", "format", "threads", "n", "d", "axis", "grid", "risk", "kstar",
              "margin", "epsilon_d"},
    "verify": {"seed", "out", "format", "threads"},
}

# A valid value, other than the default, for every field of every command.
_SAMPLE = {
    "n": 40, "d": 60, "rho": -0.5, "trials": 7, "seed": 2**63, "out": "report.txt",
    "format": "json", "threads": 2, "threshold": 1.5, "axis": "n", "grid": (10.0, 90.0, 5),
    "risk": 0.05, "kstar": 3, "margin": 0.2, "epsilon_d": 0.1,
}

_OUTSIDE = [(command, field) for command in _READS for field in _SAMPLE
            if field not in _READS[command]]


def _flags(values: dict) -> list:
    argv = []
    for key, value in values.items():
        text = ":".join(map(str, value)) if key == "grid" else str(value)
        argv += ["--" + key.replace("_", "-"), text]
    return argv


def _stub_library(monkeypatch):
    """Stand-ins for every library call the four runners make."""
    estimate = SimpleNamespace(fa_rate=0.1, md_rate=0.2, risk=lambda: 0.3, ci_radius=0.01,
                               value=0.4, trials=7)
    monkeypatch.setattr(cli, "monte_carlo_risk", lambda *a, **k: estimate)
    monkeypatch.setattr(cli, "optimal_gamma", lambda params: (0.5, 0.2))
    monkeypatch.setattr(cli, "recovery_error_mc", lambda *a, **k: estimate)
    monkeypatch.setattr(bounds, "recovery_ach_perr", lambda *a, **k: 0.5)
    monkeypatch.setattr(bounds, "recovery_conv_perr", lambda *a, **k: 0.1)
    point = BoundCurvePoint(10.0, 0.1, 0.05, 0.2, 0.1)
    monkeypatch.setattr(bounds, "curve_points", lambda *a, **k: ([point], []))
    check = oracle.CheckResult("exponent-floor-fa", True, 0.0, 0.0)
    monkeypatch.setattr(oracle, "verify", lambda **k: oracle.VerifyReport((check,)))


class TestCommandRows:
    def test_rows_are_the_table(self):
        assert {c: set(row.fields) for c, row in cli._COMMANDS.items()} == _READS
        assert sum(len(fields) for fields in _READS.values()) == 33
        assert set(_SAMPLE) == set(cli._FIELDS) | {"grid"}

    @pytest.mark.parametrize("command", list(_READS))
    def test_runner_reads_its_row(self, monkeypatch, tmp_path, command):
        _stub_library(monkeypatch)
        # The report's config echo reads the row by construction; skip it.
        monkeypatch.setattr(ExperimentConfig, "to_dict", lambda self: {})
        reads = set()

        class Recording(ExperimentConfig):
            def __getattribute__(self, name):
                reads.add(name)
                return object.__getattribute__(self, name)

        values = {key: _SAMPLE[key] for key in _READS[command]}
        config = Recording(command=command, **{**values, "out": str(tmp_path / "r")})
        reads.clear()
        assert cli._COMMANDS[command].run(config) == 0
        assert reads & set(_SAMPLE) == _READS[command]

    @pytest.mark.parametrize("command", list(_READS))
    def test_help_lists_its_row(self, capsys, command):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        flags = set(re.findall(r"--([a-z-]+)", capsys.readouterr().out))
        assert flags - {"help", "config"} == {f.replace("_", "-") for f in _READS[command]}

    @pytest.mark.parametrize("command", list(_READS))
    def test_row_round_trips(self, read_config, command):
        values = {key: _SAMPLE[key] for key in _READS[command]}
        cfg = ExperimentConfig(command=command, **values)
        assert list(json.loads(cfg.render())) == ["command"] + [
            f.name for f in dataclasses.fields(ExperimentConfig) if f.name in values
        ]
        assert read_config(cfg.render()) == cfg
        assert resolve_config([command, *_flags(values)]) == cfg

    def test_flags_are_whole_field_names(self, capsys):
        # verify's only flag starting --t is --threads; a prefix still names no field.
        assert main(["verify", "--t", "2"]) == 1
        assert "usage error: unrecognized arguments: --t 2" in capsys.readouterr().err

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("command, field", _OUTSIDE)
    def test_field_outside_row_is_usage_error(
        self, tmp_path, monkeypatch, capsys, source, command, field
    ):
        def spy(config):
            raise AssertionError(f"{command} ran")

        monkeypatch.setitem(cli._COMMANDS, command, cli._COMMANDS[command]._replace(run=spy))
        config = {**_VALID[command], field: _SAMPLE[field]}
        if source == "flag":
            argv = [command, *_flags(config)]
            message = "usage error: unrecognized arguments: --" + field.replace("_", "-")
        else:
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(config))
            argv = [command, "--config", str(path)]
            message = f"usage error: invalid field '{field}': {command} does not read it"
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err


class TestCurveOutput:
    def test_ordering_violation_is_2(self, monkeypatch, capsys):
        bad = BoundCurvePoint(100.0, 0.1, 0.2, None, None)
        monkeypatch.setattr(bounds, "curve_points", lambda *a, **k: ([bad], []))
        assert main(["curve", "--axis", "d", "--grid", "100:100:1", "--n", "10"]) == 2
        err = capsys.readouterr().err
        assert "error: detection converse exceeds achievable at axis=100.0" in err

    def test_each_ordering_violation_is_reported_once(self, monkeypatch, capsys):
        # The converse lies above the achievable rho^2 at d = 100 and 150 only.
        def invert(kind, n, d, target_risk, **kwargs):
            if kind == "det-ach":
                return [0.1] * len(d)
            return [0.2 if x <= 150.0 else 0.05 for x in d]

        monkeypatch.setattr(bounds, "invert_for_rho2", invert)
        assert main(["curve", "--axis", "d", "--grid", "100:200:3", "--n", "10"]) == 2
        err = capsys.readouterr().err
        assert err.count("exceeds achievable") == 2
        assert err.count("error: detection converse exceeds achievable at axis=100.0\n") == 1
        assert err.count("error: detection converse exceeds achievable at axis=150.0\n") == 1
        assert "warning:" not in err

    def test_csv_golden_header(self, tmp_path):
        out = tmp_path / "curve.csv"
        code = main(
            [
                "curve",
                "--axis", "d", "--grid", "500:2000:3", "--n", "1000",
                "--out", str(out),
            ]
        )
        assert code == 0
        text = out.read_text(encoding="utf-8")
        lines = text.split("\n")
        assert lines[0] == CURVE_HEADER
        assert len(lines) == 5  # header + 3 rows + trailing newline
        assert text.endswith("\n") and "\r" not in text

    def test_csv_seventeen_digit_round_trip(self, tmp_path):
        out = tmp_path / "curve.csv"
        main(["curve", "--axis", "d", "--grid", "1000:1000:1", "--n", "1000",
              "--out", str(out)])
        row = out.read_text().splitlines()[1].split(",")
        from corralign.bounds import invert_for_rho2

        expect = invert_for_rho2("det-ach", 1000, 1000, 0.1)
        assert float(row[1]) == expect  # no precision lost in the file

    def test_json_format(self, tmp_path):
        out = tmp_path / "curve.json"
        code = main(
            [
                "curve", "--axis", "n", "--grid", "200:400:2", "--d", "500",
                "--format", "json", "--out", str(out),
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["schema"] == 1
        assert len(payload["rows"]) == 2
        assert set(payload["rows"][0]) == {
            "axis", "rho2_det_ach", "rho2_det_conv", "rho2_rec_ach", "rho2_rec_conv",
        }

    def test_stdout_when_no_out(self, capsys):
        code = main(["curve", "--axis", "d", "--grid", "800:900:2", "--n", "500"])
        assert code == 0
        captured = capsys.readouterr()
        assert captured.out.startswith(CURVE_HEADER)
        assert "config:" in captured.err  # diagnostics stay on stderr

    def test_deterministic_bytes(self, tmp_path):
        args = ["curve", "--axis", "d", "--grid", "500:1500:3", "--n", "2000"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(a), "--threads", "1"]) == 0
        assert main(args + ["--out", str(b), "--threads", "2"]) == 0
        assert a.read_bytes() == b.read_bytes()


    def test_huge_d_prints_no_numpy_warning(self):
        src = str(Path(corralign.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "corralign.cli", "curve", "--axis", "d",
             "--grid", "1e15:1e15:1", "--n", "1000000"],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 0, proc.stderr
        assert "RuntimeWarning" not in proc.stderr


def test_python_m_corralign_matches_main(capsys):
    # The package runs as a module, so the README's commands work from a
    # checkout without the installed script.
    src = str(Path(corralign.__file__).resolve().parents[1])
    args = ["verify", "--seed", "0", "--format", "json"]
    proc = subprocess.run(
        [sys.executable, "-m", "corralign", *args],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src},
    )
    code = main(args)
    assert proc.returncode == code == 0, proc.stderr
    assert proc.stdout == capsys.readouterr().out


class TestSimulateDeterminism:
    def test_csv_report_byte_identical(self, tmp_path):
        args = [
            "simulate-detection", "--n", "4", "--d", "8", "--rho", "0.4",
            "--trials", "60", "--seed", "11", "--format", "csv",
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(a), "--threads", "1"]) == 0
        assert main(args + ["--out", str(b), "--threads", "3"]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_json_report_identical_minus_timestamp(self, tmp_path):
        args = [
            "simulate-detection", "--n", "4", "--d", "8", "--rho", "0.4",
            "--trials", "60", "--seed", "11",
        ]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b), "--threads", "2"]) == 0
        pa, pb = json.loads(a.read_text()), json.loads(b.read_text())
        ta, tb = pa.pop("timestamp"), pb.pop("timestamp")
        for payload in (pa, pb):
            payload["config"].pop("threads")
            payload["config"].pop("out")
        assert pa == pb
        assert ta and tb


class TestSimulateRecoveryGolden:
    # The first run's trials mostly take the solver's row-argmax path, the
    # second's (near the recovery threshold) the JV path and its tie-break;
    # together they pin both paths' results.
    @pytest.mark.parametrize(
        "args, digest",
        [
            (
                ["--n", "30", "--d", "100", "--rho", "0.7", "--trials", "200", "--seed", "5"],
                "8989b4cd5acafe6c731a16630ae7c2628ccbeac48360031fa6b3ae07b5e5c6d7",
            ),
            (
                ["--n", "200", "--d", "300", "--rho", "0.23", "--trials", "40", "--seed", "3"],
                "b30cec1f6318d970d1424c0d1ef24b9b1fd37174661b531555a2d4d64d72a971",
            ),
        ],
        ids=["argmax-path", "jv-path"],
    )
    def test_csv_stdout_digest(self, args, digest, capsys):
        assert main(["simulate-recovery", *args, "--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestSimulateDetectionGolden:
    # Both arms' draws and a negative rho's statistic orientation, pinned at
    # one and at several workers.
    @pytest.mark.parametrize(
        "args, digest",
        [
            (
                ["--rho", "0.3", "--trials", "500", "--seed", "5", "--threads", "1"],
                "ab54644df6f325b69d0b419cbd7648626d4e1f07a524121eef39f8e621ceb475",
            ),
            (
                ["--rho", "0.3", "--trials", "500", "--seed", "5", "--threads", "3"],
                "ab54644df6f325b69d0b419cbd7648626d4e1f07a524121eef39f8e621ceb475",
            ),
            (
                ["--rho", "-0.3", "--trials", "300", "--seed", "9"],
                "95b457c2de4c02875ed4cf14ea030197e0c2d4d5a43908a86d9fa932dc001dd3",
            ),
        ],
        ids=["threads-1", "threads-3", "negative-rho"],
    )
    def test_csv_stdout_digest(self, args, digest, capsys):
        argv = ["simulate-detection", "--n", "20", "--d", "50", *args, "--format", "csv"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("d, vacuous", [("50", True), ("2000", False)])
    def test_vacuous_bound_warns_on_stderr(self, d, vacuous, capsys):
        # At the golden settings (d = 50) risk_bound is about 1.09; the
        # warning goes to stderr, so the pinned stdout cannot move.
        argv = ["simulate-detection", "--n", "20", "--d", d, "--rho", "0.3",
                "--trials", "50", "--seed", "5", "--format", "csv"]
        assert main(argv) == 0
        err = capsys.readouterr().err
        warnings = [line for line in err.splitlines() if line.startswith("warning:")]
        assert len(warnings) == int(vacuous)
        assert all("risk_bound" in w and "vacuous" in w for w in warnings)


_CURVE_GOLDEN_ARGS = [
    "curve", "--axis", "d", "--grid", "18.420680743952367:10000:4", "--n", "10000",
]


class TestReportGolden:
    # verify pins the check rows of both formats; the curve grid starts at
    # d = ln(1e8), where det-ach is undefined, so it pins an empty cell, a
    # JSON null and the warning beside the four bound columns.
    @pytest.mark.parametrize(
        "args, digest",
        [
            (
                ["verify", "--seed", "0", "--format", "csv"],
                "0b3215630881397e83f5967220a0e23e9a8abee1416e88529caad08ae0d8c36c",
            ),
            (
                ["verify", "--seed", "0", "--format", "json"],
                "d2403685a800c1e0654ff4944289f6f6c6c7ede93b7175ee41fc571ffd98eb48",
            ),
            (
                [*_CURVE_GOLDEN_ARGS, "--format", "csv"],
                "f4de10fdb324064fb47d5f715e2c7967222dc28aa7e7d085a86805a594ec5dd4",
            ),
            (
                [*_CURVE_GOLDEN_ARGS, "--format", "json"],
                "cc7b4c26dae24d8a796a52b75b1d979dedfe61a3a401a1eada070a185dd60190",
            ),
        ],
        ids=["verify-csv", "verify-json", "curve-csv", "curve-json"],
    )
    def test_stdout_digest(self, args, digest, capsys):
        assert main(args) == 0
        captured = capsys.readouterr()
        assert hashlib.sha256(captured.out.encode()).hexdigest() == digest
        if args[0] == "curve":
            assert captured.err.count("warning: axis=18.420680743952367 det-ach:") == 1

    # The benchmark's own curves: the reference d-grid at both thread counts
    # (blocks fan out over the pool) and an n-sweep (one det-ach lane).
    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize(
        "args, digest",
        [
            (
                ["--axis", "d", "--grid", "18.420680743952367:10000:50", "--n", "10000",
                 "--risk", "0.1"],
                "c6bb276ff55b54768a131fb37a65f4d9b88e2c7ba03b2852f25c06146ad21892",
            ),
            (
                ["--axis", "n", "--grid", "10:100000:20", "--d", "1000"],
                "2976911856f6fc9e059370a8f466237962aa426ea72d143f1131a3f6a8b30e8a",
            ),
        ],
        ids=["d-sweep", "n-sweep"],
    )
    def test_benchmark_curve_digest(self, args, digest, threads, capsys):
        assert main(["curve", *args, "--format", "csv", "--threads", threads]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_verify_failure_exits_2(monkeypatch, capsys):
    checks = ("exponent-floor-fa", "sqrt-cube-envelope")
    monkeypatch.setattr(oracle, "VERIFY_CHECKS", checks)
    monkeypatch.setitem(
        oracle._REGISTRY,
        "sqrt-cube-envelope",
        lambda spec: oracle.CheckResult("sqrt-cube-envelope", False, 1.0, 0.0),
    )
    assert main(["verify", "--format", "csv"]) == 2
    captured = capsys.readouterr()
    assert "verification failed: sqrt-cube-envelope" in captured.err
    header, *rows = captured.out.splitlines()
    assert header == "name,passed,statistic,reference"
    assert [row.split(",")[:2] for row in rows] == [
        ["exponent-floor-fa", "1"],
        ["sqrt-cube-envelope", "0"],
    ]


def test_bound_columns_and_report_envelope_declared_once():
    """The bound column names live in bounds.py; one writer builds the envelope."""
    sources = {p.name: p.read_text() for p in Path(corralign.__file__).parent.glob("*.py")}
    for column in ("rho2_det_ach", "rho2_det_conv", "rho2_rec_ach", "rho2_rec_conv"):
        assert [name for name, text in sources.items() if column in text] == ["bounds.py"]
    assert sources["cli.py"].count('"schema": 1') == 1
