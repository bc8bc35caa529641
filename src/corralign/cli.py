"""Command-line front end: simulations, bound curves, and verification.

Four subcommands share a config model: ``simulate-detection``,
``simulate-recovery``, ``curve``, and ``verify``.  Options may come from a
JSON config file (``--config``) with command-line flags taking precedence;
every run emits its fully resolved configuration on the diagnostic stream so
experiments can be reproduced from their logs alone.

Exit codes: 0 success, 1 usage error, 2 verification/assertion failure,
3 I/O error.  Data goes to ``--out`` (or stdout); diagnostics go to stderr
so CSV output stays pipe-clean.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

from . import bounds, oracle
from .align import recovery_error_mc
from .core import ProblemParams, SeedSpec
from .detect import monte_carlo_risk, nominal_threshold, optimal_gamma
from .errors import CorralignError

CURVE_HEADER = ",".join(f.name for f in dataclasses.fields(bounds.BoundCurvePoint))
_VERIFY_COLUMNS = ("name", "passed", "statistic", "reference")

COMMANDS = ("simulate-detection", "simulate-recovery", "curve", "verify")


class UsageError(Exception):
    """Bad flags or config fields; maps to exit code 1."""


class OutputError(Exception):
    """Failed read/write of a user-supplied path; maps to exit code 3."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved options for one CLI run.

    ``parse(render(config))`` reproduces the config exactly; unknown fields
    are rejected by name so config files cannot silently drift.
    """

    command: str
    n: int | None = None
    d: float | None = None
    rho: float | None = None
    trials: int = 1000
    seed: int = 0
    out: str | None = None
    format: str | None = None
    threads: int = 1
    threshold: float | None = None
    axis: str | None = None
    grid: tuple[float, float, int] | None = None
    risk: float = 0.1
    kstar: int | None = None
    margin: float = 0.1
    epsilon_d: float = 0.0

    def render(self) -> str:
        """Canonical JSON form (stable key order = field order)."""
        out: dict[str, object] = {}
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            out[field.name] = list(value) if isinstance(value, tuple) else value
        return json.dumps(out)

    def resolved_format(self) -> str:
        if self.format is not None:
            return self.format
        return "csv" if self.command == "curve" else "json"


_FIELD_NAMES = tuple(f.name for f in dataclasses.fields(ExperimentConfig))

_INT_FIELDS = ("n", "trials", "seed", "threads", "kstar")
_REAL_FIELDS = ("d", "rho", "threshold", "risk", "margin", "epsilon_d")


def _has_field_type(key: str, value, command: str) -> bool:
    """Whether a config value has its field's type; booleans are not numbers.

    ``d`` is a real only for ``curve``; the simulations need whole dimensions.
    Numbers, whole or real, must be finite and fit a float.
    """
    if key in _INT_FIELDS or (key == "d" and command != "curve"):
        kinds: type | tuple = int
    elif key in _REAL_FIELDS:
        kinds = (int, float)
    else:
        return isinstance(value, str)
    return (
        isinstance(value, kinds)
        and not isinstance(value, bool)
        and abs(value) <= sys.float_info.max  # finite, and fits a float
    )


def _json_object(text: str, source: str) -> dict:
    """Parse ``text`` as a JSON object; ``source`` names it in errors."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"{source} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise UsageError(f"{source} must be a JSON object")
    return data


def parse_config(text: str) -> ExperimentConfig:
    """Inverse of ``ExperimentConfig.render``."""
    data = _json_object(text, "config")
    command = data.get("command")
    if command is None:
        raise UsageError("config missing required field 'command'")
    rest = {k: v for k, v in data.items() if k != "command"}
    return _build_config(str(command), rest)


def _parse_grid(value) -> tuple[float, float, int]:
    if isinstance(value, str):
        parts = value.split(":")
        if len(parts) != 3:
            raise UsageError("field 'grid' must have the form start:stop:count")
        value = parts
    if not isinstance(value, (list, tuple)) or len(value) != 3:
        raise UsageError("field 'grid' must have the form start:stop:count")
    if any(isinstance(v, bool) for v in value) or isinstance(value[2], float):
        raise UsageError("field 'grid' must contain two reals and a whole count")
    try:
        start, stop, count = float(value[0]), float(value[1]), int(value[2])
    except (TypeError, ValueError):
        raise UsageError("field 'grid' must contain two reals and a count") from None
    if count < 1:
        raise UsageError("field 'grid' needs a positive point count")
    if not (math.isfinite(start) and math.isfinite(stop)) or start <= 0 or stop <= 0:
        raise UsageError("field 'grid' endpoints must be positive and finite")
    return (start, stop, count)


def _build_config(command: str, values: dict) -> ExperimentConfig:
    if command not in COMMANDS:
        raise UsageError(
            f"unknown command {command!r}; expected one of {', '.join(COMMANDS)}"
        )
    for key in values:
        if key not in _FIELD_NAMES or key == "command":
            raise UsageError(f"unknown config field {key!r}")

    def fail(field: str, why: str):
        raise UsageError(f"invalid field {field!r}: {why}")

    kwargs: dict[str, object] = {"command": command}
    for key, value in values.items():
        if value is None:
            continue
        if key == "grid":
            kwargs[key] = _parse_grid(value)
        elif _has_field_type(key, value, command):
            kwargs[key] = value
        else:
            fail(key, f"wrong type {type(value).__name__} ({value!r})")
    config = ExperimentConfig(**kwargs)

    if config.trials < 1:
        fail("trials", "must be a positive integer")
    if not 0 <= int(config.seed) < 2**64:
        fail("seed", "must fit in an unsigned 64-bit integer")
    if config.threads < 1:
        fail("threads", "must be >= 1")
    if config.format is not None and config.format not in ("csv", "json"):
        fail("format", "must be 'csv' or 'json'")
    if config.axis is not None and config.axis not in ("d", "n"):
        fail("axis", "must be 'd' or 'n'")
    if not 0.0 < config.risk < 1.0:
        fail("risk", "must lie in (0, 1)")
    if config.margin <= 0.0:
        fail("margin", "must be > 0")
    if config.epsilon_d < 0.0:
        fail("epsilon_d", "must be >= 0")
    if config.kstar is not None and config.kstar < 1:
        fail("kstar", "must be >= 1")
    if config.n is not None and config.n < 1:
        fail("n", "must be >= 1")
    if config.d is not None and config.d < 1:
        fail("d", "must be >= 1")
    if config.rho is not None and not -1.0 < config.rho < 1.0:
        fail("rho", "must lie in (-1, 1)")

    if command in ("simulate-detection", "simulate-recovery"):
        for field in ("n", "d", "rho"):
            if getattr(config, field) is None:
                fail(field, f"required by {command}")
        if config.rho == 0.0:
            fail("rho", f"must be nonzero for {command}")
        if command == "simulate-detection" and config.rho * config.rho == 0.0:
            fail("rho", "rho^2 underflows to 0; detection needs rho^2 > 0")
    if command == "curve":
        if config.axis is None:
            fail("axis", "required by curve")
        if config.grid is None:
            fail("grid", "required by curve")
        if min(config.grid[:2]) < 1.0:
            fail("grid", f"endpoints must be >= 1 (a grid of {config.axis} values)")
        if config.axis == "d" and config.n is None:
            fail("n", "required when sweeping d")
        if config.axis == "n" and config.d is None:
            fail("d", "required when sweeping n")
        # A k_star above n has no schedule; reject it when no grid point could use it.
        n_max = config.n if config.axis == "d" else max(config.grid[:2])
        if config.kstar is not None and config.kstar > n_max:
            fail("kstar", f"must not exceed the largest n on the grid ({n_max})")
    return config


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: A003 - argparse hook
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="corralign", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    def add_common(p: _Parser) -> None:
        p.add_argument("--config", help="JSON config file; flags override it")
        p.add_argument("--seed", type=int, help="master seed (u64)")
        p.add_argument("--trials", type=int, help="Monte-Carlo trials per arm")
        p.add_argument("--out", help="output path (default: stdout)")
        p.add_argument("--format", choices=("csv", "json"), help="output format")
        p.add_argument("--threads", type=int, help="worker processes")

    def add_params(p: _Parser) -> None:
        p.add_argument("--n", type=int, help="number of rows")
        p.add_argument("--d", type=int, help="feature dimension")
        p.add_argument("--rho", type=float, help="correlation coefficient")

    p_det = sub.add_parser("simulate-detection", help="Monte-Carlo risk of the threshold test")
    add_common(p_det)
    add_params(p_det)
    p_det.add_argument("--threshold", type=float, help="test threshold (default |rho|dn/2)")

    p_rec = sub.add_parser("simulate-recovery", help="Monte-Carlo exact-alignment error")
    add_common(p_rec)
    add_params(p_rec)

    p_curve = sub.add_parser("curve", help="invert all bounds along a grid of d or n")
    add_common(p_curve)
    p_curve.add_argument("--n", type=int, help="fixed n (axis=d sweeps)")
    p_curve.add_argument("--d", type=float, help="fixed d (axis=n sweeps)")
    p_curve.add_argument("--axis", choices=("d", "n"), help="sweep variable")
    p_curve.add_argument("--grid", help="start:stop:count (linear spacing)")
    p_curve.add_argument("--risk", type=float, help="target risk level")
    p_curve.add_argument("--kstar", type=int, help="truncation depth override")
    p_curve.add_argument("--margin", type=float, help="truncation schedule margin")
    p_curve.add_argument("--epsilon-d", dest="epsilon_d", type=float,
                         help="recovery-converse exponent correction")

    p_verify = sub.add_parser("verify", help="run the oracle verification suite")
    add_common(p_verify)
    return parser


def resolve_config(argv) -> ExperimentConfig:
    """Parse flags, merge the optional config file (flags win), validate."""
    parser = _build_parser()
    namespace = parser.parse_args(argv)
    if namespace.command is None:
        raise UsageError("a command is required (see --help)")
    values: dict[str, object] = {}
    if getattr(namespace, "config", None):
        path = namespace.config
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise OutputError(f"cannot read config file '{path}': {exc}") from None
        data = _json_object(text, f"config file '{path}'")
        file_command = data.pop("command", None)
        if file_command is not None and file_command != namespace.command:
            raise UsageError(
                f"config file command {file_command!r} conflicts with "
                f"{namespace.command!r}"
            )
        values.update(data)
    for key, value in vars(namespace).items():
        if key in ("command", "config") or value is None:
            continue
        values[key] = value
    return _build_config(namespace.command, values)


def _cell(value) -> str:
    """One CSV cell: 17-digit floats, 0/1 for booleans, empty for None."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _write_output(out: str | None, text: str) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise OutputError(f"cannot write output file '{out}': {exc}") from None


def _emit_resolved(config: ExperimentConfig) -> None:
    print(f"config: {config.render()}", file=sys.stderr)


def _write_report(
    config: ExperimentConfig, fields: dict, rows: list[dict], columns=None
) -> None:
    """Write one run's report: ``fields`` in the JSON envelope, or a CSV table.

    The CSV has a header of ``columns`` (default: the first row's keys) and
    one line per row.
    """
    if config.resolved_format() == "json":
        payload = {"schema": 1, "command": config.command, **fields}
        text = json.dumps(payload, indent=2) + "\n"
    else:
        columns = list(rows[0]) if columns is None else columns
        lines = [",".join(columns)]
        lines += [",".join(_cell(row[c]) for c in columns) for row in rows]
        text = "\n".join(lines) + "\n"
    _write_output(config.out, text)


def _write_results(config: ExperimentConfig, results: dict) -> None:
    """Write one simulation's results: a JSON report or a one-row CSV."""
    fields = {
        "config": json.loads(config.render()),
        "results": results,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    _write_report(config, fields, [results])


def run_simulate_detection(config: ExperimentConfig) -> int:
    """Estimate both error rates of the threshold test and report bounds."""
    params = ProblemParams(n=int(config.n), d=int(config.d), rho=float(config.rho))
    threshold = (
        float(config.threshold)
        if config.threshold is not None
        else nominal_threshold(params)
    )
    seed = SeedSpec(master_seed=config.seed, stream_label="cli/simulate-detection")
    estimate = monte_carlo_risk(
        params, threshold, config.trials, seed, workers=config.threads
    )
    gamma_star, bound = optimal_gamma(params)
    simple_bound = 2.0 * math.exp(-params.d * params.rho2 / 60.0)
    results = {
        "threshold": threshold,
        "fa_rate": estimate.fa_rate,
        "md_rate": estimate.md_rate,
        "risk": estimate.risk(),
        "ci_radius": estimate.ci_radius,
        "trials": estimate.trials,
        "gamma_star": gamma_star,
        "risk_bound": bound,
        "risk_bound_simple": simple_bound,
    }
    _write_results(config, results)
    return 0


def run_simulate_recovery(config: ExperimentConfig) -> int:
    """Estimate the exact-alignment error of ML decoding and report bounds."""
    params = ProblemParams(n=int(config.n), d=int(config.d), rho=float(config.rho))
    seed = SeedSpec(master_seed=config.seed, stream_label="cli/simulate-recovery")
    estimate = recovery_error_mc(params, config.trials, seed, workers=config.threads)
    results = {
        "error_rate": estimate.value,
        "ci_radius": estimate.ci_radius,
        "trials": estimate.trials,
        "error_bound": bounds.recovery_ach_perr(params.n, params.d, params.rho2),
        "error_floor": bounds.recovery_conv_perr(
            params.n, params.d, params.rho2, epsilon_d=config.epsilon_d
        ),
    }
    _write_results(config, results)
    return 0


def run_curve(config: ExperimentConfig) -> int:
    """Invert all four bound families along the grid and write the curve."""
    start, stop, count = config.grid
    values = np.linspace(start, stop, count)
    points, notes = bounds.curve_points(
        config.axis,
        values,
        n=None if config.n is None else float(config.n),
        d=None if config.d is None else float(config.d),
        target_risk=config.risk,
        k_star=config.kstar,
        margin=config.margin,
        epsilon_d=config.epsilon_d,
        workers=config.threads,
    )
    for note in notes:
        print(f"warning: {note}", file=sys.stderr)
    rows = [dataclasses.asdict(p) for p in points]
    _write_report(config, {"config": json.loads(config.render()), "rows": rows}, rows)
    for p in points:
        if p.converse_exceeds_achievable:
            print(
                f"error: detection converse exceeds achievable at axis={p.axis!r}",
                file=sys.stderr,
            )
            return 2
    return 0


def run_verify(config: ExperimentConfig) -> int:
    """Run the oracle suite; exit 0 only if every check passes."""
    report = oracle.verify(seed=config.seed, workers=config.threads)
    rows = [dataclasses.asdict(c) for c in report.checks]
    fields = {"seed": config.seed, "passed": report.passed, "checks": rows}
    _write_report(config, fields, rows, _VERIFY_COLUMNS)
    if not report.passed:
        names = ", ".join(c.name for c in report.failures)
        print(f"verification failed: {names}", file=sys.stderr)
        return 2
    return 0


_RUNNERS = {
    "simulate-detection": run_simulate_detection,
    "simulate-recovery": run_simulate_recovery,
    "curve": run_curve,
    "verify": run_verify,
}


def main(argv=None) -> int:
    try:
        config = resolve_config(argv)
        _emit_resolved(config)
        return _RUNNERS[config.command](config)
    except OutputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (UsageError, CorralignError, MemoryError) as exc:
        # A MemoryError is an input too large to allocate; numpy names the size.
        print(f"usage error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
