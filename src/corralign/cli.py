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
from typing import Callable, NamedTuple

import numpy as np

from . import bounds, oracle
from .align import recovery_error_mc
from .core import ProblemParams, SeedSpec
from .detect import monte_carlo_risk, nominal_threshold, optimal_gamma
from .errors import CorralignError

CURVE_HEADER = ",".join(f.name for f in dataclasses.fields(bounds.BoundCurvePoint))
_VERIFY_COLUMNS = ("name", "passed", "statistic", "reference")


class UsageError(Exception):
    """Bad flags or config fields; maps to exit code 1."""


class OutputError(Exception):
    """Failed read/write of a user-supplied path; maps to exit code 3."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved options for one CLI run.

    ``--config`` with the rendered JSON reproduces the config; unknown fields
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
        return json.dumps(dataclasses.asdict(self))

    def resolved_format(self) -> str:
        if self.format is not None:
            return self.format
        return "csv" if self.command == "curve" else "json"


class _Rule(NamedTuple):
    """A config field's type (``int``, ``float`` or ``str``, also its flag's
    parser), its domain and the message for a value outside the domain."""

    kind: type
    ok: Callable[[object], bool] = lambda value: True
    why: str = ""


#: One rule per field of ``ExperimentConfig`` but ``command`` and ``grid``.
_FIELDS = {
    "n": _Rule(int, lambda v: v >= 1, "must be >= 1"),
    "d": _Rule(int, lambda v: v >= 1, "must be >= 1"),
    "rho": _Rule(float, lambda v: -1.0 < v < 1.0, "must lie in (-1, 1)"),
    "trials": _Rule(int, lambda v: v >= 1, "must be a positive integer"),
    "seed": _Rule(int, lambda v: 0 <= v < 2**64, "must fit in an unsigned 64-bit integer"),
    "out": _Rule(str),
    "format": _Rule(str, lambda v: v in ("csv", "json"), "must be 'csv' or 'json'"),
    "threads": _Rule(int, lambda v: v >= 1, "must be >= 1"),
    "threshold": _Rule(float),
    "axis": _Rule(str, lambda v: v in ("d", "n"), "must be 'd' or 'n'"),
    "risk": _Rule(float, lambda v: 0.0 < v < 1.0, "must lie in (0, 1)"),
    "kstar": _Rule(int, lambda v: v >= 1, "must be >= 1"),
    "margin": _Rule(float, lambda v: v > 0.0, "must be > 0"),
    "epsilon_d": _Rule(float, lambda v: v >= 0.0, "must be >= 0"),
}


def _kind(key: str, command: str) -> type:
    """Field ``key``'s type; ``d`` is a real only for ``curve``, the
    simulations need whole dimensions."""
    return float if key == "d" and command == "curve" else _FIELDS[key].kind


def _invalid(key: str, why: str) -> UsageError:
    return UsageError(f"invalid field {key!r}: {why}")


def _check(key: str, value, command: str):
    """``value`` if it has field ``key``'s type and lies in its domain.

    Booleans are not numbers; numbers, whole or real, must be finite and fit
    a float.
    """
    kind = _kind(key, command)
    if not (
        isinstance(value, (int, float) if kind is float else kind)
        and not isinstance(value, bool)
        and (kind is str or abs(value) <= sys.float_info.max)
    ):
        raise _invalid(key, f"wrong type {type(value).__name__} ({value!r})")
    if not _FIELDS[key].ok(value):
        raise _invalid(key, _FIELDS[key].why)
    return value


def _parse_grid(value) -> tuple[float, float, int]:
    if isinstance(value, str):
        value = value.split(":")
    if not isinstance(value, (list, tuple)) or len(value) != 3:
        raise _invalid("grid", "must have the form start:stop:count")
    if any(isinstance(v, bool) for v in value) or isinstance(value[2], float):
        raise _invalid("grid", "must contain two reals and a whole count")
    try:
        start, stop, count = float(value[0]), float(value[1]), int(value[2])
    except (TypeError, ValueError):
        raise _invalid("grid", "must contain two reals and a count") from None
    if count < 1:
        raise _invalid("grid", "needs a positive point count")
    if not (math.isfinite(start) and math.isfinite(stop)) or start <= 0 or stop <= 0:
        raise _invalid("grid", "endpoints must be positive and finite")
    return (start, stop, count)


def _build_config(command: str, values: dict) -> ExperimentConfig:
    kwargs: dict[str, object] = {"command": command}
    for key, value in values.items():
        if key != "grid" and key not in _FIELDS:
            raise UsageError(f"unknown config field {key!r}")
        if value is not None:
            kwargs[key] = _parse_grid(value) if key == "grid" else _check(key, value, command)
    config = ExperimentConfig(**kwargs)
    if command in ("simulate-detection", "simulate-recovery"):
        for field in ("n", "d", "rho"):
            if getattr(config, field) is None:
                raise _invalid(field, f"required by {command}")
        if config.rho == 0.0:
            raise _invalid("rho", f"must be nonzero for {command}")
        if command == "simulate-detection" and config.rho * config.rho == 0.0:
            raise _invalid("rho", "rho^2 underflows to 0; detection needs rho^2 > 0")
    if command == "curve":
        if config.axis is None:
            raise _invalid("axis", "required by curve")
        if config.grid is None:
            raise _invalid("grid", "required by curve")
        if min(config.grid[:2]) < 1.0:
            raise _invalid("grid", f"endpoints must be >= 1 (a grid of {config.axis} values)")
        if config.axis == "d" and config.n is None:
            raise _invalid("n", "required when sweeping d")
        if config.axis == "n" and config.d is None:
            raise _invalid("d", "required when sweeping n")
        # A k_star above n has no schedule; reject it when no grid point could use it.
        n_max = config.n if config.axis == "d" else max(config.grid[:2])
        if config.kstar is not None and config.kstar > n_max:
            raise _invalid("kstar", f"must not exceed the largest n on the grid ({n_max})")
    return config


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: A003 - argparse hook
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="corralign", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    def add_command(command: str, help: str, *flags: tuple[str, str]) -> _Parser:
        """One subcommand with the common flags, then ``(field, help)`` flags."""
        p = sub.add_parser(command, help=help)
        p.add_argument("--config", help="JSON config file; flags override it")
        common = [("seed", "master seed (u64)"), ("trials", "Monte-Carlo trials per arm"),
                  ("out", "output path (default: stdout)"),
                  ("format", "output format: csv or json"), ("threads", "worker processes")]
        for key, text in common + list(flags):
            option = "--" + key.replace("_", "-")
            p.add_argument(option, dest=key, type=_kind(key, command), help=text)
        return p

    params = [("n", "number of rows"), ("d", "feature dimension"),
              ("rho", "correlation coefficient")]
    add_command("simulate-detection", "Monte-Carlo risk of the threshold test", *params,
                ("threshold", "test threshold (default |rho|dn/2)"))
    add_command("simulate-recovery", "Monte-Carlo exact-alignment error", *params)
    p_curve = add_command(
        "curve", "invert all bounds along a grid of d or n",
        ("n", "fixed n (axis=d sweeps)"), ("d", "fixed d (axis=n sweeps)"),
        ("axis", "sweep variable: d or n"), ("risk", "target risk level"),
        ("kstar", "truncation depth override"), ("margin", "truncation schedule margin"),
        ("epsilon_d", "recovery-converse exponent correction"),
    )
    p_curve.add_argument("--grid", help="start:stop:count (linear spacing)")
    add_command("verify", "run the oracle verification suite")
    return parser


def resolve_config(argv) -> ExperimentConfig:
    """Parse flags, merge the optional config file (flags win), validate."""
    parser = _build_parser()
    namespace = parser.parse_args(argv)
    if namespace.command is None:
        raise UsageError("a command is required (see --help)")
    values: dict[str, object] = {}
    if namespace.config:
        path = namespace.config
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise OutputError(f"cannot read config file '{path}': {exc}") from None
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise UsageError(f"config file '{path}' is not valid JSON: {exc}") from None
        if not isinstance(data, dict):
            raise UsageError(f"config file '{path}' must be a JSON object")
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
        "config": dataclasses.asdict(config),
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
    if bound >= 1.0:
        print(f"warning: risk_bound {bound:.4g} >= 1 is vacuous at these settings; "
              f"gamma_star {gamma_star:.3g} tunes nothing", file=sys.stderr)
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
    _write_report(config, {"config": dataclasses.asdict(config), "rows": rows}, rows)
    violations = [p for p in points if p.converse_exceeds_achievable]
    for p in violations:
        print(f"error: detection converse exceeds achievable at axis={p.axis!r}",
              file=sys.stderr)
    return 2 if violations else 0


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
        print(f"config: {config.render()}", file=sys.stderr)
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
