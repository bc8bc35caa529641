"""corralign benchmark: four workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload detect --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --smoke

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
is a separate run that reports the per-layer metrics from in-memory spans.
The metric names, units and workloads are those of ``BENCHMARK.json``.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; results, the environment and (when
tracing) the spans are also written under ``.bench_out/``.  ``--smoke`` runs
every workload at tiny sizes, untraced and traced, with the same checks.
"""

from __future__ import annotations

import os

#: BLAS thread pins, set before numpy loads; child processes inherit them.
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("detect", "recover-planted", "recover-threshold", "analytic")

#: Fewest rounds per run, untraced and traced, whatever ``--seconds`` says.
MIN_ROUNDS = {0: 3, 1: 2}
SMOKE_MIN_ROUNDS = {0: 2, 1: 1}
SMOKE_SECONDS = 0.5
#: Fresh interpreters timed per run for ``setup_s``, spread over the run.
SETUP_PROBES = 9
SMOKE_SETUP_PROBES = 2
#: Share of a run spent timing the calibration kernel, between rounds.
CALIBRATION_SHARE = 0.05
#: The calibration kernel's median time on the reference box (2-core Intel
#: Xeon, Python 3.11, numpy 2.4).  End-to-end timings are scaled by this over
#: the run's own median kernel time, so they read in that box's seconds.
CALIBRATION_REFERENCE_S = 0.008


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at tiny sizes, untraced and traced")
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--helper", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    return args


def _require_sources() -> dict:
    """The benchmark spec, after checking that the package sources exist."""
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "corralign" / "__init__.py").is_file():
        sys.exit(f"error: corralign sources not found under {ROOT / 'src'}")
    if not spec_path.is_file():
        sys.exit(f"error: {spec_path} not found")
    sys.path.insert(0, str(ROOT / "src"))
    return json.loads(spec_path.read_text())


def _environment() -> dict:
    import corralign

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas_name = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "corralign": corralign.__version__,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "blas": blas_name,
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
    }


def _argv(mode: str, name: str, seed: int, smoke: bool) -> list[str]:
    return ([sys.executable, str(Path(__file__).resolve()), mode, "--workload", name,
             "--seed", str(seed)] + (["--smoke"] if smoke else []))


def _setup_once(name: str, seed: int, smoke: bool) -> float:
    """Time from a fresh interpreter to corralign imported and inputs built."""
    argv = _argv("--probe", name, seed, smoke)
    start = time.perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as proc:
        ready = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    if proc.returncode != 0 or ready.strip() != "ready":
        raise RuntimeError(f"setup probe failed with exit code {proc.returncode}")
    return elapsed


def _calibrate(big: np.ndarray) -> float:
    """Time of a fixed kernel that touches what the workloads touch.

    A plain Python loop, numpy scalar calls, a Gaussian draw and one pass
    over ``big``, an array twice the size of a core's L2 cache.  See
    ``_calibrate_both`` for where it runs.
    """
    start = time.perf_counter()
    total = 0
    for i in range(50_000):
        total += i
    x = np.float64(0.5)
    for _ in range(2_000):
        np.log1p(x)
    np.random.default_rng(0).standard_normal(200_000).sum()
    big.sum()
    return time.perf_counter() - start


def _serve_helper(name: str, seed: int, smoke: bool) -> None:
    """Answer each line on stdin with one time: of the calibration kernel for
    ``cal``, of one setup probe for ``probe``.

    The probes run from this helper, a child of the benchmark, so that their
    memory stays out of the benchmark's ``peak_rss_mb``: the benchmark reads
    its peak while this process, and so every probe, is still unreaped.
    """
    big = np.ones(500_000)
    _calibrate(big)  # warm-up
    print("ready", flush=True)
    for line in sys.stdin:
        elapsed = _calibrate(big) if line.strip() == "cal" else _setup_once(name, seed, smoke)
        print(repr(elapsed), flush=True)


def _send(helper: subprocess.Popen, what: str) -> None:
    helper.stdin.write(what + "\n")
    helper.stdin.flush()


def _reply(helper: subprocess.Popen) -> float:
    reply = helper.stdout.readline()
    if not reply:
        raise RuntimeError(f"benchmark helper exited with code {helper.wait()}")
    return float(reply)


def _probe(helper: subprocess.Popen) -> float:
    _send(helper, "probe")
    return _reply(helper)


def _calibrate_both(helper: subprocess.Popen, big: np.ndarray) -> tuple[float, float]:
    """The kernel's time here and, run at the same moment, in the helper.

    With two processes busy, the two cores each run one kernel.  The host's
    speed drifts per core, so a timing of this process is scaled by its own
    kernel, and a two-process command by the mean of both.
    """
    _send(helper, "cal")
    own = _calibrate(big)
    return own, _reply(helper)


def _peak_rss_mb() -> float:
    """Own peak resident set plus that of the largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def code_identity() -> str:
    """Digest of the package and benchmark sources: outputs of runs are
    compared only between runs of the same code."""
    digest = hashlib.sha256()
    for path in sorted([*(ROOT / "src" / "corralign").rglob("*.py"),
                        *Path(__file__).resolve().parent.glob("*.py")]):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()[:16]


class Fingerprints:
    """Round outputs of earlier runs in this checkout, keyed by code, workload and seed."""

    def __init__(self, path: Path):
        self.path = path
        self.data = json.loads(path.read_text()) if path.is_file() else {}

    def compare_and_store(self, key: str, prints: dict[str, str], checks) -> None:
        seen = self.data.setdefault(key, {})
        for k, value in prints.items():
            if k in seen:
                checks.expect(seen[k] == value, f"{key} round {k} differs from an earlier run")
            seen[k] = value
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.data, indent=1, sort_keys=True))
        os.replace(tmp, self.path)


def run_workload(name: str, seed: int, seconds: float, trace: int, smoke: bool) -> dict:
    """Measure one workload; return the result record (metrics not yet filtered)."""
    import tracer as tracing
    import workloads

    min_rounds = (SMOKE_MIN_ROUNDS if smoke else MIN_ROUNDS)[trace]
    probes = 0 if trace else SMOKE_SETUP_PROBES if smoke else SETUP_PROBES
    # Setup probes run between rounds at evenly spaced times, so that each
    # run's median setup time samples the whole run.
    probe_due = [seconds * (i + 0.5) / probes for i in range(probes)]
    setup_times: list[float] = []
    w = workloads.make(name, seed, smoke)
    checks = workloads.Checks()
    tracer = tracing.Tracer(w.capture) if trace else None
    rounds, traced_s, step_s = [], 0.0, 0.0
    cal_times: list[tuple[float, float]] = []
    big = np.ones(500_000)
    _calibrate(big)  # warm-up
    with subprocess.Popen(_argv("--helper", name, seed, smoke), stdin=subprocess.PIPE,
                          stdout=subprocess.PIPE, text=True) as helper:
        if helper.stdout.readline().strip() != "ready":
            raise RuntimeError(f"benchmark helper exited with code {helper.wait()}")
        start = time.perf_counter()
        # A round starts only if one more like the last still ends in time.
        while (len(rounds) < min_rounds or not w.enough(rounds)
               or time.perf_counter() + step_s < start + seconds):
            step_start = time.perf_counter()
            while probe_due and step_start - start >= probe_due[0]:
                probe_due.pop(0)
                setup_times.append(_probe(helper))
            while not trace and sum(own for own, _ in cal_times) < (
                    CALIBRATION_SHARE * (step_start - start)):
                cal_times.append(_calibrate_both(helper, big))
            k = len(rounds)
            rounds.append(w.round(k))
            if tracer is not None:
                first = len(tracer.spans)
                out = w.traced(k, tracer, checks)
                checks.expect(out == rounds[-1].output, f"{name} round {k}: traced output differs")
                traced_s += sum(s.dur_ns for s in tracer.spans[first:]
                                if s.parent is None and s.name != "oracle.check") / 1e9
            step_s = time.perf_counter() - step_start
        setup_times += [_probe(helper) for _ in probe_due]
        cal_times.append(_calibrate_both(helper, big))
        # Before the helper is reaped, and before the checks, which load scipy.
        peak_rss_mb = _peak_rss_mb()
        helper.stdin.close()
    if helper.returncode != 0:
        raise RuntimeError(f"benchmark helper exited with code {helper.returncode}")
    outputs = [r.output for r in rounds]
    w.check(outputs, checks)
    OUT_DIR.mkdir(exist_ok=True)
    Fingerprints(OUT_DIR / "fingerprints.json").compare_and_store(
        f"{name}|seed={seed}|{'smoke' if smoke else 'full'}|code={code_identity()}",
        {str(k): workloads.fingerprint(w, o) for k, o in enumerate(outputs)},
        checks,
    )
    if tracer is None:
        # The host's speed drifts by 20-50% over minutes; the kernel's median
        # time over the same run measures that drift and divides it out.
        scale = CALIBRATION_REFERENCE_S / statistics.median(own for own, _ in cal_times)
        command_scale = scale if w.command_processes == 1 else (
            CALIBRATION_REFERENCE_S / statistics.median((a + b) / 2 for a, b in cal_times))
        metrics = {
            "throughput_per_s": w.units / (w.round_s([r.main_s for r in rounds], rounds) * scale),
            "command_s": w.round_s([r.command_s for r in rounds], rounds) * command_scale,
            "peak_rss_mb": peak_rss_mb,
            "setup_s": statistics.median(setup_times) * scale,
        }
    else:
        from corralign import oracle

        metrics = tracing.layer_metrics(tracer.spans, oracle.VERIFY_CHECKS,
                                        workloads.VERIFY_THREADS)
        metrics["trace.overhead_ratio"] = traced_s / sum(r.total_s for r in rounds)
    record = {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "smoke": smoke,
        "rounds": len(rounds),
        "round_s": [r.total_s for r in rounds],
        "main_s": [r.main_s for r in rounds],
        "command_s": [r.command_s for r in rounds],
        "strata": [r.stratum for r in rounds],
        "setup_s": setup_times,
        "cal_s": cal_times,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "failures": checks.failures,
        "metrics": metrics,
        "environment": _environment(),
    }
    stem = f"{name}-seed{seed}-trace{trace}{'-smoke' if smoke else ''}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if tracer is not None:
        (OUT_DIR / f"{stem}-spans.json").write_text(json.dumps(tracer.dump()))
    return record


def _result(record: dict, spec: dict) -> dict:
    """The last output line's object: exactly the declared metrics of this mode."""
    declared = spec["per_layer" if record["trace"] else "end_to_end"]
    metrics = {m["name"]: {"value": record["metrics"][m["name"]], "unit": m["unit"]}
               for m in declared}
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }


def _report(record: dict, result: dict) -> None:
    print(f"environment: {json.dumps(record['environment'], sort_keys=True)}")
    print(f"{record['workload']}: {record['rounds']} rounds, failed_ratio "
          f"{record['failed'] / record['attempted']:.6g} "
          f"({record['failed']}/{record['attempted']} checks)")
    for failure in record["failures"]:
        print(f"FAILED: {failure}")
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']!r} {m['unit']}")


def main(argv=None) -> int:
    args = _parse_args(argv)
    spec = _require_sources()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    if args.helper:
        _serve_helper(args.workload, args.seed, args.smoke)
        return 0
    if args.probe:
        import workloads

        workloads.make(args.workload, args.seed, args.smoke)
        print("ready", flush=True)
        return 0
    if not args.smoke:
        record = run_workload(args.workload, args.seed, args.seconds, args.trace, False)
        result = _result(record, spec)
        _report(record, result)
        print(json.dumps(result))
        return 0
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        for trace in (0, 1):
            record = run_workload(name, args.seed, SMOKE_SECONDS, trace, True)
            result = _result(record, spec)
            _report(record, result)
            print(f"smoke {name} trace={trace}: {json.dumps(result)}")
            total["correct"] &= result["correct"]
            total["attempted"] += result["attempted"]
            total["failed"] += result["failed"]
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
