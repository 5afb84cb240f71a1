"""Benchmark for ellspec: four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload verdict-batch --seed 1 --seconds 10 --trace 0

Runs from the root of a source checkout and imports the program from
src/.  Everything runs in this one process, pinned to one CPU, and the
fresh interpreters it starts run one at a time on the same CPU.  The last
line printed is one JSON object: {"correct", "attempted", "failed",
"metrics"}.  With --trace 0 the metrics are the end-to-end ones, with
--trace 1 the per-layer ones (see README.md).  --workload all runs the
four workloads one after another and prints one such line for each.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import oracles
import timing
import workloads
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
FRESH_SAMPLES = 7
IMPORTTIME_SAMPLES = 5
MIN_PASSES = 3
MIN_LATENCY_SAMPLES = 100


class Outcome:
    """Operations attempted and failed; correct stays true while every
    failure is one of the named known faults."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.unexpected: list[str] = []

    def record(self, problem: str | None, known_fault: bool = False, where: str = "") -> bool:
        self.attempted += 1
        if problem is None:
            return True
        self.failed += 1
        if not known_fault:
            self.unexpected.append(f"{where}: {problem}")
        return False


def clear_program_caches() -> None:
    """Empty every functools cache in the program, so each pass pays what a
    fresh --batch process pays."""
    for name, module in list(sys.modules.items()):
        if name == "ellspec" or name.startswith("ellspec."):
            for obj in list(vars(module).values()):
                clear = getattr(obj, "cache_clear", None)
                if callable(clear):
                    clear()


def hd_quantiles(values: list[float], probs: tuple[float, ...]) -> list[float]:
    """Harrell-Davis quantiles: a Beta-weighted mean of all order statistics.

    Unlike a single order statistic, the estimate moves smoothly when a
    sample crosses a gap in the distribution, as between the cost groups
    of a request mix.
    """
    from scipy.stats.mstats import hdquantiles

    return [float(x) for x in hdquantiles(values, prob=list(probs))]


# ---------------------------------------------------------------------------
# CLI workloads: verdict-batch, lattice-ladder, cover-verify


class CliRunner:
    def __init__(self, work: workloads.Workload, rundir: Path) -> None:
        from ellspec import cli

        self.cli = cli  # cli.main is looked up per call, so the tracer's patch is seen
        self.work = work
        self.chunks = []
        reqs = work.requests
        for cmd in dict.fromkeys(r.cmd for r in reqs):
            same = [r for r in reqs if r.cmd == cmd]
            for k in range(0, len(same), work.batch_chunk):
                items = same[k : k + work.batch_chunk]
                path = rundir / f"batch-{cmd}-{k}.json"
                path.write_text(json.dumps([r.doc for r in items]))
                self.chunks.append((cmd, str(path), str(rundir / f"batch-{cmd}-{k}.out"), items))
        self.singles = []
        for k, req in enumerate(reqs[:: work.single_stride]):
            path = rundir / f"single-{k}.json"
            path.write_text(json.dumps(req.doc))
            self.singles.append((req, str(path), str(rundir / f"single-{k}.out")))

    def batch_pass(self, rnd: timing.Round, outcome: Outcome, latencies: list) -> list[float]:
        """Calibrated seconds of each chunk of the request list through --batch."""
        times = []
        for cmd, path, out, items in self.chunks:
            with contextlib.redirect_stderr(io.StringIO()):
                times.append(rnd.time(lambda: self.cli.main([cmd, path, "--batch", "--output", out])))
            replies = json.loads(Path(out).read_text())
            for req, reply in zip(items, replies):
                outcome.record(req.check(reply), where=cmd)
        return times

    def single_pass(self, rnd: timing.Round, outcome: Outcome, latencies: list) -> None:
        """Calibrated seconds of each request of the latency subset, one call
        each, appended to latencies when the reply passes its check."""
        group = self.work.single_group
        for k in range(0, len(self.singles), group):
            batch = self.singles[k : k + group]
            raws, codes = [], []
            with contextlib.redirect_stderr(io.StringIO()):
                for req, path, out in batch:
                    start = time.perf_counter()
                    codes.append(self.cli.main([req.cmd, path, "--output", out]))
                    raws.append(time.perf_counter() - start)
            scale = rnd.control()
            for (req, _, out), code, raw in zip(batch, codes, raws):
                problem = req.check(json.loads(Path(out).read_text()))
                if problem is None and code != req.exit_code:
                    problem = f"exit code {code}, want {req.exit_code}"
                if outcome.record(problem, where=req.cmd):
                    latencies.append(raw * scale)

    def cold_argv(self, rundir: Path) -> list[str]:
        ref = self.work.reference
        path = rundir / "reference.json"
        path.write_text(json.dumps(ref.doc))
        return ["-m", "ellspec", ref.cmd, str(path)]

    def check_cold(self, code: int, stdout: bytes) -> str | None:
        ref = self.work.reference
        try:
            reply = json.loads(stdout)
        except ValueError:
            return f"cold request printed no JSON (exit {code})"
        problem = ref.check(reply)
        if problem is None and code != ref.exit_code:
            problem = f"exit code {code}, want {ref.exit_code}"
        return problem


# ---------------------------------------------------------------------------
# fibre-inverse: library calls


COLD_INVERSION = """
import json, sys
from ellspec.tate import CurveParam, TatePoint, quotient_x, x_preimages
tau, u = complex(sys.argv[1]), complex(sys.argv[2])
curve = CurveParam(tau)
found = x_preimages(quotient_x(TatePoint(u, curve)), curve)
print(json.dumps([[p.rep.real, p.rep.imag] for p in found]))
"""


class FibreRunner:
    def __init__(self, work: workloads.Workload, rundir: Path) -> None:
        from ellspec import tate

        self.tate = tate
        self.work = work
        self.checked: dict = {}

    def _check(self, op: workloads.Inversion, reps: list[complex]) -> str | None:
        key = (op.tau, op.u, tuple(reps))
        if key not in self.checked:
            self.checked[key] = oracles.check_preimages(reps, op.target, op.tau)
        return self.checked[key]

    def batch_pass(self, rnd: timing.Round, outcome: Outcome, latencies: list) -> list[float]:
        """Calibrated seconds of one call on every target; the time of each
        call that passes its check is also appended to latencies."""
        tate = self.tate
        times = []
        for op in self.work.requests:
            curve = tate.CurveParam(op.tau)
            found = []
            seconds = rnd.time(
                lambda: found.extend(
                    tate.x_preimages(tate.quotient_x(tate.TatePoint(op.u, curve)), curve)
                )
            )
            times.append(seconds)
            problem = self._check(op, [p.rep for p in found])
            if outcome.record(problem, op.known_fault, where=f"x_preimages tau={op.tau}"):
                latencies.append(seconds)
        return times

    def single_pass(self, rnd: timing.Round, outcome: Outcome, latencies: list) -> None:
        """The round's calls already gave one latency each."""

    def cold_argv(self, rundir: Path) -> list[str]:
        ref = self.work.reference
        return ["-c", COLD_INVERSION, repr(complex(ref.tau)), repr(complex(ref.u))]

    def check_cold(self, code: int, stdout: bytes) -> str | None:
        if code != 0:
            return f"cold inversion exited {code}"
        try:
            reps = [complex(*p) for p in json.loads(stdout)]
        except ValueError:
            return "cold inversion printed no JSON"
        ref = self.work.reference
        return oracles.check_preimages(reps, ref.target, ref.tau)


# ---------------------------------------------------------------------------
# phases


def warm_run(runner, seconds: float, outcome: Outcome) -> dict:
    """Untraced passes until the time is up and enough samples are in."""
    chunk_times: list[list[float]] = []
    latencies: list[float] = []
    deadline = time.perf_counter() + seconds
    while (
        time.perf_counter() < deadline
        or len(chunk_times[0] if chunk_times else ()) < MIN_PASSES
        or len(latencies) < MIN_LATENCY_SAMPLES
    ):
        rnd = timing.Round()
        clear_program_caches()
        times = runner.batch_pass(rnd, outcome, latencies)
        clear_program_caches()
        runner.single_pass(rnd, outcome, latencies)
        if not chunk_times:
            chunk_times = [[] for _ in times]
        for series, t in zip(chunk_times, times):
            series.append(t)
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # each chunk's median over passes, so a burst of contention in one pass
    # does not carry into the sum
    pass_seconds = sum(statistics.median(series) for series in chunk_times)
    p50, p90 = hd_quantiles(latencies, (0.5, 0.9))
    return {
        "throughput_rps": len(runner.work.requests) / pass_seconds,
        "request_p50_ms": 1000.0 * p50,
        "request_p90_ms": 1000.0 * p90,
        "peak_rss_mb": peak_rss,
        "_passes": len(chunk_times[0]),
        "_latency_samples": len(latencies),
    }


def fresh_run(runner, rundir: Path, env: dict, outcome_notes: list[str]) -> dict:
    """setup_s and cold_request_s: medians over fresh interpreters, one at a time."""
    root = str(ROOT)
    cold = runner.cold_argv(rundir)

    def setup_job() -> float:
        seconds, code, _, err = timing.run_child(["-c", "import ellspec.cli"], env, root)
        if code != 0:
            raise RuntimeError(f"import ellspec.cli failed: {err.decode(errors='replace')}")
        return seconds

    def cold_job() -> float:
        seconds, code, out, _ = timing.run_child(cold, env, root)
        problem = runner.check_cold(code, out)
        if problem is not None:
            outcome_notes.append(f"cold request: {problem}")
        return seconds

    setup_job()  # compiles __pycache__ after a fresh checkout; untimed
    cold_job()
    setup, cold_times = timing.fresh_process_samples([setup_job, cold_job], FRESH_SAMPLES, env, root)
    return {"setup_s": statistics.median(setup), "cold_request_s": statistics.median(cold_times)}


def importtime_run(env: dict) -> dict:
    """import.ellspec_s and import.numpy_s from -X importtime, medians over fresh interpreters."""
    root = str(ROOT)

    def job() -> tuple[float, float]:
        """Cumulative import seconds of the ellspec package and of numpy."""
        _, code, _, err = timing.run_child(["-X", "importtime", "-c", "import ellspec.cli"], env, root)
        if code != 0:
            raise RuntimeError(err.decode(errors="replace"))
        cumulative = {}
        for line in err.decode().splitlines():
            parts = [p.strip() for p in line.removeprefix("import time:").split("|")]
            if len(parts) == 3 and parts[1].isdigit():
                cumulative[parts[2]] = int(parts[1]) * 1e-6
        return (
            cumulative.get("ellspec", 0.0) + cumulative.get("ellspec.cli", 0.0),
            cumulative.get("numpy", 0.0),
        )

    job()
    ellspec_s, numpy_s = [], []
    before = timing.reference_child(env, root)
    for _ in range(IMPORTTIME_SAMPLES):
        package, numpy = job()
        after = timing.reference_child(env, root)
        scale = timing.REFERENCE_NOMINAL_S / ((before + after) / 2.0)
        ellspec_s.append(package * scale)
        numpy_s.append(numpy * scale)
        before = after
    return {"import.ellspec_s": statistics.median(ellspec_s), "import.numpy_s": statistics.median(numpy_s)}


PER_LAYER_TIMES = (
    ("surface.filtrable_bound_s", "inclusive", "surface.filtrable_bound"),
    ("existence.verdict_self_s", "self", "existence.existence_verdict"),
    ("bundles.chern_data_s", "inclusive", "bundles.chern_data"),
    ("schemas.decode_s", "inclusive", "schemas.decode"),
    ("schemas.encode_s", "inclusive", "schemas.encode"),
    ("bundles.spectral_cover_s", "inclusive", "bundles.spectral_cover"),
    ("bundles.spectral_cover_self_s", "self", "bundles.spectral_cover"),
    ("jacobian.cover_fibre_values_s", "inclusive", "jacobian.cover_fibre_values"),
    ("jacobian.sample_base_points_s", "inclusive", "jacobian.sample_base_points"),
    ("tate.x_preimages_s", "inclusive", "tate.x_preimages"),
    ("tate.quotient_x_s", "inclusive", "tate.quotient_x"),
)
PER_LAYER_COUNTS = (
    ("surface.filtrable_bound_calls", ("surface.filtrable_bound",)),
    ("surface.degree_calls", ("surface.HomLattice.degree", "surface.HomLattice.bilinear")),
    ("bundles.chern_data_calls", ("bundles.chern_data",)),
    ("bundles.restrict_to_fibre_calls", ("bundles.restrict_to_fibre",)),
    ("tate.x_preimages_calls", ("tate.x_preimages",)),
    ("tate.quotient_x_calls", ("tate.quotient_x",)),
)
LAYERS = ("tate", "surface", "jacobian", "bundles", "existence", "schemas", "cli")


def traced_run(runner, seconds: float, outcome: Outcome, rundir: Path) -> dict:
    """Alternating untraced and traced passes: per-layer figures per pass and
    the tracing overhead."""
    tracer = Tracer()
    plain, traced, layer_rows = [], [], []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(traced) < MIN_PASSES:
        clear_program_caches()
        plain.append(sum(runner.batch_pass(timing.Round(), outcome, [])))
        clear_program_caches()
        tracer.reset()
        tracer.recording = not traced
        tracer.install()
        rnd = timing.Round()
        try:
            runner.batch_pass(rnd, outcome, [])
        finally:
            tracer.uninstall()
        traced.append(rnd.calibrated)
        raw, scale = rnd.raw, rnd.calibrated / rnd.raw
        row = {}
        for name, kind, key in PER_LAYER_TIMES:
            source = tracer.inclusive_ns if kind == "inclusive" else tracer.self_ns
            row[name] = source[key] * 1e-9 * scale
        row["cli.self_s"] = tracer.layer_self_ns("cli") * 1e-9 * scale
        for name, keys in PER_LAYER_COUNTS:
            row[name] = sum(tracer.calls[k] for k in keys)
        for layer in LAYERS:
            row[f"layer.{layer}_pct"] = 100.0 * tracer.layer_self_ns(layer) * 1e-9 / raw
        layer_rows.append(row)
    with open(rundir / "trace.jsonl", "w", encoding="utf-8") as fh:
        for root, span, parent, name, start, end in tracer.spans:
            fh.write(json.dumps({"root": root, "span": span, "parent": parent,
                                 "name": name, "start_ns": start, "end_ns": end}) + "\n")
    metrics = {name: statistics.median(row[name] for row in layer_rows) for name in layer_rows[0]}
    metrics["trace.overhead_pct"] = 100.0 * (statistics.median(traced) / statistics.median(plain) - 1.0)
    return metrics


UNITS = {
    "setup_s": "s", "cold_request_s": "s", "throughput_rps": "req/s",
    "request_p50_ms": "ms", "request_p90_ms": "ms", "peak_rss_mb": "MB",
}


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_calls"):
        return "count"
    return "s"


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    work = workloads.build(name, seed)
    rundir = OUT / f"{name}-seed{seed}-trace{int(trace)}"
    rundir.mkdir(parents=True, exist_ok=True)
    env = timing.child_env(str(ROOT))
    runner = FibreRunner(work, rundir) if name == "fibre-inverse" else CliRunner(work, rundir)
    outcome = Outcome()
    notes: list[str] = []
    if trace:
        metrics = importtime_run(env)
        metrics.update(traced_run(runner, seconds, outcome, rundir))
        extra = {}
    else:
        metrics = fresh_run(runner, rundir, env, notes)
        warm = warm_run(runner, seconds, outcome)
        extra = {k: warm.pop(k) for k in [k for k in warm if k.startswith("_")]}
        metrics.update(warm)
    problems = notes + outcome.unexpected
    for line in problems[:20]:
        print(f"CHECK FAILED [{name}] {line}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }
    print(f"# {name} seed={seed} trace={int(trace)} attempted={outcome.attempted} "
          f"failed={outcome.failed} correct={result['correct']} "
          + " ".join(f"{k}={v}" for k, v in extra.items()))
    for key, entry in result["metrics"].items():
        print(f"#   {key:34s} {entry['value']:.6g} {entry['unit']}")
    (rundir / "result.json").write_text(json.dumps(result, indent=1))
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "ellspec" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'ellspec'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    timing.pin_to_one_core()
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
