"""qcox benchmark: time the documented CLI paths on seeded corpora.

    python3 perfbench/run.py --workload dims_cyclic --seed 1 --seconds 60 --trace 0

Run from a checkout of the repository; the library is imported from its
``src`` directory and nowhere else.  One process, one client, closed loop:
each ``qcox.cli.main`` call starts after the previous one returned.
Interpreter start-up is not measured.  Calls, passes and set-ups are
timed in CPU seconds of this process, so that time the host spends running
other work does not count.

Every call's output is checked against ``closedform``.  The last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer ones
with ``--trace 1``.  Earlier lines repeat the metrics for people, with the
failed share and the self-time breakdown.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter, process_time

import corpus as corpora
from spans import BOOKKEEPING, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUP_REPS_PER_PASS = 4
MIN_PASSES = 3
CALL_BUDGET_S = 60.0
# Today's path enumeration needs more than 25 s for each stretch instance;
# the normal-word prototype in ROADMAP item 2 needs under 10 ms.  One second
# is 25x below the first and 100x above the second, so the outcome only
# flips when the algorithm changes.
STRETCH_BUDGET_S = 1.0

# span name -> per-layer metric reporting its self time
SELF_MS = {
    "cli.main": "cli.main_ms",
    "quiverdsl.parse": "quiverdsl.parse_ms",
    "cli.render": "cli.render_ms",
    "algebra.graded_dims": "algebra.graded_dims_ms",
    "polyring.rank": "polyring.rank_ms",
    "polyring.matmul": "polyring.matmul_ms",
    "polyring.det": "polyring.det_ms",
    "polyring.inverse": "polyring.inverse_ms",
    "polyring.adjugate": "polyring.inverse_ms",
    "coxeter.verify": "coxeter.verify_ms",
    "coxeter.product": "coxeter.product_ms",
}
COUNTS = ("algebra.degrees", "algebra.quotient_dim", "algebra.paths_enumerated",
          "polyring.rank_rows", "polyring.rank_cols",
          "coxeter.checks_pass", "coxeter.checks_skipped")
SPAN_COUNTS = {"polyring.rank": "polyring.rank_calls", "polyring.matmul": "polyring.matmul_calls",
               "polyring.det": "polyring.det_calls", "polyring.adjugate": "polyring.adjugate_calls"}


class BudgetExceeded(BaseException):
    """Raised from SIGALRM when a call runs past its time budget.  A
    BaseException, so no handler in the library can swallow it."""


def _on_alarm(signum, frame):
    raise BudgetExceeded


def import_qcox() -> dict:
    """Import qcox afresh from this checkout's src directory."""
    for name in [m for m in sys.modules if m == "qcox" or m.startswith("qcox.")]:
        del sys.modules[name]
    modules = {name: importlib.import_module(f"qcox.{name}")
               for name in ("quiverdsl", "polyring", "algebra", "coxeter", "cli")}
    origin = Path(modules["cli"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"qcox was imported from {origin}, not from {SRC}")
    return modules


class Runner:
    """Runs and checks calls, keeping every latency and failure of the run."""

    def __init__(self, modules: dict, workdir: Path):
        self.modules = modules
        self.workdir = workdir
        self.memo: dict = {}
        self.pass_latencies: list[list[float]] = []
        self.failures: list[str] = []
        self.attempted = 0

    def call(self, call: corpora.Call, budget: float = CALL_BUDGET_S) -> tuple[float, str | None]:
        """Run one call in process; return its CPU seconds and a failure
        reason.  The budget is wall time."""
        out = io.StringIO()
        start = process_time()
        try:
            with redirect_stdout(out), redirect_stderr(io.StringIO()):
                signal.setitimer(signal.ITIMER_REAL, budget)
                try:
                    rc = self.modules["cli"].main(call.argv(self.workdir))
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
            elapsed = process_time() - start
        except BudgetExceeded:
            return process_time() - start, f"timeout after {budget} s"
        except (Exception, SystemExit) as exc:
            return process_time() - start, f"{type(exc).__name__}: {exc}"
        try:
            ok = call.check(rc, out.getvalue(), self.memo)
        except Exception:    # malformed output is a wrong answer, not a crash
            ok = False
        return elapsed, None if ok else f"wrong output (exit code {rc})"

    def checked(self, call: corpora.Call) -> float:
        """Run a call that counts towards attempted and failed."""
        elapsed, failure = self.call(call)
        self.attempted += 1
        if failure:
            self.failures.append(f"{call.label}: {failure}")
        return elapsed

    def one_pass(self, calls) -> float:
        """Run every call once and keep their latencies; return the CPU
        seconds spent inside qcox, checking excluded."""
        latencies = [self.checked(c) for c in calls]
        self.pass_latencies.append(latencies)
        return sum(latencies)

    def passes(self, calls, seconds: float, between) -> list[float]:
        """Whole passes, at least MIN_PASSES, while the next one is expected
        to end in time; ``between()`` runs after each pass."""
        times: list[float] = []
        walls: list[float] = []
        start = perf_counter()
        while len(times) < MIN_PASSES or \
                perf_counter() - start + statistics.median(walls) <= seconds:
            wall = perf_counter()
            times.append(self.one_pass(calls))
            between()
            walls.append(perf_counter() - wall)
        return times


def set_up(workload: str, seed: int, workdir: Path):
    """Import qcox afresh, build the corpus, write it to ``workdir`` and make
    one checked warm-up call; return the corpus, its runner and the CPU
    seconds all this took."""
    start = process_time()
    modules = import_qcox()
    corpus = corpora.build(workload, seed)
    workdir.mkdir()
    for name, text in corpus.files.items():
        (workdir / name).write_text(text, encoding="utf-8")
    runner = Runner(modules, workdir)
    runner.checked(corpus.warmup)
    return corpus, runner, process_time() - start


def end_to_end(runner: Runner, corpus, workload: str, seed: int, setup_time: float,
               seconds: float) -> dict:
    setup_times = [setup_time]
    scratch = runner.workdir.parent

    def set_up_again():
        # Five set-ups in a row read alike, while this machine's speed moves
        # by up to 1.8x between runs; so set-up is repeated after every pass,
        # to sample the same stretch of time as pass_cpu_s.  The warm-up calls
        # count like any other call.
        kept = {k: v for k, v in sys.modules.items() if k.split(".")[0] == "qcox"}
        for _ in range(SETUP_REPS_PER_PASS):
            workdir = scratch / f"setup{len(setup_times)}"
            _, again, elapsed = set_up(workload, seed, workdir)
            setup_times.append(elapsed)
            runner.attempted += again.attempted
            runner.failures += again.failures
            shutil.rmtree(workdir)
        # the passes go on with the modules they started with, and the qcox
        # each set-up left behind is collected now, so that peak_rss_mb does
        # not depend on when the collector runs
        sys.modules.update(kept)
        gc.collect()

    pass_times = runner.passes(corpus.calls, seconds, set_up_again)
    print("# pass CPU seconds: " + " ".join(f"{t:.3f}" for t in pass_times))
    # Every pass runs the same calls in the same order: each call's latency
    # is its median over the passes, and the percentiles are taken over
    # these, so one slow pass moves no call by more than the others let it.
    per_call = [statistics.median(lat) for lat in zip(*runner.pass_latencies)]
    deciles = statistics.quantiles(per_call, n=10, method="inclusive")
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "pass_cpu_s": (statistics.median(pass_times), "s"),
        "call_cpu_ms_p50": (deciles[4] * 1000, "ms"),
        "call_cpu_ms_p90": (deciles[8] * 1000, "ms"),
        "peak_rss_mb": (peak_kib / 1024, "MB"),
    }


def per_layer(runner: Runner, corpus, seconds: float, workload: str, seed: int) -> dict:
    solved = 0
    for call in corpus.stretch:
        _, failure = runner.call(call, STRETCH_BUDGET_S)
        solved += failure is None
        print(f"# stretch {call.label}: {failure or 'solved'}")
    if corpus.stretch:
        # a budget hit must leave the process usable: the next call is checked
        runner.checked(corpus.warmup)

    tracer = Tracer()
    untraced, traced, selfs, counts, walls, first_spans = [], [], [], [], [], []

    def traced_pass() -> float:
        tracer.install(runner.modules)
        try:
            seconds_in_qcox = runner.one_pass(corpus.calls)
        finally:
            tracer.uninstall()
        selfs.append(tracer.self_times())
        counts.append(tracer.counts + tracer.span_counts())
        if not first_spans:
            # kept as text: live span lists would slow the garbage collector
            # in the passes that follow
            first_spans.append(json.dumps(tracer.spans))
        tracer.reset()
        return seconds_in_qcox

    # Untraced and traced passes alternate, and so does which comes first,
    # so that drift in machine speed reaches both sides of
    # trace.overhead_share alike.
    start = perf_counter()
    while len(traced) < 2 or perf_counter() - start + statistics.median(walls) <= seconds:
        wall = perf_counter()
        if len(traced) % 2:
            traced.append(traced_pass())
            untraced.append(runner.one_pass(corpus.calls))
        else:
            untraced.append(runner.one_pass(corpus.calls))
            traced.append(traced_pass())
        walls.append(perf_counter() - wall)

    self_ms = {name: statistics.median(s.get(name, 0.0) for s in selfs) * 1000
               for name in set().union(*selfs) - {BOOKKEEPING}}
    metrics = dict.fromkeys(SELF_MS.values(), 0.0)
    for span_name, metric in SELF_MS.items():
        metrics[metric] += self_ms.get(span_name, 0.0)
    total = {k: sum(c[k] for c in counts) / len(counts) for k in set().union(*counts)}
    for name in COUNTS:
        metrics[name] = total.get(name, 0)
    for span_name, metric in SPAN_COUNTS.items():
        metrics[metric] = total.get(span_name, 0)
    metrics["algebra.useful_ratio"] = _ratio(total, "algebra.quotient_dim",
                                             "algebra.paths_enumerated")
    metrics["polyring.matmul_density"] = _ratio(total, "polyring.matmul_nonzero",
                                                "polyring.matmul_entries")
    metrics["trace.overhead_share"] = statistics.median(traced) / statistics.median(untraced) - 1
    metrics["stretch.solved"] = solved

    self_total = sum(self_ms.values())
    print("# self-time shares: " + ", ".join(
        f"{k} {v / self_total:.1%}" for k, v in sorted(self_ms.items(), key=lambda kv: -kv[1])))
    trace_file = OUT / f"trace-{workload}-seed{seed}.json"
    summary = json.dumps({"workload": workload, "seed": seed, "passes": len(traced),
                          "self_ms_median": self_ms, "counts_per_pass": total})
    trace_file.write_text(summary[:-1] + ', "spans_first_pass": ' + first_spans[0] + "}")
    print(f"# spans written to {trace_file.relative_to(ROOT)}")
    return {name: (value, _unit(name)) for name, value in metrics.items()}


def _ratio(total: dict, numerator: str, denominator: str) -> float:
    return total.get(numerator, 0) / total[denominator] if total.get(denominator) else 0.0


def _unit(metric: str) -> str:
    if metric.endswith("_ms"):
        return "ms"
    return "ratio" if metric.endswith(("_ratio", "_density", "_share")) else "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=corpora.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "qcox").is_dir():
        print(f"error: no qcox sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    signal.signal(signal.SIGALRM, _on_alarm)
    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="corpus-", dir=OUT))
    try:
        corpus, runner, setup_time = set_up(args.workload, args.seed, scratch / "setup0")
        print(f"# workload={args.workload} seed={args.seed} calls/pass={len(corpus.calls)} "
              f"loop=closed clients=1 python={platform.python_version()} "
              f"nproc={os.cpu_count()}")
        if args.trace:
            metrics = per_layer(runner, corpus, args.seconds, args.workload, args.seed)
        else:
            metrics = end_to_end(runner, corpus, args.workload, args.seed, setup_time,
                                 args.seconds)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    attempted = runner.attempted
    failed = len(runner.failures)
    for failure in runner.failures[:20]:
        print(f"# FAILED {failure}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"failed_share = {failed}/{attempted} = {failed / max(attempted, 1):.4f}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except ImportError:
        traceback.print_exc()
        sys.exit(2)
