"""Tests of the benchmark itself: deterministic corpora, oracles that agree
with the test suite's naive reference, failures that are counted, budgets
that leave the process usable, and a tracer that restores what it wraps.

Run from the repository root:  python -m pytest perfbench/tests -q
"""

import io
import signal
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import closedform as cf  # noqa: E402
import corpus  # noqa: E402
import run  # noqa: E402
from spans import Tracer  # noqa: E402

from oracles import naive_graded_dims  # noqa: E402
from qcox import algebra, cli, coxeter, polyring, quiverdsl  # noqa: E402

MODULES = {"algebra": algebra, "cli": cli, "coxeter": coxeter, "polyring": polyring,
           "quiverdsl": quiverdsl}


@pytest.fixture
def alarm():
    previous = signal.signal(signal.SIGALRM, run._on_alarm)
    yield
    signal.setitimer(signal.ITIMER_REAL, 0)
    signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def written(tmp_path):
    def write(c: corpus.Corpus) -> Path:
        for name, text in c.files.items():
            (tmp_path / name).write_text(text, encoding="utf-8")
        return tmp_path
    return write


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_same_seed_gives_byte_identical_corpus(workload):
    first = corpus.build(workload, 11).manifest()
    assert corpus.build(workload, 11).manifest() == first
    assert corpus.build(workload, 12).manifest() != first


def _names():
    return corpus._Names(corpus.random.Random(0))


@pytest.mark.parametrize("inst, expected", [
    (corpus.preprojective(_names(), 2), cf.preprojective_dims(2)),
    (corpus.preprojective(_names(), 3), cf.preprojective_dims(3)),
    (corpus.preprojective(_names(), 4), cf.preprojective_dims(4)),
    (corpus.exterior(_names(), 2), cf.exterior_dims(2)),
    (corpus.truncated_cycle(_names(), 3, 1, 4), cf.truncated_cycle_dims(3, 1, 4)),
    (corpus.truncated_cycle(_names(), 2, 2, 3), cf.truncated_cycle_dims(2, 2, 3)),
    (corpus.truncated_cycle(_names(), 1, 2, 3), cf.truncated_cycle_dims(1, 2, 3)),
])
def test_closed_forms_agree_with_naive_graded_dims(inst, expected):
    dims, _ = naive_graded_dims(quiverdsl.parse_quiver(inst.text()))
    assert dims == expected


def test_path_sums_agree_with_naive_cartan_at_one():
    inst = corpus.random_dag(_names(), corpus.random.Random(3), 7, 3)
    dims, _ = naive_graded_dims(quiverdsl.parse_quiver(inst.text()))
    counts = [[sum(v for (i, j, _), v in dims.items() if (i, j) == (r, c))
               for c in range(inst.n)] for r in range(inst.n)]
    assert cf.cartan_at(inst.n, inst.edges, 1) == counts


def _small(c: corpus.Corpus) -> list[corpus.Call]:
    return [call for call in c.calls if call.file.startswith(("pi3", "pi4", "cyc3x1", "ext2"))]


def test_every_small_call_passes_its_check(written, alarm):
    c = corpus.build("dims_cyclic", 5)
    runner = run.Runner(MODULES, written(c))
    runner.one_pass(_small(c))
    assert runner.attempted == len(_small(c)) > 0
    assert runner.failures == []


class _Tampered:
    """A cli whose output has one number, or one verdict, changed."""

    @staticmethod
    def main(argv):
        buf = io.StringIO()
        with redirect_stdout(buf):
            rc = cli.main(argv)
        print(buf.getvalue().replace('"dim": 1', '"dim": 2', 1)
              .replace('"1"', '"2"', 1).replace('"pass"', '"fail"', 1), end="")
        return rc


def test_wrong_output_counts_as_failed(written, alarm):
    c = corpus.build("dims_cyclic", 5)
    runner = run.Runner({"cli": _Tampered}, written(c))
    runner.one_pass(_small(c))
    assert runner.attempted == len(runner.failures) == len(_small(c))
    assert all("wrong output" in f for f in runner.failures)


def test_budget_overrun_is_a_failure_and_leaves_a_clean_state(written, alarm):
    c = corpus.build("dims_cyclic", 5)
    runner = run.Runner(MODULES, written(c))
    _, failure = runner.call(c.stretch[0], budget=0.05)
    assert failure.startswith("timeout")
    assert runner.call(c.warmup)[1] is None
    assert runner.call(c.stretch[0], budget=0.05)[1].startswith("timeout")


def test_tracer_records_nested_spans_and_restores_originals(written, alarm):
    c = corpus.build("verify_coxeter", 5)
    runner = run.Runner(MODULES, written(c))
    originals = (cli.main, cli.load_file, algebra.graded_dims, algebra.rank_rational,
                 polyring.PolyMatrix.__mul__, coxeter.verify_identities)
    tracer = Tracer()
    tracer.install(MODULES)
    try:
        runner.checked(c.warmup)
    finally:
        tracer.uninstall()
    assert (cli.main, cli.load_file, algebra.graded_dims, algebra.rank_rational,
            polyring.PolyMatrix.__mul__, coxeter.verify_identities) == originals
    assert runner.failures == []
    names = tracer.span_counts()
    assert names["cli.main"] == 1 and names["coxeter.verify"] == 1
    assert names["polyring.matmul"] > 0 and names["algebra.graded_dims"] > 0
    assert tracer.counts["coxeter.checks_pass"] + tracer.counts["coxeter.checks_skipped"] \
        == len(cf.IDENTITIES)
    selfs = tracer.self_times()
    root = next(s for s in tracer.spans if s[0] == "cli.main")
    assert sum(selfs.values()) == pytest.approx(root[2] - root[1])
    assert min(selfs.values()) >= 0


def test_paths_up_to_counts_adjacency_powers():
    from spans import paths_up_to
    bq = quiverdsl.parse_quiver(corpus.truncated_cycle(_names(), 3, 2, 2).text())
    # 3 trivial paths, then 3 * 2**d paths of each length d
    assert paths_up_to(bq.quiver, 3) == 3 + 6 + 12 + 24
