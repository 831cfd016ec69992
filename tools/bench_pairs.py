"""Alternating paired runs of ``perfbench/run.py`` on two checkouts.

Usage:

    python tools/bench_pairs.py run OUT.json --parent DIR REV --change DIR REV \\
        --workload verify_coxeter --seeds 11-20 [--seconds 60]
    python tools/bench_pairs.py summary OUT.json

``run`` makes one pair per seed: pair k runs the parent first when k is
even and the change first when k is odd, each side as
``python perfbench/run.py --workload W --seed S --seconds N --trace 0`` in
its own checkout.  Each run's last stdout line is added to OUT.json, a JSON
list with one row per line, with its side, workload, seed, pair index,
revision, Python version, seconds and exit code.  A run whose last line
is not a JSON object, such as the ``# ...`` line a killed or crashed run
leaves, is kept with ``result`` null.  Pair indices go on from the rows
already in OUT.json for that workload.

``summary`` prints, per workload and change revision, how many runs of
each side have no result, and per end-to-end metric of BENCHMARK.json
the parent and change medians, the parent's quartiles, in how many pairs
the change is better, and the change of the medians against the metric's
bound: ``worse`` when the change is worse by more than the bound,
``unresolved`` when the parent's IQR over its median exceeds the bound
(unless every change run is better than every parent run), else
``within``.
"""

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def _load(path: str) -> list[dict]:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        return []


def _save(path: str, rows: list[dict]) -> None:
    with open(path, "w") as fh:
        fh.write("[\n" + ",\n".join("  " + json.dumps(r, sort_keys=True) for r in rows) + "\n]\n")


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = map(int, text.split("-"))
        return list(range(lo, hi + 1))
    return [int(s) for s in text.split(",")]


def run(args) -> None:
    rows = _load(args.out)
    sides = {"parent": args.parent, "change": args.change}
    first = 1 + max((r["pair"] for r in rows if r["workload"] == args.workload), default=-1)
    for pair, seed in enumerate(_seeds(args.seeds), first):
        for side in ("parent", "change") if pair % 2 == 0 else ("change", "parent"):
            root, revision = sides[side]
            proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", args.workload,
                                   "--seed", str(seed), "--seconds", str(args.seconds),
                                   "--trace", "0"], cwd=root, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            rows.append({"side": side, "workload": args.workload, "seed": seed, "pair": pair,
                         "revision": revision, "python": platform.python_version(),
                         "seconds": args.seconds, "exit_code": proc.returncode,
                         "result": _result(lines[-1]) if lines else None})
            _save(args.out, rows)


def _result(line: str) -> dict | None:
    try:
        result = json.loads(line)
    except ValueError:
        return None
    return result if isinstance(result, dict) else None


def summary(args) -> None:
    rows = _load(args.out)
    with open(BENCHMARK) as fh:
        metrics = json.load(fh)["end_to_end"]
    for workload in sorted({r["workload"] for r in rows}):
        mine = [r for r in rows if r["workload"] == workload]
        revisions = {r["pair"]: r["revision"] for r in mine if r["side"] == "change"}
        for revision in sorted(set(revisions.values())):
            _summarize(f"{workload} ({revision})", metrics,
                       [r for r in mine if revisions.get(r["pair"]) == revision])


def _summarize(title: str, metrics: list[dict], rows: list[dict]) -> None:
    by_side = {side: {r["pair"]: r["result"]["metrics"]
                      for r in rows if r["side"] == side and r["result"]}
               for side in ("parent", "change")}
    pairs = sorted(set(by_side["parent"]) & set(by_side["change"]))
    failed = sum(r["result"]["failed"] for r in rows if r["result"])
    attempted = sum(r["result"]["attempted"] for r in rows if r["result"])
    missing = {side: sum(1 for r in rows if r["side"] == side and not r["result"])
               for side in ("parent", "change")}
    print(f"{title}: {len(pairs)} pairs, {failed} of {attempted} calls failed, "
          f"runs without a result: parent {missing['parent']}, change {missing['change']}")
    if len(pairs) < 2:
        return
    for metric in metrics:
        name, bound = metric["name"], metric["bound"]
        sign = 1 if metric["better"] == "lower" else -1
        parent = [by_side["parent"][p][name]["value"] for p in pairs]
        change = [by_side["change"][p][name]["value"] for p in pairs]
        q1, _, q3 = statistics.quantiles(parent, n=4)
        mp, mc = statistics.median(parent), statistics.median(change)
        better = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
        worse_by = sign * (mc - mp) / mp
        if worse_by > bound:
            verdict = "worse"
        elif (q3 - q1) / mp > bound and not \
                max(sign * c for c in change) < min(sign * p for p in parent):
            verdict = "unresolved"
        else:
            verdict = "within"
        print(f"  {name}: {mp:.4g} -> {mc:.4g} ({100 * (mc - mp) / mp:+.1f}%, "
              f"bound {100 * bound:.0f}%: {verdict}), parent quartiles [{q1:.4g}, {q3:.4g}], "
              f"IQR {q3 - q1:.4g}, change better in {better}/{len(pairs)}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    commands = parser.add_subparsers(dest="command", required=True)
    p_run = commands.add_parser("run")
    p_run.add_argument("out")
    p_run.add_argument("--parent", nargs=2, metavar=("DIR", "REV"), required=True)
    p_run.add_argument("--change", nargs=2, metavar=("DIR", "REV"), required=True)
    p_run.add_argument("--workload", required=True)
    p_run.add_argument("--seeds", required=True, help="a range 11-20 or a list 1,3")
    p_run.add_argument("--seconds", type=int, default=60)
    p_summary = commands.add_parser("summary")
    p_summary.add_argument("out")
    args = parser.parse_args()
    if args.command == "run":
        run(args)
    else:
        summary(args)


if __name__ == "__main__":
    main()
