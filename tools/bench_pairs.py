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
revision, Python version, seconds and exit code.  Pair indices go on from
the rows already in OUT.json for that workload.

``summary`` prints, per workload, change revision and end-to-end metric,
the parent and change medians, the parent's quartiles, and in how many
pairs the change is lower.
"""

import argparse
import json
import platform
import statistics
import subprocess
import sys

METRICS = ("pass_cpu_s", "call_cpu_ms_p50", "call_cpu_ms_p90", "peak_rss_mb", "setup_s")


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
                         "result": json.loads(lines[-1]) if lines else None})
            _save(args.out, rows)


def summary(args) -> None:
    rows = _load(args.out)
    for workload in sorted({r["workload"] for r in rows}):
        mine = [r for r in rows if r["workload"] == workload and r["result"]]
        revisions = {r["pair"]: r["revision"] for r in mine if r["side"] == "change"}
        for revision in sorted(set(revisions.values())):
            _summarize(f"{workload} ({revision})",
                       [r for r in mine if revisions.get(r["pair"]) == revision])


def _summarize(title: str, rows: list[dict]) -> None:
    by_side = {side: {r["pair"]: r["result"]["metrics"] for r in rows if r["side"] == side}
               for side in ("parent", "change")}
    pairs = sorted(set(by_side["parent"]) & set(by_side["change"]))
    failed = sum(r["result"]["failed"] for r in rows)
    attempted = sum(r["result"]["attempted"] for r in rows)
    print(f"{title}: {len(pairs)} pairs, {failed} of {attempted} calls failed")
    if len(pairs) < 2:
        return
    for metric in METRICS:
        parent = [by_side["parent"][p][metric]["value"] for p in pairs]
        change = [by_side["change"][p][metric]["value"] for p in pairs]
        q1, _, q3 = statistics.quantiles(parent, n=4)
        mp, mc = statistics.median(parent), statistics.median(change)
        lower = sum(c < p for p, c in zip(parent, change))
        print(f"  {metric}: {mp:.4g} -> {mc:.4g} ({100 * (mc - mp) / mp:+.1f}%), "
              f"parent quartiles [{q1:.4g}, {q3:.4g}], IQR {q3 - q1:.4g}, "
              f"change lower in {lower}/{len(pairs)}")


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
