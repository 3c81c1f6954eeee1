#!/usr/bin/env python3
"""Compares two sets of qcbench results: one verdict per (workload, metric).

    python3 bench/suite/compare.py BASE_DIR CHANGE_DIR

Each directory holds result files named <workload>-<tag>.json; a file's
last line is the result object qcbench prints. Runs with the same tag on
both sides (say, the same seed, run as an alternating pair) form a pair.
The bounds come from the BENCHMARK.json at the repository root.

The seed-determined metrics (SEED_DETERMINED) repeat exactly at a seed,
so they are judged exactly on the pairs:

  regressed   some pair moved the wrong way, by any amount;
  improved    no pair moved the wrong way and some pair moved the right way;
  unchanged   every pair is equal.

Without pairs they fall back to the wall-clock rules. For the wall-clock
metrics the verdict is one of:

  improved    the change wins at least 9 in 10 of at least 10 pairs and its
              median beats the parent's by more than the parent's own spread
              (the distance between its quartiles), or every change run beats
              every parent run;
  regressed   the change's median is worse by more than the bound;
  unresolved  either side's spread (quartile distance over median) is wider
              than the bound, so the bound cannot be judged;
  unchanged   none of the above.

Per-layer metrics have no bound and are listed with their medians only.
Exits 1 when any pair is regressed or unresolved, 2 on bad input.
"""

import argparse
import json
import pathlib
import statistics
import sys

BENCHMARK = pathlib.Path(__file__).resolve().parents[2] / "BENCHMARK.json"

# End-to-end metrics that are a function of the seed alone: identical
# between runs at one seed and at any --threads.
SEED_DETERMINED = ("success_rate", "msgs_per_query", "sim_latency_p50_ms",
                   "sim_latency_p99_ms", "recall_at_10")


def die(message):
    print(f"compare.py: {message}", file=sys.stderr)
    sys.exit(2)


def load_side(directory, workloads):
    """{workload: {tag: metrics}} from one directory of result files."""
    side = {}
    for path in sorted(pathlib.Path(directory).glob("*.json")):
        workload = next((w for w in workloads if path.stem.startswith(w + "-")),
                        None)
        if workload is None:
            continue
        lines = path.read_text().strip().splitlines()
        if not lines:
            die(f"{path} is empty")
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            die(f"{path} does not end in a result object")
        if not result.get("correct", False):
            die(f"{path} is a failed run")
        tag = path.stem[len(workload) + 1:]
        side.setdefault(workload, {})[tag] = {
            name: m["value"] for name, m in result["metrics"].items()}
    return side


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def fmt(q):
    q1, med, q3 = q
    return f"{med:.5g} [{q1:.5g}, {q3:.5g}]"


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def exact_verdict(pairs, sign):
    """Verdict of a seed-determined metric from its same-seed pairs."""
    if any(sign * (c - b) > 0 for b, c in pairs):
        return "regressed"
    if any(sign * (c - b) < 0 for b, c in pairs):
        return "improved"
    return "unchanged"


def verdict(base, change, pairs, bound, lower_is_better, exact):
    """(verdict, how much worse the change's median is, win fraction)."""
    sign = 1.0 if lower_is_better else -1.0
    b_q1, b_med, b_q3 = quartiles(base)
    _, c_med, _ = quartiles(change)
    # Positive `worse` means the change moved the metric the wrong way.
    worse = sign * (c_med - b_med) / abs(b_med) if b_med else 0.0
    wins = sum(1 for b, c in pairs if sign * (c - b) < 0)
    win_fraction = wins / len(pairs) if pairs else 0.0
    if exact and pairs:
        return exact_verdict(pairs, sign), worse, win_fraction
    all_better = all(sign * (c - b) < 0 for c in change for b in base)
    claim = (len(pairs) >= 10 and win_fraction >= 0.9 and
             sign * (b_med - c_med) > (b_q3 - b_q1))
    if all_better or (claim and max(spread(base), spread(change)) <= bound):
        return "improved", worse, win_fraction
    if max(spread(base), spread(change)) > bound:
        return "unresolved", worse, win_fraction
    if worse > bound:
        return "regressed", worse, win_fraction
    return "unchanged", worse, win_fraction


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("change")
    args = parser.parse_args()

    spec = json.loads(BENCHMARK.read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    bounded = {m["name"]: m for m in spec["end_to_end"]}
    base = load_side(args.base, workloads)
    change = load_side(args.change, workloads)

    bad = 0
    print(f"{'workload':17} {'metric':33} {'base median [q1, q3]':>30} "
          f"{'change median [q1, q3]':>30} {'worse':>7} {'bound':>5} "
          f"{'pairs':>5} {'won':>4}  verdict")
    for workload in workloads:
        b_runs, c_runs = base.get(workload, {}), change.get(workload, {})
        if not b_runs or not c_runs:
            print(f"{workload:17} no runs on one side")
            continue
        tags = sorted(set(b_runs) & set(c_runs))
        names = set.intersection(*(set(m) for m in
                                   [*b_runs.values(), *c_runs.values()]))
        for name in sorted(names, key=lambda n: (n not in bounded, n)):
            b_vals = [m[name] for m in b_runs.values()]
            c_vals = [m[name] for m in c_runs.values()]
            row = (f"{workload:17} {name:33} {fmt(quartiles(b_vals)):>30} "
                   f"{fmt(quartiles(c_vals)):>30}")
            if name not in bounded:
                print(row + "  (per-layer, no bound)")
                continue
            m = bounded[name]
            pairs = [(b_runs[t][name], c_runs[t][name]) for t in tags]
            v, worse, won = verdict(b_vals, c_vals, pairs, m["bound"],
                                    m["better"] == "lower",
                                    name in SEED_DETERMINED)
            bad += v in ("regressed", "unresolved")
            bound = "exact" if name in SEED_DETERMINED and pairs else m["bound"]
            print(row + f" {100 * worse:>6.1f}% {bound:>5} "
                  f"{len(pairs):>5} {won:>4.2f}  {v}")
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
