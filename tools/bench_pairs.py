"""Run the benchmark on two checkouts as alternating pairs and compare them.

    python3 tools/bench_pairs.py PARENT CHANGE --workload W --seeds S [S ...]
        --out FILE

Each seed is one pair: ``perfbench/run.py --workload W --seed S --seconds T
--trace 0`` runs in the root of PARENT and of CHANGE, one after the other,
with ``perfbench/out`` removed before every run.  The parent runs first on
the 1st, 3rd, ... seed and second on the others.  T is ``run_seconds`` of
PARENT's ``BENCHMARK.json``, which also names the end-to-end metrics, which
way is better and their bounds.

FILE gets the ``BENCH_*.json`` layout: under ``workloads.W.end_to_end``, the
seeds, which side ran first, every run's ``failed`` count and, per metric,
every run with each side's median and quartiles (numpy percentiles 25, 50
and 75, linear).  Per metric it adds:

* ``change_better_pairs``: pairs in which the change read better (a tie
  counts for neither side);
* ``claim``: whether a gain may be claimed, that is the change won at least
  nine tenths of the pairs and the medians differ, in the better direction,
  by more than the parent's quartile distance;
* ``bound``: how much worse the change's median is than the parent's,
  relative to the parent's, and the verdict: ``unresolved`` when either
  side's quartile distance relative to its median exceeds the bound, unless
  every run of the change reads better than every run of the parent;
  otherwise ``within`` or ``exceeded`` the bound.

An existing FILE keeps its other workloads and top-level fields, so one
file can collect several workloads.  The script only reads ``perfbench/``
and ``BENCHMARK.json`` of the two checkouts.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

#: Share of the pairs the change must win before a gain is claimed.
CLAIM_SHARE = 0.9


def spread(runs) -> dict:
    """Median and quartiles of ``runs``, with the runs themselves."""
    q1, median, q3 = np.percentile(runs, [25, 50, 75]).tolist()
    return {"median": median, "q1": q1, "q3": q3, "runs": list(runs)}


def summarize(parent, change, better: str, bound: float) -> dict:
    """Compare paired runs of one metric; ``parent[k]`` pairs with ``change[k]``.

    ``better`` is ``"higher"`` or ``"lower"`` and ``bound`` the largest
    relative worsening of the median that is allowed.
    """
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same positive number of parent and change runs")
    sign = 1.0 if better == "higher" else -1.0
    p, c = spread(parent), spread(change)
    won = sum(sign * (b - a) > 0.0 for a, b in zip(parent, change))
    gain = sign * (c["median"] - p["median"])
    parent_iqr = p["q3"] - p["q1"]
    worse = -gain / abs(p["median"])
    wide = max((s["q3"] - s["q1"]) / abs(s["median"]) for s in (p, c)) > bound
    apart = min(sign * v for v in change) > max(sign * v for v in parent)
    if wide and not apart:
        verdict = "unresolved"
    else:
        verdict = "within" if worse <= bound else "exceeded"
    return {
        "parent": p,
        "change": c,
        "change_better_pairs": won,
        "claim": {
            "pairs": len(parent),
            "pairs_needed": int(np.ceil(CLAIM_SHARE * len(parent))),
            "median_gain": gain,
            "parent_quartile_distance": parent_iqr,
            "holds": won >= CLAIM_SHARE * len(parent) and gain > parent_iqr,
        },
        "bound": {
            "bound": bound,
            "relative_worsening": worse,
            "verdict": verdict,
        },
    }


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run in the checkout ``root``; its last JSON line."""
    shutil.rmtree(root / "perfbench" / "out", ignore_errors=True)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{root}: seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_pairs(parent: Path, change: Path, workload: str, seeds, seconds: float):
    """Every run of both sides, in seed order, and which side ran first."""
    runs = {"parent": [], "change": []}
    first = []
    for k, seed in enumerate(seeds):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        first.append(order[0])
        for side in order:
            root = parent if side == "parent" else change
            runs[side].append(run_once(root, workload, seed, seconds))
            print(f"{workload} seed {seed} {side}: "
                  + json.dumps({n: m["value"] for n, m in runs[side][-1]["metrics"].items()}),
                  flush=True)
    return runs, first


def workload_entry(runs, first, seeds, metrics) -> dict:
    """The ``end_to_end`` entry of one workload from the runs of both sides."""
    out = {"seeds": list(seeds), "first": first, "metrics": {}}
    for spec in metrics:
        name = spec["name"]
        values = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in runs}
        out["metrics"][name] = {"unit": spec["unit"], "better": spec["better"],
                                **summarize(values["parent"], values["change"],
                                            spec["better"], spec["bound"])}
    out["failed"] = {side: [r["failed"] for r in runs[side]] for side in runs}
    out["correct"] = all(r["correct"] for side in runs for r in runs[side])
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    spec = json.loads((args.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    runs, first = run_pairs(args.parent.resolve(), args.change.resolve(),
                            args.workload, args.seeds, seconds)
    doc = (json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists()
           else {"command": f"python3 perfbench/run.py --workload W --seed S "
                            f"--seconds {seconds:g} --trace 0, from the root of "
                            f"each checkout, with perfbench/out/ removed before every run"})
    doc.setdefault("workloads", {})[args.workload] = {
        "end_to_end": workload_entry(runs, first, args.seeds, spec["end_to_end"])}
    args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
