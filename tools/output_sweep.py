"""Run the posmap commands over the benchmark's seeded inputs, one file per run.

    python3 tools/output_sweep.py OUTDIR

Inputs are seeds 1-5 of the four benchmark workloads (``tang``,
``decomposable``, ``nonpositive``, ``faceform``), generated by
``WORKLOADS[w].generate(case_rng(seed, w), pool)`` from ``perfbench/`` and
written to ``OUTDIR`` as matrix files.  Every run goes through
``posmap.cli.main``:

* ``classify`` on every input, with ``--max-iters 2000`` for ``tang`` and
  ``faceform``, and the input's own ``--seed``; its ``timings`` are removed,
  since they differ from run to run;
* ``decompose`` on the ``decomposable`` and ``nonpositive`` inputs, and on
  the first two ``tang`` inputs of each seed (one raw, one normalized);
* ``canonical`` on the ``faceform`` inputs;
* ``tang --out`` at six (mu, eps, stage).

Every input and every run leaves one file.  Run the sweep on two checkouts
and compare with ``diff -r OUTDIR_A OUTDIR_B``: no output means every report
is byte-identical.  It prints the number of runs and each run that exited
non-zero, and exits 1 when any did.  It imports ``posmap`` from the
checkout's ``src/`` and only reads ``perfbench/``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from posmap import cli  # noqa: E402
from workloads import WORKLOADS, case_rng, write_matrix  # noqa: E402

SEEDS = range(1, 6)

#: Workloads whose ``classify`` runs take the short iteration cap.
SHORT_CAP = {"tang", "faceform"}

#: The ``tang`` runs: (mu, eps, stage).
TANG_POINTS = [(mu, eps, stage) for mu, eps in ((0.9, 0.12), (0.5, 0.04), (0.3, 0.01))
               for stage in ("raw", "normalized")]


def runs(outdir: Path):
    """Yield ``(output path, argv)`` for every run, writing the inputs first."""
    for seed in SEEDS:
        for name, wl in WORKLOADS.items():
            for case in wl.generate(case_rng(seed, name), wl.pool):
                stem = f"{name}-s{seed}-{case.index:03d}"
                src = outdir / f"{stem}.input.json"
                write_matrix(src, case.H)
                cap = ["--max-iters", "2000"] if name in SHORT_CAP else []
                yield (outdir / f"{stem}.classify.json",
                       ["classify", str(src), "--seed", str(case.seed), *cap])
                if name in ("decomposable", "nonpositive") or (
                        name == "tang" and case.index < 2):
                    yield outdir / f"{stem}.decompose.json", ["decompose", str(src)]
                if name == "faceform":
                    yield outdir / f"{stem}.canonical.json", ["canonical", str(src)]
    for mu, eps, stage in TANG_POINTS:
        yield (outdir / f"tang-{mu}-{eps}-{stage}.json",
               ["tang", "--mu", str(mu), "--eps", str(eps), "--stage", stage])


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print(__doc__.split("\n\n")[1].strip(), file=sys.stderr)
        return 2
    outdir = Path(args[0])
    outdir.mkdir(parents=True, exist_ok=True)
    count, failed = 0, []
    for out, argv_run in runs(outdir):
        count += 1
        code = cli.main([*argv_run, "--out", str(out)])
        if code != 0:
            failed.append(f"exit {code}: {' '.join(argv_run)}")
        elif argv_run[0] == "classify":
            report = json.loads(out.read_text(encoding="utf-8"))
            del report["timings"]
            out.write_text(json.dumps(report) + "\n", encoding="utf-8")
    print(f"{count} runs, {len(failed)} exited non-zero")
    for line in failed:
        print(line)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
