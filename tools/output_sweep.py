"""Run the posmap commands over the benchmark's seeded inputs, one file per run.

    python3 tools/output_sweep.py OUTDIR
    python3 tools/output_sweep.py --compare OUTDIR_A OUTDIR_B

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

Every input and every run leaves one file.  It prints the number of runs and
each run that exited non-zero, and exits 1 when any did.  It imports
``posmap`` from the checkout's ``src/`` and only reads ``perfbench/``.

Run the sweep on two checkouts and compare the two directories with
``--compare``.  For each command and workload it prints how many files
differ and, for each JSON path that differs (list indices written ``[]``),
the number of files and the first few of them.  A file on one side only is
listed as such.  It exits 1 when the two sides do not hold the same files,
or when a verdict differs: a ``status`` or ``decomposed`` field anywhere, or
a value that sits directly under ``flags`` (``cp``, ``ccp``,
``decomposable``, ``equality_case``); each such difference is printed with
both values.  No output past the summary line means every file is
byte-identical.
"""

from __future__ import annotations

import json
import re
import sys
from collections import defaultdict
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


#: ``WORKLOAD-sSEED-INDEX.COMMAND.json``; a ``tang`` run is ``tang-MU-EPS-STAGE.json``.
SWEEP_FILE = re.compile(r"(?P<workload>[a-z]+)-s\d+-\d+\.(?P<command>[a-z]+)\.json")

#: How many files ``--compare`` names for each differing path.
EXAMPLES = 3


def group(name: str) -> tuple[str, str]:
    """``(command, workload)`` of a sweep file; ``input`` for an input matrix."""
    m = SWEEP_FILE.fullmatch(name)
    if m:
        return m["command"], m["workload"]
    return "tang", name.rsplit("-", 1)[-1].removesuffix(".json")


def differences(a, b, path=()):
    """Yield ``(path, value_a, value_b)`` for every leaf where ``a`` and ``b`` differ."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in [*a, *(k for k in b if k not in a)]:
            yield from differences(a.get(key), b.get(key), (*path, key))
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for x, y in zip(a, b):
            yield from differences(x, y, (*path, "[]"))
    elif a != b or type(a) is not type(b):
        yield path, a, b


def is_verdict(path: tuple) -> bool:
    return bool(path) and (path[-1] in ("status", "decomposed")
                           or (len(path) == 2 and path[0] == "flags"))


def show(path: tuple) -> str:
    return ".".join(str(k) for k in path).replace(".[]", "[]") or "(whole file)"


def compare(dir_a: Path, dir_b: Path) -> int:
    """Print the differences between two sweep directories; 1 on a verdict change."""
    names_a = {p.name for p in dir_a.iterdir()}
    names_b = {p.name for p in dir_b.iterdir()}
    totals, changed = defaultdict(int), defaultdict(set)
    paths = defaultdict(lambda: defaultdict(list))
    verdicts = []
    for name in sorted(names_a & names_b):
        key = group(name)
        totals[key] += 1
        raw_a, raw_b = (d.joinpath(name).read_bytes() for d in (dir_a, dir_b))
        if raw_a == raw_b:
            continue
        changed[key].add(name)
        seen = set()
        for path, x, y in differences(json.loads(raw_a), json.loads(raw_b)):
            if is_verdict(path):
                verdicts.append(f"{name}: {show(path)} {x!r} -> {y!r}")
            if path not in seen:
                seen.add(path)
                paths[key][path].append(name)
    print(f"{len(names_a & names_b)} files on both sides, "
          f"{sum(map(len, changed.values()))} differ, {len(verdicts)} verdicts differ")
    for key in sorted(changed):
        print(f"{key[0]} {key[1]}: {len(changed[key])} of {totals[key]} files differ")
        for path, names in sorted(paths[key].items(), key=lambda item: show(item[0])):
            more = ", ..." if len(names) > EXAMPLES else ""
            print(f"  {show(path)}: {len(names)} ({', '.join(names[:EXAMPLES])}{more})")
    for side, only in ((dir_a, names_a - names_b), (dir_b, names_b - names_a)):
        for name in sorted(only):
            print(f"only in {side}: {name}")
    for line in verdicts:
        print(f"verdict: {line}")
    return 1 if verdicts or names_a != names_b else 0


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) == 3 and args[0] == "--compare":
        return compare(Path(args[1]), Path(args[2]))
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
