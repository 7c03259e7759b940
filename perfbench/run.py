"""posmap benchmark: time to a checked verdict, end to end and per layer.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload decomposable --seed 1 --seconds 50 --trace 0

One process, one client, closed loop: each operation starts when the previous
one has returned and been checked.  Inputs come from ``--seed``; every verdict
is checked outside the timed window against the answer known from how the
input was built.  With ``--trace 0`` the last line of standard output is a JSON
object carrying the end-to-end metrics.  Operation timings there are given in
reference steps, a fixed numpy-only task timed between operations, so that
the machine's drifting speed cancels (see README.md); raw seconds are printed
above it.  With ``--trace 1`` the last line carries the per-layer metrics of a
traced run, which pairs every operation with an untraced run of the same
input to measure the tracing overhead.  Full results, spans and the layer
table are written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: Set-ups per run; ``setup_s`` reports their median.
SETUP_REPEATS = 9

#: Run in a fresh interpreter to time the import of numpy and posmap.
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import numpy, posmap; "
                "print(time.perf_counter() - t)")

WORKLOAD_NAMES = ("decomposable", "nonpositive", "tang", "faceform")

#: Steps per reference slice, and the share of a run's time that slices take.
#: A reference step is the kernel posmap's solvers repeat: eigendecompose a
#: fixed 8x8 complex Hermitian matrix, clip its spectrum and rebuild it.
REF_STEPS = 500
REF_SHARE = 0.05

#: Environment variables that set the BLAS thread count, recorded as provenance.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv, workload_names):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workload_names)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def import_program():
    """Import posmap from this checkout's ``src/``, and nothing else."""
    src = ROOT / "src"
    if not (src / "posmap" / "__init__.py").is_file():
        sys.exit(f"error: posmap sources not found under {src}")
    sys.path.insert(0, str(src))
    import posmap

    if Path(posmap.__file__).resolve().parent != (src / "posmap").resolve():
        sys.exit(f"error: imported posmap from {posmap.__file__}, not from {src}")
    import workloads

    return workloads


def git_commit(root: Path) -> str:
    """HEAD of the checkout's git repository, if it is one.

    Git does not look above the checkout, so a repository around it is not
    mistaken for the checkout's own.
    """
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return "unavailable (no git)"
    if head.returncode != 0:
        return "unavailable (not a git checkout)"
    return head.stdout.strip()


def source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src" / "posmap").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance(args) -> dict:
    from posmap import cli

    defaults = cli.make_parser().parse_args(["classify", "input.json"])
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {k: os.environ.get(k, "unset") for k in BLAS_ENV},
        "classify_budgets": {"budget": defaults.budget,
                             "witness_restarts": defaults.witness_restarts,
                             "max_iters": defaults.max_iters},
        "git_commit": git_commit(ROOT),
        "source_sha256": source_digest(ROOT),
        "loop": "closed, one client, one process",
    }


def import_seconds() -> float:
    """Time to import numpy and posmap in a fresh interpreter."""
    probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src")],
                           capture_output=True, text=True, check=True, timeout=120)
    return float(probe.stdout.split()[-1])


def set_up(wl, workloads, seed, workdir):
    """Generate and stage the inputs, then warm up; returns (cases, seconds)."""
    t0 = time.perf_counter()
    cases = wl.generate(workloads.case_rng(seed, wl.name), wl.pool)
    wl.prepare(cases, workdir)
    warm = workloads.warmup_case(wl)
    wl.prepare([warm], workdir)
    wl.run(warm)
    return cases, time.perf_counter() - t0


def timed_op(wl, case, verdicts):
    """Run one operation; returns (seconds, outcome).  Never raises."""
    t0 = time.perf_counter()
    try:
        result = wl.run(case)
    except SystemExit as exc:
        result = (exc.code, None)
    except Exception as exc:  # a failing operation is counted, not fatal
        seconds = time.perf_counter() - t0
        tb = traceback.format_exception_only(type(exc), exc)[-1].strip()
        return seconds, verdicts.Outcome(verdicts.ERROR, tb)
    seconds = time.perf_counter() - t0
    try:
        outcome = wl.check(case, result)
    except Exception as exc:  # a checker crash on odd output is a failed op
        outcome = verdicts.Outcome(verdicts.INVALID, f"checker: {exc!r}")
    return seconds, outcome


def reference_matrix():
    rng = np.random.default_rng(705_0798)
    G = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    return G + G.conj().T


def reference_step_seconds(R) -> float:
    """Seconds per reference step, timed over :data:`REF_STEPS` steps.

    The step uses numpy alone, never posmap, so a change to posmap cannot
    move it; a change in the machine's speed moves it and the operations
    alike.
    """
    t0 = time.perf_counter()
    for _ in range(REF_STEPS):
        w, V = np.linalg.eigh(R)
        P = (V * np.clip(w, 0.0, None)) @ V.conj().T
        float(np.linalg.norm((P + P.conj().T) / 2.0 - R))
    return (time.perf_counter() - t0) / REF_STEPS


def summarize(records, ref_step_s):
    """Counts, raw timings, and timings in reference steps (``ref``)."""
    n = len(records)
    times = [r["seconds"] for r in records]
    count = {s: sum(r["status"] == s for r in records)
             for s in ("ok", "undecided", "wrong_verdict", "invalid_evidence", "error")}
    failed = count["wrong_verdict"] + count["invalid_evidence"] + count["error"]
    summary = {
        "samples": n,
        "failed": failed,
        "ops_per_s": n / sum(times),
        "op_s.p50": statistics.median(times),
        "op_s.p90": statistics.quantiles(times, n=10)[8] if n >= 100 else None,
        "ops_per_kref": 1000.0 * n * ref_step_s / sum(times),
        "op_ref.p50": statistics.median(times) / ref_step_s,
        "ref_step_s": ref_step_s,
        "failed_share": failed / n,
        "wrong_verdict_share": count["wrong_verdict"] / n,
        "undecided_share": count["undecided"] / n,
        "outcomes": count,
    }
    return summary


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(wl, cases, seconds, tracer, verdicts, set_up_again):
    """Closed loop over the cases until ``seconds`` have passed.

    Untraced, each operation is one record.  Traced, each input runs twice,
    traced and untraced in alternating order, and the pair's times are kept
    to measure the tracing overhead.  Between operations, never inside one,
    reference slices run until they have taken :data:`REF_SHARE` of the time
    so far, and ``set_up_again`` runs whenever the run is another
    1/:data:`SETUP_REPEATS` of the way through, so that both sample the
    machine's speed across the whole run.  Set-ups do not count toward
    ``seconds``; any left at the end run then.  Returns the records, the pairs
    and the run's mean reference step in seconds.
    """
    R = reference_matrix()
    records, paired, slices = [], [], []
    setups_done, setup_clock = 1, 0.0

    def reference_slice():
        slices.append(reference_step_seconds(R))

    def elapsed():
        return time.perf_counter() - start - setup_clock

    reference_slice()
    start = time.perf_counter()
    k = 0
    while elapsed() < seconds:
        case = cases[k % len(cases)]
        order = (None,) if tracer is None else ((False, True) if k % 2 == 0 else (True, False))
        pair = {}
        for traced in order:
            if tracer is not None:
                tracer.op_id = k
                tracer.active = traced
            op_seconds, outcome = timed_op(wl, case, verdicts)
            if tracer is not None:
                tracer.active = False
            pair[traced] = op_seconds
            records.append({"case": case.label, "seconds": op_seconds, "traced": traced,
                            "status": outcome.status, "detail": outcome.detail})
            while sum(slices) * REF_STEPS < REF_SHARE * elapsed():
                reference_slice()
            while (setups_done < SETUP_REPEATS
                   and elapsed() >= setups_done * seconds / SETUP_REPEATS):
                t0 = time.perf_counter()
                set_up_again()
                setups_done += 1
                setup_clock += time.perf_counter() - t0
        paired.append(pair)
        k += 1
    reference_slice()
    for _ in range(setups_done, SETUP_REPEATS):
        set_up_again()
    return records, paired, statistics.fmean(slices)


def main(argv=None) -> int:
    args = parse_args(argv, WORKLOAD_NAMES)
    workloads = import_program()
    import layertrace
    import verdicts

    wl = workloads.WORKLOADS[args.workload]

    # A set-up is an import in a fresh interpreter, input generation and
    # staging, and one warm-up operation.  The first runs before measuring;
    # ``measure`` runs the others between operations.
    setups = []

    def set_up_again():
        import_s = import_seconds()
        cases, seconds = set_up(wl, workloads, args.seed, OUT / "work")
        setups.append((import_s, seconds))
        return cases

    cases = set_up_again()
    tracer = layertrace.LayerTracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    try:
        records, paired, ref_step_s = measure(wl, cases, args.seconds, tracer, verdicts,
                                              set_up_again)
    finally:
        if tracer is not None:
            tracer.uninstall()
    setup_s = statistics.median(i + s for i, s in setups)

    summary = summarize(records, ref_step_s)
    prov = provenance(args)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    print(f"posmap benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("provenance " + json.dumps(prov, sort_keys=True))

    samples = f"(samples {summary['samples']})"
    if tracer is None:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "ops_per_kref": {"value": summary["ops_per_kref"], "unit": "1/kref"},
            "op_ref.p50": {"value": summary["op_ref.p50"], "unit": "ref"},
            "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
        }
        p90 = summary["op_s.p90"]
        lines = [
            f"setup_s             {setup_s:.6f} s  (median of {SETUP_REPEATS} set-ups, "
            f"import + inputs and warm-up: "
            f"{', '.join(f'{i:.4f}+{s:.4f}' for i, s in setups)})",
            f"setup_ref           {setup_s / ref_step_s:.1f} ref  (setup_s in reference steps)",
            f"ops_per_kref        {summary['ops_per_kref']:.6f} 1/kref  {samples}",
            f"op_ref.p50          {summary['op_ref.p50']:.3f} ref  {samples}",
            f"ref_step_s          {summary['ref_step_s']:.4e} s  (mean reference step)",
            f"ops_per_s           {summary['ops_per_s']:.6f} 1/s  {samples}",
            f"op_s.p50            {summary['op_s.p50']:.6f} s  {samples}",
            f"op_s.p90            n/a  (needs >= 100 samples) {samples}" if p90 is None
            else f"op_s.p90            {p90:.6f} s  {samples}",
        ]
    else:
        untraced = sum(p[False] for p in paired)
        traced = sum(p[True] for p in paired)
        overhead = traced / untraced - 1.0
        specs = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]
        metrics = layertrace.layer_metrics(tracer, specs, len(paired), overhead)
        rows = layertrace.layer_table(tracer, len(paired), traced)
        layertrace.write_table(OUT / f"layers-{tag}.json", rows)
        tracer.write_spans(OUT / f"spans-{tag}.npz")
        lines = [
            f"traced ops {len(paired)}, each paired with an untraced run; "
            f"tracing overhead {100 * overhead:.2f}% "
            f"(traced {traced:.3f} s vs untraced {untraced:.3f} s)",
            f"spans recorded {len(tracer.span_start)}",
            layertrace.format_table(rows),
        ] + [f"{name:40s} {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]

    counts = summary["outcomes"]
    lines += [
        f"failed_share        {summary['failed_share']:.6f}  "
        f"({summary['failed']}/{summary['samples']})",
        f"wrong_verdict_share {summary['wrong_verdict_share']:.6f}  "
        f"({counts['wrong_verdict']}/{summary['samples']})",
        f"undecided_share     {summary['undecided_share']:.6f}  "
        f"({counts['undecided']}/{summary['samples']})",
        f"peak_rss_mb         {peak_rss_mb():.3f} MB",
    ]
    failures = [r for r in records if r["status"] in verdicts.FAILED]
    lines += [f"FAILED {r['case']}: {r['status']}: {r['detail']}" for r in failures[:5]]
    print("\n".join(lines))

    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"result-{tag}.json").write_text(json.dumps({
        "provenance": prov, "setup_runs_s": setups,
        "summary": summary, "metrics": metrics, "records": records,
    }, indent=1) + "\n", encoding="utf-8")

    print(json.dumps({
        "correct": summary["failed"] == 0,
        "attempted": summary["samples"],
        "failed": summary["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
