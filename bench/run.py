"""Benchmark of ``bandtopo``: one workload per run, as a closed loop.

    python3 bench/run.py --workload lattice-lines --seed 0 --seconds 40 --trace 0

Run from the repository root.  The run builds its seeded inputs, then
repeats passes over the workload's cases, one case at a time in this
process, until the next pass would end after ``--seconds``; an untraced
run then fills the time left with the leading cases that fit.  BLAS is pinned
to one thread and ``BANDTOPO_THREADS`` is left at its default of 1, so
this is the plain single-threaded baseline.  Every answer is checked
against a reference from theory or from an independent oracle
(``workloads.py``).

``attempted`` counts the run's seeded cases and ``failed`` those that
failed in any pass, so both are fixed by the seed, not by the time.
``--trace 0`` reports the end-to-end metrics (per-case medians over
passes, and for ``setup_s`` the median of the set-ups made at the start
and between passes);
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of ``tracer.py`` (medians over traced passes) with the
tracing overhead.  Human-readable lines come first; the last line of
standard output is the JSON result.
"""

from __future__ import annotations

import os
import sys

# pin every BLAS/OpenMP pool before numpy is imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("BANDTOPO_THREADS", None)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

# set-ups at the start, then between untraced passes, so the median
# set-up time samples the host across the whole run, not one moment of it
SETUP_REPEATS = 5
SETUP_BETWEEN = 6
MIN_PASSES = 2

END_TO_END_UNITS = {
    "wall_s": "s",
    "case_s_max": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def per_layer_units():
    from tracer import COUNT_METRICS, TIME_METRICS

    units = {name: "s" for name in TIME_METRICS}
    units.update({name: "count" for name in COUNT_METRICS})
    units["model.kpoints_per_call"] = "kpoint/call"
    units["trace.wall_s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


# -- set-up ------------------------------------------------------------------


def _purge_bandtopo():
    for name in list(sys.modules):
        if name == "bandtopo" or name.startswith("bandtopo."):
            del sys.modules[name]


def timed_setup(workload, seed, work_dir, tiny, repeats):
    """Import bandtopo and build the workload's inputs, ``repeats`` times
    from a fresh import; returns the last cases and every set-up time."""
    import importlib

    from workloads import WORKLOADS

    times = []
    cases = None
    for _ in range(repeats):
        shutil.rmtree(work_dir, ignore_errors=True)
        start = time.perf_counter()
        _purge_bandtopo()
        importlib.import_module("bandtopo")
        importlib.import_module("bandtopo.cli")
        os.makedirs(work_dir, exist_ok=True)
        cases = WORKLOADS[workload](seed, str(work_dir), tiny)
        times.append(time.perf_counter() - start)
    pkg = Path(sys.modules["bandtopo"].__file__).resolve()
    if SRC.resolve() not in pkg.parents:
        raise RuntimeError(f"bandtopo imported from {pkg}, not from {SRC}")
    return cases, times


# -- passes ----------------------------------------------------------------------


def run_pass(cases, tracer=None):
    """Run every case once, back to back; check the answers afterwards."""
    raws, errors, case_s = [], [], []
    start = time.perf_counter()
    for case in cases:
        t0 = time.perf_counter()
        try:
            raws.append(case.run())
            errors.append(None)
        except Exception as exc:  # a crash is a failed case, not a failed run
            raws.append(None)
            errors.append(traceback.format_exception_only(exc)[-1].strip())
        case_s.append(time.perf_counter() - t0)
    wall = time.perf_counter() - start
    layers = tracer.metrics() if tracer is not None else None

    from workloads import CheckFailed, Outcome

    outcomes = []
    for case, raw, err in zip(cases, raws, errors):
        if err is not None:
            outcomes.append(Outcome("wrong", f"exception: {err}"))
            continue
        try:
            outcomes.append(case.check(raw))
        except CheckFailed as exc:
            outcomes.append(Outcome("wrong", str(exc)))
        except Exception as exc:  # malformed output
            outcomes.append(Outcome("wrong", f"check raised {exc!r}"))
    return {
        "traced": tracer is not None,
        "wall_s": wall,
        "case_s": case_s,
        "outcomes": outcomes,
        "layers": layers,
    }


def _per_case(passes, key):
    """``key`` of every pass, regrouped by case; the last pass may be partial."""
    n_cases = max(len(p[key]) for p in passes)
    return [[p[key][i] for p in passes if i < len(p[key])] for i in range(n_cases)]


def _cases_that_fit(passes, seconds_left):
    """How many leading cases fit in ``seconds_left`` at their median times."""
    fit = 0
    for times in _per_case(passes, "case_s"):
        seconds_left -= statistics.median(times)
        if seconds_left < 0:
            break
        fit += 1
    return fit


def run_benchmark(workload, seed, seconds, trace, tiny=False):
    """One benchmark run in this process; returns (result, record)."""
    from tracer import Tracer, bindings_snapshot, unrestored
    from workloads import attach_random_oracles

    work_dir = OUT_DIR / f"work-{os.getpid()}"
    try:
        cases, setup_times = timed_setup(workload, seed, work_dir, tiny, SETUP_REPEATS)
        attach_random_oracles(cases)
        tracer = Tracer() if trace else None
        snapshot = bindings_snapshot()
        passes = []
        start = time.perf_counter()
        while True:
            traced = trace and len(passes) % 2 == 1
            if traced:
                tracer.reset()
                try:
                    tracer.install()
                    passes.append(run_pass(cases, tracer))
                finally:
                    tracer.remove()
            else:
                passes.append(run_pass(cases))
            elapsed = time.perf_counter() - start
            typical = statistics.median(p["wall_s"] for p in passes)
            if len(passes) >= MIN_PASSES and elapsed + typical > seconds:
                if not trace:
                    # fill the rest of the time with the leading cases that fit
                    fit = _cases_that_fit(passes, seconds - elapsed)
                    if fit:
                        passes.append(run_pass(cases[:fit]))
                break
            if not trace:
                # the same seed builds the same cases; the oracle carries over
                fresh, more = timed_setup(workload, seed, work_dir, tiny, SETUP_BETWEEN)
                for old, new in zip(cases, fresh):
                    if "oracle_points" in old.info:
                        new.info["oracle_points"] = old.info["oracle_points"]
                cases = fresh
                setup_times += more
        left_over = unrestored(snapshot) if trace else []
        spans_file = None
        if trace:
            OUT_DIR.mkdir(exist_ok=True)
            spans_file = OUT_DIR / f"spans-{workload}-seed{seed}.json"
            with open(spans_file, "w", encoding="utf-8") as fh:
                json.dump(tracer.dump(), fh)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    plain = [p for p in passes if not p["traced"]]
    metrics = {}
    if trace:
        traced = [p for p in passes if p["traced"]]
        for name in traced[0]["layers"]:
            metrics[name] = statistics.median(p["layers"][name] for p in traced)
        traced_wall = statistics.median(p["wall_s"] for p in traced)
        metrics["trace.wall_s"] = traced_wall
        metrics["trace.overhead_s"] = traced_wall - statistics.median(p["wall_s"] for p in plain)
        units = per_layer_units()
    else:
        # a pass's time as the sum of each case's median, and the slowest
        # case by its median: medians over every case sample of the run, so
        # a host slowdown within one pass moves neither
        case_medians = [statistics.median(times) for times in _per_case(plain, "case_s")]
        metrics["wall_s"] = sum(case_medians)
        metrics["case_s_max"] = max(case_medians)
        metrics["setup_s"] = statistics.median(setup_times)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        units = END_TO_END_UNITS

    # an operation is one seeded case; the passes repeat it for timing, so
    # attempted and failed do not depend on how many passes fit the time
    per_case = _per_case(passes, "outcomes")
    attempted = len(per_case)
    failed = sum(any(o.status != "ok" for o in runs) for runs in per_case)
    result = {
        "correct": not any(o.status == "wrong" for runs in per_case for o in runs)
        and not left_over,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(bool(trace)),
        "host": host_facts(seed),
        "cases": [{"name": c.name, **c.info} for c in cases],
        "setup_s": setup_times,
        "passes": [
            {
                "traced": p["traced"],
                "wall_s": p["wall_s"],
                "case_s": p["case_s"],
                "outcomes": [[o.status, o.detail] for o in p["outcomes"]],
            }
            for p in passes
        ],
        "fail_frac": failed / attempted,
        "unrestored": left_over,
        "spans_file": str(spans_file.relative_to(ROOT)) if spans_file else None,
        "result": result,
    }
    return result, record


# -- host facts ----------------------------------------------------------------------


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "bandtopo").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def host_facts(seed):
    import numpy
    import scipy
    import sympy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "sympy": sympy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "bandtopo_threads": os.environ.get("BANDTOPO_THREADS", "default (1)"),
        "seed": seed,
        "commit": _git_commit(),
        "src_sha256": _src_digest(),
    }


# -- entry point -------------------------------------------------------------------------


def _print_summary(result, record):
    first = record["passes"][0]
    for case, (status, detail), secs in zip(record["cases"], first["outcomes"], first["case_s"]):
        line = f"case {case['name']}: {status} ({secs:.3f} s)"
        print(line + (f": {detail}" if detail else ""))
    for p_idx, p in enumerate(record["passes"][1:], start=1):
        for case, outcome, first_outcome in zip(record["cases"], p["outcomes"], first["outcomes"]):
            if outcome != first_outcome:
                print(f"pass {p_idx} case {case['name']}: {outcome[0]}: {outcome[1]}")
    n_cases = len(record["cases"])
    walls = ", ".join(
        f"{p['wall_s']:.3f}{'*' if p['traced'] else ''}"
        + ("" if len(p["case_s"]) == n_cases else f" ({len(p['case_s'])} of {n_cases} cases)")
        for p in record["passes"]
    )
    print(f"passes: {len(record['passes'])} (wall s, * traced: {walls})")
    print(f"fail_frac: {record['fail_frac']:.4f} ratio ({result['failed']}/{result['attempted']} cases)")
    for name, m in result["metrics"].items():
        print(f"{name}: {m['value']:.6g} {m['unit']}")
    print("host: " + json.dumps(record["host"], sort_keys=True))
    print(json.dumps(result, sort_keys=True))


def main(argv=None):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="also write the full run record (JSON) here")
    args = parser.parse_args(argv)

    if not (SRC / "bandtopo" / "__init__.py").is_file():
        print(f"error: no bandtopo sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result, record = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    if args.record:
        with open(args.record, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
            fh.write("\n")
    _print_summary(result, record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
