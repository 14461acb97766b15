"""moczsim benchmark: run one workload from one process and print its metrics.

    python3 bench/run.py --workload ber_awgn_k127 --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout; the package is imported from
``src/``.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` runs the
same calls once plain and once with span wrappers and prints the per-layer
metrics.  The last line of standard output is one JSON object; lines before
it start with ``#`` and are information only.  See ``bench/README.md``.
"""

import os

# Pinned before numpy is imported: encode_batch multiplies (K+1)xK by KxB
# matrices, and BLAS threads would add parallelism that no setting counts.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_PROBES = 3  # set-up is timed this many times per run; the median is reported
MIN_CALLS = 3  # timed calls per run, however long each takes


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def setup_seconds(workload: str) -> float:
    """Process start to "ready" of one fresh probe process."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "probe_setup.py"), workload],
        stdout=subprocess.PIPE, text=True, cwd=ROOT,
    )
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.communicate(timeout=120)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return elapsed


def timed_calls(prepared, seed, seconds=None, count=None, runner=None):
    """Calls 0, 1, ... until ``seconds`` have passed (at least MIN_CALLS) or ``count`` are done."""
    calls = []
    start = time.perf_counter()
    while True:
        calls.append(prepared.call(seed, len(calls), runner))
        if count is not None:
            if len(calls) >= count:
                return calls
        elif len(calls) >= MIN_CALLS and time.perf_counter() - start >= seconds:
            return calls


def digest(records) -> str:
    text = json.dumps(records, sort_keys=True, default=float)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def git_describe() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return out.stdout.strip() if out.returncode == 0 else "unavailable"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def stamp(prepared) -> dict:
    import moczsim
    import numpy
    import scipy

    config = json.dumps(moczsim.config_to_dict(prepared.cfg), sort_keys=True)
    return {
        "moczsim": moczsim.__version__,
        "git_describe": git_describe(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {
            var: os.environ.get(var)
            for var in ("MOCZSIM_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                        "MKL_NUM_THREADS")
        },
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "config_sha256": hashlib.sha256(config.encode()).hexdigest(),
    }


def info(label: str, value) -> None:
    print(f"# {label}: {json.dumps(value, default=str)}")


def report_calls(calls, label: str) -> None:
    walls = [c.wall_s for c in calls]
    info(label, {
        "calls": len(calls),
        "work_per_call": calls[0].work,
        "wall_s_min_median_max": [min(walls), statistics.median(walls), max(walls)],
    })
    for c in calls:
        for problem in c.problems:
            print(f"# check failed, call {c.index} (seed {c.seed}): {problem}")


def end_to_end(prepared, args) -> tuple[dict, list]:
    setup = [setup_seconds(args.workload) for _ in range(SETUP_PROBES)]
    calls = timed_calls(prepared, args.seed, seconds=args.seconds)
    report_calls(calls, "timed calls")
    info("setup_s samples", setup)
    # All work over all timed wall: slow and fast phases of a shared host
    # last seconds, so averaging over the whole run is steadier than a
    # median of a few calls.
    throughput = sum(c.work for c in calls) / sum(c.wall_s for c in calls)
    attempted = len(calls) * prepared.records_per_call
    failed = sum(c.failed for c in calls)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    info("throughput", {prepared.workload.rate_metric: throughput})
    metrics = {
        "throughput": (throughput, "1/s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        "ok_share": ((attempted - failed) / attempted, "share"),
    }
    return metrics, calls


def traced_run(prepared, args) -> tuple[dict, list]:
    import spans

    plain = timed_calls(prepared, args.seed, seconds=args.seconds / 2.0)
    recorder = spans.Recorder()

    def in_run_span(entry, cfg):
        return recorder.root(spans.RUN_SPAN, entry, cfg)

    with spans.traced(recorder):
        traced = timed_calls(prepared, args.seed, count=len(plain), runner=in_run_span)
    report_calls(plain, "plain calls")
    report_calls(traced, "traced calls")
    for a, b in zip(plain, traced):
        if a.records and digest(a.records) != digest(b.records):
            b.failed = prepared.records_per_call
            b.problems.append("traced output differs from plain output")
            print(f"# check failed, call {b.index}: traced output differs from plain output")

    metrics = spans.layer_metrics(recorder, prepared.workload.threads)
    metrics["trace.overhead"] = (
        sum(c.wall_s for c in traced) / sum(c.wall_s for c in plain), "ratio")

    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"trace_{args.workload}_seed{args.seed}.json"
    path.write_text(json.dumps(recorder.to_json()))
    info("spans written", str(path.relative_to(ROOT)))
    return metrics, plain + traced


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "moczsim" / "__init__.py").is_file():
        print(f"error: no moczsim source tree under {ROOT}/src", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    os.environ["MOCZSIM_THREADS"] = str(workload.threads)

    prepared = workloads.Prepared(workload)
    info("stamp", stamp(prepared))
    metrics, calls = (traced_run if args.trace else end_to_end)(prepared, args)
    info("digest of call 0 records", digest(calls[0].records))

    attempted = len(calls) * prepared.records_per_call
    failed = sum(c.failed for c in calls)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
