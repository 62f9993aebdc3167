"""Client-side benchmark of the video database service.

Run from the root of a checkout::

    python3 clientbench/run.py --workload query-large --seed 1 --seconds 40 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer ones (see
``clientbench/README.md``).  The line before it carries the run's
provenance.  ``--smoke`` shrinks the corpus for a quick check, and
``--steadiness N`` runs one workload N times with one seed and prints
the spread of every metric.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

#: Exact counts: they must repeat across runs of one seed within this
#: relative tolerance (the steadiness report flags any that do not).
EXACT_COUNTS = ("write_kb_per_video", "store_kb_per_shot",
                "index.rows_examined_per_result", "sbd.stage3_pair_share")
EXACT_TOLERANCE = 0.005


def _checkout() -> Path:
    """The checkout under test: the current directory, which must hold
    the program's sources."""
    root = Path.cwd()
    if not (root / "src" / "repro" / "__main__.py").is_file():
        raise SystemExit(f"no program sources under {root / 'src'}; run from a checkout root")
    sys.path.insert(0, str(root / "src"))
    return root


def run_once(args: argparse.Namespace) -> int:
    root = _checkout()
    import layers
    from client import provenance
    from workloads import SPECS, RunFailed, Workload

    workload = Workload(SPECS[args.workload], root, args.seed, float(args.seconds),
                        bool(args.trace), args.smoke)
    try:
        workload.prepare()
        workload.setup()
        workload.drive()
        workload.crash_and_verify()
        summary = workload.check_answers()
        if args.trace:
            metrics = layers.per_layer(workload)
        else:
            metrics = workload.end_to_end()
    except (RunFailed, RuntimeError, OSError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        for error in workload.tally.errors:
            print(f"  {error}", file=sys.stderr)
        return 1
    finally:
        workload.cleanup()
    for problem in workload.problems:
        print(f"problem: {problem}", file=sys.stderr)
    for error in workload.tally.errors:
        print(f"failed operation: {error}", file=sys.stderr)
    info = {
        "provenance": provenance(root),
        "workload": args.workload,
        "seed": args.seed,
        "answers_checked": summary["checked"],
        "videos_acknowledged": len(workload.acknowledged),
        "samples": {kind: len(values) for kind, values in workload.tally.samples.items()},
        "read_steps": {kind: len(workload.tally.step_means(kind)) for kind in workload.tally.steps},
        "client_peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    }
    print(json.dumps(info))
    result = {
        "correct": not workload.problems,
        "attempted": workload.tally.attempted,
        "failed": workload.tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def steadiness(args: argparse.Namespace) -> int:
    """Run one workload ``--steadiness`` times with one seed; report spread."""
    from client import median, percentile

    _checkout()
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
    values: dict[str, list[float]] = {}
    speeds = []
    for k in range(args.steadiness):
        out = subprocess.run(command, capture_output=True, text=True, timeout=900)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or len(lines) < 2:
            print(f"run {k} failed:\n{out.stderr}", file=sys.stderr)
            return 1
        info, result = json.loads(lines[-2]), json.loads(lines[-1])
        speeds.append(info["provenance"]["host_speed_ms"])
        print(f"run {k}: correct={result['correct']} failed={result['failed']}/"
              f"{result['attempted']} host_speed_ms={speeds[-1]}")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    print(f"host speed reference (ms): min {min(speeds):.2f} max {max(speeds):.2f}")
    print(f"{'metric':40s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'max/min':>8s}")
    flagged = []
    report = {}
    for name, series in values.items():
        lo, hi = min(series), max(series)
        ratio = hi / lo if lo > 0 else float("inf")
        row = {"median": median(series), "q1": percentile(series, 25),
               "q3": percentile(series, 75), "max_over_min": ratio}
        report[name] = row
        mark = ""
        if name in EXACT_COUNTS and ratio - 1.0 > EXACT_TOLERANCE:
            flagged.append(name)
            mark = "  <- exact count does not repeat"
        print(f"{name:40s} {row['median']:12.4f} {row['q1']:12.4f} {row['q3']:12.4f} "
              f"{ratio:8.4f}{mark}")
    print(json.dumps({"steadiness": report, "exact_counts_not_repeating": flagged}))
    return 1 if flagged else 0


def main(argv: list[str] | None = None) -> int:
    from workloads import SPECS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(SPECS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny corpus; for the benchmark's own tests")
    parser.add_argument("--steadiness", type=int, default=0, metavar="N",
                        help="run N times with one seed and report the spread")
    args = parser.parse_args(argv)
    if args.steadiness:
        return steadiness(args)
    return run_once(args)


if __name__ == "__main__":
    sys.exit(main())
