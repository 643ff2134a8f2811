#!/usr/bin/env python3
"""The repository benchmark: one workload, timed end to end or per layer.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1]

Workloads (see ``perfbench/README.md``): ``core-mesh``, ``figure5`` and
``service``. Run from the root of a checkout; the program is imported
from its ``src/`` directory.

With ``--trace 0`` the run is untraced and reports the end-to-end
metrics, timed in calibrated seconds (``speed.py``); with ``--trace 1``
it reports the per-layer metrics of a traced pass. Either way every
output is checked. Human-readable lines come first; the last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path
from statistics import fmean

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: The end-to-end metrics every untraced run reports: (name, unit).
END_TO_END_METRICS = (
    ("ops_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def _version(module: str) -> str:
    try:
        return __import__(module).__version__
    except ImportError:
        return "absent"


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    done = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
        capture_output=True, text=True, timeout=30,
    )
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _source_digest() -> str:
    """Content hash of ``src/``: identifies the code where git cannot."""
    import hashlib

    h = hashlib.blake2b(digest_size=12)
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def stamp(run) -> dict:
    """Where and on what a result was measured; results are only ever
    compared when machine and shape agree."""
    return {
        "workload": run.workload,
        "seed": run.seed,
        "shape": run.shape,
        "machine": f"{platform.machine()}-cpu{os.cpu_count() or 0}",
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "git_commit": _git_commit(),
        "source_digest": _source_digest(),
    }


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def result_line(run, trace: bool) -> dict:
    if trace:
        from layers import PER_LAYER_METRICS

        metrics = {
            name: {"value": run.per_layer[name], "unit": unit}
            for name, unit, _ in PER_LAYER_METRICS
        }
    else:
        values = {
            "ops_per_s": run.ops_per_s(),
            "setup_s": run.setup_s(),
            "peak_rss_mb": peak_rss_mb(),
        }
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END_METRICS
        }
    return {
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--write-reference", action="store_true",
        help="record this default-seed run's digest as the workload's "
        "reference (after an intended change of the program's outputs)",
    )
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"error: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from speed import REFERENCE_SAMPLE_S, SpeedProbe
    from workloads import DEFAULT_SEED, WORKLOADS, write_reference

    if args.workload not in WORKLOADS:
        print(
            f"error: unknown workload {args.workload!r}; "
            f"choose from {', '.join(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    seed = DEFAULT_SEED if args.seed is None else args.seed
    if args.write_reference and seed != DEFAULT_SEED:
        print(f"error: references are for seed {DEFAULT_SEED}", file=sys.stderr)
        return 2
    with SpeedProbe() as probe:
        run = WORKLOADS[args.workload](
            seed, args.seconds, bool(args.trace), probe
        )
    if args.write_reference:
        write_reference(run)

    print("stamp " + json.dumps(stamp(run), sort_keys=True))
    print(f"digest {run.digest}")
    for name, ok in sorted(run.checks.items()):
        print(f"check {name}: {'ok' if ok else 'FAILED'}")
    share = run.failed / run.attempted if run.attempted else 0.0
    print(f"{'failed_share':<34} {share:.6f}")
    if not args.trace:
        print(f"{'setup_s':<34} {run.setup_s():.4f} s "
              f"(median of {len(run.setups)}; host {run.setup_s(raw=True):.4f} s)")
        print(f"{'ops_per_s':<34} {run.ops_per_s():.4f} 1/s "
              f"(median of {len(run.units)}; host {run.ops_per_s(raw=True):.4f} 1/s)")
        speed = REFERENCE_SAMPLE_S / fmean(probe.samples)
        print(f"{'machine_speed':<34} {speed:.3f} x reference "
              f"({len(probe.samples)} samples)")
        print(f"{'peak_rss_mb':<34} {peak_rss_mb():.1f} MB")
    for name, (value, unit) in run.report.items():
        print(f"{name:<34} {value:.4f} {unit} (median of {len(run.units)})")
    line = result_line(run, bool(args.trace))
    if args.trace:
        for name, entry in line["metrics"].items():
            print(f"{name:<34} {entry['value']:.6g} {entry['unit']}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
