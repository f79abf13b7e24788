"""Benchmark of the Twig XSKETCH system: XBUILD and serving, end to end.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload serve-distinct --seed 1 --seconds 5 --trace 0
    python3 perfbench/run.py --workload all     # every workload, one after another

It builds nothing ahead of time: the program is the ``src/`` tree next to
this directory.  A run prints its provenance (CPU count, Python, scale,
every seed, commit), then every metric by name with its unit, then any
failure, and as its last line one JSON object with exactly the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer ones from a
run with span wrappers on every layer's entry points (see ``layers.py``).
End-to-end times are scaled to a reference host speed, sampled through the
run (see ``speed.py``); ``host_speed`` gives the run's median speed.
The full record of each run, spans included for a traced one, is written
under ``.perfbench-work/`` in the checkout.

Workloads and metrics are described in ``pipeline.py``; the self-test is
``python3 perfbench/selftest.py``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _require_program() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"error: no program to measure: {SRC / 'repro'} is missing "
            f"(run from a full checkout)",
            file=sys.stderr,
        )
        sys.exit(2)
    sys.path.insert(0, str(SRC))


def _print_outcome(outcome) -> None:
    meta = outcome.meta
    print("# " + " ".join(f"{key}={meta[key]}" for key in sorted(meta)))
    # the traced run's end-to-end numbers include the wrappers: they go to
    # its record only, not here
    shown = dict(outcome.metrics)
    for name in ("fail_ratio", "degraded_ratio", "host_speed"):
        if name in outcome.detail:
            shown[name] = outcome.detail[name]
    for name, (value, unit) in shown.items():
        print(f"{outcome.workload:<16} {name:<40} {value:>14.6g} {unit}")
    for failure in outcome.failures:
        print(
            f"failure: {failure['operation']} "
            f"{failure['error_type']}: {failure['message']}"
        )
    print(
        f"attempted={outcome.attempted} failed={outcome.failed} "
        f"correct={outcome.correct}"
    )
    for problem in outcome.problems:
        print(f"incorrect: {problem}")


def _record(outcome, seed: int) -> None:
    from pipeline import WORKDIR

    workdir = ROOT / WORKDIR
    stem = f"{outcome.workload}-seed{seed}-trace{int(outcome.trace)}"
    record = {
        "meta": outcome.meta,
        "result": outcome.result(),
        "end_to_end": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in outcome.detail.items()
        },
        "samples": outcome.samples,
        "failures": outcome.failures,
        "problems": outcome.problems,
    }
    (workdir / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if outcome.spans:
        with open(workdir / f"{stem}.spans.jsonl", "w", encoding="utf8") as out:
            for span in outcome.spans:
                out.write(json.dumps(span, default=str) + "\n")


def _run_all(args) -> int:
    """Every workload in its own process, one after the other."""
    from pipeline import WORKLOADS

    status = 0
    for name in WORKLOADS:
        child = subprocess.run(
            [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", name,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(args.trace),
            ],
            capture_output=True,
            text=True,
            timeout=900,
        )
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if child.returncode != 0 or not lines:
            print(f"{name}: exit {child.returncode}\n{child.stderr}")
            status = 1
    return status


def main(argv=None) -> int:
    _require_program()
    from pipeline import WORKLOADS, run_workload

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=sorted(WORKLOADS) + ["all"]
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return _run_all(args)

    outcome = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), ROOT
    )
    _print_outcome(outcome)
    _record(outcome, args.seed)
    print(json.dumps(outcome.result()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
