"""Tiny-scale self-test of the benchmark; takes well under a minute.

    python3 perfbench/selftest.py

Runs every workload untraced and traced on a 1500-element document and
checks that

* ``BENCHMARK.json`` has the contract's shape and names exactly the
  metrics the pipeline reports, with their units;
* each result line has exactly the keys ``correct``, ``attempted``,
  ``failed`` and ``metrics``, and every metric it names, as a finite
  number;
* the traced run records a span for every layer entry point, the spans
  nest, and the wrappers are gone afterwards;
* a workload whose operations raise (``build-xmark``) still returns a
  result, with each failure's type and message;
* ``run.py`` exits non-zero, printing no result, when the program's
  source is not next to it.

Exits 0 when every check holds, 1 otherwise, listing what failed.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import pipeline  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


class Checks:
    def __init__(self):
        self.failures: list[str] = []

    def expect(self, condition: bool, message: str) -> None:
        if not condition:
            self.failures.append(message)


def check_benchmark_json(checks: Checks) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    checks.expect(
        set(spec) == {"command", "paths", "run_seconds", "workloads",
                      "end_to_end", "per_layer"},
        f"BENCHMARK.json keys: {sorted(spec)}",
    )
    checks.expect(
        isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60,
        "run_seconds must be a whole number from 1 to 60",
    )
    names = [w["name"] for w in spec["workloads"]]
    checks.expect(2 <= len(names) <= 8, "2 to 8 workloads")
    for workload in spec["workloads"]:
        checks.expect(set(workload) == {"name", "why"}, f"workload {workload}")
        known = pipeline.WORKLOADS.get(workload["name"])
        checks.expect(
            known is not None and known.why == workload["why"],
            f"workload {workload['name']} is unknown or its why differs",
        )
        checks.expect(len(workload["why"]) <= 200, "why over 200 characters")
    seen = set()
    for group, expected in (
        ("end_to_end", pipeline.END_TO_END),
        ("per_layer", pipeline.PER_LAYER),
    ):
        declared = {metric["name"]: metric["unit"] for metric in spec[group]}
        checks.expect(
            declared == expected,
            f"{group} in BENCHMARK.json differs from the pipeline's: "
            f"{sorted(set(declared) ^ set(expected))}",
        )
        for metric in spec[group]:
            keys = {"name", "unit", "better"} | (
                {"bound"} if group == "end_to_end" else set()
            )
            checks.expect(set(metric) == keys, f"{group} entry {metric}")
            checks.expect(metric["better"] in ("lower", "higher"),
                          f"{metric['name']}: better")
            checks.expect(UNIT.match(metric["unit"]) is not None,
                          f"{metric['name']}: unit")
            if group == "end_to_end":
                checks.expect(0 < metric["bound"] <= 0.25,
                              f"{metric['name']}: bound")
    for name in names + list(pipeline.END_TO_END) + list(pipeline.PER_LAYER):
        checks.expect(NAME.match(name) is not None, f"bad name {name}")
        checks.expect(name not in seen, f"name used twice: {name}")
        seen.add(name)
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    checks.expect(
        bool(setup)
        and setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"]),
        "setup_s must have the largest bound",
    )
    return spec


def check_result(checks: Checks, label: str, outcome, expected: dict) -> None:
    result = json.loads(json.dumps(outcome.result()))
    checks.expect(set(result) == RESULT_KEYS, f"{label}: keys {sorted(result)}")
    checks.expect(result["correct"] is True, f"{label}: {outcome.problems}")
    checks.expect(result["failed"] == 0, f"{label}: failures {outcome.failures}")
    checks.expect(result["attempted"] >= 1, f"{label}: attempted")
    checks.expect(
        set(result["metrics"]) == set(expected),
        f"{label}: metrics differ by "
        f"{sorted(set(result['metrics']) ^ set(expected))}",
    )
    for name, entry in result["metrics"].items():
        checks.expect(
            isinstance(entry["value"], (int, float))
            and math.isfinite(entry["value"])
            and entry["unit"] == expected.get(name),
            f"{label}: {name} = {entry}",
        )


def check_spans(checks: Checks, label: str, spans: list[dict]) -> None:
    checks.expect(layers.nesting_problems(spans) == [],
                  f"{label}: {layers.nesting_problems(spans)[:3]}")
    recorded = {span["name"] for span in spans}
    for name, *_ in layers.ENTRY_POINTS:
        checks.expect(name in recorded, f"{label}: no {name} span")


def check_wrappers_removed(checks: Checks) -> None:
    for name, module, cls, attribute in layers.ENTRY_POINTS:
        current = layers.owner(module, cls).__dict__[attribute]
        checks.expect(
            not hasattr(current, "__wrapped__"),
            f"{name} is still wrapped after the traced run",
        )


def check_bare_directory(checks: Checks) -> None:
    """Only BENCHMARK.json and the benchmark: it must refuse to run."""
    bare = ROOT / pipeline.WORKDIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        child = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload",
             "serve-distinct", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    checks.expect(child.returncode != 0, "run.py succeeded without a program")
    checks.expect('"metrics"' not in child.stdout,
                  "run.py printed a result without a program")


def main() -> int:
    checks = Checks()
    spec = check_benchmark_json(checks)
    for name in [w["name"] for w in spec["workloads"]]:
        for trace in (False, True):
            label = f"{name} trace={int(trace)}"
            outcome = pipeline.run_workload(
                name, seed=7, seconds=0.0, trace=trace, root=ROOT,
                settings=pipeline.TINY,
            )
            expected = pipeline.PER_LAYER if trace else pipeline.END_TO_END
            check_result(checks, label, outcome, expected)
            if trace:
                check_spans(checks, label, outcome.spans)
                check_wrappers_removed(checks)
    # operations of this workload raise today; the run must still report
    outcome = pipeline.run_workload(
        "build-xmark", seed=7, seconds=0.0, trace=False, root=ROOT,
        settings=pipeline.TINY,
    )
    checks.expect(
        outcome.failed == len(outcome.failures)
        and all(f["error_type"] and f["message"] for f in outcome.failures),
        f"build-xmark failures lack a type or message: {outcome.failures}",
    )
    check_bare_directory(checks)

    for failure in checks.failures:
        print(f"FAIL {failure}")
    print("selftest:", "FAILED" if checks.failures else "ok")
    return 1 if checks.failures else 0


if __name__ == "__main__":
    sys.exit(main())
