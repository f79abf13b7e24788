"""The benchmark's workloads: generate inputs, build, serve, check, measure.

Every workload runs the same pipeline in one process with one client
thread, against the code under test in ``src/``, so that every run
reports every end-to-end metric:

1. **set-up** — generate the document (:mod:`repro.datasets`) and the
   workload's distinct P+V twigs with exact counts (:mod:`repro.workload`),
   repeated for ``--seconds`` (at least once) and timed by the median;
2. **build** — one serial ``XBuild(...).run()`` to the ROADMAP baseline
   budget (coarsest synopsis + 6144 bytes, build seed 55); the traced run
   builds a second time with the same seed, traced, and checks that the two
   digests agree, dropping the first sketch before the second build;
3. **set-up, continued** — save the sketch inside the checkout and load it
   back with ``load_sketch(strict=True)``, the production ``FrozenGraph``
   path, then register it with an :class:`EstimatorService`;
4. **serve** — with the document and the built sketch released, an
   untimed warm-up, then a closed loop of single ``estimate`` requests and
   ``submit_batch`` calls of 32 queries, in rounds: a pass of the stream
   (at least 2000 requests and 100 batches; the distinct stream's 1000
   twigs once) is cut into 10 rounds, each a tenth of the pass's single
   requests followed by a tenth of its batches, so every serving metric
   samples the whole serving window, not one stretch of it; passes repeat
   until ``--seconds`` have gone by (the distinct stream has one pass);
   a pass of distinct batches is 100 batches, each cut from one seeded
   shuffle of the pool, so no batch repeats a twig;
5. **check** — every answer finite and >= 0, twig answers equal to
   ``TwigEstimator(loaded).estimate(q)`` (on a sample) and to each other
   (all, single or batched), and the loaded sketch (and, traced, the second
   build) equal to the first build by payload digest.

Every time is in seconds at reference speed: the run's :class:`SpeedProbe`
samples the host's speed four times a second, and each timed interval is
scaled by the speed around it (see ``speed.py``; the host's speed swings
by up to 1.9x between and within runs, and unscaled times spread with it).

The queries are fixed (workload seed 102, like a query log), so accuracy
and the latency distribution do not swing with the run's seed; ``--seed``
orders the traffic: the distinct stream, the make-up of the batches, and
the order of the Zipf draws, whose counts per hot twig are exact.
"""

from __future__ import annotations

import gc
import hashlib
import itertools
import math
import os
import platform
import random
import resource
import statistics
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator, Optional

import repro.synopsis.persist as persist
from repro.build import XBuild
from repro.datasets import generate_imdb, generate_xmark
from repro.estimation import TwigEstimator
from repro.obs import MetricsRegistry
from repro.serve import TIER_TWIG, EstimatorService
from repro.synopsis import TwigXSketch
from repro.workload import (
    WorkloadGenerator,
    WorkloadQuery,
    WorkloadSpec,
    average_relative_error,
)

from layers import PHASES, LayerTracer, self_times, spans_under, nesting_problems
from speed import SpeedProbe


@dataclass(frozen=True)
class Settings:
    """Sizes and seeds of a run; :data:`FULL` is what the benchmark uses."""

    scale: int = 12_000
    budget_extra: int = 6144
    build_seed: int = 55
    pool_seed: int = 102
    pool_size: int = 1000
    #: single requests per Zipf pass: the run sends this many whatever the
    #: host's speed (one pass at 1000 took 3.5-5.3 s, so a 5-second run
    #: sent one pass or two), and the tail, p99.5, has ten requests beyond it
    min_requests: int = 2000
    min_batches: int = 100
    hot_set: int = 64
    batch_size: int = 32
    #: rounds per pass; a round of the distinct stream is 100 requests
    rounds: int = 10
    #: warm-up twigs for the distinct stream, kept out of its measured pool
    warmup: int = 32


FULL = Settings()
#: a seconds-long run for the self-test; the same code paths, tiny inputs
TINY = Settings(
    scale=1500,
    budget_extra=1024,
    pool_size=40,
    min_requests=40,
    min_batches=8,
    hot_set=8,
    batch_size=4,
    rounds=2,
    warmup=4,
)


@dataclass(frozen=True)
class Workload:
    name: str
    dataset: str
    stream: str  # "distinct" or "zipf"
    why: str


DATASETS: dict[str, tuple[Callable, int]] = {
    "imdb": (generate_imdb, 2),
    "xmark": (generate_xmark, 1),
}

WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            "serve-distinct",
            "imdb",
            "distinct",
            "builds the IMDB sketch, then serves 1000 distinct P+V twigs once "
            "each, so no plan cache can hit, and in batches of 32 distinct "
            "twigs (the serve-zipf batch size)",
        ),
        Workload(
            "serve-zipf",
            "imdb",
            "zipf",
            "builds the IMDB sketch, then serves Zipf(s=1) traffic over 64 hot "
            "twigs, singly and in batches of 32 that share plans",
        ),
        Workload(
            "build-xmark",
            "xmark",
            "distinct",
            "recursive tags give self-loop synopsis edges and recursive // "
            "embeddings; not in BENCHMARK.json while its builds raise",
        ),
    )
}

#: name -> unit of every end-to-end metric, in report order
END_TO_END = {
    "setup_s": "s",
    "build_s": "s",
    "est_error_pct": "%",
    "est_p50_ms": "ms",
    "est_tail_ms": "ms",
    "est_qps": "1/s",
    "batch_p50_ms": "ms",
    "batch_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

#: what a run prints and records besides: the failure and degraded ratios
#: are 0 on a healthy run, so they cannot be end-to-end metrics (``failed``
#: and ``attempted`` in the result line carry the first); ``host_speed`` is
#: the run's median host speed over reference speed (see ``speed.py``)
DETAIL_UNITS = {
    **END_TO_END,
    "fail_ratio": "ratio",
    "degraded_ratio": "ratio",
    "host_speed": "ratio",
}

#: name -> unit of every per-layer metric (from the traced run)
PER_LAYER = {
    "synopsis.split_node.self_s": "s",
    "synopsis.split_node.calls": "count",
    "synopsis.copy.self_s": "s",
    "synopsis.load_sketch.self_s": "s",
    "query.count_bindings.self_s": "s",
    "query.count_bindings.calls": "count",
    "workload.generate.self_s": "s",
    "build.run.self_s": "s",
    "build.generate_candidates.self_s": "s",
    "build.generate_candidates.calls": "count",
    "build.sample_for_regions.self_s": "s",
    "build.rounds": "count",
    "build.candidate_scored_ratio": "ratio",
    "build.oracle_hit_ratio": "ratio",
    "estimation.enumerate_embeddings.self_s": "s",
    "estimation.enumerate_embeddings.calls": "count",
    "estimation.tree_parse.self_s": "s",
    "estimation.tree_parse.calls": "count",
    "estimation.report.self_s": "s",
    "estimation.embeddings_per_query": "count",
    "estimation.enumerate_per_query": "ratio",
    "serve.estimate.self_s": "s",
    "serve.submit_batch.self_s": "s",
    "serve.degraded_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
    "trace.build_coverage": "ratio",
    "trace.spans": "count",
}


#: where runs keep the saved sketch and their records
WORKDIR = ".perfbench-work"

#: served queries whose answers are recomputed by a fresh TwigEstimator
CHECKED = 200


@dataclass(frozen=True)
class Round:
    """One round of serving: (start, end) of each single request, of the
    singles loop, and of each batch, on the run's :class:`SpeedProbe`."""

    single: list[tuple[float, float]]
    single_loop: tuple[float, float]
    batch: list[tuple[float, float]]


@dataclass
class Outcome:
    """Everything one run measured, checked and failed."""

    workload: str
    trace: bool
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    detail: dict[str, tuple[float, str]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    failures: list[dict] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    meta: dict = field(default_factory=dict)
    spans: list[dict] = field(default_factory=list)
    #: per-round values behind the serving metrics, for the run's record
    samples: dict = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return not self.problems

    def fail(self, operation: str, error: BaseException) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(
                {
                    "operation": operation,
                    "error_type": type(error).__name__,
                    "message": str(error),
                    "traceback": traceback.format_exception(
                        type(error), error, error.__traceback__
                    )[-3:],
                }
            )

    def result(self) -> dict:
        """The result line: exactly correct, attempted, failed, metrics."""
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in self.metrics.items()
            },
        }


# ----------------------------------------------------------------------
# provenance
# ----------------------------------------------------------------------
def source_digest(src: Path) -> str:
    """sha256 over the program's source files, names and bytes."""
    hasher = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        hasher.update(str(path.relative_to(src)).encode())
        hasher.update(path.read_bytes())
    return hasher.hexdigest()


def git_commit(root: Path) -> str:
    """The checked-out commit read from ``.git``, or "unknown"."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------
def query_pool(tree, seed: int, size: int) -> list[WorkloadQuery]:
    """``size`` distinct P+V twigs with exact counts.

    The generator can repeat a twig, so it is asked for more until the
    pool holds enough distinct ones.  The result depends only on the
    document and ``seed``, and a smaller pool is a prefix of a larger one.
    """
    generator = WorkloadGenerator(
        tree, WorkloadSpec(seed=seed, value_predicates=True)
    )
    pool: dict[str, WorkloadQuery] = {}
    while len(pool) < size:
        for entry in generator.positive_workload(size - len(pool)).queries:
            pool.setdefault(entry.query.text(), entry)
    return list(pool.values())[:size]


def zipf_multiset(hot: list, draws: int) -> list:
    """``draws`` queries whose counts follow Zipf(s=1) over ``hot`` exactly
    (rank = list position; counts rounded by largest remainder).

    Sampling each draw at random would give every run its own mix of hot
    twigs, and the mix sets the latencies; fixing the counts leaves the
    seed only the order.
    """
    weights = [1.0 / rank for rank in range(1, len(hot) + 1)]
    shares = [draws * weight / sum(weights) for weight in weights]
    counts = [math.floor(share) for share in shares]
    by_remainder = sorted(
        range(len(hot)), key=lambda i: counts[i] - shares[i]
    )
    for index in by_remainder[: draws - sum(counts)]:
        counts[index] += 1
    return [entry for entry, n in zip(hot, counts) for _ in range(n)]


def shuffled(items: list, rng: random.Random, size: int = 0) -> Iterator[list]:
    """Endless passes over ``items``, each in a new seeded order; cut into
    batches of ``size`` (whole batches only) when ``size`` is given."""
    while True:
        order = rng.sample(items, len(items))
        if not size:
            yield order
        else:
            yield [
                order[start : start + size]
                for start in range(0, len(order) - size + 1, size)
            ]


def distinct_batches(
    pool: list, rng: random.Random, size: int, count: int
) -> Iterator[list]:
    """Endless passes of ``count`` batches of ``size`` queries, each batch
    cut from one seeded shuffle of ``pool`` (so it holds no twig twice)."""
    batches = (batch for order in shuffled(pool, rng, size) for batch in order)
    while True:
        yield list(itertools.islice(batches, count))


def split(items: list, parts: int) -> list[list]:
    """``items`` cut, in order, into ``parts`` runs of near-equal length."""
    size = len(items)
    return [
        items[size * i // parts : size * (i + 1) // parts] for i in range(parts)
    ]


def schedule(
    workload: Workload, pool: list, settings: Settings, seed: int
) -> Iterator[tuple[list, list]]:
    """Rounds of (single requests, batches) for a workload: each pass of
    singles and of batches is cut into ``settings.rounds`` rounds."""
    single_rng = random.Random(f"{seed}:single")
    batch_rng = random.Random(f"{seed}:batch")
    if workload.stream == "zipf":
        singles = shuffled(zipf_multiset(pool, settings.min_requests), single_rng)
        batches = shuffled(
            zipf_multiset(pool, settings.min_batches * settings.batch_size),
            batch_rng,
            settings.batch_size,
        )
    else:
        # one pass over the pool and no more: no single request repeats
        singles = iter([single_rng.sample(pool, len(pool))])
        batches = distinct_batches(
            pool, batch_rng, settings.batch_size, settings.min_batches
        )
    for single_pass, batch_pass in zip(singles, batches):
        yield from zip(
            split(single_pass, settings.rounds), split(batch_pass, settings.rounds)
        )


# ----------------------------------------------------------------------
# measurement helpers
# ----------------------------------------------------------------------
def percentile(values: list[float], fraction: float) -> float:
    """Nearest-rank percentile (p99 of 1000 leaves ten values beyond)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tail(values: list[float]) -> float:
    """The highest percentile with ten samples beyond it: p99 of 1000,
    p99.5 of 2000 (the largest value when there are ten or fewer)."""
    ordered = sorted(values)
    return ordered[max(0, len(ordered) - 11)]


def closed_loop(
    clock: SpeedProbe, send: Callable, receive: Callable, items: list
) -> tuple[list[tuple[float, float]], tuple[float, float]]:
    """Send one item at a time, each after the last was answered; only
    ``send`` is timed.  Returns each call's (start, end) and the loop's, on
    ``clock``."""
    calls: list[tuple[float, float]] = []
    start = clock.now()
    for item in items:
        began = clock.now()
        response = send(item)
        calls.append((began, clock.now()))
        receive(item, response)
    return calls, (start, clock.now())


def attempt(call: Callable, *args):
    """``call(*args)``, or the exception it raised, for the caller to count."""
    try:
        return call(*args)
    except Exception as error:  # a failed request is a counted result
        return error


def repeat_timed(clock: SpeedProbe, action: Callable, seconds: float):
    """Run ``action`` once, then again while less than ``seconds`` have
    gone by: (last result, median seconds at reference speed).  A short
    action is timed over the whole window, so one slow second of the host
    does not set it."""
    times: list[float] = []
    began = clock.now()
    while not times or clock.now() - began < seconds:
        start = clock.now()
        result = action()
        times.append(clock.scaled(start, clock.now()))
    return result, statistics.median(times)


def counter_total(registry: MetricsRegistry, name: str, **labels) -> float:
    metric = registry.get(name)
    if metric is None:
        return 0.0
    return sum(
        value
        for series_labels, value in metric.series()
        if all(series_labels.get(k) == v for k, v in labels.items())
    )


def digest(sketch) -> str:
    return persist.payload_digest(persist.sketch_to_dict(sketch))


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


@contextmanager
def phase(layers: Optional[LayerTracer], name: str):
    """Wrappers installed and a phase root span open, in a traced run."""
    if layers is None:
        yield
        return
    with layers.active() as tracer, tracer.span(name):
        yield


# ----------------------------------------------------------------------
# the run
# ----------------------------------------------------------------------
class Run:
    """One benchmark invocation of one workload."""

    def __init__(
        self,
        workload: Workload,
        seed: int,
        seconds: float,
        trace: bool,
        workdir: Path,
        src: Path,
        clock: SpeedProbe,
        settings: Settings = FULL,
    ):
        self.workload = workload
        self.clock = clock
        self.seed = seed
        self.seconds = seconds
        self.settings = settings
        self.workdir = workdir
        self.layers = LayerTracer() if trace else None
        self.outcome = Outcome(workload.name, trace)
        generator, dataset_seed = DATASETS[workload.dataset]
        self.generator = generator
        self.dataset_seed = dataset_seed
        self.source = source_digest(src)
        self.outcome.meta = {
            "workload": workload.name,
            "dataset": workload.dataset,
            "scale": settings.scale,
            "dataset_seed": dataset_seed,
            "build_seed": settings.build_seed,
            "pool_seed": settings.pool_seed,
            "seed": seed,
            "seconds": seconds,
            "trace": int(trace),
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "commit": git_commit(src.parent),
            "source_digest": self.source,
        }

    # -- phases --------------------------------------------------------
    def setup_inputs(self):
        """The document and the workload's queries, set up repeatedly for
        the run's seconds (at least once): (tree, measured pool, warm-up
        queries, median seconds).  The Zipf stream warms up on its hot set;
        the distinct stream on twigs of its own, after its pool."""
        settings = self.settings
        zipf = self.workload.stream == "zipf"
        size = settings.hot_set if zipf else settings.pool_size + settings.warmup

        def inputs():
            tree = self.generator(settings.scale, seed=self.dataset_seed)
            return tree, query_pool(tree, settings.pool_seed, size)

        with phase(self.layers, "bench.setup"):
            (tree, pool), seconds = repeat_timed(
                self.clock, inputs, self.seconds
            )
        if zipf:
            return tree, pool, pool, seconds
        measured, warm = pool[: settings.pool_size], pool[settings.pool_size :]
        return tree, measured, warm, seconds

    def build(self, tree, budget: int, traced: bool):
        """One serial XBUILD: (sketch or None when it raised, seconds,
        the build's metrics registry)."""
        registry = MetricsRegistry()
        self.outcome.attempted += 1
        with phase(self.layers if traced else None, "bench.build"):
            start = self.clock.now()
            try:
                sketch = XBuild(
                    tree,
                    budget,
                    seed=self.settings.build_seed,
                    metrics=registry,
                ).run().sketch
            except Exception as error:  # a failed build is a counted result
                self.outcome.fail("build", error)
                sketch = None
            elapsed = self.clock.scaled(start, self.clock.now())
        return sketch, elapsed, registry

    def builds(self, tree, budget: int):
        """One untraced build; in the traced run a second, traced build with
        the same seed, whose digest must equal the first's.  Keeps only the
        last sketch: (sketch or None, its digest, untraced seconds or None,
        the last build's registry, overhead = traced / untraced seconds)."""
        sketch, seconds, registry = self.build(tree, budget, traced=False)
        built = digest(sketch) if sketch is not None else None
        untraced = seconds if built else None
        if self.layers is None:
            return sketch, built, untraced, registry, 0.0
        del sketch
        sketch, traced, registry = self.build(tree, budget, traced=True)
        again = digest(sketch) if sketch is not None else None
        if built and again and built != again:
            self.outcome.problems.append(
                f"builds with the same seed differ: {built} != {again}"
            )
        overhead = ratio(traced, seconds) if built and again else 0.0
        return sketch, again, untraced, registry, overhead

    def serve(
        self, service: EstimatorService, name: str, pool: list, warm: list
    ) -> tuple[list, list["Round"]]:
        """Warm up, then serve the workload's rounds; returns the answers,
        one (text, estimate, tier, "single" or "batch") per query, and the
        rounds' timings."""
        size = self.settings.batch_size
        for entry in warm:
            attempt(service.estimate, name, entry.query)
        for start in range(0, len(warm) - size + 1, size):
            batch = [entry.query for entry in warm[start : start + size]]
            attempt(service.submit_batch, name, batch)
        answers: list[tuple[str, float, str, str]] = []
        outcome = self.outcome

        def usable(kind: str, entry: WorkloadQuery, response) -> bool:
            value = response.estimate
            answers.append((entry.query.text(), value, response.source, kind))
            return math.isfinite(value) and value >= 0

        def received_single(entry: WorkloadQuery, response) -> None:
            outcome.attempted += 1
            if isinstance(response, Exception):
                outcome.fail("estimate", response)
            elif not usable("single", entry, response):
                outcome.fail("estimate", ValueError(
                    f"unusable estimate {response.estimate!r}"))

        def received_batch(batch: list, responses) -> None:
            outcome.attempted += 1
            if isinstance(responses, Exception):
                outcome.fail("submit_batch", responses)
                return
            good = [usable("batch", e, r) for e, r in zip(batch, responses)]
            if len(responses) != len(batch) or not all(good):
                outcome.fail("submit_batch", ValueError(
                    f"{len(responses)} answers for {len(batch)} queries, "
                    f"{good.count(False)} unusable"))

        rounds: list[Round] = []
        clock = self.clock
        with phase(self.layers, "bench.serve"):
            start = clock.now()
            for singles, batches in schedule(
                self.workload, pool, self.settings, self.seed
            ):
                single, single_loop = closed_loop(
                    clock,
                    lambda entry: attempt(service.estimate, name, entry.query),
                    received_single,
                    singles,
                )
                batch, _ = closed_loop(
                    clock,
                    lambda batch: attempt(
                        service.submit_batch, name, [e.query for e in batch]
                    ),
                    received_batch,
                    batches,
                )
                rounds.append(Round(single, single_loop, batch))
                if (
                    len(rounds) % self.settings.rounds == 0
                    and clock.now() - start >= self.seconds
                ):
                    break
        return answers, rounds

    def reference_answers(self, loaded, pool: list, answers) -> dict:
        """Query text -> the answer every twig answer must equal.

        ``TwigEstimator(loaded).estimate(q)`` for a seeded sample of the
        served queries (and any query no single request answered by the
        twig tier); the first single twig answer for the rest, so that
        every batch and repeated answer is compared too.
        """
        first: dict[str, float] = {}
        for text, value, source, kind in answers:
            if kind == "single" and source == TIER_TWIG:
                first.setdefault(text, value)
        texts = sorted(first)
        checked = set(
            random.Random(self.seed).sample(texts, min(len(texts), CHECKED))
        )
        estimator = TwigEstimator(loaded)
        reference = {}
        for entry in pool:
            text = entry.query.text()
            if text in checked or text not in first:
                reference[text] = estimator.estimate(entry.query)
            else:
                reference[text] = first[text]
        return reference

    def check_answers(self, answers, reference: dict[str, float]) -> None:
        """Twig answers, single or batched, equal the reference answers."""
        mismatched = [
            (kind, text, value, reference[text])
            for text, value, source, kind in answers
            if source == TIER_TWIG and value != reference[text]
        ]
        for kind, text, value, expected in mismatched[:5]:
            self.outcome.problems.append(
                f"{kind} answer {value!r} != {expected!r} "
                f"for {' '.join(text.split())}"
            )
        if len(mismatched) > 5:
            self.outcome.problems.append(
                f"... {len(mismatched) - 5} more mismatched answers"
            )

    def load(self, sketch) -> tuple:
        """Save the sketch and load it back strictly, repeatedly for a
        second: (sketch, median seconds), or (None, 0.0) when the saved
        sketch does not load."""
        path = self.workdir / f"{self.workload.name}-sketch.json"
        persist.save_sketch(sketch, path)
        self.outcome.attempted += 1
        with phase(self.layers, "bench.setup"):
            try:
                return repeat_timed(
                    self.clock,
                    lambda: persist.load_sketch(path, strict=True),
                    1.0,
                )
            except Exception as error:  # a corrupt sketch is a counted result
                self.outcome.fail("load_sketch", error)
                return None, 0.0

    # -- the whole run -------------------------------------------------
    def execute(self) -> Outcome:
        outcome = self.outcome
        tree, pool, warm, setup_s = self.setup_inputs()
        budget = TwigXSketch.coarsest(tree).size_bytes() + self.settings.budget_extra
        outcome.meta.update(budget_bytes=budget, pool=len(pool))

        sketch, built, build_s, build_registry, overhead = self.builds(
            tree, budget
        )
        loaded, load_s = self.load(sketch) if sketch is not None else (None, 0.0)
        # serve like a process that has loaded its sketch: the document and
        # the built sketch are gone before the first request
        del tree, sketch
        gc.collect()
        detail = {"setup_s": setup_s + load_s}
        serve_registry = MetricsRegistry()
        if loaded is not None:
            if digest(loaded) != built:
                outcome.problems.append("the loaded sketch differs from the built one")
            detail.update(self.measure(loaded, pool, warm, serve_registry))
        if build_s is not None:
            detail["build_s"] = build_s
        detail["peak_rss_mb"] = peak_rss_mb()
        detail["host_speed"] = self.clock.host_speed()
        detail["fail_ratio"] = ratio(outcome.failed, outcome.attempted)
        outcome.detail = {
            name: (detail[name], unit)
            for name, unit in DETAIL_UNITS.items()
            if name in detail
        }

        if self.layers is None:
            outcome.metrics = {
                name: outcome.detail[name] for name in END_TO_END if name in detail
            }
            return outcome
        outcome.spans = self.layers.spans()
        outcome.problems.extend(nesting_problems(outcome.spans))
        outcome.metrics = layer_metrics(
            outcome.spans,
            build_registry=build_registry,
            serve_registry=serve_registry,
            overhead=overhead,
        )
        return outcome

    def measure(
        self, loaded, pool: list, warm: list, registry: MetricsRegistry
    ) -> dict:
        """Serve the loaded sketch, check every answer, and return the
        serving and accuracy metrics.

        The median latency of single requests is the median over the rounds
        of each round's median, so a stretch of the run that the speed
        scaling misses moves it less than a share of the rounds.  The rest
        are taken over the whole run: the rate because a round's mean swings
        with the few costly distinct twigs it happens to hold, while the run
        holds the same twigs every time; the tail and the batch percentiles
        because they need more samples than a round holds.  The tail
        is the highest percentile with ten requests beyond it: p99 of the
        distinct stream's 1000, p99.5 of the Zipf stream's 2000, whose p99
        sits where full collections start (about 21 of 2000 requests wait
        for one, so p99 jumped between about 8 and 17 ms from run to run)."""
        service = EstimatorService(metrics=registry)
        service.register(self.workload.dataset, loaded, validate=False)
        full_before = gc.get_stats()[2]["collections"]
        answers, rounds = self.serve(service, self.workload.dataset, pool, warm)
        scaled = self.clock.scaled
        round_single = [[scaled(*call) for call in r.single] for r in rounds]
        single = [value for values in round_single for value in values]
        batch = [scaled(*call) for r in rounds for call in r.batch]
        reference = self.reference_answers(loaded, pool, answers)
        self.check_answers(answers, reference)
        error = average_relative_error(
            [reference[entry.query.text()] for entry in pool],
            [entry.true_count for entry in pool],
        )
        degraded = sum(1 for _, _, source, _ in answers if source != TIER_TWIG)
        round_p50 = [1e3 * percentile(values, 0.5) for values in round_single]
        singles_time = sum(scaled(*r.single_loop) for r in rounds)
        self.outcome.meta.update(
            requests=len(single),
            batches=len(batch),
            rounds=len(rounds),
            full_collections=gc.get_stats()[2]["collections"] - full_before,
        )
        self.outcome.samples = {
            "round_est_p50_ms": round_p50,
            "pooled_est_p50_ms": 1e3 * percentile(single, 0.5),
            "wall_est_p50_ms": 1e3 * percentile(
                [end - start for r in rounds for start, end in r.single], 0.5
            ),
        }
        return {
            "est_error_pct": 100.0 * error,
            "est_p50_ms": statistics.median(round_p50),
            "est_tail_ms": 1e3 * tail(single),
            "est_qps": ratio(len(single), singles_time),
            "batch_p50_ms": 1e3 * percentile(batch, 0.5),
            "batch_p90_ms": 1e3 * percentile(batch, 0.9),
            "degraded_ratio": ratio(degraded, len(answers)),
        }


def layer_metrics(
    spans: list[dict],
    build_registry: MetricsRegistry,
    serve_registry: MetricsRegistry,
    overhead: float,
) -> dict[str, tuple[float, str]]:
    """Every :data:`PER_LAYER` metric from one traced run.

    ``<span>.self_s`` and ``<span>.calls`` are the span name's self time
    and count over the whole run; the rest are ratios of the program's own
    counters and of spans within one phase.
    """
    whole = self_times(spans)
    build_spans = spans_under(spans, "bench.build")
    enumerated = self_times(spans_under(spans, "bench.serve")).get(
        "estimation.enumerate_embeddings", (0, 0.0)
    )[0]
    build_wall = sum(
        span["duration"] for span in build_spans if span["name"] == "bench.build"
    )
    layer_self = sum(
        seconds
        for name, (_, seconds) in self_times(build_spans).items()
        if name not in PHASES and name != "build.run"
    )
    estimates = counter_total(serve_registry, "estimator_estimates_total")
    values = {
        "build.rounds": counter_total(build_registry, "build_rounds_total"),
        "build.candidate_scored_ratio": ratio(
            counter_total(build_registry, "build_candidates_total", outcome="scored"),
            counter_total(build_registry, "build_candidates_total"),
        ),
        "build.oracle_hit_ratio": ratio(
            counter_total(build_registry, "build_oracle_cache_total", outcome="hit"),
            counter_total(build_registry, "build_oracle_cache_total"),
        ),
        "estimation.embeddings_per_query": ratio(
            counter_total(serve_registry, "estimator_embeddings_total"), estimates
        ),
        "estimation.enumerate_per_query": ratio(enumerated, estimates),
        "serve.degraded_ratio": ratio(
            counter_total(serve_registry, "serve_degraded_total"),
            counter_total(serve_registry, "serve_requests_total"),
        ),
        "trace.overhead_ratio": overhead,
        "trace.build_coverage": ratio(layer_self, build_wall),
        "trace.spans": float(len(spans)),
    }
    for name in PER_LAYER:
        span, _, stat = name.rpartition(".")
        if stat in ("self_s", "calls"):
            calls, seconds = whole.get(span, (0, 0.0))
            values[name] = seconds if stat == "self_s" else float(calls)
    return {name: (values[name], unit) for name, unit in PER_LAYER.items()}


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    root: Path,
    settings: Settings = FULL,
) -> Outcome:
    """Run one workload from the checkout at ``root``."""
    workdir = root / WORKDIR
    workdir.mkdir(exist_ok=True)
    with SpeedProbe() as clock:
        return Run(
            WORKLOADS[name], seed, seconds, trace, workdir, root / "src", clock,
            settings,
        ).execute()
