"""Pipeline artifact-cache benchmark: cold vs warm design builds.

Not a paper table — operational data for the staged pipeline
(:mod:`repro.pipeline`).  A *cold* build compiles the paper's protocol
stack and audio buffer from scratch into a fresh persistent cache; a
*warm* build repeats it with a new :class:`Pipeline` over the same
cache directory, so every stage is served content-addressed from disk
(the warm build still runs the preprocessor once per design: its output
is what the artifact keys digest).
The acceptance bar is warm ≥ 5× faster than cold; in practice it is
two orders of magnitude.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_pipeline_cache.py

or through pytest (uses pytest-benchmark)::

    PYTHONPATH=src python -m pytest benchmarks/bench_pipeline_cache.py -q
"""

import shutil
import tempfile
from time import perf_counter

from repro.designs import AUDIO_BUFFER_ECL, PROTOCOL_STACK_ECL
from repro.pipeline import ArtifactCache, Pipeline

#: Each design is one translation unit batch-compiled in one call.
DESIGNS = (
    ("stack.ecl", PROTOCOL_STACK_ECL),
    ("buffer.ecl", AUDIO_BUFFER_ECL),
)
EMIT = ("c", "dot")


def build_all(cache_root):
    """One full build of every design against ``cache_root``; returns
    the reports (a fresh Pipeline per call, so only the persistent
    cache carries state between calls)."""
    reports = []
    for filename, text in DESIGNS:
        pipeline = Pipeline(cache=ArtifactCache.persistent(cache_root))
        reports.append(pipeline.compile_design(
            text, filename=filename, emit=EMIT))
    return reports


def timed_cold_and_warm():
    root = tempfile.mkdtemp(prefix="ecl-bench-cache-")
    try:
        started = perf_counter()
        cold_reports = build_all(root)
        cold = perf_counter() - started
        started = perf_counter()
        warm_reports = build_all(root)
        warm = perf_counter() - started
        return cold, warm, cold_reports, warm_reports
    finally:
        shutil.rmtree(root, ignore_errors=True)


def test_warm_rebuild_at_least_5x_faster():
    cold, warm, cold_reports, warm_reports = timed_cold_and_warm()
    assert all(r.ok for r in cold_reports)
    assert all(r.ok for r in warm_reports)
    # Identical outputs, all stages cache-served.
    for cold_r, warm_r in zip(cold_reports, warm_reports):
        assert warm_r.files() == cold_r.files()
        for build in warm_r.modules:
            assert all(t.cache_hit for t in build.timings)
    assert warm * 5 <= cold, \
        "warm %.4fs not 5x faster than cold %.4fs" % (warm, cold)


def test_cold_build(benchmark):
    def cold():
        root = tempfile.mkdtemp(prefix="ecl-bench-cold-")
        try:
            return build_all(root)
        finally:
            shutil.rmtree(root, ignore_errors=True)
    reports = benchmark(cold)
    assert all(r.ok for r in reports)


def test_warm_build(benchmark):
    root = tempfile.mkdtemp(prefix="ecl-bench-warm-")
    try:
        build_all(root)   # prime the cache
        reports = benchmark(lambda: build_all(root))
        assert all(r.ok for r in reports)
        assert all(b.cache_hits == len(b.timings)
                   for r in reports for b in r.modules)
    finally:
        shutil.rmtree(root, ignore_errors=True)


if __name__ == "__main__":
    cold, warm, _cold_reports, warm_reports = timed_cold_and_warm()
    modules = sum(len(r.modules) for r in warm_reports)
    print("designs: %d, modules: %d, emit: %s"
          % (len(DESIGNS), modules, ",".join(EMIT)))
    print("cold build: %8.1f ms" % (cold * 1e3))
    print("warm build: %8.1f ms  (%.0fx faster)"
          % (warm * 1e3, cold / warm))
    for report in warm_reports:
        print(report.summary())
    if warm * 5 > cold:
        raise SystemExit("FAIL: warm rebuild is not 5x faster")
    print("ok: warm rebuild >= 5x faster")
