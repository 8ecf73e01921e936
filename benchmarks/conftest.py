"""Benchmark fixtures.

The corpus and the full study run once per session (expensive); each
benchmark then times its table/figure computation and asserts the paper's
shape on the results.  ``REPRO_BENCH_SCALE`` (default 0.25 — ~1,290 apps)
controls corpus size; set it to 1.0 for the paper-scale run.
"""

import os

import pytest

from repro.core.analysis import Study
from repro.corpus import CorpusConfig, CorpusGenerator

BENCH_SEED = 2022
BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.25"))


@pytest.fixture(scope="session")
def corpus():
    config = CorpusConfig(seed=BENCH_SEED)
    if BENCH_SCALE != 1.0:
        config = config.scaled(BENCH_SCALE)
    return CorpusGenerator(config).generate()


@pytest.fixture(scope="session")
def study(corpus):
    return Study(corpus)


@pytest.fixture(scope="session")
def results(study):
    return study.run()


@pytest.fixture(scope="session")
def captures(corpus, study, results):
    """``(platform, dataset, app_id) -> (direct, mitm)``: the captures
    each dynamic result was computed from, made again by the study's
    pipeline (a result keeps only their facts rows)."""
    out = {}
    for (platform, dataset), dyn_results in results.dynamic_results.items():
        apps = {p.app.app_id: p for p in corpus.dataset(platform, dataset)}
        for result in dyn_results:
            out[(platform, dataset, result.app_id)] = study.dynamic_pipeline.captures(
                apps[result.app_id], wait=120.0 if result.reran_with_wait else 0.0
            )
    return out


def pytest_collection_modifyitems(config, items):
    """Everything under benchmarks/ carries the opt-in ``bench`` marker.

    Tier-1 (`pytest` from the repo root) only collects ``tests/``; the
    marker makes the split explicit and filterable (``-m "not bench"``)
    even when both trees are collected together.
    """
    for item in items:
        item.add_marker(pytest.mark.bench)
