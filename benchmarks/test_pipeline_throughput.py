"""Pipeline micro-benchmarks: per-app costs of each stage.

These time the work units the study scales with: one static scan, one
two-setting dynamic run, one handshake.
"""

import itertools

from repro.core.dynamic.pipeline import DynamicPipeline
from repro.core.static.pipeline import StaticPipeline
from repro.tls.handshake import ClientProfile, perform_handshake
from repro.tls.policy import SystemValidationPolicy
from repro.util.simtime import STUDY_START


def test_static_scan_per_app(corpus, benchmark):
    pipeline = StaticPipeline(corpus.registry)
    apps = corpus.dataset("android", "popular")
    cycle = itertools.cycle(apps)

    def scan_one():
        return pipeline.analyze_app(next(cycle))

    report = benchmark(scan_one)
    assert report.app_id


def test_dynamic_run_per_app(corpus, benchmark):
    pipeline = DynamicPipeline(corpus)
    apps = corpus.dataset("android", "popular")
    cycle = itertools.cycle(apps[:20])

    def run_one():
        return pipeline.run_app(next(cycle))

    result = benchmark(run_one)
    assert result.verdicts


def test_handshake_throughput(corpus, benchmark):
    endpoint = next(iter(corpus.registry))
    client = ClientProfile(
        sni=endpoint.hostname,
        policy=SystemValidationPolicy(corpus.stores.android_aosp),
    )

    def handshake():
        return perform_handshake(client, endpoint, STUDY_START)

    outcome = benchmark(handshake)
    assert outcome.version is not None
