#!/usr/bin/env python
"""Audit one app, the way the paper's pipeline does.

Builds a synthetic banking app that (a) pins its own backend with OkHttp
SPKI pins, (b) embeds the Twitter SDK (which pins api.twitter.com), and
(c) talks to several unpinned third parties.  Then:

1. static analysis: decompile, scan for certificates/pins, resolve hashes
   through the CT log;
2. dynamic analysis: run it with and without TLS interception and diff;
3. circumvention: hook its TLS libraries with Frida and read the pinned
   traffic.

Run:
    python examples/analyze_single_app.py
"""

from repro.appmodel.android import build_android_package
from repro.appmodel.app import MobileApp
from repro.appmodel.behavior import DestinationUsage, NetworkBehavior
from repro.appmodel.package import PackagingContext
from repro.appmodel.pinning import PinMechanism, PinningSpec, PinScope
from repro.appmodel.sdk import sdk_by_name
from repro.core.circumvent import CircumventionPipeline
from repro.core.dynamic import DynamicPipeline
from repro.core.static import StaticPipeline
from repro.corpus import CorpusConfig, CorpusGenerator
from repro.util.rng import DeterministicRng


def build_app(corpus):
    """Wire a bespoke app into the corpus world."""
    registry = corpus.registry
    rng = DeterministicRng(99)

    backend = registry.create_default_pki_endpoint("api.acmebank.com", "AcmeBank")
    registry.create_default_pki_endpoint("www.acmebank.com", "AcmeBank")

    own_pin = PinningSpec(
        domains=("api.acmebank.com",),
        mechanism=PinMechanism.OKHTTP,
        scope=PinScope.ROOT,
    )
    own_pin.resolve_domain("api.acmebank.com", backend.chain)

    twitter = sdk_by_name("Twitter")
    twitter_spec = twitter.make_pinning_spec("android")
    for host in twitter_spec.domains:
        endpoint = registry.create_default_pki_endpoint(host, "Twitter")
        twitter_spec.resolve_domain(host, endpoint.chain)

    for host in ("graph.facebook.com", "ssl.google-analytics.com"):
        if not registry.knows(host):
            registry.create_default_pki_endpoint(host, host.split(".")[1])

    app = MobileApp(
        app_id="com.acmebank.app",
        name="Acme Bank",
        platform="android",
        category="Finance",
        owner="AcmeBank",
        sdk_names=["Twitter", "Firebase"],
        pinning_specs=[own_pin, twitter_spec],
        behavior=NetworkBehavior(
            [
                DestinationUsage("api.acmebank.com", used_connections=2),
                DestinationUsage("www.acmebank.com"),
                DestinationUsage("api.twitter.com", source="Twitter"),
                DestinationUsage("graph.facebook.com", source="Facebook"),
                DestinationUsage("ssl.google-analytics.com", source="Google"),
            ]
        ),
    )
    ctx = PackagingContext(
        public_root_pems=[c.to_pem() for c in corpus.hierarchy.root_certificates()],
        rng=rng,
    )
    return build_android_package(app, ctx)


def main() -> None:
    # A tiny world provides the PKI, stores and shared endpoints.
    corpus = CorpusGenerator(CorpusConfig(seed=7).scaled(0.01)).generate()
    packaged = build_app(corpus)

    print("== Static analysis ==")
    static = StaticPipeline(corpus.registry)
    report = static.analyze_app(packaged)
    print(f"embedded material found: {report.embedded_material}")
    print(f"pin strings found      : {sorted(report.all_pin_strings())}")
    print(f"finding paths          : {sorted(report.finding_paths())}")
    print(
        f"CT resolution          : {len(report.ct.resolved)} resolved, "
        f"{len(report.ct.unresolved)} unresolved"
    )
    for pin, certs in report.ct.resolved.items():
        names = ", ".join(c.common_name for c in certs)
        print(f"  {pin[:24]}... -> {names}")

    print("\n== Dynamic analysis ==")
    dynamic = DynamicPipeline(corpus)
    result = dynamic.run_app(packaged)
    for destination, verdict in sorted(result.verdicts.items()):
        label = "PINNED" if verdict.pinned else "not pinned"
        print(f"  {destination:32s} {label}")

    print("\n== Circumvention ==")
    circumvention = CircumventionPipeline(dynamic)
    circ = circumvention.circumvent_app(packaged, result)
    print(f"bypassed : {sorted(circ.bypassed_destinations)}")
    print(f"resistant: {sorted(circ.resistant_destinations)}")
    decrypted = [
        flow
        for flow in circumvention.hooked_capture(packaged)
        if flow.sni in circ.bypassed_destinations and flow.plaintext_visible
    ]
    for flow in decrypted[:3]:
        for payload in flow.decrypted_payloads():
            print(f"  decrypted {flow.sni}: {payload.flattened()!r}")


if __name__ == "__main__":
    main()
