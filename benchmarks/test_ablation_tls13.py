"""Ablation — the TLS 1.3 used-connection heuristics (Section 4.2.2).

TLS 1.3 disguises every encrypted record as application data.  Without
the paper's two rules (record count > 2, or a second record that is not
alert-sized), the naive "any application-data record ⇒ used" reading
declares pinning rejections and idle connections *used* — so pinned
TLS 1.3 destinations stop looking "always failed" under MITM and the
detector loses them.
"""

from repro.core.dynamic.classify import connection_used
from repro.tls.records import TLSVersion


def test_tls13_heuristics_ablation(results, corpus, captures, benchmark):
    def evaluate():
        correct_fn = naive_fn = tls13_pinned = 0
        for (platform, dataset), dyn_results in results.dynamic_results.items():
            apps = {p.app.app_id: p for p in corpus.dataset(platform, dataset)}
            for result in dyn_results:
                app = apps[result.app_id].app
                gt = {
                    u.hostname
                    for u in app.behavior.usages_within(30)
                    if app.pins_domain(u.hostname)
                }
                _direct, mitm = captures[(platform, dataset, result.app_id)]
                for destination in gt:
                    mitm_flows = [f for f in mitm if f.sni == destination]
                    if not mitm_flows:
                        continue
                    if not any(
                        f.version is TLSVersion.TLS13 for f in mitm_flows
                    ):
                        continue
                    tls13_pinned += 1
                    # With the heuristics: all flows unused ⇒ detectable.
                    if any(connection_used(f) for f in mitm_flows):
                        correct_fn += 1
                    # Without: the disguised alert reads as "used".
                    if any(
                        connection_used(f, tls13_heuristics=False)
                        for f in mitm_flows
                    ):
                        naive_fn += 1
        return tls13_pinned, correct_fn, naive_fn

    tls13_pinned, correct_fn, naive_fn = benchmark(evaluate)
    print(
        f"\nTLS1.3 pinned destinations under MITM: {tls13_pinned}; "
        f"missed with heuristics: {correct_fn}; "
        f"missed without: {naive_fn}"
    )

    assert tls13_pinned > 0
    # The heuristics never mistake a rejection for data.
    assert correct_fn == 0
    # The ablation loses a substantial share of TLS 1.3 pinning.
    assert naive_fn > 0.4 * tls13_pinned
