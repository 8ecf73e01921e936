"""Ablation — the differential detector vs the naive one.

The naive detector (flag any destination with a failed MITM connection)
has no baseline run and no used-connection requirement; this ablation
quantifies its false-positive rate against ground truth, which motivates
the paper's two-setting differential design (Section 4.2.2).
"""

from repro.core.dynamic.detector import naive_detect_pinned_destinations


def test_naive_detector_false_positives(results, corpus, captures, benchmark):
    def evaluate():
        diff_fp = diff_fn = naive_fp = naive_fn = 0
        for (platform, dataset), dyn_results in results.dynamic_results.items():
            apps = {p.app.app_id: p for p in corpus.dataset(platform, dataset)}
            for result in dyn_results:
                app = apps[result.app_id].app
                gt = {
                    u.hostname
                    for u in app.behavior.usages_within(30)
                    if app.pins_domain(u.hostname)
                }
                detected = result.pinned_destinations
                diff_fp += len(detected - gt)
                diff_fn += len(gt - detected)
                _direct, mitm = captures[(platform, dataset, result.app_id)]
                naive = naive_detect_pinned_destinations(
                    mitm, result.excluded_destinations
                )
                naive_fp += len(naive - gt)
                naive_fn += len(gt - naive)
        return diff_fp, diff_fn, naive_fp, naive_fn

    diff_fp, diff_fn, naive_fp, naive_fn = benchmark(evaluate)
    print(
        f"\ndifferential: fp={diff_fp} fn={diff_fn} | "
        f"naive: fp={naive_fp} fn={naive_fn}"
    )

    # The differential detector is (near-)exact; the naive one drowns in
    # false positives from redundant connections and transient failures.
    assert diff_fp <= 2
    assert diff_fn <= 2
    assert naive_fp > 10 * max(diff_fp, 1)
