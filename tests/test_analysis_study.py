"""Integration tests: the full Study against paper-shape expectations.

Runs once per session on the small corpus (session fixture) and checks
every table/figure computation for the *shapes* the paper reports.
"""


from repro.corpus.profiles import DATASET_PROFILES


class TestTable3Shapes:
    def _cells(self, study_results):
        return study_results._prevalence_cells()

    def test_ios_pins_more_than_android(self, study_results):
        cells = self._cells(study_results)
        for dataset in ("popular", "random"):
            assert (
                cells[("ios", dataset)]["dynamic"].rate
                >= cells[("android", dataset)]["dynamic"].rate
            )

    def test_popular_pins_more_than_random(self, study_results):
        cells = self._cells(study_results)
        for platform in ("android", "ios"):
            assert (
                cells[(platform, "popular")]["dynamic"].rate
                > cells[(platform, "random")]["dynamic"].rate
            )

    def test_static_exceeds_dynamic(self, study_results):
        cells = self._cells(study_results)
        for key, cell in cells.items():
            assert cell["embedded"].rate >= cell["dynamic"].rate

    def test_nsc_below_dynamic(self, study_results):
        cells = self._cells(study_results)
        for dataset in ("common", "popular"):
            cell = cells[("android", dataset)]
            assert cell["nsc"].rate <= cell["dynamic"].rate

    def test_dynamic_detection_equals_ground_truth(self, study_results):
        # The detector should find exactly the apps that actually pin.
        for key, results in study_results.dynamic_results.items():
            detected = sum(1 for r in results if r.pins())
            gt = sum(
                1
                for p in study_results.corpus.dataset(*key)
                if p.app.pins_at_runtime()
            )
            assert detected == gt, key

    def test_dynamic_close_to_calibration(self, study_results):
        # Popular/Random pinner counts track the Table 3 rates exactly at
        # generation time (Common counts come from the consistency
        # profile, whose per-class minimums dominate at tiny test scales).
        cells = self._cells(study_results)
        for key, cell in cells.items():
            if key[1] == "common":
                continue
            target = DATASET_PROFILES[key].dynamic_pin_rate
            n = cell["dynamic"].total
            expected = round(target * n)
            assert abs(cell["dynamic"].count - expected) <= 1, key

    def test_table_renders(self, study_results):
        rendered = study_results.table3().render()
        assert "Dynamic analysis" in rendered
        assert "Embedded Certificates" in rendered


class TestPriorWorkComparison:
    def test_dynamic_finds_multiples_of_nsc(self, study_results):
        table = study_results.table2()
        assert len(table.rows) == 3  # android rows only
        ratios = [row[-1] for row in table.rows]
        assert all(r.endswith("x") or r == "infx" for r in ratios)


class TestCategoryTables:
    def test_finance_in_top_categories_android(self, study_results):
        table = study_results.table4()
        top_categories = [row[0].split(" (")[0] for row in table.rows[:5]]
        assert "Finance" in top_categories

    def test_games_never_tops_pinning(self, study_results):
        for table in (study_results.table4(), study_results.table5()):
            top3 = [row[0].split(" (")[0] for row in table.rows[:3]]
            assert "Games" not in top3

    def test_table1_has_all_datasets(self, study_results):
        table = study_results.table1()
        keys = {(row[0], row[1]) for row in table.rows}
        assert len(keys) == 6


class TestTable6:
    def test_default_pki_dominates(self, study_results):
        table = study_results.table6()
        for row in table.rows:
            _, default, custom, self_signed = row
            assert default > custom + self_signed


class TestTable7:
    def test_known_frameworks_only(self, study_results):
        from repro.appmodel.sdk import SDK_CATALOG

        names = {s.name for s in SDK_CATALOG}
        table = study_results.table7()
        for row in table.rows:
            assert row[1] in names


class TestTable8:
    def test_ios_overall_weak_far_above_android(self, study_results):
        table = study_results.table8()
        rates = {
            (row[0], row[1]): float(row[2].rstrip("%")) for row in table.rows
        }
        for dataset in ("Common", "Popular", "Random"):
            assert rates[(dataset, "iOS")] > rates[(dataset, "Android")] + 30

    def test_ios_pinned_connections_drop_weak(self, study_results):
        # Per-dataset cells are noisy at test scale; the paper's claim is
        # checked on the aggregate over all iOS datasets.
        table = study_results.table8()
        overall = [
            float(row[2].rstrip("%")) for row in table.rows if row[1] == "iOS"
        ]
        pinned = [
            float(row[3].rstrip("%")) for row in table.rows if row[1] == "iOS"
        ]
        assert sum(pinned) / len(pinned) < sum(overall) / len(overall)


class TestTable9:
    def test_ad_id_dominates(self, study_results):
        table = study_results.table9()
        ad_rows = [r for r in table.rows if r[1] == "ad_id"]
        other_rows = [r for r in table.rows if r[1] in ("city", "state")]
        for ad in ad_rows:
            for other in other_rows:
                assert float(ad[3].rstrip("%")) > float(other[3].rstrip("%"))


class TestFigures:
    def test_figure2_counts_consistent(self, study_results):
        from repro.core.analysis.consistency import summarize_pairs

        summary = summarize_pairs(
            [c for _, c in study_results.pair_classifications()]
        )
        assert (
            summary.pins_both + summary.android_only + summary.ios_only
            == summary.total_pinning_either
        )
        assert summary.total_pinning_either > 0
        assert (
            summary.both_consistent
            + summary.both_inconsistent
            + summary.both_inconclusive
            == summary.pins_both
        )

    def test_figure5_profiles(self, study_results):
        profiles = study_results.destination_profiles()
        assert profiles
        for profile in profiles:
            assert profile.total > 0
            assert 0 < profile.pinned_fraction <= 1.0

    def test_third_party_pins_majority(self, study_results):
        from repro.core.analysis.destinations import summarize_destinations

        summary = summarize_destinations(study_results.destination_profiles())
        # Figure 5 / Section 5.2: the majority of pinned destinations are
        # third-party sites.
        assert summary.pinned_destinations_third > summary.pinned_destinations_first

    def test_selective_pinning(self, study_results):
        from repro.core.analysis.destinations import summarize_destinations

        summary = summarize_destinations(study_results.destination_profiles())
        # "If an app uses pinning, it does so selectively": only a handful
        # of apps pin everything they contact.
        assert summary.apps_pinning_all_domains < summary.pinning_apps / 2


class TestCircumvention:
    def test_rates_in_paper_ballpark(self, study_results):
        android = study_results.circumvention_rate("android")
        ios = study_results.circumvention_rate("ios")
        assert 0.25 < android < 0.85
        assert 0.40 < ios < 0.95
        assert ios > android  # paper: 51.5% vs 66.2%


class TestCertificateAnalyses:
    def test_ca_pins_dominate(self, small_corpus, study_results):
        from repro.core.analysis.certificates import analyze_pin_positions

        analysis = analyze_pin_positions(
            small_corpus,
            study_results.static_by_app("android"),
            study_results.all_dynamic("android"),
        )
        ios_analysis = analyze_pin_positions(
            small_corpus,
            study_results.static_by_app("ios"),
            study_results.all_dynamic("ios"),
        )
        total_ca = analysis.ca_pins + ios_analysis.ca_pins
        total_leaf = analysis.leaf_pins + ios_analysis.leaf_pins
        assert total_ca > total_leaf  # Section 5.3.2: ~73% CA

    def test_no_validation_subversion(self, small_corpus, study_results):
        from repro.core.analysis.certificates import check_validation_subversion

        for platform in ("android", "ios"):
            check = check_validation_subversion(
                small_corpus, study_results.all_dynamic(platform)
            )
            assert check.expired_accepted == 0  # Section 5.3.4


class TestDuplicateAppPrecedence:
    """An app sampled into several datasets: the per-app indexes keep the
    sorted-first dataset's result (common < popular < random), count the
    shadowed duplicates, and warn only when the duplicates disagree."""

    @staticmethod
    def _results_with_duplicate(pinned_common, pinned_random):
        from repro.core.analysis.study import StudyResults
        from repro.core.dynamic.detector import DestinationVerdict
        from repro.core.dynamic.pipeline import DynamicAppResult

        def result(pinned):
            verdicts = {
                d: DestinationVerdict(
                    destination=d,
                    used_direct=True,
                    mitm_observed=True,
                    mitm_all_failed=True,
                    pinned=True,
                )
                for d in pinned
            }
            return DynamicAppResult(
                app_id="app.dup", platform="android", verdicts=verdicts
            )

        return StudyResults(
            corpus=None,
            static_reports={},
            dynamic_results={
                ("android", "random"): [result(pinned_random)],
                ("android", "common"): [result(pinned_common)],
            },
            circumvention={},
            pii={},
        )

    def test_sorted_first_dataset_wins(self):
        results = self._results_with_duplicate(
            pinned_common={"a.example"}, pinned_random={"b.example"}
        )
        import warnings as warnings_mod

        with warnings_mod.catch_warnings():
            warnings_mod.simplefilter("ignore")
            by_app = results.dynamic_by_app("android")
        assert by_app["app.dup"].pinned_destinations == {"a.example"}

    def test_shadowed_duplicates_are_counted(self):
        from repro.core import obs

        results = self._results_with_duplicate(
            pinned_common={"a.example"}, pinned_random={"a.example"}
        )
        recorder = obs.Recorder().install()
        try:
            results.dynamic_by_app("android")
            # Memoized: a second call must not double-count.
            results.dynamic_by_app("android")
        finally:
            recorder.uninstall()
        assert recorder.counter_value("study.dynamic_by_app.shadowed") == 1

    def test_agreeing_duplicates_do_not_warn(self):
        import warnings as warnings_mod

        results = self._results_with_duplicate(
            pinned_common={"a.example"}, pinned_random={"a.example"}
        )
        with warnings_mod.catch_warnings():
            warnings_mod.simplefilter("error")
            results.dynamic_by_app("android")

    def test_disagreeing_duplicates_warn(self):
        import pytest

        results = self._results_with_duplicate(
            pinned_common={"a.example"}, pinned_random={"b.example"}
        )
        with pytest.warns(UserWarning, match="disagree across datasets"):
            results.dynamic_by_app("android")

    def test_static_precedence_matches(self):
        import pytest

        from repro.core.analysis.study import StudyResults
        from repro.core.static.nsc_analysis import NSCAnalysis
        from repro.core.static.report import StaticAppReport
        from repro.core.static.search import ScanResult

        def report(nsc_pins):
            return StaticAppReport(
                app_id="app.dup",
                platform="android",
                scan=ScanResult(),
                nsc=NSCAnalysis(
                    uses_nsc=nsc_pins, has_pins=nsc_pins,
                    pins=["sha256/AAA"] if nsc_pins else [],
                ),
                ct=None,
            )

        results = StudyResults(
            corpus=None,
            static_reports={
                ("android", "random"): [report(False)],
                ("android", "popular"): [report(True)],
            },
            dynamic_results={},
            circumvention={},
            pii={},
        )
        with pytest.warns(UserWarning, match="disagree across datasets"):
            by_app = results.static_by_app("android")
        assert by_app["app.dup"].nsc_pins is True

    def test_no_duplicates_in_real_study(self, study_results):
        # The generated corpus keeps datasets disjoint per platform, so
        # the real per-app indexes see no shadowing at all.
        import warnings as warnings_mod

        with warnings_mod.catch_warnings():
            warnings_mod.simplefilter("error")
            for platform in ("android", "ios"):
                study_results.dynamic_by_app(platform)
                study_results.static_by_app(platform)
