"""The corpus generator.

Builds the whole simulated world — PKI, root stores, server side — and the
six app datasets, calibrated by :mod:`repro.corpus.profiles`.  Exact
designation (weighted sampling of precisely ``round(rate * n)`` apps)
rather than per-app coin flips keeps dataset-level rates on target even
for small test corpora.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from repro.appmodel.android import build_android_package
from repro.appmodel.ios import build_ios_package
from repro.appmodel.package import PackagingContext
from repro.appmodel.sdk import SDK_CATALOG, ThirdPartySDK, sdks_for_platform
from repro.corpus.categories import draw_category, pinning_multiplier
from repro.corpus.common import CommonPairPlanner
from repro.corpus.datasets import AppCorpus, DatasetKey
from repro.corpus.factory import AppFactory, AppPlan
from repro.corpus.naming import GENERIC_THIRD_PARTY_HOSTS, app_identity
from repro.corpus.profiles import DATASET_PROFILES, PINNING_STYLES
from repro.device.ios import APPLE_BACKGROUND_HOSTS
from repro.pki.authority import PKIHierarchy
from repro.pki.store import StoreCatalog
from repro.servers.registry import EndpointRegistry
from repro.util.rng import DeterministicRng


@dataclass(frozen=True)
class CorpusConfig:
    """Corpus dimensions and seed.

    Defaults reproduce the paper's scale (575 Common pairs, 1,000 Popular
    and 1,000 Random per platform — 5,079 unique apps counting Android and
    iOS separately, modulo the paper's store-collision artefacts).
    """

    seed: int = 2022
    common: int = 575
    popular: int = 1000
    random: int = 1000

    def scaled(self, factor: float) -> "CorpusConfig":
        """A proportionally smaller (or larger) corpus for tests."""
        return CorpusConfig(
            seed=self.seed,
            common=max(4, round(self.common * factor)),
            popular=max(4, round(self.popular * factor)),
            random=max(4, round(self.random * factor)),
        )


class CorpusGenerator:
    """Generates an :class:`AppCorpus` from a config."""

    def __init__(self, config: Optional[CorpusConfig] = None, seed: Optional[int] = None):
        if config is None:
            config = CorpusConfig(seed=seed if seed is not None else 2022)
        elif seed is not None:
            config = replace(config, seed=seed)
        self.config = config

    # -- world setup --------------------------------------------------------

    def _register_shared_endpoints(self, registry: EndpointRegistry) -> None:
        """Endpoints every app (or the OS) may contact."""
        for sdk in SDK_CATALOG:
            for host in sdk.domains:
                if not registry.knows(host):
                    registry.create_default_pki_endpoint(host, sdk.name)
        for host, owner in GENERIC_THIRD_PARTY_HOSTS:
            if not registry.knows(host):
                registry.create_default_pki_endpoint(host, owner)
        for host in APPLE_BACKGROUND_HOSTS:
            if not registry.knows(host):
                registry.create_default_pki_endpoint(host, "Apple")

    # -- per-dataset planning ---------------------------------------------------

    def _pinning_sdk_weights(
        self, platform: str, dataset: str
    ) -> Tuple[List[ThirdPartySDK], List[float]]:
        """Pinning-SDK selection pool and weights for a dataset.

        Random-iOS skews hard toward PayPal and Firestore — the paper's
        two common pinned destinations in that set; Random-Android pinners
        pinned no common destination, so SDK pinning is disabled there.
        """
        pool = [
            s
            for s in sdks_for_platform(platform)
            if s.pins and s.prevalence.get(platform, 0.0) > 0
        ]
        if platform == "android" and dataset == "random":
            return [], []
        weights = [s.prevalence.get(platform, 0.0) for s in pool]
        if platform == "ios" and dataset == "random":
            boost = {"Paypal": 14.0, "Firestore": 8.0}
            weights = [
                w * boost.get(s.name, 1.0) for s, w in zip(pool, weights)
            ]
        return pool, weights

    def _draw_regular_sdks(
        self, platform: str, dataset: str, category: str, rng: DeterministicRng
    ) -> List[str]:
        """Organic draws of common, non-cert-embedding SDKs."""
        scale = 0.5 if dataset == "random" else 1.0
        picked: List[str] = []
        for sdk in sdks_for_platform(platform):
            if sdk.pins or sdk.embeds_certificates:
                continue
            p = sdk.prevalence.get(platform, 0.0) * scale
            if category in sdk.category_affinity:
                p *= 1.6
            if rng.chance(min(p, 0.95)):
                picked.append(sdk.name)
        return picked

    def _style_draw(self, platform: str, rng: DeterministicRng) -> dict:
        style = PINNING_STYLES[platform]
        mechs = list(style.mechanism_weights)
        scopes = list(style.scope_weights)
        forms = list(style.form_weights)
        return {
            "mechanism": rng.weighted_choice(
                mechs, [style.mechanism_weights[m] for m in mechs]
            ),
            "scope": rng.weighted_choice(
                scopes, [style.scope_weights[s] for s in scopes]
            ),
            "form": rng.weighted_choice(
                forms, [style.form_weights[f] for f in forms]
            ),
            "obfuscated": rng.chance(style.obfuscated_rate),
        }

    def _plan_flat_dataset(
        self, platform: str, dataset: str, n: int, rng: DeterministicRng
    ) -> List[AppPlan]:
        """Plan a Popular or Random dataset for one platform."""
        profile = DATASET_PROFILES[(platform, dataset)]
        style = PINNING_STYLES[platform]

        plans: List[AppPlan] = []
        for i in range(n):
            id_rng = rng.child("identity", i)
            app_id, name, owner, owner_slug = app_identity(id_rng, platform, i)
            owner_slug = f"{dataset[:2]}{platform[:1]}{i}{owner_slug}"
            plans.append(
                AppPlan(
                    platform=platform,
                    dataset=dataset,
                    index=i,
                    rank=i + 1,
                    app_id=f"com.{owner_slug}.app",
                    name=name,
                    owner=owner,
                    owner_slug=owner_slug,
                    category=draw_category(platform, dataset, id_rng.child("cat")),
                    weak_system=id_rng.chance(profile.app_weak_cipher_rate),
                )
            )

        # -- designate pinners: exact count, category-weighted ----------------
        pinner_count = round(profile.dynamic_pin_rate * n)
        weights = [pinning_multiplier(p.category) for p in plans]
        pinners = rng.child("designate").weighted_sample(plans, weights, pinner_count)
        pinner_set = {p.index for p in pinners}

        sdk_pool, sdk_weights = self._pinning_sdk_weights(platform, dataset)

        for plan in plans:
            if plan.index not in pinner_set:
                continue
            p_rng = rng.child("pin", plan.index)
            plan.is_pinner = True
            plan.pinned_weak = p_rng.chance(profile.pinned_weak_cipher_rate)
            fields = self._style_draw(platform, p_rng.child("style"))
            plan.mechanism = fields["mechanism"]
            plan.scope = fields["scope"]
            plan.form = fields["form"]
            plan.obfuscate_first_party = fields["obfuscated"]
            plan.skip_hostname_check = p_rng.chance(style.skips_hostname_rate)

            plan.pin_first_party = p_rng.chance(style.first_party_pin_rate)
            if sdk_pool and p_rng.chance(0.78):
                count = 2 if p_rng.chance(0.25) else 1
                chosen = p_rng.weighted_sample(sdk_pool, sdk_weights, count)
                active = [
                    s.name for s in chosen if not s.dormant_on(platform)
                ]
                dormant = [s.name for s in chosen if s.dormant_on(platform)]
                plan.pinning_sdks = active
                plan.dormant_pinning_sdks.extend(dormant)
            # A sliver of pinners contact pinned domains exclusively
            # (Section 5.2 found 5 Android and 4 iOS such apps).
            if dataset == "popular" and p_rng.chance(0.05):
                plan.pin_everything = True
                plan.pin_first_party = True

            # Guarantee at least one *active* pinning source; prefer an SDK
            # (third-party pinned destinations dominate, Section 5.2).
            if not plan.pin_first_party and not plan.pinning_sdks:
                active_pool = [
                    (s, w)
                    for s, w in zip(sdk_pool, sdk_weights)
                    if not s.dormant_on(platform)
                ]
                if active_pool and p_rng.chance(0.6):
                    plan.pinning_sdks = [
                        p_rng.weighted_choice(
                            [s for s, _ in active_pool],
                            [w for _, w in active_pool],
                        ).name
                    ]
                else:
                    plan.pin_first_party = True

        self._assign_static_extras(plans, platform, dataset, rng)

        # iOS associated domains (66 % of apps specify none).
        for plan in plans:
            m_rng = rng.child("misc", plan.index)
            if platform == "ios" and m_rng.chance(0.34):
                hosts = [f"www.{plan.owner_slug}.com"]
                hosts += [
                    f"link{j}.{plan.owner_slug}.com"
                    for j in range(m_rng.randint(0, 7))
                ]
                plan.associated_domains = tuple(hosts)
        return plans

    def _assign_static_extras(
        self,
        plans: List[AppPlan],
        platform: str,
        dataset: str,
        rng: DeterministicRng,
    ) -> None:
        """Static-analysis-facing designations shared by all datasets:
        NSC mechanism/file usage, embedded-material apps, regular SDKs."""
        profile = DATASET_PROFILES[(platform, dataset)]
        style = PINNING_STYLES[platform]
        n = len(plans)
        pinner_plans = [p for p in plans if p.is_pinner]

        # NSC users among Android pinners: exact count.
        nsc_count = round(profile.nsc_pin_rate * n) if platform == "android" else 0
        nsc_chosen = rng.child("nsc").sample(
            pinner_plans, min(nsc_count, len(pinner_plans))
        )
        for plan in nsc_chosen:
            plan.nsc_mechanism = True
            plan.pin_first_party = True  # NSC pins are app-declared
        # Exact count of overridePins misconfigurations among NSC users.
        if nsc_chosen:
            misconfig_count = max(
                1, round(style.nsc_misconfig_rate * len(nsc_chosen))
            )
            for plan in rng.child("nscmis").sample(nsc_chosen, misconfig_count):
                plan.nsc_misconfig = True

        # -- designate embedded-material apps to hit the static target --------
        def statically_visible(plan: AppPlan) -> bool:
            if (
                plan.pin_first_party
                and not plan.obfuscate_first_party
                and not plan.nsc_mechanism
            ):
                return True
            for name in plan.pinning_sdks + plan.dormant_pinning_sdks:
                sdk = next(s for s in SDK_CATALOG if s.name == name)
                if not sdk.obfuscated_pins:
                    return True
            return bool(plan.embed_sdks)

        embed_target = round(profile.embedded_material_rate * n)
        visible = sum(1 for p in plans if statically_visible(p))
        needed = max(0, embed_target - visible)
        non_pinners = [p for p in plans if not p.is_pinner]
        embed_pool = [
            s
            for s in sdks_for_platform(platform)
            if s.embeds_certificates and not s.pins
        ]
        dormant_pool = [
            s
            for s in sdks_for_platform(platform)
            if s.pins and s.embeds_certificates and s.prevalence.get(platform, 0)
        ]
        chosen_embedders = rng.child("embed").sample(non_pinners, needed)
        for plan in chosen_embedders:
            e_rng = rng.child("embed", plan.index)
            if dormant_pool and e_rng.chance(style.dormant_sdk_rate):
                sdk = e_rng.weighted_choice(
                    dormant_pool,
                    [s.prevalence.get(platform, 0.001) for s in dormant_pool],
                )
                plan.dormant_pinning_sdks.append(sdk.name)
            elif embed_pool:
                sdk = e_rng.weighted_choice(
                    embed_pool,
                    [s.prevalence.get(platform, 0.001) for s in embed_pool],
                )
                plan.embed_sdks.append(sdk.name)

        # -- NSC files without pins (the prior-work population) ----------------
        if platform == "android":
            nsc_file_target = round(profile.nsc_usage_rate * n)
            extra = max(0, nsc_file_target - len(nsc_chosen))
            for plan in rng.child("nscfile").sample(
                [p for p in plans if not p.nsc_mechanism], extra
            ):
                plan.uses_nsc_file = True

        # -- regular SDK draws ----------------------------------------------------
        for plan in plans:
            m_rng = rng.child("sdkdraw", plan.index)
            plan.regular_sdks = self._draw_regular_sdks(
                platform, dataset, plan.category, m_rng
            )

    # -- main entry -------------------------------------------------------------

    def generate(self, store=None) -> AppCorpus:
        """Build the world and all six datasets.

        With a :class:`~repro.core.exec.resultstore.CorpusStore`, a
        corpus an earlier run kept for this config is read back instead,
        and a corpus built here is kept for the next run before anyone
        uses it.
        """
        if store is not None:
            corpus = store.load(self.config)
            if corpus is not None:
                return corpus
        corpus = self._build()
        if store is not None:
            store.save(self.config, corpus)
        return corpus

    def _build(self) -> AppCorpus:
        cfg = self.config
        rng = DeterministicRng(cfg.seed)
        hierarchy = PKIHierarchy(rng.child("pki"))
        stores = StoreCatalog.build(hierarchy)
        registry = EndpointRegistry(hierarchy, rng.child("registry"))
        self._register_shared_endpoints(registry)

        factory = AppFactory(registry, hierarchy, rng.child("factory"))
        ctx = PackagingContext(
            public_root_pems=[c.to_pem() for c in hierarchy.root_certificates()],
            rng=rng.child("packaging"),
        )

        datasets: Dict[DatasetKey, List] = {}

        # Common pairs.
        pair_plans = CommonPairPlanner(rng.child("common")).build_plans(cfg.common)
        self._assign_static_extras(
            [a for a, _ in pair_plans], "android", "common", rng.child("xa")
        )
        self._assign_static_extras(
            [i for _, i in pair_plans], "ios", "common", rng.child("xi")
        )
        common_android, common_ios = [], []
        for android_plan, ios_plan in pair_plans:
            common_android.append(
                build_android_package(factory.build(android_plan), ctx)
            )
            common_ios.append(build_ios_package(factory.build(ios_plan), ctx))
        datasets[("android", "common")] = common_android
        datasets[("ios", "common")] = common_ios

        # Popular and Random per platform.
        sizes = {"popular": cfg.popular, "random": cfg.random}
        for dataset, n in sizes.items():
            for platform in ("android", "ios"):
                plans = self._plan_flat_dataset(
                    platform, dataset, n, rng.child("plan", platform, dataset)
                )
                packaged = []
                for plan in plans:
                    app = factory.build(plan)
                    if platform == "android":
                        packaged.append(build_android_package(app, ctx))
                    else:
                        packaged.append(build_ios_package(app, ctx))
                datasets[(platform, dataset)] = packaged

        return AppCorpus(
            seed=cfg.seed,
            hierarchy=hierarchy,
            stores=stores,
            registry=registry,
            datasets=datasets,
        )
