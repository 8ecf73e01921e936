"""Result-store handles for tests, bound the way a default study binds them.

A :class:`~repro.core.exec.resultstore.ResultStore` reads every address's
config knobs from the pipeline bound for its kind.  A default study's
engine binds default-constructed pipelines; :func:`bound_store` does the
same for a handle a test drives directly.
"""

from __future__ import annotations

from types import SimpleNamespace

from repro.core.circumvent.pipeline import CircumventionPipeline
from repro.core.dynamic.pipeline import DynamicPipeline
from repro.core.exec import ResultStore
from repro.core.static.pipeline import StaticPipeline


#: Every graph kind's config knobs at the pipelines' defaults
#: (``tests/test_stage_graph.py`` checks them against the pipelines).
DEFAULT_KNOBS = dict(
    jailbroken_device_available=True,
    include_native=True,
    sleep_s=30.0,
    transient_failure_prob=0.015,
    detector="full",
    hook_set=None,
)


def knobs(**flipped) -> SimpleNamespace:
    """The default knobs with ``flipped`` ones changed, as a stand-in for
    the pipeline objects a graph reads them off."""
    return SimpleNamespace(**{**DEFAULT_KNOBS, **flipped})


def bound_store(root, corpus, sleep_s: float = 30.0, **kwargs) -> ResultStore:
    """A handle on ``root`` bound to default-constructed pipelines with
    capture window ``sleep_s``."""
    store = ResultStore(root, corpus, **kwargs)
    dynamic = DynamicPipeline(corpus, sleep_s=sleep_s)
    store.bind_pipelines(
        static=StaticPipeline(corpus.registry),
        dynamic=dynamic,
        circumvent=CircumventionPipeline(dynamic),
    )
    return store


def publish(store, kind, platform, dataset, app_id, extra, result) -> None:
    """File one corpus app's result under ``extra`` as a one-app unit."""
    apps = [packaged.app.app_id for packaged in store.corpus.dataset(platform, dataset)]
    unit_extra = [extra] if kind == "circumvent" else extra
    store.publish_unit((kind, platform, dataset, (apps.index(app_id),), unit_extra), [result])
