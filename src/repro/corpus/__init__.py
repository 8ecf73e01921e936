"""App-store corpora.

Builds the study's six datasets (Common / Popular / Random × Android /
iOS) as synthetic apps with known ground truth, calibrated against the
paper's published distributions (Tables 1 and 3–9, Figures 2–5).

Entry point::

    from repro.corpus import CorpusConfig, CorpusGenerator

    corpus = CorpusGenerator(CorpusConfig(seed=2022)).generate()
    android_popular = corpus.dataset("android", "popular")
"""

from repro.util.lazy import lazy_exports

__getattr__ = lazy_exports(
    __name__,
    {
        "AppCorpus": "datasets",
        "DatasetKey": "datasets",
        "CorpusConfig": "generator",
        "CorpusGenerator": "generator",
        "content_fingerprint": "spec",
    },
)

__all__ = [
    "AppCorpus",
    "CorpusConfig",
    "CorpusGenerator",
    "DatasetKey",
    "content_fingerprint",
]
