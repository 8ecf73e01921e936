"""Corpus identity digests.

:func:`dataset_shape` is the per-dataset size half of the corpus
identity that :func:`repro.core.exec.resultstore.corpus_fingerprint`
keys the result store on.  :func:`content_fingerprint` is the deep
variant: a digest over every app's ground-truth fields, used by the
parity tests to prove two corpora (a regenerated one, one read back
from the store) are not merely the same shape but the same world.
"""

from __future__ import annotations

import hashlib
from typing import Tuple

from repro.corpus.datasets import AppCorpus

#: ``((platform, dataset), size)`` pairs, sorted by key — the shape half
#: of the corpus identity.
DatasetShape = Tuple[Tuple[Tuple[str, str], int], ...]


def dataset_shape(corpus: AppCorpus) -> DatasetShape:
    """The sorted per-dataset sizes of a built corpus."""
    return tuple(
        (key, len(apps)) for key, apps in sorted(corpus.datasets.items())
    )


def _spec_tuple(spec) -> tuple:
    """One pinning spec's stable ground-truth rendering."""
    resolved = tuple(
        (
            domain,
            rp.pinned_cert_cn,
            rp.pinned_cert_is_ca,
            tuple(rp.pin_strings),
            rp.pem,
            tuple(rp.fingerprints),
            rp.default_pki,
        )
        for domain, rp in sorted(spec.resolved.items())
    )
    return (
        tuple(spec.domains),
        spec.mechanism.name,
        spec.scope.name,
        spec.form.name,
        spec.source,
        spec.code_path,
        spec.dormant,
        spec.obfuscated,
        spec.skips_hostname_check,
        spec.nsc_override_pins,
        resolved,
    )


def _app_tuple(packaged) -> tuple:
    """One app's stable ground-truth rendering (order-independent sets)."""
    app = packaged.app
    return (
        app.app_id,
        app.name,
        app.platform,
        app.category,
        app.owner,
        app.store_rank,
        tuple(app.sdk_names),
        tuple(_spec_tuple(s) for s in app.pinning_specs),
        tuple(
            (
                u.hostname,
                u.start_offset_s,
                u.source,
                u.weak_ciphers,
                u.requires_interaction,
            )
            for u in app.behavior.usages
        ),
        tuple(app.associated_domains),
        app.uses_nsc,
        app.obfuscated_code,
        app.weak_system_stack,
        app.cross_platform_id,
    )


def content_fingerprint(corpus: AppCorpus) -> str:
    """A deep, process-independent digest of the generated world.

    Hashes every app's ground-truth fields plus the server side (registry
    hostnames, CT log size) — deliberately avoiding ``pickle`` and raw
    ``repr`` of sets, whose iteration order varies under hash
    randomization.  Two corpora with equal content fingerprints run to
    bit-for-bit identical study results.
    """
    digest = hashlib.sha256()
    digest.update(repr((int(corpus.seed), dataset_shape(corpus))).encode())
    for key, apps in sorted(corpus.datasets.items()):
        digest.update(repr(key).encode())
        for packaged in apps:
            digest.update(repr(_app_tuple(packaged)).encode())
    hostnames = sorted(e.hostname for e in corpus.registry)
    digest.update(repr((hostnames, corpus.registry.ctlog.size)).encode())
    return digest.hexdigest()
