"""Content-addressed result store: warm-start re-runs of the study.

The measurement pipeline is re-run constantly — per dataset, per
ablation, per platform — and every run used to recompute all ~5,000 apps
from scratch even when nothing about an app or its configuration had
changed.  The :class:`ResultStore` fixes that: an on-disk store of
per-app pipeline results, each filed under a deterministic
**fingerprint** of everything the result is a function of.  A repeated
run looks every work unit up before dispatching it and only recomputes
fingerprint misses, while the merged study stays bit-for-bit identical
to a cold run at any worker count.

Fingerprint composition
-----------------------

A result is valid for reuse exactly when all of its inputs are
unchanged, so the fingerprint is a SHA-256 over:

* the **store schema version** and **code salt** (:data:`CODE_SALT`) —
  bumped whenever pipeline semantics or result schemas change, so stale
  entries from an older checkout can never hit;
* the **corpus fingerprint** — seed plus per-dataset sizes.  Per-app
  results are *not* reusable across corpus configurations: the CT log,
  endpoint registry and root stores are built from the whole corpus, so
  a ``--scale`` bump invalidates everything by design;
* the **capture window** (``sleep_s``) every dynamic result depends on;
* the **pipeline stage** (``static`` / ``dynamic`` / ``circumvent``),
  the app's platform, dataset, and **app id**;
* the **per-app stage config** — the pre-launch wait for dynamic runs
  (the Common-iOS re-run stores separately from the initial pass), the
  sorted pinned-destination set for circumvention sweeps.

Chunking, worker count, retries and telemetry are deliberately absent:
they cannot influence a result (the engine's determinism contract), so
a warm run hits regardless of how the cold run was scheduled.

Store layout
------------

::

    store/
      store.json             # informational manifest (version, salt)
      slots/<ff>/<slot>.pkl  # one file per (corpus, kind, platform,
                             # dataset, app id)
      corpus/<name>.pkl      # one generated corpus per corpus config

An app's **slot** holds every stored artifact of that app, for every
config: its final results (the Common-iOS re-run's beside the initial
pass, a flipped detector's beside the default) and its persisted stage
artifacts, each under its own fingerprint.  Each slot is a
self-describing pickled envelope
``(magic, version, slot name, meta, payload_sha256, payload)``.
``payload`` is one pickle of the ``fingerprint -> artifact`` map, so the
captures a dynamic result shares with its ``run_direct``/``run_mitm``
stages are written once.  ``meta`` is plain data: the app's identity
plus, per fingerprint, what it is (an app result with its config and a
small summary — pinned verdict and destinations — or a stage artifact),
which lets ``tools/diff_runs.py`` diff two stores without importing this
package or unpickling a payload.

A handle keeps at most one slot in memory, the current app's.  Its
metadata answers key tests; the payload is unpickled only when a value
is served or the slot is rewritten, so a miss or a stage probe never
decodes artifacts.  Computed artifacts join the slot as *pending*
additions; a write re-reads the slot file, merges the pending additions
into it and replaces the file (temp file from :func:`tempfile.mkstemp`
plus ``os.replace``), so a second config, the iOS re-run,
``--no-store-read`` or a second handle never drop an existing key, and
a killed run never leaves a half-written slot under a valid name.  The
payload is decoded again for the merge only if the file changed since
the handle read it.  A unit that computes an app writes its slot once:
the engine holds the app's computed stages until its result is
published with them (:meth:`ResultStore.holding`).  A write that fails
raises :class:`StoreWriteError`, which fails the run instead of riding
the engine's retry ladder.

A payload is unpickled with the cyclic garbage collector paused
(:func:`_loads_paused`): decoding a slot allocates tens of thousands of
long-lived, acyclic objects, and every collection the allocation would
trigger scans the whole growing heap to free nothing.  In a run that
owns the freeze (:attr:`ResultStore.freeze_decoded`) each decoded
payload is frozen at once, so later young collections skip it too.

The generated corpus a warm run needs is kept beside the slots
(:class:`CorpusStore`), in the same envelope and under the same
corruption contract, so a warm run reads it back instead of
regenerating it.  Its name covers every corpus config field plus the
version and :data:`CODE_SALT`: a change to what the generator builds
must bump the salt, as results are keyed on seed and sizes only.

Concurrent writers
------------------

Two processes (or two handles) writing one slot at the same moment can
lose an update: both re-read the old file, and the later ``os.replace``
wins without the other's additions.  The lost fingerprints then read as
misses and are recomputed; they are never served wrong, because every
value sits under the content address of its inputs.  Temp files are
unique per write, so concurrent writers never collide on one.  A handle
itself is not thread-safe: concurrent jobs each use their own.

Corruption contract
-------------------

A truncated or tampered slot (or corpus file) must fall back to
recompute with a ``RuntimeWarning`` — never a wrong result.  Every read
re-hashes the payload against the stored digest and cross-checks the
envelope's slot name against the file name; any mismatch (or any error damaged bytes
can produce, :data:`_CORRUPTION_ERRORS`) invalidates the slot: it is
counted, warned about, deleted, and read as empty, so every entry of
that app misses and is recomputed and republished.  A programming error
during unpickling — e.g. an ``AttributeError`` from a renamed result
class — propagates instead: it is not corruption, and silently
recomputing would hide the missing :data:`CODE_SALT` bump behind a
warm-looking run.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import pickle
import tempfile
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import List, Optional, Union

from repro.core import obs

_MAGIC = "repro-result-store"
_SLOT_MAGIC = "repro-result-slot"
_CORPUS_MAGIC = "repro-result-corpus"
#: v2: one slot file per app instead of one file per entry.
_VERSION = 2

#: Code/schema version salt.  Bump on any change to pipeline semantics or
#: result dataclass schemas: old entries stop hitting instead of feeding
#: stale results into a new checkout.  v2: stage-graph fingerprints —
#: app-level keys are now the final stage's chain key, so every config
#: knob (not just sleep/wait/pins) enters the address.
CODE_SALT = "pin-study-results-v2"

#: What unpickling/validating a *damaged* slot can raise.  Truncated or
#: bit-rotted pickle streams surface as :class:`pickle.UnpicklingError`,
#: ``EOFError`` or one of the container errors below; the explicit
#: envelope checks raise ``ValueError``.  Deliberately absent:
#: ``AttributeError`` / ``ImportError`` — a payload referencing a renamed
#: class or moved module is a code bug (a missed :data:`CODE_SALT` bump),
#: not corruption, and must propagate instead of being silently
#: invalidated and recomputed.
_CORRUPTION_ERRORS = (
    pickle.UnpicklingError,
    ValueError,
    EOFError,
    TypeError,
    KeyError,
    IndexError,
)


def _loads_paused(data: bytes):
    """``pickle.loads`` with cyclic collection paused for its duration.

    The previous :func:`gc.isenabled` state is restored afterwards, so a
    caller that disabled the collector keeps it disabled.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return pickle.loads(data)
    finally:
        if enabled:
            gc.enable()


def _promote_to_oldest() -> None:
    """Move every object the cyclic collector tracks into its oldest
    generation (:func:`gc.freeze` then :func:`gc.unfreeze`, both O(1)).

    A decoded corpus arrives all at once with collection paused, and the
    next young collection would scan every object of it although it lives
    as long as the run.  Skipped while a caller holds a freeze, which the
    unfreeze would release.
    """
    if gc.get_freeze_count() == 0:
        gc.freeze()
        gc.unfreeze()


def _read_envelope(path: Path, magic: str, name: str):
    """``(meta, digest, payload)`` of a verified envelope file, or None
    when the file is absent.

    An envelope is ``(magic, version, name, meta, payload_sha256,
    payload)``.  A wrong magic or version, a name that does not match the
    file's, or a payload that does not hash to its digest raises
    ``ValueError``; damaged bytes raise one of :data:`_CORRUPTION_ERRORS`.
    The payload is returned still pickled.
    """
    try:
        blob = path.read_bytes()
    except OSError:
        return None
    file_magic, version, file_name, meta, digest, payload = pickle.loads(blob)
    if file_magic != magic or version != _VERSION:
        raise ValueError(f"not a {magic} file")
    if file_name != name:
        raise ValueError("envelope name does not match its path")
    if hashlib.sha256(payload).hexdigest() != digest:
        raise ValueError("payload digest mismatch")
    return meta, digest, payload


def _write_envelope(
    root: Path, path: Path, magic: str, name: str, meta: dict, value
) -> str:
    """Atomically replace ``path`` with an envelope of ``value``.

    Returns the payload digest.  The temp file comes from
    :func:`tempfile.mkstemp` beside ``path`` and is moved over it with
    ``os.replace``, so a killed writer never leaves a half-written file
    under a valid name.  Any failure raises :class:`StoreWriteError`.
    """
    try:
        payload = pickle.dumps(value)
        digest = hashlib.sha256(payload).hexdigest()
        envelope = (magic, _VERSION, name, meta, digest, payload)
        _ensure_manifest(root)
        try:
            fd, tmp = _mkstemp(path)
        except FileNotFoundError:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = _mkstemp(path)
        try:
            with os.fdopen(fd, "wb") as fh:
                pickle.dump(envelope, fh)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
    except Exception as exc:
        raise StoreWriteError(f"cannot write result store file {path}: {exc}") from exc
    return digest


def _mkstemp(path: Path):
    """A temp file of this write's own, beside ``path``."""
    return tempfile.mkstemp(prefix=f".{path.name}.", suffix=".tmp", dir=path.parent)


def _ensure_manifest(root: Path) -> None:
    if not (root / "store.json").exists():
        root.mkdir(parents=True, exist_ok=True)
        manifest = {"magic": _MAGIC, "version": _VERSION, "salt": CODE_SALT}
        with open(root / "store.json", "w") as fh:
            json.dump(manifest, fh, indent=1, sort_keys=True)
            fh.write("\n")


def _discard(path: Path, message: str) -> None:
    """Warn about a corrupt store file and delete it."""
    warnings.warn(message, RuntimeWarning, stacklevel=6)
    try:
        path.unlink()
    except OSError:
        pass


def corpus_fingerprint(corpus) -> str:
    """Fingerprint of the corpus configuration a result depends on.

    Seed plus per-dataset sizes: the two inputs that decide everything
    the generator builds (PKI, stores, endpoints, apps).  Two corpora
    with the same fingerprint are identical object graphs.
    """
    shape = tuple(
        (key, len(apps)) for key, apps in sorted(corpus.datasets.items())
    )
    identity = repr((int(corpus.seed), shape))
    return hashlib.sha256(identity.encode("utf-8")).hexdigest()


def normalize_extra(stage: str, extra) -> object:
    """Canonical per-app stage config, as it enters the fingerprint.

    Dynamic runs carry a scalar pre-launch wait; circumvention sweeps a
    pinned-destination set (order must not matter); static scans nothing.
    """
    if stage == "dynamic":
        return float(extra or 0.0)
    if stage == "circumvent":
        return tuple(sorted(extra))
    return None


def app_fingerprint(
    corpus_fp: str,
    sleep_s: float,
    stage: str,
    platform: str,
    dataset: str,
    app_id: str,
    extra,
) -> str:
    """The content address of one app's result for one stage config."""
    identity = repr(
        (
            _VERSION,
            CODE_SALT,
            corpus_fp,
            float(sleep_s),
            stage,
            platform,
            dataset,
            app_id,
            normalize_extra(stage, extra),
        )
    )
    return hashlib.sha256(identity.encode("utf-8")).hexdigest()


def slot_name(
    corpus_fp: str, kind: str, platform: str, dataset: str, app_id: str
) -> str:
    """The name of the slot holding every stored artifact of one app."""
    identity = repr(
        (_VERSION, CODE_SALT, "slot", corpus_fp, kind, platform, dataset, app_id)
    )
    return hashlib.sha256(identity.encode("utf-8")).hexdigest()


def summarize_result(result) -> dict:
    """Plain-data summary embedded in each app entry's metadata.

    Duck-typed over the three result classes so ``tools/diff_runs.py``
    can report *which apps flipped pinned/unpinned and why* without
    unpickling payloads (or importing this package at all).
    """
    summary: dict = {}
    pins = getattr(result, "pins", None)
    if callable(pins):
        summary["pinned"] = bool(result.pins())
    pinned = getattr(result, "pinned_destinations", None)
    if pinned is not None:
        summary["pinned_destinations"] = sorted(pinned)
    bypassed = getattr(result, "bypassed_destinations", None)
    if bypassed is not None:
        summary["bypassed_destinations"] = sorted(bypassed)
        summary["resistant_destinations"] = sorted(
            getattr(result, "resistant_destinations", ())
        )
    if hasattr(result, "embedded_material"):
        summary["embedded_material"] = bool(result.embedded_material)
        summary["nsc_pins"] = bool(result.nsc_pins)
    return summary


@dataclass
class StoreStats:
    """Hit/miss/invalidation tallies for one store handle's lifetime."""

    unit_hits: int = 0
    unit_misses: int = 0
    app_hits: int = 0
    app_misses: int = 0
    stage_hits: int = 0
    stage_misses: int = 0
    stage_published: int = 0
    published: int = 0
    invalidated: int = 0

    @property
    def unit_hit_rate(self) -> float:
        total = self.unit_hits + self.unit_misses
        return self.unit_hits / total if total else 0.0

    @property
    def stage_hit_rate(self) -> float:
        total = self.stage_hits + self.stage_misses
        return self.stage_hits / total if total else 0.0

    def describe(self) -> str:
        out = (
            f"{self.unit_hits} unit hit(s) / {self.unit_misses} miss(es) "
            f"(hit rate {self.unit_hit_rate:.1%}), "
            f"{self.published} entr(ies) published, "
            f"{self.invalidated} invalidated"
        )
        if self.stage_hits or self.stage_misses or self.stage_published:
            out += (
                f"; {self.stage_hits} stage hit(s) / "
                f"{self.stage_misses} miss(es) "
                f"(hit rate {self.stage_hit_rate:.1%}), "
                f"{self.stage_published} stage entr(ies) published"
            )
        return out


class StoreWriteError(RuntimeError):
    """Writing a slot failed: a full disk, a read-only store directory, a
    result that does not pickle.

    The engine never retries or quarantines it
    (:data:`~repro.core.exec.faults.NON_RETRYABLE_ERRORS`): recomputing
    an app cannot cure its store, and abandoning apps whose results were
    computed correctly would turn a cache failure into lost results.
    The run fails instead, with the cause chained.
    """


@dataclass
class _Slot:
    """One app's slot as a handle knows it.

    ``app`` is ``(kind, platform, dataset, app_id)``.  ``entries``
    (fingerprint -> plain-data metadata) and ``digest`` mirror the file
    as last read or written.  The artifacts are decoded lazily: a key
    test needs only ``entries``, so ``payload`` (the verified pickle)
    is unpickled into ``values`` on the first value lookup or write.
    ``pending`` maps fingerprints to ``(metadata, artifact)`` additions
    not yet written.
    """

    app: tuple
    name: str
    path: Path
    entries: dict = field(default_factory=dict)
    digest: Optional[str] = None
    payload: Optional[bytes] = None
    values: Optional[dict] = None
    pending: dict = field(default_factory=dict)


class ResultStore:
    """On-disk, content-addressed store of per-app pipeline results.

    Args:
        root: store directory (created on first publish).
        corpus: the corpus this handle serves; its fingerprint enters
            every key, so a store directory may safely hold entries from
            many configurations side by side.
        sleep_s: the dynamic capture window (results depend on it).
        read: consult the store before computing (``--no-store-read``
            turns this off to force a repopulating run).
        write: publish computed results (``--no-store-write`` turns this
            off for a read-only consumer).

    Attributes:
        freeze_decoded: when true, :func:`gc.freeze` follows each slot
            payload's decode, so collections until the run ends never
            scan it.  Set only by a run that owns the freeze and
            unfreezes when it ends (``Study.run``).
    """

    def __init__(
        self,
        root: Union[str, Path],
        corpus,
        sleep_s: float = 30.0,
        read: bool = True,
        write: bool = True,
    ):
        self.root = Path(root)
        self.corpus = corpus
        self.corpus_fp = corpus_fingerprint(corpus)
        self.sleep_s = float(sleep_s)
        self.read = bool(read)
        self.write = bool(write)
        self.stats = StoreStats()
        # Pipeline objects per kind, bound by the engine so stage keys
        # resolve config knobs from the live configuration.  Unbound,
        # knobs resolve to the graphs' declared defaults (with the
        # handle's sleep window overriding the dynamic default), which
        # matches a default-configured study.
        self._knobs: dict = {}
        self._slot: Optional[_Slot] = None
        self._held = False
        self.freeze_decoded = False

    # -- layout ------------------------------------------------------------

    def slot_path(
        self, kind: str, platform: str, dataset: str, app_id: str
    ) -> Path:
        """The file holding every stored artifact of one app."""
        return self._slot_file(
            slot_name(self.corpus_fp, kind, platform, dataset, app_id)
        )

    def _slot_file(self, name: str) -> Path:
        return self.root / "slots" / name[:2] / f"{name}.pkl"

    # -- stage graphs ------------------------------------------------------

    def bind_pipelines(
        self, static=None, dynamic=None, circumvent=None
    ) -> None:
        """Attach the live pipeline objects config knobs resolve from.

        The engine binds its pipelines at run entry; thereafter every
        fingerprint reflects the actual configuration (``include_native``,
        detector variant, hook set, …) instead of the graph defaults.
        """
        for kind, pipeline in (
            ("static", static),
            ("dynamic", dynamic),
            ("circumvent", circumvent),
        ):
            if pipeline is not None:
                self._knobs[kind] = pipeline

    @staticmethod
    def _graph(kind: str):
        from repro.core.pipeline import graph_for

        return graph_for(kind)

    def _stage_keys(
        self, graph, platform: str, dataset: str, app_id: str, extra
    ) -> dict:
        knobs = self._knobs.get(graph.kind)
        overrides = None if knobs is not None else {"sleep_s": self.sleep_s}
        return graph.stage_keys(
            self.corpus_fp,
            platform,
            dataset,
            app_id,
            params=graph.params_from_extra(extra),
            knobs=knobs,
            overrides=overrides,
        )

    def fingerprint_for(
        self, stage: str, platform: str, dataset: str, app_id: str, extra
    ) -> str:
        """The content address of one app's result for one stage config.

        For kinds with a registered stage graph this is the final
        stage's chain key — every upstream config knob and artifact
        fingerprint enters it; otherwise the flat legacy fingerprint.
        """
        graph = self._graph(stage)
        if graph is None:
            return app_fingerprint(
                self.corpus_fp,
                self.sleep_s,
                stage,
                platform,
                dataset,
                app_id,
                extra,
            )
        return self._stage_keys(graph, platform, dataset, app_id, extra)[
            graph.final
        ]

    # -- slots -------------------------------------------------------------

    def _open(
        self, kind: str, platform: str, dataset: str, app_id: str
    ) -> _Slot:
        """Make one app's slot current, reading its file once per visit.

        Only the current slot is held in memory: moving to another app
        first writes the previous one's pending additions.  With reads
        disabled the file is not consulted; writes still merge with it.
        """
        app = (kind, platform, dataset, app_id)
        current = self._slot
        if current is not None and current.app == app:
            return current
        if current is not None and current.pending:
            self._write(current)
        name = slot_name(self.corpus_fp, *app)
        slot = _Slot(app, name, self._slot_file(name))
        if self.read:
            slot.entries, slot.digest, slot.payload = self._read(slot)
        self._slot = slot
        return slot

    def _read(self, slot: _Slot):
        """``(entries, digest, payload)`` of the slot's verified file.

        Empty ``({}, None, None)`` when the file is absent.  Only errors
        that damaged bytes can produce count as corruption
        (:data:`_CORRUPTION_ERRORS`); a corrupt slot is invalidated and
        reads as empty.  The payload is checked against its digest here
        but unpickled only on demand (:meth:`_values`).
        """
        try:
            envelope = _read_envelope(slot.path, _SLOT_MAGIC, slot.name)
        except _CORRUPTION_ERRORS as exc:
            self._invalidate(slot.path, exc)
            return {}, None, None
        if envelope is None:
            return {}, None, None
        meta, digest, payload = envelope
        return dict(meta["entries"]), digest, payload

    def _values(self, slot: _Slot) -> dict:
        """The slot's artifacts, unpickled from its payload on first use
        (with collection paused).

        Only errors damaged bytes can produce invalidate the slot.
        Anything else — an ``AttributeError`` because a result class was
        renamed, an ``ImportError`` because its module moved — is a
        programming error that every slot would trip over;
        misreporting it as corruption would silently recompute the whole
        store while discarding it slot by slot.  Those propagate so the
        bug (usually a missing :data:`CODE_SALT` bump) gets fixed
        instead of papered over.
        """
        if slot.values is None:
            values: dict = {}
            if slot.payload is not None:
                try:
                    values = dict(_loads_paused(slot.payload))
                except _CORRUPTION_ERRORS as exc:
                    self._invalidate(slot.path, exc)
                    slot.entries, slot.digest = {}, None
                if self.freeze_decoded:
                    gc.freeze()
            slot.values, slot.payload = values, None
        return slot.values

    def _invalidate(self, path: Path, reason: Exception) -> None:
        self.stats.invalidated += 1
        obs.count("store.entries.invalidated")
        _discard(
            path,
            f"result store slot {path} is corrupt ({reason}); the slot "
            "was discarded and its app's entries will be recomputed",
        )

    def _write(self, slot: _Slot) -> None:
        """Merge the slot's pending additions into its file.

        The file is re-read just before the write, so keys another
        handle or an earlier run stored are kept; its payload is decoded
        again only if the file changed since this handle read it.
        Pending fingerprints already on disk are dropped (their values
        are equal: same content address), and a slot with nothing new is
        not rewritten.  Any failure to write raises
        :class:`StoreWriteError`.
        """
        pending, slot.pending = slot.pending, {}
        entries, digest, payload = self._read(slot)
        if digest is None or digest != slot.digest:
            slot.entries, slot.digest = entries, digest
            slot.payload, slot.values = payload, None
        added = [key for key in pending if key not in slot.entries]
        if not added:
            return
        values = self._values(slot)
        for key in added:
            slot.entries[key], values[key] = pending[key]
        meta = dict(
            zip(("kind", "platform", "dataset", "app_id"), slot.app),
            corpus=self.corpus_fp,
            salt=CODE_SALT,
            entries=slot.entries,
        )
        slot.digest = _write_envelope(
            self.root, slot.path, _SLOT_MAGIC, slot.name, meta, values
        )
        for key in added:
            if slot.entries[key]["entry_kind"] == "app":
                self.stats.published += 1
                obs.count("store.apps.published")
            else:
                self.stats.stage_published += 1
                obs.count("store.stages.published")

    def _flush(self) -> None:
        """Write the current slot's pending additions, if any."""
        if self._slot is not None and self._slot.pending:
            self._write(self._slot)

    @contextmanager
    def holding(self):
        """Hold each app's computed stages until its result is published.

        Inside, :meth:`finish_app` leaves the stages a stage graph
        computed pending, and the caller's :meth:`publish_unit` for that
        app writes them together with the result: one write per app.
        Whatever is still pending on exit (an app that failed part-way
        through its graph) is written then.
        """
        self._held = True
        try:
            yield
        finally:
            self._held = False
            self._flush()

    def finish_app(self) -> None:
        """A stage graph finished its app: write the app's slot.

        Held (see :meth:`holding`), the write waits for the result.
        """
        if not self._held:
            self._flush()

    # -- per-app access ----------------------------------------------------

    def lookup_app(
        self, stage: str, platform: str, dataset: str, app_id: str, extra
    ):
        """The stored result for one app under one stage config, or None.

        A corrupt slot is invalidated (warned, counted, deleted) and
        reads as a miss, so the caller recomputes instead of trusting a
        damaged payload.
        """
        if not self.read:
            return None
        fingerprint = self.fingerprint_for(
            stage, platform, dataset, app_id, extra
        )
        slot = self._open(stage, platform, dataset, app_id)
        result = None
        if fingerprint in slot.entries:
            result = self._values(slot).get(fingerprint)
        if result is None:
            self.stats.app_misses += 1
            obs.count("store.apps.miss")
            return None
        self.stats.app_hits += 1
        obs.count("store.apps.hit")
        return result

    def publish_app(
        self,
        stage: str,
        platform: str,
        dataset: str,
        app_id: str,
        extra,
        result,
    ) -> None:
        """File one app's result in its slot and write the slot.

        Pending stage artifacts of the same app go out in the same
        write.  Idempotent: a result already stored is not rewritten.
        """
        if not self.write:
            return
        fingerprint = self.fingerprint_for(
            stage, platform, dataset, app_id, extra
        )
        slot = self._open(stage, platform, dataset, app_id)
        if fingerprint not in slot.entries:
            meta = {
                "entry_kind": "app",
                "stage": stage,
                "sleep_s": self.sleep_s,
                "extra": repr(normalize_extra(stage, extra)),
                "summary": summarize_result(result),
            }
            slot.pending[fingerprint] = (meta, result)
        if slot.pending:
            self._write(slot)

    # -- per-stage access (the stage graphs' interface) --------------------

    def lookup_stage(
        self,
        fingerprint: str,
        kind: str,
        stage: str,
        platform: str,
        dataset: str,
        app_id: str,
        miss=None,
    ):
        """The stored artifact for one stage fingerprint, or ``miss``.

        The ``miss`` sentinel distinguishes absence from stored values;
        corruption invalidates the slot and reads as a miss, same as
        the app-level contract.
        """
        if not self.read:
            return miss
        slot = self._open(kind, platform, dataset, app_id)
        value = miss
        if fingerprint in slot.entries:
            value = self._values(slot).get(fingerprint, miss)
        self._count_stage(kind, stage, hit=value is not miss)
        return value

    def _count_stage(self, kind: str, stage: str, hit: bool) -> None:
        if hit:
            self.stats.stage_hits += 1
            obs.count("store.stages.hit")
            obs.count(f"store.stage.{kind}.{stage}.hit")
        else:
            self.stats.stage_misses += 1
            obs.count("store.stages.miss")
            obs.count(f"store.stage.{kind}.{stage}.miss")

    def publish_stage(
        self,
        fingerprint: str,
        kind: str,
        stage: str,
        platform: str,
        dataset: str,
        app_id: str,
        value,
    ) -> None:
        """Add one stage artifact to its app's slot, pending the write.

        The slot is written by :meth:`finish_app` or, for an app whose
        result is being published, by :meth:`publish_app`.  A stage
        already filed, stored or pending, is kept as filed.
        """
        if not self.write:
            return
        slot = self._open(kind, platform, dataset, app_id)
        if fingerprint not in slot.entries and fingerprint not in slot.pending:
            meta = {"entry_kind": "stage", "stage": f"{kind}.{stage}"}
            slot.pending[fingerprint] = (meta, value)

    # -- unit-level access (the engine's interface) ------------------------

    def _unit_apps(self, unit) -> List[tuple]:
        """``(app_id, per_app_extra)`` for each index of one work unit."""
        kind, platform, dataset, indices, extra = unit
        apps = self.corpus.dataset(platform, dataset)
        if kind == "circumvent":
            extras = list(extra)
        else:
            extras = [extra] * len(indices)
        return [
            (apps[index].app.app_id, extras[position])
            for position, index in enumerate(indices)
        ]

    def lookup_unit(self, unit) -> Optional[list]:
        """The composed stored result for one work unit, or None.

        All of the unit's apps must hit — a partial unit is a unit miss
        and is recomputed whole (and republished per app, so the next
        warm run hits).
        """
        if not self.read:
            return None
        kind, platform, dataset, _indices, _extra = unit
        results = []
        for app_id, app_extra in self._unit_apps(unit):
            result = self.lookup_app(
                kind, platform, dataset, app_id, app_extra
            )
            if result is None:
                self.stats.unit_misses += 1
                obs.count("store.units.miss")
                return None
            results.append(result)
        self.stats.unit_hits += 1
        obs.count("store.units.hit")
        return results

    def probe_unit_stages(self, unit) -> bool:
        """Whether any app of this unit has warm *stage* artifacts.

        The engine's partial-recomputation probe: a unit that missed at
        the app level but has persisted upstream stages on disk is worth
        running locally through the stage cache instead of shipping to a
        cache-less pool worker.
        """
        if not self.read:
            return False
        kind, platform, dataset, _indices, _extra = unit
        graph = self._graph(kind)
        if graph is None:
            return False
        for app_id, app_extra in self._unit_apps(unit):
            keys = self._stage_keys(graph, platform, dataset, app_id, app_extra)
            entries = self._open(kind, platform, dataset, app_id).entries
            if any(
                stage.persist and keys[stage.name] in entries
                for stage in graph.stages
            ):
                return True
        return False

    def publish_unit(self, unit, results: list) -> None:
        """File one completed unit's results: one slot write per app.

        Only a complete unit is publishable: a quarantined unit whose
        survivors were merged around abandoned apps no longer aligns
        with its index list (its solo re-runs published themselves).

        Stage artifacts recoverable from a result (the graph's
        ``derive`` extractors) are published alongside, so future runs
        with a flipped downstream knob can warm-start mid-graph even
        when the cold run computed units in cache-less pool workers.  A
        unit run against this handle has its graph's stages pending
        already; they go out with the result, in the app's one write.
        """
        if not self.write:
            return
        kind, platform, dataset, indices, _extra = unit
        if len(results) != len(indices):
            return
        graph = self._graph(kind)
        for (app_id, app_extra), result in zip(
            self._unit_apps(unit), results
        ):
            if graph is not None and result is not None:
                keys = self._stage_keys(
                    graph, platform, dataset, app_id, app_extra
                )
                for stage in graph.stages:
                    if stage.persist and stage.derive is not None:
                        try:
                            artifact = stage.derive(result)
                        except (AttributeError, TypeError):
                            # A result that cannot supply this stage's
                            # artifact (a foreign or test result type) is
                            # still a valid app-level entry; backfilling
                            # stage entries is best-effort — a future run
                            # simply recomputes that stage cold.
                            continue
                        self.publish_stage(
                            keys[stage.name],
                            kind,
                            stage.name,
                            platform,
                            dataset,
                            app_id,
                            artifact,
                        )
            self.publish_app(
                kind, platform, dataset, app_id, app_extra, result
            )


def _settings(config) -> tuple:
    """``(name, value)`` of every field of a corpus config."""
    return tuple((item.name, getattr(config, item.name)) for item in fields(config))


def corpus_file_name(config) -> str:
    """The name of the file keeping the corpus generated from ``config``.

    Every field of the :class:`~repro.corpus.generator.CorpusConfig`
    enters it, with the store version and :data:`CODE_SALT`.
    """
    identity = repr((_VERSION, CODE_SALT, "corpus", _settings(config)))
    return hashlib.sha256(identity.encode("utf-8")).hexdigest()


class CorpusStore:
    """The generated corpora kept in a result-store directory.

    A warm re-run needs the same corpus its stored results were computed
    over, and reading it back costs a fraction of generating it.
    :meth:`~repro.corpus.generator.CorpusGenerator.generate` asks
    :meth:`load` first and hands a corpus it built to :meth:`save`,
    before any study runs on it.  A corpus file is an envelope like a
    slot's and follows the same corruption contract: a damaged file is
    warned about, deleted and regenerated; ``AttributeError`` and
    ``ImportError`` propagate.

    Args:
        root: store directory (created on first save).
        read: read kept corpora (``--no-store-read`` regenerates).
        write: keep generated corpora (``--no-store-write`` does not).

    Attributes:
        loaded: whether the last corpus asked for came from the store.
    """

    def __init__(self, root: Union[str, Path], read: bool = True, write: bool = True):
        self.root = Path(root)
        self.read = bool(read)
        self.write = bool(write)
        self.loaded = False

    def path(self, config) -> Path:
        return self.root / "corpus" / f"{corpus_file_name(config)}.pkl"

    def load(self, config):
        """The kept corpus of ``config``, or None to generate it."""
        self.loaded = False
        if not self.read:
            return None
        path = self.path(config)
        try:
            envelope = _read_envelope(path, _CORPUS_MAGIC, path.stem)
            if envelope is None:
                return None
            corpus = _loads_paused(envelope[2])
            _promote_to_oldest()
        except _CORRUPTION_ERRORS as exc:
            _discard(
                path,
                f"stored corpus {path} is corrupt ({exc}); it was "
                "discarded and the corpus will be regenerated",
            )
            return None
        self.loaded = True
        return corpus

    def save(self, config, corpus) -> None:
        """Keep a freshly generated corpus of ``config``."""
        if self.write:
            path = self.path(config)
            meta = dict(_settings(config))
            _write_envelope(self.root, path, _CORPUS_MAGIC, path.stem, meta, corpus)

    def describe(self) -> str:
        if self.loaded:
            return "corpus loaded from store"
        return "corpus generated and stored" if self.write else "corpus generated"
