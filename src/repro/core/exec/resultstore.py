"""Content-addressed result store: warm-start re-runs of the study.

A :class:`ResultStore` keeps per-app pipeline results on disk, each
filed under a **fingerprint** of everything it is a function of: the key
schema version and :data:`CODE_SALT`, the corpus fingerprint (seed plus
dataset sizes), the capture window, the stage, the app's platform,
dataset and id, and its per-app stage config (for graph kinds, the final
stage's chain key).  Unit boundaries, retries and telemetry are
absent, so a warm run hits however the cold run was scheduled; it
recomputes only fingerprint misses and stays bit-for-bit identical to a
cold run.  DESIGN.md §10 has the full contract.

Layout::

    store/
      store.json          # informational manifest (version, salt)
      packs/<pack>.pkl    # one file per (corpus, kind, platform, dataset)
      corpus/<name>.pkl   # one generated corpus per corpus config

A **pack** holds every stored artifact of one dataset's apps for one
kind, for every config.  Its file is a pickled header ``(magic, version,
pack name, meta, payload_sha256, payload_size)`` followed by the
payload: one segment per app, two pickles written by one
:class:`pickle.Pickler` (the app's results, then its stage artifacts).
A result's captures are not in the results pickle: each is a reference
to the stage artifact it is, and decodes from the stage pickle when
first read (:meth:`~repro.netsim.capture.TrafficCapture.deferred`).
``meta`` is plain data — segment offsets and, per fingerprint, the app
and what the entry is (an app result also with its config digest) — so
``tools/diff_runs.py`` never unpickles a payload.

A handle keeps one pack current and reads its header once per visit; a
miss decodes nothing, an app lookup decodes only the app's results
(found by app id and config digest, without deriving stage keys), a
stage lookup also its stage artifacts.  Writes merge pending additions
into a fresh read of the file and replace it atomically (``mkstemp``
plus ``os.replace``); under :meth:`ResultStore.holding` a unit's stages
wait for :meth:`ResultStore.publish_unit`, which writes the pack once.
Concurrent writers can lose an update, which reads as a miss, never as
a wrong value.  A failed write raises :class:`StoreWriteError`.

A truncated, tampered or misnamed pack (or corpus file) is warned about,
counted, deleted and recomputed.  Programming errors while unpickling
(``AttributeError``, ``ImportError``: a missed :data:`CODE_SALT` bump)
propagate instead.  Payloads are unpickled with the cyclic collector
paused (:func:`_paused`) and, in a run that owns the freeze
(:attr:`ResultStore.freeze_decoded`), frozen as soon as decoded.
"""

from __future__ import annotations

import copy
import gc
import hashlib
import io
import json
import os
import pickle
import tempfile
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from functools import partial
from pathlib import Path
from typing import List, Optional, Union

from repro.core import obs

_MAGIC = "repro-result-store"
_PACK_MAGIC = "repro-result-pack"
_CORPUS_MAGIC = "repro-result-corpus"
#: Bytes hashed at a time when a pack's payload is verified unread.
_CHUNK = 1 << 16
#: On-disk format version.  v2: one slot file per app; v3: one pack file
#: per dataset; v4: results carry per-flow facts and refer to their
#: captures in the stage pickle.  A file of another version is never read
#: (pack and corpus file names hash it).
_VERSION = 4
#: The schema version every fingerprint hashes.  Independent of the file
#: format: repacking stored entries does not change what they are.
_KEY_VERSION = 2

#: Code/schema version salt.  Bump on any change to pipeline semantics or
#: result dataclass schemas: old entries stop hitting instead of feeding
#: stale results into a new checkout.  v2: stage-graph fingerprints —
#: app-level keys are now the final stage's chain key, so every config
#: knob (not just sleep/wait/pins) enters the address.
CODE_SALT = "pin-study-results-v2"

#: What unpickling/validating a *damaged* pack can raise.  Truncated or
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


def _paused(load, *args):
    """``load(*args)`` with cyclic collection paused for its duration.

    The previous :func:`gc.isenabled` state is restored afterwards, so a
    caller that disabled the collector keeps it disabled.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return load(*args)
    finally:
        if enabled:
            gc.enable()


def _loads_paused(data: bytes):
    """``pickle.loads`` with cyclic collection paused (:func:`_paused`)."""
    return _paused(pickle.loads, data)


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


@dataclass
class _Envelope:
    """A verified envelope file: its header, where its payload starts,
    its :func:`_identity`, and its payload if the reader kept it."""

    meta: dict
    digest: str
    offset: int
    identity: tuple
    payload: Optional[bytes]


def _identity(fh) -> tuple:
    """What changes when a file is replaced or rewritten in place."""
    stat = os.fstat(fh.fileno())
    return stat.st_ino, stat.st_size, stat.st_mtime_ns


def _read_envelope(path: Path, magic: str, name: str, keep_payload: bool = True):
    """The verified envelope file at ``path``, or None when it is absent.

    The file is a pickled header ``(magic, version, name, meta,
    payload_sha256, payload_size)`` followed by the payload.  A bad
    magic, version, name or digest raises ``ValueError``, a short payload
    ``EOFError``; damaged header bytes raise one of
    :data:`_CORRUPTION_ERRORS`.  Without ``keep_payload`` the payload is
    hashed in chunks and dropped.
    """
    try:
        fh = open(path, "rb")
    except OSError:
        return None
    with fh:
        file_magic, version, file_name, meta, digest, size = pickle.load(fh)
        if file_magic != magic or version != _VERSION:
            raise ValueError(f"not a {magic} file")
        if file_name != name:
            raise ValueError("envelope name does not match its path")
        offset = fh.tell()
        hasher = hashlib.sha256()
        payload = fh.read(size) if keep_payload else None
        if payload is not None:
            hasher.update(payload)
            received = len(payload)
        else:
            received = 0
            while received < size:
                chunk = fh.read(min(_CHUNK, size - received))
                if not chunk:
                    break
                hasher.update(chunk)
                received += len(chunk)
        if received != size:
            raise EOFError("payload is truncated")
        if hasher.hexdigest() != digest:
            raise ValueError("payload digest mismatch")
        return _Envelope(meta, digest, offset, _identity(fh), payload)


def _write_envelope(path: Path, magic: str, name: str, meta: dict, encode) -> _Envelope:
    """Atomically replace ``path`` with an envelope of ``encode()``, the
    payload bytes (it runs first, so ``meta`` may describe them).

    The temp file from :func:`tempfile.mkstemp` is moved over ``path``
    with ``os.replace``, so a killed writer never leaves a half-written
    file under a valid name.  Any failure, pickling included, raises
    :class:`StoreWriteError`.  Returns the envelope as written.
    """
    try:
        payload = encode()
        digest = hashlib.sha256(payload).hexdigest()
        header = (magic, _VERSION, name, meta, digest, len(payload))
        try:
            fd, tmp = _mkstemp(path)
        except FileNotFoundError:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = _mkstemp(path)
        try:
            with os.fdopen(fd, "wb") as fh:
                pickle.dump(header, fh)
                offset = fh.tell()
                fh.write(payload)
                fh.flush()
                identity = _identity(fh)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
    except Exception as exc:
        raise StoreWriteError(f"cannot write result store file {path}: {exc}") from exc
    return _Envelope(meta, digest, offset, identity, payload)


def _read_at(path: Path, identity: Optional[tuple], start: int, size: int) -> Optional[bytes]:
    """``size`` bytes at ``start`` of the file at ``path``, or None if it
    is absent or no longer the file ``identity`` names."""
    try:
        with open(path, "rb") as fh:
            if _identity(fh) != identity:
                return None
            fh.seek(start)
            return fh.read(size)
    except OSError:
        return None


def _mkstemp(path: Path):
    """A temp file of this write's own, beside ``path``."""
    return tempfile.mkstemp(prefix=f".{path.name}.", suffix=".tmp", dir=path.parent)


def _ensure_manifest(root: Path) -> None:
    """Write ``store.json`` unless it exists.  Failures raise
    :class:`StoreWriteError`."""
    try:
        if not (root / "store.json").exists():
            root.mkdir(parents=True, exist_ok=True)
            manifest = {"magic": _MAGIC, "version": _VERSION, "salt": CODE_SALT}
            with open(root / "store.json", "w") as fh:
                json.dump(manifest, fh, indent=1, sort_keys=True)
                fh.write("\n")
    except OSError as exc:
        raise StoreWriteError(f"cannot write result store manifest in {root}: {exc}") from exc


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
            _KEY_VERSION,
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


def pack_name(corpus_fp: str, kind: str, platform: str, dataset: str) -> str:
    """The name of the pack holding every stored artifact of one
    dataset's apps for one kind."""
    identity = repr((_VERSION, CODE_SALT, "pack", corpus_fp, kind, platform, dataset))
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
    """Writing a pack failed: a full disk, a read-only store directory, a
    result that does not pickle.

    The engine never retries or quarantines it
    (:data:`~repro.core.exec.faults.NON_RETRYABLE_ERRORS`): recomputing
    an app cannot cure its store, and abandoning apps whose results were
    computed correctly would turn a cache failure into lost results.
    The run fails instead, with the cause chained.
    """


@dataclass
class _Pack:
    """One dataset's pack of one kind, as a handle knows it.

    ``entries`` (fingerprint -> metadata), ``segments`` (app id ->
    ``(start, end)`` of its two pickles in the payload),
    ``digest``, ``offset`` (of the payload in the file) and ``identity``
    mirror the file as last read or written; the payload stays on disk.
    ``index`` maps (app id, config digest) to the fingerprint of each
    stored app result.  ``decoded`` holds the last app decoded: its
    results, then its stage artifacts.  ``pending`` and ``written`` map
    fingerprints to ``(metadata, artifact, refs)``: additions not yet
    written, and the results this handle wrote; ``refs`` pairs each of a
    result's deferrable stage artifacts with its :class:`_Ref`.
    """

    key: tuple
    name: str
    path: Path
    entries: dict = field(default_factory=dict)
    segments: dict = field(default_factory=dict)
    index: dict = field(default_factory=dict)
    digest: Optional[str] = None
    offset: int = 0
    identity: Optional[tuple] = None
    decoded: dict = field(default_factory=dict)
    pending: dict = field(default_factory=dict)
    written: dict = field(default_factory=dict)

    def adopt(self, envelope: Optional[_Envelope]) -> None:
        """Mirror ``envelope`` (None: no file), dropping what was decoded."""
        self.decoded = {}
        if envelope is None:
            self.entries, self.segments, self.index = {}, {}, {}
            self.digest, self.offset, self.identity = None, 0, None
        else:
            self.entries = dict(envelope.meta["entries"])
            self.segments = dict(envelope.meta["segments"])
            self.index = {
                (meta["app_id"], meta["config"]): key
                for key, meta in self.entries.items()
                if meta["entry_kind"] == "app"
            }
            self.digest, self.offset = envelope.digest, envelope.offset
            self.identity = envelope.identity


#: The two pickles of an app's segment: its results, then its stage
#: artifacts.
_RESULTS, _STAGES = 0, 1


def _unpickle(data: bytes, parts: int) -> list:
    """The first ``parts`` pickles of an app's segment, unpickled with
    collection paused."""
    unpickler = pickle.Unpickler(io.BytesIO(data))
    values = [_paused(unpickler.load) for _ in range(parts)]
    if parts > _STAGES:
        obs.count("store.stages.decoded")
    return values


@dataclass(frozen=True)
class _Ref:
    """What a stored result holds in place of a capture: the capture's
    type and the key of the stage artifact it is, in the same segment."""

    kind: type
    key: str

    def __reduce__(self):
        return _Ref, (self.kind, self.key)


def _detached(result, refs: tuple, entries: dict):
    """``result`` as its results pickle holds it: a shallow copy whose
    attributes holding a stage artifact filed in ``entries`` hold its
    :class:`_Ref` instead (``result`` itself if it has none)."""
    swap = {id(artifact): ref for artifact, ref in refs if ref.key in entries}
    if not swap:
        return result
    stored = copy.copy(result)
    attrs = vars(stored)
    attrs.update({name: swap[id(value)] for name, value in attrs.items() if id(value) in swap})
    return stored


@dataclass
class _Segment:
    """Where one app's segment was read from, for the deferred captures
    of the results decoded from it.

    It holds no result, so a result, its deferred captures and this
    form no reference cycle.  ``stages`` are its stage artifacts once
    decoded: by a stage lookup, or by the first capture read.
    """

    path: Path
    name: str
    app_id: str
    identity: Optional[tuple]
    start: int
    size: int
    stages: Optional[dict] = None

    def attach(self, results: dict) -> None:
        """Put deferred captures in place of the :class:`_Ref` attributes
        of decoded ``results``."""
        for result in results.values():
            attrs = getattr(result, "__dict__", {})
            for name, value in attrs.items():
                if type(value) is _Ref:
                    attrs[name] = value.kind.deferred(partial(self.artifact, value.key))

    def read(self) -> Optional[bytes]:
        """The segment's bytes, or None if the file was replaced since."""
        return _read_at(self.path, self.identity, self.start, self.size)

    def artifact(self, key: str):
        if self.stages is None:
            self.stages = self._load()
        if key not in self.stages:
            raise LookupError(f"stage artifact {key} is not in {self.path}")
        return self.stages[key]

    def _load(self) -> dict:
        """This app's stage artifacts, from the pack file as it is now.

        A pack replaced since (a later write merged into it) is found
        again by its header.  A damaged one is warned about and deleted
        like on any read, and the capture cannot be served.
        """
        try:
            data = self.read()
            if data is None:
                envelope = _read_envelope(self.path, _PACK_MAGIC, self.name, False)
                bounds = envelope and envelope.meta["segments"].get(self.app_id)
                if bounds:
                    start, end = bounds
                    data = _read_at(
                        self.path, envelope.identity, envelope.offset + start, end - start
                    )
            if data is None:
                raise LookupError(f"{self.app_id} has no segment in {self.path}")
            return _unpickle(data, _STAGES + 1)[_STAGES]
        except _CORRUPTION_ERRORS as exc:
            obs.count("store.entries.invalidated")
            _discard(
                self.path,
                f"result store pack {self.path} is corrupt ({exc}); the pack "
                "was discarded and its dataset's entries will be recomputed",
            )
            raise LookupError(f"cannot decode a capture from {self.path}") from exc


def _derived(graph, result):
    """``(stage, artifact)`` for each persisted stage whose artifact
    ``result`` supplies through the stage's ``derive``."""
    for stage in graph.stages:
        if stage.persist and stage.derive is not None:
            try:
                artifact = stage.derive(result)
            except (AttributeError, TypeError):
                # A result that cannot supply this stage's artifact (a
                # foreign or test result type) is still a valid app-level
                # entry; it is stored without capture references.
                continue
            yield stage, artifact


def _memo_key(graph, platform: str, dataset: str, app_id: str, params: dict) -> tuple:
    """The key of one app's stage keys in a handle's memo."""
    return graph.kind, platform, dataset, app_id, tuple(sorted(params.items()))


def _part_of(meta: dict) -> int:
    """The pickle of its app's segment an entry's value is stored in."""
    return _RESULTS if meta["entry_kind"] == "app" else _STAGES


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
        freeze_decoded: when true, :func:`gc.freeze` follows each
            segment's decode, so collections until the run ends never
            scan it.  Set only by a run that owns the freeze and unfreezes
            when it ends (``Study.run``).
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
        # (kind, platform, dataset, app id, params) -> stage keys under
        # the bound knobs, for the apps whose result is not filed yet;
        # emptied when a binding changes.
        self._keys_memo: dict = {}
        # (kind, params) -> config digest under the bound knobs; emptied
        # when a binding changes.
        self._digests: dict = {}
        self._pack: Optional[_Pack] = None
        self._held = False
        self._manifest_written = False
        self.freeze_decoded = False

    # -- layout ------------------------------------------------------------

    def pack_path(self, kind: str, platform: str, dataset: str) -> Path:
        """The file holding every stored artifact of one dataset's apps
        for one kind."""
        return self._pack_file(pack_name(self.corpus_fp, kind, platform, dataset))

    def _pack_file(self, name: str) -> Path:
        return self.root / "packs" / f"{name}.pkl"

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
            if pipeline is not None and self._knobs.get(kind) is not pipeline:
                self._knobs[kind] = pipeline
                self._keys_memo.clear()
                self._digests.clear()

    @staticmethod
    def _graph(kind: str):
        from repro.core.pipeline import graph_for

        return graph_for(kind)

    def stage_keys(
        self, graph, platform: str, dataset: str, app_id: str, params, knobs
    ) -> dict:
        """The stage keys of one app and config, knobs read from ``knobs``.

        Under the bound pipeline they are computed once and shared by the
        stage lookups and the result's own address until the result is
        filed.  Serving a stored result needs none
        (:meth:`lookup_app` finds it by config digest).
        """
        if knobs is not self._knobs.get(graph.kind):
            return graph.stage_keys(
                self.corpus_fp, platform, dataset, app_id, params=params, knobs=knobs
            )
        return self._stage_keys(graph, platform, dataset, app_id, params)

    def _resolution(self, kind: str) -> tuple:
        """``(knobs, overrides)`` config knobs of ``kind`` resolve from."""
        knobs = self._knobs.get(kind)
        return knobs, None if knobs is not None else {"sleep_s": self.sleep_s}

    def _stage_keys(
        self, graph, platform: str, dataset: str, app_id: str, params: dict
    ) -> dict:
        """Stage keys under the bound knobs, memoised."""
        memo = _memo_key(graph, platform, dataset, app_id, params)
        keys = self._keys_memo.get(memo)
        if keys is None:
            knobs, overrides = self._resolution(graph.kind)
            keys = graph.stage_keys(
                self.corpus_fp,
                platform,
                dataset,
                app_id,
                params=params,
                knobs=knobs,
                overrides=overrides,
            )
            self._keys_memo[memo] = keys
        return keys

    def _config(self, kind: str, platform: str, dataset: str, app_id: str, extra) -> str:
        """What, besides the app, an app entry's address is a function of.

        For graph kinds, the graph's config digest under the bound knobs,
        computed once per kind and parameters; otherwise the flat
        fingerprint itself.
        """
        graph = self._graph(kind)
        if graph is None:
            return app_fingerprint(
                self.corpus_fp, self.sleep_s, kind, platform, dataset, app_id, extra
            )
        params = graph.params_from_extra(extra)
        memo = kind, tuple(sorted(params.items()))
        digest = self._digests.get(memo)
        if digest is None:
            knobs, overrides = self._resolution(kind)
            digest = self._digests[memo] = graph.config_digest(params, knobs, overrides)
        return digest

    def _extra_keys(
        self, graph, platform: str, dataset: str, app_id: str, extra
    ) -> dict:
        """Stage keys of one app under a work unit's per-app ``extra``."""
        return self._stage_keys(
            graph, platform, dataset, app_id, graph.params_from_extra(extra)
        )

    def _forget(self, stage: str, platform: str, dataset: str, app_id: str, extra) -> None:
        """Drop one app's memoised stage keys: its result was filed, so
        nothing of this handle asks for them again."""
        graph = self._graph(stage)
        if graph is not None:
            params = graph.params_from_extra(extra)
            self._keys_memo.pop(_memo_key(graph, platform, dataset, app_id, params), None)

    # -- packs -------------------------------------------------------------

    def _open(self, kind: str, platform: str, dataset: str) -> _Pack:
        """Make one dataset's pack current, reading its file once per
        visit (not with reads disabled; writes still merge with it).

        Moving to another pack first writes this one's pending additions.
        """
        key = (kind, platform, dataset)
        current = self._pack
        if current is not None and current.key == key:
            return current
        if current is not None and current.pending:
            self._write(current)
        name = pack_name(self.corpus_fp, *key)
        pack = _Pack(key, name, self._pack_file(name))
        if self.read:
            self._read(pack)
        self._pack = pack
        return pack

    def _read(self, pack: _Pack, keep_payload: bool = False) -> Optional[bytes]:
        """Load the pack's verified file into ``pack``; return its
        payload with ``keep_payload``.

        An absent file reads as an empty pack, and so does a corrupt one
        (:data:`_CORRUPTION_ERRORS`), after it is invalidated.
        """
        try:
            envelope = _read_envelope(pack.path, _PACK_MAGIC, pack.name, keep_payload)
            pack.adopt(envelope)
        except _CORRUPTION_ERRORS as exc:
            self._invalidate(pack.path, exc)
            envelope = None
            pack.adopt(None)
        return envelope.payload if envelope is not None else None

    @staticmethod
    def _segment(pack: _Pack, app_id: str) -> Optional[_Segment]:
        """Where one app's segment is in the file ``pack`` mirrors."""
        if app_id not in pack.segments:
            return None
        start, end = pack.segments[app_id]
        return _Segment(
            pack.path, pack.name, app_id, pack.identity, pack.offset + start, end - start
        )

    def _decode(self, pack: _Pack, app_id: str, part: int) -> dict:
        """Pickle ``part`` (:data:`_RESULTS` or :data:`_STAGES`) of one
        app's segment, unpickled on first use with collection paused.

        The captures in the results are deferred: they decode from the
        stage pickle if something reads them.  The stage pickle refers
        into the results pickle's memo, so stages asked for after the
        results decode the segment again from its start.  A pack file
        replaced since the handle read it is read again first.  Only
        errors damaged bytes can produce invalidate the pack; anything
        else (an ``AttributeError`` from a renamed result class, an
        ``ImportError`` from a moved module) is a programming error,
        usually a missing :data:`CODE_SALT` bump, and propagates instead
        of silently recomputing the store.
        """
        parts = pack.decoded.get(app_id, ())
        if len(parts) > part:
            return parts[part]
        segment = self._segment(pack, app_id)
        data = segment.read() if segment else None
        if segment and data is None:
            self._read(pack)
            segment = self._segment(pack, app_id)
            data = segment.read() if segment else None
        if data is None:
            return {}
        try:
            parts = _unpickle(data, part + 1)
        except _CORRUPTION_ERRORS as exc:
            self._invalidate(pack.path, exc)
            pack.adopt(None)
            return {}
        segment.attach(parts[_RESULTS])
        if part == _STAGES:
            segment.stages = parts[_STAGES]
        if self.freeze_decoded:
            gc.freeze()
        pack.decoded = {app_id: parts}
        return parts[part]

    def _merge_parts(self, pack: _Pack, app_id: str, payload: bytes) -> list:
        """Both pickles of one app's segment in ``payload``, to be
        encoded again (stored results keep their :class:`_Ref`
        attributes).  A damaged segment invalidates the pack and reads as
        empty."""
        if app_id in pack.segments:
            start, end = pack.segments[app_id]
            try:
                return _unpickle(payload[start:end], _STAGES + 1)
            except _CORRUPTION_ERRORS as exc:
                self._invalidate(pack.path, exc)
                pack.adopt(None)
        return [{}, {}]

    def _invalidate(self, path: Path, reason: Exception) -> None:
        self.stats.invalidated += 1
        obs.count("store.entries.invalidated")
        _discard(
            path,
            f"result store pack {path} is corrupt ({reason}); the pack "
            "was discarded and its dataset's entries will be recomputed",
        )

    def _write(self, pack: _Pack) -> None:
        """Merge the pack's pending additions into a fresh read of its
        file, and replace the file.

        Keys another handle stored are kept, and so are the results this
        handle wrote before where a concurrent writer's replace dropped
        them.  Pending keys already on disk are dropped (same content
        address, same value); a pack with nothing new is not rewritten.
        Only the apps with additions are decoded and pickled again (their
        stored results' captures stay references); the other segments
        are copied as they are.  Failures raise :class:`StoreWriteError`.
        """
        pending, pack.pending = pack.pending, {}
        published = set(pending)
        for key, addition in pack.written.items():
            pending.setdefault(key, addition)
        digest, decoded = pack.digest, pack.decoded
        payload = self._read(pack, keep_payload=True)
        if pack.digest == digest:
            pack.decoded = decoded
        # app id -> [(fingerprint, metadata, artifact, refs)] not on disk yet.
        added: dict = {}
        for key, (meta, value, refs) in pending.items():
            if key not in pack.entries:
                added.setdefault(meta["app_id"], []).append((key, meta, value, refs))
        if not added:
            return
        for additions in added.values():
            for key, meta, value, refs in additions:
                pack.entries[key] = meta
                if meta["entry_kind"] == "app":
                    pack.written[key] = (meta, value, refs)
        merged: dict = {}
        for app_id, additions in added.items():
            parts = self._merge_parts(pack, app_id, payload)
            for key, meta, value, refs in additions:
                parts[_part_of(meta)][key] = _detached(value, refs, pack.entries)
            merged[app_id] = parts
        segments: dict = {}

        def encode() -> bytes:
            buffer = io.BytesIO()
            # The apps already in the file, in its order, then new ones.
            for app_id in {**pack.segments, **added}:
                start = buffer.tell()
                if app_id in merged:
                    pickler = pickle.Pickler(buffer)
                    for part in merged[app_id]:
                        pickler.dump(part)
                else:
                    was_start, was_end = pack.segments[app_id]
                    buffer.write(memoryview(payload)[was_start:was_end])
                segments[app_id] = (start, buffer.tell())
            return buffer.getvalue()

        meta = dict(
            zip(("kind", "platform", "dataset"), pack.key),
            corpus=self.corpus_fp,
            salt=CODE_SALT,
            entries=pack.entries,
            segments=segments,
        )
        if not self._manifest_written:
            _ensure_manifest(self.root)
            self._manifest_written = True
        pack.adopt(_write_envelope(pack.path, _PACK_MAGIC, pack.name, meta, encode))
        for additions in added.values():
            for key, meta, _value, _refs in additions:
                if key not in published:
                    continue
                if meta["entry_kind"] == "app":
                    self.stats.published += 1
                    obs.count("store.apps.published")
                else:
                    self.stats.stage_published += 1
                    obs.count("store.stages.published")

    def _flush(self) -> None:
        """Write the current pack's pending additions, if any."""
        if self._pack is not None and self._pack.pending:
            self._write(self._pack)

    @contextmanager
    def holding(self):
        """Hold computed stages until their unit's results are published.

        Inside, :meth:`finish_app` leaves the stages a stage graph
        computed pending, and the caller's :meth:`publish_unit` writes
        them together with the unit's results: one write per unit.
        Whatever is still pending on exit (the apps of a unit that failed
        part-way) is written then.
        """
        self._held = True
        try:
            yield
        finally:
            self._held = False
            self._flush()

    def finish_app(self) -> None:
        """A stage graph finished its app: write its pack.

        Held (see :meth:`holding`), the write waits for the unit's
        results.
        """
        if not self._held:
            self._flush()

    # -- per-app access ----------------------------------------------------

    def lookup_app(
        self, stage: str, platform: str, dataset: str, app_id: str, extra
    ):
        """The stored result for one app under one stage config, or None.

        A corrupt pack is invalidated (warned, counted, deleted) and
        reads as a miss, so the caller recomputes instead of trusting a
        damaged payload.
        """
        if not self.read:
            return None
        pack = self._open(stage, platform, dataset)
        config = self._config(stage, platform, dataset, app_id, extra)
        fingerprint = pack.index.get((app_id, config))
        result = None
        if fingerprint is not None:
            result = self._decode(pack, app_id, _RESULTS).get(fingerprint)
        if result is None:
            self.stats.app_misses += 1
            obs.count("store.apps.miss")
            return None
        self.stats.app_hits += 1
        obs.count("store.apps.hit")
        return result

    def _add_app(
        self,
        stage: str,
        platform: str,
        dataset: str,
        app_id: str,
        extra,
        result,
    ) -> _Pack:
        """File one app's result in its pack, pending the write.

        Its captures that are also stage artifacts (a graph's ``derive``
        extracts them, and their type can be
        :meth:`~repro.netsim.capture.TrafficCapture.deferred`) are
        written as references to those, if those are in the pack.
        """
        graph = self._graph(stage)
        config = self._config(stage, platform, dataset, app_id, extra)
        refs: tuple = ()
        if graph is None:
            fingerprint = config  # the flat fingerprint
        else:
            keys = self._extra_keys(graph, platform, dataset, app_id, extra)
            fingerprint = keys[graph.final]
            refs = tuple(
                (artifact, _Ref(type(artifact), keys[item.name]))
                for item, artifact in _derived(graph, result)
                if hasattr(type(artifact), "deferred")
            )
        pack = self._open(stage, platform, dataset)
        if fingerprint not in pack.entries:
            pack.pending[fingerprint] = (
                {
                    "entry_kind": "app",
                    "app_id": app_id,
                    "stage": stage,
                    "config": config,
                    "sleep_s": self.sleep_s,
                    "extra": repr(normalize_extra(stage, extra)),
                    "summary": summarize_result(result),
                },
                result,
                refs,
            )
        self._forget(stage, platform, dataset, app_id, extra)
        return pack

    def publish_app(
        self,
        stage: str,
        platform: str,
        dataset: str,
        app_id: str,
        extra,
        result,
    ) -> None:
        """File one app's result in its pack and write the pack.

        Pending additions to the same pack go out in the same write.
        Idempotent: a result already stored is not rewritten.
        """
        if not self.write:
            return
        pack = self._add_app(stage, platform, dataset, app_id, extra, result)
        if pack.pending:
            self._write(pack)

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
        corruption invalidates the pack and reads as a miss, same as
        the app-level contract.
        """
        if not self.read:
            return miss
        pack = self._open(kind, platform, dataset)
        value = miss
        if fingerprint in pack.entries:
            value = self._decode(pack, app_id, _STAGES).get(fingerprint, miss)
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
        """Add one stage artifact to its dataset's pack, pending the write.

        The pack is written by :meth:`finish_app` or, for a unit whose
        results are being published, by :meth:`publish_unit`.  A stage
        already filed, stored or pending, is kept as filed.
        """
        if not self.write:
            return
        pack = self._open(kind, platform, dataset)
        if fingerprint not in pack.entries and fingerprint not in pack.pending:
            meta = {"entry_kind": "stage", "app_id": app_id, "stage": f"{kind}.{stage}"}
            pack.pending[fingerprint] = (meta, value, ())

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
        and is recomputed whole (and republished, so the next warm run
        hits).
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

    def publish_unit(self, unit, results: list) -> None:
        """File one completed unit's results: one write of its pack.

        Only a complete unit is publishable: a quarantined unit whose
        survivors were merged around abandoned apps no longer aligns
        with its index list (its solo re-runs published themselves).
        A unit run against this handle has its graph's stages pending
        already; they go out with the results, in the same write.
        """
        if not self.write:
            return
        kind, platform, dataset, indices, _extra = unit
        if len(results) != len(indices):
            return
        pack = None
        for (app_id, app_extra), result in zip(
            self._unit_apps(unit), results
        ):
            pack = self._add_app(
                kind, platform, dataset, app_id, app_extra, result
            )
        if pack is not None and pack.pending:
            self._write(pack)


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
    pack's and follows the same corruption contract: a damaged file is
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
            corpus = _loads_paused(envelope.payload)
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
            _ensure_manifest(self.root)
            _write_envelope(
                path, _CORPUS_MAGIC, path.stem, meta, lambda: pickle.dumps(corpus)
            )

    def describe(self) -> str:
        if self.loaded:
            return "corpus loaded from store"
        return "corpus generated and stored" if self.write else "corpus generated"
