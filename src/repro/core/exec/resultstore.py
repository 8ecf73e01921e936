"""Content-addressed result store: warm-start re-runs of the study.

A :class:`ResultStore` keeps per-app pipeline results on disk, each
filed under a **fingerprint** of everything it is a function of: the key
schema version and code salt (:mod:`repro.core.pipeline.graph`), the
corpus fingerprint (seed plus dataset sizes), the stage, the app's
platform, dataset and id, and its stage config: the final stage's chain
key, which hashes every config knob (the capture window among them) as
read off the pipelines bound to the handle.  Unit boundaries,
retries and telemetry are absent, so a warm run hits however the cold
run was scheduled; it recomputes only fingerprint misses and stays
bit-for-bit identical to a cold run.  DESIGN.md §10 has the full
contract.

Layout::

    store/
      store.json          # manifest (version, salt); another one sweeps old files
      packs/<pack>.pkl    # one file per (corpus, kind, platform, dataset)
      corpus/<name>.pkl   # one generated corpus per corpus config: its
                          # catalogue, then its detached part

A **pack** holds every stored artifact of one dataset's apps for one
kind, for every config.  Its file is a pickled header ``(magic, version,
pack name, meta bytes, sha256, payload_size)`` followed by the payload:
one pickle per entry, an app's result or one of its stage artifacts.  A
result is plain data (verdicts, exclusions, facts rows); the captures
are stage artifacts only.  ``meta`` is pickled plain data — per
fingerprint, the app, what the entry is (an app result also with its
config digest) and the ``(start, end)`` span of its pickle — and the
digest covers its bytes with the payload's, so a lookup trusts no
unverified header.  ``tools/diff_runs.py`` never unpickles a payload.

A handle keeps one pack current and reads its header once per visit; a
miss decodes nothing and a lookup decodes only its entry's pickle (an
app result is found by app id and config digest, without deriving stage
keys).  Additions wait in the current pack until
:meth:`ResultStore.publish_unit`, :meth:`ResultStore.flush` or a move to
another pack writes them: a write appends their pickles to a fresh read
of the file's payload, decoding nothing, and replaces the file
atomically (``mkstemp`` plus ``os.replace``).  Concurrent writers can
lose an update, and a pack replaced since the handle read it serves
nothing more: both read as a miss, never as a wrong value.  A failed
write raises :class:`StoreWriteError`.

A truncated, tampered or misnamed pack (or corpus file) is warned about,
counted, deleted and recomputed.  Programming errors while unpickling
(``AttributeError``, ``ImportError``: a missed :data:`CODE_SALT` bump)
propagate instead.  Payloads are unpickled with the cyclic collector
paused (:func:`_paused`) and, in a run that owns the freeze
(:attr:`ResultStore.freeze_decoded`), frozen as soon as decoded.
"""

from __future__ import annotations

import functools
import gc
import hashlib
import io
import json
import os
import pickle
import tempfile
import warnings
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import List, Optional, Union

from repro.core import obs
from repro.core.pipeline.graph import CODE_SALT

_MAGIC = "repro-result-store"
_PACK_MAGIC = "repro-result-pack"
_CORPUS_MAGIC = "repro-result-corpus"
#: Bytes hashed at a time when a pack's payload is verified unread.
_CHUNK = 1 << 16
#: On-disk format version.  v2: one slot file per app; v3: one pack file
#: per dataset; v4: results carry per-flow facts and refer to their
#: captures in the stage pickle; v5: one pickle per entry, results hold
#: no captures; v6: the header's metadata is pickled bytes the digest
#: covers; v7: a corpus file keeps its catalogue and its detached part
#: apart.  A file of another version is never read (pack and corpus file
#: names hash it).
_VERSION = 7


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


def _load_paused(source):
    """The pickle read from the binary file ``source``, unpickled with
    cyclic collection paused (:func:`_paused`)."""
    return _paused(pickle.Unpickler(source).load)


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


def _hash_chunks(fh, hasher, size: int) -> None:
    """Feed the next ``size`` bytes of ``fh`` to ``hasher``, a chunk at a
    time; fewer bytes raise ``EOFError``."""
    received = 0
    while received < size:
        chunk = fh.read(min(_CHUNK, size - received))
        if not chunk:
            raise EOFError("payload is truncated")
        hasher.update(chunk)
        received += len(chunk)


def _read_envelope(path: Path, magic: str, name: str, keep_payload: bool = True):
    """The verified envelope file at ``path``, or None when it is absent.

    The file is a pickled header ``(magic, version, name, meta bytes,
    sha256, payload_size)`` followed by the payload (a corpus file's
    detached part trails it, outside the digest); the digest covers the
    meta bytes and the payload, and ``meta`` is unpickled only once it is
    verified.  A bad magic, version, name or digest raises
    ``ValueError``, a short payload ``EOFError``; damaged header bytes
    raise one of :data:`_CORRUPTION_ERRORS`.  Without ``keep_payload``
    the payload is hashed in chunks and dropped.
    """
    try:
        fh = open(path, "rb")
    except OSError:
        return None
    with fh:
        file_magic, version, file_name, meta_bytes, digest, size = pickle.load(fh)
        if file_magic != magic or version != _VERSION:
            raise ValueError(f"not a {magic} file")
        if file_name != name:
            raise ValueError("envelope name does not match its path")
        offset = fh.tell()
        hasher = hashlib.sha256(meta_bytes)
        payload = fh.read(size) if keep_payload else None
        if payload is None:
            _hash_chunks(fh, hasher, size)
        elif len(payload) != size:
            raise EOFError("payload is truncated")
        else:
            hasher.update(payload)
        if hasher.hexdigest() != digest:
            raise ValueError("digest mismatch")
        return _Envelope(pickle.loads(meta_bytes), digest, offset, _identity(fh), payload)


def _write_envelope(path: Path, magic: str, name: str, meta: dict, encode) -> _Envelope:
    """Atomically replace ``path`` with an envelope of ``encode()``: the
    payload bytes and the bytes that trail them outside the digest (it
    runs first, so ``meta`` may describe them).

    The temp file from :func:`tempfile.mkstemp` is moved over ``path``
    with ``os.replace``, so a killed writer never leaves a half-written
    file under a valid name.  Any failure, pickling included, raises
    :class:`StoreWriteError`.  Returns the envelope as written.
    """
    try:
        payload, trailer = encode()
        meta_bytes = pickle.dumps(meta)
        hasher = hashlib.sha256(meta_bytes)
        hasher.update(payload)
        digest = hasher.hexdigest()
        header = (magic, _VERSION, name, meta_bytes, digest, len(payload))
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
                fh.write(trailer)
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


def _open_at(path: Path, identity: Optional[tuple], start: int):
    """The file at ``path`` open for reading at ``start``, or None if it
    is absent or no longer the file ``identity`` names."""
    try:
        fh = open(path, "rb")
    except OSError:
        return None
    if _identity(fh) != identity:
        fh.close()
        return None
    fh.seek(start)
    return fh


def _read_at(path: Path, identity: Optional[tuple], start: int, size: int) -> Optional[bytes]:
    """``size`` bytes at ``start`` of the file at ``path``, or None if it
    is absent or no longer the file ``identity`` names."""
    fh = _open_at(path, identity, start)
    if fh is None:
        return None
    try:
        with fh:
            return fh.read(size)
    except OSError:
        return None


def _load_at(path: Path, identity: Optional[tuple], start: int, check=None):
    """The pickle at ``start`` of the file at ``path``, unpickled from the
    file with collection paused and then promoted
    (:func:`_promote_to_oldest`); None if the file is absent or no longer
    the file ``identity`` names.

    With ``check``, ``(size, sha256)``, the ``size`` bytes at ``start``
    are hashed in chunks first, and a mismatch raises ``ValueError``.
    """
    fh = _open_at(path, identity, start)
    if fh is None:
        return None
    with fh:
        if check is not None:
            size, digest = check
            hasher = hashlib.sha256()
            _hash_chunks(fh, hasher, size)
            if hasher.hexdigest() != digest:
                raise ValueError("digest mismatch")
            fh.seek(start)
        value = _load_paused(fh)
    _promote_to_oldest()
    return value


def _mkstemp(path: Path):
    """A temp file of this write's own, beside ``path``."""
    return tempfile.mkstemp(prefix=f".{path.name}.", suffix=".tmp", dir=path.parent)


def _ensure_manifest(root: Path) -> None:
    """Write ``store.json`` unless it names this format version and salt.

    A manifest that names another version or salt means the store holds
    files of that other code.  Their names hash the version and salt, so
    no read of this code ever finds them; they are deleted before the
    manifest is rewritten.  A manifest that is missing or does not parse
    (a concurrent handle may be writing it) deletes nothing: every writer
    writes the manifest before its first file.  Failures raise
    :class:`StoreWriteError`.
    """
    manifest = {"magic": _MAGIC, "version": _VERSION, "salt": CODE_SALT}
    path = root / "store.json"
    try:
        try:
            found = json.loads(path.read_text())
        except (FileNotFoundError, ValueError):
            found = None
        if found == manifest:
            return
        if found is not None:
            for stale in (*root.glob("packs/*.pkl"), *root.glob("corpus/*.pkl")):
                stale.unlink(missing_ok=True)
        root.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
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


def pack_name(corpus_fp: str, kind: str, platform: str, dataset: str) -> str:
    """The name of the pack that keeps every stored artifact of one
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

    ``entries`` (fingerprint -> metadata, with the ``span`` of its pickle
    in the payload), ``digest``, ``offset`` (of the payload in the file)
    and ``identity`` mirror the file as last read or written; the payload
    stays on disk.  ``index`` maps (app id, config digest) to the
    fingerprint of each stored app result.  ``pending`` maps
    fingerprints to ``(metadata, artifact)``: additions not yet written.
    """

    key: tuple
    name: str
    path: Path
    entries: dict = field(default_factory=dict)
    index: dict = field(default_factory=dict)
    digest: Optional[str] = None
    offset: int = 0
    identity: Optional[tuple] = None
    pending: dict = field(default_factory=dict)

    def adopt(self, envelope: Optional[_Envelope]) -> None:
        """Mirror ``envelope`` (None: no file)."""
        if envelope is None:
            self.entries, self.index = {}, {}
            self.digest, self.offset, self.identity = None, 0, None
        else:
            self.entries = dict(envelope.meta["entries"])
            self.index = {
                (meta["app_id"], meta["config"]): key
                for key, meta in self.entries.items()
                if meta["entry_kind"] == "app"
            }
            self.digest, self.offset = envelope.digest, envelope.offset
            self.identity = envelope.identity

    def pickled(self, key: str) -> Optional[bytes]:
        """The pickle of entry ``key`` in the file this mirrors, or None
        if it has no such entry or was replaced since."""
        meta = self.entries.get(key)
        if meta is None:
            return None
        start, end = meta["span"]
        return _read_at(self.path, self.identity, self.offset + start, end - start)


def _memo_key(graph, platform: str, dataset: str, app_id: str, params: dict) -> tuple:
    """The key of one app's stage keys in a handle's memo."""
    return graph.kind, platform, dataset, app_id, tuple(sorted(params.items()))


class ResultStore:
    """On-disk, content-addressed store of per-app pipeline results.

    Args:
        root: store directory (created on first publish).
        corpus: the corpus this handle serves; its fingerprint enters
            every key, so a store directory may safely hold entries from
            many configurations side by side.
        write: publish computed results (``--no-store-write`` turns this
            off for a read-only consumer).

    Every address hashes the config knobs of the pipeline bound for its
    kind (:meth:`bind_pipelines`, or the pipeline a graph run hands
    over).  Asking for an address of a kind with no bound pipeline is a
    caller's error and raises ``TypeError``, which the engine never
    retries.

    Attributes:
        freeze_decoded: when true, :func:`gc.freeze` follows each
            entry's decode, so collections until the run ends never
            scan it.  Set only by a run that owns the freeze and unfreezes
            when it ends (``Study.run``).
    """

    def __init__(self, root: Union[str, Path], corpus, write: bool = True):
        self.root = Path(root)
        self.corpus = corpus
        self.corpus_fp = corpus_fingerprint(corpus)
        self.write = bool(write)
        self.stats = StoreStats()
        # The pipeline object per kind that config knobs are read from.
        self._knobs: dict = {}
        # (kind, platform, dataset, app id, params) -> stage keys under
        # the bound knobs, for the apps whose result is not filed yet;
        # emptied when a binding changes.
        self._keys_memo: dict = {}
        # (kind, params) -> config digest under the bound knobs; emptied
        # when a binding changes.
        self._digests: dict = {}
        self._pack: Optional[_Pack] = None
        self._manifest_written = False
        self.freeze_decoded = False

    # -- layout ------------------------------------------------------------

    def pack_path(self, kind: str, platform: str, dataset: str) -> Path:
        """The file that keeps every stored artifact of one dataset's apps
        for one kind."""
        return self._pack_file(pack_name(self.corpus_fp, kind, platform, dataset))

    def _pack_file(self, name: str) -> Path:
        return self.root / "packs" / f"{name}.pkl"

    # -- stage graphs ------------------------------------------------------

    def bind_pipelines(self, static=None, dynamic=None, circumvent=None) -> None:
        """Attach the live pipeline objects config knobs resolve from.

        The engine binds its pipelines at run entry, so every address
        reflects the run's configuration (``include_native``, detector
        variant, hook set, capture window, …).
        """
        for kind, pipeline in (
            ("static", static),
            ("dynamic", dynamic),
            ("circumvent", circumvent),
        ):
            if pipeline is not None:
                self._bind(kind, pipeline)

    def _bind(self, kind: str, pipeline) -> None:
        if self._knobs.get(kind) is not pipeline:
            self._knobs[kind] = pipeline
            self._keys_memo.clear()
            self._digests.clear()

    def _pipeline(self, kind: str):
        """The pipeline bound for ``kind``, the one source of its knobs."""
        if self._knobs.get(kind) is None:
            raise TypeError(f"no {kind} pipeline is bound to the result store (bind_pipelines)")
        return self._knobs[kind]

    def stage_keys(
        self, graph, platform: str, dataset: str, app_id: str, params, knobs
    ) -> dict:
        """The stage keys of one app and config, knobs read from ``knobs``.

        ``knobs`` is the pipeline running ``graph`` and becomes the bound
        pipeline of its kind (in an engine run it is already the bound
        one).  The keys are computed once and shared by the stage
        lookups and the result's own address until the result is filed.
        Serving a stored result needs none (:meth:`lookup_app` finds it
        by config digest).
        """
        self._bind(graph.kind, knobs)
        return self._stage_keys(graph, platform, dataset, app_id, params)

    def _stage_keys(
        self, graph, platform: str, dataset: str, app_id: str, params: dict
    ) -> dict:
        """Stage keys under the bound knobs, memoised."""
        memo = _memo_key(graph, platform, dataset, app_id, params)
        keys = self._keys_memo.get(memo)
        if keys is None:
            keys = self._keys_memo[memo] = graph.stage_keys(
                self.corpus_fp, platform, dataset, app_id, params, self._pipeline(graph.kind)
            )
        return keys

    def _config(self, kind: str, extra) -> str:
        """What, besides the app, an app entry's address is a function of:
        the graph's config digest under the bound knobs, computed once per
        kind and parameters."""
        graph = self._pipeline(kind).graph
        params = graph.params_from_extra(extra)
        memo = kind, tuple(sorted(params.items()))
        digest = self._digests.get(memo)
        if digest is None:
            digest = self._digests[memo] = graph.config_digest(params, self._pipeline(kind))
        return digest

    # -- packs -------------------------------------------------------------

    def _open(self, kind: str, platform: str, dataset: str) -> _Pack:
        """Make one dataset's pack current, reading its file once per
        visit.

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

    def _decode(self, pack: _Pack, key: str, miss=None):
        """The value of entry ``key``, unpickled with collection paused, or
        ``miss``.

        A pack file replaced since the handle read it serves nothing: the
        entry misses.  Only errors damaged bytes can produce invalidate
        the pack; anything else (an ``AttributeError`` from a renamed
        result class, an ``ImportError`` from a moved module) is a
        programming error, usually a missing :data:`CODE_SALT` bump, and
        propagates instead of silently recomputing the store.
        """
        data = pack.pickled(key)
        if data is None:
            return miss
        try:
            value = _load_paused(io.BytesIO(data))
        except _CORRUPTION_ERRORS as exc:
            self._invalidate(pack.path, exc)
            pack.adopt(None)
            return miss
        if self.freeze_decoded:
            gc.freeze()
        return value

    def _invalidate(self, path: Path, reason: Exception) -> None:
        self.stats.invalidated += 1
        obs.count("store.entries.invalidated")
        _discard(
            path,
            f"result store pack {path} is corrupt ({reason}); the pack "
            "was discarded and its dataset's entries will be recomputed",
        )

    def _write(self, pack: _Pack) -> None:
        """Append the pack's pending additions to a fresh read of its
        file, and replace the file.

        Keys another handle stored are kept.  Pending keys already on
        disk are dropped (same content address, same value); a pack with
        nothing new is not rewritten.  The stored entries' bytes are
        copied undecoded, and each addition is pickled on its own after
        them.  Failures raise :class:`StoreWriteError`.
        """
        pending, pack.pending = pack.pending, {}
        payload = self._read(pack, keep_payload=True) or b""
        added = {key: item for key, item in pending.items() if key not in pack.entries}
        if not added:
            return
        entries = dict(pack.entries)

        def encode() -> bytes:
            buffer = io.BytesIO()
            buffer.write(payload)
            for key, (meta, value) in added.items():
                start = buffer.tell()
                pickle.dump(value, buffer)
                entries[key] = {**meta, "span": (start, buffer.tell())}
            return buffer.getvalue(), b""

        meta = dict(
            zip(("kind", "platform", "dataset"), pack.key),
            corpus=self.corpus_fp,
            salt=CODE_SALT,
            entries=entries,
        )
        if not self._manifest_written:
            _ensure_manifest(self.root)
            self._manifest_written = True
        pack.adopt(_write_envelope(pack.path, _PACK_MAGIC, pack.name, meta, encode))
        for entry, _value in added.values():
            if entry["entry_kind"] == "app":
                self.stats.published += 1
                obs.count("store.apps.published")
            else:
                self.stats.stage_published += 1
                obs.count("store.stages.published")

    def flush(self) -> None:
        """Write the current pack's pending additions, if any."""
        if self._pack is not None and self._pack.pending:
            self._write(self._pack)

    # -- per-app access ----------------------------------------------------

    def lookup_app(
        self, stage: str, platform: str, dataset: str, app_id: str, extra
    ):
        """The stored result for one app under one stage config, or None.

        A corrupt pack is invalidated (warned, counted, deleted) and
        reads as a miss, so the caller recomputes instead of trusting a
        damaged payload.
        """
        pack = self._open(stage, platform, dataset)
        fingerprint = pack.index.get((app_id, self._config(stage, extra)))
        return None if fingerprint is None else self._decode(pack, fingerprint)

    def _add_app(
        self,
        stage: str,
        platform: str,
        dataset: str,
        app_id: str,
        extra,
        result,
    ) -> None:
        """File one app's result in its pack, pending the write.

        Its stage keys are then dropped from the memo: nothing of this
        handle asks for them again.
        """
        graph = self._pipeline(stage).graph
        params = graph.params_from_extra(extra)
        fingerprint = self._stage_keys(graph, platform, dataset, app_id, params)[graph.final]
        self._keys_memo.pop(_memo_key(graph, platform, dataset, app_id, params), None)
        pack = self._open(stage, platform, dataset)
        if fingerprint not in pack.entries:
            pack.pending[fingerprint] = (
                {
                    "entry_kind": "app",
                    "app_id": app_id,
                    "stage": stage,
                    "config": self._config(stage, extra),
                    "extra": repr(normalize_extra(stage, extra)),
                    "summary": summarize_result(result),
                },
                result,
            )

    # -- per-stage access (the stage graphs' interface) --------------------

    def lookup_stage(
        self,
        fingerprint: str,
        kind: str,
        stage: str,
        platform: str,
        dataset: str,
        miss=None,
    ):
        """The stored artifact for one stage fingerprint, or ``miss``.

        The ``miss`` sentinel distinguishes absence from stored values;
        corruption invalidates the pack and reads as a miss, same as
        the app-level contract.
        """
        pack = self._open(kind, platform, dataset)
        value = self._decode(pack, fingerprint, miss)
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

        The pack is written with the unit's results by
        :meth:`publish_unit`, or by :meth:`flush`.  A stage already
        filed, stored or pending, is kept as filed.
        """
        if not self.write:
            return
        pack = self._open(kind, platform, dataset)
        if fingerprint not in pack.entries and fingerprint not in pack.pending:
            meta = {"entry_kind": "stage", "app_id": app_id, "stage": f"{kind}.{stage}"}
            pack.pending[fingerprint] = (meta, value)

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
        for (app_id, app_extra), result in zip(
            self._unit_apps(unit), results
        ):
            self._add_app(kind, platform, dataset, app_id, app_extra, result)
        self.flush()


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
    before any study runs on it.

    A corpus file is an envelope like a pack's.  Its payload is the
    corpus's catalogue (:meth:`~repro.corpus.datasets.AppCorpus.catalogue`),
    and its detached part (the file trees and the CT log) trails it; the
    verified metadata records the part's span and sha256.  :meth:`load`
    reads the catalogue only, and the part is read when the corpus is
    attached (:meth:`~repro.corpus.datasets.AppCorpus.attach`), which a
    fully warm run never does.  Both follow the pack's corruption
    contract: a damaged file is warned about, deleted and regenerated;
    ``AttributeError`` and ``ImportError`` propagate.

    Args:
        root: store directory (created on first save).
        write: keep generated corpora (``--no-store-write`` does not).

    Attributes:
        loaded: whether the last corpus asked for came from the store.
    """

    def __init__(self, root: Union[str, Path], write: bool = True):
        self.root = Path(root)
        self.write = bool(write)
        self.loaded = False

    def path(self, config) -> Path:
        return self.root / "corpus" / f"{corpus_file_name(config)}.pkl"

    def load(self, config):
        """The kept corpus of ``config`` as its catalogue, or None to
        generate it.

        The catalogue is hashed in chunks, then unpickled from the file
        itself, so its bytes are never held.
        """
        self.loaded = False
        path = self.path(config)
        try:
            envelope = _read_envelope(path, _CORPUS_MAGIC, path.stem, keep_payload=False)
            if envelope is None:
                return None
            if envelope.identity[1] != envelope.offset + envelope.meta["detached"][1]:
                raise EOFError("the detached part is truncated")
            corpus = _load_at(path, envelope.identity, envelope.offset)
        except _CORRUPTION_ERRORS as exc:
            self._corrupt(path, exc)
            return None
        if corpus is None:
            return None
        corpus.load_detached = functools.partial(self._load_detached, config, envelope)
        self.loaded = True
        return corpus

    def _load_detached(self, config, envelope: _Envelope):
        """The detached part of the file ``envelope`` was read from,
        verified against its sha256.

        A damaged part is warned about and its file deleted; a file
        replaced since is not read.  Either way the corpus is regenerated
        from ``config``, kept again, and the part is taken from it.
        """
        path = self.path(config)
        start, end = envelope.meta["detached"]
        try:
            parts = _load_at(
                path,
                envelope.identity,
                envelope.offset + start,
                (end - start, envelope.meta["detached_sha256"]),
            )
        except _CORRUPTION_ERRORS as exc:
            self._corrupt(path, exc)
            parts = None
        if parts is not None:
            return parts
        from repro.corpus.generator import CorpusGenerator

        corpus = CorpusGenerator(config).generate()
        self.loaded = False
        self.save(config, corpus)
        return corpus.detached_parts()

    @staticmethod
    def _corrupt(path: Path, reason: Exception) -> None:
        _discard(
            path,
            f"stored corpus {path} is corrupt ({reason}); it was "
            "discarded and the corpus will be regenerated",
        )

    def save(self, config, corpus) -> None:
        """Keep a freshly generated corpus of ``config``: its catalogue,
        then its detached part."""
        if self.write:
            path = self.path(config)
            meta = dict(_settings(config))

            def encode():
                catalogue = pickle.dumps(corpus.catalogue())
                detached = pickle.dumps(corpus.detached_parts())
                meta["detached"] = (len(catalogue), len(catalogue) + len(detached))
                meta["detached_sha256"] = hashlib.sha256(detached).hexdigest()
                return catalogue, detached

            _ensure_manifest(self.root)
            _write_envelope(path, _CORPUS_MAGIC, path.stem, meta, encode)

    def describe(self) -> str:
        if self.loaded:
            return "corpus loaded from store"
        return "corpus generated and stored" if self.write else "corpus generated"
