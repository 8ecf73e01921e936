"""Typed ``Stage``/``Artifact``/``StageGraph`` abstraction (DESIGN.md §15).

A pipeline is a linear dataflow graph: each :class:`Stage` consumes the
artifacts of earlier stages (plus the graph's seed artifacts and per-app
parameters), produces exactly one named artifact, and declares the
configuration knobs its output is a function of.  The declaration is the
single source of truth for everything the monolithic pipelines used to
hand-place:

* **Telemetry** — every computing stage runs under an
  ``obs.span(f"{kind}.{stage}")`` and bumps a
  ``pipeline.{kind}.{stage}.computed`` counter; the graph itself owns
  the per-app ``{kind}.app`` span.
* **Fault injection** — the graph fires the per-app :func:`maybe_inject`
  with the legacy phase name (``static`` / ``dynamic`` / ``circumvent``)
  before any work, and a derived per-stage point
  (``{kind}.{stage}``) before each stage.  The default
  :class:`~repro.core.exec.faults.SeededFaults` phase set does not
  include stage-level phases, so per-stage injection is opt-in.
  :class:`InjectedFault` and :func:`maybe_inject` live here, below the
  execution layer, which imports this package and never the reverse.
* **Content addressing** — :meth:`StageGraph.stage_keys` derives one
  fingerprint per stage by hashing the stage's identity, its resolved
  config knobs, and the fingerprints of its input stages (a
  derivation-style chain).  Changing one knob therefore re-keys exactly
  the declaring stage and everything downstream of it; the final stage's
  key doubles as the app-level result fingerprint used by
  :class:`~repro.core.exec.resultstore.ResultStore`.  A plain knob is
  read off the pipeline object running the graph (``ctx``), the one
  source of its value; an ``@`` knob comes from the per-app parameters.

Determinism: a stage function must be a pure function of its declared
inputs, the seed artifacts, the per-app parameters, and the declared
config knobs read off the pipeline object (``ctx``).  That is what makes
serving one stage from the cache while recomputing another bit-for-bit
equivalent to a cold run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Mapping, Optional, Tuple

from repro.core import obs
from repro.util.digest import sha256

#: Artifact names every graph run seeds before its first stage: the
#: packaged app plus its identity.  Per-app parameters (the dynamic
#: pre-launch wait, the circumvention pinned set) are merged alongside.
SEED_ARTIFACTS = ("packaged", "app_id", "platform")

#: Sentinel distinguishing "stage cache miss" from any stored value.
_MISS = object()

#: The schema version every fingerprint hashes.  Independent of the
#: result store's file format: repacking stored entries does not change
#: what they are.
_KEY_VERSION = 2

#: Code/schema version salt every fingerprint hashes.  Bump on any change
#: to pipeline semantics or result dataclass schemas: old entries stop
#: hitting instead of feeding stale results into a new checkout.  v2:
#: stage-graph fingerprints — app-level keys are now the final stage's
#: chain key, so every config knob (not just sleep/wait/pins) enters the
#: address.  v3: results hold no captures.
CODE_SALT = "pin-study-results-v3"


#: ``(phase, app_id) -> should this app's unit of work fail?``
#: (:mod:`repro.core.exec.faults` builds them).
FaultPredicate = Callable[[str, str], bool]


class InjectedFault(RuntimeError):
    """Raised by a pipeline when its fault predicate fires for an app."""

    def __init__(self, phase: str, app_id: str):
        super().__init__(f"injected fault: phase={phase} app={app_id}")
        self.phase = phase
        self.app_id = app_id


def maybe_inject(
    predicate: Optional[FaultPredicate], phase: str, app_id: str
) -> None:
    """Raise :class:`InjectedFault` if ``predicate`` fires for this app.

    Pipelines call this before doing any per-app work, so an injected
    fault never leaves partially computed state behind.
    """
    if predicate is not None and predicate(phase, app_id):
        raise InjectedFault(phase, app_id)


@dataclass(frozen=True)
class Artifact:
    """A named value flowing through a graph (a stage output or a seed).

    Attributes:
        name: how stages reference it in their ``inputs``.
        doc: one-line description, for documentation and graph dumps.
    """

    name: str
    doc: str = ""


@dataclass(frozen=True)
class Stage:
    """One node of a pipeline graph.

    Attributes:
        name: the stage id; also the name of the artifact it produces.
        fn: ``fn(ctx, artifacts) -> value`` — the stage function.  ``ctx``
            is the owning pipeline object (config knobs are read off it);
            ``artifacts`` maps seed/parameter/earlier-stage names to
            values.
        inputs: names of earlier stages whose artifacts this stage
            consumes.  Seeds and parameters are ambient (always
            available) and must not be listed; they enter the stage key
            through the app identity and ``config`` instead.
        config: names of the configuration knobs the output depends on.
            A plain name is read from ``ctx`` (``ctx.include_native``);
            an ``@``-prefixed name is read from the per-app parameters
            (``@wait``).  Knobs enter the stage's fingerprint, so
            flipping one invalidates this stage and everything
            downstream — and nothing upstream.
        persist: whether a stage-granular result cache stores this
            artifact.  The final stage must not persist — its value *is*
            the app result, which the engine stores under the same key.
        span: whether computing this stage opens a telemetry span
            (assembly-only stages match the monolithic pipelines by
            omitting one).
    """

    name: str
    fn: Callable[[object, dict], object]
    inputs: Tuple[str, ...] = ()
    config: Tuple[str, ...] = ()
    persist: bool = False
    span: bool = True


def _freeze(value):
    """Canonicalize a knob value for the fingerprint identity string."""
    if isinstance(value, (set, frozenset)):
        return tuple(sorted(value))
    return value


class StageGraph:
    """A validated pipeline graph.

    Args:
        kind: the work-unit kind this graph executes (``static`` /
            ``dynamic`` / ``circumvent``); its pipeline class holds it as
            ``graph``.
        seeds: the :class:`Artifact` values the caller supplies (beyond
            the implicit :data:`SEED_ARTIFACTS`), documentation-grade.
        stages: the stages in execution order; the last stage's value is
            the graph's result.  A plain config knob is an attribute of
            the pipeline object running the graph, which is the one
            place its value comes from (a misspelt knob raises
            ``AttributeError`` on first use).
        params_from_extra: maps a work unit's per-app ``extra`` to the
            parameter dict a run of this graph receives (``@`` knobs are
            resolved against it).
    """

    def __init__(
        self,
        kind: str,
        stages: Tuple[Stage, ...],
        seeds: Tuple[Artifact, ...] = (),
        params_from_extra: Optional[Callable[[object], dict]] = None,
    ):
        self.kind = kind
        self.stages = tuple(stages)
        self.seeds = tuple(seeds)
        self._params_from_extra = params_from_extra or (lambda extra: {})
        self._validate()
        self.final = self.stages[-1].name

    def _validate(self) -> None:
        if not self.stages:
            raise ValueError(f"{self.kind}: a stage graph needs stages")
        seen: set = set()
        reserved = set(SEED_ARTIFACTS) | {a.name for a in self.seeds}
        for stage in self.stages:
            if stage.name in seen or stage.name in reserved:
                raise ValueError(
                    f"{self.kind}: duplicate or reserved stage name "
                    f"{stage.name!r}"
                )
            for name in stage.inputs:
                if name not in seen:
                    raise ValueError(
                        f"{self.kind}.{stage.name}: input {name!r} is not "
                        "an earlier stage (seeds and parameters are "
                        "ambient and must not be declared as inputs)"
                    )
            seen.add(stage.name)
        if self.stages[-1].persist:
            raise ValueError(
                f"{self.kind}: the final stage must not persist — its value "
                "is the app result the engine stores under the same key"
            )

    # -- fingerprints ------------------------------------------------------

    def params_from_extra(self, extra) -> dict:
        """The parameter dict for a work unit's per-app ``extra``."""
        return self._params_from_extra(extra)

    def _configs(
        self, params: Mapping[str, object], knobs: object
    ) -> Tuple[tuple, ...]:
        """Each stage's resolved ``(knob, value)`` pairs, in stage order:
        a plain knob is read off ``knobs``, an ``@`` knob from ``params``."""

        def value(name: str):
            return params[name[1:]] if name.startswith("@") else getattr(knobs, name)

        return tuple(
            tuple((name, _freeze(value(name))) for name in stage.config)
            for stage in self.stages
        )

    def config_digest(self, params: Mapping[str, object], knobs: object) -> str:
        """A digest of the graph's shape and every stage's resolved config.

        With the app identity (and the corpus fingerprint) it decides
        every key :meth:`stage_keys` derives, so a store can find an
        app's stored result by (app id, digest) without deriving the
        chain; it is the same for every app under one config.
        """
        configs = self._configs(params, knobs)
        identity = repr(
            (
                _KEY_VERSION,
                CODE_SALT,
                "config",
                self.kind,
                tuple(
                    (stage.name, stage.inputs, config)
                    for stage, config in zip(self.stages, configs)
                ),
            )
        )
        return sha256(identity.encode("utf-8")).hexdigest()

    def stage_keys(
        self,
        corpus_fp: str,
        platform: str,
        dataset: str,
        app_id: str,
        params: Mapping[str, object],
        knobs: object,
    ) -> Dict[str, str]:
        """One content-address per stage, chained through the graph.

        Each key hashes the store schema version and code salt, the
        corpus fingerprint, the app identity, the stage's resolved
        config knobs, and the keys of its input stages — so a knob flip
        re-keys the declaring stage and its transitive downstream, and
        nothing else.  ``knobs`` is the pipeline object plain config
        names are read from; ``params`` holds the ``@`` ones.
        """
        configs = self._configs(params, knobs)
        keys: Dict[str, str] = {}
        for stage, config in zip(self.stages, configs):
            identity = repr(
                (
                    _KEY_VERSION,
                    CODE_SALT,
                    "stage",
                    corpus_fp,
                    self.kind,
                    stage.name,
                    platform,
                    dataset,
                    app_id,
                    config,
                    tuple(keys[name] for name in stage.inputs),
                )
            )
            keys[stage.name] = sha256(
                identity.encode("utf-8")
            ).hexdigest()
        return keys

    # -- execution ---------------------------------------------------------

    def run(
        self,
        ctx,
        packaged,
        params: Optional[Mapping[str, object]] = None,
        cache=None,
        dataset: Optional[str] = None,
    ):
        """Execute the graph for one app; returns the final stage's value.

        With a ``cache`` (a :class:`~repro.core.exec.resultstore.ResultStore`)
        and a ``dataset`` name, every persisted stage is looked up before
        computing and published after — a warm stage is served bit-for-bit
        from the store and its stage function (and telemetry span) is
        skipped, which is what turns a config flip into a partial
        recomputation of only the invalidated suffix of the graph.  The
        stage keys come from the cache, which computes them once per app
        and config, with ``ctx`` bound as its kind's pipeline.  The
        dataset's pack is read once, on the first lookup; the stages
        computed stay pending in it until the caller writes them
        (:meth:`~repro.core.exec.resultstore.ResultStore.flush`; the
        engine writes them with the unit's results).
        """
        params = dict(params or {})
        app = packaged.app
        fault_predicate = getattr(ctx, "fault_predicate", None)
        maybe_inject(fault_predicate, self.kind, app.app_id)
        with obs.span(
            f"{self.kind}.app",
            cat=self.kind,
            app=app.app_id,
            platform=app.platform,
        ):
            artifacts = dict(params)
            artifacts["packaged"] = packaged
            artifacts["app_id"] = app.app_id
            artifacts["platform"] = app.platform
            keys = None
            if cache is not None and dataset is not None:
                keys = cache.stage_keys(
                    self, app.platform, dataset, app.app_id, params, ctx
                )
            for stage in self.stages:
                maybe_inject(
                    fault_predicate, f"{self.kind}.{stage.name}", app.app_id
                )
                value = _MISS
                if keys is not None and stage.persist:
                    value = cache.lookup_stage(
                        keys[stage.name],
                        self.kind,
                        stage.name,
                        app.platform,
                        dataset,
                        miss=_MISS,
                    )
                if value is _MISS:
                    if stage.span:
                        with obs.span(
                            f"{self.kind}.{stage.name}", cat=self.kind
                        ):
                            value = stage.fn(ctx, artifacts)
                    else:
                        value = stage.fn(ctx, artifacts)
                    obs.count(f"pipeline.{self.kind}.{stage.name}.computed")
                    if keys is not None and stage.persist:
                        cache.publish_stage(
                            keys[stage.name],
                            self.kind,
                            stage.name,
                            app.platform,
                            dataset,
                            app.app_id,
                            value,
                        )
                artifacts[stage.name] = value
            return artifacts[self.final]
