"""A scripted designer session: interleaved schema edits and queries.

The paper frames disambiguation as a conversation (Figure 1); this module
scripts the *other* conversation schema designers actually have — evolving
the schema while probing it with queries.  The session grows a greenhouse
trial module onto the CUPID schema one edit at a time, re-asking the
figure-workload queries between edits:

* module-building edits (new classes, edges among new classes) leave the
  old query results untouched, so the incremental path carries the
  completion cache across them;
* wiring edits (edges out of pre-existing classes) can change results and
  surgically evict only the completions whose support set meets the edit;
* a mistake is made and reverted (``SchemaDelta.invert``), and a leftover
  is removed with a cascade.

Running the same script in both modes (``incremental``, which evolves
the compiled artifact, vs ``rebuild``, which compiles the edited schema
cold after every edit) isolates the value of incremental closure
maintenance plus surgical cache invalidation against recompiling from
scratch: the edits themselves get cheaper, and the queries after each edit
stay warm instead of going cold.  ``benchmarks/bench_delta.py`` asserts
the speedup; :func:`render_designer_session` reports one run.
"""

from __future__ import annotations

import dataclasses
import time
from collections.abc import Callable, Sequence

from repro.core.engine import Disambiguator
from repro.experiments.reporting import table
from repro.model.delta import (
    AddClass,
    AddInheritanceEdge,
    AddRelationship,
    RemoveClass,
    RemoveRelationship,
    SchemaDelta,
    relationship_pair,
)
from repro.model.kinds import RelationshipKind
from repro.model.relationships import Relationship
from repro.model.schema import Schema
from repro.schemas.cupid import build_cupid_schema

__all__ = [
    "DesignerStep",
    "DesignerSessionResult",
    "cupid_designer_script",
    "rebuild_engine",
    "run_designer_session",
    "render_designer_session",
]


@dataclasses.dataclass(frozen=True)
class DesignerStep:
    """One recorded step of a designer session.

    ``kind`` is ``"edit"`` or ``"query"``; ``detail`` is the candidate
    count for queries and the command count for edits; ``cached`` is True
    for queries answered from the completion cache.
    """

    index: int
    kind: str
    description: str
    seconds: float
    detail: int = 0
    cached: bool = False


@dataclasses.dataclass(frozen=True)
class DesignerSessionResult:
    """Timings and outcomes of one scripted session run."""

    mode: str
    steps: tuple[DesignerStep, ...]
    final_fingerprint: str

    @property
    def edit_seconds(self) -> float:
        return sum(s.seconds for s in self.steps if s.kind == "edit")

    @property
    def query_seconds(self) -> float:
        return sum(s.seconds for s in self.steps if s.kind == "query")

    @property
    def total_seconds(self) -> float:
        return self.edit_seconds + self.query_seconds

    @property
    def edit_count(self) -> int:
        return sum(1 for s in self.steps if s.kind == "edit")

    @property
    def query_count(self) -> int:
        return sum(1 for s in self.steps if s.kind == "query")

    @property
    def cache_hits(self) -> int:
        return sum(1 for s in self.steps if s.kind == "query" and s.cached)


def _pair(
    source: str, target: str, kind: RelationshipKind, name: str
) -> Callable[[Schema], SchemaDelta]:
    return lambda schema: relationship_pair(source, target, kind, name=name)


def _attr(
    source: str, name: str, primitive: str = "C"
) -> Callable[[Schema], SchemaDelta]:
    return lambda schema: SchemaDelta.of(
        AddRelationship(
            Relationship(
                source,
                primitive,
                RelationshipKind.IS_ASSOCIATED_WITH,
                name=name,
            )
        )
    )


def _remove_pair(source: str, name: str) -> Callable[[Schema], SchemaDelta]:
    """Remove the relationship ``(source, name)`` and its installed inverse."""

    def build(schema: Schema) -> SchemaDelta:
        forward = next(
            rel
            for rel in schema.relationships_from(source)
            if rel.name == name
        )
        inverse = next(
            (
                rel
                for rel in schema.relationships_from(forward.target)
                if rel.name == source and rel.target == source
            ),
            None,
        )
        commands = [RemoveRelationship(forward)]
        if inverse is not None:
            commands.append(RemoveRelationship(inverse))
        return SchemaDelta.of(*commands)

    return build


def _cascade_remove_class(name: str) -> Callable[[Schema], SchemaDelta]:
    def build(schema: Schema) -> SchemaDelta:
        removals = [
            RemoveRelationship(rel)
            for rel in schema.relationships()
            if name in (rel.source, rel.target)
        ]
        doc = schema.get_class(name).doc
        return SchemaDelta.of(*removals, RemoveClass(name, doc=doc))

    return build


# A designer-session step is a query text, or an (edit description,
# delta factory) pair — the factory sees the *current* schema so
# removals can capture the live relationship objects.


#: The validation sweep the designer re-runs after every edit — five of
#: the figure-workload queries.  The sweep is where the two session
#: modes diverge: after a module-local edit the incremental path serves all
#: five from the carried completion cache, while rebuild-per-edit starts
#: from an empty cache every time.
VALIDATION_SWEEP = (
    "experiment ~ conductance",
    "scientist ~ lai",
    "simulation ~ value",
    "crop ~ depth",
    "soil_layer ~ amount",
)


def cupid_designer_script() -> list:
    """The scripted session: grow a greenhouse-trial module onto CUPID.

    The shape mirrors how schemas are actually grown: the module is
    built class-by-class *in isolation* (every edit's eviction frontier
    is module-local, so the validation sweep stays warm), a mistake is
    made and reverted, and only at the very end is the module wired into
    the pre-existing schema — the one edit whose frontier reaches the
    old classes and legitimately invalidates the sweep.
    """
    assoc = RelationshipKind.IS_ASSOCIATED_WITH
    has_part = RelationshipKind.HAS_PART
    module_edits = [
        ("add class greenhouse", lambda s: SchemaDelta.of(AddClass("greenhouse"))),
        ("add class trial_plot", lambda s: SchemaDelta.of(AddClass("trial_plot"))),
        (
            "greenhouse $>plots -> trial_plot",
            _pair("greenhouse", "trial_plot", has_part, "plots"),
        ),
        ("greenhouse .label -> C", _attr("greenhouse", "label", "C")),
        ("trial_plot .area -> R", _attr("trial_plot", "area", "R")),
        ("add class sensor", lambda s: SchemaDelta.of(AddClass("sensor"))),
        (
            "trial_plot $>sensors -> sensor",
            _pair("trial_plot", "sensor", has_part, "sensors"),
        ),
        ("sensor .reading -> R", _attr("sensor", "reading", "R")),
        ("sensor .serial -> C", _attr("sensor", "serial", "C")),
        ("greenhouse .location -> C", _attr("greenhouse", "location", "C")),
        ("trial_plot .row_count -> I", _attr("trial_plot", "row_count", "I")),
        # The designer mislabels the sensor edge, reverts it, renames it.
        ("remove trial_plot $>sensors", _remove_pair("trial_plot", "sensors")),
        (
            "trial_plot $>instruments -> sensor",
            _pair("trial_plot", "sensor", has_part, "instruments"),
        ),
        # A taxonomy refinement, then the leftover class torn back out.
        (
            "add class instrument_type",
            lambda s: SchemaDelta.of(AddClass("instrument_type")),
        ),
        (
            "sensor @> instrument_type",
            lambda s: SchemaDelta.of(
                AddInheritanceEdge("sensor", "instrument_type")
            ),
        ),
        (
            "remove class instrument_type (cascade)",
            _cascade_remove_class("instrument_type"),
        ),
    ]
    script: list = list(VALIDATION_SWEEP)
    for edit in module_edits:
        script.append(edit)
        script.extend(VALIDATION_SWEEP)
    # Wiring: an edge out of the pre-existing ``experiment`` class.  Its
    # frontier meets the support set of every cached completion on the
    # strongly connected CUPID core, so both modes go cold here — the
    # designer now asks about the freshly connected module.
    script.append(
        (
            "greenhouse .experiments -> experiment",
            _pair("greenhouse", "experiment", assoc, "experiments"),
        )
    )
    script.append("greenhouse ~ conductance")
    return script


def rebuild_engine(engine: Disambiguator, delta: SchemaDelta) -> Disambiguator:
    """The rebuild baseline of an edit: the edited schema, validated in
    full and compiled from scratch (unless content-equal to an artifact
    still registered), with the engine's settings.

    Evolving (:meth:`Disambiguator.evolved`) returns byte-identical
    completions; this is the pre-delta workflow it is measured against.
    """
    schema = engine.schema.copy()
    schema.apply(delta)
    schema.validate()
    return Disambiguator(
        schema,
        order=engine.order,
        domain_knowledge=engine.domain_knowledge,
        e=engine.e,
        use_caution_sets=engine.use_caution_sets,
        apply_inheritance_criterion=engine.apply_inheritance_criterion,
        max_depth=engine.max_depth,
        budget=engine.budget,
        pruning=engine.pruning,
    )


def run_designer_session(
    mode: str = "incremental",
    e: int = 2,
    schema: Schema | None = None,
    script: Sequence | None = None,
) -> DesignerSessionResult:
    """Run the scripted session once in the given mode.

    ``rebuild`` recompiles the artifact from scratch after every edit
    (the pre-delta workflow, :func:`rebuild_engine`); ``incremental``
    evolves it, repairing the closure and carrying the surviving
    completion cache.  Both end at the same final
    schema, and the per-query results are byte-identical (the fuzz suite
    asserts this); only the timings differ.
    """
    if mode not in ("incremental", "rebuild"):
        raise ValueError(
            f"mode must be 'incremental' or 'rebuild', got {mode!r}"
        )
    base = schema if schema is not None else build_cupid_schema()
    steps = list(script) if script is not None else cupid_designer_script()
    engine = Disambiguator(base, e=e)
    records: list[DesignerStep] = []
    for index, step in enumerate(steps):
        if isinstance(step, str):
            before = engine.compiled.cache_info()["hits"]
            started = time.perf_counter()
            completion = engine.complete(step)
            elapsed = time.perf_counter() - started
            records.append(
                DesignerStep(
                    index=index,
                    kind="query",
                    description=step,
                    seconds=elapsed,
                    detail=len(completion.paths),
                    cached=engine.compiled.cache_info()["hits"] > before,
                )
            )
        else:
            description, factory = step
            delta = factory(engine.schema)
            started = time.perf_counter()
            engine = (
                engine.evolved(delta)
                if mode == "incremental"
                else rebuild_engine(engine, delta)
            )
            elapsed = time.perf_counter() - started
            records.append(
                DesignerStep(
                    index=index,
                    kind="edit",
                    description=description,
                    seconds=elapsed,
                    detail=len(delta),
                )
            )
    return DesignerSessionResult(
        mode=mode,
        steps=tuple(records),
        final_fingerprint=engine.schema.fingerprint(),
    )


def compare_designer_modes(
    e: int = 2,
    schema: Schema | None = None,
    script: Sequence | None = None,
) -> tuple[DesignerSessionResult, DesignerSessionResult]:
    """Run the session once per mode from equally cold state.

    Evolved artifacts register themselves in the module registry and the
    closure content cache, so whichever mode ran first would hand the
    second mode warm closures and completion caches and corrupt the
    comparison.  Both global caches are cleared before each run (a side
    effect — callers relying on registry warmth must recompile after).
    Returns ``(incremental, rebuild)``.
    """
    from repro.core.closure import SchemaClosure
    from repro.core.compiled import invalidate

    results = {}
    for mode in ("rebuild", "incremental"):
        SchemaClosure.clear_cache()
        invalidate()
        results[mode] = run_designer_session(
            mode=mode, e=e, schema=schema, script=script
        )
    return results["incremental"], results["rebuild"]


def render_designer_session(
    incremental: DesignerSessionResult,
    rebuild: DesignerSessionResult | None = None,
) -> str:
    """Readable report of a session run (optionally vs the rebuild run)."""
    rows = [
        (
            step.index,
            step.kind,
            step.description,
            f"{step.seconds * 1000:.2f}",
            "hit" if step.cached else ("" if step.kind == "edit" else "miss"),
        )
        for step in incremental.steps
    ]
    lines = [table(["#", "kind", "step", "ms", "cache"], rows)]
    lines.append(
        f"\n[{incremental.mode}] {incremental.edit_count} edits in "
        f"{incremental.edit_seconds * 1000:.1f}ms, "
        f"{incremental.query_count} queries in "
        f"{incremental.query_seconds * 1000:.1f}ms "
        f"({incremental.cache_hits} served from cache); "
        f"final fingerprint {incremental.final_fingerprint[:12]}"
    )
    if rebuild is not None:
        ratio = (
            rebuild.total_seconds / incremental.total_seconds
            if incremental.total_seconds > 0
            else float("inf")
        )
        lines.append(
            f"[{rebuild.mode}]     {rebuild.edit_count} edits in "
            f"{rebuild.edit_seconds * 1000:.1f}ms, "
            f"{rebuild.query_count} queries in "
            f"{rebuild.query_seconds * 1000:.1f}ms "
            f"({rebuild.cache_hits} served from cache)"
        )
        lines.append(
            f"session speedup (rebuild / incremental): {ratio:.1f}x"
        )
        if rebuild.final_fingerprint != incremental.final_fingerprint:
            lines.append(
                "!! final fingerprints diverge: "
                f"{incremental.final_fingerprint[:12]} vs "
                f"{rebuild.final_fingerprint[:12]}"
            )
    return "\n".join(lines)
