"""Search audit log — EXPLAIN ANALYZE for the disambiguation search.

:func:`repro.core.explain.explain_candidate` justifies a single named
candidate after the fact; this module makes the *search itself*
auditable.  A :class:`SearchAuditLog` installed via :func:`use_audit`
(the same ambient contextvar pattern as the tracer, metrics, slow log,
and budget) receives one compact record per decision the
:class:`~repro.core.completion.CompletionSearch` makes:

``search``
    One header per :meth:`~repro.core.completion.CompletionSearch.run`
    (root, target, E, effective pruning mode).  When an ambient
    request identity is set (:mod:`repro.obs.reqlog`), the header also
    carries ``request_id`` so serving-tier audit streams correlate
    with the access log and slow-query log.
``expand``
    A node entered by the DFS (the paper's recursive ``traverse`` call),
    with its depth, arriving edge, and accumulated label.
``cut``
    An edge *not* taken, with ``rule`` naming which test cut it:

    * ``visited`` / ``dead_end`` / ``max_depth`` — Algorithm 2's
      structural skips;
    * ``target_bound`` — the line-9 bound against ``best[T]`` (carries
      the candidate label and, in closure mode, the exact cutoff it
      exceeded);
    * ``best_bound`` — the lines-10/11 bound against ``best[u]``
      (carries the frontier it lost to);
    * ``reachability`` — closure mode only: the edge's child admits no
      completion, dropped at table-build time;
    * ``label_bound`` — closure mode only: every achievable composed
      connector's optimistic bound exceeds its ``best[T]`` cutoff
      (carries the per-connector ``(bound, cutoff)`` arithmetic).

    Every cut record carries ``caution: false`` — the caution-set
    exemption flag; exemptions that *prevented* a cut appear as
    ``rescue`` records instead.
``rescue``
    A caution-set exemption (AGG does not distribute over CON) that
    overrode a ``best_bound`` or ``label_bound`` cut.
``complete``
    A completing edge reached, with the candidate path, its label, and
    whether ``AGG*`` kept it at that moment.
``cache``
    A completion-cache lookup (hit/miss) with lineage provenance: the
    artifact fingerprint, its lineage depth (how many ``evolve()``
    steps produced it), and — on hits — whether the entry was
    ``carried`` across a schema delta by surgical adoption or
    ``computed`` by a search on this artifact.
``budget_trip``
    A resource budget truncating the search.
``agg_select``
    The finalization funnel: recorded candidates -> AGG*-optimal ->
    deduplicated -> preemption survivors.
``score``
    One per ranked completion: the itemized bill.  ``steps`` decomposes
    the semantic length edge by edge via the exact
    :class:`~repro.algebra.semantic_length.SemanticLengthState` join
    arithmetic (each step's ``delta`` is the length change
    ``extend(connector)`` caused, so the deltas telescope to the
    reported total — asserted by :func:`decompose_path`).

The default log is a shared no-op singleton: the traversal loops hoist
one ``audit.enabled`` check and the disabled path stays byte-identical
with bounded overhead (asserted in ``tests/core/test_audit.py`` and the
ledger-gated ``benchmarks/bench_audit.py``).

Three consumers ship with the module:

* ``repro explain --analyze`` and the session's ``:explain`` render the
  decision tree and score decomposition (:func:`render_analysis`);
* :meth:`SearchAuditLog.write_jsonl` exports records validated by the
  ``audit_record`` schema (``python -m repro.obs.validate`` sniffs the
  kind);
* ``python -m repro.core.audit diff`` replays queries under
  ``pruning=closure`` vs ``pruning=none`` and proves, record by
  record, that every divergence between the two searches is a cut
  backed by an admissible bound (:func:`diff_modes`) — the executable
  form of the closure layer's byte-identical A/B invariant.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from repro.algebra.labels import IDENTITY_LABEL
from repro.obs.reqlog import get_request_id
from repro.scope import current, scoped

__all__ = [
    "AuditNode",
    "Divergence",
    "NullAuditLog",
    "QueryDiff",
    "SearchAuditLog",
    "audit_completion",
    "decompose_path",
    "diff_modes",
    "get_audit",
    "main",
    "reconstruct_forest",
    "reconstruct_tree",
    "render_analysis",
    "use_audit",
]


class NullAuditLog:
    """The shared disabled default: every hook is a guarded no-op."""

    __slots__ = ()

    enabled = False

    def record(self, kind: str, **attrs) -> None:
        """Drop the record."""

    def to_records(self) -> list[dict]:
        return []

    def __len__(self) -> int:
        return 0

    def __repr__(self) -> str:
        return "NullAuditLog()"


class SearchAuditLog:
    """An in-memory log of search decision records.

    Records are appended, with one exception: when a search under
    ``pruning="none"`` trips its budget, it retracts (:meth:`retract`)
    the ``dead_end`` records of the nodes the paper's loop never
    reached, and the remaining records are numbered ``seq`` 0, 1, ...
    again.

    Records are plain dicts (``seq`` + ``kind`` + per-kind attributes)
    so export is a straight ``json.dumps`` per line and reconstruction
    needs no class registry.  Not thread-safe by design — install one
    per thread via :func:`use_audit`, and audit one query at a time.
    """

    __slots__ = ("records",)

    enabled = True

    def __init__(self) -> None:
        self.records: list[dict] = []

    def record(self, kind: str, **attrs) -> dict:
        entry = {"seq": len(self.records), "kind": kind}
        if kind == "search":
            request_id = get_request_id()
            if request_id is not None:
                entry["request_id"] = request_id
        entry.update(attrs)
        self.records.append(entry)
        return entry

    def retract(self, entries: list[dict]) -> None:
        """Drop ``entries`` (records :meth:`record` returned) and number
        the rest ``seq`` 0, 1, ... again."""
        gone = {id(entry) for entry in entries}
        kept = [record for record in self.records if id(record) not in gone]
        for seq, record in enumerate(kept):
            record["seq"] = seq
        self.records[:] = kept

    def clear(self) -> None:
        self.records.clear()

    def __len__(self) -> int:
        return len(self.records)

    def to_records(self) -> list[dict]:
        """Copies of the records, export-ready (schema-validatable)."""
        return [dict(record) for record in self.records]

    def of_kind(self, kind: str) -> list[dict]:
        return [record for record in self.records if record["kind"] == kind]

    def cut_counts(self) -> dict[str, int]:
        """How many cuts each rule made, for summaries."""
        counts: dict[str, int] = {}
        for record in self.records:
            if record["kind"] == "cut":
                rule = record["rule"]
                counts[rule] = counts.get(rule, 0) + 1
        return counts

    def write_jsonl(self, target) -> int:
        """Write one JSON object per line (path or open text handle);
        returns the record count."""
        payload = "".join(
            json.dumps(record, sort_keys=True) + "\n"
            for record in self.records
        )
        if hasattr(target, "write"):
            target.write(payload)
        else:
            with open(target, "w", encoding="utf-8") as handle:
                handle.write(payload)
        return len(self.records)

    def render(self, max_nodes: int = 40) -> str:
        """Human-readable decision tree + funnel + itemized scores."""
        return render_analysis(self, max_nodes=max_nodes)

    def __repr__(self) -> str:
        return f"SearchAuditLog(records={len(self.records)})"


_NULL_AUDIT = NullAuditLog()


def get_audit() -> NullAuditLog | SearchAuditLog:
    """The ambient audit log (the shared no-op unless one is installed)."""
    audit = current().audit
    return _NULL_AUDIT if audit is None else audit


def use_audit(audit: NullAuditLog | SearchAuditLog) -> scoped:
    """Install ``audit`` as the ambient log for the ``with`` body."""
    return scoped(audit, audit=audit)


# ----------------------------------------------------------------------
# Score decomposition
# ----------------------------------------------------------------------


def decompose_path(path) -> list[dict]:
    """Itemize a path's semantic length edge by edge.

    Replays the exact incremental label arithmetic the search ran —
    ``PathLabel.extend`` folds each connector through the CON table and
    the :class:`~repro.algebra.semantic_length.SemanticLengthState`
    seam/collapse rules — and reports each edge's length *delta*.  The
    deltas are not per-edge weights (a collapse can make one negative,
    a seam adjustment can exceed one) but they telescope: their sum is
    exactly the path's reported semantic length, which is what makes
    the bill trustworthy.  Asserted here, not just promised.
    """
    steps: list[dict] = []
    label = IDENTITY_LABEL
    for edge in path.edges:
        extended = label.extend(edge.connector)
        steps.append(
            {
                "edge": edge.name,
                "connector": edge.connector.symbol,
                "delta": extended.semantic_length - label.semantic_length,
                "length": extended.semantic_length,
                "label": str(extended),
            }
        )
        label = extended
    total = path.label().semantic_length
    if sum(step["delta"] for step in steps) != total:  # pragma: no cover
        raise AssertionError(
            f"decomposition of {path} does not telescope to {total}"
        )
    return steps


def record_scores(audit, paths) -> None:
    """Emit one ``score`` record per ranked completion (rank 1 first)."""
    for rank, path in enumerate(paths, start=1):
        label = path.label()
        audit.record(
            "score",
            rank=rank,
            path=str(path),
            label=str(label),
            total=label.semantic_length,
            steps=decompose_path(path),
        )


# ----------------------------------------------------------------------
# Decision-tree reconstruction
# ----------------------------------------------------------------------


@dataclasses.dataclass
class AuditNode:
    """One expanded node of the reconstructed decision tree."""

    record: dict
    children: list["AuditNode"] = dataclasses.field(default_factory=list)
    cuts: list[dict] = dataclasses.field(default_factory=list)
    rescues: list[dict] = dataclasses.field(default_factory=list)
    completions: list[dict] = dataclasses.field(default_factory=list)

    @property
    def name(self) -> str:
        return self.record["node"]

    @property
    def depth(self) -> int:
        return self.record["depth"]


def reconstruct_forest(records) -> list[AuditNode]:
    """Rebuild the DFS decision tree(s) from a flat record stream.

    ``expand`` depths drive a stack replay (preorder with explicit
    depths is a faithful serialization of the walk); ``cut`` /
    ``rescue`` / ``complete`` records attach to the open node at their
    recorded depth.  One tree per search (a general expression's log
    holds one walk per ``~`` segment).  Raises ``ValueError`` on
    streams that do not describe well-nested walks — the JSONL
    round-trip test leans on this to prove export losslessness.
    """
    roots: list[AuditNode] = []
    stack: list[AuditNode] = []
    for record in records:
        kind = record["kind"]
        if kind == "expand":
            depth = record["depth"]
            if depth > len(stack):
                raise ValueError(
                    f"expand record {record['seq']} jumps to depth {depth} "
                    f"with only {len(stack)} open frames"
                )
            del stack[depth:]
            node = AuditNode(record=record)
            if not stack:
                roots.append(node)
            else:
                stack[-1].children.append(node)
            stack.append(node)
        elif kind in ("cut", "rescue", "complete"):
            depth = record["depth"]
            if depth >= len(stack):
                raise ValueError(
                    f"{kind} record {record['seq']} references closed "
                    f"depth {depth}"
                )
            del stack[depth + 1 :]
            owner = stack[depth]
            if owner.name != record["node"]:
                raise ValueError(
                    f"{kind} record {record['seq']} names {record['node']!r} "
                    f"but the open frame at depth {depth} is {owner.name!r}"
                )
            if kind == "cut":
                owner.cuts.append(record)
            elif kind == "rescue":
                owner.rescues.append(record)
            else:
                owner.completions.append(record)
        # search / cache / budget_trip / agg_select / score records are
        # per-run metadata, not tree content.
    return roots


def reconstruct_tree(records) -> AuditNode | None:
    """The single-walk form of :func:`reconstruct_forest`.

    Raises ``ValueError`` when the stream holds more than one walk —
    the diff engine and the round-trip tests audit exactly one search.
    """
    roots = reconstruct_forest(records)
    if len(roots) > 1:
        raise ValueError(f"expected one search walk, found {len(roots)}")
    return roots[0] if roots else None


def _preorder(node: AuditNode):
    yield node
    for child in node.children:
        yield from _preorder(child)


def _walk_forest(roots: list[AuditNode]):
    for root in roots:
        yield from _preorder(root)


def render_analysis(
    log: SearchAuditLog, max_nodes: int = 40
) -> str:
    """The ``EXPLAIN ANALYZE`` rendering: header, tree, funnel, bill."""
    lines: list[str] = []
    records = log.records
    for header in log.of_kind("search"):
        lines.append(
            f"search {header['root']} ~ {header['target']} "
            f"(e={header['e']}, pruning={header['pruning']})"
        )
    for cache in log.of_kind("cache"):
        provenance = cache.get("provenance")
        detail = f", {provenance}" if provenance else ""
        lines.append(
            f"cache {cache['outcome']} [{cache['scope']}] "
            f"artifact {cache['fingerprint']} "
            f"(lineage depth {cache['lineage_depth']}{detail})"
        )
    roots = reconstruct_forest(records)
    if roots:
        lines.append("decision tree:")
        emitted = 0
        truncated = False
        for node in _walk_forest(roots):
            if emitted >= max_nodes:
                truncated = True
                break
            indent = "  " * (node.depth + 1)
            via = (
                f" via {node.record['edge']}"
                if node.record.get("edge")
                else ""
            )
            summary = []
            if node.cuts:
                rules: dict[str, int] = {}
                for cut in node.cuts:
                    rules[cut["rule"]] = rules.get(cut["rule"], 0) + 1
                summary.append(
                    "cut "
                    + ", ".join(
                        f"{count}x {rule}"
                        for rule, count in sorted(rules.items())
                    )
                )
            if node.rescues:
                summary.append(f"{len(node.rescues)} caution rescue(s)")
            for completion in node.completions:
                flag = "kept" if completion["kept"] else "dropped"
                summary.append(
                    f"complete {completion['path']} "
                    f"{completion['label']} [{flag}]"
                )
            suffix = f"  ({'; '.join(summary)})" if summary else ""
            lines.append(
                f"{indent}{node.name}{via} {node.record['label']}{suffix}"
            )
            emitted += 1
        if truncated:
            expansions = len(log.of_kind("expand"))
            lines.append(
                f"  ... {expansions - emitted} more expansions "
                f"(of {expansions} total)"
            )
    counts = log.cut_counts()
    if counts:
        lines.append(
            "cuts: "
            + ", ".join(
                f"{rule}={count}" for rule, count in sorted(counts.items())
            )
        )
    for trip in log.of_kind("budget_trip"):
        lines.append(f"budget trip: {trip['reason']}")
    for funnel in log.of_kind("agg_select"):
        lines.append(
            f"selection: {funnel['candidates']} recorded -> "
            f"{funnel['optimal_labels']} optimal label(s) -> "
            f"{funnel['survivors']} survivor(s), "
            f"{funnel['preempted']} preempted"
        )
    scores = log.of_kind("score")
    if scores:
        lines.append("score decomposition:")
        for score in scores:
            lines.append(
                f"  #{score['rank']} {score['path']}  {score['label']} "
                f"(semantic length {score['total']})"
            )
            for step in score["steps"]:
                lines.append(
                    f"      .{step['edge']} ({step['connector']}) "
                    f"{step['delta']:+d} -> {step['length']}  "
                    f"{step['label']}"
                )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Audited cold runs and the cross-mode diff
# ----------------------------------------------------------------------


def audit_completion(
    schema, text: str, e: int = 1, pruning: str | None = None, order=None
):
    """Run one *cold* single-gap completion with a fresh audit log.

    Deliberately bypasses the completion cache (a warm hit replays no
    decisions, so there would be nothing to audit) by driving the
    compiled artifact's shared searcher directly.  Returns
    ``(CompletionResult, SearchAuditLog)``.
    """
    from repro.core.compiled import CompiledSchema, compile_schema
    from repro.core.parser import parse_path_expression
    from repro.core.target import RelationshipTarget

    compiled = (
        schema
        if isinstance(schema, CompiledSchema)
        else compile_schema(schema, order=order)
    )
    expression = parse_path_expression(str(text))
    if not expression.is_simple_incomplete:
        raise ValueError(
            f"audit replay covers single-gap queries (s ~ N); got "
            f"{expression!s}"
        )
    searcher = compiled.searcher(e=e, pruning=pruning)
    log = SearchAuditLog()
    with use_audit(log):
        result = searcher.run(
            expression.root, RelationshipTarget(expression.last_name)
        )
    return result, log


#: Cut rules that legitimately explain an edge the *other* mode
#: expanded.  The closure mode's extra rules (reachability,
#: label_bound) plus the shared bounds: one-sided subtrees perturb the
#: best[T]/best[u] frontiers mid-search, so either mode can fire a
#: shared bound the other did not — the final results still agree,
#: which the diff asserts separately.
_EXPLAINING_RULES = frozenset(
    {
        "reachability",
        "label_bound",
        "target_bound",
        "best_bound",
        "visited",
        "dead_end",
        "max_depth",
    }
)


def _cut_admissible(cut: dict) -> bool:
    """Re-verify a bound cut's arithmetic from the record alone."""
    rule = cut["rule"]
    if cut.get("caution"):
        return False  # a caution-exempt label must never be cut
    if rule == "label_bound":
        bounds = cut.get("bounds", ())
        return bool(bounds) and all(
            entry["bound"] > entry["cutoff"] for entry in bounds
        )
    if rule == "target_bound" and "cutoff" in cut:
        return cut["length"] > cut["cutoff"]
    # Structural rules and the frontier-carrying reference bounds are
    # admissible by construction; the record still carries the frontier
    # for human inspection.
    return True


@dataclasses.dataclass
class Divergence:
    """One edge expanded in one mode but not the other."""

    path: tuple[str, ...]  # class names, root .. parent
    edge: str
    child: str
    expanded_in: str  # the mode that walked through the edge
    rule: str | None  # the other mode's cut rule; None = unexplained
    admissible: bool = False

    def describe(self) -> str:
        where = ".".join(self.path) or "<root>"
        if self.rule is None:
            return (
                f"UNEXPLAINED: {where} --{self.edge}--> {self.child} "
                f"expanded under {self.expanded_in} with no matching "
                "cut in the other mode"
            )
        flag = "admissible" if self.admissible else "NOT ADMISSIBLE"
        return (
            f"{where} --{self.edge}--> {self.child}: expanded under "
            f"{self.expanded_in}, cut by {self.rule} ({flag})"
        )


@dataclasses.dataclass
class QueryDiff:
    """The cross-mode audit of one query at one E."""

    query: str
    e: int
    identical_results: bool
    none_expansions: int
    closure_expansions: int
    explained: list[Divergence]
    unexplained: list[Divergence]

    @property
    def ok(self) -> bool:
        """Every divergence explained by an admissible cut, results equal."""
        return (
            self.identical_results
            and not self.unexplained
            and all(d.admissible for d in self.explained)
        )

    def render(self) -> str:
        status = "OK" if self.ok else "FAIL"
        lines = [
            f"[{status}] {self.query} (e={self.e}): "
            f"{self.none_expansions} expansions under pruning=none vs "
            f"{self.closure_expansions} under closure, "
            f"{len(self.explained)} divergence(s) explained, "
            f"{len(self.unexplained)} unexplained, results "
            + ("identical" if self.identical_results else "DIFFER")
        ]
        rules: dict[str, int] = {}
        for divergence in self.explained:
            rules[divergence.rule] = rules.get(divergence.rule, 0) + 1
        if rules:
            lines.append(
                "  explained by: "
                + ", ".join(
                    f"{rule}={count}" for rule, count in sorted(rules.items())
                )
            )
        for divergence in self.unexplained:
            lines.append("  " + divergence.describe())
        for divergence in self.explained:
            if not divergence.admissible:
                lines.append("  " + divergence.describe())
        return "\n".join(lines)


def _outcomes(node: AuditNode) -> dict[tuple[str, str], tuple[str, object]]:
    """Per considered interior edge of one node entry: what happened.

    Keyed by ``(edge name, child class)``; the value is ``("expand",
    AuditNode)`` or ``("cut", record)``.  Each out-edge is considered at
    most once per entry, so the mapping is lossless.
    """
    outcomes: dict[tuple[str, str], tuple[str, object]] = {}
    for child in node.children:
        record = child.record
        outcomes[(record["edge"], record["node"])] = ("expand", child)
    for cut in node.cuts:
        outcomes[(cut["edge"], cut["child"])] = ("cut", cut)
    return outcomes


def diff_modes(schema, text: str, e: int = 1, order=None) -> QueryDiff:
    """Audit one query under both pruning modes and align the walks.

    Both searches are replayed cold with audit enabled; the two
    decision trees are walked together from the root.  At every
    mutually expanded node the per-edge outcomes are compared: an edge
    expanded by one mode must carry a cut record in the other, and
    bound-backed cuts must re-verify their arithmetic
    (:func:`_cut_admissible`).  Only mutually expanded children are
    descended into — a one-sided subtree is already accounted for by
    the cut that created it.  Ranked paths, labels, and exhaustion are
    compared for byte-identity on top.
    """
    ref_result, ref_log = audit_completion(
        schema, text, e=e, pruning="none", order=order
    )
    clo_result, clo_log = audit_completion(
        schema, text, e=e, pruning="closure", order=order
    )
    identical = (
        [str(p) for p in ref_result.paths]
        == [str(p) for p in clo_result.paths]
        and [str(l) for l in ref_result.labels]
        == [str(l) for l in clo_result.labels]
        and ref_result.exhausted == clo_result.exhausted
    )
    explained: list[Divergence] = []
    unexplained: list[Divergence] = []

    def visit(ref_node: AuditNode, clo_node: AuditNode, trail: tuple[str, ...]):
        ref_out = _outcomes(ref_node)
        clo_out = _outcomes(clo_node)
        for key in ref_out.keys() | clo_out.keys():
            edge, child = key
            ref_kind, ref_payload = ref_out.get(key, (None, None))
            clo_kind, clo_payload = clo_out.get(key, (None, None))
            if ref_kind == "expand" and clo_kind == "expand":
                visit(ref_payload, clo_payload, trail + (ref_node.name,))
            elif ref_kind == "expand":
                rule = clo_payload["rule"] if clo_kind == "cut" else None
                bucket = Divergence(
                    path=trail + (ref_node.name,),
                    edge=edge,
                    child=child,
                    expanded_in="none",
                    rule=rule if rule in _EXPLAINING_RULES else None,
                    admissible=(
                        clo_kind == "cut" and _cut_admissible(clo_payload)
                    ),
                )
                (unexplained if bucket.rule is None else explained).append(
                    bucket
                )
            elif clo_kind == "expand":
                rule = ref_payload["rule"] if ref_kind == "cut" else None
                bucket = Divergence(
                    path=trail + (clo_node.name,),
                    edge=edge,
                    child=child,
                    expanded_in="closure",
                    rule=rule if rule in _EXPLAINING_RULES else None,
                    admissible=(
                        ref_kind == "cut" and _cut_admissible(ref_payload)
                    ),
                )
                (unexplained if bucket.rule is None else explained).append(
                    bucket
                )
            # cut in both modes: agreement, nothing to explain.
        # The completing edges considered at a matched node must match
        # exactly (the ancestors, hence the cycle filter, are shared);
        # a one-sided candidate would be an unexplained divergence.
        ref_complete = {c["edge"] for c in ref_node.completions}
        clo_complete = {c["edge"] for c in clo_node.completions}
        for edge in ref_complete ^ clo_complete:
            unexplained.append(
                Divergence(
                    path=trail + (ref_node.name,),
                    edge=edge,
                    child=ref_node.name,
                    expanded_in=(
                        "none" if edge in ref_complete else "closure"
                    ),
                    rule=None,
                )
            )

    ref_root = reconstruct_tree(ref_log.records)
    clo_root = reconstruct_tree(clo_log.records)
    if ref_root is not None and clo_root is not None:
        visit(ref_root, clo_root, ())
    elif (ref_root is None) != (clo_root is None):  # pragma: no cover
        unexplained.append(
            Divergence(
                path=(),
                edge="<root>",
                child=text,
                expanded_in="none" if ref_root is not None else "closure",
                rule=None,
            )
        )
    return QueryDiff(
        query=text,
        e=e,
        identical_results=identical,
        none_expansions=len(ref_log.of_kind("expand")),
        closure_expansions=len(clo_log.of_kind("expand")),
        explained=explained,
        unexplained=unexplained,
    )


# ----------------------------------------------------------------------
# CLI: python -m repro.core.audit diff
# ----------------------------------------------------------------------


def _load_schema(name: str):
    if name == "cupid":
        from repro.schemas.cupid import build_cupid_schema

        return build_cupid_schema()
    from repro.schemas.university import build_university_schema

    return build_university_schema()


def _default_queries(builtin: str) -> list[str]:
    if builtin == "cupid":
        from repro.experiments.workload import build_cupid_workload

        return [query.text for query in build_cupid_workload()]
    return ["ta ~ name"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.core.audit",
        description=(
            "Replay queries under pruning=closure vs pruning=none with "
            "the audit log enabled and prove every divergence is a cut "
            "backed by an admissible bound."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    diff = sub.add_parser(
        "diff", help="cross-mode replay over one or more queries"
    )
    diff.add_argument(
        "--builtin",
        choices=("cupid", "university"),
        default="cupid",
        help="built-in schema to replay against (default: cupid)",
    )
    diff.add_argument(
        "-e",
        "--e-max",
        type=int,
        default=3,
        dest="e_max",
        help="sweep E=1..E_MAX (default: 3)",
    )
    diff.add_argument(
        "queries",
        nargs="*",
        help=(
            "queries to replay (default: the ten Section-5 CUPID "
            "workload queries)"
        ),
    )
    args = parser.parse_args(argv)

    schema = _load_schema(args.builtin)
    queries = args.queries or _default_queries(args.builtin)
    failures = 0
    for text in queries:
        for e in range(1, args.e_max + 1):
            report = diff_modes(schema, text, e=e)
            print(report.render())
            if not report.ok:
                failures += 1
    if failures:
        print(f"{failures} query/E combination(s) FAILED", file=sys.stderr)
        return 1
    print(
        f"all {len(queries) * args.e_max} query/E combinations verified: "
        "every divergence is an admissible cut"
    )
    return 0
