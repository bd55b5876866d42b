"""The flat search kernel — Algorithm 2 with closure cuts over integers.

:func:`run_flat` is the closure-mode search loop: every search with
``pruning="closure"`` over a static adjacency runs it, audited or not.
It is the paper's ``traverse`` routine plus the two closure cut rules
(:mod:`repro.core.closure`), written over dense integers so CPython
spends its time on the search rather than on object traffic:

* nodes are closure indexes, ``visited`` is one int bitset;
* a path label is a single small int — the *lstate* — encoding
  ``(composed connector index, seam class of the last edge)``; label
  composition and the :meth:`SemanticLengthState.join
  <repro.algebra.semantic_length.SemanticLengthState.join>` seam
  arithmetic are precomputed into flat lookup tables
  (:data:`EXT_LSTATE`, :data:`EXT_DELTA`) at import time;
* adjacency comes preflattened per node in the closure's
  :class:`~repro.core.closure.TargetTables`, so the inner loop unpacks
  int tuples only;
* ``best[u]`` and the ``best[T]`` frontier are AGG*-reduced ``(length,
  sort rank, connector index)`` triples held in index-addressed lists,
  and the line-9 test runs off a per-connector cutoff table rebuilt
  only when the frontier changes;
* complete paths are recorded as ``(edge prefix, edge, connector,
  length)`` tuples and materialized into :class:`ConcretePath` objects
  (with their labels preset) only after the traversal.

The search audit log (:mod:`repro.core.audit`) is emitted from this
loop behind one hoisted ``audit_on`` bool: node names, label strings
and path strings are built from ``closure.nodes`` and the edge stack
only when it is set, so the disabled default costs a local-bool branch
per decision site.  :meth:`CompletionSearch._traverse_reference
<repro.core.completion.CompletionSearch._traverse_reference>` — the
paper's Algorithm 2 verbatim — is the answer oracle:
``tests/core/test_kernel.py`` checks identical ranked paths and labels
against it, and pins the audit stream record for record.
"""

from __future__ import annotations

from repro.algebra.connectors import ALL_CONNECTORS, PRIMARY_CONNECTORS
from repro.algebra.labels import PathLabel
from repro.algebra.semantic_length import _TAXONOMIC, SemanticLengthState
from repro.core.ast import ConcretePath
from repro.core.audit import get_audit
from repro.core.closure import (
    _CONI,
    _LAST_CLASS_BY_INDEX,
    _LAST_OTHER,
    _N_CONNECTORS,
    _SORT_RANK,
    _seam_adjustment,
    SchemaClosure,
    TargetTables,
)

__all__ = ["BudgetTrip", "run_flat"]

#: Cutoff-table sentinels: ``_NO_CUTOFF`` means "any semantic length
#: passes" (fewer than E distinct lengths on the frontier), ``-1`` means
#: "always fails" (the connector is beaten outright), chosen so the
#: single comparison ``length > cutoffs[c]`` decides membership.
_NO_CUTOFF = 1 << 30

#: Connector symbols by index, for the audit records.
_SYMBOL: tuple[str, ...] = tuple(c.symbol for c in ALL_CONNECTORS)


def _label_str(ci: int, length: int) -> str:
    """``str()`` of the :class:`PathLabel` with connector index ``ci``
    and semantic length ``length`` (``"[sym,len]"``)."""
    return f"[{_SYMBOL[ci]},{length}]"


class BudgetTrip(Exception):
    """Internal control flow: unwinds a search loop on a tripped meter.

    Raised by both traversals and caught in
    ``CompletionSearch._traverse``, which converts it into the anytime
    truncation reason.
    """

    def __init__(self, reason: str) -> None:
        self.reason = reason


# ----------------------------------------------------------------------
# The lstate encoding and its composition tables
# ----------------------------------------------------------------------
#
# A traversal label is fully determined, for every decision the loop
# makes, by (composed connector index, semantic length, seam class of
# the last collapsed edge).  The length is carried separately as an
# int; the other two pack into one *lstate*:
#
#     lstate = connector_index * 6 + ls,   ls = 0 (empty path)
#                                               or seam class + 1
#
# giving 14 * 6 = 84 states.  IDENTITY_LABEL is lstate 0 (ISA has
# index 0, empty state).  Extending by an edge with connector c moves
# to ``EXT_LSTATE[lstate * 14 + c]`` and adds ``EXT_DELTA[...]`` to the
# length — exactly ``label.extend(c)``'s connector composition and
# seam arithmetic, precomputed.

_N_LSTATES = _N_CONNECTORS * 6


def _build_ext_tables() -> tuple[tuple[int, ...], tuple[int, ...]]:
    ext_lstate = [0] * (_N_LSTATES * _N_CONNECTORS)
    ext_delta = [0] * (_N_LSTATES * _N_CONNECTORS)
    for ci in range(_N_CONNECTORS):
        for ls in range(6):
            base_index = (ci * 6 + ls) * _N_CONNECTORS
            for c in range(_N_CONNECTORS):
                edge_conn = ALL_CONNECTORS[c]
                delta = 0 if edge_conn in _TAXONOMIC else 1
                if ls > 0 and ls - 1 != _LAST_OTHER:
                    # Classes 0..3 are the singleton collapsible
                    # connectors, so the class representative *is* the
                    # last connector; class 4 ("other") always seams 0.
                    delta += _seam_adjustment(
                        PRIMARY_CONNECTORS[ls - 1], edge_conn
                    )
                ext_lstate[base_index + c] = _CONI[ci][c] * 6 + (
                    _LAST_CLASS_BY_INDEX[c] + 1
                )
                ext_delta[base_index + c] = delta
    return tuple(ext_lstate), tuple(ext_delta)


#: ``EXT_LSTATE[lstate * 14 + c]`` — the lstate after extending by an
#: edge with connector index ``c``.
#: ``EXT_DELTA[lstate * 14 + c]`` — the semantic-length increment of
#: that extension (``base(c) + seam(last, c)``, always 0, 1, or -1+1).
EXT_LSTATE, EXT_DELTA = _build_ext_tables()

#: Composed connector index of an lstate (``lstate // 6``).
CI_OF: tuple[int, ...] = tuple(
    lstate // 6 for lstate in range(_N_LSTATES)
)

#: Label-bound row base of an lstate: ``last class * 14``, the offset
#: into ``TargetTables.rows[u]`` for a prefix in this state.  Only
#: meaningful for non-empty lstates (``ls > 0``); the traversal never
#: bound-checks the empty root label.
LB_ROWBASE: tuple[int, ...] = tuple(
    (max(lstate % 6 - 1, 0)) * _N_CONNECTORS for lstate in range(_N_LSTATES)
)


# ----------------------------------------------------------------------
# The flat expansion loop
# ----------------------------------------------------------------------


def run_flat(
    closure: SchemaClosure,
    tables: TargetTables,
    root: str,
    state,
    aggregator,
    caution_masks,
    max_depth: int | None,
    meter,
) -> None:
    """Algorithm 2 with closure cuts, on flat integer state.

    Iterative rendering of the paper's recursive ``traverse``: a stack
    frame ``(node, lstate, length, depth, next edge index)`` with edge
    index 0 is a node still to be entered (lines 1-5); pushing one is a
    recursive call (line 13), and a frame running past its last edge
    returns past line 15.  On top of the paper's cuts:

    * *reachability pruning* — edges to children from which no
      completing edge is reachable were dropped into
      ``tables.reach_dropped`` at table build; each entry charges them
      to ``stats.nodes_pruned_reachability``;
    * *label-bound pruning* — after the line-12 ``best[u]`` update (so
      the frontier evolves exactly as in the reference), a child is
      entered only if some achievable composed connector admits an
      optimistic complete label that ``best[T]`` keeps, or one whose
      caution set intersects ``best[T]`` (the non-distributivity
      exemption).

    Fills ``state.complete`` and ``state.stats`` (also on a budget trip,
    so truncation keeps the best-so-far anytime answer) and raises
    :class:`BudgetTrip` when ``meter`` trips.
    """
    stats = state.stats
    complete = state.complete
    e_param = aggregator.e
    beaten_by = aggregator.beaten_by
    sort_rank = _SORT_RANK
    coni = _CONI
    ext_lstate = EXT_LSTATE
    ext_delta = EXT_DELTA
    ci_of = CI_OF
    lb_rowbase = LB_ROWBASE
    n_conn = _N_CONNECTORS
    no_cutoff = _NO_CUTOFF
    # Depth sentinel: one compare per edge instead of a None test plus
    # a compare (the bound is unreachable when max_depth is None).
    depth_limit = no_cutoff if max_depth is None else max_depth
    completing = tables.completing
    interior = tables.interior
    reach_pruned = tables.reach_pruned
    rows_ = tables.rows
    conns = tables.conns
    # One hoisted flag guards every audit hook; names and strings are
    # only built behind it.
    audit = get_audit()
    audit_on = audit.enabled
    audit_record = audit.record
    nodes = closure.nodes
    reach_dropped = tables.reach_dropped

    def audit_cut(rule, node_i, depth, edge, **evidence):
        audit_record(
            "cut",
            rule=rule,
            node=nodes[node_i],
            depth=depth,
            edge=edge.name,
            child=edge.target,
            **evidence,
            caution=False,
        )

    def audit_rescue(rule, node_i, depth, edge, ci, length):
        audit_record(
            "rescue",
            rule=rule,
            node=nodes[node_i],
            depth=depth,
            edge=edge.name,
            child=edge.target,
            label=_label_str(ci, length),
        )

    visited = 0
    best: list = [None] * len(interior)
    bt: list = []  # best[T] as AGG*-reduced triples
    bt_mask = 0
    bt_dirty = False
    cutoffs = [no_cutoff] * n_conn
    # Recorded complete paths: (edge prefix tuple, completing edge,
    # composed connector index, semantic length), materialized at exit.
    complete_rec: list = []
    complete_rec_append = complete_rec.append

    recursive_calls = 0
    edges_considered = 0
    pruned_visited = 0
    pruned_target_bound = 0
    pruned_best_bound = 0
    rescued_by_caution = 0
    nodes_pruned_reachability = 0
    nodes_pruned_bound = 0

    path_edges: list = []
    path_edges_append = path_edges.append
    path_edges_pop = path_edges.pop
    stack: list = [(closure.index[root], 0, 0, 0, 0)]
    stack_append = stack.append
    stack_pop = stack.pop

    try:
        while stack:
            node_i, lstate, length, depth, edge_index = stack_pop()
            if not edge_index:
                # Lines 1-5: mark visited, record the complete paths via
                # the completing edges out of this node, update best[T].
                visited |= 1 << node_i
                recursive_calls += 1
                nodes_pruned_reachability += reach_pruned[node_i]
                if audit_on:
                    audit_record(
                        "expand",
                        node=nodes[node_i],
                        depth=depth,
                        edge=path_edges[-1].name if depth else None,
                        label=_label_str(ci_of[lstate], length),
                        length=length,
                    )
                    for dropped in reach_dropped[node_i]:
                        audit_cut("reachability", node_i, depth, dropped)
                if meter is not None:
                    reason = meter.tripped(
                        recursive_calls, len(complete_rec), len(stack)
                    )
                    if reason is not None:
                        raise BudgetTrip(reason)
                prefix = None
                ex_base = lstate * n_conn
                for t_i, c_i, cedge in completing[node_i]:
                    if visited >> t_i & 1:
                        continue  # would close a cycle; ignored
                    cand_lstate = ext_lstate[ex_base + c_i]
                    cand_ci = ci_of[cand_lstate]
                    cand_length = length + ext_delta[ex_base + c_i]
                    cand_triple = (cand_length, sort_rank[cand_ci], cand_ci)
                    # Line-5 frontier update: merge(candidate, best[T]).
                    if not bt:
                        bt = [cand_triple]
                        bt_dirty = True
                    elif cand_triple not in bt:
                        merged = [cand_triple]
                        for t in bt:
                            if t[2] != cand_ci or t[0] != cand_length:
                                merged.append(t)
                        present = 0
                        for t in merged:
                            present |= 1 << t[2]
                        survivors = [
                            t
                            for t in merged
                            if not (present & beaten_by[t[2]])
                        ]
                        if len(survivors) > 1:
                            lengths = sorted({t[0] for t in survivors})
                            if len(lengths) > e_param:
                                allowed = set(lengths[:e_param])
                                survivors = [
                                    t for t in survivors if t[0] in allowed
                                ]
                        survivors.sort()
                        if survivors != bt:
                            bt = survivors
                            bt_dirty = True
                    # keeps(candidate, best[T]) on the updated frontier.
                    present = 1 << cand_ci
                    for t in bt:
                        present |= 1 << t[2]
                    if present & beaten_by[cand_ci]:
                        kept = False
                    else:
                        lengths = {cand_length}
                        for t in bt:
                            if not (present & beaten_by[t[2]]):
                                lengths.add(t[0])
                        kept = (
                            len(lengths) <= e_param
                            or cand_length <= sorted(lengths)[e_param - 1]
                        )
                    if kept:
                        if prefix is None:
                            prefix = tuple(path_edges)
                        complete_rec_append(
                            (prefix, cedge, cand_ci, cand_length)
                        )
                    if audit_on:
                        audit_record(
                            "complete",
                            node=nodes[node_i],
                            depth=depth,
                            edge=cedge.name,
                            path=str(
                                ConcretePath(root, (*path_edges, cedge))
                            ),
                            label=_label_str(cand_ci, cand_length),
                            length=cand_length,
                            kept=kept,
                        )

            edges = interior[node_i]
            n_edges = len(edges)
            # Frame-constant hoists for the per-edge loop below.
            ls_base = lstate * n_conn
            child_depth = depth + 1
            while edge_index < n_edges:
                child_i, c_i, edge = edges[edge_index]
                edge_index += 1
                edges_considered += 1
                if visited >> child_i & 1:
                    pruned_visited += 1
                    if audit_on:
                        audit_cut("visited", node_i, depth, edge)
                    continue
                if child_depth >= depth_limit:
                    if audit_on:
                        audit_cut("max_depth", node_i, depth, edge)
                    continue
                e_idx = ls_base + c_i
                child_lstate = ext_lstate[e_idx]
                child_length = length + ext_delta[e_idx]
                child_ci = ci_of[child_lstate]
                if bt:
                    if bt_dirty:
                        # Rewrite keeps(·, best[T]) as per-connector
                        # cutoffs.  The survivor set is recomputed per
                        # candidate connector because the candidate's
                        # own bit can knock frontier members out of the
                        # connector filter.
                        bt_dirty = False
                        bt_mask = 0
                        for t in bt:
                            bt_mask |= 1 << t[2]
                        for ci in range(n_conn):
                            present = bt_mask | (1 << ci)
                            if present & beaten_by[ci]:
                                cutoffs[ci] = -1
                                continue
                            lengths = {
                                t[0]
                                for t in bt
                                if not (present & beaten_by[t[2]])
                            }
                            # keeps() counts the candidate's own length
                            # among the distinct survivor lengths: with
                            # fewer than E frontier lengths any candidate
                            # fits, otherwise the window's last slot is
                            # the E-th smallest frontier length.
                            if len(lengths) < e_param:
                                cutoffs[ci] = no_cutoff
                            else:
                                cutoffs[ci] = sorted(lengths)[e_param - 1]
                    # Line 9, via the cutoff table.
                    if child_length > cutoffs[child_ci]:
                        pruned_target_bound += 1
                        if audit_on:
                            audit_cut(
                                "target_bound",
                                node_i,
                                depth,
                                edge,
                                label=_label_str(child_ci, child_length),
                                length=child_length,
                                cutoff=cutoffs[child_ci],
                            )
                        continue
                # Lines 10-11: bound against best[u], rescued by caution.
                child_bit = 1 << child_ci
                entry = best[child_i]
                if entry is not None:
                    stored_mask, triples = entry
                    candidate_triple = (
                        child_length,
                        sort_rank[child_ci],
                        child_ci,
                    )
                    # Fast path: the candidate's key is already in the
                    # AGG* output, so it trivially passes the membership
                    # test and the line-12 update is a no-op.
                    if candidate_triple not in triples:
                        present = stored_mask | child_bit
                        if present & beaten_by[child_ci]:
                            kept = False
                        else:
                            lengths = {child_length}
                            for known_length, _, known_ci in triples:
                                if not (present & beaten_by[known_ci]):
                                    lengths.add(known_length)
                            kept = (
                                len(lengths) <= e_param
                                or child_length
                                <= sorted(lengths)[e_param - 1]
                            )
                        if not kept:
                            if (
                                caution_masks is not None
                                and stored_mask & caution_masks[child_ci]
                            ):
                                rescued_by_caution += 1
                                if audit_on:
                                    audit_rescue(
                                        "best_bound",
                                        node_i,
                                        depth,
                                        edge,
                                        child_ci,
                                        child_length,
                                    )
                            else:
                                pruned_best_bound += 1
                                if audit_on:
                                    audit_cut(
                                        "best_bound",
                                        node_i,
                                        depth,
                                        edge,
                                        label=_label_str(child_ci, child_length),
                                        length=child_length,
                                        frontier=[
                                            _label_str(ci, known)
                                            for known, _, ci in triples
                                        ],
                                    )
                                continue
                        # Line 12: best[u] := AGG*({l_u} ∪ best[u]).  A
                        # caution-rescued (beaten) candidate reaches here
                        # but does not survive into the stored frontier.
                        survivors = []
                        if not (present & beaten_by[child_ci]):
                            survivors.append(candidate_triple)
                        for triple in triples:
                            if not (present & beaten_by[triple[2]]):
                                survivors.append(triple)
                        if len(survivors) > e_param:
                            s_lengths = sorted(
                                {triple[0] for triple in survivors}
                            )
                            if len(s_lengths) > e_param:
                                cut = s_lengths[e_param - 1]
                                survivors = [
                                    triple
                                    for triple in survivors
                                    if triple[0] <= cut
                                ]
                        survivors.sort()
                        new_mask = 0
                        for triple in survivors:
                            new_mask |= 1 << triple[2]
                        best[child_i] = (new_mask, survivors)
                else:
                    best[child_i] = (
                        child_bit,
                        [(child_length, sort_rank[child_ci], child_ci)],
                    )
                # Label-bound pruning (after line 12, so best[] evolves
                # identically to the reference loop).
                if bt:
                    row = rows_[child_i]
                    base = lb_rowbase[child_lstate]
                    composed_row = coni[child_ci]
                    survives = False
                    for suffix_ci in conns[child_i]:
                        composed_i = composed_row[suffix_ci]
                        if (
                            caution_masks is not None
                            and bt_mask & caution_masks[composed_i]
                        ):
                            survives = True  # caution exemption
                            if audit_on:
                                audit_rescue(
                                    "label_bound",
                                    node_i,
                                    depth,
                                    edge,
                                    child_ci,
                                    child_length,
                                )
                            break
                        if (
                            child_length + row[base + suffix_ci]
                            <= cutoffs[composed_i]
                        ):
                            survives = True
                            break
                    if not survives:
                        nodes_pruned_bound += 1
                        if audit_on:
                            audit_cut(
                                "label_bound",
                                node_i,
                                depth,
                                edge,
                                label=_label_str(child_ci, child_length),
                                length=child_length,
                                bounds=[
                                    {
                                        "connector": _SYMBOL[
                                            composed_row[suffix_ci]
                                        ],
                                        "bound": child_length
                                        + row[base + suffix_ci],
                                        "cutoff": cutoffs[
                                            composed_row[suffix_ci]
                                        ],
                                    }
                                    for suffix_ci in conns[child_i]
                                ],
                            )
                        continue
                # Line 13: recurse — push the parent frame back with its
                # position, then the child, entered on the next pop.
                stack_append((node_i, lstate, length, depth, edge_index))
                path_edges_append(edge)
                stack_append(
                    (child_i, child_lstate, child_length, child_depth, 0)
                )
                break
            else:
                visited &= ~(1 << node_i)  # line 15
                if depth:
                    path_edges_pop()
    finally:
        stats.recursive_calls += recursive_calls
        stats.edges_considered += edges_considered
        stats.pruned_visited += pruned_visited
        stats.pruned_target_bound += pruned_target_bound
        stats.pruned_best_bound += pruned_best_bound
        stats.rescued_by_caution += rescued_by_caution
        stats.nodes_pruned_reachability += nodes_pruned_reachability
        stats.nodes_pruned_bound += nodes_pruned_bound
        stats.complete_paths_found += len(complete_rec)
        # Materialize the recorded paths — also on a budget trip, so
        # the anytime best-so-far answer survives truncation.
        all_connectors = ALL_CONNECTORS
        concrete_path = ConcretePath
        path_label = PathLabel
        length_state = SemanticLengthState
        set_attr = object.__setattr__
        for prefix, cedge, cand_ci, cand_length in complete_rec:
            edges = prefix + (cedge,)
            path = concrete_path(root, edges)
            set_attr(
                path,
                "_label",
                path_label(
                    all_connectors[cand_ci],
                    length_state(
                        cand_length,
                        edges[0].connector,
                        edges[-1].connector,
                    ),
                ),
            )
            complete.append(path)
