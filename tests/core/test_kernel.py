"""The flat search kernel — equivalence, tables, and the audit log.

``repro.core.kernel.run_flat`` is the only closure-mode search loop.
Its contract is *answer identity* with the paper's Algorithm 2 as
written (``pruning="none"``, the reference loop): the same ranked
paths, labels, semantic lengths, and anytime flags across schemas, E
levels, ablation flags, and depth caps.  These tests enforce that over
the bundled schemas and a family of generated random schemas, verify
the precomputed lstate composition tables against the real
:meth:`PathLabel.extend`, and pin the audit log: an audited search runs
the flat kernel, and its decision records match, record for record, the
streams captured from the interpreted closure loop the kernel replaced
(``data/closure_audit_streams.json.xz``).
"""

from __future__ import annotations

import json
import lzma
import pathlib

import pytest

from repro.algebra.connectors import ALL_CONNECTORS, PRIMARY_CONNECTORS
from repro.algebra.labels import PathLabel
from repro.algebra.semantic_length import SemanticLengthState
from repro.core import compiled as compiled_mod
from repro.core import completion as completion_mod
from repro.core.audit import SearchAuditLog, use_audit
from repro.core.closure import (
    _LAST_CLASS_BY_INDEX,
    _LAST_OTHER,
    _N_CONNECTORS,
)
from repro.core.compiled import CompiledSchema
from repro.core.engine import Disambiguator
from repro.core.kernel import EXT_DELTA, EXT_LSTATE
from repro.core.parser import parse_path_expression
from repro.core.target import RelationshipTarget
from repro.errors import ReproError
from repro.resilience.budget import Budget
from repro.schemas import (
    build_cupid_schema,
    build_hospital_schema,
    build_university_schema,
)
from repro.schemas.generator import GeneratorConfig, generate_schema

QUERIES = [
    "ta ~ name",
    "student.take.teacher",
    "student ~ dept",
    "teacher ~ name",
]

#: Audit record streams of the interpreted closure loop, captured before
#: it was deleted; see :func:`_audit_stream` for how each case runs.
AUDIT_FIXTURE = (
    pathlib.Path(__file__).parent / "data" / "closure_audit_streams.json.xz"
)

#: ``(case id, builtin schema, query, E, max_depth, node budget)``.
#: Together the cases exercise every record the closure loop emits:
#: expand, the visited / max_depth / target_bound / best_bound /
#: label_bound / reachability cuts, both rescue kinds, complete, and a
#: budget trip.
AUDIT_CASES = (
    ("cupid-e1", "cupid", "experiment ~ conductance", 1, None, None),
    ("cupid-e2", "cupid", "experiment ~ conductance", 2, None, None),
    ("cupid-e3", "cupid", "experiment ~ conductance", 3, None, None),
    ("cupid-e2-depth5", "cupid", "experiment ~ conductance", 2, 5, None),
    ("cupid-e2-nodes40", "cupid", "experiment ~ conductance", 2, None, 40),
    ("university-e1", "university", "ta ~ name", 1, None, None),
    ("hospital-e2", "hospital", "ward ~ name", 2, None, None),
)

_SCHEMAS = {
    "cupid": build_cupid_schema,
    "hospital": build_hospital_schema,
    "university": build_university_schema,
}


def _snapshot(result):
    return (
        tuple(str(path) for path in result.paths),
        tuple(str(label) for label in result.labels),
        tuple(str(label.semantic_length) for label in result.labels),
        result.exhausted,
        result.truncation_reason,
    )


def _stats(result):
    s = result.stats
    return (
        s.recursive_calls,
        s.edges_considered,
        s.complete_paths_found,
        s.pruned_visited,
        s.pruned_target_bound,
        s.pruned_best_bound,
        s.rescued_by_caution,
        s.nodes_pruned_reachability,
        s.nodes_pruned_bound,
    )


def _outcome(engine, text, budget=None):
    """The snapshot, or the typed error."""
    try:
        result = engine.complete(text, budget=budget)
    except ReproError as err:
        return ("error", type(err).__name__, str(err))
    return _snapshot(result)


def _paired_engines(schema, **kwargs):
    """Fresh reference/flat engines that share no registry artifact.

    Each gets its own :class:`CompiledSchema` built after an
    ``invalidate()`` so the flat side pays its own cold table builds.
    """
    compiled_mod.invalidate()
    reference = Disambiguator(CompiledSchema(schema), pruning="none", **kwargs)
    compiled_mod.invalidate()
    flat = Disambiguator(CompiledSchema(schema), pruning="closure", **kwargs)
    return reference, flat


def _audit_stream(schema_name, text, e, max_depth, max_nodes):
    """One cold closure-mode search under a fresh audit log.

    Returns the exported records and the traversal counters.
    """
    compiled = CompiledSchema(_SCHEMAS[schema_name]())
    expression = parse_path_expression(text)
    searcher = compiled.searcher(e=e, max_depth=max_depth, pruning="closure")
    budget = (
        Budget(max_nodes=max_nodes, partial_ok=True)
        if max_nodes is not None
        else None
    )
    log = SearchAuditLog()
    with use_audit(log):
        result = searcher.run(
            expression.root,
            RelationshipTarget(expression.last_name),
            budget=budget,
        )
    return log.to_records(), list(_stats(result))


@pytest.fixture(scope="module")
def pinned_streams():
    with lzma.open(AUDIT_FIXTURE, "rt", encoding="utf-8") as handle:
        return json.load(handle)


class TestExtensionTables:
    def test_tables_match_label_extend_for_every_state(self):
        """EXT_LSTATE/EXT_DELTA are ``PathLabel.extend`` precomputed.

        For every lstate (composed connector × last-edge seam class,
        plus the empty state) and every edge connector, the table's
        composed connector, new seam class, and length delta must equal
        what the real label algebra computes.
        """
        # A representative last connector per seam class: classes 0..3
        # are the singleton collapsible connectors; class 4 ("other")
        # can be any connector that classifies as 4.
        others = [
            index
            for index in range(_N_CONNECTORS)
            if _LAST_CLASS_BY_INDEX[index] == _LAST_OTHER
        ]
        assert others, "expected at least one non-collapsible connector"
        representative = list(PRIMARY_CONNECTORS[:4]) + [
            ALL_CONNECTORS[others[0]]
        ]
        base_length = 5
        checked = 0
        for ci in range(_N_CONNECTORS):
            for ls in range(6):
                if ls == 0:
                    state = SemanticLengthState()
                    length = 0
                else:
                    last = representative[ls - 1]
                    state = SemanticLengthState(base_length, last, last)
                    length = base_length
                label = PathLabel(ALL_CONNECTORS[ci], state)
                row = (ci * 6 + ls) * _N_CONNECTORS
                for c in range(_N_CONNECTORS):
                    extended = label.extend(ALL_CONNECTORS[c])
                    new_lstate = EXT_LSTATE[row + c]
                    assert extended.connector is ALL_CONNECTORS[
                        new_lstate // 6
                    ], (ci, ls, c)
                    assert new_lstate % 6 - 1 == _LAST_CLASS_BY_INDEX[c]
                    assert (
                        extended.semantic_length - length
                        == EXT_DELTA[row + c]
                    ), (ci, ls, c)
                    checked += 1
        assert checked == _N_CONNECTORS * 6 * _N_CONNECTORS


class TestEquivalence:
    @pytest.mark.parametrize("e", (1, 2, 3))
    @pytest.mark.parametrize("caution", (True, False))
    def test_university_byte_identity(self, university, e, caution):
        reference, flat = _paired_engines(
            university, e=e, use_caution_sets=caution
        )
        for text in QUERIES:
            assert _outcome(flat, text) == _outcome(reference, text), (
                text,
                e,
                caution,
            )

    @pytest.mark.parametrize("max_depth", (2, 4, None))
    def test_cupid_depth_caps(self, cupid, oracle_texts, max_depth):
        reference, flat = _paired_engines(cupid, e=2, max_depth=max_depth)
        for text in oracle_texts[:5]:
            assert _outcome(flat, text) == _outcome(reference, text), (
                text,
                max_depth,
            )

    @pytest.mark.parametrize("seed", (0, 3, 11))
    def test_generated_schemas_byte_identity(self, seed):
        """Property check over random schemas the kernel never saw."""
        schema = generate_schema(
            GeneratorConfig(classes=18, seed=seed, association_factor=1.2)
        )
        texts = [
            "cls_000 ~ label",
            "cls_005 ~ label",
            "cls_010 ~ rel_000",
            "cls_003 ~ attr_000",
        ]
        for e in (1, 3):
            reference, flat = _paired_engines(schema, e=e)
            for text in texts:
                assert _outcome(flat, text) == _outcome(
                    reference, text
                ), (seed, e, text)

    def test_budget_truncation_points_byte_identity(self, cupid):
        """Anytime truncation at many node budgets.

        The two loops expand different node counts, so they trip at
        different points; what must hold is that every partial answer
        is flagged and holds only genuine completions, and that once the
        budget no longer trips, the flat answer is the reference answer.
        """
        text = "experiment ~ conductance"
        reference, flat = _paired_engines(cupid, e=3)
        full = reference.complete(text)
        truncated = 0
        for limit in (1, 2, 5, 10, 40, 200, 100_000):
            # Partial answers are never cached, so each limit searches.
            result = flat.complete(
                text, budget=Budget(max_nodes=limit, partial_ok=True)
            )
            if result.exhausted:
                assert _snapshot(result) == _snapshot(full), limit
                continue
            truncated += 1
            assert result.truncation_reason == "nodes", limit
            for path in result.paths:
                # Every anytime path is a real completion: it starts at
                # the root and its last edge is the target relationship.
                assert path.root == "experiment"
                assert path.edges[-1].name == "conductance"
        assert truncated > 0, "no budget actually tripped"
        assert result.exhausted, "the largest budget still tripped"

    def test_hard_budget_raises_identically(self, cupid):
        reference, flat = _paired_engines(cupid, e=3)
        a = _outcome(
            reference,
            "experiment ~ conductance",
            budget=Budget(max_nodes=3, partial_ok=False),
        )
        b = _outcome(
            flat,
            "experiment ~ conductance",
            budget=Budget(max_nodes=3, partial_ok=False),
        )
        assert a[0] == b[0] == "error"
        assert a[1] == b[1] == "BudgetExceededError"


class TestAuditedSearch:
    def test_audited_searches_run_flat(self, university, monkeypatch):
        """An audited search runs the flat kernel (the loop production
        runs) and returns byte-identical results."""
        calls = []
        real_run_flat = completion_mod.run_flat

        def counting_run_flat(*args, **kwargs):
            calls.append(1)
            return real_run_flat(*args, **kwargs)

        monkeypatch.setattr(completion_mod, "run_flat", counting_run_flat)
        searcher = CompiledSchema(university).searcher(e=2, pruning="closure")
        target = RelationshipTarget("name")
        log = SearchAuditLog()
        with use_audit(log):
            audited = searcher.run("ta", target)
        assert len(calls) == 1
        assert log.of_kind("expand"), "the flat kernel emitted no records"
        plain = searcher.run("ta", target)
        assert len(calls) == 2
        assert _snapshot(audited) == _snapshot(plain)
        assert _stats(audited) == _stats(plain)

    @pytest.mark.parametrize("case", AUDIT_CASES, ids=lambda c: c[0])
    def test_stream_matches_the_interpreted_closure_loop(
        self, case, pinned_streams
    ):
        """Record for record, ``seq`` included, plus every counter."""
        case_id = case[0]
        expected = pinned_streams[case_id]
        records, stats = _audit_stream(*case[1:])
        # JSON round trip: the fixture holds lists where records hold
        # tuples.
        records = json.loads(json.dumps(records))
        assert stats == expected["stats"], case_id
        assert len(records) == len(expected["records"]), case_id
        for got, want in zip(records, expected["records"]):
            assert got == want, (case_id, got["seq"])


@pytest.fixture(scope="session")
def oracle_texts():
    from repro.experiments.workload import build_cupid_workload

    return [query.text for query in build_cupid_workload().queries]
