"""The memoized, patched schema fingerprint against a from-scratch oracle.

``Schema.fingerprint`` memoizes its digest, every mutator clears the
memo, and copies re-hash patched sorted records instead of re-sorting.
The oracle below is the digest loop as it was before either: it shares
no code with the memo or the records.  Random edit sequences through
every mutator and ``copy()`` must keep the two equal, and an in-place
mutation must make a compiled artifact stale.
"""

import hashlib

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.compiled import CompiledSchema
from repro.errors import ReproError
from repro.model.kinds import RelationshipKind
from repro.model.schema import Schema
from repro.schemas.cupid import build_cupid_schema
from repro.schemas.generator import GeneratorConfig, generate_schema


def oracle_fingerprint(schema: Schema) -> str:
    """The digest recomputed from the public API, record by record."""
    hasher = hashlib.sha256()
    for cls in sorted(schema.classes(), key=lambda cls: cls.name):
        hasher.update(f"C|{cls.name}|{int(cls.primitive)}\n".encode())
    for rel in sorted(schema.relationships(), key=lambda rel: rel.key):
        hasher.update(
            f"R|{rel.source}|{rel.name}|{rel.target}|"
            f"{rel.kind.symbol}\n".encode()
        )
    return hasher.hexdigest()


#: Names chosen so that record order by key and by rendered line differ
#: ("a" < "a_b" as keys, but "a|" > "a_b|" as lines).
NAMES = ("a", "a_b", "ab", "b", "b_a", "z")
KINDS = (
    RelationshipKind.ISA,
    RelationshipKind.HAS_PART,
    RelationshipKind.IS_ASSOCIATED_WITH,
)
OPS = (
    "add_class",
    "add_relationship",
    "add_attribute",
    "remove_relationship",
    "remove_class",
    "refine",
    "copy",
)


def apply_random_op(schema: Schema, data) -> Schema:
    """One drawn edit of ``schema``; returns the schema to keep editing
    (a fresh copy for ``copy``).  Invalid draws raise and are ignored."""
    op = data.draw(st.sampled_from(OPS))
    users = [cls.name for cls in schema.classes(include_primitives=False)]
    if op == "copy":
        return schema.copy()
    try:
        if op == "add_class":
            schema.add_class(data.draw(st.sampled_from(NAMES)))
        elif op == "add_relationship" and users:
            schema.add_relationship(
                data.draw(st.sampled_from(users)),
                data.draw(st.sampled_from(users)),
                data.draw(st.sampled_from(KINDS)),
                name=data.draw(st.sampled_from(("",) + NAMES)),
                add_inverse=data.draw(st.booleans()),
            )
        elif op == "add_attribute" and users:
            schema.add_attribute(
                data.draw(st.sampled_from(users)),
                data.draw(st.sampled_from(NAMES)),
                data.draw(st.sampled_from(("C", "I", "R", "B"))),
            )
        elif op == "remove_relationship" and schema.relationships():
            rel = data.draw(st.sampled_from(schema.relationships()))
            schema.remove_relationship(rel.source, rel.name)
        elif op == "remove_class" and users:
            schema.remove_class(
                data.draw(st.sampled_from(users)), cascade=data.draw(st.booleans())
            )
        elif op == "refine" and users:
            schema.refine_relationship(
                data.draw(st.sampled_from(users)),
                data.draw(st.sampled_from(NAMES)),
                data.draw(st.sampled_from(users)),
            )
    except ReproError:
        pass  # the mutators validate before they touch anything
    return schema


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_memoized_digest_matches_oracle(data):
    schemas = [Schema("memo")]
    for _ in range(data.draw(st.integers(1, 30))):
        # Edit any live schema — the latest copy or an ancestor — so
        # copies are checked for independence in both directions.
        position = data.draw(st.integers(0, len(schemas) - 1))
        edited = apply_random_op(schemas[position], data)
        if edited is not schemas[position]:
            schemas.append(edited)
        for schema in schemas:
            assert schema.fingerprint() == oracle_fingerprint(schema)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_in_place_mutation_makes_the_artifact_stale(data):
    schema = generate_schema(GeneratorConfig(classes=6, seed=3))
    if data.draw(st.booleans()):
        schema = schema.copy()  # a schema carrying patched records
    compiled = CompiledSchema(schema)
    assert not compiled.is_stale()
    for _ in range(data.draw(st.integers(1, 12))):
        schema = apply_random_op(schema, data)
        if schema is not compiled.schema:
            break  # a copy: the artifact's own schema is untouched
        stale = oracle_fingerprint(schema) != compiled.fingerprint
        assert compiled.is_stale() == stale


def test_large_schema_digest_and_copies_match_oracle():
    schema = build_cupid_schema()
    expected = oracle_fingerprint(schema)
    assert schema.fingerprint() == expected
    clone = schema.copy()
    assert clone.fingerprint() == expected
    clone.add_class("zz_new")
    clone.add_relationship(
        "zz_new", "experiment", RelationshipKind.IS_ASSOCIATED_WITH
    )
    assert clone.fingerprint() == oracle_fingerprint(clone)
    assert schema.fingerprint() == expected
    grandchild = clone.copy()
    grandchild.remove_class("zz_new", cascade=True)
    assert grandchild.fingerprint() == expected
