"""The benchmark's workloads and the inputs it generates for them.

Each workload is built from ``--seed`` and nothing else; the system
under test only ever sees the generated requests, edits and schemas.

``warm-http``
    Open loop, seeded Poisson arrivals at :data:`WARM_RATE` req/s with
    a Zipf(1.1) mix over the curated entries, every entry warmed before
    timing, then the same mix closed loop to measure capacity.  Every
    answer is a cache hit, so HTTP,
    admission, the executor hop, observability and the cache lookup do
    all the work and search does none: a search optimisation should
    show no change here.
``cold-http``
    Paced open loop at :data:`COLD_RATE` req/s of distinct queries over
    two generated schemas (about one in ten repeats an earlier query),
    each with ``X-Deadline-Ms`` and an ``X-Max-Nodes`` cap that about
    one query in eight needs more than, and a cache bound of a quarter of the
    run's cached bytes so the memory governor evicts; then a fixed
    number of further distinct queries closed loop to measure capacity
    (about two fifths of the run).
    Every request runs closure tables, traversal, AGG*, preemption,
    cache put and eviction, and the capped ones the degrade ladder, so
    it shows whether search speed reaches served latency and how many
    queries are answered in full.
``batch-cold``
    Closed loop in one process: clear the completion caches, then
    complete the curated pool sequentially; closure tables stay warm
    across passes (the steady-state cold case).  Pure search throughput
    with no HTTP: kernel, closure, best-first and AGG* changes do most
    of their work here and none on ``warm-http``.
``designer-edit``
    Closed loop in one process: seeded schema edits on CUPID, each
    followed by a five-query sweep.  Writes beside reads: a change that
    buys faster reads with costlier evolve or invalidation shows here.
"""

from __future__ import annotations

import bisect
import itertools
import json
import random
from pathlib import Path

from repro.model.delta import (
    AddClass,
    AddInheritanceEdge,
    AddRelationship,
    RemoveClass,
    RemoveInheritanceEdge,
    RemoveRelationship,
    SchemaDelta,
    relationship_pair,
)
from repro.model.kinds import RelationshipKind
from repro.model.relationships import Relationship

__all__ = [
    "COLD_CAPACITY_WORK",
    "COLD_DEADLINE_MS",
    "COLD_MAX_NODES",
    "COLD_RATE",
    "COLD_REPEAT_SHARE",
    "EditPlanner",
    "SWEEP",
    "WARM_RATE",
    "WORKLOADS",
    "batch_pool",
    "cold_plan",
    "curated_entries",
    "warm_keys",
]

WORKLOADS = ("warm-http", "cold-http", "batch-cold", "designer-edit")

#: Nominal warm arrival rate: about a quarter of one server's capacity.
WARM_RATE = 500.0
ZIPF_S = 1.1

COLD_RATE = 24.0
COLD_DEADLINE_MS = 250
#: Expansion cap sent with every cold request (``X-Max-Nodes``).  A
#: query that needs more is answered 206 after the degrade ladder.  An
#: expansion count does not depend on host speed, so which queries are
#: answered in full repeats from run to run; the deadline is the safety
#: net for a host too slow to reach the cap within it.
COLD_MAX_NODES = 3000
COLD_REPEAT_SHARE = 0.1
#: Closed-loop cold queries per second of run length: fixed work, about
#: the last two fifths of the run at reference speed.
COLD_CAPACITY_WORK = 28

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
COLD_GOLDEN = GOLDEN_DIR / "cold.json"

#: The paper's ten Section-5 CUPID queries.
CUPID_TEN = (
    "experiment ~ conductance",
    "simulation ~ value",
    "scientist ~ lai",
    "crop ~ depth",
    "weather_station ~ flux",
    "soil_layer ~ amount",
    "canopy ~ sand_fraction",
    "simulation ~ latitude",
    "simulation ~ name",
    "phenology ~ dry_mass",
)
HOSPITAL_FIVE = (
    "ward ~ name",
    "surgeon ~ description",
    "nurse ~ label",
    "patient ~ value",
    "hospital ~ dose",
)
UNIVERSITY_FOUR = (
    "ta ~ name",
    "student.take.teacher",
    "student ~ dept",
    "teacher ~ name",
)
#: Multi-segment patterns, answered by ``repro.core.multi``.
CUPID_MULTI = (
    "scientist ~ simulation ~ lai",
    "experiment ~ crop ~ depth",
    "simulation ~ soil_layer ~ value",
    "experiment ~ canopy ~ conductance",
)
#: The designer's validation sweep, asked at E=2 after every edit.
SWEEP = (
    "experiment ~ conductance",
    "scientist ~ lai",
    "simulation ~ value",
    "crop ~ depth",
    "soil_layer ~ amount",
)
SWEEP_E = 2

Entry = tuple[str, str, int]  # (tenant, expression, E)


def curated_entries() -> list[Entry]:
    """The warm-http mix, in Zipf rank order."""
    entries: list[Entry] = []
    for e in (1, 2, 3):
        entries.extend(("cupid", text, e) for text in CUPID_TEN)
    for e in (1, 2):
        entries.extend(("hospital", text, e) for text in HOSPITAL_FIVE)
    entries.extend(("university", text, 1) for text in UNIVERSITY_FOUR)
    entries.extend(("cupid", text, 1) for text in CUPID_MULTI)
    return entries


def batch_pool() -> list[Entry]:
    """One batch-cold pass: the curated entries plus multi-segment at E=2."""
    return curated_entries() + [("cupid", text, 2) for text in CUPID_MULTI]


def warm_keys(count: int, rng: random.Random) -> list[int]:
    """``count`` entry indexes drawn from Zipf(:data:`ZIPF_S`) by rank."""
    n = len(curated_entries())
    cumulative = list(
        itertools.accumulate(1.0 / rank**ZIPF_S for rank in range(1, n + 1))
    )
    total = cumulative[-1]
    return [
        min(bisect.bisect_left(cumulative, rng.random() * total), n - 1)
        for _ in range(count)
    ]


def load_cold_golden() -> dict:
    return json.loads(COLD_GOLDEN.read_text())


def cold_plan(
    count: int, capacity: int, population: int, rng: random.Random
) -> tuple[list[int], list[int]]:
    """Population indexes for ``count`` open-loop and ``capacity``
    closed-loop requests.

    Which queries a run asks depends only on the counts: the open loop's
    fresh queries are the first ones of a fixed order of the population,
    the first :data:`COLD_REPEAT_SHARE` of them are asked a second time,
    and the closed loop asks the next ``capacity``.  So every seed runs
    the same searches, as often, and runs compare.  The seed shuffles
    each set and places each repeat somewhere after the query's first
    request.
    """
    order = list(range(population))
    random.Random("cold-http-population").shuffle(order)
    repeats = round(COLD_REPEAT_SHARE * count) if count > 1 else 0
    fresh = order[: count - repeats]
    closed = order[count - repeats : count - repeats + capacity]
    if len(fresh) + len(closed) < count - repeats + capacity:
        raise ValueError(f"a population of {population} is too small for this run")
    twice = fresh[:repeats]
    plan = list(fresh)
    rng.shuffle(plan)
    rng.shuffle(closed)
    for query in twice:
        plan.insert(rng.randint(plan.index(query) + 1, len(plan)), query)
    return plan, closed


class EditPlanner:
    """Seeded designer edits that grow, rewire and prune a module on CUPID.

    70% of the steps are module-local: add or remove a module class,
    attribute, relationship or isa edge.  30% wire the module into the
    core (a relationship pair between a core class and a module class)
    or take that wiring out again on the next step.  The CUPID core is
    strongly connected, so a wiring edit's eviction frontier meets the
    support of every cached sweep answer and the sweep after it runs
    cold; a module-local edit made while the module is unwired leaves
    the sweep warm.  Wiring steps come at fixed positions, so every
    seed has exactly the same share of cold sweeps and the tail
    percentiles compare across seeds.  The module is kept small, so a
    round reaches a steady state instead of growing without end.
    """

    #: Positions (mod :data:`CYCLE`) of the wire steps; each is followed
    #: by its unwire step, so 6 of every 20 steps are wiring steps.
    CYCLE = 20
    WIRE_AT = frozenset((2, 9, 15))
    MAX_CLASSES = 10
    CORE = (
        "experiment",
        "simulation",
        "crop",
        "canopy",
        "soil_layer",
        "scientist",
        "site",
        "leaf",
    )
    ATTRIBUTES = ("value", "depth", "amount", "label", "reading", "serial")

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self._serial = 0
        self._step = 0
        self._wiring = None  # the live core -> module relationship

    def _fresh(self, stem: str) -> str:
        self._serial += 1
        return f"{stem}_{self._serial}"

    def next_delta(self, schema):
        """``(kind, delta)`` for the next step; kind is local or wiring."""
        position = self._step % self.CYCLE
        self._step += 1
        if self._wiring is not None:
            delta = self._remove_pair(schema, self._wiring)
            self._wiring = None
            return "wiring", delta
        module = sorted(
            name for name in schema.class_names if name.startswith("gh_")
        )
        rng = self.rng
        # Step 0 adds the first module class and cascade removals keep at
        # least half the module, so a wire step always finds a class.
        if position in self.WIRE_AT:
            core = rng.choice(self.CORE)
            name = self._fresh("w")
            delta = relationship_pair(
                core,
                rng.choice(module),
                RelationshipKind.IS_ASSOCIATED_WITH,
                name=name,
                inverse_name=f"inv_{name}",
            )
            self._wiring = delta.commands[0].relationship
            return "wiring", delta
        for _ in range(8):
            delta = self._local(schema, module)
            if delta is not None:
                return "local", delta
        return "local", SchemaDelta.of(AddClass(self._fresh("gh")))

    def _local(self, schema, module: list[str]):
        """One module-local edit, or None when the draw does not apply."""
        rng = self.rng
        choice = rng.random()
        if not module or (choice < 0.2 and len(module) < self.MAX_CLASSES):
            return SchemaDelta.of(AddClass(self._fresh("gh")))
        if choice < 0.3:
            if len(module) < self.MAX_CLASSES // 2:
                return None
            return self._cascade_remove(schema, rng.choice(module))
        if choice < 0.5:
            owner = rng.choice(module)
            name = rng.choice(self.ATTRIBUTES)
            if schema.has_relationship(owner, name):
                return None
            return SchemaDelta.of(
                AddRelationship(
                    Relationship(
                        owner,
                        rng.choice(("C", "I", "R")),
                        RelationshipKind.IS_ASSOCIATED_WITH,
                        name=name,
                    )
                )
            )
        if choice < 0.7:
            if len(module) < 2:
                return None
            source, target = rng.sample(module, 2)
            kind = rng.choice(
                (RelationshipKind.HAS_PART, RelationshipKind.IS_ASSOCIATED_WITH)
            )
            name = self._fresh("r")
            return relationship_pair(
                source, target, kind, name=name, inverse_name=f"inv_{name}"
            )
        if choice < 0.8:
            pairs = [
                rel
                for name in module
                for rel in schema.relationships_from(name)
                if rel.name.startswith("r_")
            ]
            return self._remove_pair(schema, rng.choice(pairs)) if pairs else None
        if choice < 0.9:
            if len(module) < 2:
                return None
            # Sub is newer than super (serial order), so no cycle forms.
            older, newer = sorted(
                rng.sample(module, 2), key=lambda name: int(name.split("_")[1])
            )
            if schema.has_relationship(newer, older):
                return None
            return SchemaDelta.of(AddInheritanceEdge(newer, older))
        isa = [
            rel
            for name in module
            for rel in schema.relationships_from(name)
            if rel.kind is RelationshipKind.ISA and rel.has_default_name
        ]
        if not isa:
            return None
        rel = rng.choice(isa)
        return SchemaDelta.of(RemoveInheritanceEdge(rel.source, rel.target))

    @staticmethod
    def _remove_pair(schema, forward):
        """Remove ``forward`` and the inverse installed with it."""
        commands = [RemoveRelationship(forward)]
        inverse = f"inv_{forward.name}"
        if schema.has_relationship(forward.target, inverse):
            commands.append(
                RemoveRelationship(
                    schema.get_relationship(forward.target, inverse)
                )
            )
        return SchemaDelta.of(*commands)

    @staticmethod
    def _cascade_remove(schema, name: str):
        """Remove a module class and every relationship touching it."""
        removals = [
            RemoveRelationship(rel)
            for rel in schema.relationships()
            if name in (rel.source, rel.target)
        ]
        return SchemaDelta.of(*removals, RemoveClass(name))
