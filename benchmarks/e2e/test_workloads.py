"""The cold-http plan: every seed asks the same searches, in its own order."""

import random

from benchmarks.e2e.workloads import COLD_REPEAT_SHARE, cold_plan


def test_a_seed_gives_the_same_plan_and_seeds_share_their_queries():
    first = cold_plan(100, 40, 1200, random.Random(1))
    assert first == cold_plan(100, 40, 1200, random.Random(1))
    other = cold_plan(100, 40, 1200, random.Random(2))
    assert other != first
    # The same queries, each asked as often, in another order.
    assert sorted(other[0]) == sorted(first[0])
    assert sorted(other[1]) == sorted(first[1])


def test_a_share_of_requests_repeat_and_the_closed_loop_asks_new_queries():
    plan, closed = cold_plan(100, 40, 1200, random.Random(5))
    repeats = round(COLD_REPEAT_SHARE * 100)
    assert len(plan) == 100 and len(set(plan)) == 100 - repeats
    assert len(set(closed)) == 40 and not set(plan) & set(closed)
