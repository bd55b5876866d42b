"""Compare two sets of runs by the rules for landing a change.

``python -m benchmarks.e2e compare PARENT.json CHANGE.json`` reads two
files written by ``run --repeat K --out FILE`` and prints one row per
(workload, metric): each side's median and quartiles, the bound from
``BENCHMARK.json``, and a verdict:

``gain``
    the change wins at least nine tenths of the paired runs (ties count
    for neither) and the medians differ by more than the parent's own
    interquartile distance;
``regression``
    the change's median is worse than the parent's by more than the
    bound;
``unresolved``
    the parent's spread (interquartile distance over median) exceeds
    the bound, so "no worse" cannot be told from noise — unless every
    change run beats every parent run, which resolves it as no worse
    (``no change``) but is no gain unless the gain rule holds;
``no change``
    otherwise.

``error_rate`` (failed over attempted operations) is compared as a
share: any rise of the median share is a regression, and no gain is
reported on a workload whose change fails more operations than its
parent.  Runs marked invalid (a late generator) are kept and counted in
the ``invalid`` column, so a reader can weigh them.
"""

from __future__ import annotations

import json

from .stats import quartiles, spread

__all__ = ["compare_documents", "compare_files", "compare_metric"]


def _better(a: float, b: float, better: str) -> bool:
    return a < b if better == "lower" else a > b


def compare_metric(
    parent: list[float],
    change: list[float],
    bound: float,
    better: str,
    share: bool = False,
) -> dict:
    """The verdict for one (workload, metric) pair; runs paired by index."""
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    if not parent or not change:
        return {"verdict": "missing"}
    p1, p_med, p3 = quartiles(parent)
    c1, c_med, c3 = quartiles(change)
    row = {
        "parent": [p1, p_med, p3],
        "change": [c1, c_med, c3],
        "bound": bound,
    }
    if share:
        worse = c_med > p_med if better == "lower" else c_med < p_med
        row["verdict"] = "regression" if worse else "no change"
        return row
    scale = abs(p_med) if p_med else 1.0
    parent_spread = spread(parent)
    row["parent_spread"] = parent_spread
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if _better(c, p, better))
    row["wins"] = f"{wins}/{len(pairs)}"
    every_run_better = all(_better(c, p, better) for c in change for p in parent)
    if better == "lower":
        relative_worse = (c_med - p_med) / scale
    else:
        relative_worse = (p_med - c_med) / scale
    if wins >= 0.9 * len(pairs) and abs(c_med - p_med) > (p3 - p1):
        verdict = "gain"
    elif parent_spread > bound:
        verdict = "no change" if every_run_better else "unresolved"
    elif relative_worse > bound:
        verdict = "regression"
    else:
        verdict = "no change"
    row["verdict"] = verdict
    return row


def compare_documents(parent_runs: list[dict], change_runs: list[dict], spec: dict) -> list[dict]:
    """One row per (workload, metric) over the untraced runs."""

    def usable(runs: list[dict]) -> dict[str, list[dict]]:
        grouped: dict[str, list[dict]] = {}
        for run in runs:
            if not run.get("trace"):
                grouped.setdefault(run["workload"], []).append(run)
        for runs_of in grouped.values():
            runs_of.sort(key=lambda run: run["seed"])
        return grouped

    parents, changes = usable(parent_runs), usable(change_runs)
    rows = []
    for workload in sorted(set(parents) & set(changes)):
        p_runs, c_runs = parents[workload], changes[workload]
        more_failures = sum(r["failed"] for r in c_runs) > sum(r["failed"] for r in p_runs)
        invalid = (
            f"{sum(not r['valid'] for r in p_runs)}/{len(p_runs)}"
            f" vs {sum(not r['valid'] for r in c_runs)}/{len(c_runs)}"
        )
        for metric in spec["end_to_end"]:
            name = metric["name"]
            row = compare_metric(
                [run["end_to_end"][name]["value"] for run in p_runs],
                [run["end_to_end"][name]["value"] for run in c_runs],
                metric["bound"],
                metric["better"],
            )
            if row["verdict"] == "gain" and more_failures:
                row["verdict"] = "no gain (more failures)"
            rows.append({"workload": workload, "metric": name, "invalid": invalid, **row})
        rows.append(
            {
                "workload": workload,
                "metric": "error_rate",
                "invalid": invalid,
                **compare_metric(
                    [run["failed"] / run["attempted"] for run in p_runs],
                    [run["failed"] / run["attempted"] for run in c_runs],
                    0.0,
                    "lower",
                    share=True,
                ),
            }
        )
    return rows


def render(rows: list[dict]) -> str:
    lines = [
        f"{'workload':<14} {'metric':<18} {'parent median [q1, q3]':<34} "
        f"{'change median [q1, q3]':<34} {'bound':>6}  {'invalid':<11} verdict"
    ]
    for row in rows:
        if row["verdict"] == "missing":
            lines.append(f"{row['workload']:<14} {row['metric']:<18} (no runs)")
            continue

        def cell(values: list[float]) -> str:
            q1, med, q3 = values
            return f"{med:.5g} [{q1:.5g}, {q3:.5g}]"

        lines.append(
            f"{row['workload']:<14} {row['metric']:<18} {cell(row['parent']):<34} "
            f"{cell(row['change']):<34} {row['bound']:>6.1%}  {row['invalid']:<11} "
            f"{row['verdict']}"
        )
    return "\n".join(lines)


def compare_files(parent_path: str, change_path: str, spec: dict) -> str:
    """The rendered comparison of two ``run --out`` files under ``spec``."""
    with open(parent_path, encoding="utf-8") as handle:
        parent = json.load(handle)["runs"]
    with open(change_path, encoding="utf-8") as handle:
        change = json.load(handle)["runs"]
    return render(compare_documents(parent, change, spec))
