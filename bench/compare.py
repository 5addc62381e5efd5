"""Judge result document B against A, one row per workload x end-to-end metric.

    PYTHONPATH=src python -m bench compare A.json B.json

A and B are ``python -m bench run --out`` documents.  Each row shows both
medians with their quartiles, the ratio B/A **with its base**, and a
verdict from the metric's bound (``BENCHMARK.json`` / ``bench/spec.py``):

``ok``          B's median is no worse than A's by more than the bound
``regressed``   it is worse by more than the bound
``unresolved``  either side's own spread (quartile distance / median) is
                wider than the bound, so the comparison cannot tell —
                unless every B sample beats every A sample (``ok``)

A bound of 0 (``fail_ratio``, ``sim_makespan_s``) means any worsening is a
regression.  ``result_sha256`` is compared too and reported as ``same`` /
``changed`` (a declared policy change legitimately changes it).  Exit
code 1 on any ``regressed`` row or any ``fail_ratio`` above 0.
"""

from __future__ import annotations

import json
from pathlib import Path

from bench import spec


def spread(metric: dict) -> float:
    return (metric["q3"] - metric["q1"]) / metric["value"] if metric["value"] else 0.0


def verdict(a: dict, b: dict, better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (b["value"] - a["value"])          # > 0: B is worse
    if bound == 0.0:
        return "regressed" if worse_by > 0 else "ok"
    if max(spread(a), spread(b)) > bound:
        every_b_better = max(sign * s for s in b["samples"]) < min(sign * s for s in a["samples"])
        return "ok" if every_b_better else "unresolved"
    return "regressed" if worse_by > bound * abs(a["value"]) else "ok"


def rows(doc_a: dict, doc_b: dict) -> list[dict]:
    out = []
    for workload in spec.workload_names():
        a, b = doc_a["workloads"].get(workload), doc_b["workloads"].get(workload)
        if a is None or b is None:
            continue
        for decl in spec.end_to_end(workload):
            name = decl["name"]
            if name not in a["end_to_end"] or name not in b["end_to_end"]:
                continue
            ma, mb = a["end_to_end"][name], b["end_to_end"][name]
            out.append({
                "workload": workload, "metric": name, "unit": decl["unit"],
                "a": ma, "b": mb, "bound": decl["bound"],
                "ratio": mb["value"] / ma["value"] if ma["value"] else None,
                "verdict": verdict(ma, mb, decl["better"], decl["bound"]),
            })
        out.append({
            "workload": workload, "metric": "result_sha256",
            "verdict": "same" if a["result_sha256"] == b["result_sha256"] else "changed",
        })
    return out


def render(table: list[dict], out=None) -> None:
    def cell(m: dict) -> str:
        return f"{m['value']:.5g} [{m['q1']:.5g}..{m['q3']:.5g}]"

    print(f"{'workload':<17} {'metric':<22} {'A median [q1..q3]':<34} "
          f"{'B median [q1..q3]':<34} {'B/A (base A)':<24} {'bound':>6}  verdict", file=out)
    for row in table:
        if row["metric"] == "result_sha256":
            print(f"{row['workload']:<17} {'result_sha256':<22} {'':<34} {'':<34} {'':<24} "
                  f"{'':>6}  {row['verdict']}", file=out)
            continue
        ratio = "n/a (A is 0)" if row["ratio"] is None else (
            f"{row['ratio']:.4f} of {row['a']['value']:.5g} {row['unit']}")
        print(f"{row['workload']:<17} {row['metric']:<22} {cell(row['a']):<34} "
              f"{cell(row['b']):<34} {ratio:<24} {row['bound']:>6.0%}  {row['verdict']}",
              file=out)


def main(path_a: str, path_b: str) -> int:
    doc_a = json.loads(Path(path_a).read_text())
    doc_b = json.loads(Path(path_b).read_text())
    table = rows(doc_a, doc_b)
    render(table)
    regressed = [r for r in table if r["verdict"] == "regressed"]
    failing = [
        r for r in table
        if r["metric"] == "fail_ratio" and (r["a"]["value"] > 0 or r["b"]["value"] > 0)
    ]
    unresolved = sum(r["verdict"] == "unresolved" for r in table)
    print(f"\n{len(regressed)} regressed, {unresolved} unresolved, "
          f"{len(failing)} with fail_ratio > 0")
    return 1 if regressed or failing else 0
