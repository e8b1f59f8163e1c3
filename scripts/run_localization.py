"""Root-cause localization benchmark over seeded fault scenarios.

For each seed: train a classifier on failure-free data, inject an offset
fault at the chain root of a fresh run, analyze a handful of post-onset
states, and score whether the faulty component lands in the suspect list and
whether the root KPI outranks downstream pure-effect KPIs.

Usage:
    python3 scripts/run_localization.py --seeds 20 --out results/localization.json
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
from pathlib import Path

try:
    import faultcast  # noqa: F401
except ModuleNotFoundError:  # not installed: use the src/ of this checkout
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from faultcast.autoencoder import TrainingConfig
from faultcast.classifier import fit_classifier
from faultcast.errors import NoAnomalousReport
from faultcast.kpi import KpiId
from faultcast.ranker import analyze_series
from faultcast.simulate import (
    FaultSpec,
    generate_normal,
    inject_fault,
    localization_score,
    make_chain_spec,
)


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=20)
    parser.add_argument("--components", type=int, default=4)
    parser.add_argument("--kpis-per-component", type=int, default=3)
    parser.add_argument("--train-length", type=int, default=500)
    parser.add_argument("--eval-length", type=int, default=400)
    parser.add_argument("--epochs", type=int, default=150)
    parser.add_argument("--onset", type=int, default=300)
    parser.add_argument("--magnitude", type=float, default=8.0)
    parser.add_argument("--out", default="results/localization.json")
    return parser.parse_args()


def main() -> None:
    args = parse_args()
    spec = make_chain_spec(
        components=args.components,
        kpis_per_component=args.kpis_per_component,
        length=args.train_length,
        seed=0,
    )
    eval_spec = dataclasses.replace(spec, length=args.eval_length)
    root = KpiId("load", "component-1")
    effect_nodes = {
        f"component-{i}" for i in range(3, args.components + 1)
    }
    analysis_rows = list(range(args.onset + 5, min(args.onset + 31, args.eval_length), 5))

    results = []
    started = time.perf_counter()
    for s in range(args.seeds):
        train_data = generate_normal(spec, seed=1000 + s)
        classifier, _ = fit_classifier(
            train_data, TrainingConfig(epochs=args.epochs, seed=s)
        )
        clean = generate_normal(eval_spec, seed=2000 + s)
        fault = FaultSpec(
            onset=args.onset, kind="offset", target=root, magnitude=args.magnitude
        )
        faulty, fault = inject_fault(clean, eval_spec, fault)
        reports = analyze_series(
            classifier, faulty.values, faulty.timestamps, analysis_rows
        )
        entry = {"seed": s, "detected": False, "top3_hit": False, "root_rank": None, "outranks": False}
        try:
            score = localization_score(reports, fault)
        except NoAnomalousReport:
            results.append(entry)
            print(f"seed {s:2d}: no post-onset state classified anomalous")
            continue
        first = next(
            r
            for r in reports
            if r.verdict.anomalous and r.verdict.timestamp >= fault.onset
        )
        effect_ranks = [
            position + 1
            for position, cause in enumerate(first.root_cause_kpis)
            if cause.kpi.node in effect_nodes
        ]
        outranks = score.root_kpi_rank is not None and (
            not effect_ranks or score.root_kpi_rank < min(effect_ranks)
        )
        entry.update(
            detected=True,
            top3_hit=score.top3_hit,
            root_rank=score.root_kpi_rank,
            outranks=outranks,
        )
        results.append(entry)
        suspects = ", ".join(c.node for c in first.top_components) or "none"
        print(
            f"seed {s:2d}: t={first.verdict.timestamp} "
            f"top3={'yes' if score.top3_hit else 'no '} "
            f"root_rank={score.root_kpi_rank} suspects=[{suspects}]"
        )

    elapsed = time.perf_counter() - started
    n = len(results)
    top3 = sum(r["top3_hit"] for r in results)
    outranked = sum(r["outranks"] for r in results)
    detected = sum(r["detected"] for r in results)
    print()
    print(f"detected:          {detected}/{n}")
    print(f"component in top3: {top3}/{n}")
    print(f"root KPI outranks pure-effect KPIs: {outranked}/{n}")
    print(f"elapsed: {elapsed:.1f}s")

    os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
    payload = {
        "seeds": n,
        "detected": detected,
        "top3_hits": top3,
        "outranks": outranked,
        "elapsed_seconds": round(elapsed, 2),
        "per_seed": results,
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(f"results: {args.out}")


if __name__ == "__main__":
    main()
