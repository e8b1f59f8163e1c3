"""Sigma-grid evaluation on simulated scenarios.

Trains a classifier on one failure-free run of a chain-topology system, then
sweeps the detection threshold over a mix of failure-free and faulted
scenarios.  Prints the false-positive/prediction table, writes it as CSV, and
reports the elbow sigma picked from the failure-free curve.

Usage:
    python3 scripts/run_evaluation.py --out-dir results/evaluation
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

try:
    import faultcast  # noqa: F401
except ModuleNotFoundError:  # not installed: use the src/ of this checkout
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from faultcast.autoencoder import TrainingConfig
from faultcast.classifier import SIGMA_GRID, fit_classifier, select_elbow
from faultcast.kpi import KpiId
from faultcast.simulate import (
    FaultSpec,
    Scenario,
    evaluate_scenarios,
    generate_normal,
    inject_fault,
    make_chain_spec,
)


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--components", type=int, default=4)
    parser.add_argument("--kpis-per-component", type=int, default=3)
    parser.add_argument("--length", type=int, default=500, help="rows per scenario")
    parser.add_argument("--quiet-scenarios", type=int, default=5)
    parser.add_argument("--faulty-scenarios", type=int, default=3)
    parser.add_argument("--epochs", type=int, default=150)
    parser.add_argument("--magnitude", type=float, default=8.0)
    parser.add_argument("--onset", type=int, default=350)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out-dir", default="results/evaluation")
    return parser.parse_args()


def main() -> None:
    args = parse_args()
    spec = make_chain_spec(
        components=args.components,
        kpis_per_component=args.kpis_per_component,
        length=args.length,
        seed=args.seed,
    )
    train_data = generate_normal(spec, seed=args.seed + 1000)
    classifier, curve = fit_classifier(
        train_data, TrainingConfig(epochs=args.epochs, seed=args.seed)
    )
    print(
        f"trained on {train_data.n_rows} states x {train_data.n_kpis} KPIs, "
        f"final loss {curve[-1]:.6g}"
    )

    scenarios = []
    for i in range(args.quiet_scenarios):
        dataset = generate_normal(spec, seed=args.seed + 2000 + i)
        scenarios.append(Scenario(name=f"quiet-{i}", dataset=dataset, fault=None))
    root = KpiId("load", "component-1")
    for i in range(args.faulty_scenarios):
        clean = generate_normal(spec, seed=args.seed + 3000 + i)
        fault = FaultSpec(
            onset=args.onset, kind="offset", target=root, magnitude=args.magnitude
        )
        dataset, fault = inject_fault(clean, spec, fault)
        scenarios.append(Scenario(name=f"faulty-{i}", dataset=dataset, fault=fault))

    table = evaluate_scenarios(classifier, scenarios, SIGMA_GRID)
    print()
    print(table.to_text(), end="")

    elbow_curve = table.elbow_curve()
    if len(elbow_curve) >= 3:
        print(f"elbow sigma (failure-free curve): {select_elbow(elbow_curve):g}")

    os.makedirs(args.out_dir, exist_ok=True)
    table_path = os.path.join(args.out_dir, "evaluation.csv")
    with open(table_path, "w", encoding="utf-8") as handle:
        handle.write(table.to_csv())
    curve_path = os.path.join(args.out_dir, "elbow.csv")
    with open(curve_path, "w", encoding="utf-8") as handle:
        handle.write(table.elbow_csv())
    print(f"table: {table_path}")
    print(f"curve: {curve_path}")


if __name__ == "__main__":
    main()
