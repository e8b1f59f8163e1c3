"""Guided troubleshooting demo against a small manual collection.

Ingests the given manuals into an offline vector store, phrases a question
from a few anomalous KPI descriptions, retrieves the most relevant manual
chunks, and prints the grounded answer (the echo client simply returns the
retrieved context, which keeps the demo fully offline).

Usage:
    python3 scripts/demo_troubleshoot.py tests/fixtures/*.md
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

try:
    import faultcast  # noqa: F401
except ModuleNotFoundError:  # not installed: use the src/ of this checkout
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from faultcast.knowledge import OfflineEmbedder, VectorStore, ingest_files
from faultcast.kpi import KpiDescriptor, KpiId
from faultcast.ranker import KpiAnomaly
from faultcast.troubleshoot import PromptSpec, RetrievalConfig, troubleshoot

DEMO_ANOMALIES = (
    ("pressure@tank-1", "compressed air tank pressure", 9.0),
    ("recharge@tank-1", "tank recharge frequency", 7.0),
    ("torque@shaft-1", "engine shaft torque", 4.0),
)


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("manuals", nargs="+", help="manual files (.md or plain text)")
    parser.add_argument("--dimension", type=int, default=512)
    parser.add_argument("--top-k", type=int, default=4)
    parser.add_argument("--kpi-count", type=int, default=3, help="descriptions per question (2-4)")
    return parser.parse_args()


def main() -> None:
    args = parse_args()
    store = VectorStore(dimension=args.dimension, embedder_name="offline")
    embedder = OfflineEmbedder(args.dimension)
    added = ingest_files(store, args.manuals, embedder)
    print(f"ingested {len(args.manuals)} manuals ({added} chunks)\n")

    anomalies = []
    descriptors = {}
    for kpi_text, description, score in DEMO_ANOMALIES:
        metric, node = kpi_text.split("@")
        kpi = KpiId(metric, node)
        anomalies.append(KpiAnomaly(kpi=kpi, score=score, kpi_threshold=1.0))
        descriptors[kpi] = KpiDescriptor(kpi=kpi, description=description)

    answer = troubleshoot(
        tuple(anomalies),
        descriptors,
        store,
        spec=PromptSpec(kpi_count=args.kpi_count),
        config=RetrievalConfig(top_k=args.top_k),
    )

    print(f"question: {answer.prompt}\n")
    print("retrieved chunks:")
    for chunk_id, similarity in answer.retrieved:
        print(f"  {chunk_id}  (similarity {similarity:.4f})")
    print("\nsources:")
    for doc_id, section, chunk_id in answer.sources:
        label = f"{doc_id} / {section}" if section else doc_id
        print(f"  {label}  ({chunk_id})")
    print("\nanswer:\n")
    print(answer.answer_text)


if __name__ == "__main__":
    main()
