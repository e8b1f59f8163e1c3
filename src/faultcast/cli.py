"""Operator command line: train, tune, detect, rank, kb, troubleshoot, simulate, evaluate.

Every run executes exactly one subcommand, reads an optional JSON config
(``--config``), applies dotted-name override flags, writes file artifacts,
and prints one concise status line per artifact.  Exit codes are stable:

* 0 success
* 1 usage error (bad flags, unknown subcommand, malformed override)
* 2 data or schema error (unreadable files, mismatched KPI columns)
* 3 endpoint error (completion or embedding service unreachable)
* 4 no anomaly (``troubleshoot`` on a normal state, or with no KPI over its own threshold)

Only ``troubleshoot`` talks to the network, and only when the completion
client is configured as ``http`` (``kb ingest`` additionally calls the
embedding endpoint when ``embedder`` is ``remote``; the default is the
network-free offline embedder).
"""

from __future__ import annotations

import argparse
import datetime
import glob
import os
import sys
import typing
from collections.abc import Sequence
from pathlib import Path

import numpy as np

from . import config as config_mod
from .classifier import (
    check_schema,
    fit_classifier,
    load_classifier,
    save_classifier,
    score,
    select_elbow,
    threshold,
)
from .errors import DataError, EndpointError, FaultcastError, write_file
from .kpi import (
    KpiDescriptor,
    KpiId,
    load_dataset,
    load_descriptors,
    write_dataset,
)
from .knowledge import OfflineEmbedder, RemoteEmbedder, VectorStore, ingest_files
from .ranker import analyze, load_report, report_to_json
from .simulate import Scenario, evaluate_scenarios, generate_normal, inject_fault, load_fault, load_spec
from .troubleshoot import EchoClient, HttpCompletionClient, troubleshoot

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_ENDPOINT = 3
EXIT_NO_ANOMALY = 4


class UsageError(Exception):
    """Command-line misuse; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs) -> None:
        # Flags match only in full, or an unknown flag could pass as a prefix of another.
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


_OVERRIDE_NAMES = [name for name, _hint in config_mod.override_fields()]


def _common_parser() -> argparse.ArgumentParser:
    """Shared flags: --config plus one override flag per config leaf field."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--config", metavar="PATH", default=None, help="JSON config file")
    group = parent.add_argument_group("config overrides")
    for name in _OVERRIDE_NAMES:
        group.add_argument(f"--{name}", dest=name, default=None, help=argparse.SUPPRESS)
    return parent


def build_parser() -> _Parser:
    common = _common_parser()
    parser = _Parser(
        prog="faultcast",
        description="Failure prediction, root-cause ranking, and guided troubleshooting for KPI telemetry.",
        epilog="Any config field can be overridden with a flag of its dotted name, e.g. --classifier.sigma 6.",
    )
    sub = parser.add_subparsers(dest="command", metavar="COMMAND", required=True)

    p = sub.add_parser("train", parents=[common], help="fit a classifier on failure-free data")
    p.add_argument("--data", required=True, metavar="CSV", help="failure-free training series")
    p.add_argument("--out", required=True, metavar="MODEL", help="model file to write")

    p = sub.add_parser("tune", parents=[common], help="sweep sigma over failure-free data and pick the elbow")
    p.add_argument("--data", required=True, nargs="+", metavar="CSV", help="failure-free series")
    p.add_argument("--model", required=True, metavar="MODEL")

    p = sub.add_parser("detect", parents=[common], help="classify every state of a series")
    p.add_argument("--data", required=True, metavar="CSV")
    p.add_argument("--model", required=True, metavar="MODEL")
    p.add_argument("--out", default=None, metavar="CSV", help="verdict file (default: timestamped report)")

    p = sub.add_parser("rank", parents=[common], help="rank root-cause KPIs for the latest state")
    p.add_argument("--data", required=True, metavar="CSV")
    p.add_argument("--model", required=True, metavar="MODEL")
    p.add_argument("--out", default=None, metavar="JSON", help="report file (default: timestamped report)")

    kb = sub.add_parser("kb", help="knowledge base maintenance")
    kbsub = kb.add_subparsers(dest="kb_command", metavar="ACTION", required=True)
    p = kbsub.add_parser("ingest", parents=[common], help="chunk, embed, and index manuals")
    p.add_argument("files", nargs="+", metavar="FILE", help="manual files (.md or plain text)")

    p = sub.add_parser("troubleshoot", parents=[common], help="answer an anomaly report from the knowledge base")
    p.add_argument("--report", required=True, metavar="JSON", help="anomaly report produced by rank")
    p.add_argument("--out", default=None, metavar="MD", help="answer file (default: timestamped report)")

    p = sub.add_parser("simulate", parents=[common], help="generate a synthetic scenario")
    p.add_argument("--spec", required=True, metavar="JSON", help="simulation spec")
    p.add_argument("--seed", required=True, type=int, metavar="N")
    p.add_argument("--fault", default=None, metavar="JSON", help="fault to inject")
    p.add_argument("--out", default=None, metavar="CSV", help="dataset file (default: timestamped report)")

    p = sub.add_parser("evaluate", parents=[common], help="sigma-sweep a directory of scenarios")
    p.add_argument("--scenarios", required=True, metavar="DIR", help="directory of <name>.csv [+ <name>.fault.json]")
    p.add_argument("--model", required=True, metavar="MODEL")
    p.add_argument("--out-dir", default=None, metavar="DIR", help="output directory (default: timestamped)")

    return parser


def _resolve_config(args: argparse.Namespace) -> config_mod.ToolConfig:
    config = config_mod.load_config(args.config) if args.config else config_mod.ToolConfig()
    given = {name: getattr(args, name, None) for name in _OVERRIDE_NAMES}
    overrides = {name: text for name, text in given.items() if text is not None}
    try:
        return config_mod.apply_overrides(config, overrides)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _create_file(path: str) -> None:
    with open(path, "x", encoding="utf-8"):
        pass


def _timestamped_path(
    report_dir: str, stem: str, suffix: str, claim: typing.Callable[[str], None] = _create_file
) -> str:
    """A fresh path under the report directory; existing files are never reused.

    ``claim`` creates the path and fails with :class:`FileExistsError` if it
    exists, so two concurrent runs never get the same name.
    """
    os.makedirs(report_dir, exist_ok=True)
    stamp = datetime.datetime.now().strftime("%Y%m%d-%H%M%S")
    candidate = os.path.join(report_dir, f"{stem}-{stamp}{suffix}")
    counter = 1
    while True:
        try:
            claim(candidate)
            return candidate
        except FileExistsError:
            candidate = os.path.join(report_dir, f"{stem}-{stamp}-{counter}{suffix}")
            counter += 1


def _ensure_parent(path: str) -> None:
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)


def _out_path(args: argparse.Namespace, config: config_mod.ToolConfig, stem: str, suffix: str) -> str:
    """``--out`` with its directory made, or else a fresh timestamped path under the report directory."""
    if not args.out:
        return _timestamped_path(config.paths.report_dir, stem, suffix)
    _ensure_parent(args.out)
    return args.out


def _descriptor_table(config: config_mod.ToolConfig) -> dict[KpiId, KpiDescriptor]:
    if config.paths.descriptors is None:
        return {}
    return load_descriptors(config.paths.descriptors)


def _cmd_train(args: argparse.Namespace, config: config_mod.ToolConfig) -> int:
    dataset = load_dataset(args.data, config.missing_policy)
    classifier, curve = fit_classifier(dataset, config.training)
    _ensure_parent(args.out)
    save_classifier(classifier, args.out)
    print(
        f"trained on {dataset.n_rows} states x {dataset.n_kpis} KPIs "
        f"({config.training.epochs} epochs, final loss {curve[-1]:.6g}); model: {args.out}"
    )
    return EXIT_OK


def _print_elbow(curve: list[tuple[float, int]]) -> None:
    """The elbow line that ``tune`` and ``evaluate`` print after their curve."""
    if len(curve) >= 3:
        print(f"elbow: sigma={select_elbow(curve):g}")
    else:
        print("elbow: needs at least 3 grid points")


def _cmd_tune(args: argparse.Namespace, config: config_mod.ToolConfig) -> int:
    classifier = load_classifier(args.model)
    scenarios = [Scenario(name=path, dataset=load_dataset(path, config.missing_policy)) for path in args.data]
    table = evaluate_scenarios(classifier, scenarios, config.sigma_grid)
    text = table.elbow_csv()
    print(text, end="")
    _print_elbow(table.elbow_curve())
    out = _timestamped_path(config.paths.report_dir, "tune", ".csv")
    write_file(out, "curve", text.encode("utf-8"))
    print(f"curve: {out}")
    return EXIT_OK


def _cmd_detect(args: argparse.Namespace, config: config_mod.ToolConfig) -> int:
    classifier = load_classifier(args.model)
    dataset = load_dataset(args.data, config.missing_policy)
    check_schema(classifier, dataset.kpis)
    limit = threshold(classifier.baseline, config.classifier.sigma)
    errors, _ = score(classifier, dataset.values)
    anomalous = errors > limit
    out = _out_path(args, config, "detect", ".csv")
    tails = {flag: f",{limit:.17g},{str(flag).lower()}\n" for flag in (False, True)}
    rows = zip(dataset.timestamps.tolist(), errors.tolist(), anomalous.tolist())
    body = "".join(f"{timestamp},{error:.17g}{tails[flag]}" for timestamp, error, flag in rows)
    write_file(out, "verdicts", [b"timestamp,state_error,threshold,anomalous\n", body.encode("utf-8")])
    flagged = int(anomalous.sum())
    print(
        f"{flagged} of {dataset.n_rows} states anomalous at sigma={config.classifier.sigma:g} "
        f"(threshold {limit:.6g}); verdicts: {out}"
    )
    return EXIT_OK


def _cmd_rank(args: argparse.Namespace, config: config_mod.ToolConfig) -> int:
    classifier = load_classifier(args.model)
    dataset = load_dataset(args.data, config.missing_policy)
    check_schema(classifier, dataset.kpis)
    descriptors = _descriptor_table(config) or None
    if dataset.n_rows < config.granger.window:
        raise DataError(f"{args.data}: {dataset.n_rows} rows, fewer than granger.window = {config.granger.window}")
    report = analyze(
        classifier,
        dataset.values[-1],
        dataset.values,
        int(dataset.timestamps[-1]),
        classifier_config=config.classifier,
        granger_config=config.granger,
        pagerank_config=config.pagerank,
        descriptors=descriptors,
    )
    out = _out_path(args, config, "report", ".json")
    write_file(out, "report", report_to_json(report).encode("utf-8"))
    if report.verdict.anomalous:
        components = ", ".join(c.node for c in report.top_components) or "none"
        print(
            f"state at t={report.verdict.timestamp} is anomalous "
            f"({len(report.anomalous_kpis)} KPIs over threshold); "
            f"suspect components: {components}; report: {out}"
        )
    else:
        print(f"state at t={report.verdict.timestamp} is normal; report: {out}")
    return EXIT_OK


def _make_embedder(config: config_mod.ToolConfig, store: VectorStore):
    if store.embedder_name == "remote":
        return RemoteEmbedder(config.endpoints, store.dimension)
    return OfflineEmbedder(store.dimension)


def _cmd_kb_ingest(args: argparse.Namespace, config: config_mod.ToolConfig) -> int:
    store_path = config.paths.kb_store
    if os.path.exists(store_path):
        store = VectorStore.load(store_path)
    else:
        store = VectorStore(dimension=config.embedding_dimension, embedder_name=config.embedder)
    embedder = _make_embedder(config, store)
    added = ingest_files(store, args.files, embedder)
    _ensure_parent(store_path)
    store.save(store_path)
    documents = len({Path(path).stem for path in args.files})
    print(
        f"ingested {documents} documents ({added} chunks, "
        f"{len(store)} total); store: {store_path}"
    )
    return EXIT_OK


def _cmd_troubleshoot(args: argparse.Namespace, config: config_mod.ToolConfig) -> int:
    report = load_report(args.report)
    if not report.verdict.anomalous:
        print("state is normal; nothing to troubleshoot")
        return EXIT_NO_ANOMALY
    if not report.anomalous_kpis:
        print("state is anomalous but no KPI is over its own threshold; nothing to troubleshoot")
        return EXIT_NO_ANOMALY
    store = VectorStore.load(config.paths.kb_store)
    descriptors = _descriptor_table(config)
    for kpi, description in report.descriptions.items():
        descriptors.setdefault(kpi, KpiDescriptor(kpi=kpi, description=description))
    llm = HttpCompletionClient(config.endpoints) if config.llm == "http" else EchoClient()
    answer = troubleshoot(
        report.anomalous_kpis,
        descriptors,
        store,
        spec=config.prompt,
        config=config.retrieval,
        llm=llm,
        embedder=_make_embedder(config, store),
    )
    out = _out_path(args, config, "troubleshoot", ".md")
    lines = [
        "# Troubleshooting answer",
        "",
        f"**Question.** {answer.prompt}",
        "",
        "## Answer",
        "",
        answer.answer_text,
        "",
        "## Sources",
        "",
    ]
    for doc_id, section, chunk_id in answer.sources:
        label = f"{doc_id} / {section}" if section else doc_id
        lines.append(f"- {label} ({chunk_id})")
    lines.append("")
    lines.append("## Retrieved chunks")
    lines.append("")
    for chunk_id, similarity in answer.retrieved:
        lines.append(f"- {chunk_id} (similarity {similarity:.4f})")
    lines.append("")
    write_file(out, "answer", "\n".join(lines).encode("utf-8"))
    print(f"answered from {len(answer.sources)} sources; answer: {out}")
    return EXIT_OK


def _cmd_simulate(args: argparse.Namespace, config: config_mod.ToolConfig) -> int:
    spec = load_spec(args.spec)
    dataset = generate_normal(spec, args.seed)
    fault = None
    if args.fault is not None:
        fault = load_fault(args.fault)
        dataset, fault = inject_fault(dataset, spec, fault)
    out = _out_path(args, config, "scenario", ".csv")
    write_dataset(dataset, out)
    status = f"simulated {dataset.n_rows} states x {dataset.n_kpis} KPIs (seed {args.seed})"
    if fault is not None:
        status += f"; {fault.kind} fault on {fault.target} at t={fault.onset}"
    print(f"{status}; data: {out}")
    return EXIT_OK


def _cmd_evaluate(args: argparse.Namespace, config: config_mod.ToolConfig) -> int:
    classifier = load_classifier(args.model)
    scenario_files = sorted(glob.glob(os.path.join(args.scenarios, "*.csv")))
    if not scenario_files:
        raise UsageError(f"no scenario CSV files under {args.scenarios}")
    scenarios = []
    for path in scenario_files:
        name = os.path.splitext(os.path.basename(path))[0]
        dataset = load_dataset(path, config.missing_policy)
        check_schema(classifier, dataset.kpis)
        fault_path = os.path.join(args.scenarios, f"{name}.fault.json")
        fault = load_fault(fault_path) if os.path.exists(fault_path) else None
        scenarios.append(Scenario(name=name, dataset=dataset, fault=fault))
    table = evaluate_scenarios(classifier, scenarios, config.sigma_grid)
    out_dir = args.out_dir or _timestamped_path(
        config.paths.report_dir, "evaluation", "", claim=os.mkdir
    )
    os.makedirs(out_dir, exist_ok=True)
    table_path = os.path.join(out_dir, "evaluation.csv")
    write_file(table_path, "table", table.to_csv().encode("utf-8"))
    curve_path = os.path.join(out_dir, "elbow.csv")
    write_file(curve_path, "curve", table.elbow_csv().encode("utf-8"))
    print(table.to_text(), end="")
    _print_elbow(table.elbow_curve())
    print(f"table: {table_path}")
    print(f"curve: {curve_path}")
    return EXIT_OK


def _dispatch(args: argparse.Namespace, config: config_mod.ToolConfig) -> int:
    if args.command == "kb":
        return _cmd_kb_ingest(args, config)
    handlers = {
        "train": _cmd_train,
        "tune": _cmd_tune,
        "detect": _cmd_detect,
        "rank": _cmd_rank,
        "troubleshoot": _cmd_troubleshoot,
        "simulate": _cmd_simulate,
        "evaluate": _cmd_evaluate,
    }
    return handlers[args.command](args, config)


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        config = _resolve_config(args)
        # A reconstruction error that overflows to inf is a verdict (anomalous), not a fault;
        # so is one whose forward pass meets inf - inf, which score turns into inf.
        with np.errstate(over="ignore", invalid="ignore"):
            return _dispatch(args, config)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except EndpointError as exc:
        print(f"endpoint error: {exc}", file=sys.stderr)
        return EXIT_ENDPOINT
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except FaultcastError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
