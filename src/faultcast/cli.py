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
import contextlib
import datetime
import glob
import os
import shutil
import sys
import typing
from collections.abc import Sequence
from pathlib import Path

import numpy as np

# ``detect`` runs constantly, so only its layers load here; other commands import theirs when run.
from . import config as config_mod
from .classifier import check_schema, fit_classifier, load_classifier, save_classifier, score, select_elbow, threshold
from .errors import DataError, EndpointError, FaultcastError, write_file
from .kpi import KpiDescriptor, KpiId, load_dataset, load_descriptors, write_dataset

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
    p.set_defaults(run=_cmd_train)

    p = sub.add_parser("tune", parents=[common], help="sweep sigma over failure-free data and pick the elbow")
    p.add_argument("--data", required=True, nargs="+", metavar="CSV", help="failure-free series")
    p.add_argument("--model", required=True, metavar="MODEL")
    p.set_defaults(run=_cmd_tune)

    p = sub.add_parser("detect", parents=[common], help="classify every state of a series")
    p.add_argument("--data", required=True, metavar="CSV")
    p.add_argument("--model", required=True, metavar="MODEL")
    p.add_argument("--out", default=None, metavar="CSV", help="verdict file (default: timestamped report)")
    p.set_defaults(run=_cmd_detect)

    p = sub.add_parser("rank", parents=[common], help="rank root-cause KPIs for the latest state")
    p.add_argument("--data", required=True, metavar="CSV")
    p.add_argument("--model", required=True, metavar="MODEL")
    p.add_argument("--out", default=None, metavar="JSON", help="report file (default: timestamped report)")
    p.set_defaults(run=_cmd_rank)

    kb = sub.add_parser("kb", help="knowledge base maintenance")
    kbsub = kb.add_subparsers(dest="kb_command", metavar="ACTION", required=True)
    p = kbsub.add_parser("ingest", parents=[common], help="chunk, embed, and index manuals")
    p.add_argument("files", nargs="+", metavar="FILE", help="manual files (.md or plain text)")
    p.set_defaults(run=_cmd_kb_ingest)

    p = sub.add_parser("troubleshoot", parents=[common], help="answer an anomaly report from the knowledge base")
    p.add_argument("--report", required=True, metavar="JSON", help="anomaly report produced by rank")
    p.add_argument("--out", default=None, metavar="MD", help="answer file (default: timestamped report)")
    p.set_defaults(run=_cmd_troubleshoot)

    p = sub.add_parser("simulate", parents=[common], help="generate a synthetic scenario")
    p.add_argument("--spec", required=True, metavar="JSON", help="simulation spec")
    p.add_argument("--seed", required=True, type=_seed, metavar="N")
    p.add_argument("--fault", default=None, metavar="JSON", help="fault to inject")
    p.add_argument("--out", default=None, metavar="CSV", help="dataset file (default: timestamped report)")
    p.set_defaults(run=_cmd_simulate)

    p = sub.add_parser("evaluate", parents=[common], help="sigma-sweep a directory of scenarios")
    p.add_argument("--scenarios", required=True, metavar="DIR", help="directory of <name>.csv [+ <name>.fault.json]")
    p.add_argument("--model", required=True, metavar="MODEL")
    p.add_argument("--out-dir", default=None, metavar="DIR", help="output directory (default: timestamped)")
    p.set_defaults(run=_cmd_evaluate)

    return parser


def _seed(text: str) -> int:
    """``simulate --seed``: an integer >= 0, as numpy's generators take."""
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError(f"seed must be an integer >= 0, not {text!r}")
    return int(text)


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


def _publish(
    out: str | None, report_dir: str, stem: str, suffix: str, write: typing.Callable[[str], None], claim=_create_file
) -> str:
    """``write`` at ``out``, its parent made, or else at a fresh name ``_timestamped_path`` claims; the path written.

    A claimed name (a directory with what ``write`` put in it) that ``write`` fails to fill is
    removed, and the write's error is the one raised; a given ``out`` is left alone.
    """
    if out:
        os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
        write(out)
        return out
    path = _timestamped_path(report_dir, stem, suffix, claim)
    try:
        write(path)
    except BaseException:
        with contextlib.suppress(OSError):
            (shutil.rmtree if os.path.isdir(path) else os.unlink)(path)
        raise
    return path


def _descriptor_table(config: config_mod.ToolConfig) -> dict[KpiId, KpiDescriptor]:
    if config.paths.descriptors is None:
        return {}
    return load_descriptors(config.paths.descriptors)


def _cmd_train(args: argparse.Namespace, config: config_mod.ToolConfig) -> int:
    dataset = load_dataset(args.data, config.missing_policy)
    classifier, curve = fit_classifier(dataset, config.training)
    out = _publish(args.out, config.paths.report_dir, "model", ".json", lambda path: save_classifier(classifier, path))
    print(
        f"trained on {dataset.n_rows} states x {dataset.n_kpis} KPIs "
        f"({config.training.epochs} epochs, final loss {curve[-1]:.6g}); model: {out}"
    )
    return EXIT_OK


def _print_elbow(curve: list[tuple[float, int]]) -> None:
    """The elbow line that ``tune`` and ``evaluate`` print after their curve."""
    if len(curve) >= 3:
        print(f"elbow: sigma={select_elbow(curve):g}")
    else:
        print("elbow: needs at least 3 grid points")


def _cmd_tune(args: argparse.Namespace, config: config_mod.ToolConfig) -> int:
    from .simulate import Scenario, evaluate_scenarios
    classifier = load_classifier(args.model)
    scenarios = [Scenario(name=path, dataset=load_dataset(path, config.missing_policy)) for path in args.data]
    table = evaluate_scenarios(classifier, scenarios, config.sigma_grid)
    text = table.elbow_csv()
    print(text, end="")
    _print_elbow(table.elbow_curve())
    data = text.encode("utf-8")
    out = _publish(None, config.paths.report_dir, "tune", ".csv", lambda path: write_file(path, "curve", data))
    print(f"curve: {out}")
    return EXIT_OK


def _cmd_detect(args: argparse.Namespace, config: config_mod.ToolConfig) -> int:
    classifier = load_classifier(args.model)
    dataset = load_dataset(args.data, config.missing_policy)
    check_schema(classifier, dataset.kpis)
    limit = threshold(classifier.baseline, config.classifier.sigma)
    errors, _ = score(classifier, dataset.values)
    anomalous = errors > limit
    tails = {flag: f",{limit:.17g},{str(flag).lower()}\n" for flag in (False, True)}
    rows = zip(dataset.timestamps.tolist(), errors.tolist(), anomalous.tolist())
    body = "".join(f"{timestamp},{error:.17g}{tails[flag]}" for timestamp, error, flag in rows)
    blocks = [b"timestamp,state_error,threshold,anomalous\n", body.encode("utf-8")]
    out = _publish(
        args.out, config.paths.report_dir, "detect", ".csv", lambda path: write_file(path, "verdicts", blocks)
    )
    flagged = int(anomalous.sum())
    print(
        f"{flagged} of {dataset.n_rows} states anomalous at sigma={config.classifier.sigma:g} "
        f"(threshold {limit:.6g}); verdicts: {out}"
    )
    return EXIT_OK


def _cmd_rank(args: argparse.Namespace, config: config_mod.ToolConfig) -> int:
    from .ranker import analyze, report_to_json
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
    data = report_to_json(report).encode("utf-8")
    out = _publish(
        args.out, config.paths.report_dir, "report", ".json", lambda path: write_file(path, "report", data)
    )
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


def _cmd_kb_ingest(args: argparse.Namespace, config: config_mod.ToolConfig) -> int:
    from .knowledge import VectorStore, ingest_files
    if os.path.exists(config.paths.kb_store):
        store = VectorStore.load(config.paths.kb_store)
    else:
        store = VectorStore(dimension=config.embedding_dimension, embedder_name=config.embedder)
    added = ingest_files(store, args.files, store.embedder(config.endpoints))
    store_path = _publish(config.paths.kb_store, config.paths.report_dir, "knowledge", ".json", store.save)
    documents = len({Path(path).stem for path in args.files})
    print(
        f"ingested {documents} documents ({added} chunks, "
        f"{len(store)} total); store: {store_path}"
    )
    return EXIT_OK


def _cmd_troubleshoot(args: argparse.Namespace, config: config_mod.ToolConfig) -> int:
    from .ranker import load_report
    report = load_report(args.report)
    if not report.verdict.anomalous:
        print("state is normal; nothing to troubleshoot")
        return EXIT_NO_ANOMALY
    if not report.anomalous_kpis:
        print("state is anomalous but no KPI is over its own threshold; nothing to troubleshoot")
        return EXIT_NO_ANOMALY
    from .knowledge import VectorStore
    from .troubleshoot import EchoClient, HttpCompletionClient, troubleshoot
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
        embedder=store.embedder(config.endpoints),
    )
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
    data = "\n".join(lines).encode("utf-8")
    out = _publish(
        args.out, config.paths.report_dir, "troubleshoot", ".md", lambda path: write_file(path, "answer", data)
    )
    print(f"answered from {len(answer.sources)} sources; answer: {out}")
    return EXIT_OK


def _cmd_simulate(args: argparse.Namespace, config: config_mod.ToolConfig) -> int:
    from .simulate import generate_normal, inject_fault, load_fault, load_spec
    spec = load_spec(args.spec)
    dataset = generate_normal(spec, args.seed)
    fault = None
    if args.fault is not None:
        fault = load_fault(args.fault)
        dataset, fault = inject_fault(dataset, spec, fault)
    out = _publish(
        args.out, config.paths.report_dir, "scenario", ".csv", lambda path: write_dataset(dataset, path)
    )
    status = f"simulated {dataset.n_rows} states x {dataset.n_kpis} KPIs (seed {args.seed})"
    if fault is not None:
        status += f"; {fault.kind} fault on {fault.target} at t={fault.onset}"
    print(f"{status}; data: {out}")
    return EXIT_OK


def _cmd_evaluate(args: argparse.Namespace, config: config_mod.ToolConfig) -> int:
    from .simulate import Scenario, evaluate_scenarios, load_fault
    classifier = load_classifier(args.model)
    scenario_files = sorted(glob.glob(os.path.join(args.scenarios, "*.csv")))
    if not scenario_files:
        raise UsageError(f"no scenario CSV files under {args.scenarios}")
    scenarios = []
    for path in scenario_files:
        name = os.path.splitext(os.path.basename(path))[0]
        dataset = load_dataset(path, config.missing_policy)
        fault_path = os.path.join(args.scenarios, f"{name}.fault.json")
        fault = load_fault(fault_path) if os.path.exists(fault_path) else None
        scenarios.append(Scenario(name=name, dataset=dataset, fault=fault))
    table = evaluate_scenarios(classifier, scenarios, config.sigma_grid)

    def write(out_dir: str) -> None:
        os.makedirs(out_dir, exist_ok=True)
        write_file(os.path.join(out_dir, "evaluation.csv"), "table", table.to_csv().encode("utf-8"))
        write_file(os.path.join(out_dir, "elbow.csv"), "curve", table.elbow_csv().encode("utf-8"))

    out_dir = _publish(args.out_dir, config.paths.report_dir, "evaluation", "", write, claim=os.mkdir)
    print(table.to_text(), end="")
    _print_elbow(table.elbow_curve())
    print(f"table: {os.path.join(out_dir, 'evaluation.csv')}")
    print(f"curve: {os.path.join(out_dir, 'elbow.csv')}")
    return EXIT_OK


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        config = _resolve_config(args)
        # A reconstruction error that overflows to inf is a verdict (anomalous), not a fault;
        # so is one whose forward pass meets inf - inf, which score turns into inf.
        with np.errstate(over="ignore", invalid="ignore"):
            return args.run(args, config)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except EndpointError as exc:
        print(f"endpoint error: {exc}", file=sys.stderr)
        return EXIT_ENDPOINT
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except FaultcastError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
