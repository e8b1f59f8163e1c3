"""End-to-end command line tests.

Every test drives ``faultcast.cli.main`` in process with a temporary working
directory, checking exit codes, printed status lines, and the files each
subcommand writes.  A few tests run the module through a subprocess: the
``--help`` and bare-invocation paths that argparse terminates itself, the
modules an import loads, the exact stderr of a refused ``train``, a
``detect`` whose errors overflow, run under ``-W error::RuntimeWarning``, and
a ``kb ingest`` cut short by the file size limit.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import io
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from faultcast import cli, endpoints
from faultcast.autoencoder import TrainingConfig
from faultcast.classifier import (
    StateVerdict,
    fit_classifier,
    load_classifier,
    save_classifier,
    score,
    select_elbow,
    sigma_sweep,
    threshold,
)
from faultcast.config import override_fields
from faultcast.errors import IoError
from faultcast.knowledge import VectorStore
from faultcast.kpi import KpiId, TimeSeriesDataset, load_dataset, write_dataset
from faultcast.granger import GrangerConfig
from faultcast.ranker import AnomalyReport, KpiAnomaly, RollingHistory, analyze, load_report, report_to_json
from faultcast.simulate import (
    FaultSpec,
    Scenario,
    evaluate_scenarios,
    fault_to_json,
    generate_normal,
    inject_fault,
    load_fault,
    make_chain_spec,
    spec_to_json,
)

from helpers import disk_fills_up

GRID = (1.5, 3.0, 4.5)


@pytest.fixture(scope="module")
def ws(tmp_path_factory) -> SimpleNamespace:
    """A trained model plus quiet and faulty series shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli-workspace")
    spec = make_chain_spec(
        components=2, kpis_per_component=2, noise_std=1.0, length=260, seed=5
    )
    fault = FaultSpec(
        onset=200, kind="offset", target=KpiId("load", "component-1"), magnitude=8.0
    )
    spec_json = root / "spec.json"
    spec_json.write_text(spec_to_json(spec), encoding="utf-8")
    fault_json = root / "fault.json"
    fault_json.write_text(fault_to_json(fault), encoding="utf-8")

    train = generate_normal(spec, seed=21)
    quiet = generate_normal(spec, seed=22)
    faulty, _ = inject_fault(generate_normal(spec, seed=23), spec, fault)
    train_csv = root / "train.csv"
    quiet_csv = root / "quiet.csv"
    faulty_csv = root / "faulty.csv"
    write_dataset(train, str(train_csv))
    write_dataset(quiet, str(quiet_csv))
    write_dataset(faulty, str(faulty_csv))

    classifier, _ = fit_classifier(train, TrainingConfig(epochs=40, seed=3))
    model = root / "model.json"
    save_classifier(classifier, str(model))

    descriptors = root / "descriptors.csv"
    descriptors.write_text(
        "kpi,description\n"
        "load@component-1,primary load on component-1\n"
        "temperature@component-1,temperature near component-1\n"
        "load@component-2,primary load on component-2\n"
        "temperature@component-2,temperature near component-2\n",
        encoding="utf-8",
    )
    return SimpleNamespace(
        spec=spec,
        fault=fault,
        spec_json=str(spec_json),
        fault_json=str(fault_json),
        train=str(train_csv),
        quiet=str(quiet_csv),
        faulty=str(faulty_csv),
        model=str(model),
        descriptors=str(descriptors),
    )


# A child interpreter finds this checkout's package whether or not it is installed.
_SUBPROCESS_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(
        filter(None, [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH")])
    ),
}

# Runs the command line with its arguments after the first, which is the
# file size limit in bytes; past it a write fails with EFBIG, not a signal.
_LIMITED_CLI = """
import resource, signal, sys
from faultcast import cli
signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
resource.setrlimit(resource.RLIMIT_FSIZE, (int(sys.argv[1]), resource.getrlimit(resource.RLIMIT_FSIZE)[1]))
sys.exit(cli.main(sys.argv[2:]))
"""


def _faultcast_modules_after(*argv: str) -> set[str]:
    """The faultcast modules a fresh interpreter has loaded once ``faultcast <argv>`` exits 0."""
    code = (
        "import sys; from faultcast import cli; code = cli.main(sys.argv[1:]); "
        "print(*sorted(n for n in sys.modules if n.split('.')[0] == 'faultcast')); sys.exit(code)"
    )
    command = [sys.executable, "-c", code, *argv]
    proc = subprocess.run(command, capture_output=True, text=True, timeout=120, check=True, env=_SUBPROCESS_ENV)
    return set(proc.stdout.splitlines()[-1].split())


def _normal_report_file(path, timestamp: int = 7) -> str:
    verdict = StateVerdict(
        timestamp=timestamp, state_error=0.01, threshold=0.5, anomalous=False
    )
    path.write_text(report_to_json(AnomalyReport(verdict=verdict)), encoding="utf-8")
    return str(path)


def _anomalous_report_file(path, *, with_description: bool) -> str:
    kpi = KpiId("pressure", "tank-1")
    report = AnomalyReport(
        verdict=StateVerdict(
            timestamp=9, state_error=9.0, threshold=0.5, anomalous=True
        ),
        anomalous_kpis=(KpiAnomaly(kpi=kpi, score=8.0, kpi_threshold=1.0),),
        descriptions=(
            {kpi: "air pressure in the starting tank"} if with_description else {}
        ),
    )
    path.write_text(report_to_json(report), encoding="utf-8")
    return str(path)


class TestParsing:
    def test_no_arguments_is_a_usage_error(self, capsys) -> None:
        assert cli.main([]) == 1
        assert capsys.readouterr().err.startswith("usage error: ")

    def test_unknown_command(self, capsys) -> None:
        assert cli.main(["frobnicate"]) == 1
        assert capsys.readouterr().err.startswith("usage error: ")

    def test_missing_required_flag(self, ws, capsys) -> None:
        assert cli.main(["train", "--data", ws.train]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: ")
        assert "--out" in err

    def test_non_integer_seed(self, ws, capsys) -> None:
        rc = cli.main(["simulate", "--spec", ws.spec_json, "--seed", "soon"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("usage error: ")

    def test_unknown_override_flag(self, ws, capsys) -> None:
        rc = cli.main(
            ["detect", "--data", ws.quiet, "--model", ws.model, "--bogus.field", "1"]
        )
        assert rc == 1
        assert capsys.readouterr().err.startswith("usage error: ")

    def test_bad_override_value(self, ws, capsys) -> None:
        rc = cli.main(
            [
                "detect",
                "--data",
                ws.quiet,
                "--model",
                ws.model,
                "--classifier.sigma",
                "abc",
            ]
        )
        assert rc == 1
        assert "bad value for --classifier.sigma" in capsys.readouterr().err

    def test_each_subcommand_has_exactly_its_own_flags(self) -> None:
        """Besides --config and one flag per config field, each subcommand has these and no more."""
        shared = {"-h", "--help", "--config", *(f"--{name}" for name, _ in override_fields())}

        def subcommands(parser, prefix=""):
            nested = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
            if not nested:
                own = {flag for a in parser._actions for flag in a.option_strings or [a.dest]}
                yield prefix.strip(), sorted(own - shared)
            for action in nested:
                for name, child in action.choices.items():
                    yield from subcommands(child, f"{prefix}{name} ")

        assert dict(subcommands(cli.build_parser())) == {
            "train": ["--data", "--out"],
            "tune": ["--data", "--model"],
            "detect": ["--data", "--model", "--out"],
            "rank": ["--data", "--model", "--out"],
            "kb ingest": ["files"],
            "troubleshoot": ["--out", "--report"],
            "simulate": ["--fault", "--out", "--seed", "--spec"],
            "evaluate": ["--model", "--out-dir", "--scenarios"],
        }

    @pytest.mark.parametrize(
        "argv",
        [
            ["detect", "--model", "MODEL", "--sigma", "6"],
            ["tune", "--model", "MODEL", "--grid", "1,2,3"],
            ["train", "--out", "OUT", "--training.epoch", "3"],
            ["detect", "--model", "MODEL", "--classifier.sig", "6"],
        ],
        ids=["removed-sigma", "removed-grid", "abbreviated-field", "abbreviated-prefix"],
    )
    def test_a_removed_or_abbreviated_flag_is_a_usage_error(self, ws, tmp_path, argv, capsys) -> None:
        command, *rest = argv
        rest = [{"MODEL": ws.model, "OUT": str(tmp_path / "model.json")}.get(arg, arg) for arg in rest]
        rc = cli.main([command, "--data", ws.quiet, *rest])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("usage error: unrecognized arguments: ")
        assert not (tmp_path / "model.json").exists()

    @pytest.mark.parametrize(
        "payload",
        [
            '{"count_central_only": true}',
            '{"prompt": {"separator": "; "}}',
            '{"pagerank": {"tolerance": 1e-09}}',
            '{"pagerank": {"max_iters": 1000}}',
        ],
    )
    def test_a_config_file_naming_a_removed_field_is_a_data_error(self, ws, tmp_path, payload, capsys) -> None:
        config = tmp_path / "config.json"
        config.write_text(payload, encoding="utf-8")
        rc = cli.main(["detect", "--config", str(config), "--data", ws.quiet, "--model", ws.model])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("data error: unknown config field: ")
        assert len(err.splitlines()) == 1

    def test_damping_above_0_99_is_refused(self, ws, tmp_path, capsys) -> None:
        """In a config file it is a data error; as a flag, a usage error."""
        config = tmp_path / "config.json"
        config.write_text('{"pagerank": {"damping": 0.995}}', encoding="utf-8")
        argv = ["detect", "--data", ws.quiet, "--model", ws.model]
        assert cli.main([*argv, "--config", str(config)]) == 2
        assert cli.main([*argv, "--pagerank.damping", "0.995"]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"data error: invalid config value under pagerank: damping must lie in (0, 0.99] (in {config})",
            "usage error: bad value for --pagerank.damping: invalid config value under pagerank: "
            "damping must lie in (0, 0.99]",
        ]

    def test_help_lists_every_command(self) -> None:
        proc = subprocess.run(
            [sys.executable, "-m", "faultcast.cli", "--help"],
            capture_output=True,
            text=True,
            timeout=120,
            env=_SUBPROCESS_ENV,
        )
        assert proc.returncode == 0
        for command in (
            "train",
            "tune",
            "detect",
            "rank",
            "kb",
            "troubleshoot",
            "simulate",
            "evaluate",
        ):
            assert command in proc.stdout

    def test_bare_invocation_exits_one(self) -> None:
        proc = subprocess.run(
            [sys.executable, "-m", "faultcast.cli"],
            capture_output=True,
            text=True,
            timeout=120,
            env=_SUBPROCESS_ENV,
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith("usage error: ")

    def test_importing_the_cli_loads_no_third_party_http_client(self) -> None:
        # Only what faultcast itself adds counts: site hooks and numpy/scipy may
        # load some of these names on their own (numpy.f2py tries charset_normalizer).
        code = (
            "import sys, numpy, scipy.special; before = set(sys.modules); import faultcast.cli; "
            "print(*{name.split('.')[0] for name in set(sys.modules) - before})"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120, check=True, env=_SUBPROCESS_ENV
        )
        loaded = set(proc.stdout.split())
        assert "faultcast" in loaded
        assert not loaded & {"requests", "urllib3", "idna", "charset_normalizer", "certifi"}

    def test_importing_the_cli_loads_no_http_stack(self) -> None:
        # Only post_json needs them, and it imports them when called: together they cost ~40 ms.
        code = "import sys, faultcast.cli; print(*sorted({'http.client', 'ssl', 'email'} & set(sys.modules)))"
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120, check=True, env=_SUBPROCESS_ENV
        )
        assert proc.stdout.split() == []

    def test_importing_the_cli_loads_no_scipy(self) -> None:
        # scipy roughly doubles start-up time and memory; only Granger tests need it.
        code = "import sys, faultcast.cli; print(*sorted(n for n in sys.modules if n.split('.')[0] == 'scipy'))"
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120, check=True, env=_SUBPROCESS_ENV
        )
        assert proc.stdout.split() == []

    def test_detect_loads_only_the_layers_it_runs(self, ws, tmp_path) -> None:
        # An operator runs detect constantly; localization and troubleshooting wait for an alarm.
        out = str(tmp_path / "verdicts.csv")
        loaded = _faultcast_modules_after("detect", "--data", ws.quiet, "--model", ws.model, "--out", out)
        run = ("cli", "config", "errors", "kpi", "classifier", "autoencoder")
        assert loaded == {"faultcast", *(f"faultcast.{name}" for name in run)}

    def test_kb_ingest_loads_no_localization_or_troubleshooting(self, manuals, tmp_path) -> None:
        store = str(tmp_path / "kb.json")
        loaded = _faultcast_modules_after("kb", "ingest", str(manuals[0]), "--paths.kb_store", store)
        assert "faultcast.knowledge" in loaded
        unrun = {"ranker", "simulate", "granger", "pagerank", "troubleshoot"}
        assert not loaded & {f"faultcast.{name}" for name in unrun}

    def test_importing_the_config_loads_only_errors_and_kpi(self) -> None:
        code = "import sys, faultcast.config; print(*sorted(n for n in sys.modules if n.split('.')[0] == 'faultcast'))"
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120, check=True, env=_SUBPROCESS_ENV
        )
        assert proc.stdout.split() == ["faultcast", "faultcast.config", "faultcast.errors", "faultcast.kpi"]


class TestTrain:
    def test_train_writes_a_loadable_model(self, ws, tmp_path, capsys) -> None:
        out = tmp_path / "model.json"
        rc = cli.main(
            [
                "train",
                "--data",
                ws.train,
                "--out",
                str(out),
                "--training.epochs",
                "3",
                "--training.seed",
                "0",
            ]
        )
        assert rc == 0
        message = capsys.readouterr().out
        assert message.startswith("trained on 260 states x 4 KPIs (3 epochs")
        assert f"model: {out}" in message
        classifier = load_classifier(str(out))
        assert classifier.training.epochs == 3
        assert classifier.training.seed == 0
        assert [str(k) for k in classifier.kpis] == [
            "load@component-1",
            "temperature@component-1",
            "load@component-2",
            "temperature@component-2",
        ]

    def test_a_column_whose_std_overflows_is_refused_before_the_model_is_written(self, tmp_path) -> None:
        values = np.random.default_rng(0).normal(size=(300, 3))
        values[:, 2] *= 1e200
        data = tmp_path / "huge.csv"
        kpis = [KpiId("a", "n"), KpiId("b", "n"), KpiId("c", "n")]
        write_dataset(TimeSeriesDataset(np.arange(300), kpis, values), str(data))
        model = tmp_path / "model.json"
        proc = subprocess.run(
            [sys.executable, "-m", "faultcast.cli", "train", "--data", str(data), "--out", str(model)],
            capture_output=True,
            text=True,
            timeout=120,
            env=_SUBPROCESS_ENV,
        )
        assert proc.returncode == 2
        assert proc.stderr == "data error: KPI c@n: standard deviation overflows float64\n"
        assert not model.exists()

    def test_missing_data_file_is_a_data_error(self, tmp_path, capsys) -> None:
        rc = cli.main(
            ["train", "--data", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "m.json")]
        )
        assert rc == 2
        assert capsys.readouterr().err.startswith("data error: ")


class TestDetect:
    def test_verdict_csv_layout(self, ws, tmp_path, capsys) -> None:
        out = tmp_path / "verdicts.csv"
        rc = cli.main(
            ["detect", "--data", ws.quiet, "--model", ws.model, "--out", str(out)]
        )
        assert rc == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "timestamp,state_error,threshold,anomalous"
        assert len(lines) == 1 + 260
        row = re.compile(r"\d+,[0-9eE.+-]+,[0-9eE.+-]+,(true|false)")
        classifier = load_classifier(ws.model)
        limit = f"{threshold(classifier.baseline, 4.5):.17g}"
        for index, line in enumerate(lines[1:]):
            assert row.fullmatch(line), line
            cells = line.split(",")
            assert cells[0] == str(index)
            assert cells[2] == limit
        message = capsys.readouterr().out
        assert " of 260 states anomalous at sigma=4.5 " in message
        assert f"verdicts: {out}" in message

    def test_streamed_verdicts_equal_the_verdict_csv(self, ws, tmp_path) -> None:
        out = tmp_path / "verdicts.csv"
        assert cli.main(["detect", "--data", ws.faulty, "--model", ws.model, "--out", str(out)]) == 0
        flags = [line.endswith(",true") for line in out.read_text(encoding="utf-8").splitlines()[1:]]
        classifier, dataset = load_classifier(ws.model), load_dataset(ws.faulty)
        window = GrangerConfig().window
        ring = RollingHistory(dataset.n_kpis, window)
        streamed = []
        for row, values in enumerate(dataset.values):
            ring.push(values)
            if row >= window - 1:
                streamed.append(analyze(classifier, values, ring, int(dataset.timestamps[row])).verdict.anomalous)
        assert streamed == flags[window - 1 :]
        assert any(streamed) and not all(streamed)

    def test_data_that_is_not_utf8_exits_two(self, ws, tmp_path, capsys) -> None:
        data = tmp_path / "data.csv"
        data.write_bytes(Path(ws.quiet).read_bytes().replace(b"\n3,", b"\n3,\xff", 1))
        assert cli.main(["detect", "--data", str(data), "--model", ws.model]) == 2
        assert capsys.readouterr().err == f"data error: {data}: row 5 is not valid UTF-8\n"

    def test_sigma_must_be_positive(self, ws, capsys) -> None:
        rc = cli.main(
            ["detect", "--data", ws.quiet, "--model", ws.model, "--classifier.sigma", "0"]
        )
        assert rc == 1
        assert "sigma must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags",
        [
            ["--classifier.sigma=-inf"],
            ["--classifier.sigma_kpi", "nan"],
            ["--classifier.sigma", "inf"],
            ["--classifier.sigma", "nan"],
            ["--classifier.sigma_kpi", "inf"],
        ],
    )
    def test_non_finite_sigma_flag_is_a_usage_error(self, ws, tmp_path, flags, capsys) -> None:
        out = tmp_path / "verdicts.csv"
        rc = cli.main(["detect", "--data", ws.quiet, "--model", ws.model, "--out", str(out), *flags])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("usage error: ") and "finite" in err
        assert not out.exists()

    def test_non_finite_sigma_in_a_config_file_is_a_data_error(self, ws, tmp_path, capsys) -> None:
        config = tmp_path / "config.json"
        config.write_text('{"classifier": {"sigma": 1e400}}', encoding="utf-8")
        rc = cli.main(
            ["detect", "--config", str(config), "--data", ws.quiet, "--model", ws.model]
        )
        assert rc == 2
        assert "sigma must be positive and finite" in capsys.readouterr().err

    def test_huge_sigma_flags_nothing(self, ws, tmp_path, capsys) -> None:
        out = tmp_path / "quietest.csv"
        rc = cli.main(
            [
                "detect",
                "--data",
                ws.faulty,
                "--model",
                ws.model,
                "--classifier.sigma",
                "1e6",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        assert capsys.readouterr().out.startswith("0 of 260 states anomalous")
        assert ",false" in out.read_text(encoding="utf-8")

    def test_an_error_that_overflows_is_anomalous_and_warns_nothing(self, ws, tmp_path) -> None:
        header = Path(ws.quiet).read_text(encoding="utf-8").splitlines()[0]
        huge = ",".join(["1e200"] * header.count(","))
        data = tmp_path / "huge.csv"
        data.write_text(f"{header}\n0,{huge}\n1,{huge}\n", encoding="utf-8")
        out = tmp_path / "verdicts.csv"
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "faultcast.cli", "detect",
             "--data", str(data), "--model", ws.model, "--out", str(out)],
            capture_output=True,
            text=True,
            timeout=120,
            env=_SUBPROCESS_ENV,
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        rows = [line.split(",") for line in out.read_text(encoding="utf-8").splitlines()[1:]]
        assert [(row[1], row[3]) for row in rows] == [("inf", "true"), ("inf", "true")]

    def test_default_sigma_flags_the_fault(self, ws, tmp_path, capsys) -> None:
        out = tmp_path / "faulty.csv"
        rc = cli.main(
            ["detect", "--data", ws.faulty, "--model", ws.model, "--out", str(out)]
        )
        assert rc == 0
        flagged = int(capsys.readouterr().out.split(" ", 1)[0])
        assert flagged > 0

    def test_schema_mismatch_is_a_data_error(self, ws, tmp_path, capsys) -> None:
        narrow = tmp_path / "narrow.csv"
        dataset = load_dataset(ws.quiet)
        narrowed = TimeSeriesDataset(
            timestamps=dataset.timestamps,
            kpis=[KpiId("load", "component-1")],
            values=dataset.values[:, :1],
        )
        write_dataset(narrowed, str(narrow))
        rc = cli.main(["detect", "--data", str(narrow), "--model", ws.model])
        assert rc == 2
        assert capsys.readouterr().err.startswith("data error: ")

    def test_default_output_is_timestamped_and_never_reused(
        self, ws, tmp_path, monkeypatch, capsys
    ) -> None:
        monkeypatch.chdir(tmp_path)
        assert cli.main(["detect", "--data", ws.quiet, "--model", ws.model]) == 0
        assert cli.main(["detect", "--data", ws.quiet, "--model", ws.model]) == 0
        capsys.readouterr()
        files = sorted((tmp_path / "reports").glob("detect-*.csv"))
        assert len(files) == 2

    def test_state_error_column_is_the_batched_score(self, ws, tmp_path, capsys) -> None:
        """Bitwise the errors that tune and evaluate compute for the same rows."""
        out = tmp_path / "verdicts.csv"
        rc = cli.main(["detect", "--data", ws.faulty, "--model", ws.model, "--out", str(out)])
        assert rc == 0
        rows = [line.split(",") for line in out.read_text(encoding="utf-8").splitlines()[1:]]
        classifier = load_classifier(ws.model)
        errors, _ = score(classifier, load_dataset(ws.faulty).values)
        assert [float(cells[1]) for cells in rows] == errors.tolist()
        limit = threshold(classifier.baseline, 4.5)
        assert [cells[3] == "true" for cells in rows] == [e > limit for e in errors.tolist()]

    def test_verdict_csv_is_the_bytes_of_csv_writer(self, ws, tmp_path) -> None:
        out = tmp_path / "verdicts.csv"
        assert cli.main(["detect", "--data", ws.faulty, "--model", ws.model, "--out", str(out)]) == 0
        classifier = load_classifier(ws.model)
        dataset = load_dataset(ws.faulty)
        errors, _ = score(classifier, dataset.values)
        limit = threshold(classifier.baseline, 4.5)
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(["timestamp", "state_error", "threshold", "anomalous"])
        for timestamp, error in zip(dataset.timestamps.tolist(), errors.tolist()):
            writer.writerow([timestamp, f"{error:.17g}", f"{limit:.17g}", str(error > limit).lower()])
        assert {error > limit for error in errors.tolist()} == {False, True}
        assert out.read_text(encoding="utf-8") == buffer.getvalue()

    def test_a_failed_write_keeps_the_previous_verdicts(self, ws, tmp_path, monkeypatch, capsys) -> None:
        out = tmp_path / "verdicts.csv"
        assert cli.main(["detect", "--data", ws.quiet, "--model", ws.model, "--out", str(out)]) == 0
        old = out.read_bytes()
        capsys.readouterr()
        with disk_fills_up(monkeypatch, 100):
            rc = cli.main(["detect", "--data", ws.faulty, "--model", ws.model, "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == f"data error: cannot write verdicts: {out}\n"
        assert out.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == ["verdicts.csv"]

    @pytest.mark.parametrize(
        "edit",
        [
            lambda payload: payload.pop("baseline"),
            lambda payload: payload["baseline"].update(kpi_mu=payload["baseline"]["kpi_mu"][:-1]),
        ],
        ids=["missing-baseline", "short-kpi-mu"],
    )
    def test_malformed_model_is_a_data_error(self, ws, tmp_path, capsys, edit) -> None:
        payload = json.loads(Path(ws.model).read_text(encoding="utf-8"))
        edit(payload)
        model = tmp_path / "model.json"
        model.write_text(json.dumps(payload), encoding="utf-8")
        out = tmp_path / "v.csv"
        rc = cli.main(["detect", "--data", ws.quiet, "--model", str(model), "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("data error: ")
        assert not out.exists()


class _FrozenClock(datetime.datetime):
    @classmethod
    def now(cls, tz=None):
        return cls(2026, 1, 2, 3, 4, 5)


def test_timestamped_path_claims_a_fresh_name(tmp_path, monkeypatch) -> None:
    """The name is created, not just checked, so a concurrent run cannot reuse it."""
    monkeypatch.setattr(cli.datetime, "datetime", _FrozenClock)
    taken = tmp_path / "detect-20260102-030405.csv"
    taken.write_text("another run's verdicts", encoding="utf-8")
    path = cli._timestamped_path(str(tmp_path), "detect", ".csv")
    assert path == str(tmp_path / "detect-20260102-030405-1.csv")
    assert os.path.isfile(path)
    assert taken.read_text(encoding="utf-8") == "another run's verdicts"
    assert cli._timestamped_path(str(tmp_path), "detect", ".csv").endswith("-2.csv")

    (tmp_path / "evaluation-20260102-030405").mkdir()
    directory = cli._timestamped_path(str(tmp_path), "evaluation", "", claim=os.mkdir)
    assert directory == str(tmp_path / "evaluation-20260102-030405-1")
    assert os.path.isdir(directory)


@pytest.mark.parametrize("command", ["tune", "detect", "rank", "troubleshoot", "simulate"])
def test_a_failed_write_to_a_timestamped_name_leaves_no_file(
    command, ws, manuals, tmp_path, monkeypatch, capsys
) -> None:
    """The name claimed for a default output is removed when the write fails, so no empty report is left."""
    monkeypatch.chdir(tmp_path)
    store = str(tmp_path / "kb.json")
    argv = {
        "tune": ["tune", "--data", ws.quiet, "--model", ws.model],
        "detect": ["detect", "--data", ws.faulty, "--model", ws.model],
        "rank": ["rank", "--data", ws.faulty, "--model", ws.model],
        "troubleshoot": ["troubleshoot", "--report", str(tmp_path / "report.json"), "--paths.kb_store", store],
        "simulate": ["simulate", "--spec", ws.spec_json, "--seed", "1"],
    }[command]
    if command == "troubleshoot":
        _anomalous_report_file(tmp_path / "report.json", with_description=True)
        assert cli.main(["kb", "ingest", *map(str, manuals), "--paths.kb_store", store]) == 0
    capsys.readouterr()
    with disk_fills_up(monkeypatch, 10):
        assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: cannot write ") and err.count("\n") == 1
    assert list((tmp_path / "reports").iterdir()) == []


@pytest.mark.parametrize("failing", ["table", "curve", "table in a given directory"])
def test_a_failed_evaluate_leaves_no_claimed_directory(failing, ws, tmp_path, monkeypatch, capsys) -> None:
    """The directory claimed for evaluate's outputs goes, with any file already in it; a given one stays."""
    monkeypatch.chdir(tmp_path)
    scenarios = tmp_path / "scenarios"
    scenarios.mkdir()
    (scenarios / "quiet.csv").write_bytes(Path(ws.quiet).read_bytes())
    given = tmp_path / "given"
    argv = ["evaluate", "--scenarios", str(scenarios), "--model", ws.model]
    if failing == "table in a given directory":
        argv += ["--out-dir", str(given)]
    write_file = cli.write_file

    def fail_the_curve(path, what, data, mode=None):
        if what == "curve":
            raise IoError(f"cannot write {what}: {path}")
        write_file(path, what, data, mode)

    if failing == "curve":  # the table is written into the directory first
        monkeypatch.setattr(cli, "write_file", fail_the_curve)
        assert cli.main(argv) == 2
    else:
        with disk_fills_up(monkeypatch, 10):
            assert cli.main(argv) == 2
    err = capsys.readouterr().err
    what = "curve" if failing == "curve" else "table"
    assert err.startswith(f"data error: cannot write {what}: ") and err.count("\n") == 1
    if failing == "table in a given directory":
        assert list(given.iterdir()) == [] and not (tmp_path / "reports").exists()
    else:
        assert list((tmp_path / "reports").iterdir()) == [] and not given.exists()


# case -> (the command reading the file, its name, its text, the one stderr line the command ends with)
ONE_LINE_DATA_ERRORS = {
    "training data with only a header": (
        "train", "header.csv", "timestamp,load@component-1\n",
        "data error: cannot fit normalization on an empty dataset\n",
    ),
    "an empty descriptor table": (
        "rank", "descriptors.csv", "",
        "data error: {path}: empty file\n",
    ),
    "a cell beyond csv's field limit": (
        "train", "long.csv", "timestamp,load@component-1\n0,1.5\n1," + "x" * 131073 + "\n",
        "data error: {path}: row 3: field larger than field limit (131072)\n",
    ),
}


@pytest.mark.parametrize("case", sorted(ONE_LINE_DATA_ERRORS))
def test_a_bad_input_file_ends_in_one_data_error_line(case, ws, tmp_path, capsys) -> None:
    command, name, text, line = ONE_LINE_DATA_ERRORS[case]
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    out = tmp_path / "out.json"
    if command == "train":
        argv = ["train", "--data", str(path), "--out", str(out)]
    else:
        argv = ["rank", "--data", ws.faulty, "--model", ws.model, "--paths.descriptors", str(path), "--out", str(out)]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == line.format(path=path)
    assert not out.exists()


class TestTune:
    def _expected_totals(self, ws, paths: list[str]) -> dict[float, int]:
        classifier = load_classifier(ws.model)
        totals = {float(s): 0 for s in GRID}
        for path in paths:
            for point in sigma_sweep(classifier, load_dataset(path), GRID):
                totals[point.sigma] += point.fp_count
        return totals

    def test_curve_elbow_and_file(self, ws, tmp_path, monkeypatch, capsys) -> None:
        monkeypatch.chdir(tmp_path)
        rc = cli.main(
            ["tune", "--data", ws.quiet, "--model", ws.model, "--sigma_grid", "1.5,3,4.5"]
        )
        assert rc == 0
        totals = self._expected_totals(ws, [ws.quiet])
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "sigma,total_fp"
        assert lines[1] == f"1.5,{totals[1.5]}"
        assert lines[2] == f"3,{totals[3.0]}"
        assert lines[3] == f"4.5,{totals[4.5]}"
        elbow = select_elbow(sorted(totals.items()))
        assert lines[4] == f"elbow: sigma={elbow:g}"
        assert lines[5].startswith("curve: ")
        curve_path = lines[5].removeprefix("curve: ")
        body = (tmp_path / curve_path).read_text(encoding="utf-8")
        assert body == (
            "sigma,total_fp\n"
            f"1.5,{totals[1.5]}\n"
            f"3,{totals[3.0]}\n"
            f"4.5,{totals[4.5]}\n"
        )

    def test_two_point_grid_reports_no_elbow(
        self, ws, tmp_path, monkeypatch, capsys
    ) -> None:
        monkeypatch.chdir(tmp_path)
        rc = cli.main(
            ["tune", "--data", ws.quiet, "--model", ws.model, "--sigma_grid", "1.5,3"]
        )
        assert rc == 0
        assert "elbow: needs at least 3 grid points" in capsys.readouterr().out

    def test_repeated_data_doubles_the_counts(
        self, ws, tmp_path, monkeypatch, capsys
    ) -> None:
        monkeypatch.chdir(tmp_path)
        rc = cli.main(
            [
                "tune",
                "--data",
                ws.quiet,
                ws.quiet,
                "--model",
                ws.model,
                "--sigma_grid",
                "1.5,3,4.5",
            ]
        )
        assert rc == 0
        totals = self._expected_totals(ws, [ws.quiet])
        lines = capsys.readouterr().out.splitlines()
        assert lines[1] == f"1.5,{2 * totals[1.5]}"
        assert lines[3] == f"4.5,{2 * totals[4.5]}"

    def test_bad_grid_values(self, ws, capsys) -> None:
        rc = cli.main(
            ["tune", "--data", ws.quiet, "--model", ws.model, "--sigma_grid", "abc"]
        )
        assert rc == 1
        assert "bad value for --sigma_grid" in capsys.readouterr().err

    def test_empty_grid(self, ws, capsys) -> None:
        rc = cli.main(["tune", "--data", ws.quiet, "--model", ws.model, "--sigma_grid", ","])
        assert rc == 1
        assert "sigma grid must be non-empty" in capsys.readouterr().err

    @pytest.mark.parametrize("grid", ["3,1.5", "0,1", "-1,2", "1,nan"])
    def test_grid_must_be_positive_and_ascending(self, ws, grid, capsys) -> None:
        rc = cli.main(["tune", "--data", ws.quiet, "--model", ws.model, f"--sigma_grid={grid}"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: bad value for --sigma_grid: ")
        assert "sigma grid " in err
        assert len(err.splitlines()) == 1

    def test_config_grid_must_be_positive(self, ws, tmp_path, capsys) -> None:
        config = tmp_path / "config.json"
        config.write_text('{"sigma_grid": [0, 1]}', encoding="utf-8")
        rc = cli.main(["tune", "--config", str(config), "--data", ws.quiet, "--model", ws.model])
        assert rc == 2
        err = capsys.readouterr().err
        assert "sigma grid " in err
        assert len(err.splitlines()) == 1


class TestRank:
    def test_faulty_series_produces_an_anomalous_report(
        self, ws, tmp_path, capsys
    ) -> None:
        out = tmp_path / "report.json"
        rc = cli.main(
            [
                "rank",
                "--data",
                ws.faulty,
                "--model",
                ws.model,
                "--out",
                str(out),
                "--paths.descriptors",
                ws.descriptors,
            ]
        )
        assert rc == 0
        message = capsys.readouterr().out
        assert "is anomalous" in message
        assert f"report: {out}" in message
        report = load_report(out)
        assert report.verdict.anomalous
        assert report.verdict.timestamp == 259
        assert report.anomalous_kpis
        assert report.descriptions
        for kpi in report.descriptions:
            assert any(a.kpi == kpi for a in report.anomalous_kpis)

    def test_quiet_series_is_normal_with_a_loose_threshold(
        self, ws, tmp_path, capsys
    ) -> None:
        out = tmp_path / "report.json"
        rc = cli.main(
            [
                "rank",
                "--data",
                ws.quiet,
                "--model",
                ws.model,
                "--out",
                str(out),
                "--classifier.sigma",
                "30",
            ]
        )
        assert rc == 0
        assert "is normal" in capsys.readouterr().out
        report = load_report(out)
        assert not report.verdict.anomalous
        assert report.anomalous_kpis == ()
        assert report.root_cause_kpis == ()

    @pytest.mark.parametrize(
        "table, message",
        [
            (b"kpi,description\nload@component-1\n", "row 2 has 1 cell, expected at least 2"),
            (b"kpi,description\nload@component-1,caf\xe9\n", "row 2 is not valid UTF-8"),
            (
                b"kpi,description\nload@component-1,first text\nload@component-1,second text\n",
                "row 3: duplicate KPI load@component-1",
            ),
        ],
    )
    def test_bad_descriptor_table_exits_two(self, ws, tmp_path, capsys, table, message) -> None:
        descriptors = tmp_path / "descriptors.csv"
        descriptors.write_bytes(table)
        argv = ["rank", "--data", ws.faulty, "--model", ws.model, "--out", str(tmp_path / "r.json")]
        assert cli.main([*argv, "--paths.descriptors", str(descriptors)]) == 2
        err = capsys.readouterr().err
        assert err == f"data error: {descriptors}: {message}\n"

    @pytest.mark.parametrize("rows", [0, 19])
    def test_too_few_rows_for_the_granger_window_exits_two(self, ws, tmp_path, capsys, rows) -> None:
        lines = Path(ws.faulty).read_text(encoding="utf-8").splitlines(keepends=True)
        data = tmp_path / "short.csv"
        data.write_text("".join(lines[: rows + 1]), encoding="utf-8")
        out = tmp_path / "r.json"
        assert cli.main(["rank", "--data", str(data), "--model", ws.model, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"data error: {data}: {rows} rows, fewer than granger.window = 40\n"
        assert not out.exists()


class TestKnowledgeBase:
    def test_ingest_creates_the_default_store(
        self, manuals, tmp_path, monkeypatch, capsys
    ) -> None:
        monkeypatch.chdir(tmp_path)
        files = [str(m) for m in manuals]
        assert cli.main(["kb", "ingest", *files]) == 0
        first = capsys.readouterr().out
        assert first.startswith("ingested 3 documents (")
        store_path = tmp_path / "artifacts" / "knowledge.json"
        assert store_path.exists()
        assert f"store: {os.path.join('artifacts', 'knowledge.json')}" in first

        assert cli.main(["kb", "ingest", *files]) == 0
        second = capsys.readouterr().out
        assert second == first

    def test_a_replaced_file_adds_no_chunks_to_the_count(
        self, manuals, tmp_path, monkeypatch, capsys
    ) -> None:
        monkeypatch.chdir(tmp_path)
        decoy = tmp_path / "old" / "engine.md"
        decoy.parent.mkdir()
        decoy.write_text("# Old engine\n\n" + "worn gasket " * 200, encoding="utf-8")
        engine = next(m for m in manuals if m.stem == "engine")
        others = [str(m) for m in manuals if m != engine]
        assert cli.main(["kb", "ingest", str(decoy), str(engine), *others]) == 0
        total = len(VectorStore.load(tmp_path / "artifacts" / "knowledge.json"))
        assert f"({total} chunks, {total} total)" in capsys.readouterr().out
        assert cli.main(["kb", "ingest", *[str(m) for m in manuals]]) == 0
        assert f"({total} chunks, {total} total)" in capsys.readouterr().out

    def test_a_replaced_file_is_not_counted_as_a_document(
        self, manuals, tmp_path, monkeypatch, capsys
    ) -> None:
        monkeypatch.chdir(tmp_path)
        decoy = tmp_path / "old" / "engine.md"
        decoy.parent.mkdir()
        decoy.write_text("# Old engine\n\nworn gasket\n", encoding="utf-8")
        by_stem = {m.stem: str(m) for m in manuals}
        files = [str(decoy), by_stem["engine"], by_stem["electrical"], by_stem["tank_pressure"]]
        assert cli.main(["kb", "ingest", *files]) == 0
        assert capsys.readouterr().out.startswith("ingested 3 documents (")
        store = VectorStore.load(tmp_path / "artifacts" / "knowledge.json")
        assert sorted({c.doc_id for c in store.chunks}) == ["electrical", "engine", "tank_pressure"]

    def test_a_manual_that_is_not_utf8_exits_two(self, tmp_path, monkeypatch, capsys) -> None:
        monkeypatch.chdir(tmp_path)
        manual = tmp_path / "pump.md"
        manual.write_bytes(b"# Pump\n\nCheck the caf\xe9 valve.\n")
        assert cli.main(["kb", "ingest", str(manual)]) == 2
        assert capsys.readouterr().err == f"data error: {manual}: row 3 is not valid UTF-8\n"
        assert not (tmp_path / "artifacts" / "knowledge.json").exists()

    def test_remote_embedder_against_a_dead_endpoint(
        self, manuals, tmp_path, monkeypatch, capsys
    ) -> None:
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("NO_PROXY", "127.0.0.1")
        monkeypatch.setenv("no_proxy", "127.0.0.1")
        rc = cli.main(
            [
                "kb",
                "ingest",
                str(manuals[0]),
                "--embedder",
                "remote",
                "--endpoints.base_url",
                "http://127.0.0.1:9",
                "--endpoints.retries",
                "0",
                "--endpoints.backoff",
                "0",
                "--endpoints.timeout",
                "2",
            ]
        )
        assert rc == 3
        assert capsys.readouterr().err.startswith("endpoint error: ")
        assert not (tmp_path / "artifacts" / "knowledge.json").exists()

    def test_an_ingest_cut_short_keeps_the_previous_store(self, manuals, tmp_path, monkeypatch, capsys) -> None:
        """The file size limit stops the save of a larger store midway, as a full disk would."""
        monkeypatch.chdir(tmp_path)
        assert cli.main(["kb", "ingest", str(manuals[0])]) == 0
        store_path = tmp_path / "artifacts" / "knowledge.json"
        old, old_chunks = store_path.read_bytes(), len(VectorStore.load(store_path))
        proc = subprocess.run(
            [sys.executable, "-c", _LIMITED_CLI, str(len(old) + 1), "kb", "ingest", *map(str, manuals)],
            capture_output=True,
            text=True,
            timeout=120,
            cwd=tmp_path,
            env=_SUBPROCESS_ENV,
        )
        assert proc.returncode == 2
        assert proc.stderr == f"data error: cannot write store: {os.path.join('artifacts', 'knowledge.json')}\n"
        assert proc.stdout == ""
        assert store_path.read_bytes() == old
        assert len(VectorStore.load(store_path)) == old_chunks
        assert not list(tmp_path.rglob("*.tmp"))


class TestTroubleshoot:
    def test_normal_report_exits_four_before_touching_the_store(
        self, tmp_path, monkeypatch, capsys
    ) -> None:
        monkeypatch.chdir(tmp_path)
        report = _normal_report_file(tmp_path / "normal.json")
        rc = cli.main(
            [
                "troubleshoot",
                "--report",
                report,
                "--paths.kb_store",
                str(tmp_path / "missing" / "nowhere.json"),
            ]
        )
        assert rc == 4
        assert "state is normal; nothing to troubleshoot" in capsys.readouterr().out

    def test_anomalous_report_without_kpis_exits_four(
        self, manuals, tmp_path, monkeypatch, capsys
    ) -> None:
        """The state error is over its threshold but no KPI is over its own."""
        monkeypatch.chdir(tmp_path)
        assert cli.main(["kb", "ingest", *[str(m) for m in manuals]]) == 0
        capsys.readouterr()
        verdict = StateVerdict(timestamp=9, state_error=9.0, threshold=0.5, anomalous=True)
        report = tmp_path / "report.json"
        report.write_text(report_to_json(AnomalyReport(verdict=verdict)), encoding="utf-8")
        assert json.loads(report.read_text(encoding="utf-8"))["anomalous_kpis"] == []
        answer = tmp_path / "answer.md"
        rc = cli.main(["troubleshoot", "--report", str(report), "--out", str(answer)])
        assert rc == 4
        assert capsys.readouterr() == (
            "state is anomalous but no KPI is over its own threshold; nothing to troubleshoot\n",
            "",
        )
        assert not answer.exists()

    def test_offline_pipeline_answers_from_the_manuals(
        self, ws, manuals, tmp_path, monkeypatch, capsys
    ) -> None:
        monkeypatch.chdir(tmp_path)

        def _no_network(*args, **kwargs):
            raise AssertionError("offline commands must not touch the network")

        monkeypatch.setattr(endpoints, "post_json", _no_network)
        assert cli.main(["kb", "ingest", *[str(m) for m in manuals]]) == 0
        capsys.readouterr()

        report_path = tmp_path / "report.json"
        rc = cli.main(
            [
                "rank",
                "--data",
                ws.faulty,
                "--model",
                ws.model,
                "--out",
                str(report_path),
                "--paths.descriptors",
                ws.descriptors,
            ]
        )
        assert rc == 0
        capsys.readouterr()

        answer_path = tmp_path / "answer.md"
        rc = cli.main(
            ["troubleshoot", "--report", str(report_path), "--out", str(answer_path)]
        )
        assert rc == 0
        message = capsys.readouterr().out
        assert re.match(r"answered from \d+ sources; answer: ", message)
        lines = answer_path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "# Troubleshooting answer"
        assert lines[1] == ""
        assert lines[2].startswith(
            "**Question.** What is the cause of anomalous values regarding "
        )
        assert "## Answer" in lines
        assert "## Sources" in lines
        assert "## Retrieved chunks" in lines
        sources_at = lines.index("## Sources")
        retrieved_at = lines.index("## Retrieved chunks")
        source_lines = [
            line for line in lines[sources_at:retrieved_at] if line.startswith("- ")
        ]
        assert source_lines
        for line in source_lines:
            assert re.fullmatch(r"- .+ \(.+#\d{4}\)", line)
        retrieved_lines = [
            line for line in lines[retrieved_at:] if line.startswith("- ")
        ]
        assert 1 <= len(retrieved_lines) <= 4
        for line in retrieved_lines:
            assert re.fullmatch(r"- .+#\d{4} \(similarity -?\d\.\d{4}\)", line)

    def test_a_chunk_whose_product_overflows_is_retrieved(self, tmp_path, monkeypatch, capsys) -> None:
        """A stored row near 1e308 (finite norm) loads, scores, and exits 0 without a warning."""
        monkeypatch.chdir(tmp_path)
        chunk = {"doc_id": "d", "section": None, "text": "tank", "char_start": 0, "char_end": 4}
        rows = [[1e308, 1e308], [1.0, 0.0]]
        store = {
            "version": 1,
            "dimension": 2,
            "embedder": "offline",
            "chunks": [{**chunk, "chunk_id": f"d#{i:04d}", "embedding": row} for i, row in enumerate(rows)],
        }
        (tmp_path / "artifacts").mkdir()
        (tmp_path / "artifacts" / "knowledge.json").write_text(json.dumps(store), encoding="utf-8")
        report = _anomalous_report_file(tmp_path / "anomalous.json", with_description=True)
        answer = tmp_path / "answer.md"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["troubleshoot", "--report", report, "--out", str(answer)]) == 0
        assert capsys.readouterr().err == ""
        retrieved = answer.read_text(encoding="utf-8").split("## Retrieved chunks")[1]
        assert re.search(r"^- d#0000 \(similarity \d\.\d{4}\)$", retrieved, re.MULTILINE)

    def test_report_without_descriptions_fails_cleanly(
        self, manuals, tmp_path, monkeypatch, capsys
    ) -> None:
        monkeypatch.chdir(tmp_path)
        assert cli.main(["kb", "ingest", str(manuals[0])]) == 0
        capsys.readouterr()
        report = _anomalous_report_file(
            tmp_path / "bare.json", with_description=False
        )
        rc = cli.main(["troubleshoot", "--report", report])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_report_with_a_numeric_kpi_id_exits_two(
        self, manuals, tmp_path, monkeypatch, capsys
    ) -> None:
        monkeypatch.chdir(tmp_path)
        assert cli.main(["kb", "ingest", str(manuals[0])]) == 0
        capsys.readouterr()
        report = _anomalous_report_file(tmp_path / "anomalous.json", with_description=True)
        payload = json.loads((tmp_path / "anomalous.json").read_text(encoding="utf-8"))
        payload["anomalous_kpis"][0]["id"] = 7
        (tmp_path / "anomalous.json").write_text(json.dumps(payload), encoding="utf-8")
        assert cli.main(["troubleshoot", "--report", report]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: report KPI id is not a string")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("command", ["troubleshoot", "kb"])
    def test_malformed_store_exits_two(
        self, command, manuals, tmp_path, monkeypatch, capsys
    ) -> None:
        monkeypatch.chdir(tmp_path)
        assert cli.main(["kb", "ingest", str(manuals[0])]) == 0
        capsys.readouterr()
        store_path = tmp_path / "artifacts" / "knowledge.json"
        payload = json.loads(store_path.read_text(encoding="utf-8"))
        payload["chunks"][0]["embedding"][0] = float("nan")
        store_path.write_text(json.dumps(payload), encoding="utf-8")
        if command == "kb":
            argv = ["kb", "ingest", str(manuals[1])]
        else:
            report = _anomalous_report_file(tmp_path / "anomalous.json", with_description=True)
            argv = ["troubleshoot", "--report", report]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err.startswith("data error: ")

    @pytest.mark.parametrize("key, value", [("dimension", "4"), ("dimension", 4.7), ("embedder", 5)])
    def test_store_with_a_malformed_header_exits_two(
        self, key, value, manuals, tmp_path, monkeypatch, capsys
    ) -> None:
        monkeypatch.chdir(tmp_path)
        assert cli.main(["kb", "ingest", str(manuals[0])]) == 0
        capsys.readouterr()
        store_path = tmp_path / "artifacts" / "knowledge.json"
        payload = json.loads(store_path.read_text(encoding="utf-8"))
        store_path.write_text(json.dumps({**payload, key: value}), encoding="utf-8")
        assert cli.main(["kb", "ingest", str(manuals[1])]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and key in err and len(err.splitlines()) == 1

    def test_store_with_a_numeric_chunk_text_exits_two(
        self, manuals, tmp_path, monkeypatch, capsys
    ) -> None:
        monkeypatch.chdir(tmp_path)
        assert cli.main(["kb", "ingest", str(manuals[0])]) == 0
        capsys.readouterr()
        store_path = tmp_path / "artifacts" / "knowledge.json"
        payload = json.loads(store_path.read_text(encoding="utf-8"))
        payload["chunks"][0]["text"] = 5
        store_path.write_text(json.dumps(payload), encoding="utf-8")
        report = _anomalous_report_file(tmp_path / "anomalous.json", with_description=True)
        assert cli.main(["troubleshoot", "--report", report]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: store chunk field text") and len(err.splitlines()) == 1

    def test_http_llm_against_a_dead_endpoint(
        self, manuals, tmp_path, monkeypatch, capsys
    ) -> None:
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("NO_PROXY", "127.0.0.1")
        monkeypatch.setenv("no_proxy", "127.0.0.1")
        assert cli.main(["kb", "ingest", str(manuals[0])]) == 0
        capsys.readouterr()
        report = _anomalous_report_file(
            tmp_path / "anomalous.json", with_description=True
        )
        rc = cli.main(
            [
                "troubleshoot",
                "--report",
                report,
                "--llm",
                "http",
                "--endpoints.base_url",
                "http://127.0.0.1:9",
                "--endpoints.retries",
                "0",
                "--endpoints.backoff",
                "0",
                "--endpoints.timeout",
                "2",
            ]
        )
        assert rc == 3
        assert capsys.readouterr().err.startswith("endpoint error: ")

    def test_http_llm_refuses_a_file_url(self, manuals, tmp_path, monkeypatch, capsys) -> None:
        monkeypatch.chdir(tmp_path)
        assert cli.main(["kb", "ingest", str(manuals[0])]) == 0
        capsys.readouterr()
        (tmp_path / "complete").write_text('{"response": "read from disk"}', encoding="utf-8")
        report = _anomalous_report_file(tmp_path / "anomalous.json", with_description=True)
        argv = ["troubleshoot", "--report", report, "--llm", "http", "--endpoints.base_url", tmp_path.as_uri()]
        assert cli.main(argv) == 3
        err = capsys.readouterr().err
        assert err == f"endpoint error: {tmp_path.as_uri()}: base URL must be an http:// or https:// URL\n"


class TestSimulate:
    def test_output_is_deterministic_for_a_seed(
        self, ws, tmp_path, capsys
    ) -> None:
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        for out in (first, second):
            rc = cli.main(
                ["simulate", "--spec", ws.spec_json, "--seed", "22", "--out", str(out)]
            )
            assert rc == 0
        message = capsys.readouterr().out
        assert "simulated 260 states x 4 KPIs (seed 22)" in message
        assert first.read_bytes() == second.read_bytes()
        direct = tmp_path / "direct.csv"
        write_dataset(generate_normal(ws.spec, 22), str(direct))
        assert first.read_bytes() == direct.read_bytes()

    def test_fault_injection_is_reported(self, ws, tmp_path, capsys) -> None:
        out = tmp_path / "faulted.csv"
        rc = cli.main(
            [
                "simulate",
                "--spec",
                ws.spec_json,
                "--seed",
                "23",
                "--fault",
                ws.fault_json,
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        message = capsys.readouterr().out
        assert "offset fault on load@component-1 at t=200" in message
        produced = load_dataset(str(out))
        reference = load_dataset(ws.faulty)
        assert produced.kpis == reference.kpis
        assert (produced.values == reference.values).all()

    def test_fault_on_an_unknown_kpi_is_a_data_error(self, ws, tmp_path, capsys) -> None:
        fault = tmp_path / "fault.json"
        payload = json.loads(fault_to_json(ws.fault))
        fault.write_text(json.dumps({**payload, "target": "nosuch@x"}), encoding="utf-8")
        rc = cli.main(
            [
                "simulate",
                "--spec",
                ws.spec_json,
                "--seed",
                "1",
                "--fault",
                str(fault),
                "--out",
                str(tmp_path / "out.csv"),
            ]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ")
        assert "nosuch@x" in err
        assert len(err.splitlines()) == 1

    def test_a_negative_seed_is_a_usage_error(self, ws, tmp_path, capsys) -> None:
        out = tmp_path / "out.csv"
        assert cli.main(["simulate", "--spec", ws.spec_json, "--seed", "-1", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "usage error: argument --seed: seed must be an integer >= 0, not '-1'\n"
        assert not out.exists()

    def test_a_spec_with_a_negative_seed_is_a_data_error(self, ws, tmp_path, capsys) -> None:
        spec = tmp_path / "spec.json"
        payload = json.loads(Path(ws.spec_json).read_text(encoding="utf-8"))
        spec.write_text(json.dumps({**payload, "seed": -1}), encoding="utf-8")
        out = tmp_path / "out.csv"
        assert cli.main(["simulate", "--spec", str(spec), "--seed", "1", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and err.endswith(f"seed must be >= 0 (in {spec})\n")
        assert err.count("\n") == 1 and not out.exists()
        with pytest.raises(ValueError, match="^seed must be >= 0$"):
            make_chain_spec(components=1, kpis_per_component=1, seed=-1)

    def test_missing_spec_is_a_data_error(self, tmp_path, capsys) -> None:
        rc = cli.main(
            ["simulate", "--spec", str(tmp_path / "nope.json"), "--seed", "1"]
        )
        assert rc == 2
        assert capsys.readouterr().err.startswith("data error: ")


class TestEvaluate:
    def test_table_curve_and_stdout(self, ws, tmp_path, capsys) -> None:
        scenarios_dir = tmp_path / "scenarios"
        scenarios_dir.mkdir()
        (scenarios_dir / "quiet.csv").write_bytes(Path(ws.quiet).read_bytes())
        (scenarios_dir / "faulty.csv").write_bytes(Path(ws.faulty).read_bytes())
        (scenarios_dir / "faulty.fault.json").write_text(
            fault_to_json(ws.fault), encoding="utf-8"
        )
        out_dir = tmp_path / "eval"
        rc = cli.main(
            [
                "evaluate",
                "--scenarios",
                str(scenarios_dir),
                "--model",
                ws.model,
                "--out-dir",
                str(out_dir),
                "--sigma_grid",
                "1.5,3,4.5",
            ]
        )
        assert rc == 0

        classifier = load_classifier(ws.model)
        scenarios = [
            Scenario(
                name="faulty",
                dataset=load_dataset(str(scenarios_dir / "faulty.csv")),
                fault=load_fault(str(scenarios_dir / "faulty.fault.json")),
            ),
            Scenario(
                name="quiet",
                dataset=load_dataset(str(scenarios_dir / "quiet.csv")),
                fault=None,
            ),
        ]
        table = evaluate_scenarios(classifier, scenarios, GRID)
        assert (out_dir / "evaluation.csv").read_text(encoding="utf-8") == table.to_csv()
        curve = table.elbow_curve()
        expected_curve = "sigma,total_fp\n" + "".join(
            f"{sigma:g},{fp}\n" for sigma, fp in curve
        )
        assert (out_dir / "elbow.csv").read_text(encoding="utf-8") == expected_curve
        expected_stdout = (
            table.to_text()
            + f"elbow: sigma={select_elbow(curve):g}\n"
            + f"table: {os.path.join(str(out_dir), 'evaluation.csv')}\n"
            + f"curve: {os.path.join(str(out_dir), 'elbow.csv')}\n"
        )
        assert capsys.readouterr().out == expected_stdout

    def test_two_point_grid_reports_no_elbow(self, ws, tmp_path, capsys) -> None:
        """The line ``tune`` prints for the same grid."""
        scenarios_dir = tmp_path / "scenarios"
        scenarios_dir.mkdir()
        (scenarios_dir / "quiet.csv").write_bytes(Path(ws.quiet).read_bytes())
        out_dir = tmp_path / "eval"
        argv = ["evaluate", "--scenarios", str(scenarios_dir), "--model", ws.model, "--out-dir", str(out_dir)]
        assert cli.main([*argv, "--sigma_grid", "1.5,3"]) == 0
        assert capsys.readouterr().out.splitlines()[-3:] == [
            "elbow: needs at least 3 grid points",
            f"table: {out_dir / 'evaluation.csv'}",
            f"curve: {out_dir / 'elbow.csv'}",
        ]

    def test_empty_scenario_directory(self, ws, tmp_path, capsys) -> None:
        empty = tmp_path / "none"
        empty.mkdir()
        rc = cli.main(
            ["evaluate", "--scenarios", str(empty), "--model", ws.model]
        )
        assert rc == 1
        assert "no scenario CSV files" in capsys.readouterr().err


class TestConfigPlumbing:
    def test_config_file_sets_the_sigma(self, ws, tmp_path, capsys) -> None:
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"classifier": {"sigma": 6.0}}), encoding="utf-8")
        out = tmp_path / "v.csv"
        rc = cli.main(
            [
                "detect",
                "--config",
                str(config),
                "--data",
                ws.quiet,
                "--model",
                ws.model,
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        assert " at sigma=6 " in capsys.readouterr().out

    def test_flag_overrides_the_config_file(self, ws, tmp_path, capsys) -> None:
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"classifier": {"sigma": 6.0}}), encoding="utf-8")
        out = tmp_path / "v.csv"
        rc = cli.main(
            [
                "detect",
                "--config",
                str(config),
                "--classifier.sigma",
                "9",
                "--data",
                ws.quiet,
                "--model",
                ws.model,
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        assert " at sigma=9 " in capsys.readouterr().out

    def test_unknown_config_field_is_a_data_error(self, ws, tmp_path, capsys) -> None:
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"bogus": 1}), encoding="utf-8")
        rc = cli.main(
            ["detect", "--config", str(config), "--data", ws.quiet, "--model", ws.model]
        )
        assert rc == 2
        assert "unknown config field: bogus" in capsys.readouterr().err

    def test_garbled_config_file_is_a_data_error(self, ws, tmp_path, capsys) -> None:
        config = tmp_path / "config.json"
        config.write_text("{broken", encoding="utf-8")
        rc = cli.main(
            ["detect", "--config", str(config), "--data", ws.quiet, "--model", ws.model]
        )
        assert rc == 2
        assert "config file is not valid JSON" in capsys.readouterr().err
