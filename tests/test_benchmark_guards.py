"""Guards that keep the checked-in benchmark runnable against the package.

The preset tables must stay within 1e-9 of the reference tables the
benchmark checks against, the bright security table must pass the
benchmark's own output check, every function the benchmark's tracer wraps
must still exist where it looks for it, and every result its span summaries
read must still have the fields they read.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from pnrchan import ChannelParams, cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
PRESETS = {"fig3": "sweep", "fig4": "sweep", "fig5": "security", "fig6": "security"}


def read_table(path):
    lines = [line for line in Path(path).read_text().splitlines()
             if line and not line.startswith("#")]
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_preset_matches_reference_table(tmp_path, preset):
    out = tmp_path / f"{preset}.csv"
    assert cli.main([PRESETS[preset], "--preset", preset, "-o", str(out)]) == 0
    columns, rows = read_table(out)
    ref_columns, ref_rows = read_table(PERFBENCH / "reference" / f"{preset}.csv")
    assert columns == ref_columns
    assert len(rows) == len(ref_rows)
    for row, ref in zip(rows, ref_rows):
        for column, cell, ref_cell in zip(columns, row, ref):
            if "undefined" in (cell, ref_cell):
                assert cell == ref_cell, column
            else:
                assert abs(float(cell) - float(ref_cell)) <= 1e-9, column


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def spans():
    return load_perfbench("spans")


@pytest.mark.parametrize("seed", [1, 2])
def test_bright_security_table_passes_the_benchmark_check(tmp_path, seed):
    bright = load_perfbench("workloads").Bright(seed, tmp_path)
    command = next(c for c in bright.commands if c.name == "security")
    assert cli.main(command.argv) == 0
    assert bright.check(command) == []


def test_every_traced_name_resolves(spans):
    for module_name, names in spans.TRACED.items():
        module = importlib.import_module(module_name)
        for name in names:
            assert callable(getattr(module, name, None)), f"{module_name}.{name}"


@pytest.mark.parametrize("preset, points", [("fig3", 25), ("fig5", 22)])
def test_traced_preset_counts_each_point_once(spans, tmp_path, preset, points):
    # a driver that nests the other would count each point twice
    tracer = spans.Tracer()
    with spans.installed(tracer):
        assert cli.main([PRESETS[preset], "--preset", preset,
                         "-o", str(tmp_path / "x.csv")]) == 0
    assert spans.pass_metrics(tracer.spans)["sweeps.points"] == points


def test_tracer_installs_and_restores(spans):
    from pnrchan import information

    original = information.mi_wf
    tracer = spans.Tracer()
    with spans.installed(tracer):
        assert information.mi_wf is not original
        information.mi_wf(ChannelParams(alpha=1.0, lo_amplitude=1.0))
    assert information.mi_wf is original
    assert "information.mi_wf" in {span.name for span in tracer.spans}


def test_traced_shot_run_summarises_every_span(spans, tmp_path, capsys):
    shots, report = tmp_path / "shots.csv", tmp_path / "report.json"
    tracer = spans.Tracer()
    with spans.installed(tracer):
        assert cli.main(["simulate", "--signal-mean", "3.07", "--lo-mean", "12.17",
                         "--xi", "0.94", "--shots", "200", "-o", str(shots)]) == 0
        assert cli.main(["analyze", str(shots), "--known-lo-mean", "12.17",
                         "-o", str(report)]) == 0
    summarised = [span for span in tracer.spans if span.name in spans.SUMMARIES]
    assert {span.name for span in summarised} >= {
        "montecarlo.run_experiment", "montecarlo.empirical_distributions",
        "recordio.write_shot_records", "recordio.read_shot_records"}
    assert all(span.info is not None for span in summarised)
