import argparse
import ast
import dataclasses
import gc
import hashlib
import json
import math
import os
import stat
import subprocess
import sys
import tempfile
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from pnrchan import cli, receivers, recordio, sweeps
from pnrchan.errors import ValidationError
from pnrchan.recordio import parse_config, read_shot_records, write_text_atomic

from oracles import read_columns


def run_cli(*args):
    return cli.main(list(args))


def child_env():
    """The environment of a child interpreter that imports this package's source."""
    env = dict(os.environ)
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


class TestSimulateAnalyze:
    def test_simulate_writes_the_documented_format(self, tmp_path, capsys):
        out = tmp_path / "shots.csv"
        code = run_cli("simulate", "--signal-mean", "2.0", "--lo-mean", "8.0",
                       "--xi", "0.9", "--shots", "200", "--seed", "5",
                       "-o", str(out))
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "shot_id,symbol,n_t,n_r"
        assert len(lines) == 401
        assert lines[1].split(",")[1] == "0"
        summary = capsys.readouterr().out
        assert "plugin_mi[wf]" in summary

    def test_fixed_seed_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ("simulate", "--signal-mean", "2.0", "--lo-mean", "8.0",
                "--xi", "0.9", "--shots", "500", "--seed", "42")
        assert run_cli(*args, "-o", str(a)) == 0
        assert run_cli(*args, "-o", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_seeded_file_is_pinned(self, tmp_path):
        """The Philox streams and the writer together: these bytes are those of
        every earlier release for this seed."""
        out = tmp_path / "shots.csv"
        assert run_cli("simulate", "--signal-mean", "3.07", "--lo-mean", "12.17",
                       "--xi", "0.94", "--shots", "20000", "--seed", "7",
                       "-o", str(out)) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "fd3abc67b7e50aa3dd4da3fded9b1436d59956218c43ab7ca7a693213fabedc0")

    def test_multi_chunk_seeded_file_is_pinned(self, tmp_path):
        """Three Philox chunks per symbol, the last one partial: the bytes do
        not depend on how many threads draw them or in which order."""
        out = tmp_path / "shots.csv"
        assert run_cli("simulate", "--signal-mean", "3.07", "--lo-mean", "12.17",
                       "--xi", "0.94", "--shots", "140000", "--seed", "7",
                       "-o", str(out)) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "7415e390aec1b507e7dbc632c4b03449f1bea81824b42c678aa8277fca38f17f")

    @pytest.mark.parametrize("lo_mean", ["1e18", "2e19", "1e300"])
    def test_a_mean_too_large_to_record_is_refused_before_drawing(self, tmp_path, capsys,
                                                                  monkeypatch, lo_mean):
        def no_stream(*_args):
            raise AssertionError("a Philox stream was built")

        monkeypatch.setattr(np.random, "Philox", no_stream)
        out = tmp_path / "shots.csv"
        assert run_cli("simulate", "--signal-mean", "3", "--lo-mean", lo_mean, "--xi", "0.9",
                       "--shots", "10", "-o", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("pnrchan: error: arm mean ") and err.count("\n") == 1
        assert "count limit 2147483647" in err and "Traceback" not in err
        assert not list(tmp_path.iterdir())

    # the second would wrap to a legal 1 in an int32 column
    @pytest.mark.parametrize("count", [2**31, 2**32 + 1])
    def test_a_draw_over_the_count_limit_is_refused_before_any_file(self, tmp_path, capsys,
                                                                    monkeypatch, count):
        class WildDraws:
            def __init__(self, _bit_generator):
                pass

            def poisson(self, _mu, size):
                counts = np.zeros(size, dtype=np.int64)
                counts[-1] = count
                return counts

        monkeypatch.setattr(np.random, "Generator", WildDraws)
        out = tmp_path / "shots.csv"
        assert run_cli("simulate", "--signal-mean", "3", "--lo-mean", "12", "--xi", "0.9",
                       "--shots", "10", "-o", str(out)) == 1
        err = capsys.readouterr().err
        assert err == (f"pnrchan: error: drew a count of {count}, above the count limit "
                       "2147483647\n")
        assert not list(tmp_path.iterdir())

    def test_means_that_overflow_the_arm_means_are_named(self, tmp_path, capsys):
        # the sum of the means overflows, and inf - inf is a NaN arm mean
        assert run_cli("simulate", "--signal-mean", "1e308", "--lo-mean", "1e308",
                       "--shots", "3", "-o", str(tmp_path / "x.csv")) == 1
        err = capsys.readouterr().err
        assert err == ("pnrchan: error: arm means must be finite, got (nan, inf) for symbol 0 "
                       "and (inf, nan) for symbol 1; lower the means\n")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("args, message", [
        (("--shots", "0"), "argument --shots: must be an integer >= 1, got 0"),
        (("--shots", "-5"), "argument --shots: must be an integer >= 1, got -5"),
        (("--shots", "1.5"), "argument --shots: invalid int value: '1.5'"),
        (("--seed", "-1"), "argument --seed: must be an integer >= 0, got -1"),
    ])
    def test_a_refused_simulate_names_the_flag(self, tmp_path, capsys, args, message):
        code = run_cli("simulate", "--signal-mean", "2.0", "--lo-mean", "8.0",
                       "--shots", "10", *args, "-o", str(tmp_path / "x.csv"))
        assert code == 1
        assert capsys.readouterr().err == f"pnrchan: error: {message}\n"
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("to_file", [True, False], ids=["output", "stdout"])
    def test_analyze_streams_the_bytes_json_dumps_would_write(self, tmp_path, capsys,
                                                              monkeypatch, to_file):
        # LO 2000 spreads 3000 shots per symbol over thousands of cells, so the
        # report is written in many pieces
        shots = tmp_path / "shots.csv"
        run_cli("simulate", "--signal-mean", "3", "--lo-mean", "2000", "--xi", "0.9",
                "--shots", "3000", "--seed", "2", "-o", str(shots))
        payloads = []

        def recorded(payload):
            payloads.append(payload)
            return real(payload)

        real = cli._json_pieces
        monkeypatch.setattr(cli, "_json_pieces", recorded)
        capsys.readouterr()
        report = tmp_path / "report.json"
        assert run_cli("analyze", str(shots), "--known-lo-mean", "2000",
                       *(["-o", str(report)] if to_file else [])) == 0
        expected = json.dumps(payloads[0], indent=2, sort_keys=True) + "\n"
        assert len(list(real(payloads[0]))) > 5
        written = report.read_bytes() if to_file else capsys.readouterr().out.encode()
        assert written == expected.encode()

    def test_analyze_round_trip_reproduces_summary(self, tmp_path, capsys):
        out = tmp_path / "shots.csv"
        run_cli("simulate", "--signal-mean", "3.07", "--lo-mean", "12.17",
                "--xi", "0.94", "--shots", "2000", "--seed", "7", "-o", str(out))
        capsys.readouterr()
        report_path = tmp_path / "report.json"
        code = run_cli("analyze", str(out), "--known-lo-mean", "12.17",
                       "-o", str(report_path))
        assert code == 0
        payload = json.loads(report_path.read_text())
        run = read_columns(out)
        assert payload["arm_means"]["symbol1"]["n"] == pytest.approx(
            run.n[run.symbols == 1].mean())
        assert payload["calibration"]["xi"] == pytest.approx(0.94, abs=0.05)
        assert 0.9 < payload["plugin_mi"]["wf"]["value"] <= 1.0

    def test_analyze_stdout_when_no_output(self, tmp_path, capsys):
        out = tmp_path / "shots.csv"
        run_cli("simulate", "--signal-mean", "1.0", "--lo-mean", "4.0",
                "--shots", "50", "--seed", "1", "-o", str(out))
        capsys.readouterr()
        assert run_cli("analyze", str(out)) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["calibration"] is None

    def test_analyze_rejects_single_symbol_file(self, tmp_path, capsys):
        path = tmp_path / "one.csv"
        path.write_text("shot_id,symbol,n_t,n_r\n0,1,3,1\n1,1,2,0\n")
        assert run_cli("analyze", str(path)) == 1
        assert "symbol" in capsys.readouterr().err

    def test_analyze_rejects_header_only_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("shot_id,symbol,n_t,n_r\n")
        assert run_cli("analyze", str(path)) == 1

    def test_analyze_names_malformed_line(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("shot_id,symbol,n_t,n_r\n0,1,3,1\n1,1,oops,0\n")
        assert run_cli("analyze", str(path)) == 1
        assert "line 3" in capsys.readouterr().err

    def test_analyze_of_an_undecodable_file_is_one_line(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"shot_id,symbol,n_t,n_r\n0,0,1,2\n1,1,\xff3,0\n")
        out = tmp_path / "report.json"
        assert run_cli("analyze", str(path), "-o", str(out)) == 1
        err = capsys.readouterr().err
        assert err == (f"pnrchan: error: {path}: line 3: byte 0xff is not UTF-8 "
                       "(invalid start byte)\n")
        assert not out.exists()

    def test_analyze_ignores_line_ends_comments_and_blank_lines(self, tmp_path):
        plain = tmp_path / "plain.csv"
        assert run_cli("simulate", "--signal-mean", "3.07", "--lo-mean", "12.17",
                       "--xi", "0.94", "--shots", "300", "--seed", "3",
                       "-o", str(plain)) == 0
        header, *rows = plain.read_text().splitlines()
        rows[100:100] = ["# a note in the body", "", "   "]
        dressed = tmp_path / "dressed.csv"
        dressed.write_bytes("\r\n".join(["# provenance", "", header, *rows, ""]).encode())
        reports = []
        for path in (plain, dressed):
            reports.append(tmp_path / f"{path.stem}.json")
            assert run_cli("analyze", str(path), "--known-lo-mean", "12.17",
                           "-o", str(reports[-1])) == 0
        assert reports[0].read_bytes() == reports[1].read_bytes()

    # the first overflows int64, the second only the law's 31-bit count bound;
    # the last two fit ten digits, and a 32-bit sum would wrap both
    @pytest.mark.parametrize("count", ["99999999999999999999", "2147483648", "4294967297",
                                       "9999999999"])
    def test_analyze_names_a_count_too_large(self, tmp_path, capsys, count):
        path = tmp_path / "big.csv"
        path.write_text(f"shot_id,symbol,n_t,n_r\n0,1,3,1\n1,0,{count},0\n")
        out = tmp_path / "report.json"
        assert run_cli("analyze", str(path), "-o", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("pnrchan: error: ") and "line 3" in err
        assert err.count("\n") == 1
        assert not out.exists()

    def test_analyze_of_an_outlier_count_stays_sparse(self, tmp_path):
        path = tmp_path / "outlier.csv"
        path.write_text("shot_id,symbol,n_t,n_r\n0,0,1,4\n1,1,5,2\n2,1,3,0\n"
                        "3,0,1000000000,0\n")
        out = tmp_path / "report.json"
        assert run_cli("analyze", str(path), "-o", str(out)) == 0
        payload = json.loads(out.read_text())
        assert [1000000000, 0, 0.5, 0.0] in payload["empirical"]["wf_cells"]
        assert len(payload["empirical"]["wf_cells"]) == 4
        assert payload["empirical"]["hl"]["deltas"] == [-3, 3, 1000000000]

    @pytest.mark.parametrize("flag", ["--known-lo-mean", "--known-signal-mean"])
    @pytest.mark.parametrize("value", ["-5", "inf", "nan"])
    def test_negative_or_non_finite_known_mean_is_named(self, tmp_path, capsys, flag,
                                                         value):
        shots = tmp_path / "shots.csv"
        run_cli("simulate", "--signal-mean", "3.07", "--lo-mean", "12.17",
                "--xi", "0.94", "--shots", "100", "-o", str(shots))
        capsys.readouterr()
        out = tmp_path / "report.json"
        assert run_cli("analyze", str(shots), f"{flag}={value}", "-o", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("pnrchan: error: ") and flag[2:].replace("-", "_") in err
        assert err.count("\n") == 1
        assert not out.exists()


class TestSweep:
    def test_small_sweep_table(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = run_cli("sweep", "--mode", "lo", "--signal-mean", "2.0",
                       "--xi", "0.9", "--grid", "1:9:5",
                       "--strategies", "wf,hl,bds", "-o", str(out))
        assert code == 0
        lines = out.read_text().splitlines()
        header = [l for l in lines if not l.startswith("#")][0]
        assert header == "lo_mean,i_wf,i_hl,i_bds,trunc_err"
        assert len([l for l in lines if not l.startswith("#")]) == 6

    def test_empty_strategy_list_rejected(self, tmp_path):
        code = run_cli("sweep", "--mode", "lo", "--signal-mean", "2.0",
                       "--grid", "1:9:5", "--strategies", "",
                       "-o", str(tmp_path / "x.csv"))
        assert code == 1

    def test_non_monotone_grid_rejected(self, tmp_path):
        code = run_cli("sweep", "--mode", "lo", "--signal-mean", "2.0",
                       "--grid", "1,3,2", "-o", str(tmp_path / "x.csv"))
        assert code == 1

    def test_homodyne_column_of_a_bright_signal(self, tmp_path):
        # the reference is 1 bit here, good to its rounding whatever the signal
        out = tmp_path / "x.csv"
        assert run_cli("sweep", "--mode", "lo", "--signal-mean", "1e9", "--grid", "1",
                       "--strategies", "hom", "-o", str(out)) == 0
        assert out.read_text().splitlines()[-1].split(",")[:2] == ["1", "1"]

    def test_unwritable_path_is_io_error(self, tmp_path):
        target = tmp_path / "missing-dir" / "out.csv"
        code = run_cli("sweep", "--mode", "lo", "--signal-mean", "2.0",
                       "--grid", "1:9:3", "-o", str(target))
        assert code == 2
        assert not target.exists()

    def test_failed_run_leaves_no_partial_output(self, tmp_path):
        target = tmp_path / "out.csv"
        code = run_cli("sweep", "--mode", "lo", "--signal-mean", "2.0",
                       "--grid", "1,2,oops", "-o", str(target))
        assert code == 1
        assert not target.exists()
        assert not list(tmp_path.iterdir())

    def test_rates_whose_product_underflows_keep_their_cross_term(self, tmp_path):
        # the product of the means underflows, but the cross term does not:
        # the rates are (1.5e-300, 5e-301) and their mirror, so the difference
        # readout carries (1.5 ln 1.5 + 0.5 ln 0.5) 1e-300 / ln 2 bits, while
        # the sign readout's error rounds to exactly 1/2
        out = tmp_path / "x.csv"
        code = run_cli("sweep", "--mode", "lo", "--signal-mean", "1e-300",
                       "--lo-mean", "1e-300", "--xi", "0.5", "--grid", "1e-300",
                       "-o", str(out))
        assert code == 0
        assert out.read_text() == (
            "# pnrchan 0.1.0\n# command = sweep\n# mode = lo\n"
            "# signal_mean = 1e-300\n# lo_mean = 1e-300\n# xi = 0.5\n"
            "# strategies = wf,hl,bds\n# grid = 1e-300\n# tail_tol = 1e-10\n"
            "lo_mean,i_wf,i_hl,i_bds,trunc_err\n"
            "1e-300,3.77443751082e-301,3.77443751082e-301,0,0\n"
        )

    def test_subnormal_rates_certify_their_tail(self, tmp_path):
        out = tmp_path / "x.csv"
        code = run_cli("sweep", "--mode", "lo", "--signal-mean", "1e-310",
                       "--lo-mean", "1e-310", "--xi", "0.5", "--grid", "1e-310",
                       "-o", str(out))
        assert code == 0
        header, row = out.read_text().splitlines()[-2:]
        assert header == "lo_mean,i_wf,i_hl,i_bds,trunc_err"
        lo_mean, i_wf, i_hl, *rest = row.split(",")
        assert lo_mean == "1e-310"
        # the laws differ by the cross term: each symbol lights one arm at
        # 1.5e-310 and the other at 0.5e-310, so one count names the symbol
        # with, to first order, 1e-310 * (1.5 log2 1.5 - 0.5) bits
        exact = 1e-310 * (1.5 * math.log2(1.5) - 0.5)
        assert float(i_wf) == pytest.approx(exact, rel=1e-10, abs=0.0)
        assert float(i_hl) == pytest.approx(exact, rel=1e-10, abs=0.0)
        # the sign law moves its outcomes by only -+5e-311 from 1/2, so
        # i_bds is of second order (about 7e-621 bits) and underflows
        assert all(0.0 <= float(v) <= 1e-300 for v in rest)

    def test_subnormal_one_sided_laws_keep_their_information(self, tmp_path):
        # at xi 1 each symbol darkens one arm; a count of 1 on the lit arm,
        # of probability 2e-310, names the symbol, so I_WF = I_HL = 2e-310 bits
        out = tmp_path / "x.csv"
        assert run_cli("sweep", "--mode", "lo", "--signal-mean", "1e-310",
                       "--lo-mean", "1e-310", "--xi", "1", "--grid", "1e-310",
                       "-o", str(out)) == 0
        assert out.read_text().splitlines()[-1] == "1e-310,2e-310,2e-310,0,0"

    def test_point_mass_laws_print_a_plain_zero(self, tmp_path):
        # no light: both symbols give the count pair (0, 0), entropy +0, not -0
        out = tmp_path / "x.csv"
        assert run_cli("sweep", "--mode", "lo", "--signal-mean", "0", "--lo-mean", "0",
                       "--xi", "0.5", "--grid", "0", "-o", str(out)) == 0
        assert out.read_text().splitlines()[-1] == "0,0,0,0,0"

    def test_equal_subnormal_laws_carry_no_information(self, tmp_path):
        # at xi 0 the symbols give one law; halving its subnormal bins rounds,
        # yet the mixture is that law, so the information is exactly 0
        out = tmp_path / "x.csv"
        assert run_cli("sweep", "--mode", "lo", "--signal-mean", "1e-310",
                       "--lo-mean", "1e-310", "--xi", "0", "--grid", "1e-310",
                       "-o", str(out)) == 0
        assert out.read_text().splitlines()[-1] == "1e-310,0,0,0,0"

    def test_zero_tail_tolerance_fails_certification(self, tmp_path):
        code = run_cli("sweep", "--mode", "lo", "--signal-mean", "2.0",
                       "--grid", "1:9:3", "--tail-tol", "0",
                       "-o", str(tmp_path / "x.csv"))
        assert code == 3

    def test_negative_tail_tolerance_names_its_value(self, tmp_path, capsys):
        code = run_cli("security", "--preset", "fig5", "--tail-tol", "-1",
                       "-o", str(tmp_path / "x.csv"))
        assert code == 3
        assert capsys.readouterr().err == (
            "pnrchan: error: tail tolerance -1 cannot be certified on an infinite "
            "alphabet; it must be > 0\n")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("command", ["sweep", "security"])
    @pytest.mark.parametrize("tail_tol", ["nan", "inf"])
    def test_non_finite_tail_tolerance_is_a_validation_error(self, tmp_path, command,
                                                             tail_tol):
        preset = "fig4" if command == "sweep" else "fig5"
        code = run_cli(command, "--preset", preset, "--tail-tol", tail_tol,
                       "-o", str(tmp_path / "x.csv"))
        assert code == 1
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("args", [
        ("sweep", "--mode", "loss", "--lo-mean", "-1"),
        ("security", "--lo-mean", "12.15", "--eve-lo-mean", "-1"),
        ("sweep", "--mode", "loss", "--lo-mean", "12.15", "--security", "ia-dr",
         "--eve-lo-mean", "-4"),
        ("sweep", "--mode", "loss", "--lo-mean", "inf"),
        ("security", "--lo-mean", "12.15", "--eve-lo-mean", "nan"),
    ])
    def test_negative_or_non_finite_lo_mean_is_a_validation_error(self, tmp_path, capsys,
                                                                  args):
        out = tmp_path / "x.csv"
        code = run_cli(*args, "--signal-mean", "3.2", "--xi", "0.94",
                       "--grid", "0:13.44:3", "-o", str(out))
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("pnrchan: error: ") and "lo_mean" in err
        assert err.count("\n") == 1
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("args, message", [
        (("--xi", "a"), "error: argument --xi: bad number list 'a'"),
        (("--strategies", "wf,xx"), "unknown strategy 'xx'"),
        (("--security", "ia-xx"), "unknown security scenario 'ia-xx'"),
        (("--xi", ","), "need at least one visibility"),
        (("--xi", "0.9,0.95", "--security", "ia-dr"), "security columns need a single visibility"),
        (("--mode", "loss"), "loss mode needs a fixed lo_mean"),
        (("--grid", ","), "grid must not be empty"),
        (("--grid", "1:2"), "grid spec must be start:stop:count, got '1:2'"),
        (("--grid", "a:2:3"), "bad grid spec 'a:2:3'"),
        (("--grid", "1:2:0"), "grid count must be >= 1"),
        (("--grid", "2,1,3"), "grid must be strictly monotone"),
        (("--grid", "1,x"), "bad grid list '1,x'"),
    ])
    def test_a_refused_sweep_is_one_error_line_and_no_file(self, tmp_path, capsys, args,
                                                           message):
        out = tmp_path / "x.csv"
        # the flags given last win: each case overrides a sweep that would run
        code = run_cli("sweep", "--mode", "lo", "--signal-mean", "3", "--grid", "1,2",
                       *args, "-o", str(out))
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("pnrchan: error: ") and err.count("\n") == 1
        assert message in err and "_parse" not in err  # no internal name
        assert not list(tmp_path.iterdir())

    def test_workers_do_not_change_bytes(self, tmp_path):
        # Each row depends on its grid point alone: cutting the grid into
        # one-point runs, as any split of the work would, gives the same bytes.
        args = ("sweep", "--mode", "loss", "--signal-mean", "3.2",
                "--lo-mean", "12.15", "--xi", "0.94", "--strategies", "wf,bds",
                "--security", "ia-dr,ia-rr")
        whole, part = tmp_path / "whole.csv", tmp_path / "part.csv"
        assert run_cli(*args, "--grid", "0:13.44:7", "-o", str(whole)) == 0
        header, *rows = [l for l in whole.read_text().splitlines()
                         if not l.startswith("#")]
        assert header.startswith("loss_db,") and len(rows) == 7
        for value, row in zip(np.linspace(0, 13.44, 7), rows):
            assert run_cli(*args, "--grid", repr(float(value)), "-o", str(part)) == 0
            assert part.read_text().splitlines()[-2:] == [header, row]

    def test_rerun_is_idempotent(self, tmp_path):
        a, b = tmp_path / "r1.csv", tmp_path / "r2.csv"
        for args in [("sweep", "--preset", "fig3"), ("security", "--preset", "fig5")]:
            assert run_cli(*args, "-o", str(a)) == 0
            assert run_cli(*args, "-o", str(b)) == 0
            assert a.read_bytes() == b.read_bytes(), args

    def test_workers_environment_variable_is_ignored(self, tmp_path, monkeypatch):
        args = ("sweep", "--mode", "lo", "--signal-mean", "2.0",
                "--grid", "1:5:4", "--strategies", "hl")
        plain, with_env = tmp_path / "plain.csv", tmp_path / "env.csv"
        monkeypatch.delenv("PNRCHAN_WORKERS", raising=False)
        assert run_cli(*args, "-o", str(plain)) == 0
        monkeypatch.setenv("PNRCHAN_WORKERS", "zero")
        assert run_cli(*args, "-o", str(with_env)) == 0
        assert plain.read_bytes() == with_env.read_bytes()

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "my.cfg"
        cfg.write_text("mode = lo\nsignal_mean = 2.0\nxi = 0.9\n"
                       "grid = 1:9:4\nstrategies = wf\n")
        out = tmp_path / "out.csv"
        assert run_cli("sweep", "--config", str(cfg), "--strategies", "wf,bds",
                       "-o", str(out)) == 0
        header = [l for l in out.read_text().splitlines()
                  if not l.startswith("#")][0]
        assert header == "lo_mean,i_wf,i_bds,trunc_err"

    def test_visibility_band_columns(self, tmp_path):
        out = tmp_path / "band.csv"
        assert run_cli("sweep", "--mode", "lo", "--signal-mean", "3.07",
                       "--xi", "0.86,0.91", "--grid", "6:12.17:3",
                       "--strategies", "wf", "-o", str(out)) == 0
        header = [l for l in out.read_text().splitlines()
                  if not l.startswith("#")][0]
        assert header == "lo_mean,i_wf[xi=0.86],i_wf[xi=0.91],trunc_err"

    def test_fixed_loss_in_loss_mode_rejected(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        code = run_cli("sweep", "--mode", "loss", "--signal-mean", "3.2",
                       "--lo-mean", "12.15", "--grid", "0:13.44:3", "--loss-db", "3",
                       "-o", str(out))
        assert code == 1
        assert "fixed_loss_db" in capsys.readouterr().err
        assert not out.exists()

    def test_gnuplot_script_emission(self, tmp_path):
        out = tmp_path / "table.csv"
        script = tmp_path / "table.gp"
        assert run_cli("sweep", "--mode", "lo", "--signal-mean", "2.0",
                       "--grid", "1:5:3", "--strategies", "wf,hl",
                       "--gnuplot-script", str(script), "-o", str(out)) == 0
        text = script.read_text()
        assert str(out) in text
        assert "i_hl" in text and "plot" in text


class TestSecurityCommand:
    def test_lossless_row_has_unit_k(self, tmp_path):
        out = tmp_path / "sec.csv"
        assert run_cli("security", "--signal-mean", "3.2", "--lo-mean", "12.15",
                       "--xi", "0.94", "--grid", "0,3,6", "-o", str(out)) == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        header = lines[0].split(",")
        first = dict(zip(header, lines[1].split(",")))
        assert first["loss_db"] == "0"
        assert first["k_dr"] == "1" and first["k_ca_wf"] == "1"
        assert first["i_ae_wf"] == "0"

    def test_no_signal_rows_use_the_sentinel(self, tmp_path):
        out = tmp_path / "sec0.csv"
        assert run_cli("security", "--signal-mean", "0", "--lo-mean", "4.0",
                       "--xi", "0.9", "--grid", "1,2", "-o", str(out)) == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        header = lines[0].split(",")
        row = dict(zip(header, lines[1].split(",")))
        assert row["k_dr"] == "undefined"
        assert row["i_ab_wf"] == "0"

    @pytest.mark.parametrize("channel", [
        ("--signal-mean", "3", "--lo-mean", "3000", "--xi", "0", "--grid", "3"),
        ("--signal-mean", "3", "--lo-mean", "0", "--xi", "0.9", "--grid", "3"),
    ])
    def test_symbol_blind_bob_prints_exact_zeros(self, tmp_path, channel):
        # with xi = 0 or no LO, Bob's two laws coincide: his outcome says
        # nothing about the symbol, so neither can it say anything to Eve
        out = tmp_path / "sec.csv"
        assert run_cli("security", *channel, "-o", str(out)) == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        row = dict(zip(lines[0].split(","), lines[1].split(",")))
        for column in ("i_ab_wf", "i_be_wf", "chi_be_wf", "chi_be_bds"):
            assert row[column] == "0", column

    def test_table_is_the_loss_sweep_with_every_scenario(self, tmp_path):
        security, sweep = tmp_path / "security.csv", tmp_path / "sweep.csv"
        assert run_cli("security", "--preset", "fig5", "-o", str(security)) == 0
        assert run_cli("sweep", "--mode", "loss", "--signal-mean", "3.2",
                       "--lo-mean", "12.15", "--xi", "0.94", "--grid", "0:13.44:22",
                       "--strategies", "wf,bds", "--security", "ia-dr,ia-rr,ca-rr",
                       "-o", str(sweep)) == 0
        tables = []
        for path in (security, sweep):
            header, *rows = [l.split(",") for l in path.read_text().splitlines()
                             if not l.startswith("#")]
            tables.append([dict(zip(header, row)) for row in rows])
        renamed = {"i_ab_wf": "i_wf", "i_ab_bds": "i_bds"}
        assert len(tables[0]) == len(tables[1]) == 22
        for by_security, by_sweep in zip(*tables):
            assert len(by_security) == len(by_sweep) == 18
            for column, cell in by_security.items():
                assert by_sweep[renamed.get(column, column)] == cell, column

    @pytest.mark.parametrize("change", [
        {"mode": "lo", "lo_mean": None},
        {"strategies": ("wf", "hl", "bds")},
        {"strategies": ("wf",)},
        {"security": ("ia-dr", "ca-rr")},
    ])
    def test_run_security_takes_only_its_own_layout(self, change):
        spec = sweeps.SweepSpec(mode="loss", signal_mean=3.2, grid=(0.0,),
                                strategies=("bds", "wf"), lo_mean=12.15,
                                security=tuple(sweeps.SECURITY_SCENARIOS))
        columns, rows = sweeps.run_security(spec)
        assert columns[3:5] == ["i_ab_wf", "i_ab_bds"] and len(rows[0]) == 18
        with pytest.raises(ValidationError, match="loss sweep of wf,bds"):
            sweeps.run_security(dataclasses.replace(spec, **change))

    def test_every_cell_is_finite_or_sentinel(self, tmp_path):
        out = tmp_path / "sec.csv"
        assert run_cli("security", "--preset", "fig6", "-o", str(out)) == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        for line in lines[1:]:
            for cell in line.split(","):
                if cell == "undefined":
                    continue
                assert np.isfinite(float(cell))


class TestPresets:
    def test_listing_names_all_bundled_presets(self, capsys):
        assert run_cli("presets") == 0
        out = capsys.readouterr().out
        for name in ("fig3", "fig4", "fig5", "fig6"):
            assert name in out

    def test_unknown_preset_rejected(self, tmp_path):
        assert run_cli("sweep", "--preset", "fig99",
                       "-o", str(tmp_path / "x.csv")) == 1

    def test_preset_command_mismatch_rejected(self, tmp_path):
        assert run_cli("security", "--preset", "fig3",
                       "-o", str(tmp_path / "x.csv")) == 1

    @pytest.mark.parametrize("name", ["fig3", "fig4", "fig5", "fig6"])
    def test_preset_keys_as_flags_write_the_preset_bytes(self, tmp_path, name):
        with resources.as_file(resources.files("pnrchan") / "presets" / f"{name}.cfg") as path:
            cfg = parse_config(path)
        command = cfg.pop("command")
        del cfg["description"]
        flags = [arg for key, value in cfg.items()
                 for arg in (f"--{key.replace('_', '-')}", value)]
        by_preset, by_flags = tmp_path / "preset.csv", tmp_path / "flags.csv"
        assert run_cli(command, "--preset", name, "-o", str(by_preset)) == 0
        assert run_cli(command, *flags, "-o", str(by_flags)) == 0
        assert by_preset.read_bytes() == by_flags.read_bytes()

    # the first line of each table names the package version, so a release
    # that bumps it re-pins these; so does a change of the tail certificate,
    # which moves the trunc_err column alone, or of the rounding of the
    # figures, which moves the last digits of the Delta and K columns of fig5
    # and fig6 (differences and ratios of figures, so a 1e-16 move shows)
    PINNED = {
        "fig3": "86b134baea0dcfbe51826289d0bc3477da137d3eb8d3fae8353ff88e9733544d",
        "fig4": "d536c634a28a1879627e1b6f155d9b46fca00ab87fce684896bb74b1e5a10f21",
        "fig5": "7e02ba13f1dc81a679d1568ed381bbbaab2ca6453bad27295f7c10e324b891a1",
        "fig6": "c9600eea4b99f229c6665297f0f4e1363a3872e9eba94c753bdb08eb879dae71",
    }

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_preset_table_is_pinned(self, tmp_path, name):
        """Every cell and the preamble: these bytes are those of earlier
        releases, where the reference tables allow 1e-9 a cell."""
        command = "sweep" if name in ("fig3", "fig4") else "security"
        out = tmp_path / f"{name}.csv"
        assert run_cli(command, "--preset", name, "-o", str(out)) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.PINNED[name]

    def test_config_parser(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("# comment\nkey = some value\n\nother=2\n")
        assert parse_config(cfg) == {"key": "some value", "other": "2"}


SWEEP_CFG = "mode = lo\nsignal_mean = 2.0\ngrid = 1:9:3\n"


class TestRuntimePath:
    """Every law comes from the Skellam recurrence, and every figure, the
    homodyne reference included, is a mean over one posterior of symbol 1's
    law: no command calls the Poisson evaluators, which serve the count-pair
    oracle alone, nor the mixture-entropy sums ``mutual_information`` and
    ``shannon_entropy``, which serve the plug-in estimates of sampled laws."""

    COMMANDS = {
        "fig3": ("sweep", "--preset", "fig3"),
        "fig4": ("sweep", "--preset", "fig4"),
        "fig5": ("security", "--preset", "fig5"),
        "fig6": ("security", "--preset", "fig6"),
        # Bob's reflected arm is dark (signal and LO means 5, xi 1)
        "dark_sweep": ("sweep", "--mode", "lo", "--signal-mean", "5", "--grid", "5",
                       "--xi", "1", "--loss-db", "3", "--strategies", "wf,hl,bds,hom",
                       "--security", "ia-dr,ia-rr,ca-rr"),
        "dark_zero_mean": ("sweep", "--mode", "lo", "--signal-mean", "0", "--lo-mean", "0",
                           "--xi", "0.5", "--grid", "0"),
        "dark_security": ("security", "--signal-mean", "10", "--lo-mean", "5", "--xi", "1",
                          "--grid", "3.0103"),
    }

    @pytest.mark.parametrize("name", sorted(COMMANDS))
    def test_no_command_calls_a_poisson_evaluator(self, tmp_path, monkeypatch, name):
        args = self.COMMANDS[name]
        plain, patched = tmp_path / "plain.csv", tmp_path / "patched.csv"
        assert run_cli(*args, "-o", str(plain)) == 0

        def forbidden(*_args, **_kwargs):
            raise AssertionError("a Poisson evaluator or a mixture entropy ran")

        # in every module, so that no import by name escapes the patch
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "pnrchan"]
        for module in modules:
            for attr in ("poisson_pmf", "poisson_logpmf", "poisson_window",
                         "mutual_information", "shannon_entropy"):
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, forbidden)
        dark, window = [], receivers.skellam_window

        def recording(mu_t, mu_r, *rest):
            dark.append(0.0 in (mu_t, mu_r))
            return window(mu_t, mu_r, *rest)

        monkeypatch.setattr(receivers, "skellam_window", recording)
        assert run_cli(*args, "-o", str(patched)) == 0
        assert patched.read_bytes() == plain.read_bytes()
        assert any(dark) == name.startswith("dark")


class TestConfigFiles:
    """A config file is a list of the command's own flags, checked like flags."""

    def run_config(self, tmp_path, capsys, text, command="sweep"):
        cfg = tmp_path / "my.cfg"
        cfg.write_text(text)
        out = tmp_path / "out.csv"
        code = run_cli(command, "--config", str(cfg), "-o", str(out))
        if code != 0:
            assert not out.exists()
        return code, capsys.readouterr().err

    def test_unknown_key_is_named(self, tmp_path, capsys):
        code, err = self.run_config(tmp_path, capsys, SWEEP_CFG + "lo_means = 7\n")
        assert code == 1
        assert err.startswith("pnrchan: error: ") and "'lo_means'" in err
        assert err.count("\n") == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["my.cfg"]

    def test_unparsable_value_is_one_line(self, tmp_path, capsys):
        code, err = self.run_config(tmp_path, capsys,
                                    "mode = lo\nsignal_mean = abc\ngrid = 1:9:3\n")
        assert code == 1
        assert err.startswith("pnrchan: error: ") and "'abc'" in err
        assert err.count("\n") == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["my.cfg"]

    @pytest.mark.parametrize("extra, message", [
        ("preset = fig3\n", "'preset'"),
        ("config = other.cfg\n", "'config'"),
        ("command = security\n", "'security'"),
        ("sig = 2.0\n", "'sig'"),
        ("workers = 2\n", "'workers'"),
    ])
    def test_keys_that_are_not_this_commands_flags_rejected(self, tmp_path, capsys,
                                                            extra, message):
        code, err = self.run_config(tmp_path, capsys, SWEEP_CFG + extra)
        assert code == 1
        assert message in err and err.count("\n") == 1

    def test_every_key_is_a_flag(self, tmp_path, capsys):
        cfg = tmp_path / "my.cfg"
        cfg.write_text("command = simulate\ndescription = a small run\n"
                       "signal_mean = 2.0\nlo_mean = 8.0\nxi = 0.9\nshots = 50\n"
                       f"seed = 4\noutput = {tmp_path / 'a.csv'}\n")
        assert run_cli("simulate", "--config", str(cfg)) == 0
        assert run_cli("simulate", "--signal-mean", "2.0", "--lo-mean", "8.0",
                       "--xi", "0.9", "--shots", "50", "--seed", "4",
                       "-o", str(tmp_path / "b.csv")) == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_value_that_looks_like_a_flag_reaches_the_command(self, tmp_path, capsys):
        # spliced as --grid=-3:-1:3; as two words argparse would read the
        # value as a flag and report a missing argument instead
        code, err = self.run_config(tmp_path, capsys,
                                    "mode = lo\nsignal_mean = 2.0\ngrid = -3:-1:3\n")
        assert code == 1
        assert "LO mean must be finite and >= 0, got -3.0" in err

    @pytest.mark.parametrize("data, line_no", [
        (b"mode = lo\nsignal_mean = 2.0\xff\ngrid = 1:9:3\n", 2),
        # lines end as in text mode, at LF, CRLF or CR; a form feed ends none
        (b"mode = lo\r\nxi = 0.9\x0c\rsignal_mean = \xff2\ngrid = 1:9:3\n", 3),
    ])
    def test_undecodable_file_is_one_line(self, tmp_path, capsys, data, line_no):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(data)
        out = tmp_path / "x.csv"
        assert run_cli("sweep", "--config", str(cfg), "-o", str(out)) == 1
        assert capsys.readouterr().err == (f"pnrchan: error: {cfg}: line {line_no}: "
                                           "byte 0xff is not UTF-8 (invalid start byte)\n")
        assert not out.exists()

    def test_preset_and_config_are_exclusive(self, tmp_path):
        cfg = tmp_path / "my.cfg"
        cfg.write_text(SWEEP_CFG)
        assert run_cli("sweep", "--preset", "fig3", "--config", str(cfg),
                       "-o", str(tmp_path / "x.csv")) == 1


class TestOptionSets:
    """Every option each command takes, pinned: a new knob shows up here."""

    OPTIONS = {
        "sweep": ["--config", "--eve-lo-mean", "--gnuplot-script", "--grid", "--help",
                  "--lo-mean", "--loss-db", "--mode", "--output", "--preset",
                  "--security", "--signal-mean", "--strategies", "--tail-tol",
                  "--xi", "-h", "-o"],
        "security": ["--config", "--eve-lo-mean", "--gnuplot-script", "--grid", "--help",
                     "--lo-mean", "--output", "--preset", "--signal-mean", "--tail-tol",
                     "--xi", "-h", "-o"],
        "simulate": ["--config", "--help", "--lo-mean", "--output", "--seed", "--shots",
                     "--signal-mean", "--xi", "-h", "-o"],
        "analyze": ["--help", "--known-lo-mean", "--known-signal-mean", "--output",
                    "-h", "-o"],
    }

    @pytest.mark.parametrize("command", sorted(OPTIONS))
    def test_option_strings_are_pinned(self, command):
        subparsers = next(action for action in cli.build_parser()._actions
                          if isinstance(action, argparse._SubParsersAction))
        actions = subparsers.choices[command]._actions
        assert sorted(s for a in actions for s in a.option_strings) == self.OPTIONS[command]

    # each was a second spelling of another flag, was accepted and ignored, or
    # chose the process pool that rows are no longer built in
    @pytest.mark.parametrize("command, flag, value", [
        ("sweep", "--alpha", "1.5"),
        ("sweep", "--transmissivity", "0.5"),
        ("sweep", "--workers", "2"),
        ("security", "--alpha", "1.5"),
        ("security", "--transmissivity", "0.5"),
        ("security", "--loss-db", "7"),
        ("security", "--workers", "1000000000"),
        ("simulate", "--alpha", "1.5"),
        ("simulate", "--transmissivity", "0.5"),
        ("simulate", "--loss-db", "9"),
        ("simulate", "--preset", "fig3"),
        ("simulate", "--tail-tol", "5"),
    ])
    def test_removed_option_is_rejected(self, tmp_path, capsys, command, flag, value):
        base = {
            "sweep": ("--mode", "loss", "--signal-mean", "3.2", "--lo-mean", "12.15",
                      "--grid", "0:6:3"),
            "security": ("--signal-mean", "3.2", "--lo-mean", "12.15", "--grid", "0:6:3"),
            "simulate": ("--signal-mean", "2.0", "--lo-mean", "8.0", "--shots", "10"),
        }[command]
        out = tmp_path / "x.csv"
        assert run_cli(command, *base, "-o", str(out)) == 0
        out.unlink()
        assert run_cli(command, *base, flag, value, "-o", str(out)) == 1
        err = capsys.readouterr().err
        assert err == f"pnrchan: error: unrecognized arguments: {flag} {value}\n"
        assert not out.exists()
        # named also when the command's required flags are missing
        assert run_cli(command, flag, value, "-o", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"pnrchan: error: unrecognized arguments: {flag} {value}; "
                              "the following arguments are required: ")
        assert err.count("\n") == 1
        assert not out.exists()


class TestEnvironment:
    """Every environment read in the package, pinned: a new knob shows up here."""

    NAMES = ("environ", "environb", "getenv", "getenvb")
    READS = []

    def test_environment_reads_are_pinned(self):
        reads = []
        for path in sorted(Path(cli.__file__).resolve().parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
                if isinstance(node, ast.Attribute) and node.attr in self.NAMES:
                    reads.append(f"{path.name}: {ast.unparse(node)}")
                elif isinstance(node, ast.Name) and node.id in self.NAMES:
                    reads.append(f"{path.name}: {node.id}")
                elif isinstance(node, ast.alias) and node.name in self.NAMES:
                    reads.append(f"{path.name}: import {node.name}")
        assert reads == self.READS


class TestRecordIo:
    def test_comment_lines_are_skipped_on_read(self, tmp_path):
        path = tmp_path / "shots.csv"
        text = "# provenance note\nshot_id,symbol,n_t,n_r\n0,0,1,2\n1,1,3,0\n"
        # as written, with CRLF line ends, and after a UTF-8 BOM
        for data in (text.encode(), text.replace("\n", "\r\n").encode(),
                     text.encode("utf-8-sig")):
            path.write_bytes(data)
            run = read_columns(path)
            assert (run.symbols.tolist(), run.n.tolist(), run.m.tolist()) == (
                [0, 1], [1, 3], [2, 0])

    def test_wrong_header_is_named(self, tmp_path):
        path = tmp_path / "shots.csv"
        path.write_text("id,symbol,a,b\n0,0,1,2\n")
        with pytest.raises(ValidationError) as err:
            read_shot_records(path)
        assert str(err.value) == (f"{path}: line 1: expected header "
                                  "'shot_id,symbol,n_t,n_r', got 'id,symbol,a,b'")

    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
    def test_written_files_honour_the_umask(self, tmp_path, umask):
        path = tmp_path / "table.csv"
        old = os.umask(umask)
        try:
            write_text_atomic(path, "a,b\n")
        finally:
            os.umask(old)
        assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~umask
        assert path.read_text() == "a,b\n"

    def test_written_file_is_synced_before_the_rename(self, tmp_path, monkeypatch):
        events, synced = [], []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            events.append("fsync")
            synced.append(stat.S_ISDIR(os.fstat(fd).st_mode))
            real_fsync(fd)

        def replace(src, dst):
            events.append("replace")
            real_replace(src, dst)

        monkeypatch.setattr(recordio.os, "fsync", fsync)
        monkeypatch.setattr(recordio.os, "replace", replace)
        write_text_atomic(tmp_path / "out.txt", "x\n")
        # the file before the rename, its directory after it
        assert events == ["fsync", "replace", "fsync"]
        assert synced == [False, True]

    def test_atomic_write_takes_the_text_in_pieces(self, tmp_path):
        write_text_atomic(tmp_path / "out.txt", iter(["a,", "é", "\n"]))
        assert (tmp_path / "out.txt").read_bytes() == "a,é\n".encode()

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("--version")
        assert exc.value.code == 0


# the CLI's entry point, with an exit hook that writes the process's peak RSS
# (VmHWM) to the file named by the first argument
PEAK_ENTRY = ("import atexit, sys\n"
              "def record_peak(path=sys.argv.pop(1)):\n"
              "    with open('/proc/self/status') as status, open(path, 'w') as out:\n"
              "        out.write(next(line for line in status if line.startswith('VmHWM:')))\n"
              "atexit.register(record_peak)\n"
              "from pnrchan.cli import main\n"
              "sys.exit(main())\n")


def peak_mb(record, *args):
    """The peak RSS, in MB, of one ``pnrchan`` command run in a child."""
    proc = subprocess.run([sys.executable, "-c", PEAK_ENTRY, str(record), *args],
                          env=child_env(), capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return int(record.read_text().split()[1]) / 1024


# the program entry as PEAK_ENTRY runs it, with an exit hook that writes the
# collector's freeze count and whether it is enabled to the file named by the
# first argument
FREEZE_ENTRY = ("import atexit, gc, sys\n"
                "def record_collector(path=sys.argv.pop(1)):\n"
                "    with open(path, 'w') as out:\n"
                "        out.write(f'{gc.get_freeze_count()} {gc.isenabled()}')\n"
                "atexit.register(record_collector)\n"
                "from pnrchan.cli import main\n"
                "sys.exit(main())\n")


def run_entry(record, *args):
    """Run one ``pnrchan`` command in a child; return it and its collector record."""
    proc = subprocess.run([sys.executable, "-c", FREEZE_ENTRY, str(record), *args],
                          env=child_env(), capture_output=True, text=True, timeout=300)
    frozen, enabled = record.read_text().split()
    return proc, int(frozen), enabled


class TestProcess:
    def test_the_program_entry_freezes_its_import_heap(self, tmp_path):
        out = tmp_path / "child.csv"
        proc, frozen, enabled = run_entry(tmp_path / "record", "security", "--preset",
                                          "fig6", "-o", str(out))
        assert proc.returncode == 0, proc.stderr
        assert frozen > 1000 and enabled == "True"
        assert run_cli("security", "--preset", "fig6", "-o", str(tmp_path / "here.csv")) == 0
        assert out.read_bytes() == (tmp_path / "here.csv").read_bytes()

    def test_a_refused_command_at_the_entry_is_one_error_line(self, tmp_path):
        proc, frozen, _ = run_entry(tmp_path / "record", "sweep", "--mode", "lo",
                                    "--signal-mean", "3", "--grid", "1,x",
                                    "-o", str(tmp_path / "x.csv"))
        assert proc.returncode == 1 and frozen > 0
        assert proc.stderr.startswith("pnrchan: error: ") and proc.stderr.count("\n") == 1
        assert [p.name for p in tmp_path.iterdir()] == ["record"]

    def test_main_with_an_argv_list_leaves_the_collector_alone(self, tmp_path):
        assert run_cli("sweep", "--preset", "fig3", "-o", str(tmp_path / "x.csv")) == 0
        assert gc.get_freeze_count() == 0 and gc.isenabled()

    def test_importing_the_package_leaves_the_collector_alone(self):
        code = ("import gc, pnrchan, pnrchan.cli; "
                "print(gc.get_freeze_count(), gc.isenabled())")
        proc = subprocess.run([sys.executable, "-c", code], env=child_env(),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "0 True\n"

    @pytest.mark.parametrize("patched, args, advice", [
        ("run_sweep", ("sweep", "--preset", "fig3"),
         "use a smaller --grid or a looser --tail-tol"),
        ("run_security", ("security", "--preset", "fig5"),
         "use a smaller --grid or a looser --tail-tol"),
        ("run_experiment", ("simulate", "--signal-mean", "3", "--lo-mean", "12",
                            "--shots", "10"), "use fewer --shots"),
        ("read_shot_records", ("analyze", "shots.csv"), "on the shot file shots.csv"),
    ])
    def test_out_of_memory_is_one_line_without_traceback(self, tmp_path, monkeypatch,
                                                         capsys, patched, args, advice):
        def exhaust(*_args):
            raise MemoryError

        monkeypatch.setattr(cli, patched, exhaust)
        code = run_cli(*args, "-o", str(tmp_path / "x.out"))
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("pnrchan: error: out of memory")
        assert advice in err
        assert err.count("\n") == 1
        assert not list(tmp_path.iterdir())

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                        reason="the peak RSS is read from /proc/self/status")
    def test_shot_commands_take_the_same_memory_at_ten_times_the_shots(self, tmp_path):
        # each command holds a block per thread and the tally, never a column
        # of the whole run: 2e6 rows cost less than 4 MB more than 2e5
        peaks = {}
        for shots in (100_000, 1_000_000):
            path = tmp_path / f"shots{shots}.csv"
            peaks["simulate", shots] = peak_mb(
                tmp_path / "peak", "simulate", "--signal-mean", "3.07", "--lo-mean", "12.17",
                "--xi", "0.94", "--shots", str(shots), "--seed", "3", "-o", str(path))
            peaks["analyze", shots] = peak_mb(tmp_path / "peak", "analyze", str(path),
                                              "-o", str(tmp_path / "report.json"))
        for command in ("simulate", "analyze"):
            assert peaks[command, 1_000_000] - peaks[command, 100_000] < 4.0, peaks

    def test_cli_import_loads_no_scipy_module(self):
        # the shot writer runs its own threads: a pool module, with the logging
        # it imports, would cost every CLI process its import; no law needs
        # decimal arithmetic
        heavy = ("concurrent.futures", "concurrent.futures.process", "decimal",
                 "logging", "multiprocessing")
        code = ("import sys, pnrchan.cli; "
                "print(' '.join(sorted(m for m in sys.modules if m == 'scipy' "
                "or m.startswith('scipy.') "
                f"or m in {heavy!r})))")
        proc = subprocess.run([sys.executable, "-c", code], env=child_env(),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == []

    def test_package_source_imports_no_scipy(self):
        # the sys.modules check above cannot see an import inside a function
        # that the import itself does not run; this scan can
        def is_scipy(name):
            return name is not None and (name == "scipy" or name.startswith("scipy."))

        found = []
        for path in sorted(Path(cli.__file__).resolve().parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
                if isinstance(node, ast.Import):
                    found += [f"{path.name}:{node.lineno}: import {a.name}"
                              for a in node.names if is_scipy(a.name)]
                elif isinstance(node, ast.ImportFrom) and is_scipy(node.module):
                    found.append(f"{path.name}:{node.lineno}: from {node.module}")
                elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                      and is_scipy(node.value)):
                    found.append(f"{path.name}:{node.lineno}: {node.value!r}")
        assert found == []


class TestInputDomain:
    """Means whose difference window would exceed the bin budget, and losses
    whose transmissivity or source mean leaves the doubles, are refused before
    any law is built: exit 1, one error line that names them, no output
    file."""

    BUDGET = str(receivers._MAX_WINDOW_BINS)

    @pytest.mark.parametrize("args, named", [
        (("sweep", "--mode", "lo", "--signal-mean", "1e300", "--grid", "12"), BUDGET),
        (("sweep", "--mode", "lo", "--signal-mean", "3", "--grid", "1e308"), BUDGET),
        (("sweep", "--mode", "lo", "--signal-mean", "3", "--grid", "1e20"), BUDGET),
        (("sweep", "--mode", "lo", "--signal-mean", "3", "--grid", "1e16"), BUDGET),
        (("sweep", "--mode", "lo", "--signal-mean", "3", "--grid", "1e12"), BUDGET),
        (("security", "--signal-mean", "3", "--lo-mean", "1e20", "--grid", "3"), BUDGET),
        (("security", "--signal-mean", "3", "--lo-mean", "1e12", "--grid", "3"), BUDGET),
        # the rates themselves overflow
        (("sweep", "--mode", "lo", "--signal-mean", "1e308", "--grid", "1e308"), "finite"),
        # the transmissivity underflows to 0, or the source mean behind it overflows
        (("sweep", "--mode", "lo", "--signal-mean", "3", "--loss-db", "3300", "--grid", "1,2"),
         "loss of 3300 dB"),
        (("sweep", "--mode", "lo", "--signal-mean", "3", "--loss-db", "3100", "--grid", "1,2"),
         "loss of 3100 dB"),
        (("security", "--signal-mean", "3", "--lo-mean", "12", "--grid", "0,1e308"),
         "loss of 1e+308 dB"),
        (("sweep", "--mode", "loss", "--signal-mean", "3", "--lo-mean", "12", "--grid", "3300"),
         "loss of 3300 dB"),
    ])
    def test_huge_means_are_refused(self, tmp_path, capsys, args, named):
        assert run_cli(*args, "-o", str(tmp_path / "x.csv")) == 1
        err = capsys.readouterr().err
        assert err.count("pnrchan: error: ") == 1 and err.count("\n") == 1
        assert "Traceback" not in err and named in err
        assert not list(tmp_path.iterdir())

    def test_lo_mean_1e7_runs(self, tmp_path):
        out = tmp_path / "x.csv"
        assert run_cli("sweep", "--mode", "lo", "--signal-mean", "3", "--grid", "1e7",
                       "-o", str(out)) == 0
        assert out.read_text().splitlines()[-1].startswith("10000000,")


# A child that runs the CLI on its argv under an address-space limit a few
# hundred MB above its footprint once the package is imported (about 144 MB),
# so that a blow-up fails the test and never presses on the host's memory.
LIMITED_CLI = """
import resource, sys
import pnrchan.cli
with open("/proc/self/status") as status:
    size = next(int(line.split()[1]) for line in status if line.startswith("VmSize:"))
limit = (size << 10) + (400 << 20)
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
sys.exit(pnrchan.cli.main(sys.argv[1:]))
"""
# log-uniform over [0, 1.78e308] (10**-324 is 0, and the subnormals are in), and
# the largest double and the values no power of ten reaches
MEANS = st.floats(-324.0, 308.25).map(lambda e: 10.0 ** e) | st.sampled_from(
    [sys.float_info.max, math.inf, math.nan, -0.0])


@st.composite
def one_point_argv(draw):
    """A one-point ``sweep``, ``security`` or ``simulate`` on two drawn means and,
    for the first two, a drawn loss in dB."""
    first, second, loss = (repr(draw(MEANS)) for _ in range(3))
    return draw(st.sampled_from([
        ["sweep", "--mode", "lo", "--signal-mean", first, "--grid", second, "--loss-db", loss],
        ["security", "--signal-mean", first, "--lo-mean", second, "--grid", loss],
        ["simulate", "--signal-mean", first, "--lo-mean", second, "--shots", "3"],
    ]))


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(argv=one_point_argv())
def test_every_mean_is_certified_or_refused(argv):
    """Whatever the means, a run ends with a result (exit 0, nothing on stderr)
    or with one error line (exit 1 or 3), never a traceback, and a refused
    run leaves no file.  The children run one at a time."""
    with tempfile.TemporaryDirectory() as directory:
        proc = subprocess.run(
            [sys.executable, "-c", LIMITED_CLI, *argv, "-o", os.path.join(directory, "out")],
            env=child_env(), capture_output=True, text=True, timeout=300)
        left = os.listdir(directory)
    assert proc.returncode in (0, 1, 3), proc.stderr
    assert "Traceback" not in proc.stderr
    if proc.returncode:
        assert proc.stderr.startswith("pnrchan: error: ") and proc.stderr.count("\n") == 1
        assert left == []
    else:
        assert proc.stderr == "" and left == ["out"]
