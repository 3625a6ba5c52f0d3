"""The three benchmark workloads: their commands, seeded inputs and output checks.

A workload is a list of ``pnrchan`` command lines split into two stages.  The
benchmark runs each command line as a subprocess (end to end) or through
``pnrchan.cli.main`` in process (traced run); after every run it hands the
output files to the workload's ``check``, which returns the problems it found
(empty when the output is correct).  Inputs come only from the benchmark seed: the program
sees the generated command lines and files, never the seed itself.
"""

import hashlib
import json
import math
from pathlib import Path

import numpy as np

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
SHOT_HEADER = "shot_id,symbol,n_t,n_r"


class Command:
    """One CLI invocation: ``argv`` for ``pnrchan``, its stage and output files."""

    def __init__(self, name, stage, argv, outputs):
        self.name = name
        self.stage = stage
        self.argv = argv
        self.outputs = outputs


def _read_table(path):
    """Split a result table into its column header and rows of cell strings."""
    lines = [line for line in Path(path).read_text().splitlines()
             if line and not line.startswith("#")]
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _half_unit(cell):
    """Rounding of a cell printed with 12 significant digits (``.12g``)."""
    value = abs(float(cell))
    return 0.5 * 10.0 ** (math.floor(math.log10(value)) - 11) if value else 0.0


def _rates(signal_mean, lo_mean, xi, symbol):
    """Analytic Poisson means (transmitted, reflected) of the two arms."""
    cross = (1.0 if symbol == 1 else -1.0) * 2.0 * xi * math.sqrt(signal_mean * lo_mean)
    return 0.5 * (signal_mean + lo_mean + cross), 0.5 * (signal_mean + lo_mean - cross)


# ---------------------------------------------------------------------------
# paper: the four bundled presets as shipped
# ---------------------------------------------------------------------------

class Paper:
    """The four figure presets; every table must match the recorded reference."""

    name = "paper"
    stage_names = ("sweep_wall_s", "security_wall_s")
    tolerance = 1e-9

    def __init__(self, seed, workdir):
        self.inputs = {}
        self.commands = [
            Command(fig, 1 if command == "sweep" else 2,
                    [command, "--preset", fig, "-o", str(workdir / f"{fig}.csv")],
                    [workdir / f"{fig}.csv"])
            for fig, command in (("fig3", "sweep"), ("fig4", "sweep"),
                                 ("fig5", "security"), ("fig6", "security"))
        ]

    def prepare(self):
        pass

    def check(self, command):
        columns, rows = _read_table(command.outputs[0])
        ref_columns, ref_rows = _read_table(REFERENCE_DIR / f"{command.name}.csv")
        if columns != ref_columns:
            return [f"{command.name}: columns {columns} differ from the reference"]
        if len(rows) != len(ref_rows):
            return [f"{command.name}: {len(rows)} rows, reference has {len(ref_rows)}"]
        problems = []
        for i, (row, ref) in enumerate(zip(rows, ref_rows)):
            for column, cell, ref_cell in zip(columns, row, ref):
                if "undefined" in (cell, ref_cell):
                    ok = cell == ref_cell
                else:
                    ok = abs(float(cell) - float(ref_cell)) <= self.tolerance
                if not ok:
                    problems.append(f"{command.name} row {i} {column}: {cell} vs reference {ref_cell}")
        return problems


# ---------------------------------------------------------------------------
# bright: the stress regime, LO means of 1e3 to 1e4
# ---------------------------------------------------------------------------

class Bright:
    """Large-LO sweep and security table; outputs must satisfy the MI invariants.

    The tables print 12 significant digits, so every comparison of two cells
    also allows the rounding of each cell (half a unit in its 12th digit).
    """

    name = "bright"
    stage_names = ("sweep_wall_s", "security_wall_s")

    def __init__(self, seed, workdir):
        rng = np.random.default_rng(np.random.SeedSequence((seed, 0xB41)))
        self.signal_mean = round(float(rng.uniform(3.0, 3.4)), 6)
        self.xi = round(float(rng.uniform(0.90, 0.96)), 6)
        self.inputs = {"signal_mean": self.signal_mean, "xi": self.xi}
        channel = ["--signal-mean", repr(self.signal_mean), "--xi", repr(self.xi)]
        self.commands = [
            Command("sweep", 1,
                    ["sweep", "--mode", "lo", *channel, "--grid", "1000:10000:10",
                     "--strategies", "wf,hl,bds,hom", "-o", str(workdir / "bright_sweep.csv")],
                    [workdir / "bright_sweep.csv"]),
            Command("security", 2,
                    ["security", *channel, "--lo-mean", "3000", "--grid", "0:13.44:8",
                     "-o", str(workdir / "bright_security.csv")],
                    [workdir / "bright_security.csv"]),
        ]

    def prepare(self):
        pass

    def check(self, command):
        columns, rows = _read_table(command.outputs[0])
        expected_rows = 10 if command.name == "sweep" else 8
        if len(rows) != expected_rows:
            return [f"{command.name}: {len(rows)} rows, expected {expected_rows}"]
        problems = []
        invariants = self._sweep_invariants if command.name == "sweep" else self._security_invariants
        for i, cells in enumerate(rows):
            checks = invariants(dict(zip(columns, cells)))
            problems += [f"{command.name} row {i}: {what}" for what, ok in checks if not ok]
        return problems

    @staticmethod
    def _sweep_invariants(row):
        wf, hl, bds, err = (float(row[k]) for k in ("i_wf", "i_hl", "i_bds", "trunc_err"))
        slack = sum(_half_unit(row[k]) for k in ("i_wf", "i_hl", "i_bds"))
        return [
            ("|i_wf - i_hl| <= trunc_err + 1e-12", abs(wf - hl) <= err + 1e-12 + slack),
            ("0 <= i_bds", bds >= 0.0),
            ("i_bds <= i_hl + 1e-12", bds <= hl + 1e-12 + slack),
            ("i_hl <= 1 + 1e-12", hl <= 1.0 + 1e-12),
        ]

    @staticmethod
    def _security_invariants(row):
        def value(key):
            return float(row[key]), _half_unit(row[key])

        chi, chi_r = value("chi_be_wf")
        i_be, i_be_r = value("i_be_wf")
        rr, rr_r = value("delta_ia_rr")
        dr, dr_r = value("delta_ia_dr")
        return [
            ("chi_be_wf >= i_be_wf - 1e-9", chi >= i_be - 1e-9 - chi_r - i_be_r),
            ("delta_ia_rr >= delta_ia_dr - 1e-12", rr >= dr - 1e-12 - rr_r - dr_r),
        ]


# ---------------------------------------------------------------------------
# shots: Monte Carlo generation and shot-file ingestion at 5e5 shots per symbol
# ---------------------------------------------------------------------------

class Shots:
    """``simulate`` writes a shot file; ``analyze`` reads one the benchmark wrote.

    The analyze input comes from the benchmark's own generator and writer, so
    a change to the program's writer never changes what ``analyze`` reads.
    """

    name = "shots"
    stage_names = ("simulate_wall_s", "analyze_wall_s")
    signal_mean, lo_mean, xi = 3.07, 12.17, 0.94
    shots_per_symbol = 500_000

    def __init__(self, seed, workdir):
        self.seed = seed
        self.input_path = workdir / "bench_shots.csv"
        self.inputs = {"simulate_seed": seed}
        self.commands = [
            Command("simulate", 1,
                    ["simulate", "--signal-mean", repr(self.signal_mean),
                     "--lo-mean", repr(self.lo_mean), "--xi", repr(self.xi),
                     "--shots", str(self.shots_per_symbol), "--seed", str(seed),
                     "-o", str(workdir / "simulated.csv")],
                    [workdir / "simulated.csv"]),
            Command("analyze", 2,
                    ["analyze", str(self.input_path), "--known-lo-mean", repr(self.lo_mean),
                     "-o", str(workdir / "analysis.json")],
                    [workdir / "analysis.json"]),
        ]

    def prepare(self):
        """Generate and write the analyze input; record what it holds."""
        rng = np.random.default_rng(np.random.SeedSequence((self.seed, 0x5407)))
        per = self.shots_per_symbol
        symbols = rng.permutation(np.repeat(np.array([0, 1], dtype=np.int64), per))
        rates = np.array([_rates(self.signal_mean, self.lo_mean, self.xi, k) for k in (0, 1)])
        n = rng.poisson(rates[symbols, 0])
        m = rng.poisson(rates[symbols, 1])
        columns = np.column_stack([np.arange(2 * per), symbols, n, m])
        with open(self.input_path, "w", encoding="ascii", newline="") as handle:
            handle.write(SHOT_HEADER + "\n")
            for block in np.array_split(columns, 8):
                handle.write(("%d,%d,%d,%d\n" * len(block)) % tuple(block.ravel().tolist()))
        data = self.input_path.read_bytes()
        self.expected = {}
        for k in (0, 1):
            mask = symbols == k
            nk, mk = n[mask], m[mask]
            deltas, counts = np.unique(nk - mk, return_counts=True)
            self.expected[k] = {
                "shots": int(mask.sum()),
                "n_sum": int(nk.sum()),
                "m_sum": int(mk.sum()),
                "hl": dict(zip(deltas.tolist(), counts.tolist())),
            }
        self.inputs.update(analyze_input_bytes=len(data),
                           analyze_input_sha256=hashlib.sha256(data).hexdigest())

    def check(self, command):
        if command.name == "simulate":
            return self._check_simulated(command.outputs[0])
        return self._check_analysis(command.outputs[0])

    def _check_simulated(self, path):
        with open(path) as handle:
            header = handle.readline().strip()
        if header != SHOT_HEADER:
            return [f"simulate: header {header!r}"]
        table = np.loadtxt(path, delimiter=",", skiprows=1, dtype=np.int64, ndmin=2)
        if table.shape != (2 * self.shots_per_symbol, 4):
            return [f"simulate: {table.shape[0]} rows, expected {2 * self.shots_per_symbol}"]
        problems = []
        for k in (0, 1):
            mask = table[:, 1] == k
            shots = int(mask.sum())
            if shots != self.shots_per_symbol:
                problems.append(f"simulate: {shots} shots of symbol {k}")
                continue
            for column, mu in zip((2, 3), _rates(self.signal_mean, self.lo_mean, self.xi, k)):
                mean = table[mask, column].sum() / shots
                if abs(mean - mu) > 5.0 * math.sqrt(mu / shots):
                    problems.append(f"simulate: symbol {k} arm mean {mean} is over 5 sigma from {mu}")
        return problems

    def _check_analysis(self, path):
        report = json.loads(Path(path).read_text())
        problems = []
        hl = report["empirical"]["hl"]
        for k in (0, 1):
            want = self.expected[k]
            shots = want["shots"]
            if report["shots"][f"symbol{k}"] != shots:
                problems.append(f"analyze: symbol {k} shot count {report['shots'][f'symbol{k}']}")
            means = report["arm_means"][f"symbol{k}"]
            for arm, total in (("n", want["n_sum"]), ("m", want["m_sum"])):
                if abs(means[arm] - total / shots) > 1e-12 * (total / shots):
                    problems.append(f"analyze: symbol {k} mean {arm} {means[arm]} vs {total / shots}")
            got = {d: f for d, f in zip(hl["deltas"], hl[f"symbol{k}"]) if f}
            if set(got) != set(want["hl"]):
                problems.append(f"analyze: symbol {k} hl support differs")
                continue
            for d, count in want["hl"].items():
                if round(got[d] * shots) != count or abs(got[d] - count / shots) > 1e-12:
                    problems.append(f"analyze: symbol {k} hl[{d}] = {got[d]}, counted {count}")
        calibration = report["calibration"]
        if calibration is None or abs(calibration["xi"] - self.xi) > 0.01:
            problems.append(f"analyze: calibrated xi {calibration and calibration['xi']} "
                            f"is not within 0.01 of {self.xi}")
        return problems


WORKLOADS = {cls.name: cls for cls in (Paper, Bright, Shots)}
