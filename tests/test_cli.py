"""CLI behavior: output shapes, exit codes, reproducibility."""

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qc15.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(capsys, *argv) -> tuple[int, str, str]:
    try:
        rc = main(list(argv))
    except SystemExit as exc:  # the argument parser exits on its own
        rc = exc.code
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def parse_csv(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


HEADER = "q,m,delta,mode,trials,hits,estimate,exact,bound,zero_code_fraction,seed,warning\n"

# Exact stdout of small sweeps, one per branch of the sweep command: exact
# distance rows, Monte-Carlo rows with and without the attached exact value,
# the exact-to-Monte-Carlo fallback (also below the pair count up to which an
# exact value is attached), the undefined bound, and both full-rank modes.
# Any change to the CSV bytes fails here.
GOLDEN_SWEEPS = {
    "exact-delta": (
        "--m 2,4 --delta 0.34 --exact",
        "3,2,0.34,exact,9,2,0.2222222222222222,0.2222222222222222,10.81124213409734,"
        "0.1111111111111111,,\n"
        "3,4,0.34,exact,729,274,0.37585733882030176,0.37585733882030176,82786.9686803744,"
        "0.0013717421124828531,,\n",
    ),
    "mc-delta-with-and-without-exact": (
        "--m 4,5 --delta 0.34 --trials 40 --seed 7",
        "3,4,0.34,montecarlo,40,24,0.6,0.6241426611796982,82786.9686803744,0.0,7,\n"
        "3,5,0.34,montecarlo,40,39,0.975,,1334.1431167961102,0.0,7,\n",
    ),
    "fallback-and-undefined-bound": (
        "--m 2,5 --delta 0.1,0.7 --exact --max-enum 1000 --trials 20 --seed 3",
        "3,2,0.1,exact,9,0,0.0,0.0,3.8230342065123217,0.1111111111111111,,\n"
        "3,2,0.7,exact,9,4,0.4444444444444444,0.4444444444444444,,0.1111111111111111,,"
        '"no bound: 3*delta/2 must be <= 1, got 1.0499999999999998"\n'
        "3,5,0.1,montecarlo,20,20,1.0,,20.86088739791361,0.0,3,"
        "exact sweep infeasible; fell back to montecarlo\n"
        "3,5,0.7,montecarlo,20,0,0.0,,,0.0,3,"
        '"no bound: 3*delta/2 must be <= 1, got 1.0499999999999998; '
        'exact sweep infeasible; fell back to montecarlo"\n',
    ),
    "fallback-under-attach-limit": (
        "--m 2 --delta 0.1 --exact --max-enum 0 --trials 5 --seed 1",
        "3,2,0.1,montecarlo,5,5,1.0,,3.8230342065123217,0.0,1,"
        "exact sweep infeasible; fell back to montecarlo\n",
    ),
    "mc-fullrank": (
        "--m 2,4,5 --fullrank --trials 100 --seed 11",
        "3,2,,montecarlo,100,88,0.88,0.8888888888888888,,0.12,11,\n"
        "3,4,,montecarlo,100,90,0.9,0.877914951989026,,0.0,11,\n"
        "3,5,,montecarlo,100,100,1.0,0.9998475842097241,,0.0,11,\n",
    ),
    "exact-fullrank": (
        "--m 2,4,7 --fullrank --exact",
        "3,2,,exact,9,8,0.8888888888888888,0.8888888888888888,,0.1111111111111111,,\n"
        "3,4,,exact,729,640,0.877914951989026,0.877914951989026,,0.0013717421124828531,,\n"
        "3,7,,exact,531441,531440,0.9999981183235769,0.9999981183235769,,"
        "1.8816764231589208e-06,,\n",
    ),
}


class TestConstruct:
    def test_example1_with_codewords(self, capsys):
        rc, out, _ = run_cli(
            capsys, "construct", "--q", "3", "--m", "2",
            "--a", "2,1,2,1", "--a-prime", "1,1", "--list-codewords",
        )
        assert rc == 0
        doc = json.loads(out)
        assert doc["dim"] == 2
        assert doc["g"] == "1,0,1"
        assert len(doc["codewords"]) == 9
        assert "000022" in doc["codewords"]

    def test_example2_with_codewords(self, capsys):
        rc, out, _ = run_cli(
            capsys, "construct", "--q", "3", "--m", "2",
            "--a", "2,1", "--a-prime", "2,1", "--list-codewords",
        )
        assert rc == 0
        doc = json.loads(out)
        assert doc["dim"] == 3
        assert len(doc["codewords"]) == 27

    def test_distance_flag(self, capsys):
        rc, out, _ = run_cli(
            capsys, "construct", "--q", "3", "--m", "2",
            "--a", "2,1,2,1", "--a-prime", "1,1", "--distance",
        )
        doc = json.loads(out)
        assert doc["min_distance"] == 2

    def test_distance_subcommand(self, capsys):
        rc, out, _ = run_cli(
            capsys, "distance", "--q", "3", "--m", "2", "--a", "2,1", "--a-prime", "2,1",
        )
        assert rc == 0
        doc = json.loads(out)
        assert doc["min_distance"] == 2

    def test_non_prime_q_exits_2(self, capsys):
        rc, _, err = run_cli(capsys, "construct", "--q", "4", "--m", "2", "--a", "1", "--a-prime", "1")
        assert rc == 2
        assert "odd prime" in err

    def test_non_coprime_m_exits_2(self, capsys):
        rc, _, err = run_cli(capsys, "construct", "--q", "3", "--m", "3", "--a", "1", "--a-prime", "1")
        assert rc == 2

    @pytest.mark.parametrize("command", ("construct", "distance"))
    @pytest.mark.parametrize("m", ("0", "-1"))
    def test_m_below_one_exits_2(self, capsys, command, m):
        rc, out, err = run_cli(capsys, command, "--q", "3", "--m", m, "--a", "1", "--a-prime", "1")
        assert rc == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_closed_stdout_exits_0_quietly(self):
        # 3^10 codewords print about 1.5 MB, far more than a pipe holds, so
        # the writer is still writing when the reader closes after one line
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))
        proc = subprocess.Popen(
            [sys.executable, "-m", "qc15.cli", "construct", "--q", "3", "--m", "5",
             "--a", "1", "--a-prime", "1", "--list-codewords"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 0
        assert err == b""

    def test_enum_limit_exits_3(self, capsys):
        rc, _, err = run_cli(
            capsys, "construct", "--q", "3", "--m", "2", "--a", "2,1", "--a-prime", "2,1",
            "--list-codewords", "--max-enum", "8",
        )
        assert rc == 3


class TestSweep:
    @pytest.mark.parametrize("case", sorted(GOLDEN_SWEEPS))
    def test_golden_stdout(self, capsys, case):
        options, rows = GOLDEN_SWEEPS[case]
        rc, out, err = run_cli(capsys, "sweep", "--q", "3", *options.split())
        assert rc == 0
        assert err == ""
        assert out == HEADER + rows

    def test_exact_mode_estimate_equals_exact(self, capsys):
        rc, out, _ = run_cli(capsys, "sweep", "--q", "3", "--m", "2", "--delta", "0.1", "--exact")
        assert rc == 0
        rows = parse_csv(out)
        assert len(rows) == 1
        assert rows[0]["mode"] == "exact"
        assert rows[0]["estimate"] == rows[0]["exact"]

    def test_fullrank_exact_decimals(self, capsys):
        rc, out, _ = run_cli(capsys, "sweep", "--q", "3", "--m", "2,4", "--fullrank", "--exact")
        rows = parse_csv(out)
        assert [float(r["exact"]) for r in rows] == pytest.approx([8 / 9, 640 / 729])

    def test_montecarlo_row(self, capsys):
        rc, out, _ = run_cli(
            capsys, "sweep", "--q", "3", "--m", "2", "--delta", "0.34",
            "--trials", "200", "--seed", "7",
        )
        rows = parse_csv(out)
        assert rows[0]["mode"] == "montecarlo"
        assert rows[0]["seed"] == "7"
        assert 0.0 <= float(rows[0]["estimate"]) <= 1.0

    def test_exact_fallback_warning(self, capsys):
        rc, out, _ = run_cli(
            capsys, "sweep", "--q", "3", "--m", "5", "--delta", "0.1", "--exact",
            "--max-enum", "1000", "--trials", "50", "--seed", "3",
        )
        assert rc == 0
        rows = parse_csv(out)
        assert rows[0]["mode"] == "montecarlo"
        assert "fell back" in rows[0]["warning"]

    def test_reproducible_output(self, capsys):
        args = ("sweep", "--q", "3", "--m", "2,4", "--delta", "0.2,0.34",
                "--trials", "100", "--seed", "42")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_seed_from_environment(self, capsys, monkeypatch):
        monkeypatch.setenv("QC15_SEED", "777")
        rc, out, _ = run_cli(capsys, "sweep", "--q", "3", "--m", "2", "--delta", "0.34",
                             "--trials", "50")
        rows = parse_csv(out)
        assert rows[0]["seed"] == "777"

    def test_missing_delta_exits_2(self, capsys):
        rc, _, err = run_cli(capsys, "sweep", "--q", "3", "--m", "2")
        assert rc == 2

    @pytest.mark.parametrize("extra", (("--delta", "0.1"), ("--fullrank",)))
    @pytest.mark.parametrize("m", ("0", "2,-1"))
    def test_m_below_one_exits_2(self, capsys, m, extra):
        rc, out, err = run_cli(capsys, "sweep", "--q", "3", "--m", m, *extra)
        assert rc == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("option", (("--trials", "abc"), ("--seed", "x"), ("--bogus",)))
    def test_bad_option_exits_2(self, capsys, option):
        rc, out, err = run_cli(capsys, "sweep", "--q", "3", "--m", "2", "--delta", "0.1", *option)
        assert rc == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_help_exits_0(self, capsys):
        rc, out, err = run_cli(capsys, "sweep", "--help")
        assert rc == 0
        assert out.startswith("usage: qc15 sweep") and err == ""

    @pytest.mark.parametrize("m", (",", "", "2,,4", "2,4,", " "))
    def test_empty_m_list_exits_2(self, capsys, m):
        rc, out, err = run_cli(capsys, "sweep", "--q", "3", "--m", m, "--delta", "0.1")
        assert rc == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("delta", ("-1", "0.1,-0.5", "1/0", "0.1,1e400"))
    def test_negative_delta_exits_2(self, capsys, delta):
        rc, out, err = run_cli(capsys, "sweep", "--q", "3", "--m", "2", "--delta", delta)
        assert rc == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_undefined_bound_gives_reason(self, capsys):
        # 3 * 0.7 / 2 > 1 puts delta outside the bound formula
        rc, out, _ = run_cli(capsys, "sweep", "--q", "3", "--m", "2", "--delta", "0.7", "--exact")
        assert rc == 0
        row = parse_csv(out)[0]
        assert row["bound"] == ""
        assert row["warning"].startswith("no bound: 3*delta/2 must be <= 1")

    def test_undefined_bound_joins_fallback_warning(self, capsys):
        rc, out, _ = run_cli(
            capsys, "sweep", "--q", "3", "--m", "5", "--delta", "0.7", "--exact",
            "--max-enum", "1000", "--trials", "20", "--seed", "3",
        )
        assert rc == 0
        row = parse_csv(out)[0]
        assert row["bound"] == ""
        assert row["warning"].startswith("no bound: 3*delta/2 must be <= 1")
        assert row["warning"].endswith("; exact sweep infeasible; fell back to montecarlo")

    def test_numeric_fields_parse_losslessly(self, capsys):
        _, out, _ = run_cli(capsys, "sweep", "--q", "3", "--m", "4", "--delta", "0.1", "--exact")
        row = parse_csv(out)[0]
        for key in ("estimate", "exact", "bound", "zero_code_fraction"):
            val = float(row[key])
            assert repr(val) == row[key]
        assert row["warning"] == ""


class TestBounds:
    def test_table_fields(self, capsys):
        rc, out, _ = run_cli(capsys, "bounds", "--q", "3", "--m", "5", "--delta", "0.05")
        doc = json.loads(out)
        assert 0.106 < doc["delta_star"] < 0.107
        assert doc["ell_m"] == 4
        assert doc["h_inv_half"] == pytest.approx(0.1594615, abs=1e-6)
        assert "delta_prob_bound" in doc
        assert doc["exact_fullrank_prob"] == pytest.approx(float(1 - 3**-8) ** 1, rel=1e-12)

    def test_ideals_table(self, capsys):
        rc, out, _ = run_cli(capsys, "bounds", "--q", "3", "--m", "4", "--ideals")
        doc = json.loads(out)
        assert doc["ideal_counts"] == {
            "1": {"count": 1, "bound": 4.0},
            "2": {"count": 1, "bound": 16.0},
            "3": {"count": 1, "bound": 64.0},
        }

    def test_scan(self, capsys):
        rc, out, _ = run_cli(capsys, "bounds", "--q", "3", "--scan-m", "2..50")
        doc = json.loads(out)
        vals = [r["goodness_indicator"] for r in doc["scan"]]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("scan", ("5", "2..x", "..9", "9..2"))
    def test_scan_without_range_exits_2(self, capsys, scan):
        rc, out, err = run_cli(capsys, "bounds", "--q", "3", "--scan-m", scan)
        assert rc == 2
        assert out == ""
        assert err.startswith("error: ") and "LO..HI" in err and err.count("\n") == 1

    @pytest.mark.parametrize("delta", ("-1", "1/0", "1e400"))
    def test_bad_delta_exits_2(self, capsys, delta):
        rc, out, err = run_cli(capsys, "bounds", "--q", "3", "--m", "5", "--delta", delta)
        assert rc == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", (("--scan-m", "-5..3"), ("--m", "x"), ("--scan-m",)))
    def test_bad_option_exits_2(self, capsys, argv):
        # a value that starts with "-" reads as an option: --scan-m=-5..3 passes it
        rc, out, err = run_cli(capsys, "bounds", "--q", "3", *argv)
        assert rc == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_missing_m_exits_2(self, capsys):
        rc, _, _ = run_cli(capsys, "bounds", "--q", "3")
        assert rc == 2

    def test_not_coprime_exits_2(self, capsys):
        rc, _, _ = run_cli(capsys, "bounds", "--q", "3", "--m", "6")
        assert rc == 2
