"""CLI behavior: output shapes, exit codes, reproducibility."""

import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qc15 import codes
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


# the four sweep modes: Monte-Carlo or exact, distance or full rank
SWEEP_MODES = (("--delta", "0.1", "--trials", "5"),
               ("--delta", "0.1", "--exact"),
               ("--fullrank", "--trials", "5"),
               ("--fullrank", "--exact"))

HEADER = "q,m,delta,mode,trials,hits,estimate,exact,bound,zero_code_fraction,seed,warning\n"

# Exact stdout of small sweeps, one per branch of the sweep command: exact
# distance rows, Monte-Carlo rows with and without the attached exact value,
# the exact-to-Monte-Carlo fallback (also below the pair count up to which an
# exact value is attached, and past 2^63 - 1 pairs at any limit), the
# undefined bound, and both full-rank modes;
# thresholds unsorted, repeated, 0 and past every word weight, several per
# exact row, and only 0 and 3m at an m whose candidate count is far past the
# limit, which scan nothing; a sweep at m = 31 and delta = 0.07 whose codes
# have full projections, so two information sets keep its scan (900
# candidates per code) under the default limit; and a sweep stopped by the
# candidate limit at its second m, which has no stdout and pins exit code and
# stderr instead. Any change to the bytes fails here.
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
    "fallback-past-int64-pairs": (
        f"--m 22 --delta 0.1 --exact --max-enum {10**30} --trials 3 --seed 1",
        "3,22,0.1,montecarlo,3,3,1.0,,9.332639547610414e+55,0.0,1,"
        "exact sweep infeasible; fell back to montecarlo\n",
    ),
    "mc-fullrank": (
        "--m 2,4,5 --fullrank --trials 100 --seed 11",
        "3,2,,montecarlo,100,88,0.88,0.8888888888888888,,0.12,11,\n"
        "3,4,,montecarlo,100,90,0.9,0.877914951989026,,0.0,11,\n"
        "3,5,,montecarlo,100,100,1.0,0.9998475842097241,,0.0,11,\n",
    ),
    "unsorted-repeated-delta": (
        "--m 4 --delta 0.3,0.106,0.3 --trials 30 --seed 5",
        "3,4,0.3,montecarlo,30,26,0.8666666666666667,0.9012345679012346,62814.6272088644,0.0,5,\n"
        "3,4,0.106,montecarlo,30,30,1.0,1.0,4340.206567473787,0.0,5,\n"
        "3,4,0.3,montecarlo,30,26,0.8666666666666667,0.9012345679012346,62814.6272088644,0.0,5,\n",
    ),
    "zero-and-large-delta": (
        "--m 1,4,5 --delta 0,0.2,1.5 --trials 25 --seed 9",
        '3,1,0.0,montecarlo,25,25,1.0,1.0,,1.0,9,"no bound: m must be >= 2, got 1"\n'
        '3,1,0.2,montecarlo,25,25,1.0,1.0,,1.0,9,"no bound: m must be >= 2, got 1"\n'
        '3,1,1.5,montecarlo,25,25,1.0,1.0,,1.0,9,"no bound: m must be >= 2, got 1"\n'
        "3,4,0.0,montecarlo,25,25,1.0,1.0,185.48148148148152,0.0,9,\n"
        "3,4,0.2,montecarlo,25,24,0.96,0.9012345679012346,21415.512398938467,0.0,9,\n"
        "3,4,1.5,montecarlo,25,0,0.0,0.0013717421124828531,,0.0,9,"
        '"no bound: 3*delta/2 must be <= 1, got 2.25"\n'
        "3,5,0.0,montecarlo,25,25,1.0,,0.3086419753086418,0.0,9,\n"
        "3,5,0.2,montecarlo,25,24,0.96,,215.9170529861201,0.0,9,\n"
        "3,5,1.5,montecarlo,25,0,0.0,,,0.0,9,"
        '"no bound: 3*delta/2 must be <= 1, got 2.25"\n',
    ),
    "exact-multi-delta": (
        "--m 4 --delta 0.106,0.5,0.3 --exact",
        "3,4,0.106,exact,729,0,0.0,0.0,4340.206567473787,0.0013717421124828531,,\n"
        "3,4,0.5,exact,729,562,0.7709190672153635,0.7709190672153635,102421.95210900217,"
        "0.0013717421124828531,,\n"
        "3,4,0.3,exact,729,72,0.09876543209876543,0.09876543209876543,62814.6272088644,"
        "0.0013717421124828531,,\n",
    ),
    "limit-at-a-later-delta": (
        "--m 4,11 --delta 0.05,0.3 --exact --max-enum 100 --trials 3 --seed 2",
        None,
        3,
        "error: 580 candidate messages exceed the limit 100\n",
    ),
    "two-information-sets-at-m-31": (
        "--m 31 --delta 0.07 --trials 3 --seed 1",
        "3,31,0.07,montecarlo,3,3,1.0,,0.2085379683405273,0.0,1,\n",
    ),
    "thresholds-needing-no-scan": (
        "--m 31 --delta 0,1 --trials 3 --seed 1",
        "3,31,0.0,montecarlo,3,3,1.0,,4.667515255383723e-12,0.0,1,\n"
        '3,31,1.0,montecarlo,3,0,0.0,,,0.0,1,"no bound: 3*delta/2 must be <= 1, got 1.5"\n',
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

    def test_distance_of_restricted_pairs_at_m_17_and_31(self, capsys):
        # the threshold scan's search answers m = 17 (dim 16, 3^16 words) at
        # the default limit; at m = 31 the plan below the lightest RREF row
        # (dim 30, U = 21) is past it, so the command stops before any scan
        c = "1,2,0,1,1,1,0,0,1,2,1,0,0,2,1,1,1"
        rc, out, err = run_cli(capsys, "distance", "--q", "3", "--m", "17", "--a", f"{c},{c}",
                               "--a-prime", "2,0,0,0,1,0,2,1,2,1,0,0,0,1,1,2,2")
        assert (rc, err) == (0, "")
        assert (json.loads(out)["dim"], json.loads(out)["min_distance"]) == (16, 12)
        c = "1,2,0,1,2,1,0,1,0,1,1,1,0,0,0,1,2,1,1,2,2,2,0,2,1,2,1,2,2,1,0"
        rc, out, err = run_cli(
            capsys, "distance", "--q", "3", "--m", "31", "--a", f"{c},{c}", "--a-prime",
            "0,1,0,1,2,1,1,2,0,1,2,1,1,0,1,2,2,1,2,1,1,2,0,0,2,0,2,1,1,0,2")
        assert (rc, out) == (3, "")
        assert err == "error: 43034552 candidate messages exceed the limit 16777216\n"

    def test_distance_of_a_restricted_pair_with_short_projections(self, capsys):
        # a = c || c outside (X-1)R_m, neither projection of rank dim: the
        # weighted scan through construct_code, d = 10 (exhaustive over 3^14)
        c = "2,1,1,1,1,1,1,2,2,2,2,1,1,2"
        rc, out, err = run_cli(capsys, "distance", "--q", "3", "--m", "14", "--a", f"{c},{c}",
                               "--a-prime", "1,0,2,0,2,1,0,0,1,0,0,1,2,1")
        assert (rc, err) == (0, "")
        assert (json.loads(out)["dim"], json.loads(out)["min_distance"]) == (14, 10)

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

    @pytest.mark.parametrize("command", ("construct", "distance"))
    @pytest.mark.parametrize("coeffs", (("--a", "1,x", "--a-prime", "1,1"),
                                        ("--a", "1", "--a-prime", "1,,1")))
    def test_bad_coefficient_string_exits_2(self, capsys, command, coeffs):
        rc, out, err = run_cli(capsys, command, "--q", "3", "--m", "2", *coeffs)
        assert (rc, out) == (2, "")
        assert err.startswith("error: bad coefficient string: ") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ("construct", "distance"))
    def test_negative_max_enum_exits_2(self, capsys, command):
        rc, out, err = run_cli(capsys, command, "--q", "3", "--m", "2", "--a", "2,1",
                               "--a-prime", "2,1", "--max-enum", "-1")
        assert rc == 2
        assert out == ""
        assert err.startswith("error: ") and "--max-enum" in err and err.count("\n") == 1

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
        # a limit past p^dim does not lift the int64 bound on message indices
        rc, out, err = run_cli(
            capsys, "construct", "--q", "4294967311", "--m", "2", "--a", "1,2,3,5",
            "--a-prime", "1,7", "--list-codewords", "--max-enum", str(10**42),
        )
        assert (rc, out) == (3, "")
        assert err.startswith("error: ") and err.count("\n") == 1


class TestSweep:
    def test_sweeps_import_no_numpy_random(self):
        # numpy 1.x imports numpy.random with numpy, so only what the sweeps add counts
        script = (
            "import sys\n"
            "from qc15.cli import main\n"
            "before = set(sys.modules)\n"
            "main(['sweep', '--q', '3', '--m', '5,7', '--delta', '0.2', '--trials', '100'])\n"
            "main(['sweep', '--q', '3', '--m', '13', '--fullrank', '--trials', '100'])\n"
            "print(sorted(m for m in set(sys.modules) - before if m.startswith('numpy.random')))\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=env, timeout=120, check=True)
        assert proc.stdout.splitlines()[-1] == "[]"

    def test_import_heap_is_frozen(self):
        # the objects importing qc15.cli leaves (about 22,000, numpy's
        # included) sit in the permanent generation, so the first collection
        # of a short sweep does not scan them
        script = (
            "import gc\n"
            "import qc15.cli\n"
            "print(sum(len(gc.get_objects(g)) for g in range(3)), gc.get_freeze_count())\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=env, timeout=120, check=True)
        young, frozen = map(int, proc.stdout.split())
        assert young < 1000 and frozen > 10_000

    @pytest.mark.parametrize("case", sorted(GOLDEN_SWEEPS))
    def test_golden_stdout(self, capsys, case):
        options, rows, *status = GOLDEN_SWEEPS[case]
        rc, out, err = run_cli(capsys, "sweep", "--q", "3", *options.split())
        assert (rc, err) == (tuple(status) or (0, ""))
        assert out == ("" if rows is None else HEADER + rows)

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

    def test_m11_montecarlo_within_4_se_of_exact(self, capsys):
        # 1 - Pr(d <= 0.3) from `sweep --q 3 --m 11 --delta 0.3 --exact
        # --max-enum 4000000000`: 1,891,617,684 hits in 3^20 pairs
        exact = 1 - 1_891_617_684 / 3**20
        rc, out, _ = run_cli(
            capsys, "sweep", "--q", "3", "--m", "11", "--delta", "0.3",
            "--trials", "500", "--seed", "42",
        )
        (row,) = parse_csv(out)
        assert rc == 0 and row["mode"] == "montecarlo"
        assert abs(float(row["estimate"]) - exact) <= 4 * math.sqrt(exact * (1 - exact) / 500)

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

    @pytest.mark.parametrize("option", (("--trials", "abc"), ("--seed", "x"), ("--bogus",),
                                        ("--exact", "--max-enum", "-1"), ("--fullrank",),
                                        ("--seed", "-1"), ("--exact", "--trials", "0"),
                                        ("--fullrank", "--exact", "--trials", "-3")))
    def test_bad_option_exits_2(self, capsys, option):
        # --trials is checked in every mode; --fullrank is run without --delta
        delta = () if option[:2] == ("--fullrank", "--exact") else ("--delta", "0.1")
        rc, out, err = run_cli(capsys, "sweep", "--q", "3", "--m", "2", *delta, *option)
        assert rc == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("mode", SWEEP_MODES)
    @pytest.mark.parametrize("m", ("3", "2,3"))
    def test_m_not_coprime_to_q_exits_2(self, capsys, m, mode):
        # no partial CSV either: m = 2 alone would print a row
        rc, out, err = run_cli(capsys, "sweep", "--q", "3", "--m", m, *mode)
        assert (rc, out) == (2, "")
        assert err.startswith("error: ") and "coprime" in err and err.count("\n") == 1

    def test_one_coprimality_message(self, capsys):
        runs = [("sweep", "--q", "3", "--m", "3", *mode) for mode in SWEEP_MODES] + [
            ("construct", "--q", "3", "--m", "3", "--a", "1", "--a-prime", "1"),
            ("bounds", "--q", "3", "--m", "3"),
        ]
        errs = {run_cli(capsys, *argv)[2] for argv in runs}
        assert errs == {"error: m=3 must be coprime to q=3\n"}

    def test_fullrank_sweep_on_a_large_field(self, capsys):
        # p > 2^32: the idempotents must not list GF(p)
        rc, out, _ = run_cli(capsys, "sweep", "--q", "4294967311", "--m", "2",
                             "--fullrank", "--trials", "5")
        assert rc == 0
        assert [r["m"] for r in parse_csv(out)] == ["2"]

    def test_distance_sweep_on_a_large_field(self, capsys):
        # p > 2^32: the row scan runs on object ints; the stdout is pinned
        rc, out, err = run_cli(capsys, "sweep", "--q", "4294967311", "--m", "2", "--delta",
                               "0.4", "--trials", "5", "--seed", "1")
        assert (rc, err) == (0, "")
        assert out == HEADER + "4294967311,2,0.4,montecarlo,5,5,1.0,,1297.8439299160966,0.0,1,\n"

    @pytest.mark.parametrize("message, line", (
        ("", "error: out of memory\n"),
        ("Unable to allocate 3.20 GiB", "error: Unable to allocate 3.20 GiB\n"),
    ))
    def test_failed_allocation_exits_3(self, capsys, monkeypatch, message, line):
        # a candidate block too large to allocate is a resource limit, reported
        # as one line; the stand-in allocates nothing. At t = 7 the codes of
        # dim 4 with full projections take plan (2, 0), a block of 16 messages
        def no_memory(*args):
            raise MemoryError(message)

        monkeypatch.setattr(codes, "low_weight_messages", no_memory)
        rc, out, err = run_cli(capsys, "sweep", "--q", "3", "--m", "5", "--delta", "0.5",
                               "--trials", "5", "--seed", "1")
        assert (rc, out, err) == (3, "", line)

    @pytest.mark.parametrize("seed", ("abc", "-1"))
    def test_bad_seed_environment_exits_2(self, capsys, monkeypatch, seed):
        monkeypatch.setenv("QC15_SEED", seed)
        rc, out, err = run_cli(capsys, "sweep", "--q", "3", "--m", "2", "--delta", "0.1")
        assert rc == 2
        assert out == ""
        assert err.startswith("error: QC15_SEED ") and err.count("\n") == 1

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

    def test_bound_past_float_range_gives_reason(self, capsys):
        rc, out, err = run_cli(capsys, "sweep", "--q", "3", "--m", "88", "--delta", "0.02",
                               "--trials", "1", "--max-enum", "1000000000")
        assert rc == 0 and err == ""
        row = parse_csv(out)[0]
        assert row["bound"] == ""
        assert row["warning"].startswith("no bound: the sum exceeds the float range")

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

    def test_bound_past_float_range_is_null(self, capsys):
        rc, out, err = run_cli(capsys, "bounds", "--q", "3", "--m", "82", "--delta", "0.106")
        assert rc == 0 and err == ""
        doc = json.loads(out)
        assert doc["delta_prob_bound"] is None
        assert doc["warning"].startswith("no bound: the sum exceeds the float range")

    @pytest.mark.parametrize("m", (242, 364, 1000))
    def test_ideal_bound_past_float_range_is_null(self, capsys, m):
        rc, out, err = run_cli(capsys, "bounds", "--q", "3", "--m", str(m), "--ideals")
        assert rc == 0 and err == ""
        table = json.loads(out)["ideal_counts"]
        assert all(entry["count"] >= 1 for entry in table.values())
        bounds = [entry["bound"] for entry in table.values()]
        assert None in bounds and all(b is None or b > 0 for b in bounds)

    def test_scan(self, capsys):
        rc, out, _ = run_cli(capsys, "bounds", "--q", "3", "--scan-m", "2..50")
        doc = json.loads(out)
        vals = [r["goodness_indicator"] for r in doc["scan"]]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("scan", ("5", "2..x", "..9", "9..2", "-5..1", "0..1"))
    def test_scan_without_range_exits_2(self, capsys, scan):
        rc, out, err = run_cli(capsys, "bounds", "--q", "3", f"--scan-m={scan}")
        assert rc == 2
        assert out == ""
        assert err.startswith("error: ") and "LO..HI" in err and err.count("\n") == 1

    @pytest.mark.parametrize("scan", ("3..3", "6..6", "9..9"))
    def test_scan_without_coprime_m_exits_2(self, capsys, scan):
        # every m >= 2 in the range is a multiple of q
        rc, out, err = run_cli(capsys, "bounds", "--q", "3", f"--scan-m={scan}")
        assert (rc, out) == (2, "")
        assert err.startswith("error: ") and "coprime" in err and err.count("\n") == 1

    @pytest.mark.parametrize("delta", ("-1", "1/0", "1e400"))
    def test_bad_delta_exits_2(self, capsys, delta):
        rc, out, err = run_cli(capsys, "bounds", "--q", "3", "--m", "5", "--delta", delta)
        assert rc == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", (("--scan-m", "-5..3"), ("--m", "x"), ("--scan-m",),
                                      ("--scan-m", "2..3", "--m", "5"),
                                      ("--scan-m", "2..3", "--delta", "0.05"),
                                      ("--scan-m", "2..3", "--ideals"),
                                      ("--m", "5", "--delta", "0.05", "--ideals", "--scan-m",
                                       "2..3")))
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

    @pytest.mark.parametrize("m", ("0", "-1"))
    def test_m_below_one_exits_2(self, capsys, m):
        assert run_cli(capsys, "bounds", "--q", "3", "--m", m) == (
            2, "", f"error: m must be positive, got {m}\n")
