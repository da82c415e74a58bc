import contextlib
import hashlib
import io
import json

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from addcomb.cli import main
from addcomb.config import FIELD_PRIME_CAP, SCAN_PRIME_CAP


def test_verify_cli_writes_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = main(["verify", "--seed", "3", "--trials", "5", "--json", str(out)])
    assert rc == 0
    obj = json.loads(out.read_text())
    assert obj["pass"] is True
    assert [s["name"] for s in obj["suites"]] == [
        "identities", "inequalities", "subgroups",
    ]
    text = capsys.readouterr().out
    assert "identities" in text


def test_verify_cli_deterministic(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["verify", "--seed", "1", "--trials", "5",
                 "--primes", "7,13", "--json", str(a)]) == 0
    assert main(["verify", "--seed", "1", "--trials", "5",
                 "--primes", "7,13", "--json", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_verify_cli_exit_status_on_failure(tmp_path, monkeypatch):
    import addcomb.verify as verify_mod
    from addcomb.checks import IneqCheck
    from addcomb.verify import CheckSuite

    def failing_suite(seed, trials):
        suite = CheckSuite("identities", {"seed": seed, "trials": trials})
        suite.record(
            IneqCheck.from_le("forced", 2, 1), {"N": 5}, halt_on_failure=False
        )
        suite.halted = "forced"
        return suite

    monkeypatch.setattr(verify_mod, "run_identity_suite", failing_suite)
    out = tmp_path / "r.json"
    rc = main(["verify", "--trials", "1", "--json", str(out)])
    assert rc == 1
    obj = json.loads(out.read_text())
    assert obj["pass"] is False


def test_subgroup_scan_cli(tmp_path):
    out = tmp_path / "scan.csv"
    assert main(["subgroup-scan", "--pmax", "31", "--csv", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("p,t,E2,E3,sum,diff,ratio_52")
    assert len(lines) > 10


def test_level_profile_cli(capsys):
    assert main(["level-profile", "--p", "7", "--t", "3"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "p,t,d,i,size,shape_bound"


def test_coverage_cli(capsys):
    assert main(["coverage-6gamma", "--pmax", "13"]) == 0
    out = capsys.readouterr().out
    assert "covered_by_6" in out.splitlines()[0]


def test_convex_scan_cli(capsys):
    assert main(["convex-scan", "--nmax", "32"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("n,E2,E3")
    assert out[1].split(",")[0] == "4"


def test_doubling_cli(tmp_path, capsys):
    f = tmp_path / "sets.txt"
    f.write_text("1 2 4 8\n# comment\n3,5,9\n")
    assert main(["doubling-stats", "--file", str(f)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 3


def test_ap_scan_cli(capsys):
    assert main(["ap-scan", "--pmax", "13"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("p,t,ap_len")


def test_expansion_cli(capsys):
    assert main(["expansion-scan", "--p", "13", "--t", "4", "--trials", "3"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "p,t,kind,size,sumset,ratio"
    assert len(out) == 6


@pytest.mark.parametrize("argv", [
    ["subgroup-scan", "--pmax", "2"],
    ["ap-scan", "--pmax", "1"],
])
def test_empty_scan_exits_1(argv, capsys):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ["verify", "--primes", "7,x"],
    ["level-profile", "--p", "7", "--t", "4"],
    ["verify", "--primes", "8"],
    ["verify", "--primes", "20000"],
    ["convex-scan", "--nmax", "65536"],
    ["ap-scan", "--pmax", "20000"],
    ["doubling-stats", "--file", "/nonexistent"],
    ["verify", "--json", "/nonexistent/report.json"],
    ["coverage-6gamma", "--pmax", "13", "--cap", "0"],
    ["expansion-scan", "--p", "13", "--t", "4", "--trials", "-3"],
    ["verify", "--trials", "-1"],
    ["doubling-stats", "--file", "{oversize}"],
])
def test_bad_input_exits_2(argv, capsys, monkeypatch, tmp_path):
    # bad input is rejected before any suite runs, any scan starts or any
    # count is allocated
    import addcomb.experiments as exp_mod
    import addcomb.verify as verify_mod
    from addcomb.config import DOUBLING_SET_CAP

    if "{oversize}" in argv:
        sets = tmp_path / "oversize.txt"
        sets.write_text(" ".join(map(str, range(1, DOUBLING_SET_CAP + 2))) + "\n")
        argv = [str(sets) if v == "{oversize}" else v for v in argv]

    def must_not_run(*args, **kwargs):
        raise AssertionError("work started before the input was checked")

    for mod, name in ((verify_mod, "run_identity_suite"),
                      (verify_mod, "run_inequality_suite"),
                      (exp_mod, "autocorrelation_np"),
                      (exp_mod, "_progression_row"),
                      (exp_mod, "_value_table")):
        monkeypatch.setattr(mod, name, must_not_run)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("addcomb: error: ")


# Each scan at a small size, and the sha256 of the CSV it writes.  The
# --csv file and stdout must carry these same bytes.
SCAN_CSV = {
    "subgroup-scan": (
        ["--pmax", "13"],
        "58356936224d356eab5a5057d9cfda92425a80db0cd81f8c96cf0cd5787523f3"),
    "level-profile": (
        ["--p", "7", "--t", "3"],
        "5c2288c52b3be710bb2158d9c1c945dc7b540da12b74d0c2dfc6e36fdecca874"),
    "coverage-6gamma": (
        ["--pmax", "13"],
        "27b093de44a4d5b75fc128210e1c55707d27fc3d1fa99987f6f6939a03e82d79"),
    "expansion-scan": (
        ["--p", "13", "--t", "4", "--trials", "3"],
        "97a077ae29e1be67cd930d14420d36d1114a4cac6ab18851713b799950877041"),
    "convex-scan": (
        ["--nmax", "32"],
        "992e1d2bc18a70aee3d004668558d150789928f9f14ad84501446010d086c87a"),
    "doubling-stats": (
        [],  # --file is added by the test
        "4cbeef45b7d0ca3f6bae284cab47ea3da67af8a05bb2f501a4c46d6cde523f1b"),
    "ap-scan": (
        ["--pmax", "13"],
        "af1805b8dcb66437bd87fa8892088d6d9371d0f2f6ebce502a74ebbde19e8f12"),
}


def test_scan_csv_bytes_pinned(tmp_path, capsys):
    sets = tmp_path / "sets.txt"
    sets.write_text("1 2 4 8\n# comment\n3,5,9\n")
    for name, (args, want) in SCAN_CSV.items():
        argv = [name, *args] + (["--file", str(sets)] if name == "doubling-stats" else [])
        path = tmp_path / f"{name}.csv"
        assert main(argv + ["--csv", str(path)]) == 0
        capsys.readouterr()
        assert main(argv) == 0
        raw = path.read_bytes()
        assert raw.count(b"\n") >= 3, f"{name}: fewer than two rows"
        assert capsys.readouterr().out.encode() == raw, f"{name}: stdout differs from --csv"
        assert hashlib.sha256(raw).hexdigest() == want, name


# edge integers for the CLI: signs, 0 and 1, non-primes, small random
# values, and primes past the scan and field caps
PAST_CAPS = (10007, 1000003)
assert PAST_CAPS[0] > SCAN_PRIME_CAP and PAST_CAPS[1] > FIELD_PRIME_CAP
EDGE = st.one_of(st.sampled_from([-7, -1, 0, 1, 2, 4, 9, 15, *PAST_CAPS]), st.integers(-8, 40))
# trial counts stay small: each trial is work, and --trials 0 selects verify's
# full default battery, which the report pins run already
TRIALS = st.integers(-8, 6)


@st.composite
def cli_argv(draw):
    """One subcommand with every numeric option drawn from EDGE (trial
    counts from TRIALS), and the text of a doubling-stats file, or None."""
    def opt(name, values=EDGE):
        return [name, str(draw(values))]

    cmd = draw(st.sampled_from(["verify", "subgroup-scan", "level-profile", "coverage-6gamma",
                                "expansion-scan", "convex-scan", "doubling-stats", "ap-scan"]))
    text = None
    if cmd == "verify":
        primes = ",".join(map(str, draw(st.lists(EDGE, min_size=1, max_size=3))))
        args = [*opt("--seed"), *opt("--trials", TRIALS.filter(bool)), "--primes", primes]
    elif cmd == "subgroup-scan":
        args = [*opt("--pmax"), *opt("--tmin"), *opt("--tmax")]
    elif cmd == "level-profile":
        args = [*opt("--p"), *opt("--t")]
    elif cmd == "coverage-6gamma":
        args = [*opt("--pmax"), *opt("--cap")]
    elif cmd == "expansion-scan":
        args = [*opt("--p"), *opt("--t"), *opt("--trials", TRIALS), *opt("--seed")]
    elif cmd == "convex-scan":
        args = [*opt("--nmax"), "--generator", draw(st.sampled_from(["squares", "perturbed"])),
                *opt("--seed")]
    elif cmd == "doubling-stats":
        lines = draw(st.lists(st.lists(EDGE, max_size=6), max_size=3))
        text = "".join(" ".join(map(str, line)) + "\n" for line in lines)
        args = ["--file", "{file}", *opt("--shift")]
    else:
        args = opt("--pmax")
    return [cmd, *args], text


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=cli_argv())
def test_every_subcommand_takes_edge_integers_without_a_traceback(case, tmp_path):
    """Each run exits 0, 1 or 2 and raises nothing else; when ``main``
    rejects the input, stderr is one ``addcomb: error:`` line.  An
    argparse rejection (``--primes -1,20`` reads as an option) is a
    SystemExit(2)."""
    argv, text = case
    if text is not None:
        sets = tmp_path / "sets.txt"
        sets.write_text(text)
        argv = [str(sets) if v == "{file}" else v for v in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:
            assert exc.code == 2, argv
            return
    assert rc in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue()
    if rc == 2:
        lines = err.getvalue().strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("addcomb: error: "), (argv, lines)
