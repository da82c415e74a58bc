import json

import pytest

from addcomb.cli import main


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
    import addcomb.cli as cli_mod
    from addcomb.checks import IneqCheck
    from addcomb.verify import CheckSuite

    def failing_suite(seed, trials):
        suite = CheckSuite("identities", {"seed": seed, "trials": trials})
        suite.record(
            IneqCheck.from_le("forced", 2, 1), {"N": 5}, halt_on_failure=False
        )
        suite.halted = "forced"
        return suite

    monkeypatch.setattr(cli_mod, "run_identity_suite", failing_suite)
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
])
def test_bad_input_exits_2(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("addcomb: error: ")
