import subprocess
import sys

import pytest

import gcdsum.asymptotics
import gcdsum.cli
import gcdsum.gcd_sum
from gcdsum import error_at, s_identity, write_csv
from gcdsum.cli import run


def test_exact_identity(capsys):
    assert run(["exact", "10", "--alg", "identity"]) == 0
    out = capsys.readouterr().out
    assert "S(10) = 31" in out
    assert "algorithm: identity" in out


@pytest.mark.parametrize("alg", ["brute", "lemma1", "identity"])
def test_exact_all_algorithms_agree(capsys, alg):
    assert run(["exact", "360", "--alg", alg]) == 0
    assert f"S(360) = {s_identity(360)}" in capsys.readouterr().out


def test_exact_rejects_zero(capsys):
    assert run(["exact", "0"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def test_exact_brute_cap(capsys):
    assert run(["exact", "20000000", "--alg", "brute"]) == 1
    assert "cap" in capsys.readouterr().err


def test_predict(capsys):
    assert run(["predict", "1"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("A(1) = -1.621")
    assert "c1*N*log(N)" in out and "c0*N" in out


def test_constants_default_digits(capsys):
    assert run(["constants"]) == 0
    out = capsys.readouterr().out
    assert "1.644934066848226436472415" in out
    for name in ("zeta2", "gamma", "theta", "c1", "c0"):
        assert name in out
    assert len(out.splitlines()) == 5


# Frozen CLI text.  Re-summing gamma, theta or c0 may move them by ~1e-41,
# far below the 30 trusted digits, but must move no printed digit.
FROZEN_OUTPUTS = {
    ("constants", "--digits", "30"): (
        "zeta2 = 1.64493406684822643647241516665   (trusted digits: 30)\n"
        "gamma = 0.577215664901532860606512090082   (trusted digits: 30)\n"
        "theta = 0.937548254315843753702574094568   (trusted digits: 30)\n"
        "c1    = 1.64493406684822643647241516665   (trusted digits: 30)\n"
        "c0    = -1.62106715324995089478643515132   (trusted digits: 30)\n"
    ),
    ("predict", "1000000000000"): (
        "A(1000000000000) = 43830140782143.6\n"
        "  c1*N*log(N) = 45451207935393.6\n"
        "  c0*N        = -1621067153249.95\n"
    ),
}


def test_outputs_match_frozen_text(capsys):
    for argv, expected in FROZEN_OUTPUTS.items():
        assert run(list(argv)) == 0
        assert capsys.readouterr().out == expected


def test_constants_few_digits(capsys):
    assert run(["constants", "--digits", "5"]) == 0
    assert "1.6449" in capsys.readouterr().out


@pytest.mark.parametrize("digits", ["0", "40"])
def test_constants_digit_range(capsys, digits):
    assert run(["constants", "--digits", digits]) == 1
    assert "digits" in capsys.readouterr().err


def test_scan_writes_csv_and_svg(tmp_path, capsys):
    csv = tmp_path / "scan.csv"
    svg = tmp_path / "scan.svg"
    code = run(["scan", "--from", "100", "--to", "100000", "--points", "7",
                "--out", str(csv), "--svg", str(svg)])
    assert code == 0
    assert csv.read_text().splitlines()[0] == "N,S,A,E,E_over_sqrtN,alg,seconds"
    assert svg.read_text().startswith("<svg")
    out = capsys.readouterr().out
    assert "wrote 7 records" in out
    assert "max |E(N)| / sqrt(N)" in out


def test_scan_linear_flag(tmp_path):
    csv = tmp_path / "lin.csv"
    assert run(["scan", "--from", "10", "--to", "50", "--points", "5",
                "--linear", "--out", str(csv)]) == 0
    ns = [int(line.split(",")[0]) for line in csv.read_text().splitlines()[1:]]
    assert ns == [10, 20, 30, 40, 50]


def test_scan_degenerate_range(tmp_path, capsys):
    assert run(["scan", "--from", "100", "--to", "100",
                "--out", str(tmp_path / "x.csv")]) == 1
    assert "degenerate" in capsys.readouterr().err


def test_scan_unwritable_path(capsys):
    assert run(["scan", "--from", "10", "--to", "100", "--points", "3",
                "--out", "/no/such/dir/x.csv"]) == 1
    assert "error:" in capsys.readouterr().err


def test_scan_missing_out_is_usage_error(capsys):
    assert run(["scan", "--from", "10", "--to", "100"]) == 2


def test_verify(capsys):
    assert run(["verify", "--max", "500"]) == 0
    assert "3-way agreement: 500/500" in capsys.readouterr().out


def test_verify_rejects_zero(capsys):
    assert run(["verify", "--max", "0"]) == 1


def test_verify_refuses_max_past_sieve_cap_before_any_n(monkeypatch, capsys):
    def no_call(n):
        raise AssertionError(f"evaluated N={n}")

    monkeypatch.setenv("GCDSUM_SIEVE_CAP", "1000")
    monkeypatch.setattr(gcdsum.gcd_sum, "s_lemma1", no_call)
    monkeypatch.setattr(gcdsum.gcd_sum, "s_identity", no_call)
    assert run(["verify", "--max", "1001"]) == 1
    captured = capsys.readouterr()
    assert "GCDSUM_SIEVE_CAP" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("name", ["s_lemma1", "s_identity"])
def test_verify_catches_an_evaluator_off_by_one(monkeypatch, capsys, name):
    evaluator = getattr(gcdsum.gcd_sum, name)
    monkeypatch.setattr(gcdsum.gcd_sum, name, lambda n: evaluator(n) + (n == 97))
    assert run(["verify", "--max", "500"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("MISMATCH at N=97: oracle=")
    assert captured.err.count("\n") == 1
    assert "3-way agreement: 499/500" in captured.out


@pytest.mark.parametrize("alg", ["identity", "lemma1"])
def test_exact_refuses_the_largest_natural_at_once(capsys, deadline, alg):
    with deadline(1.0):
        assert run(["exact", str(2**63 - 1), "--alg", alg]) == 1
    assert "MAX_X" in capsys.readouterr().err


def test_results_past_2_63_stay_exact_ints(monkeypatch, tmp_path, capsys):
    # S(N) passes 2^63 - 1 near N = 1.455e17, inside the domain
    big = 2**63 + 5
    n = 146 * 10**15
    for module in (gcdsum.asymptotics, gcdsum.cli):
        monkeypatch.setattr(module, "s_exact", lambda n, algorithm=None: big)
    record = error_at(n)
    assert type(record.s_exact) is int and record.s_exact == big
    path = tmp_path / "big.csv"
    write_csv([record], path)
    assert path.read_text(encoding="ascii").splitlines()[1].split(",")[:2] == [str(n), str(big)]
    assert run(["exact", str(n)]) == 0
    assert f"S({n}) = {big}\n" in capsys.readouterr().out


def test_usage_errors(capsys):
    assert run([]) == 2
    assert run(["no-such-command"]) == 2
    assert run(["exact", "10", "--bogus"]) == 2


def test_sieve_cap_env_reaches_brute(monkeypatch, capsys):
    # brute at N=1000 memoizes tau over a 31-entry sieve; cap it below that
    monkeypatch.setenv("GCDSUM_SIEVE_CAP", "10")
    assert run(["exact", "1000", "--alg", "brute"]) == 1
    assert "GCDSUM_SIEVE_CAP" in capsys.readouterr().err
    monkeypatch.delenv("GCDSUM_SIEVE_CAP")
    assert run(["exact", "1000", "--alg", "brute"]) == 0


def test_module_entry_point():
    proc = subprocess.run([sys.executable, "-m", "gcdsum", "exact", "100"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert f"S(100) = {s_identity(100)}" in proc.stdout
