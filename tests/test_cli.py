"""Subprocess harness for the CLI: exit codes, formats, determinism."""

import json
import subprocess
import sys

import pytest

CMD = [sys.executable, "-m", "seqcx.cli"]


def run_cli(*args, cwd=None):
    return subprocess.run(
        CMD + list(args), capture_output=True, text=True, cwd=cwd, timeout=300
    )


@pytest.fixture
def ones_file(tmp_path):
    path = tmp_path / "ones.seq"
    path.write_text("q=2\nmeta=t:0,T:1\n1 1 1 1 1 1 1 1\n")
    return str(path)


@pytest.fixture
def impulse_file(tmp_path):
    path = tmp_path / "impulse.seq"
    path.write_text("q=2\n0 0 1\n")
    return str(path)


def test_lincomp_all_ones(ones_file):
    res = run_cli("lincomp", "--input", ones_file, "--n", "5")
    assert res.returncode == 0
    assert "L=1" in res.stdout and "t_n=0" in res.stdout


def test_lincomp_convention(impulse_file):
    res = run_cli("lincomp", "--input", impulse_file, "--n", "3")
    assert res.returncode == 0
    assert "L=3" in res.stdout


def test_lincomp_zero(tmp_path):
    path = tmp_path / "zero.seq"
    path.write_text("q=5\n0 0 0 0\n")
    res = run_cli("lincomp", "--input", str(path), "--n", "4")
    assert res.returncode == 0
    assert "L=0" in res.stdout


def test_lincomp_json_schema(ones_file):
    res = run_cli("lincomp", "--input", ones_file, "--n", "5", "--json")
    record = json.loads(res.stdout)
    assert record["command"] == "lincomp"
    assert record["field"] == {"p": 2, "m": 1, "modulus": []}
    assert record["input_digest"].startswith("sha256:")
    assert record["profile"] == [{"n": 5, "l_n": 1, "t_n": 0, "coeffs": [1]}]
    assert list(record) == sorted(record)  # keys sorted


def test_lincomp_profile_csv(ones_file):
    res = run_cli("lincomp", "--input", ones_file, "--n", "4", "--profile", "--csv")
    lines = res.stdout.strip().splitlines()
    assert lines[0] == "n,l_n,t_n,coeffs"
    assert len(lines) == 5


def test_expcomp_binomial_exact_case(tmp_path):
    emit = run_cli("binomial", "--p", "13", "--k", "2")
    assert emit.returncode == 0
    path = tmp_path / "bin.seq"
    path.write_text(emit.stdout)
    res = run_cli("expcomp", "--input", str(path), "--n", "13")
    assert res.returncode == 0
    assert "E=4" in res.stdout


def test_expcomp_zero_no_witness(tmp_path):
    path = tmp_path / "zero.seq"
    path.write_text("q=2\n0 0 0\n")
    res = run_cli("expcomp", "--input", str(path), "--n", "3", "--witness", "--json")
    record = json.loads(res.stdout)
    assert record["profile"][0]["e_n"] == 0
    assert record["profile"][0]["witness"] is None


def test_expcomp_witness_text(ones_file):
    res = run_cli("expcomp", "--input", ones_file, "--n", "3", "--witness")
    assert res.returncode == 0
    assert "E=2" in res.stdout and "h =" in res.stdout


def test_binomial_emit_roundtrip(tmp_path):
    emit = run_cli("binomial", "--p", "7", "--k", "2", "--len", "7")
    assert emit.returncode == 0
    assert "1 3 6 3 1 0 0" in emit.stdout
    path = tmp_path / "bin72.seq"
    path.write_text(emit.stdout)
    direct = run_cli("expcomp", "--input", str(path), "--n", "7", "--json")
    record = json.loads(direct.stdout)
    assert record["profile"][0]["e_n"] == 2


def test_binomial_analyze(tmp_path):
    res = run_cli("binomial", "--p", "13", "--k", "2", "--analyze", "--json")
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["passed"] is True
    assert {c["claim"] for c in payload["claims"]} == {"P1.L", "P1.profile", "T3"}


def test_binomial_rejects_composite():
    res = run_cli("binomial", "--p", "4", "--k", "1")
    assert res.returncode == 3


def test_verify_clean(tmp_path):
    path = tmp_path / "ones3.seq"
    path.write_text("q=3\nmeta=t:0,T:1\n" + " ".join(["1"] * 10) + "\n")
    res = run_cli("verify", "--input", str(path), "--n", "10")
    assert res.returncode == 0
    assert "failures=0" in res.stdout


def test_verify_binomial_full_period(tmp_path):
    emit = run_cli("binomial", "--p", "11", "--k", "2", "--len", "33")
    path = tmp_path / "b11.seq"
    path.write_text(emit.stdout)
    res = run_cli("verify", "--input", str(path), "--n", "11", "--json")
    assert res.returncode == 0
    record = json.loads(res.stdout)
    assert record["failures"] == 0
    assert any(b["claim"] == "T1.lower" for b in record["bounds"])


def test_verify_extension_field(tmp_path):
    path = tmp_path / "f4.seq"
    path.write_text("q=2^2\nmod=1,1,1\nmeta=t:0,T:3\n" + "1 2 3 " * 4 + "\n")
    res = run_cli("verify", "--input", str(path), "--n", "9", "--json")
    assert res.returncode == 0
    record = json.loads(res.stdout)
    assert record["failures"] == 0
    assert record["field"] == {"p": 2, "m": 2, "modulus": [1, 1, 1]}


def test_single_run_records_have_top_level_values(tmp_path):
    path = tmp_path / "s.seq"
    path.write_text("q=2\n1 1 1 1 1\n")
    lin = json.loads(run_cli("lincomp", "--input", str(path), "--n", "5", "--json").stdout)
    assert (lin["l_n"], lin["t_n"], lin["coeffs"]) == (1, 0, [1])
    exp = json.loads(run_cli("expcomp", "--input", str(path), "--n", "5", "--json").stdout)
    assert exp["e_n"] == 2
    assert exp["witness"] and all(len(t) == 3 for t in exp["witness"])
    ver = json.loads(run_cli("verify", "--input", str(path), "--n", "5", "--json").stdout)
    assert (ver["l_n"], ver["t_n"], ver["e_n"]) == (1, 0, 2)


def test_malformed_file_exit_2(tmp_path):
    path = tmp_path / "bad.seq"
    path.write_text("q=2\n0 1 7\n")
    assert run_cli("verify", "--input", str(path), "--n", "2").returncode == 2
    assert run_cli("lincomp", "--input", str(path), "--n", "2").returncode == 2
    path2 = tmp_path / "missing.seq"
    assert run_cli("lincomp", "--input", str(path2), "--n", "2").returncode == 2


def test_precondition_exit_3(ones_file):
    assert run_cli("lincomp", "--input", ones_file, "--n", "99").returncode == 3
    assert run_cli("expcomp", "--input", ones_file, "--n", "99").returncode == 3


BAD_INPUT_CASES = {
    "lincomp-negative-n": ["lincomp", "--input", "{bits}", "--n", "-1"],
    "lincomp-zero-n": ["lincomp", "--input", "{bits}", "--n", "0"],
    "lincomp-zero-n-profile-json": [
        "lincomp", "--input", "{bits}", "--n", "0", "--profile", "--json"],
    "lincomp-long-n": ["lincomp", "--input", "{bits}", "--n", "11"],
    "expcomp-negative-n-profile": [
        "expcomp", "--input", "{bits}", "--n", "-1", "--profile"],
    "expcomp-zero-n-profile-json": [
        "expcomp", "--input", "{bits}", "--n", "0", "--profile", "--json"],
    "verify-zero-n-periodic": ["verify", "--input", "{periodic}", "--n", "0"],
    "verify-negative-n": ["verify", "--input", "{bits}", "--n", "-1", "--json"],
    "mc-zero-schedule-entry": [
        "experiment", "--mode", "mc", "--q", "2", "--samples", "4",
        "--schedule", "0,3", "--out", "{out}"],
    "mc-negative-n": [
        "experiment", "--mode", "mc", "--q", "2", "--samples", "4",
        "--n", "-2", "--out", "{out}"],
    "mc-zero-workers": [
        "experiment", "--mode", "mc", "--q", "2", "--samples", "4", "--n", "5",
        "--workers", "0", "--out", "{out}"],
    "exhaustive-negative-low-b": [
        "experiment", "--mode", "exhaustive", "--q", "2", "--n", "4",
        "--low-b", "-1", "--out", "{out}"],
    "exhaustive-zero-workers": [
        "experiment", "--mode", "exhaustive", "--q", "2", "--n", "4",
        "--workers", "0", "--out", "{out}"],
    "exhaustive-negative-n": [
        "experiment", "--mode", "exhaustive", "--q", "2", "--n", "-1",
        "--out", "{out}"],
    # a prime far above the cap, and an exponent too large to evaluate
    "exhaustive-huge-prime-q": [
        "experiment", "--mode", "exhaustive", "--q", "2305843009213693951",
        "--n", "3", "--out", "{out}"],
    "mc-huge-extension-degree": [
        "experiment", "--mode", "mc", "--q", "2^1000000000000", "--samples",
        "4", "--n", "5", "--out", "{out}"],
    # each sample would be tallied once per copy of n = 4
    "mc-repeated-schedule-entry": [
        "experiment", "--mode", "mc", "--q", "2", "--samples", "3",
        "--schedule", "4,4", "--out", "{out}"],
    # a well-formed file whose field is above the cap
    "lincomp-file-q-above-cap": ["lincomp", "--input", "{huge_q}", "--n", "3"],
    "verify-file-extension-above-cap": [
        "verify", "--input", "{huge_m}", "--n", "3"],
}


@pytest.mark.parametrize("case", sorted(BAD_INPUT_CASES))
def test_bad_input_exit_3_one_error_line(case, tmp_path):
    bits = tmp_path / "bits.seq"
    bits.write_text("q=2\n1 0 1 1 0 1 0 0 1 1\n")
    periodic = tmp_path / "periodic.seq"
    periodic.write_text("q=3\nmeta=t:0,T:2\n1 2 1 2 1 2 1 2\n")
    huge_q = tmp_path / "huge_q.seq"
    huge_q.write_text("q=2305843009213693951\n1 0 1\n")
    huge_m = tmp_path / "huge_m.seq"
    huge_m.write_text("q=3^13\n1 0 1\n")
    out = tmp_path / "out"
    paths = {"bits": str(bits), "periodic": str(periodic), "out": str(out),
             "huge_q": str(huge_q), "huge_m": str(huge_m)}
    res = run_cli(*(arg.format(**paths) for arg in BAD_INPUT_CASES[case]))
    assert res.returncode == 3, res.stderr
    assert "Traceback" not in res.stderr
    lines = res.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), res.stderr
    assert res.stdout == ""
    assert not out.exists()


MALFORMED_FILES = {
    "reducible-modulus": "q=2^2\nmod=1,0,1\n1 0 1\n",
    "element-out-of-range": "q=3\n1 0 3\n",
    "non-prime-q": "q=4\n1 0 1\n",
    "bad-field-spec": "q=2^x\n1 0 1\n",
}


@pytest.mark.parametrize("case", sorted(MALFORMED_FILES))
def test_malformed_file_exit_2_one_error_line(case, tmp_path):
    path = tmp_path / "bad.seq"
    path.write_text(MALFORMED_FILES[case])
    res = run_cli("lincomp", "--input", str(path), "--n", "3")
    assert res.returncode == 2, res.stderr
    assert "Traceback" not in res.stderr
    lines = res.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), res.stderr
    assert res.stdout == ""


def test_internal_error_exit_4_one_error_line(monkeypatch, capsys, ones_file):
    from seqcx import cli, expcomp

    def overrun(*args):
        raise RuntimeError("kernel search overran its counting bound")

    monkeypatch.setattr(expcomp, "_kernel_pass", overrun)
    assert cli.main(["expcomp", "--input", ones_file, "--n", "5"]) == 4
    res = capsys.readouterr()
    assert "Traceback" not in res.err
    assert res.err.splitlines() == [
        "error: internal: kernel search overran its counting bound"
    ]
    assert res.out == ""


def test_experiment_exhaustive_summary(tmp_path):
    res = run_cli(
        "experiment", "--mode", "exhaustive", "--q", "2", "--n", "6",
        "--out", str(tmp_path),
    )
    assert res.returncode == 0
    assert "violations=0" in res.stdout
    summary = json.loads((tmp_path / "exhaustive_q2_n6.json").read_text())
    assert summary["result"]["violations"] == 0
    csv_text = (tmp_path / "exhaustive_q2_n6.csv").read_text()
    assert csv_text.splitlines()[0] == "value,count"
    counts = dict(
        tuple(map(int, line.split(","))) for line in csv_text.splitlines()[1:]
    )
    assert sum(counts.values()) == 64


def test_experiment_cap_exit_3(tmp_path):
    res = run_cli(
        "experiment", "--mode", "exhaustive", "--q", "2", "--n", "40",
        "--out", str(tmp_path),
    )
    assert res.returncode == 3


def test_experiment_deterministic_bytes(tmp_path):
    out1, out2, out3 = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    base = ["experiment", "--mode", "exhaustive", "--q", "2", "--n", "5"]
    run_cli(*base, "--out", str(out1))
    run_cli(*base, "--out", str(out2))
    run_cli(*base, "--workers", "2", "--out", str(out3))
    for name in ("exhaustive_q2_n5.csv", "exhaustive_q2_n5.json"):
        first = (out1 / name).read_bytes()
        assert first == (out2 / name).read_bytes()
        assert first == (out3 / name).read_bytes()


def test_experiment_mc_deterministic_bytes(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    base = [
        "experiment", "--mode", "mc", "--q", "2", "--n", "9",
        "--samples", "32", "--seed", "7",
    ]
    run_cli(*base, "--out", str(out1))
    run_cli(*base, "--workers", "3", "--out", str(out2))
    for name in ("mc_q2_s32_seed7.json", "mc_q2_s32_seed7_n9.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_experiment_probe_and_scan(tmp_path):
    res = run_cli(
        "experiment", "--mode", "exhaustive", "--q", "2", "--n", "4",
        "--low-b", "1", "--tn-scan", "--out", str(tmp_path),
    )
    assert res.returncode == 0
    summary = json.loads((tmp_path / "exhaustive_q2_n4.json").read_text())
    probe = summary["low_expansion_probe"]
    assert (probe["count"], probe["reference_q_b_squared"]) == (4, 2)
    assert probe["exploratory"] is True
    assert summary["tn_ambiguity"]["canonical_choice_failures"] == 0
