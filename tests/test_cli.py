"""Subprocess harness for the CLI: exit codes, formats, determinism."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from oracles import raised_key_start

CMD = [sys.executable, "-m", "seqcx.cli"]


def _assert_stdlib_json(text):
    """A JSON record is byte for byte what the stdlib encoder writes."""
    assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"


def run_cli(*args, cwd=None):
    res = subprocess.run(
        CMD + list(args), capture_output=True, text=True, cwd=cwd, timeout=300
    )
    if res.stdout.startswith("{"):
        _assert_stdlib_json(res.stdout)
    if "--out" in args and res.returncode == 0:
        out = Path(cwd or ".") / args[args.index("--out") + 1]
        for path in out.glob("*.json"):
            _assert_stdlib_json(path.read_text())
    return res


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
    # flag values that are not a field size or a prefix length; no file
    # is involved, so these are not parse errors
    "mc-bad-q": [
        "experiment", "--mode", "mc", "--q", "abc", "--samples", "4",
        "--n", "5", "--out", "{out}"],
    "exhaustive-bad-q-exponent": [
        "experiment", "--mode", "exhaustive", "--q", "2^x", "--n", "4",
        "--out", "{out}"],
    "mc-bad-schedule-entry": [
        "experiment", "--mode", "mc", "--q", "2", "--samples", "4",
        "--schedule", "3,x", "--out", "{out}"],
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
    # no E_n exceeds the kernel degree bound, 2 at n = 3: a larger b would
    # compute q^(b^2), too large to finish or to print
    "exhaustive-huge-low-b": [
        "experiment", "--mode", "exhaustive", "--q", "3", "--n", "3",
        "--low-b", "7000", "--out", "{out}"],
    "exhaustive-low-b-reference-too-long-to-print": [
        "experiment", "--mode", "exhaustive", "--q", "2", "--n", "3",
        "--low-b", "200", "--out", "{out}"],
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
    # flags the chosen mode would ignore
    "mc-tn-scan": [
        "experiment", "--mode", "mc", "--q", "2", "--samples", "4", "--n", "5",
        "--tn-scan", "--out", "{out}"],
    "mc-low-b": [
        "experiment", "--mode", "mc", "--q", "2", "--samples", "4", "--n", "5",
        "--low-b", "0", "--out", "{out}"],
    "mc-no-checks": [
        "experiment", "--mode", "mc", "--q", "2", "--samples", "4", "--n", "5",
        "--no-checks", "--out", "{out}"],
    "exhaustive-schedule": [
        "experiment", "--mode", "exhaustive", "--q", "2", "--n", "4",
        "--schedule", "4", "--out", "{out}"],
    "exhaustive-samples": [
        "experiment", "--mode", "exhaustive", "--q", "2", "--n", "4",
        "--samples", "8", "--out", "{out}"],
    "exhaustive-seed": [
        "experiment", "--mode", "exhaustive", "--q", "2", "--n", "4",
        "--seed", "7", "--out", "{out}"],
    # the sampler hashes 64 bits of the seed; no other seed may alias one
    "mc-seed-negative": [
        "experiment", "--mode", "mc", "--q", "2", "--samples", "2", "--n", "4",
        "--seed", "-1", "--out", "{out}"],
    "mc-seed-2-to-the-64": [
        "experiment", "--mode", "mc", "--q", "2", "--samples", "2", "--n", "4",
        "--seed", "18446744073709551616", "--out", "{out}"],
    "mc-n-and-schedule": [
        "experiment", "--mode", "mc", "--q", "2", "--samples", "4", "--n", "5",
        "--schedule", "4,6", "--out", "{out}"],
    # explicit values equal to the defaults: given, so rejected all the same
    "exhaustive-seed-zero": [
        "experiment", "--mode", "exhaustive", "--q", "2", "--n", "3",
        "--seed", "0", "--out", "{out}"],
    "exhaustive-samples-zero": [
        "experiment", "--mode", "exhaustive", "--q", "2", "--n", "3",
        "--samples", "0", "--out", "{out}"],
    "mc-zero-n": [
        "experiment", "--mode", "mc", "--q", "2", "--n", "0", "--out", "{out}"],
    "mc-zero-n-and-schedule": [
        "experiment", "--mode", "mc", "--q", "2", "--n", "0", "--schedule", "5",
        "--out", "{out}"],
    "exhaustive-no-n": [
        "experiment", "--mode", "exhaustive", "--q", "2", "--out", "{out}"],
    # the scan's own limits, checked before the sweep
    "exhaustive-tn-scan-n-too-large": [
        "experiment", "--mode", "exhaustive", "--q", "2", "--n", "13",
        "--tn-scan", "--out", "{out}"],
    "exhaustive-tn-scan-q3": [
        "experiment", "--mode", "exhaustive", "--q", "3", "--n", "4",
        "--tn-scan", "--out", "{out}"],
    # a well-formed file whose field is above the cap
    "lincomp-file-q-above-cap": ["lincomp", "--input", "{huge_q}", "--n", "3"],
    "verify-file-extension-above-cap": [
        "verify", "--input", "{huge_m}", "--n", "3"],
    # the field cap is checked before p is tested for primality
    "binomial-huge-prime-p": ["binomial", "--p", "2305843009213693951", "--k", "1"],
    "binomial-prime-above-cap-analyze": [
        "binomial", "--p", "1048583", "--k", "1", "--analyze"],
    # flags the command would ignore
    "expcomp-witness-csv": [
        "expcomp", "--input", "{bits}", "--n", "10", "--profile", "--witness",
        "--csv"],
    "binomial-json-without-analyze": [
        "binomial", "--p", "13", "--k", "2", "--json"],
    "binomial-analyze-len": [
        "binomial", "--p", "13", "--k", "2", "--analyze", "--len", "3"],
    # work caps, checked before any term is built
    "binomial-len-above-cap": [
        "binomial", "--p", "13", "--k", "2", "--len", "1000000000"],
    "binomial-analyze-above-cap": [
        "binomial", "--p", "2053", "--k", "2", "--analyze"],
    # --q takes ASCII decimal digits only, as sequence files do
    "exhaustive-q-underscore-space": [
        "experiment", "--mode", "exhaustive", "--q", " 1_1", "--n", "1",
        "--out", "{out}"],
    "mc-q-signed-exponent": [
        "experiment", "--mode", "mc", "--q", "2^+1", "--samples", "4",
        "--n", "5", "--out", "{out}"],
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


@pytest.mark.parametrize("flags, message", [
    (["--q", "2^x", "--n", "5"], "--q: bad field spec '2^x'"),
    (["--q", "2", "--schedule", "3,x"], "--schedule entry 'x' is not an integer"),
])
def test_bad_flag_value_names_flag_and_entry(flags, message, tmp_path):
    res = run_cli("experiment", "--mode", "mc", "--samples", "4", *flags,
                  "--out", str(tmp_path / "out"))
    assert res.returncode == 3
    assert res.stderr == f"error: {message}\n"


MALFORMED_FILES = {
    "reducible-modulus": "q=2^2\nmod=1,0,1\n1 0 1\n",
    "element-out-of-range": "q=3\n1 0 3\n",
    "non-prime-q": "q=4\n1 0 1\n",
    "bad-field-spec": "q=2^x\n1 0 1\n",
    # integers are ASCII decimal digits only, though int() takes more
    "q-underscore": "q=1_1\n1 0 3\n",
    "element-underscore": "q=11\n1_0 3 0\n",
    "element-plus-sign": "q=11\n1 +3 0\n",
    "element-arabic-indic-digit": "q=11\n1 \u0663 0\n",
    "meta-spaces-and-sign": "q=2\nmeta=t: 0 ,T:+1\n1 1 1\n",
    "mod-plus-sign": "q=2^2\nmod=+1,1,1\n1 2 3\n",
    # meta= takes t and T once each, and mod= spells coefficients below p
    "meta-repeated-key": "q=2\nmeta=t:0,t:5,T:1\n1 1 1\n",
    "meta-unknown-key": "q=2\nmeta=t:0,T:1,x:3\n1 1 1\n",
    "mod-constant-above-p": "q=3^2\nmod=4,0,1\n1 2 3\n",
    "mod-leading-above-p": "q=3^2\nmod=1,0,4\n1 2 3\n",
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


def test_non_utf8_file_exit_2_names_file(tmp_path):
    path = tmp_path / "bad.seq"
    path.write_bytes(b"q=2\n1 0 \xff 1\n")
    res = run_cli("lincomp", "--input", str(path), "--n", "3")
    assert res.returncode == 2, res.stderr
    lines = res.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: cannot read {path}: ")
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


def test_a_corrupted_lane_exits_4_with_one_error_line(monkeypatch, capsys, tmp_path):
    # every row of the first lane with s_0 = 1 starts one key up, so that
    # lane's E_1 is 2, past the counting bound
    from seqcx import cli, expcomp

    first_one = raised_key_start(lambda columns: columns[0] & -columns[0], 1)
    monkeypatch.setattr(expcomp, "_lane_start", first_one)
    argv = ["experiment", "--mode", "mc", "--q", "2", "--samples", "100",
            "--schedule", "16,64", "--seed", "3", "--out", str(tmp_path)]
    assert cli.main(argv) == 4
    res = capsys.readouterr()
    assert "Traceback" not in res.err
    assert res.err.splitlines() == [
        "error: internal: kernel search overran its counting bound"
    ]
    assert res.out == ""


@pytest.mark.parametrize(
    "flags, witnesses",
    [
        (["--csv"], 0),
        (["--json"], 1),
        ([], 0),
        (["--witness"], 12),
        (["--witness", "--json"], 12),
    ],
)
def test_expcomp_profile_builds_only_printed_witnesses(
    flags, witnesses, tmp_path, monkeypatch, capsys
):
    # E_n comes off the profile's values; a witness is built for each row
    # that prints one, and for the final witness of the JSON record
    from seqcx import cli, expcomp

    path = tmp_path / "f3.seq"
    path.write_text("q=3\n1 2 0 1 1 0 2 2 1 0 1 2\n")
    real_witness = expcomp.ExpansionProfile.witness
    built = []

    def counting_witness(self, m):
        built.append(m)
        return real_witness(self, m)

    monkeypatch.setattr(expcomp.ExpansionProfile, "witness", counting_witness)
    argv = ["expcomp", "--input", str(path), "--n", "12", "--profile", *flags]
    assert cli.main(argv) == 0
    assert len(built) == witnesses
    out = capsys.readouterr().out
    if "--json" in flags:
        record = json.loads(out)
        assert record["witness"] is not None and record["e_n"] > 0


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
    out1, out2, out3, out4 = (tmp_path / d for d in ("a", "b", "c", "d"))
    base = ["experiment", "--mode", "exhaustive", "--n", "5"]
    run_cli(*base, "--q", "2", "--out", str(out1))
    run_cli(*base, "--q", "2", "--out", str(out2))
    run_cli(*base, "--q", "2", "--workers", "2", "--out", str(out3))
    # 2^1 names F_2 as well: file names come from the field, not the flag
    run_cli(*base, "--q", "2^1", "--out", str(out4))
    for name in ("exhaustive_q2_n5.csv", "exhaustive_q2_n5.json"):
        first = (out1 / name).read_bytes()
        for out in (out2, out3, out4):
            assert first == (out / name).read_bytes()


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


@pytest.mark.parametrize("under", ["", "sub"], ids=["file", "under-file"])
def test_experiment_bad_out_exit_3_one_error_line(under, tmp_path):
    # --out names an existing file, or a path below one
    blocker = tmp_path / "taken"
    blocker.write_text("not a directory\n")
    out = blocker / under if under else blocker
    res = run_cli("experiment", "--mode", "exhaustive", "--q", "2", "--n", "3",
                  "--out", str(out))
    assert res.returncode == 3
    assert "Traceback" not in res.stderr
    lines = res.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: --out: "), res.stderr
    assert res.stdout == ""
    assert blocker.read_text() == "not a directory\n"


def test_experiment_unwritable_output_file_exit_3(tmp_path, monkeypatch, capsys):
    # an OSError while writing the files is reported the same way
    from seqcx import cli

    def refuse(self, text):
        raise PermissionError(13, "Permission denied", str(self))

    monkeypatch.setattr(Path, "write_text", refuse)
    argv = ["experiment", "--mode", "mc", "--q", "2", "--samples", "2",
            "--n", "4", "--out", str(tmp_path / "out")]
    assert cli.main(argv) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: --out: "), err
    assert "Permission denied" in err[0]


def test_import_starts_no_pool_machinery():
    # concurrent.futures.process, and multiprocessing with it, is imported
    # only where a pool starts
    code = (
        "import sys, seqcx.cli; "
        "print(sorted(m for m in ('concurrent.futures.process', 'multiprocessing') "
        "if m in sys.modules))"
    )
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=60)
    assert res.returncode == 0, res.stderr
    assert res.stdout == "[]\n"


def test_tn_scan_limits_rejected_before_the_sweep(tmp_path, monkeypatch, capsys):
    from seqcx import cli, experiments

    def sweep(cfg):
        raise AssertionError("enumerate_all ran before the scan's limits")

    monkeypatch.setattr(experiments, "enumerate_all", sweep)
    out = tmp_path / "out"
    argv = ["experiment", "--mode", "exhaustive", "--q", "2", "--n", "13",
            "--tn-scan", "--out", str(out)]
    assert cli.main(argv) == 3
    assert capsys.readouterr().err == "error: scan is limited to q=2 and n <= 10\n"
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["--p", "13", "--k", "2", "--len", "1048577"],
     "--len 1048577 exceeds the cap of 1048576 terms"),
    (["--p", "2053", "--k", "2", "--analyze"],
     "--analyze runs the engines on 2p = 4106 terms, over the cap of 4096"),
], ids=["len", "analyze"])
def test_binomial_work_caps_rejected_before_any_term(argv, message, monkeypatch, capsys):
    import time

    from seqcx import binomial, cli

    def build(*args):
        raise AssertionError("a term was built before the cap was checked")

    monkeypatch.setattr(binomial, "generate", build)
    monkeypatch.setattr(binomial, "analyze", build)
    start = time.perf_counter()
    assert cli.main(["binomial", *argv]) == 3
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err == f"error: {message}\n"


def test_binomial_len_cap_admits_its_limit(capsys):
    from seqcx import cli

    assert cli.main(["binomial", "--p", "13", "--k", "2", "--len", "1048576"]) == 0
    # the two header lines, then one token per term
    assert len(capsys.readouterr().out.split()) == 2 + 1048576


def _check_verify_fixture(name, count, tmp_path, capsys):
    """Run every case of a verify --json fixture and compare the bound
    count and the SHA-256 of stdout, with the timing value written as 0."""
    import hashlib
    import re
    from pathlib import Path

    from seqcx import cli

    fixture = Path(__file__).parent / "fixtures" / name
    cases = json.loads(fixture.read_text())["cases"]
    assert len(cases) == count
    for case in cases:
        path = tmp_path / (case["name"] + ".seq")
        path.write_text(case["file"])
        argv = ["verify", "--input", str(path), "--n", str(case["n"]), "--json"]
        assert cli.main(argv) == case["exit"], case["name"]
        out = re.sub(r'"timing": [^,\n]+', '"timing": 0', capsys.readouterr().out)
        assert len(json.loads(out)["bounds"]) == case["bounds"], case["name"]
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == case["stdout_sha256"], case["name"]


def test_verify_json_zero_led_matches_fixture(tmp_path, capsys):
    # verify --json bytes recorded before the bound checkers compared
    # prefix lengths with the index of the first nonzero term: zero-led
    # inputs over F_2 and F_3 (first nonzero at 0, 1, n//2, n-1, and at n
    # with declared periodicity).  The digests of q2-first6-periodic,
    # q2-first12-periodic and q3-first4-periodic were recorded again once T1
    # read (L, t) off a fit on 2(t + T) terms: (8, 6), (13, 12) and (7, 3)
    _check_verify_fixture("verify_zero_led.json", 12, tmp_path, capsys)


def test_verify_json_long_prefixes_match_fixture(tmp_path, capsys):
    # verify --json bytes recorded while every Frobenius certificate was
    # substituted at its own length: random terms over F_2 (n=512), F_101
    # (n=128) and F_9 (n=96), and a declared-periodic F_7 file (n=64)
    _check_verify_fixture("verify_long.json", 4, tmp_path, capsys)


def test_main_builds_its_parser_once(monkeypatch, capsys, ones_file):
    # the first main call builds the parser and every later call reuses it,
    # an argparse rejection (exit 2) included; each output is what a call
    # with a freshly built parser writes
    import re

    from seqcx import cli

    argvs = [
        ["lincomp", "--input", ones_file, "--n", "5", "--json"],
        ["verify", "--input", ones_file, "--n", "6"],
        ["expcomp", "--input", ones_file, "--n", "9"],
        ["lincomp", "--input", ones_file, "--n", "five"],
        ["expcomp", "--input", ones_file, "--n", "4", "--witness"],
    ]
    real_build = cli.build_parser
    builds = []

    def counting_build():
        builds.append(1)
        return real_build()

    def run(argv):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        res = capsys.readouterr()
        return code, re.sub(r'"timing": [^,\n]+', '"timing": 0', res.out), res.err

    monkeypatch.setattr(cli, "build_parser", counting_build)
    fresh = []
    for argv in argvs:
        monkeypatch.setattr(cli, "_parser", None)
        fresh.append(run(argv))
    assert len(builds) == len(argvs)
    assert [code for code, _, _ in fresh] == [0, 0, 3, 2, 0]
    builds.clear()
    monkeypatch.setattr(cli, "_parser", None)
    assert [run(argv) for argv in argvs + argvs] == fresh + fresh
    assert len(builds) == 1
