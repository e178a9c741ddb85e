"""End-to-end command-line behavior driven through main(argv)."""

import hashlib
import io
import json

import pytest

from conftest import read_fixture
from walkspec.cli import EXIT_CERTIFIED, EXIT_FAILED, EXIT_LIMITED, EXIT_USAGE, main

G13 = read_fixture("dgas13.g6").strip()
G14 = read_fixture("dgas14.g6").strip()


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    for name in ("ALPHA", "FORMAT", "OUTPUT", "EFFORT"):
        monkeypatch.delenv(f"WALKSPEC_{name}", raising=False)


def _run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


def test_check_json_certified(capsys):
    code, out, err = _run(capsys, "check", "--alpha", "0", "--graph", "E@Uw",
                          "--output", "json")
    assert code == EXIT_CERTIFIED
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["n"] == 6
    assert payload["verdict"] == "CERTIFIED_DGAS"
    assert err == ""


def test_check_table_small_order(capsys):
    code, out, _ = _run(capsys, "check", "--alpha", "0", "--graph", "Bw")
    assert code == EXIT_LIMITED
    assert "verdict: SMALL_ORDER" in out.splitlines()


def test_check_exit_codes(capsys, tmp_path):
    code, _, _ = _run(capsys, "check", "--alpha", "0", "--graph", "DqK")
    assert code == EXIT_FAILED
    code, _, _ = _run(capsys, "check", "--alpha", "2/3", "--graph", "E@Uw")
    assert code == EXIT_LIMITED
    path = tmp_path / "g13.g6"
    path.write_text(G13 + "\n")
    code, out, _ = _run(capsys, "check", "--alpha", "2/3", "--effort", "0",
                        "--output", "json", str(path))
    assert code == EXIT_LIMITED
    assert json.loads(out)["verdict"] == "UNDECIDED_FACTORIZATION"
    code, _, err = _run(capsys, "check", "--alpha", "0", str(tmp_path / "no.g6"))
    assert code == EXIT_USAGE
    assert "error:" in err


def test_check_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("DqK\n"))
    code, out, _ = _run(capsys, "check", "--alpha", "0", "--output", "json", "-")
    assert code == EXIT_FAILED
    assert json.loads(out)["verdict"] == "SINGULAR_WALK_MATRIX"


def test_check_edgelist_matches_graph6(capsys, tmp_path):
    path = tmp_path / "g13.edges"
    path.write_text(read_fixture("dgas13.edges"))
    code, out, _ = _run(capsys, "check", "--alpha", "2/3", "--format",
                        "edgelist", "--output", "json", str(path))
    assert code == EXIT_CERTIFIED
    by_edges = json.loads(out)
    code, out, _ = _run(capsys, "check", "--alpha", "2/3", "--output", "json",
                        "--graph", G13)
    assert code == EXIT_CERTIFIED
    assert json.loads(out) == by_edges
    assert by_edges["det_walk"] == "-970196140154594000088496079690560"


# ---------------------------------------------------------------------------
# batch
# ---------------------------------------------------------------------------


def test_batch_mixed_file(capsys, tmp_path):
    path = tmp_path / "pool.g6"
    path.write_text("Bw\nDqK\nnot-a-graph\nE@Uw\n")
    code, out, _ = _run(capsys, "batch", "--alpha", "0", str(path))
    assert code == EXIT_FAILED  # one malformed line
    lines = out.splitlines()
    assert len(lines) == 5  # four records plus the summary
    records = [json.loads(ln) for ln in lines]
    assert [r["line"] for r in records[:4]] == [1, 2, 3, 4]
    assert records[0]["verdict"] == "SMALL_ORDER"
    assert records[1]["verdict"] == "SINGULAR_WALK_MATRIX"
    assert "error" in records[2] and "verdict" not in records[2]
    assert records[3]["verdict"] == "CERTIFIED_DGAS"
    summary = records[4]
    assert summary["summary"] is True
    assert summary["total"] == 4
    assert summary["errors"] == 1
    assert summary["verdicts"] == {"CERTIFIED_DGAS": 1,
                                   "SINGULAR_WALK_MATRIX": 1,
                                   "SMALL_ORDER": 1}


# ---------------------------------------------------------------------------
# snf and spectrum
# ---------------------------------------------------------------------------


def test_snf_certified_fixture(capsys):
    code, out, _ = _run(capsys, "snf", "--alpha", "2/3", "--output", "json",
                        "--graph", G13)
    assert code == EXIT_CERTIFIED
    payload = json.loads(out)
    assert payload["n"] == 13
    divisors = payload["divisors"]
    assert len(divisors) == 13
    assert divisors[:7] == ["1"] * 7
    assert divisors[7:12] == ["2"] * 5
    assert divisors[12] == "30318629379831062502765502490330"
    assert payload["singular"] is False
    assert payload["shape_holds"] is True
    assert payload["B"] == "15159314689915531251382751245165"
    assert payload["B_square_free"] is True
    assert "B_square_witness" not in payload


def test_snf_singular_graph(capsys):
    code, out, _ = _run(capsys, "snf", "--alpha", "0", "--output", "json",
                        "--graph", "DqK")
    assert code == EXIT_CERTIFIED
    payload = json.loads(out)
    assert payload["singular"] is True
    assert payload["shape_holds"] is False
    assert "B" not in payload


def test_spectrum_self_complementary(capsys):
    code, out, _ = _run(capsys, "spectrum", "--alpha", "0", "--output", "json",
                        "--graph", "DqK")
    assert code == EXIT_CERTIFIED
    payload = json.loads(out)
    assert payload["n"] == 5
    assert len(payload["poly"]) == 6
    assert payload["poly"] == payload["poly_complement"]


# ---------------------------------------------------------------------------
# mates and verify-theorem
# ---------------------------------------------------------------------------


def test_mates_enumerated(capsys):
    code, out, _ = _run(capsys, "mates", "--alpha", "0", "--n", "4",
                        "--output", "json")
    assert code == EXIT_CERTIFIED
    payload = json.loads(out)
    assert payload["graph_count"] == 11
    assert payload["class_count"] == 11
    assert payload["nontrivial_count"] == 0
    assert payload["classes"] == []
    code, out, _ = _run(capsys, "mates", "--alpha", "0", "--n", "4",
                        "--connected-only", "--output", "json")
    assert json.loads(out)["graph_count"] == 6


def test_mates_from_file(capsys, tmp_path):
    path = tmp_path / "pair.g6"
    path.write_text("G@QZt{\nG@U`}{\n")
    code, out, _ = _run(capsys, "mates", "--alpha", "0", "--output", "json",
                        str(path))
    assert code == EXIT_CERTIFIED
    payload = json.loads(out)
    assert payload["nontrivial_count"] == 1
    assert payload["classes"][0]["members"] == ["G@QZt{", "G@U`}{"]
    code, out, _ = _run(capsys, "mates", "--alpha", "0", str(path))
    assert "mates: G@QZt{ G@U`}{" in out.splitlines()


def test_verify_theorem_clean(capsys):
    code, out, _ = _run(capsys, "verify-theorem", "--alpha", "1/2", "--n", "5",
                        "--output", "json")
    assert code == EXIT_CERTIFIED
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["graph_count"] == 34
    assert payload["counterexamples"] == []
    code, out, _ = _run(capsys, "verify-theorem", "--alpha", "1/2", "--n", "5")
    assert code == EXIT_CERTIFIED
    assert out.splitlines()[-1] == "ok: true"


# sha256 of stdout, recorded from the brute-force canonical search before it
# was pruned: both canonical bytes and enumeration order show in these
@pytest.mark.parametrize("argv, sha256", [
    (("mates", "--n", "7", "--alpha", "0", "--output", "json"),
     "95a2fde0cfca58d3732653b4fb0b87976e2bcdd9c4c6a448fa83e92bb2d25545"),
    (("verify-theorem", "--n", "7", "--alpha", "1/2", "--output", "json"),
     "be7122714011ae40562ae9d9de6db8c7ecd8749a0dabfece6fc05ec0e9284782"),
], ids=["mates", "verify-theorem"])
def test_order_7_output_bytes_are_pinned(capsys, argv, sha256):
    code, out, _ = _run(capsys, *argv)
    assert code == EXIT_CERTIFIED
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


# ---------------------------------------------------------------------------
# environment defaults and usage errors
# ---------------------------------------------------------------------------


def test_env_defaults(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("WALKSPEC_ALPHA", "2/3")
    monkeypatch.setenv("WALKSPEC_OUTPUT", "json")
    code, out, _ = _run(capsys, "check", "--graph", "E@Uw")
    assert code == EXIT_LIMITED
    assert json.loads(out)["verdict"] == "EXCLUDED_CASE"
    # explicit flags beat the environment (alpha here; output stays json)
    code, out, _ = _run(capsys, "check", "--alpha", "0", "--graph", "E@Uw")
    assert code == EXIT_CERTIFIED
    assert json.loads(out)["verdict"] == "CERTIFIED_DGAS"
    monkeypatch.setenv("WALKSPEC_EFFORT", "0")
    path = tmp_path / "g13.g6"
    path.write_text(G13 + "\n")
    code, out, _ = _run(capsys, "check", "--alpha", "2/3", str(path))
    assert code == EXIT_LIMITED
    assert json.loads(out)["verdict"] == "UNDECIDED_FACTORIZATION"


def test_malformed_integer_env_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("WALKSPEC_EFFORT", "abc")
    code, out, err = _run(capsys, "check", "--alpha", "0", "--graph", "E@Uw")
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error:") and "WALKSPEC_EFFORT" in err


def test_usage_errors(capsys, tmp_path):
    cases = [
        ("check", "--graph", "Bw"),                        # no alpha anywhere
        ("check", "--alpha", "7/6", "--graph", "Bw"),      # alpha out of range
        ("check", "--alpha", "abc", "--graph", "Bw"),      # unparseable alpha
        ("check", "--alpha", "0"),                         # no input at all
        ("check", "--alpha", "0", "--graph", "Bw", "x"),   # file and inline
        ("check", "--alpha", "0", "--format", "edgelist",
         "--graph", "Bw"),                                 # inline needs graph6
        ("check", "--alpha", "0", "--effort", "-1", "--graph", "Bw"),
        ("mates", "--alpha", "0"),                         # neither --n nor file
        ("mates", "--alpha", "0", "--n", "0"),
        ("mates", "--alpha", "0", "--n", "9"),
        ("verify-theorem", "--alpha", "0", "--n", "3", "f"),  # both inputs
        ("nonsense",),
    ]
    for argv in cases:
        code, _, err = _run(capsys, *argv)
        assert code == EXIT_USAGE, argv
        assert err.startswith("error:"), argv
    path = tmp_path / "mates-file.g6"
    path.write_text("Bw\n")
    code, _, err = _run(capsys, "mates", "--alpha", "0", "--n", "3", str(path))
    assert code == EXIT_USAGE


def test_non_ascii_inline_graph_is_a_parse_error(capsys):
    code, out, err = _run(capsys, "check", "--alpha", "1/2", "--graph",
                          "Dq\u00e9")
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error:") and "offset 2" in err


def test_non_ascii_file_byte_is_a_parse_error(capsys, tmp_path):
    path = tmp_path / "bad.g6"
    path.write_bytes(b"DqK\nDq\xc3\n")
    for command in ("check", "batch"):
        code, out, err = _run(capsys, command, "--alpha", "1/2", str(path))
        assert code == EXIT_USAGE, command
        assert out == ""
        assert err.startswith("error:"), command
        assert "0xc3" in err and "offset 6" in err, command


def test_removed_flags_are_usage_errors(capsys, monkeypatch):
    for flag, value in (("--threads", "3"), ("--seed", "7")):
        code, out, err = _run(capsys, "check", "--alpha", "0", "--graph",
                              "E@Uw", flag, value)
        assert code == EXIT_USAGE, flag
        assert out == ""
        assert err.startswith("error:") and flag in err, flag
    # their environment variables are no longer read at all
    code, baseline, _ = _run(capsys, "check", "--alpha", "0", "--graph", "E@Uw")
    assert code == EXIT_CERTIFIED
    for name in ("THREADS", "SEED"):
        monkeypatch.setenv(f"WALKSPEC_{name}", "abc")
        code, out, err = _run(capsys, "check", "--alpha", "0", "--graph", "E@Uw")
        assert (code, out, err) == (EXIT_CERTIFIED, baseline, ""), name
        monkeypatch.delenv(f"WALKSPEC_{name}")


def test_help_returns_from_main(capsys):
    for argv in (("--help",), ("check", "--help"), ("verify-theorem", "-h")):
        code, out, err = _run(capsys, *argv)
        assert code == 0, argv
        assert out.startswith("usage: walkspec"), argv
        assert err == "", argv
