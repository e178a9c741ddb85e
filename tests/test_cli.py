"""End-to-end command-line behavior driven through main(argv)."""

import hashlib
import io
import json
import random
import tracemalloc
from types import SimpleNamespace

import pytest

from conftest import (FIXTURES, HARD_ALPHA, at_each_worker_count, random_graph,
                      read_fixture)
from walkspec import cli, numtheory
from walkspec.cli import EXIT_CERTIFIED, EXIT_FAILED, EXIT_LIMITED, EXIT_USAGE, main
from walkspec.criterion import AlphaParam, criterion_check, report_to_json
from walkspec.graphs import Graph, encode_graph6, enumerate_graphs, parse_graph6
from walkspec.oracle import verification_to_json, verify_theorem

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


def test_batch_numbers_lines_as_splitlines_does(capsys, monkeypatch):
    """Differential: every line boundary of str.splitlines, vertical tab,
    form feed and the separators 0x1c-0x1e among them, gives the record
    the line number that text.splitlines() gives its line."""
    text = ("Bw\x0bDqK\x0c\x0cnot-a-graph\x1cE@Uw\x1d\x1eC~\r\n \r\rDqK\n"
            "\x85Bw\u2028E@Uw\u2029\nC~")
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, out, _ = _run(capsys, "batch", "--alpha", "0", "-")
    assert code == EXIT_FAILED
    expect = []
    for lineno, line in enumerate(text.splitlines(), 1):
        if line.strip():
            try:
                rec = report_to_json(criterion_check(parse_graph6(line), AlphaParam(0, 1)))
            except ValueError as exc:
                rec = {"schema": 1, "error": str(exc)}
            rec["line"] = lineno
            expect.append(rec)
    records = [json.loads(ln) for ln in out.splitlines()]
    assert records[:-1] == expect
    assert records[-1]["total"] == len(expect) == 9


def test_batch_holds_no_list_of_its_lines(capsys, tmp_path, monkeypatch):
    """batch reads its whole input before the first record, so a bad byte
    anywhere exits 64 with nothing printed, but then takes one line at a
    time: by the 1,000th graph of 200,000 lines of C~ it has traced about
    the decoded text, where a list of the lines took it to 12.8 MB."""
    path = tmp_path / "pool.g6"
    path.write_bytes(b"C~\n" * 1000 + b"\xff\n")
    code, out, err = _run(capsys, "batch", "--alpha", "1/2", str(path))
    assert (code, out) == (EXIT_USAGE, "")
    assert "undecodable byte 0xff" in err
    path.write_text("C~\n" * 200_000)

    class Enough(Exception):
        pass

    checked = []

    def check(g, alpha, factor_effort):
        checked.append(g.n)
        if len(checked) == 1000:
            raise Enough
        return criterion_check(g, alpha, factor_effort=factor_effort)

    monkeypatch.setattr(cli, "criterion_check", check)
    tracemalloc.start()
    try:
        with pytest.raises(Enough):
            main(["batch", "--alpha", "1/2", str(path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert capsys.readouterr().out.count("\n") == 999
    assert peak < 2_000_000


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


def test_snf_and_check_read_square_freeness_alike(capsys):
    """Where the Smith shape holds, B = |det W| / 2^floor(n/2), so snf's
    verdict on B and check's on the reduced determinant are one fact, read
    by both commands from the same factorization. The effort stays below
    rho's share, so ECM never runs and a B that rho cannot split is
    undecided on both sides."""
    rng = random.Random(19)
    seen = set()
    for n in range(5, 17):
        for _ in range(6):
            g6 = encode_graph6(random_graph(rng, n))
            for alpha in ("0", "1/2", "2/3", "3/4"):
                argv = ("--alpha", alpha, "--output", "json", "--effort", "16384",
                        "--graph", g6)
                snf = json.loads(_run(capsys, "snf", *argv)[1])
                if not snf["shape_holds"]:
                    continue
                seen.add(snf["B_square_free"])
                check = json.loads(_run(capsys, "check", *argv)[1])
                case = (g6, alpha)
                assert snf["B"] == check["reduced"].lstrip("-"), case
                assert snf["B_square_free"] is check["is_square_free"], case
                assert snf.get("B_square_witness") == check["square_witness"], case
    assert seen == {True, False, None}  # each outcome was compared


def test_snf_singular_graph(capsys):
    code, out, _ = _run(capsys, "snf", "--alpha", "0", "--output", "json",
                        "--graph", "DqK")
    assert code == EXIT_CERTIFIED
    payload = json.loads(out)
    assert payload["singular"] is True
    assert payload["shape_holds"] is False
    assert "B" not in payload


def test_snf_singular_order_40_output_bytes_are_pinned(capsys):
    # sha256 of stdout, recorded from the plain-integer elimination that
    # singular walk matrices took before the bounded-entry path covered them
    code, out, _ = _run(capsys, "snf", "--alpha", "1/2", "--output", "json",
                        str(FIXTURES / "singular40.g6"))
    assert code == EXIT_CERTIFIED
    assert json.loads(out)["singular"] is True
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "93e70d050a1612a8e4d93e04c7d5ea292759594ccc33915f7ad9fa123bb64eed")


# sha256 of stdout, recorded from the row-and-column modular elimination
# before the row-only diagonal replaced it
@pytest.mark.parametrize("fixture, alpha, sha256", [
    ("dgas14", "3/4", "96cb447177dde8bc14beaafeac5bc1ad8a5b6fbde14a8c083519da98ea954c97"),
    ("dgas14", "5/6", "40098f6c39e0e6a0ca094ec11ae4c7258d17585a7bf44d329dd53dc0d66b6663"),
    ("dgas13", "2/3", "8e8d37aa7ec91352dea9861f9117279c8a1b5e2e66d5b7cd3364160fd998c2b0"),
    ("dgas13", "10/11", "3b2fbe93462b970c1798f8901f2e4c16e232e7efd0ad94108c76d2ce06427e0b"),
])
def test_snf_fixture_output_bytes_are_pinned(capsys, fixture, alpha, sha256):
    code, out, _ = _run(capsys, "snf", "--alpha", alpha, "--output", "json",
                        str(FIXTURES / f"{fixture}.g6"))
    assert code == EXIT_CERTIFIED
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


# sha256 of stdout, recorded from the bigint trace recursion before a
# Hessenberg reduction modulo a Mersenne prime replaced it, and at
# c = 10^52 + 1 from that reduction before Berkowitz's recurrence replaced
# it; the inline graphs are G(32, 1/2) from random.Random(3201) and
# G(36, 1/2) from random.Random(3601), edges drawn in the order
# j = 1..n-1, i = 0..j-1
@pytest.mark.parametrize("alpha, graph, sha256", [
    ("3/4", None, "2c97dc7848faebfcd34c9ae05cae4b4355e87318d858af0c242a8c30f87710d2"),
    ("1/10000000000000000000000000000000000000000000000000001", None,
     "6173e96a833f06fbd652a1ca24d6913c8d4492a5b39e57c5c2eefc7048bf4edd"),
    ("1/2", "_WPiYRul~hlhlNvy[XhAnh]zqXpjJmRfWaK_Rduib]xjR}\\sTAtptWp^pNI?^HFpwXcVHDBOGpxwGLfnBxAg",
     "07a688fd80f6d3ef2bba2c191665f86da1db88843245fe45c0523c6831e5d9fb"),
    ("2/3", "ck^A[SNYTp\\F^ZBQ{[RDCgiOfqEiV@Fhga_d\\PBo]c|yCOlzVAzDiuF{H]kn][^AzRS?uTms?jrIHFh^eBk?vj`GQOmB`JME]lYSwFNHQk",
     "278a4d0a4e11ae153d99564f7015841880083f7b53b161853037cb85610ecfc4"),
], ids=["singular40", "singular40-big-c", "order32", "order36"])
def test_spectrum_output_bytes_are_pinned(capsys, alpha, graph, sha256):
    source = (str(FIXTURES / "singular40.g6"),) if graph is None else ("--graph", graph)
    code, out, _ = _run(capsys, "spectrum", "--alpha", alpha, "--output", "json",
                        *source)
    assert code == EXIT_CERTIFIED
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


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
    # at alpha = 0 the JSON lists 35 plain-only groups, which the table omits
    (("verify-theorem", "--n", "7", "--alpha", "0", "--output", "json"),
     "daecaf954f52eabe6a7c8e9e3e421fbddbb03d83223fe7dcf83c78cc8b75800e"),
    (("verify-theorem", "--n", "7", "--alpha", "0"),
     "716b459cdad233e3ba925e33b25419d1f6ec6a8c52f7c0d5e47bb386bf5b896e"),
], ids=["mates", "verify-theorem", "verify-theorem-0-json", "verify-theorem-0-table"])
def test_order_7_output_bytes_are_pinned(capsys, argv, sha256):
    code, out, _ = _run(capsys, *argv)
    assert code == EXIT_CERTIFIED
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


MATES8 = str(FIXTURES.parent / "perfbench" / "data" / "mates8_alpha_1-2.g6")


# sha256 of stdout, recorded while the table was still read off the JSON
# payload of polynomial strings
@pytest.mark.parametrize("argv, sha256", [
    (("verify-theorem", "--n", "7", "--alpha", "1/2"),
     "991b48e23e4ffe36f20267fa845cb87a999e1a7ef13c40868dd2cfeb76758612"),
    (("verify-theorem", "--alpha", "1/2", MATES8),
     "4e07db4375ac6e0bddb15bb5530d815427914c4b784372346c53eb0a5ecad600"),
    (("mates", "--n", "7", "--alpha", "0"),
     "c88fa10e46f0403ac8d97bbc404bd0283670b39b97a06e5121afd38870026901"),
], ids=["verify-theorem", "verify-theorem-mates8", "mates"])
def test_table_output_bytes_are_pinned(capsys, argv, sha256):
    code, out, _ = _run(capsys, *argv)
    assert code == EXIT_CERTIFIED
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


@pytest.mark.parametrize("argv", [
    ("verify-theorem", "--n", "7", "--alpha", "0", "--output", "json"),
    ("verify-theorem", "--n", "7", "--alpha", "0"),
    ("verify-theorem", "--n", "7", "--alpha", "1/2", "--output", "json"),
    ("verify-theorem", "--n", "7", "--alpha", "1/2"),
    ("verify-theorem", "--alpha", "1/2", MATES8),
    ("mates", "--n", "7", "--alpha", "0"),
], ids=["verify-0-json", "verify-0-table", "verify-1/2-json",
        "verify-1/2-table", "verify-mates8", "mates"])
def test_output_bytes_do_not_depend_on_worker_count(capsys, monkeypatch, argv):
    outs = at_each_worker_count(monkeypatch, lambda: _run(capsys, *argv))
    assert outs[0][0] == EXIT_CERTIFIED
    assert outs[1] == outs[0] and outs[2] == outs[0]


def test_table_output_builds_no_json_payload(capsys, monkeypatch, tmp_path):
    """The table paths print counts and members off the report and the
    classes; neither builds nor serializes a JSON payload."""
    def refuse(*args, **kwargs):
        raise AssertionError("table output built a JSON payload")

    monkeypatch.setattr(cli, "verification_to_json", refuse)
    monkeypatch.setattr(cli, "json", SimpleNamespace(dump=refuse, dumps=refuse))
    path = tmp_path / "pair.g6"
    path.write_text("G@QZt{\nG@U`}{\n")
    code, out, _ = _run(capsys, "verify-theorem", "--alpha", "0", str(path))
    assert code == EXIT_CERTIFIED
    assert out.splitlines() == [
        "graphs: 2", "classes: 1", "certified: 0", "nontrivial: 1",
        "pair_checks: 1", "skipped_singular_pairs: 0", "counterexamples: 0",
        "ok: true"]
    code, out, _ = _run(capsys, "mates", "--alpha", "0", str(path))
    assert code == EXIT_CERTIFIED
    assert out.splitlines() == ["graphs: 2", "classes: 1", "nontrivial: 1",
                                "mates: G@QZt{ G@U`}{"]


def test_json_output_is_the_indented_payload(capsys, tmp_path):
    """Streamed JSON has the bytes of the payload dumped as one string."""
    alpha = AlphaParam.parse("1/2")
    _, out, _ = _run(capsys, "verify-theorem", "--alpha", "1/2", "--n", "5",
                     "--output", "json")
    report = verify_theorem(enumerate_graphs(5), alpha)
    assert out == json.dumps(verification_to_json(report), indent=2) + "\n"
    _, out, _ = _run(capsys, "check", "--alpha", "1/2", "--output", "json",
                     "--graph", G13)
    report = criterion_check(parse_graph6(G13), alpha)
    assert out == json.dumps(report_to_json(report), indent=2) + "\n"
    path = tmp_path / "pair.g6"
    path.write_text("G@QZt{\nG@U`}{\n")
    _, out, _ = _run(capsys, "mates", "--alpha", "0", "--output", "json",
                     str(path))
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


# orders 5-11, one malformed line; every verdict but the excluded ones shows
BATCH_POOL = ("Di?", "EAFO", "FA]\\O", "GKV}R?", "not-a-graph", "HYIiKbB",
              "IuJssIFGg", "Jp{F]iNjq[?", "HaQP`@~", "JtHs[aBfSd?")


def test_batch_output_bytes_are_pinned(capsys, tmp_path):
    # sha256 of stdout, recorded before the per-command option sets
    path = tmp_path / "pool.g6"
    path.write_text("".join(line + "\n" for line in BATCH_POOL))
    code, out, _ = _run(capsys, "batch", "--alpha", "1/2", str(path))
    assert code == EXIT_FAILED
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "125eba0f18dbd238e9f4f3de92a4a63c15017bdc0dde5c4e84e199519dbb802e")
    # 200 random order-11 graphs at a scan's effort, ten of them undecided;
    # sha256 recorded before trial division stopped at a prime cofactor
    rng = random.Random(1500)
    pool = [Graph(11, [(i, j) for j in range(11) for i in range(j) if rng.random() < 0.5])
            for _ in range(200)]
    path.write_text("".join(encode_graph6(g) + "\n" for g in pool))
    code, out, _ = _run(capsys, "batch", "--effort", "10000", "--alpha", "3/4", str(path))
    assert code == EXIT_CERTIFIED
    assert out.endswith('"UNDECIDED_FACTORIZATION":10}}\n')
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "a1bf66a657e4bd53b8b1bb1a51d6b47c7d298844a3961014b29f03a0c111de3e")


def test_batch_factors_alpha_denominator_once(capsys, monkeypatch, tmp_path):
    # c = 100000000003 * 200000000041 takes rho about 0.1 s to split
    c = 20000000004700000000123
    calls = []
    factorize = numtheory.factorize

    def counted(x, **kwargs):
        calls.append(x)
        return factorize(x, **kwargs)

    monkeypatch.setattr(numtheory, "factorize", counted)
    path = tmp_path / "big_c.g6"
    path.write_text((G13 + "\n") * 20)
    code, out, err = _run(capsys, "batch", "--alpha", f"1/{c}", str(path))
    assert (code, err) == (EXIT_CERTIFIED, "")
    assert calls.count(c) == 1
    assert out.endswith('"total":20,"errors":0,'
                        '"verdicts":{"FAILS_ARITHMETIC":20}}\n')
    # sha256 of stdout, recorded when c was factored once per line
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "3f232e37286db1fd163c6dc3216ff451d0f69b75c694b39805ca79d0cab28780")


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


def test_unknown_format_or_output_env_is_a_usage_error(capsys, monkeypatch):
    for name, value, argv in (
            ("FORMAT", "xyz", ("check", "--alpha", "3/4", str(FIXTURES / "dgas14.g6"))),
            ("OUTPUT", "jsn", ("spectrum", "--alpha", "0", "--graph", "DqK"))):
        monkeypatch.setenv(f"WALKSPEC_{name}", value)
        code, out, err = _run(capsys, *argv)
        assert code == EXIT_USAGE, name
        assert out == ""
        assert err.startswith("error:") and f"WALKSPEC_{name}" in err, name
        # a command without the flag does not read the variable
        code, out, err = _run(capsys, "batch", "--alpha", "3/4",
                              str(FIXTURES / "dgas14.g6"))
        assert code == EXIT_CERTIFIED and out and err == "", name
        monkeypatch.delenv(f"WALKSPEC_{name}")


def test_empty_alpha_env_counts_as_unset(capsys, monkeypatch):
    monkeypatch.setenv("WALKSPEC_ALPHA", "")
    code, out, err = _run(capsys, "spectrum", "--graph", "DqK")
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error:") and "required: --alpha" in err
    code, _, err = _run(capsys, "spectrum", "--alpha", "0", "--graph", "DqK")
    assert code == EXIT_CERTIFIED and err == ""


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
    for command in ("mates", "verify-theorem"):  # the flag restricts --n only
        code, out, err = _run(capsys, command, "--alpha", "0",
                              "--connected-only", str(path))
        assert code == EXIT_USAGE, command
        assert out == "" and err.startswith("error:"), command


@pytest.mark.parametrize("command", ["mates", "verify-theorem"])
@pytest.mark.parametrize("pool, message", [
    (G13 + "\n", "at most 10 vertices"),   # order 13, past canonical forms
    ("E@Uw\nF????\n", "same order"),       # orders 6 and 7
], ids=["too-large", "mixed-orders"])
def test_rejected_pool_is_a_usage_error(capsys, tmp_path, command, pool, message):
    path = tmp_path / "pool.g6"
    path.write_text(pool)
    code, out, err = _run(capsys, command, "--alpha", "0", str(path))
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error:") and message in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("command", ["check", "batch"])
def test_unfactorable_alpha_denominator_is_a_usage_error(capsys, command):
    code, out, err = _run(capsys, command, "--alpha", HARD_ALPHA,
                          str(FIXTURES / "dgas13.g6"))
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error:") and "--alpha" in err
    assert len(err.splitlines()) == 1


def test_commands_that_do_not_factor_alpha_accept_any_denominator(capsys):
    for argv in (("snf", "--graph", "DqK"), ("spectrum", "--graph", "DqK"),
                 ("mates", "--n", "4")):
        code, out, err = _run(capsys, *argv, "--alpha", HARD_ALPHA)
        assert code == EXIT_CERTIFIED and out and err == "", argv


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


# each command's options beside --alpha and the input file, and a valid
# value for every option of any command
OWN_OPTIONS = {
    "check": ("--format", "--output", "--effort", "--graph"),
    "snf": ("--format", "--output", "--effort", "--graph"),
    "spectrum": ("--format", "--output", "--graph"),
    "batch": ("--effort",),
    "mates": ("--output", "--n", "--connected-only"),
    "verify-theorem": ("--output", "--effort", "--n", "--connected-only"),
}
OPTION_ARGS = {"--format": ("--format", "graph6"), "--output": ("--output", "json"),
               "--effort": ("--effort", "5"), "--graph": ("--graph", "E@Uw"),
               "--n": ("--n", "4"), "--connected-only": ("--connected-only",)}


@pytest.mark.parametrize("command", list(OWN_OPTIONS))
def test_each_command_accepts_only_its_own_options(capsys, monkeypatch,
                                                   tmp_path, command):
    def args(flags):
        return [arg for flag in flags for arg in OPTION_ARGS[flag]]

    path = tmp_path / "g.g6"
    path.write_text("E@Uw\n")
    own = OWN_OPTIONS[command]
    argv = [command, "--alpha", "0", *([str(path)] if command == "batch" else [])]
    code, out, err = _run(capsys, *argv, *args(own))
    assert code != EXIT_USAGE and out and err == ""
    for flag in OPTION_ARGS:
        if flag not in own:
            code, out, err = _run(capsys, *argv, *args(own), *OPTION_ARGS[flag])
            assert code == EXIT_USAGE, flag
            assert out == ""
            assert err.startswith("error: unrecognized arguments") and flag in err
    # an environment default reaches only the commands that have its flag
    monkeypatch.setenv("WALKSPEC_EFFORT", "abc")
    code, out, err = _run(capsys, *argv, *args(f for f in own if f != "--effort"))
    if "--effort" in own:
        assert code == EXIT_USAGE and "WALKSPEC_EFFORT" in err
    else:
        assert code != EXIT_USAGE and out and err == ""


def test_help_returns_from_main(capsys):
    for argv in (("--help",), ("check", "--help"), ("verify-theorem", "-h")):
        code, out, err = _run(capsys, *argv)
        assert code == 0, argv
        assert out.startswith("usage: walkspec"), argv
        assert err == "", argv
