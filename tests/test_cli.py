"""End-to-end CLI: output goldens, exit codes, and determinism."""

from __future__ import annotations

import io
import json
import os
import select
import subprocess
import sys
import time
from pathlib import Path

import pytest

from hanggraph import kernels, metrics
from hanggraph.cli import main
from hanggraph.explorer import COLUMNS

DATA = Path(__file__).parent / "data"

FIG_G_TEXT = "5 6\n0 1\n0 3\n1 3\n1 2\n2 3\n2 4\n"
FIG_H_TEXT = "4 5\n0 1\n0 3\n1 3\n1 2\n2 3\n"

ANALYZE_G_GOLDEN = """\
n: 5
m: 6
diameter: 3
radius: 2
self_centered: no
vertex a: ecc=3 periphery={e}
vertex b: ecc=2 periphery={e}
vertex c: ecc=2 periphery={a}
vertex d: ecc=2 periphery={e}
vertex e: ecc=3 periphery={a}
periphery: {a, e}
hangable: yes
"""

ANALYZE_H_GOLDEN = """\
n: 4
m: 5
diameter: 2
radius: 1
self_centered: no
vertex a: ecc=2 periphery={c}
vertex b: ecc=1 periphery={a, c, d}
vertex c: ecc=2 periphery={a}
vertex d: ecc=1 periphery={a, b, c}
periphery: {a, c}
hangable: no
witness: v=b u=d
triple_witness: v=b u=d w=a
"""


@pytest.fixture
def fig_g_file(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text(FIG_G_TEXT)
    return str(p)


@pytest.fixture
def fig_h_file(tmp_path):
    p = tmp_path / "h.txt"
    p.write_text(FIG_H_TEXT)
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_analyze_g_text_golden(fig_g_file, capsys):
    code, out = run(capsys, "analyze", fig_g_file, "--labels", "a,b,c,d,e")
    assert code == 0
    assert out == ANALYZE_G_GOLDEN


def test_analyze_h_text_golden(fig_h_file, capsys):
    code, out = run(capsys, "analyze", fig_h_file, "--labels", "a,b,c,d")
    assert code == 1
    assert out == ANALYZE_H_GOLDEN


def test_analyze_structured(fig_g_file, capsys):
    code, out = run(
        capsys, "analyze", fig_g_file, "--labels", "a,b,c,d,e",
        "--format", "structured",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["eccentricity"] == [3, 2, 2, 2, 3]
    assert payload["periphery"] == [0, 4]
    assert payload["hangable"] is True
    assert payload["witness"] is None


def test_analyze_expression_input(capsys):
    code, out = run(capsys, "analyze", "grid:3x4")
    assert code == 0
    assert "hangable: yes" in out


def test_analyze_stdin(monkeypatch, capsys):
    import io, sys

    monkeypatch.setattr(sys, "stdin", io.StringIO(FIG_G_TEXT))
    code, out = run(capsys, "analyze", "-")
    assert code == 0
    assert "hangable: yes" in out


INVALID_UTF8 = b"\xff\xfe\n"

# every command that reads a graph file, "{}" standing for the file
FILE_COMMANDS = {
    "analyze": ["analyze", "{}"],
    "product-g": ["product", "corona", "{}", "path:2"],
    "product-h": ["product", "join", "cycle:3", "{}"],
    "embed": ["embed", "{}"],
    "power": ["power", "{}", "2"],
    "power-smallest": ["power", "{}", "--smallest"],
    "blocks": ["blocks", "{}"],
    "subgraph-search": ["subgraph-search", "{}"],
}


def byte_stdin(monkeypatch, data: bytes) -> None:
    # a strict UTF-8 text layer, as under a UTF-8 locale
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))


@pytest.mark.parametrize("argv", FILE_COMMANDS.values(), ids=FILE_COMMANDS)
def test_invalid_utf8_file_exits_2(tmp_path, capsys, argv):
    p = tmp_path / "bad.g6"
    p.write_bytes(INVALID_UTF8)
    code = main([arg.format(p) for arg in argv])
    assert (code, capsys.readouterr().err) == (2, "error: invalid leading byte '\\udcff' (byte offset 0)\n")


def test_invalid_utf8_stdin_exits_2(monkeypatch, capsys):
    byte_stdin(monkeypatch, INVALID_UTF8)
    assert main(["analyze", "-"]) == 2
    assert "invalid leading byte" in capsys.readouterr().err


@pytest.mark.parametrize("source", ["file", "stdin"])
def test_invalid_utf8_classify_error_record(tmp_path, monkeypatch, capsys, source):
    data = INVALID_UTF8 + b"Ch\n"
    if source == "file":
        p = tmp_path / "bad.g6"
        p.write_bytes(data)
        arg = str(p)
    else:
        byte_stdin(monkeypatch, data)
        arg = "-"
    code, out = run(capsys, "classify", arg, "--format", "structured")
    bad, good = [json.loads(line) for line in out.splitlines()]
    assert code == 0
    assert bad["error"] == "invalid leading byte '\\udcff' (byte offset 0)"
    assert good["error"] is None and good["n"] == 4


def test_invalid_utf8_in_comment_is_ignored(tmp_path, capsys):
    p = tmp_path / "g.txt"
    p.write_bytes(b"# caf\xe9\n" + FIG_G_TEXT.encode())
    code, out = run(capsys, "analyze", str(p))
    assert code == 0 and "hangable: yes" in out


def test_analyze_graph6_file(tmp_path, capsys):
    p = tmp_path / "c5.g6"
    p.write_text("Dhc\n")  # cycle of 5
    code, out = run(capsys, "analyze", str(p))
    assert code == 0
    assert "self_centered: yes" in out


@pytest.mark.parametrize("name, text", [("p3.txt", "3 2\n0 1\n1 2\n"), ("p3.g6", "Bg\n")])
def test_analyze_labels_on_either_format(tmp_path, capsys, name, text):
    p = tmp_path / name
    p.write_text(text)
    code, out = run(capsys, "analyze", str(p), "--labels", "a,b,c")
    assert code == 0
    assert "vertex a: ecc=2 periphery={c}\n" in out and "periphery: {a, c}\n" in out


def test_analyze_parse_error_exit_2(tmp_path, capsys):
    p = tmp_path / "bad.txt"
    p.write_text("3 2\n0 1\n")
    code = main(["analyze", str(p)])
    assert code == 2


def test_analyze_disconnected_exit_3(tmp_path, capsys):
    p = tmp_path / "disc.txt"
    p.write_text("4 2\n0 1\n2 3\n")
    code = main(["analyze", str(p)])
    assert code == 3


def test_analyze_label_mismatch_exit_2(fig_g_file):
    assert main(["analyze", fig_g_file, "--labels", "a,b"]) == 2


def test_unknown_family_exit_2():
    assert main(["analyze", "tesseract:4"]) == 2


def test_report_commands_reject_graph6_format(capsys):
    # analyze, blocks, classify, subgraph-search, power --smallest emit
    # reports, not graphs; an explicit graph6 request must not be ignored
    for argv in (["analyze", "cycle:5", "--format", "graph6"],
                 ["blocks", "path:4", "--format", "graph6"],
                 ["power", "cycle:6", "--smallest", "--format", "graph6"],
                 ["subgraph-search", "cycle:4", "--format", "graph6"]):
        assert main(argv) == 2, argv
        assert "no graph6 output" in capsys.readouterr().err
    assert main(["power", "cycle:6", "2", "--format", "graph6"]) == 0


def test_product_corona_with_oracle(capsys):
    code, out = run(
        capsys, "product", "corona", "path:3", "complete:2", "--oracle-check"
    )
    assert code == 0
    assert "oracle corona distances: PASS" in out
    assert "oracle corona diameter: PASS" in out
    assert "oracle corona vertex_peripheries: PASS" in out
    assert "oracle corona periphery: PASS" in out
    assert "FAIL" not in out
    assert "0 ↦ 0" in out


def test_product_cartesian_with_oracle(capsys):
    code, out = run(
        capsys, "product", "cartesian", "path:3", "cycle:3", "--oracle-check"
    )
    assert code == 0
    assert "oracle cartesian distances: PASS" in out
    assert "oracle cartesian eccentricities: PASS" in out
    assert "FAIL" not in out


def test_product_join_with_oracle(capsys):
    code, out = run(capsys, "product", "join", "complete:1", "path:4",
                    "--oracle-check")
    assert code == 0
    assert "oracle join hangability: PASS" in out


# the exact oracle lines of --oracle-check when a precondition fails; the
# order in which the preconditions are tested decides which message a
# doubly-bad pair gets, and the corona's distance forms, which need only a
# nonempty connected base, are checked before its metric forms refuse
PRECONDITION_GOLDENS = [
    pytest.param("corona", "complete:1", "path:2",
                 ["oracle corona distances: PASS",
                  "oracle corona: precondition not met: corona metric forms need a base "
                  "with at least 2 vertices"], id="corona-K1-base"),
    pytest.param("corona", "EMPTY", "path:2",
                 ["oracle corona: precondition not met: metric operations need at least "
                  "one vertex"], id="corona-empty-base"),
    pytest.param("corona", "DISCONNECTED", "EMPTY",
                 ["oracle corona: precondition not met: graph is not connected: vertex 2 "
                  "is unreachable from 0"], id="corona-disconnected-base"),
    pytest.param("corona", "path:3", "EMPTY",
                 ["oracle corona distances: PASS",
                  "oracle corona: precondition not met: corona metric forms need a "
                  "nonempty copy factor"], id="corona-empty-copy"),
    pytest.param("cartesian", "path:3", "EMPTY",
                 ["oracle cartesian: precondition not met: box product metric forms need "
                  "nonempty factors"], id="cartesian-empty-factor"),
    pytest.param("cartesian", "DISCONNECTED", "EMPTY",
                 ["oracle cartesian: precondition not met: box product metric forms need "
                  "nonempty factors"], id="cartesian-empty-before-disconnected"),
    pytest.param("cartesian", "complete:1", "DISCONNECTED",
                 ["oracle cartesian: precondition not met: graph is not connected: vertex "
                  "2 is unreachable from 0"], id="cartesian-disconnected-factor"),
    pytest.param("join", "EMPTY", "EMPTY",
                 ["oracle join: precondition not met: empty join"], id="join-empty"),
]


@pytest.fixture
def factor_files(tmp_path):
    files = {"EMPTY": "0 0\n", "DISCONNECTED": "3 1\n0 1\n"}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    return lambda arg: str(tmp_path / arg) if arg in files else arg


@pytest.mark.parametrize("fmt", ["text", "structured"])
@pytest.mark.parametrize("kind,g,h,lines", PRECONDITION_GOLDENS)
def test_product_oracle_precondition_goldens(capsys, factor_files, fmt, kind, g, h, lines):
    code, out = run(capsys, "product", kind, factor_files(g), factor_files(h),
                    "--oracle-check", "--format", fmt)
    assert code == 0
    assert [ln for ln in out.splitlines() if ln.startswith("oracle ")] == lines


def test_product_corona_one_vertex_base_checks_distances(capsys):
    # K1 o P3 is the fan on 4 vertices: its distances follow the corona
    # forms, though the metric forms need two base vertices
    code, out = run(capsys, "product", "corona", "complete:1", "path:3", "--oracle-check")
    assert code == 0
    assert out.splitlines()[-2:] == [
        "oracle corona distances: PASS",
        "oracle corona: precondition not met: corona metric forms need a base with at "
        "least 2 vertices"]


def test_product_oracle_disconnected_join_exit_3(capsys, factor_files):
    # a join with an empty side keeps the other side's components apart
    code = main(["product", "join", factor_files("DISCONNECTED"), factor_files("EMPTY"),
                 "--oracle-check"])
    captured = capsys.readouterr()
    assert code == 3
    assert "oracle" not in captured.out
    assert captured.err == "error: graph is not connected: vertex 2 is unreachable from 0\n"


def count_apsp_calls(monkeypatch) -> list:
    sizes = []
    apsp = kernels.apsp

    def counting_apsp(masks):
        sizes.append(len(masks))
        return apsp(masks)

    monkeypatch.setattr(kernels, "apsp", counting_apsp)
    return sizes


@pytest.mark.parametrize("kind,g,h", [("corona", "path:3", "complete:2"),
                                      ("cartesian", "path:3", "cycle:3"),
                                      ("join", "complete:1", "path:4")])
def test_product_oracle_check_one_product_apsp(monkeypatch, capsys, kind, g, h):
    sizes = count_apsp_calls(monkeypatch)
    code, out = run(capsys, "product", kind, g, h, "--oracle-check", "--format", "graph6")
    assert code == 0 and "FAIL" not in out
    n = {"corona": 9, "cartesian": 9, "join": 5}[kind]
    assert sizes.count(n) == 1, sizes


def test_product_corona_oracle_one_base_matrix(monkeypatch, capsys):
    sizes = count_apsp_calls(monkeypatch)
    row_tuples = []
    monkeypatch.setattr(metrics, "all_pairs_distances", lambda g: row_tuples.append(g.n))
    code, out = run(capsys, "product", "corona", "path:4", "complete:2", "--oracle-check")
    assert code == 0 and "FAIL" not in out
    # the base's matrix once, shared by the precondition, the profile and the
    # distance matrix; nothing builds row tuples
    assert row_tuples == [] and sizes.count(4) == 1, (row_tuples, sizes)


@pytest.mark.parametrize("fmt", ["text", "structured"])
def test_analyze_one_apsp(monkeypatch, capsys, fmt):
    sizes = count_apsp_calls(monkeypatch)
    code, out = run(capsys, "analyze", "grid:3x4", "--format", fmt)
    assert code == 0 and out
    assert sizes == [12]


@pytest.mark.parametrize("fmt", ["text", "structured"])
def test_analyze_one_call_per_kernel(monkeypatch, capsys, fmt):
    # the profile and the triples decider share the one matrix; the subset
    # decider is not asked, since the triples witness starts with its pair
    calls = []
    for name in ("apsp", "profile", "hangable_subset", "hangable_triples"):
        counted = (lambda *a, _name=name, _kernel=getattr(kernels, name):
                   calls.append(_name) or _kernel(*a))
        monkeypatch.setattr(kernels, name, counted)
    code, out = run(capsys, "analyze", "grid:3x4", "--format", fmt)
    assert code == 0 and out
    assert sorted(calls) == ["apsp", "hangable_triples", "profile"]


def test_analyze_disconnected_exits_before_apsp(monkeypatch, tmp_path, capsys):
    # 3000 isolated vertices: the connectivity check must come before an
    # APSP that would allocate 9M distances
    sizes = count_apsp_calls(monkeypatch)
    p = tmp_path / "isolated.txt"
    p.write_text("3000 0\n")
    code = main(["analyze", str(p)])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err == "error: graph is not connected: vertex 1 is unreachable from 0\n"
    assert sizes == []


def test_product_graph6_output(capsys):
    code, out = run(capsys, "product", "join", "complete:1", "path:2",
                    "--format", "graph6")
    assert code == 0
    assert out.strip() == "Bw"  # K_1 + P_2 = K_3


def test_embed_h_split_cone(fig_h_file, capsys):
    code, out = run(capsys, "embed", fig_h_file)
    assert code == 0
    assert "branch: split-cone" in out
    assert "5 7" in out


def test_embed_identity(fig_g_file, capsys):
    code, out = run(capsys, "embed", fig_g_file)
    assert code == 0
    assert "branch: identity" in out


def test_power_explicit_k(capsys):
    code, out = run(capsys, "power", "path:5", "2", "--format", "graph6")
    assert code == 0
    # P_5 squared: distances <= 2 become edges
    from hanggraph import from_graph6, power
    from hanggraph.generators import path

    assert out.strip() == __import__("hanggraph").to_graph6(power(path(5), 2))


def test_power_smallest_on_h(fig_h_file, capsys):
    code, out = run(capsys, "power", fig_h_file, "--smallest")
    assert code == 0
    assert out.strip() == "k = 2"


@pytest.mark.parametrize("graph,code,err", [
    ("EMPTY", 2, "error: metric operations need at least one vertex\n"),
    ("DISCONNECTED", 3, "error: graph is not connected: vertex 2 is unreachable from 0\n")])
def test_power_smallest_exit_codes(capsys, factor_files, graph, code, err):
    assert main(["power", factor_files(graph), "--smallest"]) == code
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == err


def test_power_needs_k_or_flag(capsys):
    assert main(["power", "path:3"]) == 2


def test_blocks_text(fig_g_file, capsys):
    code, out = run(capsys, "blocks", fig_g_file, "--labels", "a,b,c,d,e")
    assert code == 0
    assert "block: a b c d" in out
    assert "block: c e" in out
    assert "cut_vertices: c" in out
    assert "block_graph: no" in out
    assert "tree: no" in out


@pytest.mark.parametrize("fmt", ["text", "structured"])
def test_blocks_one_decomposition(monkeypatch, capsys, fmt):
    from hanggraph import blocks

    calls = []
    decompose = blocks.biconnected_components

    def counting(g):
        calls.append(g.n)
        return decompose(g)

    def refuse(masks):
        raise AssertionError("the decomposition's DFS already answered")

    monkeypatch.setattr(blocks, "biconnected_components", counting)
    monkeypatch.setattr(kernels, "is_block_graph_masks", refuse)
    for expr in ("grid:3x4", "path:300"):
        code, out = run(capsys, "blocks", expr, "--format", fmt)
        assert code == 0 and "block_graph" in out
    assert calls == [12, 300]


def test_blocks_structured(capsys):
    code, out = run(capsys, "blocks", "path:4", "--format", "structured")
    assert code == 0
    payload = json.loads(out)
    assert payload["blocks"] == [[0, 1], [1, 2], [2, 3]]
    assert payload["tree"] is True


def test_classify_stream(tmp_path, capsys):
    lines = "Ch\nDhc\nnot-a-graph\n"
    p = tmp_path / "stream.g6"
    p.write_text(lines)
    code, out = run(capsys, "classify", str(p))
    assert code == 0
    rows = out.strip().split("\n")
    assert rows[0].startswith("# n\t")
    assert len(rows) == 4
    assert "error" in rows[3]


@pytest.mark.parametrize("fmt,golden", [("text", "classify_golden.tsv"),
                                         ("structured", "classify_golden.jsonl")])
def test_classify_golden(capsys, fmt, golden):
    # n = 0..9, disconnected graphs and complements, an n=8 self-complementary
    # line, n=9 lines (self_complementary not computed) and a malformed line
    code, out = run(capsys, "classify", str(DATA / "classify_corpus.g6"), "--format", fmt)
    assert code == 0
    assert out == (DATA / golden).read_text()


# Every line boundary str.splitlines knows starts a record: \r\n, \x0c, \x1c,
# U+2028, NEL, \r, \x1d, \x1e, U+2029; whitespace-only lines give none, and
# an invalid UTF-8 byte ends in an error record.
ODD_SEPARATORS = (b"Ch\r\nDhc\x0cBw\x1cA_\xe2\x80\xa8C~\n   \n\t\x0b \nD?{\xff\n\xffCh\r"
                  b"Bw\xc2\x85>>graph6<<@\x1d\x1e\xe2\x80\xa9 Dhc \n\r\n@")
ODD_SEPARATORS_ROWS = """\
4\t3\ttrue\ttrue\ttrue\tfalse\ttrue\t3\t2\t2\ttrue\ttrue\t1\t-
5\t5\ttrue\tfalse\tfalse\ttrue\ttrue\t2\t2\t5\ttrue\ttrue\t1\t-
3\t3\ttrue\tfalse\ttrue\ttrue\ttrue\t1\t1\t3\t-\tfalse\t1\t-
2\t1\ttrue\ttrue\ttrue\ttrue\ttrue\t1\t1\t2\t-\tfalse\t1\t-
4\t6\ttrue\tfalse\ttrue\ttrue\ttrue\t1\t1\t4\t-\tfalse\t1\t-
-\t-\t-\t-\t-\t-\t-\t-\t-\t-\t-\t-\t-\terror: trailing data after bit field (byte offset 3)
-\t-\t-\t-\t-\t-\t-\t-\t-\t-\t-\t-\t-\terror: invalid leading byte '\\udcff' (byte offset 0)
3\t3\ttrue\tfalse\ttrue\ttrue\ttrue\t1\t1\t3\t-\tfalse\t1\t-
1\t0\ttrue\ttrue\ttrue\ttrue\ttrue\t0\t0\t1\ttrue\ttrue\t1\t-
5\t5\ttrue\tfalse\tfalse\ttrue\ttrue\t2\t2\t5\ttrue\ttrue\t1\t-
1\t0\ttrue\ttrue\ttrue\ttrue\ttrue\t0\t0\t1\ttrue\ttrue\t1\t-
"""
CLASSIFY_HEADER = "# " + "\t".join(COLUMNS) + "\n"


@pytest.mark.parametrize("source", ["file", "stdin"])
def test_classify_odd_line_separators(tmp_path, monkeypatch, capsys, source):
    if source == "file":
        p = tmp_path / "odd.g6"
        p.write_bytes(ODD_SEPARATORS)
        arg = str(p)
    else:
        byte_stdin(monkeypatch, ODD_SEPARATORS)
        arg = "-"
    assert run(capsys, "classify", arg) == (0, CLASSIFY_HEADER + ODD_SEPARATORS_ROWS)


def test_classify_reads_in_pieces_like_the_whole_text(monkeypatch, capsys):
    # input is read 64 KiB at a time; put a \r\n pair, a U+2028 and a graph6
    # line across those boundaries, and the records are those of the whole text
    piece = 1 << 16
    data = b" " * (piece - 1) + b"\r\nCh"
    data += b"\n" * (2 * piece - len(data) - 1) + b"\xe2\x80\xa8Dhc"
    data += b"\n" + b"\t" * (3 * piece - len(data) - 3) + b"Dhc\x0c\xffB" + b"\n" * 10 + b"w"
    byte_stdin(monkeypatch, data)
    pieces = run(capsys, "classify", "-", "--format", "structured")
    monkeypatch.setattr(sys, "stdin", io.StringIO(data.decode("utf-8", "surrogateescape")))
    whole = run(capsys, "classify", "-", "--format", "structured")
    assert pieces == whole
    records = [json.loads(line) for line in pieces[1].splitlines()]
    assert [r["n"] for r in records] == [4, 5, 5, None, None]


def test_classify_streams_a_pipe():
    # the record of a line written to stdin comes back while stdin is still open
    proc = subprocess.Popen([sys.executable, "-m", "hanggraph", "classify", "-"],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=child_env())
    try:
        proc.stdin.write(b"Ch\n")
        proc.stdin.flush()
        out = b""
        deadline = time.monotonic() + 30
        while out.count(b"\n") < 2 and time.monotonic() < deadline:
            ready, _, _ = select.select([proc.stdout], [], [], deadline - time.monotonic())
            if not ready:
                break
            chunk = os.read(proc.stdout.fileno(), 4096)
            if not chunk:
                break
            out += chunk
        assert proc.poll() is None  # still waiting for more input
        assert out.decode() == CLASSIFY_HEADER + ODD_SEPARATORS_ROWS.splitlines(True)[0]
    finally:
        try:
            rest, err = proc.communicate(timeout=30)  # closes stdin
        except subprocess.TimeoutExpired:
            proc.kill()
            raise
    assert proc.returncode == 0 and rest == b"", err


def test_classify_structured_is_jsonl(tmp_path, capsys):
    p = tmp_path / "stream.g6"
    p.write_text("Ch\nDhc\n")
    code, out = run(capsys, "classify", str(p), "--format", "structured")
    assert code == 0
    records = [json.loads(line) for line in out.strip().split("\n")]
    assert len(records) == 2
    assert records[0]["tree"] is True
    assert records[1]["self_centered"] is True


def test_generate_text(capsys):
    code, out = run(capsys, "generate", "path", "3")
    assert code == 0
    assert out == "3 2\n0 1\n1 2\n"


def test_generate_pipes_into_analyze(tmp_path, capsys):
    code, out = run(capsys, "generate", "grid", "3", "4", "--format", "graph6")
    assert code == 0
    p = tmp_path / "g.g6"
    p.write_text(out)
    code, out = run(capsys, "analyze", str(p))
    assert code == 0
    assert "hangable: yes" in out


def test_subgraph_search_c4(capsys):
    code, out = run(capsys, "subgraph-search", "cycle:4", "--max-vertices", "4")
    assert code == 0
    assert "size 3: subsets=4 connected=4 hangable=4" in out
    assert "size 4: subsets=1 connected=1 hangable=1" in out
    assert "total_hangable: 13" in out


def test_subgraph_search_budget_exit_4(capsys):
    code = main(
        ["subgraph-search", "grid:8x8", "--max-vertices", "20", "--budget", "1000"]
    )
    assert code == 4


def test_subgraph_search_budget_refusal_is_quick(capsys):
    # the subset count stops growing once it passes the budget, so a huge
    # host is refused at once, with a message of bounded length
    start = time.perf_counter()
    code = main(["subgraph-search", "path:30000", "--max-vertices", "30000"])
    elapsed = time.perf_counter() - start
    err = capsys.readouterr().err
    assert code == 4 and elapsed < 1.0, elapsed
    assert "more than the budget of 10000000 subsets" in err and len(err) < 100, err


def test_budget_only_on_subgraph_search(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "grid:2x2", "--budget", "5"])
    assert exc.value.code == 2


def test_determinism_analyze(fig_g_file, capsys):
    _, out1 = run(capsys, "analyze", fig_g_file, "--format", "structured")
    _, out2 = run(capsys, "analyze", fig_g_file, "--format", "structured")
    assert out1 == out2


def test_determinism_classify(tmp_path, capsys):
    p = tmp_path / "stream.g6"
    p.write_text("Ch\nDhc\nBw\n")
    _, out1 = run(capsys, "classify", str(p))
    _, out2 = run(capsys, "classify", str(p))
    assert out1 == out2


# --- one parser per process -------------------------------------------------------


PARSER_RUNS = [["analyze", "grid:3x4", "--format", "structured"],
               ["product", "corona", "path:3", "complete:2", "--oracle-check"],
               ["analyze", "cycle:5", "--labels", "a,b,c,d,e"],
               ["blocks", "path:4"],
               ["subgraph-search", "cycle:4", "--max-vertices", "3"]]


def test_repeated_calls_give_identical_output(capsys):
    # the parser is shared between calls; no option of one call may leak
    # into the next, whatever subcommand came before
    first = [run(capsys, *argv) for argv in PARSER_RUNS]
    second = [run(capsys, *argv) for argv in reversed(PARSER_RUNS)]
    assert first == second[::-1]


def test_bad_arguments_between_good_calls(capsys):
    good = ["analyze", "cycle:5", "--format", "structured"]
    before = run(capsys, *good)
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "cycle:5", "--format", "nonsense"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err
    assert run(capsys, *good) == before


def test_parser_is_built_once(monkeypatch, capsys):
    import argparse

    run(capsys, "analyze", "cycle:5")
    built = []

    class CountingParser(argparse.ArgumentParser):
        def __init__(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(argparse, "ArgumentParser", CountingParser)
    for argv in PARSER_RUNS:
        run(capsys, *argv)
    assert built == []


def test_command_resolved_at_call_time(monkeypatch, capsys):
    from hanggraph import cli

    run(capsys, "analyze", "cycle:5")
    seen = []
    monkeypatch.setattr(cli, "cmd_analyze", lambda args: seen.append(args.input) or 7)
    assert main(["analyze", "path:3"]) == 7
    assert seen == ["path:3"]
    monkeypatch.undo()
    assert run(capsys, "analyze", "path:3")[0] == 0


def test_quiet_suppresses_report(fig_g_file, capsys):
    code, out = run(capsys, "analyze", fig_g_file, "--quiet")
    assert code == 0
    assert out == ""


def test_multiline_graph6_file_rejected(tmp_path, capsys):
    p = tmp_path / "two.g6"
    # comment lines are not graph6 lines
    for text, count in [("Bw\nCh\n", 2),
                        ("# first\nBw\n\n  # second\n# third\nCh\n# last\n", 2),
                        ("# only\n\n   # comments\n", 0)]:
        p.write_text(text)
        assert main(["analyze", str(p)]) == 2
        err = (f"{str(p)!r} holds {count} graph6 lines; expected one graph" if count
               else f"no graph found in {str(p)!r}")
        assert capsys.readouterr().err == f"error: {err}\n"


# Under the pure backend every distance matrix is a list; under the compiled
# one it is an array of int16.  Run the CLI in a child
# forced onto the pure backend, one main() per argv in a single interpreter.
PURE_CHILD = """
import contextlib, io, json, sys
from hanggraph import kernels, metrics
from hanggraph.cli import main
runs = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    runs.append([code, out.getvalue()])
print(json.dumps({"backend": kernels.BACKEND, "runs": runs}))
"""


def child_env(**extra: str) -> dict:
    """This environment plus ``extra``, with this checkout's package first on the path."""
    src = str(Path(kernels.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return dict(os.environ, PYTHONPATH=path, **extra)


def test_cli_under_pure_backend(fig_g_file, fig_h_file, capsys):
    goldens = {"text": "classify_golden.tsv", "structured": "classify_golden.jsonl"}
    classify = [["classify", str(DATA / "classify_corpus.g6"), "--format", fmt]
                for fmt in goldens]
    others = [["analyze", fig_g_file, "--labels", "a,b,c,d,e"],
              ["analyze", fig_h_file, "--labels", "a,b,c,d", "--format", "structured"],
              ["product", "corona", "path:3", "complete:2", "--oracle-check"],
              ["product", "cartesian", "path:3", "cycle:3", "--oracle-check"],
              ["product", "join", "complete:1", "path:4", "--oracle-check"]]
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", PURE_CHILD, json.dumps(classify + others)],
                          env=child_env(HANGGRAPH_PURE="1"), capture_output=True, text=True,
                          timeout=60)
    elapsed = time.perf_counter() - t0
    assert proc.returncode == 0, proc.stderr
    child = json.loads(proc.stdout)
    assert child["backend"] == "pure"
    for (code, out), fmt in zip(child["runs"], goldens):
        assert code == 0
        assert out == (DATA / goldens[fmt]).read_text()
    for argv, pure in zip(others, child["runs"][len(classify):]):
        assert pure == list(run(capsys, *argv)), argv
    assert elapsed < 3.0, f"pure-backend CLI runs took {elapsed:.2f} s"


# A CLI process imports only what its command runs on: no dataclasses (which
# loads inspect, ast and dis), and on the compiled backend no pure kernel,
# which C never calls, past 128 vertices either.  "{}" stands for a file of
# 9-11 vertex lines: C(9, 2) = 36 bits or more of graph6 bit field.
@pytest.mark.parametrize("pure", [False, True], ids=["selected", "pure"])
@pytest.mark.parametrize("argv", [["analyze", "grid:3x4"],
                                  ["analyze", "path:300"],
                                  ["classify", str(DATA / "classify_corpus.g6")],
                                  ["classify", "{}"]],
                         ids=["analyze", "analyze-300", "classify", "classify-9-11"])
def test_cli_process_imports(tmp_path, argv, pure):
    lines = tmp_path / "nine-to-eleven.g6"
    lines.write_text("HhCGGE@\nHkSg_SD\nIhCGGC@?G\nJ~~~~~~~~~_\nI????????\n")
    env = child_env(HANGGRAPH_PURE="1") if pure else child_env()
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "hanggraph",
                           *[arg.format(lines) for arg in argv]],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded = {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
              if line.startswith("import time:")}
    assert "hanggraph.cli" in loaded and "hanggraph.kernels" in loaded
    assert "dataclasses" not in loaded and "inspect" not in loaded
    compiled = not pure and kernels.BACKEND == "compiled"
    assert ("hanggraph._pykernel" in loaded) != compiled


def test_closed_stdout_ends_quietly_with_141(tmp_path):
    # 20,000 rows outgrow the pipe's buffer, so the child is still writing
    # when the reader closes the pipe after the header line
    corpus = tmp_path / "many.g6"
    corpus.write_text("D~{\n" * 20_000)
    proc = subprocess.Popen([sys.executable, "-m", "hanggraph", "classify", str(corpus)],
                            env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    header = proc.stdout.readline()
    proc.stdout.close()
    code = proc.wait(timeout=60)
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert header.startswith(b"# n\tm\t")
    assert "Traceback" not in err and code == 141, err


def run_capped(*argv):
    """``python -m hanggraph argv`` in a child whose address space is capped
    at 1 GiB."""
    resource = pytest.importorskip("resource")
    limit = 1 << 30

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    return subprocess.run([sys.executable, "-m", "hanggraph", *argv],
                          env=child_env(), capture_output=True, text=True, timeout=120,
                          preexec_fn=cap_address_space)


def test_exhausted_heap_exits_2():
    # exit 1 is analyze's "connected but not hangable"; a graph whose
    # distance matrix outgrows the address space is an input too large, so it
    # ends in exit 2 with one error line and no traceback.  The 30000-vertex
    # matrix alone needs 1.7 GiB of int16.
    res = run_capped("analyze", "path:30000")
    assert "Traceback" not in res.stderr, res.stderr
    assert res.returncode == 2
    assert res.stderr == "error: out of memory on input of 30000 vertices\n"
    assert res.stdout == ""


def test_past_the_distance_limit_exits_2():
    # past 32767 vertices a distance may not fit int16: the command stops
    # before it allocates the matrix, which here would need 3 GiB
    res = run_capped("analyze", "path:40000")
    assert "Traceback" not in res.stderr, res.stderr
    assert res.returncode == 2
    assert res.stderr == ("error: a distance matrix needs at most 32767 vertices; "
                          "the graph has 40000\n")
    assert res.stdout == ""
