"""End-to-end CLI: output goldens, exit codes, and determinism."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from hanggraph import kernels
from hanggraph.cli import main

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


def test_analyze_graph6_file(tmp_path, capsys):
    p = tmp_path / "c5.g6"
    p.write_text("Dhc\n")  # cycle of 5
    code, out = run(capsys, "analyze", str(p))
    assert code == 0
    assert "self_centered: yes" in out


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


# the exact precondition lines of --oracle-check; the order in which the
# preconditions are tested decides which message a doubly-bad pair gets
PRECONDITION_GOLDENS = [
    pytest.param("corona", "complete:1", "path:2",
                 "oracle corona: precondition not met: corona metric forms need a base "
                 "with at least 2 vertices", id="corona-K1-base"),
    pytest.param("corona", "EMPTY", "path:2",
                 "oracle corona: precondition not met: metric operations need at least "
                 "one vertex", id="corona-empty-base"),
    pytest.param("corona", "DISCONNECTED", "EMPTY",
                 "oracle corona: precondition not met: graph is not connected: vertex 2 "
                 "is unreachable from 0", id="corona-disconnected-base"),
    pytest.param("corona", "path:3", "EMPTY",
                 "oracle corona: precondition not met: corona metric forms need a "
                 "nonempty copy factor", id="corona-empty-copy"),
    pytest.param("cartesian", "path:3", "EMPTY",
                 "oracle cartesian: precondition not met: box product metric forms need "
                 "nonempty factors", id="cartesian-empty-factor"),
    pytest.param("cartesian", "DISCONNECTED", "EMPTY",
                 "oracle cartesian: precondition not met: box product metric forms need "
                 "nonempty factors", id="cartesian-empty-before-disconnected"),
    pytest.param("cartesian", "complete:1", "DISCONNECTED",
                 "oracle cartesian: precondition not met: graph is not connected: vertex "
                 "2 is unreachable from 0", id="cartesian-disconnected-factor"),
    pytest.param("join", "EMPTY", "EMPTY",
                 "oracle join: precondition not met: empty join", id="join-empty"),
]


@pytest.fixture
def factor_files(tmp_path):
    files = {"EMPTY": "0 0\n", "DISCONNECTED": "3 1\n0 1\n"}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    return lambda arg: str(tmp_path / arg) if arg in files else arg


@pytest.mark.parametrize("fmt", ["text", "structured"])
@pytest.mark.parametrize("kind,g,h,line", PRECONDITION_GOLDENS)
def test_product_oracle_precondition_goldens(capsys, factor_files, fmt, kind, g, h, line):
    code, out = run(capsys, "product", kind, factor_files(g), factor_files(h),
                    "--oracle-check", "--format", fmt)
    assert code == 0
    assert [ln for ln in out.splitlines() if ln.startswith("oracle ")] == [line]


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


@pytest.mark.parametrize("fmt", ["text", "structured"])
def test_analyze_one_apsp(monkeypatch, capsys, fmt):
    sizes = count_apsp_calls(monkeypatch)
    code, out = run(capsys, "analyze", "grid:3x4", "--format", fmt)
    assert code == 0 and out
    assert sizes == [12]


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


def test_quiet_suppresses_report(fig_g_file, capsys):
    code, out = run(capsys, "analyze", fig_g_file, "--quiet")
    assert code == 0
    assert out == ""


def test_multiline_graph6_file_rejected(tmp_path):
    p = tmp_path / "two.g6"
    p.write_text("Bw\nCh\n")
    assert main(["analyze", str(p)]) == 2
