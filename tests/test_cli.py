"""Command-line behavior: output formats, determinism, exit codes."""

from __future__ import annotations

import io
import json
from pathlib import Path

import pytest

from gselc import cli
from gselc import graph as gr


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_graph(tmp_path, g, name="g.json"):
    target = tmp_path / name
    target.write_text(gr.to_json(g), encoding="utf-8")
    return str(target)


def test_graph_star(capsys):
    code, out, _ = run_cli(capsys, "graph", "star:4")
    assert code == 0
    assert out == '{"n": 5, "edges": [[0, 1], [0, 2], [0, 3], [0, 4]]}\n'


def test_graph_cycle_and_empty_path(capsys):
    code, out, _ = run_cli(capsys, "graph", "cycle:5")
    assert code == 0
    assert json.loads(out) == {"n": 5, "edges": [[0, 1], [0, 4], [1, 2], [2, 3], [3, 4]]}
    code, out, _ = run_cli(capsys, "graph", "path:0")
    assert code == 0
    assert json.loads(out) == {"n": 0, "edges": []}


def test_graph_dot_format(capsys):
    code, out, _ = run_cli(capsys, "graph", "path:3", "--format", "dot")
    assert code == 0
    assert out == "graph G {\n  0;\n  1;\n  2;\n  0 -- 1;\n  1 -- 2;\n}\n"


@pytest.mark.parametrize("spec", ["star", "star:x", "blob:4", "cycle:2", "empty:-1"])
def test_graph_bad_specs(capsys, spec):
    code, out, err = run_cli(capsys, "graph", spec)
    assert code == 2
    assert out == "" and err.startswith("error:")


def test_oversized_graph_exits_2_with_one_line(capsys, tmp_path):
    too_many = gr.MAX_VERTICES + 1
    src = tmp_path / "big.json"
    src.write_text(f'{{"n": {too_many}, "edges": []}}', encoding="utf-8")
    for argv in (("graph", f"empty:{too_many}"), ("apply", str(src), "lc:0")):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err == f"error: {too_many} vertices exceeds the limit of {gr.MAX_VERTICES}\n"


def test_graph_out_file(capsys, tmp_path):
    target = tmp_path / "star.json"
    code, out, _ = run_cli(capsys, "graph", "star:2", "--out", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text()) == {"n": 3, "edges": [[0, 1], [0, 2]]}


def test_apply_elc_on_path(capsys, tmp_path):
    src = write_graph(tmp_path, gr.path(4))
    code, out, _ = run_cli(capsys, "apply", src, "elc:1,2")
    assert code == 0
    assert json.loads(out) == {"n": 4, "edges": [[0, 2], [0, 3], [1, 2], [1, 3]]}


def test_apply_lc_twice_is_identity(capsys, tmp_path):
    g = gr.cycle(5)
    src = write_graph(tmp_path, g)
    code, out, _ = run_cli(capsys, "apply", src, "lc:0", "lc:0")
    assert code == 0
    assert out == gr.to_json(g) + "\n"


def test_apply_trace_joined_stars(capsys, tmp_path):
    joined = gr.toggle_edge(gr.disjoint_union(gr.star(4), gr.star(4)), 0, 5)
    src = write_graph(tmp_path, joined)
    code, out, _ = run_cli(capsys, "apply", src, "elc:0,5", "--trace")
    assert code == 0
    doc = json.loads(out)
    assert [s["op"] for s in doc["steps"]] == ["lc:0", "lc:5", "lc:0"]
    graphs = [json.loads(gr.to_json(g)) for g in _lc_sequence(joined, (0, 5, 0))]
    assert [s["graph"] for s in doc["steps"]] == graphs
    assert doc["result"]["edges"] == graphs[-1]["edges"]
    assert len(doc["result"]["edges"]) == 25


def _lc_sequence(g, vertices):
    out = []
    for v in vertices:
        g = gr.local_complement(g, v)
        out.append(g)
    return out


def test_apply_elc_non_edge_fails(capsys, tmp_path):
    src = write_graph(tmp_path, gr.path(4))
    code, _, err = run_cli(capsys, "apply", src, "elc:0,2")
    assert code == 2 and "not an edge" in err


def test_apply_reads_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(gr.to_json(gr.path(4))))
    code, out, _ = run_cli(capsys, "apply", "-", "lc:1")
    assert code == 0
    assert json.loads(out)["edges"] == [[0, 1], [0, 2], [1, 2], [2, 3]]


def test_verify_theorem1_deterministic(capsys):
    code1, out1, _ = run_cli(capsys, "verify", "theorem1", "--trials", "10", "--seed", "0")
    code2, out2, _ = run_cli(capsys, "verify", "theorem1", "--trials", "10", "--seed", "0")
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["passed"] is True
    assert doc["details"]["trials"] == 10
    assert doc["details"]["seed"] == 0
    assert doc["details"]["shared_neighborhood_scan"]["cases_checked"] == 50


def test_verify_cs2_report(capsys):
    code, out, _ = run_cli(capsys, "verify", "cs2")
    assert code == 0
    doc = json.loads(out)
    for name, cz in (("direct", 35), ("elc", 19)):
        summary = doc["details"][name]
        assert set(summary) == {
            "construction",
            "n_logical",
            "cz_count",
            "hadamard_count",
            "equal_to_reference",
            "max_amp_diff",
        }
        assert summary["cz_count"] == cz
        assert summary["equal_to_reference"] is True
    assert doc["details"]["logical_cz_count"] == 25


def test_verify_chain2(capsys):
    code, out, _ = run_cli(capsys, "verify", "chain:2", "--format", "text")
    assert code == 0 and out == "PASS chain:2\n"


def test_verify_stabilizers(capsys):
    code, out, _ = run_cli(capsys, "verify", "stabilizers", "--trials", "5", "--seed", "1")
    assert code == 0
    assert json.loads(out)["details"]["trials"] == 5


def test_verify_vertex_lc_suite(capsys):
    code, out, _ = run_cli(capsys, "verify", "vertex-lc")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert doc["details"]["cases_checked"] == 5405  # all graphs n <= 5, all vertices


def test_verify_unknown_suite(capsys):
    code, _, err = run_cli(capsys, "verify", "nonsense")
    assert code == 2 and "unknown suite" in err
    code, _, err = run_cli(capsys, "verify", "chain:x")
    assert code == 2


def test_export_round_trips(capsys, tmp_path):
    g = gr.cycle(4)
    src = write_graph(tmp_path, g)
    code, out, _ = run_cli(capsys, "export", src, "--format", "json")
    assert code == 0 and out == gr.to_json(g) + "\n"
    code, out, _ = run_cli(capsys, "export", src)
    assert code == 0 and out == gr.to_dot(g)


def test_encode_schema(capsys):
    code, out, _ = run_cli(capsys, "encode", "--n-logical", "2", "--method", "both")
    assert code == 0
    doc = json.loads(out)
    names = [c["construction"] for c in doc["constructions"]]
    assert names == ["direct", "elc"]
    assert all(c["equal_to_reference"] for c in doc["constructions"])


def test_max_qubits_env_and_flag(capsys, monkeypatch):
    monkeypatch.setenv(cli.ENV_MAX_QUBITS, "4")
    code, _, err = run_cli(capsys, "verify", "cs2")
    assert code == 2 and "exceeds" in err
    code, _, _ = run_cli(capsys, "verify", "cs2", "--max-qubits", "10")
    assert code == 0  # flag wins over env
    monkeypatch.setenv(cli.ENV_MAX_QUBITS, "please")
    code, _, err = run_cli(capsys, "verify", "cs2")
    assert code == 2 and "integer" in err


def test_bad_tolerance(capsys):
    code, _, err = run_cli(capsys, "verify", "cs2", "--tol", "-1")
    assert code == 2 and "tolerance" in err


def test_missing_file(capsys, tmp_path):
    code, _, err = run_cli(capsys, "apply", str(tmp_path / "nope.json"), "lc:0")
    assert code == 2 and err.startswith("error:")


GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize(
    "argv, name",
    [
        (["verify", "theorem1", "--seed", "0"], "verify_theorem1_seed0.json"),
        (["verify", "stabilizers", "--seed", "0"], "verify_stabilizers_seed0.json"),
        (["verify", "cs2"], "verify_cs2.json"),
        (["verify", "chain:4"], "verify_chain4.json"),
        (["encode", "--n-logical", "4"], "encode_n_logical4.json"),
        (
            ["verify", "theorem1", "--seed", "5", "--trials", "40"],
            "verify_theorem1_seed5_trials40.json",
        ),
        (["verify", "vertex-lc"], "verify_vertex_lc.json"),
    ],
)
def test_stdout_matches_golden(capsys, argv, name):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out == (GOLDEN / name).read_text(encoding="utf-8")


@pytest.mark.parametrize("suite, trials", [("theorem1", "-5"), ("stabilizers", "0")])
def test_verify_rejects_trials_below_one(capsys, suite, trials):
    code, out, err = run_cli(capsys, "verify", suite, "--trials", trials)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "--trials" in err and err.count("\n") == 1


@pytest.mark.parametrize(
    "exc, message",
    [
        (ValueError("bad value"), "bad value"),
        (MemoryError("Unable to allocate"), "Unable to allocate"),
        (MemoryError(), "MemoryError"),
    ],
)
def test_library_errors_exit_2_without_traceback(capsys, monkeypatch, exc, message):
    def fail(*args):
        raise exc

    monkeypatch.setattr(cli.encoding, "verify_cs2_equivalence", fail)
    code, out, err = run_cli(capsys, "verify", "cs2")
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"
