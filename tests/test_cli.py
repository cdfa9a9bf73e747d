"""Command-line behavior: output formats, determinism, exit codes."""

from __future__ import annotations

import argparse
import io
import json
from pathlib import Path

import pytest

from gselc import cli
from gselc import graph as gr
from gselc.report import Report


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


def test_unwritable_out_fails_before_any_work(capsys, monkeypatch, tmp_path):
    # a directory, a file in a missing folder or under a file: exit 2 with one line naming
    # the path, before any suite, build or graph work, and no file created or truncated
    src = write_graph(tmp_path, gr.path(3))

    def no_work(*args):
        raise AssertionError("work ran before --out was checked")

    monkeypatch.setitem(cli.SUITES, "vertex-lc", (no_work, None))
    monkeypatch.setattr(cli.encoding, "build_logical_cluster", no_work)
    monkeypatch.setattr(cli, "_parse_graph_spec", no_work)
    monkeypatch.setattr(cli, "_load_graph", no_work)
    before = {path: path.read_bytes() for path in tmp_path.rglob("*")}
    for out in (tmp_path, tmp_path / "missing" / "x.json", Path(src) / "x.json"):
        for argv in (["verify", "vertex-lc"], ["encode"], ["graph", "path:3"], ["apply", src, "lc:0"]):
            code, stdout, err = run_cli(capsys, *argv, "--out", str(out))
            assert (code, stdout) == (2, "")
            assert err == f"error: --out {out} is a directory or cannot be written\n"
    assert {path: path.read_bytes() for path in tmp_path.rglob("*")} == before


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


@pytest.mark.parametrize(
    "suite, name, calls",
    [("theorem1", "verify_theorem1", 200), ("vertex-lc", "verify_vertex_lc", 5405),
     ("stabilizers", "verify_stabilizers", 50)],
)
def test_suites_call_their_verify_function_once_per_case(capsys, monkeypatch, suite, name, calls):
    # perfbench's sweep-small workload times these suites by patching these module attributes, and
    # fails a pass whose count differs; a suite moved onto a batched path would break it
    seen = []

    def stub(*args):
        seen.append(args)
        return Report(passed=True, details={"max_amp_diff": 0.0})

    monkeypatch.setattr(cli.sv, name, stub)
    code, out, _ = run_cli(capsys, "verify", suite)
    assert code == 0 and len(seen) == calls
    doc = json.loads(out)["details"]
    assert doc.get("trials", doc.get("cases_checked")) == calls


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


# what the removed ``export`` command printed for cycle:4, in json and dot
CYCLE4_JSON = '{"n": 4, "edges": [[0, 1], [0, 3], [1, 2], [2, 3]]}\n'
CYCLE4_DOT = "graph G {\n  0;\n  1;\n  2;\n  3;\n  0 -- 1;\n  0 -- 3;\n  1 -- 2;\n  2 -- 3;\n}\n"


def test_export_round_trips(capsys, monkeypatch, tmp_path):
    g = gr.cycle(4)
    src = write_graph(tmp_path, g)
    for fmt, want in (("json", CYCLE4_JSON), ("dot", CYCLE4_DOT)):
        code, out, _ = run_cli(capsys, "graph", f"file:{src}", "--format", fmt)
        assert code == 0 and out == want, fmt
        monkeypatch.setattr("sys.stdin", io.StringIO(gr.to_json(g)))
        code, out, _ = run_cli(capsys, "graph", "file:-", "--format", fmt)
        assert code == 0 and out == want, fmt


def test_export_command_is_gone(capsys, tmp_path):
    src = write_graph(tmp_path, gr.cycle(4))
    with pytest.raises(SystemExit) as exc:
        cli.main(["export", src])
    assert exc.value.code == 2
    assert "argument command: invalid choice: 'export'" in capsys.readouterr().err


def test_encode_schema(capsys):
    code, out, _ = run_cli(capsys, "encode", "--n-logical", "2", "--method", "both")
    assert code == 0
    doc = json.loads(out)
    names = [c["construction"] for c in doc["constructions"]]
    assert names == ["direct", "elc"]
    assert all(c["equal_to_reference"] for c in doc["constructions"])


@pytest.mark.parametrize("method", ["direct", "elc"])
def test_encode_one_method(capsys, method):
    _, both, _ = run_cli(capsys, "encode", "--n-logical", "2", "--method", "both")
    code, out, _ = run_cli(capsys, "encode", "--n-logical", "2", "--method", method)
    assert code == 0
    (construction,) = json.loads(out)["constructions"]
    assert construction["construction"] == method
    assert [construction] == [c for c in json.loads(both)["constructions"] if c["construction"] == method]


def test_every_suite_is_named_in_help_and_in_the_unknown_suite_error(capsys, monkeypatch):
    names = [f"{name}:N" if name == "chain" else name for name in cli.SUITES]
    monkeypatch.setenv("COLUMNS", "1000")  # no line wrap inside a name
    with pytest.raises(SystemExit):
        cli.main(["verify", "--help"])
    help_text = capsys.readouterr().out
    _, _, err = run_cli(capsys, "verify", "nonsense")
    for name in names:
        assert name in help_text and name in err, name
    # the suites that read --trials and --seed are the ones with a default trial count
    randomized = " and ".join(name for name, (_, trials) in cli.SUITES.items() if trials is not None)
    assert randomized == "theorem1 and stabilizers"
    for name in names:
        if cli.SUITES[name.partition(":")[0]][1] is None:
            suite = name.replace(":N", ":2")
            code, out, err = run_cli(capsys, "verify", suite, "--trials", "3")
            assert (code, out) == (2, ""), suite
            assert err == f"error: --trials and --seed apply only to {randomized}, not {suite}\n"


@pytest.mark.parametrize(
    "argv, largest",
    [
        (["theorem1", "--max-qubits", "8"], 12),
        (["theorem1", "--max-qubits", "11", "--seed", "4"], 12),
        (["stabilizers", "--max-qubits", "5"], 8),
        (["stabilizers", "--max-qubits", "7", "--trials", "1"], 8),
        (["vertex-lc", "--max-qubits", "3"], 5),
        (["chain:6"], 30),
    ],
)
def test_randomized_suites_check_the_cap_before_any_case(capsys, monkeypatch, argv, largest):
    # the largest state is checked first, so none is built whatever the seed;
    # encoding imports graph_state by name, so it is stubbed there too
    calls = []
    monkeypatch.setattr(cli.sv, "graph_state", lambda *a: calls.append(a))
    monkeypatch.setattr(cli.encoding, "graph_state", lambda *a: calls.append(a))
    monkeypatch.delenv(cli.ENV_MAX_QUBITS, raising=False)
    cap = argv[2] if len(argv) > 1 else cli.sv.DEFAULT_MAX_QUBITS
    code, out, err = run_cli(capsys, "verify", *argv)
    assert (code, out, calls) == (2, "", [])
    assert err == f"error: {largest} qubits exceeds the cap of {cap}\n"


def test_over_cap_encode_fails_before_recording_a_gate(capsys, monkeypatch):
    # 10**6 qubits: the logical build checks the cap before its recorders run
    def no_recording(self, gate, tag=None):
        raise AssertionError("a gate was recorded before the cap check")

    monkeypatch.setattr(cli.encoding.CircuitLog, "append", no_recording)
    monkeypatch.delenv(cli.ENV_MAX_QUBITS, raising=False)
    code, out, err = run_cli(capsys, "encode", "--n-logical", "200000")
    assert (code, out, err) == (2, "", "error: 1000000 qubits exceeds the cap of 20\n")


def test_theorem1_cap_check_follows_the_scan_draw(capsys, monkeypatch):
    # the up-front check reads the scan's largest draw from statevector, not a copy of it
    calls = []
    monkeypatch.setattr(cli.sv, "graph_state", lambda *a: calls.append(a))
    monkeypatch.setattr(cli.sv, "_SCAN_MAX_N", 13)
    code, out, err = run_cli(capsys, "verify", "theorem1", "--max-qubits", "12")
    assert (code, out, err, calls) == (2, "", "error: 13 qubits exceeds the cap of 12\n", [])


def test_max_qubits_env_and_flag(capsys, monkeypatch):
    monkeypatch.setenv(cli.ENV_MAX_QUBITS, "4")
    code, _, err = run_cli(capsys, "verify", "cs2")
    assert code == 2 and "exceeds" in err
    code, _, _ = run_cli(capsys, "verify", "cs2", "--max-qubits", "10")
    assert code == 0  # flag wins over env
    monkeypatch.setenv(cli.ENV_MAX_QUBITS, "please")
    code, _, err = run_cli(capsys, "verify", "cs2")
    assert code == 2 and "integer" in err
    code, _, err = run_cli(capsys, "verify", "cs2", "--max-qubits", "10")
    assert code == 0 and err == ""  # with the flag given the env is not read


def test_bad_tolerance(capsys):
    # nan fails every ``diff <= tol`` and inf passes every one: both are refused
    for tol in ("-1", "0", "nan", "inf"):
        for argv in (("verify", "cs2"), ("encode",)):
            code, out, err = run_cli(capsys, *argv, "--tol", tol)
            assert code == 2 and out == "", (argv, tol)
            assert err.startswith("error: tolerance") and err.count("\n") == 1, (argv, tol)


def test_tol_reaches_the_logical_build(capsys):
    # the two builds differ by about 1e-17 in rounding, so 1e-30 must fail both
    code, out, _ = run_cli(capsys, "encode", "--n-logical", "2", "--tol", "1e-30")
    assert code == 1
    assert [c["equal_to_reference"] for c in json.loads(out)["constructions"]] == [False, False]
    code, out, _ = run_cli(capsys, "verify", "chain:2", "--tol", "1e-30")
    assert code == 1
    details = json.loads(out)["details"]
    assert details["core_steps"]["tol"] == details["logical_build"]["tol"] == 1e-30
    assert details["logical_build"]["elc"]["equal_to_reference"] is False


# every flag each subcommand accepts; the first --format choice is the default
CLI_FLAGS = {
    "graph": {"--format", "--out"},
    "apply": {"--trace", "--out"},
    "verify": {"--trials", "--seed", "--format", "--max-qubits", "--tol", "--out"},
    "encode": {"--n-logical", "--method", "--max-qubits", "--tol", "--out"},
}
CLI_FORMATS = {"graph": ("json", "dot"), "verify": ("json", "text")}


def test_each_subcommand_takes_only_the_flags_it_reads():
    parser = cli.build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert set(subparsers.choices) == set(CLI_FLAGS)
    for name, sub in subparsers.choices.items():
        options = {o: a for a in sub._actions for o in a.option_strings}
        assert set(options) - {"-h", "--help"} == CLI_FLAGS[name], name
        if name in CLI_FORMATS:
            fmt = options["--format"]
            assert tuple(fmt.choices) == CLI_FORMATS[name] and fmt.default == fmt.choices[0]
    assert sum(map(len, CLI_FLAGS.values())) == 15


@pytest.mark.parametrize(
    "argv",
    [
        ["graph", "star:2", "--seed", "3"],
        ["encode", "--format", "json"],
        ["apply", "-", "lc:0", "--max-qubits", "4"],
        ["graph", "file:-", "--tol", "1e-9"],
        ["encode", "--seed", "1"],
    ],
)
def test_removed_flags_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_graph_commands_ignore_the_qubit_cap_env(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv(cli.ENV_MAX_QUBITS, "please")
    src = write_graph(tmp_path, gr.path(3))
    for argv in (("graph", "path:3"), ("apply", src, "lc:1"), ("graph", f"file:{src}")):
        code, _, err = run_cli(capsys, *argv)
        assert code == 0 and err == "", argv


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


def test_main_builds_its_parser_once_and_each_run_keeps_its_output(capsys, monkeypatch):
    # one process: a run, a usage error and another run, each as if it were the only one
    built = []
    build = cli.build_parser

    def counted():
        built.append(1)
        return build()

    monkeypatch.setattr(cli, "_PARSER", None)
    monkeypatch.setattr(cli, "build_parser", counted)
    code, out, _ = run_cli(capsys, "verify", "cs2")
    assert (code, out) == (0, (GOLDEN / "verify_cs2.json").read_text(encoding="utf-8"))
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "cs2", "--bogus"])
    assert exc.value.code == 2 and "unrecognized arguments: --bogus" in capsys.readouterr().err
    code, out, _ = run_cli(capsys, "encode", "--n-logical", "4")
    assert (code, out) == (0, (GOLDEN / "encode_n_logical4.json").read_text(encoding="utf-8"))
    assert len(built) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["cs2", "--trials", "5", "--seed", "9"],
        ["cs2", "--seed", "0"],
        ["vertex-lc", "--trials", "3"],
        ["chain:2", "--trials", "3"],
        ["chain:4", "--seed", "1"],
    ],
)
def test_unrandomized_suites_reject_trials_and_seed(capsys, argv):
    code, out, err = run_cli(capsys, "verify", *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: --trials and --seed") and err.count("\n") == 1


def test_extra_cancelling_cz_pair_fails_the_count_check(capsys, monkeypatch):
    # the pair leaves every state as it was, so only the closed-form counts can see it
    record = cli.encoding.record_logical_cz

    def padded(log, a, b):
        record(log, a, b)
        for _ in range(2):
            log.append(cli.sv.Gate.cz(5 * a, 5 * b), tag="logical_cz")

    monkeypatch.setattr(cli.encoding, "record_logical_cz", padded)
    code, out, _ = run_cli(capsys, "verify", "chain:4")
    assert code == 1
    build = json.loads(out)["details"]["logical_build"]
    assert build["direct"]["equal_to_reference"] and build["direct"]["cz_count"] == 101
    code, out, _ = run_cli(capsys, "encode", "--n-logical", "4")
    assert code == 1
    assert all(c["equal_to_reference"] for c in json.loads(out)["constructions"])
    code, out, _ = run_cli(capsys, "verify", "cs2")
    assert code == 1 and json.loads(out)["details"]["counts_ok"] is False


@pytest.mark.parametrize("suite, trials", [("theorem1", "-5"), ("stabilizers", "0")])
def test_verify_rejects_trials_below_one(capsys, suite, trials):
    code, out, err = run_cli(capsys, "verify", suite, "--trials", trials)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "--trials" in err and err.count("\n") == 1


@pytest.mark.parametrize("suite", ["theorem1", "stabilizers"])
def test_verify_rejects_a_negative_seed(capsys, suite):
    # checked with --trials, so the message names the flag rather than numpy's generator
    code, out, err = run_cli(capsys, "verify", suite, "--seed", "-1")
    assert (code, out, err) == (2, "", "error: --seed must be non-negative, got -1\n")


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

    monkeypatch.setattr(cli.encoding, "build_logical_cluster", fail)
    code, out, err = run_cli(capsys, "verify", "cs2")
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"
