import json
import random

import pytest
from hypothesis import given, strategies as st

from crownkernel import Graph, check_crown, kernelize
from crownkernel.cli import main
from crownkernel.formats import (
    FormatError,
    crown_from_dict,
    crown_to_dict,
    parse_dimacs,
    parse_instance_json,
    trace_from_dict,
    trace_to_dict,
    write_dimacs,
    write_instance_json,
)
from crownkernel.generators import gen_crown_planted

from conftest import random_graph, star


class TestFormats:
    def test_dimacs_round_trip_random(self, rng):
        for _ in range(200):
            g = random_graph(rng, rng.randint(0, 20), rng.random())
            assert parse_dimacs(write_dimacs(g)) == g

    def test_json_round_trip_random(self, rng):
        for _ in range(200):
            g = random_graph(rng, rng.randint(0, 20), rng.random())
            meta = {"k": rng.randint(0, 5), "q": 2}
            g2, meta2 = parse_instance_json(write_instance_json(g, meta))
            assert g2 == g and meta2 == meta

    def test_dimacs_one_indexed_and_dedup(self):
        g = parse_dimacs("c comment\np edge 3 3\ne 1 2\ne 2 1\ne 2 3\n")
        assert g == Graph.from_edges(3, [(0, 1), (1, 2)])

    def test_dimacs_rejects_garbage(self):
        # One case or more for each of the parser's ten errors, with the
        # exact message and line number.
        for text, message in [
            ("p edge 2 0\nc\np edge 2 0\n", "line 3: duplicate problem line"),
            ("p col 2 1\n", "line 1: expected 'p edge n m'"),
            ("p edge 2\n", "line 1: expected 'p edge n m'"),
            ("c x\n\np edge x y\n", "line 3: bad problem line"),
            ("p edge 2 y\n", "line 1: bad problem line"),
            ("p edge -1 0\n", "line 1: negative vertex count"),
            ("\ne 1 2\n", "line 2: edge before problem line"),
            ("p edge 2 1\ne 1\n", "line 2: expected 'e u v'"),
            ("p edge 2 1\ne 1 2 3\n", "line 2: expected 'e u v'"),
            ("p edge 2 1\n\n  e 1 x\n", "line 3: bad edge line"),
            ("p edge 2 1\ne 1 3\n", "line 2: edge (1, 3) out of range"),
            ("p edge 2 1\ne 0 1\n", "line 2: edge (0, 1) out of range"),
            ("p edge 2 1\ne 1 2\ne 2 2\n", "line 3: edge (2, 2) out of range"),
            ("p edge 2 1\nx 1 2\n", "line 2: unknown record 'x'"),
            ("", "missing 'p edge' line"),
            ("c only a comment\n", "missing 'p edge' line"),
        ]:
            with pytest.raises(FormatError) as info:
                parse_dimacs(text)
            assert str(info.value) == message

    @given(st.data())
    def test_dimacs_parse_equals_from_edges(self, data):
        # Duplicates, reversed pairs, comments, blank lines and padding, in
        # any order after the problem line.
        n = data.draw(st.integers(min_value=0, max_value=80))
        vertex = st.integers(min_value=0, max_value=max(n - 1, 0))
        pairs = st.tuples(vertex, vertex).filter(lambda e: e[0] != e[1])
        edges = data.draw(st.lists(pairs, max_size=60)) if n >= 2 else []
        repeats = data.draw(st.lists(st.sampled_from(edges), max_size=10)) if edges else []
        lines = [f"e {u + 1} {v + 1}" for u, v in edges]
        lines += [f"  e {v + 1}   {u + 1} " for u, v in repeats]
        lines += data.draw(st.lists(st.sampled_from(["", "c", "c e 1 1", "   "]), max_size=8))
        lines = data.draw(st.permutations(lines))
        text = "\n".join(["c header", f"p edge {n} {len(edges)}"] + lines)
        g = parse_dimacs(text)
        assert g == Graph.from_edges(n, edges)
        assert g.m == sum(map(int.bit_count, g.adj)) // 2 == len({frozenset(e) for e in edges})

    def test_json_rejects_unknown_keys(self):
        with pytest.raises(FormatError):
            parse_instance_json('{"n": 1, "adj": [[]], "bogus": 1}')

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"n": true, "adj": [[]]}', "'adj' must list one neighbor list per vertex"),
            ('{"n": 2, "adj": [[true], [0]]}', "non-integer neighbor of vertex 0"),
            ('{"n": 3, "adj": [[1], [0], []], "k": true}', "parameter 'k' must be an integer"),
            ('{"n": 1, "adj": [[]], "q": false}', "parameter 'q' must be an integer"),
            ('{"n": 1, "adj": [[]], "p": true}', "parameter 'p' must be an integer"),
        ],
    )
    def test_json_rejects_booleans_as_integers(self, text, message):
        with pytest.raises(FormatError) as info:
            parse_instance_json(text)
        assert str(info.value) == message

    def test_trace_round_trip(self):
        # A crown step, a 1-matching, and value mode (no k, no matching).
        for k, q in ((2, 2), (1, 3), (None, None)):
            _, _, trace = kernelize(star(6), k, q=q)
            doc = trace_to_dict(trace)
            assert list(doc) == ["version", "input", "steps", "matching"]
            assert (doc["input"]["k"], doc["input"]["q"]) == (k, q)
            assert trace_from_dict(json.loads(json.dumps(doc))) == trace
        assert doc["steps"][0] == {"kind": "crown", "H": [0], "C": [2, 3, 4, 5], "witness": [[0, 2]]}

    def test_trace_rejects_unknown_step_kind(self):
        _, _, trace = kernelize(star(6), 2, q=2)
        obj = trace_to_dict(trace)
        obj["steps"][0]["kind"] = "mystery"
        with pytest.raises(FormatError):
            trace_from_dict(obj)

    def test_crown_round_trip(self):
        _, dec = gen_crown_planted(3, 2, 2, random.Random(7))
        assert crown_from_dict(crown_to_dict(dec)) == dec


@pytest.fixture
def star_file(tmp_path):
    target = tmp_path / "star.col"
    target.write_text(write_dimacs(star(6)))
    return str(target)


class TestCliExitCodes:
    def test_decide_yes_no(self, star_file, capsys):
        assert main(["decide", "sc", star_file, "--k", "1"]) == 0
        assert capsys.readouterr().out.startswith("YES")
        assert main(["decide", "sc", star_file, "--k", "2"]) == 1
        assert capsys.readouterr().out.startswith("NO")

    def test_missing_k_is_usage_error(self, star_file):
        assert main(["decide", "sc", star_file]) == 2

    def test_bad_file_is_usage_error(self, tmp_path):
        bad = tmp_path / "bad.col"
        bad.write_text("not dimacs at all\n")
        assert main(["decide", "sc", str(bad), "--k", "1"]) == 2
        assert main(["decide", "sc", str(tmp_path / "missing.col"), "--k", "1"]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "{star}", "{dir}"],
            ["decide", "sc", "{dir}", "--k", "1"],
            ["decide", "sc", "{star}", "--k", "1", "--out", "{dir}"],
            ["kernelize", "{json}", "--out", "{dir}/k"],
        ],
    )
    def test_unusable_path_or_input_is_a_usage_error(self, argv, star_file, tmp_path, capsys):
        # A directory where a file belongs raises an OSError other than
        # FileNotFoundError; a boolean k in a JSON instance is refused
        # before kernelize writes a trace that verify would reject.
        instance = tmp_path / "bool-k.json"
        instance.write_text('{"n": 3, "adj": [[1], [0], []], "k": true}')
        paths = {"star": star_file, "dir": str(tmp_path), "json": str(instance)}
        assert main([arg.format(**paths) for arg in argv]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "k.trace.json").exists()

    def test_cap_exit_code(self, tmp_path, capsys):
        # K5 stops value-mode reduction at a matching, so the residual keeps
        # all 5 vertices and the alpha cap bites
        from conftest import complete

        target = tmp_path / "k5.col"
        target.write_text(write_dimacs(complete(5)))
        assert main(["solve", str(target), "--cap-alpha", "4"]) == 3
        err = capsys.readouterr().err
        assert "residual has 5 vertices" in err and "needs 32, cap is 4" in err

    def test_decide_cap_names_the_kernel(self, tmp_path, capsys, monkeypatch):
        from conftest import complete

        import crownkernel.pipeline

        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return kernelize(*args, **kwargs)

        monkeypatch.setattr(crownkernel.pipeline, "kernelize", counted)
        target = tmp_path / "k5.col"
        target.write_text(write_dimacs(complete(5)))
        assert main(["decide", "sc", str(target), "--k", "3", "--cap-alpha", "4"]) == 3
        err = capsys.readouterr().err
        assert "kernel has 5 vertices, k'=3" in err and "needs 32, cap is 4" in err
        assert len(calls) == 1

    def test_there_is_no_confusion_cap_flag(self, star_file, capsys):
        with pytest.raises(SystemExit) as err:
            main(["solve", star_file, "--cap-conf", "4"])
        assert err.value.code == 2
        assert "unrecognized arguments: --cap-conf 4" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "-1"])
    @pytest.mark.parametrize("flag", ["--cap-alpha", "--cap-chi", "--cap-minrank"])
    @pytest.mark.parametrize("command", [["decide", "sc", "--k", "1"], ["solve"]])
    def test_a_cap_below_1_is_a_usage_error(self, star_file, capsys, command, flag, value):
        with pytest.raises(SystemExit) as err:
            main(command + [star_file, flag, value])
        assert err.value.code == 2
        assert f"argument {flag}: {value} is below 1" in capsys.readouterr().err

    def test_a_cap_of_1_is_accepted(self, star_file):
        # The 6-star's residual is empty, so no search meets the cap.
        assert main(["solve", star_file, "--cap-alpha", "1"]) == 0

    def test_solve_output(self, star_file, capsys):
        assert main(["solve", star_file]) == 0
        out = capsys.readouterr().out
        payload = json.loads(out[out.index("{"):])
        assert payload["alpha"] == 2
        assert payload["index_coding_length"] == 5
        assert payload["minrank"] == 5


class TestParameters:
    """k, q and p come from the flag, else the instance, else 2 (q and p).

    A trace records the alphabet size q; ``decide dmr`` has a field modulus
    p and no alphabet, so its trace records null.
    """

    @pytest.fixture
    def instance(self, tmp_path):
        target = tmp_path / "edge.json"
        target.write_text('{"n": 2, "adj": [[1], [0]], "k": 1, "q": 3, "p": 3}')
        return str(target)

    @pytest.mark.parametrize(
        "command, flags, q",
        [
            (["decide", "sc"], [], 3),
            (["decide", "dmr"], [], None),
            (["kernelize"], [], 3),
            (["decide", "sc"], ["--q", "2"], 2),
            (["decide", "dmr"], ["--p", "2"], None),
            (["kernelize"], ["--q", "2"], 2),
        ],
    )
    def test_trace_records_the_alphabet_size(self, instance, tmp_path, command, flags, q):
        out = str(tmp_path / "out")
        assert main(command + [instance, *flags, "--out", out]) == 0
        if command == ["kernelize"]:
            trace = json.loads(open(out + ".trace.json").read())
        else:
            trace = json.loads(open(out).read())["trace"]
        assert trace["input"]["q"] == q

    def test_decide_dmr_records_no_alphabet_size(self, tmp_path):
        # q = 3 and p = 2: the dmr trace must not record p as its alphabet size.
        target = tmp_path / "edge.json"
        target.write_text('{"n": 2, "adj": [[1], [0]], "k": 1, "q": 3, "p": 2}')
        for problem, q in (("dmr", None), ("sc", 3)):
            out = str(tmp_path / f"{problem}.json")
            assert main(["decide", problem, str(target), "--out", out]) == 0
            trace = json.loads(open(out).read())["trace"]
            assert trace["input"]["q"] == q

    @pytest.mark.parametrize("flags, q, p", [([], 3, 3), (["--q", "2"], 2, 3), (["--p", "2"], 3, 2)])
    def test_solve(self, instance, capsys, flags, q, p):
        assert main(["solve", instance, *flags]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert (payload["q"], payload["p"], payload["trace"]["input"]["q"]) == (q, p, q)

    def test_alphabet_size_below_2_is_a_usage_error(self, tmp_path, capsys):
        target = tmp_path / "q1.json"
        target.write_text('{"n": 2, "adj": [[1], [0]], "k": 1, "q": 1}')
        assert main(["kernelize", str(target)]) == 2
        assert capsys.readouterr().err.strip() == "error: alphabet size q must be >= 2"


class TestKernelizeCommand:
    def test_writes_trace_and_kernel(self, star_file, tmp_path, capsys):
        prefix = str(tmp_path / "out")
        assert main(["kernelize", star_file, "--k", "2", "--out", prefix]) == 0
        trace = trace_from_dict(json.loads((tmp_path / "out.trace.json").read_text()))
        assert trace.kernel_n == 0 and trace.kernel_k == 1
        kernel = parse_dimacs((tmp_path / "out.kernel.col").read_text())
        assert kernel.n == 0

    def test_stdout_mode(self, star_file, capsys):
        assert main(["kernelize", star_file, "--k", "2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kernel"] == {"n": 0, "k": 1}
        assert payload["kernel_graph"] == {"n": 0, "adj": []}
        assert trace_from_dict(payload["trace"]).kernel_k == 1


class TestGenAndVerify:
    def test_gen_deterministic(self, tmp_path):
        a, b = str(tmp_path / "a.col"), str(tmp_path / "b.col")
        for target in (a, b):
            assert main(
                ["gen", "gnp", "--n", "20", "--prob", "0.2", "--seed", "5",
                 "--out", target]
            ) == 0
        assert open(a).read() == open(b).read()

    def test_crown_planted_sidecar_verifies(self, tmp_path, capsys):
        out = str(tmp_path / "g.col")
        assert main(
            ["gen", "crown-planted", "--c", "4", "--h", "2", "--r", "3",
             "--seed", "3", "--out", out]
        ) == 0
        g = parse_dimacs(open(out).read())
        dec = crown_from_dict(json.loads(open(out + ".crown.json").read()))
        assert check_crown(g, dec) is None
        assert main(["verify", out, out + ".crown.json"]) == 0
        assert capsys.readouterr().out.strip() == "OK"

    def test_crown_sidecar_failure_names_the_reason(self, tmp_path, capsys):
        # Star 0-{1, 2, 3} with centre and leaf swapped: crown {0} has an
        # edge into the body {2, 3}.
        out = str(tmp_path / "s.col")
        assert main(["gen", "star", "--n", "4", "--out", out]) == 0
        sidecar = tmp_path / "s.crown.json"
        sidecar.write_text(json.dumps({"C": [0], "H": [1], "R": [2, 3], "witness": [[1, 0]]}))
        capsys.readouterr()
        assert main(["verify", out, str(sidecar)]) == 1
        assert capsys.readouterr().out.strip() == "FAIL: crown-body-edge"

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"C": 5}, "crown: 'C' must be a list"),
            ({"H": 0}, "crown: 'H' must be a list"),
            ({"C": [1, 1, 2, 3, 4, 5]}, "crown: 'C' lists a vertex twice"),
            ({"C": [[1], 2, 3, 4, 5]}, "crown: 'C' must list integer vertex ids"),
            ({"R": ["6"]}, "crown: 'R' must list integer vertex ids"),
            ({"witness": [0]}, "crown: 'witness'[0] must be a pair of integer vertex ids"),
        ],
    )
    def test_malformed_crown_file_is_a_usage_error(
        self, star_file, tmp_path, capsys, fields, message
    ):
        # On K_{1,5} with centre 0, ({1..5}, {0}, {}) is a crown; each file
        # breaks one field of it.
        sidecar = tmp_path / "c.json"
        sidecar.write_text(
            json.dumps({"C": [1, 2, 3, 4, 5], "H": [0], "R": [], "witness": [[0, 1]], **fields})
        )
        assert main(["verify", star_file, str(sidecar)]) == 2
        assert capsys.readouterr().err.strip() == f"error: {message}"

    @pytest.mark.parametrize("index, key", [(0, "C"), (0, "H"), (0, "witness"), (1, "vertices")])
    def test_trace_vertex_list_that_is_no_list_is_a_usage_error(
        self, star_file, tmp_path, capsys, index, key
    ):
        prefix = str(tmp_path / "out")
        main(["kernelize", star_file, "--k", "2", "--out", prefix])
        trace_path = tmp_path / "out.trace.json"
        obj = json.loads(trace_path.read_text())
        assert [step["kind"] for step in obj["steps"]] == ["crown", "isolated"]
        obj["steps"][index][key] = 5
        trace_path.write_text(json.dumps(obj))
        capsys.readouterr()
        assert main(["verify", star_file, str(trace_path)]) == 2
        err = capsys.readouterr().err.strip()
        assert err == f"error: trace.steps[{index}]: {key!r} must be a list"

    @pytest.mark.parametrize(
        "section, key, value, message",
        [
            (None, "steps", 5, "trace: 'steps' must be a list"),
            (None, "input", 5, "trace.input must be an object"),
            (None, "matching", 5, "trace: 'matching' must be a list"),
            (None, "matching", [[0]], "trace: 'matching'[0] must be a pair of integer vertex ids"),
            ("input", "n", "6", "trace.input: 'n' must be an integer"),
            ("input", "k", True, "trace.input: 'k' must be an integer"),
            ("input", "q", 2.0, "trace.input: 'q' must be an integer"),
            (None, "version", 1, "trace: 'version' must be 2, not 1"),
            (None, "version", 2.0, "trace: 'version' must be 2, not 2.0"),
            (None, "answer", 1, "trace: 'answer' must be true or false"),
        ],
    )
    def test_mistyped_trace_field_is_a_usage_error(
        self, star_file, tmp_path, capsys, section, key, value, message
    ):
        prefix = str(tmp_path / "out")
        main(["kernelize", star_file, "--k", "2", "--out", prefix])
        trace_path = tmp_path / "out.trace.json"
        obj = json.loads(trace_path.read_text())
        (obj if section is None else obj[section])[key] = value
        trace_path.write_text(json.dumps(obj))
        capsys.readouterr()
        assert main(["verify", star_file, str(trace_path)]) == 2
        assert capsys.readouterr().err.strip() == f"error: {message}"

    def test_trace_without_an_alphabet_size_verifies(self, star_file, tmp_path, capsys):
        prefix = str(tmp_path / "out")
        main(["kernelize", star_file, "--k", "2", "--out", prefix])
        trace_path = tmp_path / "out.trace.json"
        obj = json.loads(trace_path.read_text())
        obj["input"]["q"] = None
        trace_path.write_text(json.dumps(obj))
        capsys.readouterr()
        assert main(["verify", star_file, str(trace_path)]) == 0

    def test_verify_rejects_an_alphabet_size_below_2(self, star_file, tmp_path, capsys):
        prefix = str(tmp_path / "out")
        main(["kernelize", star_file, "--k", "2", "--out", prefix])
        trace_path = tmp_path / "out.trace.json"
        obj = json.loads(trace_path.read_text())
        assert obj["input"]["q"] == 2
        obj["input"]["q"] = 1
        trace_path.write_text(json.dumps(obj))
        capsys.readouterr()
        assert main(["verify", star_file, str(trace_path)]) == 1
        assert capsys.readouterr().out.strip() == "FAIL: input-q-below-2"

    def test_verify_rejects_a_forged_kernel_parameter(self, star_file, tmp_path, capsys):
        # The YES for k = 1 rests on a 1-matching, which is no evidence for k = 99.
        report = tmp_path / "d.json"
        assert main(["decide", "sc", star_file, "--k", "1", "--out", str(report)]) == 0
        obj = json.loads(report.read_text())["trace"]
        assert obj["input"]["k"] == 1 and len(obj["matching"]) == 1
        obj["input"]["k"] = 99
        trace_path = tmp_path / "forged.json"
        trace_path.write_text(json.dumps(obj))
        capsys.readouterr()
        assert main(["verify", star_file, str(trace_path)]) == 1
        assert capsys.readouterr().out.strip() == "FAIL: matching-size-not-k"

    @pytest.mark.parametrize("k, answer", [(1, True), (2, False)])
    def test_verify_rejects_an_answer_the_trace_contradicts(self, star_file, tmp_path, capsys, k, answer):
        # At k = 1 a 1-matching decides YES; at k = 2 the crown step leaves
        # k' = 1 > n' = 0, which decides NO.
        report = tmp_path / "d.json"
        main(["decide", "sc", star_file, "--k", str(k), "--out", str(report)])
        obj = json.loads(report.read_text())["trace"]
        assert obj["answer"] is answer
        trace_path = tmp_path / "t.json"
        trace_path.write_text(json.dumps(obj))
        capsys.readouterr()
        assert main(["verify", star_file, str(trace_path)]) == 0
        assert capsys.readouterr().out.strip() == "OK"
        obj["answer"] = not answer
        trace_path.write_text(json.dumps(obj))
        assert main(["verify", star_file, str(trace_path)]) == 1
        assert capsys.readouterr().out.strip() == "FAIL: answer-contradicts-trace"

    def test_verify_leaves_a_solver_answer_unchecked(self, star_file, tmp_path, capsys):
        # At k = 3 the star is already a kernel with k' <= n', so its answer
        # comes from the exact solver, which the trace does not certify.
        report = tmp_path / "d.json"
        main(["decide", "sc", star_file, "--k", "3", "--out", str(report)])
        obj = json.loads(report.read_text())["trace"]
        assert obj["steps"] == [] and obj["matching"] is None
        obj["answer"] = not obj["answer"]
        trace_path = tmp_path / "t.json"
        trace_path.write_text(json.dumps(obj))
        capsys.readouterr()
        assert main(["verify", star_file, str(trace_path)]) == 0

    def test_verify_refuses_a_version_1_trace(self, star_file, tmp_path, capsys):
        trace_path = tmp_path / "v1.json"
        trace_path.write_text(json.dumps({
            "input": {"n": 6, "m": 5, "k": 2, "q": 2},
            "steps": [{"kind": "crown", "H": [0], "C": [2, 3, 4, 5], "R": [1]},
                      {"kind": "isolated", "vertices": [1]}],
            "short_circuit": False,
            "kernel": {"n": 0, "k": 1},
            "offsets": {"capacity": 1, "dual": 5},
        }))
        assert main(["verify", star_file, str(trace_path)]) == 2
        assert capsys.readouterr().err.strip() == "error: trace: 'version' must be 2, not None"

    def test_crown_planted_requires_out(self):
        assert main(["gen", "crown-planted", "--c", "2", "--h", "1", "--r", "1"]) == 2

    def test_verify_trace_ok_and_tampered(self, star_file, tmp_path, capsys):
        prefix = str(tmp_path / "out")
        main(["kernelize", star_file, "--k", "2", "--out", prefix])
        trace_path = tmp_path / "out.trace.json"
        assert main(["verify", star_file, str(trace_path)]) == 0
        obj = json.loads(trace_path.read_text())
        assert obj["steps"][0]["witness"] == [[0, 2]]
        obj["steps"][0]["witness"] = [[0, 1]]  # 1 is the body, not the crown
        trace_path.write_text(json.dumps(obj))
        capsys.readouterr()
        assert main(["verify", star_file, str(trace_path)]) == 1
        assert capsys.readouterr().out.startswith("FAIL")

