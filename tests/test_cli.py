"""Graph file format and command-line behavior."""

import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mirrorcrit
from mirrorcrit.cli import main
from mirrorcrit.graphfile import ParseError, parse, parse_plain, serialize
from mirrorcrit.graphs import FIXED, LEFT, RIGHT, InvalidSymmetricGraph, SymmetricGraph
from mirrorcrit.randgraph import random_symmetric_graph

from conftest import CYCLIC_AXIS, mirror_cycle, relabel, running_example

SAMPLES = Path(__file__).resolve().parent.parent / "sample_graphs"

K4MINUS = """
v a L
v b F
v c F
v d R
phi a d
e ab a b
e ac a c
e dc d c
e db d b
e cb c b
"""

# the mirror of orientation1 (a-f) would join b and f, but its partner
# joins d and f; ids containing "orientation" must not hide that
MISMATCHED_PAIR = """
v a L
v b R
v c L
v d R
v f F
phi a b
phi c d
e orientation1 a f
e orientation2 d f
epair orientation1 orientation2
"""


# a fixed edge between two swapped vertices
INVALID_FIXED_EDGE = "v a L\nv b R\nphi a b\ne x a b\n"


class TestParse:
    def test_running_example_file(self):
        g = parse(K4MINUS)
        assert g.graph.n_vertices == 4
        assert g.graph.n_edges == 5
        assert g.edge_side["cb"] == FIXED
        assert g.edge_side["ab"] == LEFT
        assert g.edge_side["db"] == RIGHT
        assert g.edge_involution["ab"] == "db"

    def test_shipped_samples_parse(self):
        for name in ("k4minus.sg", "cycle12.sg"):
            g = parse((SAMPLES / name).read_text())
            assert parse(serialize(g)).graph.edges == g.graph.edges

    def test_comments_and_blank_lines(self):
        g = parse("# heading\n\nv x F   # inline\n")
        assert g.graph.n_vertices == 1

    def test_duplicate_vertex(self):
        with pytest.raises(ParseError, match="duplicate vertex"):
            parse("v a L\nv a R\n")

    def test_duplicate_edge(self):
        with pytest.raises(ParseError, match="duplicate edge"):
            parse("v a F\ne e1 a a\ne e1 a a\n")

    def test_unknown_record(self):
        with pytest.raises(ParseError, match="unknown record"):
            parse("vertex a L\n")

    def test_missing_side_rejected(self):
        with pytest.raises(ParseError, match="expected"):
            parse("v a\n")

    def test_unknown_endpoint(self):
        with pytest.raises(ParseError, match="not a declared vertex"):
            parse("v a F\ne e1 a zz\n")

    def test_missing_phi_pair(self):
        with pytest.raises(ParseError, match="no phi pair"):
            parse("v a L\n")

    def test_phi_side_mismatch(self):
        with pytest.raises(ParseError, match="phi expects"):
            parse("v a L\nv b L\nphi a b\n")

    def test_parallel_edges_need_epair(self):
        text = """
v a L
v b F
v d R
phi a d
e e1 a b
e e2 a b
e f1 d b
e f2 d b
"""
        with pytest.raises(ParseError, match="require explicit epair"):
            parse(text)
        fixed = text + "epair e1 f1\nepair e2 f2\n"
        g = parse(fixed)
        assert g.edge_involution["e1"] == "f1"
        assert g.edge_involution["e2"] == "f2"

    def test_no_mirror_edge(self):
        with pytest.raises(ParseError, match="no mirror edge"):
            parse("v a L\nv b R\nv f F\nphi a b\ne e1 a f\n")

    def test_crossing_edge_invalid(self):
        with pytest.raises(InvalidSymmetricGraph):
            parse("v a L\nv b R\nphi a b\ne e1 a b\ne e2 b a\nepair e1 e2\n")

    def test_mismatched_pair_rejected_whatever_the_ids(self):
        for text in (MISMATCHED_PAIR, MISMATCHED_PAIR.replace("orientation", "x")):
            with pytest.raises(InvalidSymmetricGraph) as exc:
                parse(text)
            assert exc.value.violations == [
                f"edge involution incompatible with endpoints at {e!r}"
                for e in text.split("epair ")[1].split()
            ]

    def test_axis_parallel_pair_sides_from_epair(self):
        text = """
v b F
v c F
e e1 b c
e e2 b c
epair e1 e2
"""
        g = parse(text)
        assert g.edge_side["e1"] == LEFT
        assert g.edge_side["e2"] == RIGHT

    def test_canonical_orientation_applied(self):
        # db stored backwards in the file; construction flips it
        text = K4MINUS.replace("e db d b", "e db b d")
        g = parse(text)
        assert g.graph.edge("db").tail == "d"
        assert g.graph.edges == parse(K4MINUS).graph.edges

    def test_parse_plain_ignores_symmetry(self):
        g = parse_plain("v a\nv b\ne e1 a b\n")
        assert g.n_vertices == 2
        with pytest.raises(ParseError):
            parse("v a\nv b\ne e1 a b\n")


# records, sides and a few ids, so that soups reach the per-record checks
# (arity, sides, unknown and duplicate ids) and not only the
# unknown-record error
TOKENS = ("v", "e", "phi", "epair", "efix", "L", "F", "R", "a", "b", "c", "x", "y", "#")
TOKEN_SOUP = st.lists(
    st.lists(st.sampled_from(TOKENS), max_size=5).map(" ".join), max_size=12
).map("\n".join)
FUZZ = settings(max_examples=500, derandomize=True, database=None, deadline=None)


class TestParserFuzz:
    """Malformed input raises only ParseError or InvalidSymmetricGraph,
    the two errors the CLI reports with exit status 1."""

    @staticmethod
    def parse_or_reject(text):
        for parser in (parse, parse_plain):
            try:
                parser(text)
            except (ParseError, InvalidSymmetricGraph):
                pass

    @FUZZ
    @given(st.text())
    def test_arbitrary_text(self, text):
        self.parse_or_reject(text)

    @FUZZ
    @given(TOKEN_SOUP)
    def test_token_soup(self, text):
        self.parse_or_reject(text)


class TestSerialize:
    def test_round_trip_running_example(self):
        g = running_example()
        text = serialize(g)
        h = parse(text)
        assert h.graph.vertices == g.graph.vertices
        assert h.graph.edges == g.graph.edges
        assert h.vertex_involution == g.vertex_involution
        assert h.edge_involution == g.edge_involution
        assert h.vertex_side == g.vertex_side
        assert h.edge_side == g.edge_side

    def test_round_trip_random(self):
        for seed in range(20):
            rng = random.Random(seed)
            g = random_symmetric_graph(rng=rng)
            h = parse(serialize(g))
            assert h.graph.edges == g.graph.edges
            assert h.edge_involution == g.edge_involution
            assert h.edge_side == g.edge_side
            # serialization is a fixed point
            assert serialize(h) == serialize(g)

    def test_round_trip_mirror_cycle(self):
        g = mirror_cycle(5)
        assert parse(serialize(g)).graph.edges == g.graph.edges

    @pytest.mark.parametrize(
        "vertices, edges, bad",
        [
            ({}, {"ab": "e#1"}, "e#1"),
            ({"a": "a b"}, {}, "a b"),
            ({}, {"ab": ""}, ""),
            ({"a": 1, "b": 2}, {}, 1),
        ],
    )
    def test_unwritable_id_rejected(self, vertices, edges, bad):
        # a line parse rejects, or an id that would come back as another
        g = relabel(running_example(), vertices, edges)
        with pytest.raises(ValueError, match=f"id {re.escape(repr(bad))} cannot be written"):
            serialize(g)


class TestAnalyzeCommand:
    def test_exit_zero_and_groups(self, capsys):
        code = main(["analyze", str(SAMPLES / "k4minus.sg")])
        out = capsys.readouterr().out
        assert code == 0
        assert "K(G)             Z/8" in out
        assert "K(G+)            Z/4" in out
        assert "K(G-)            Z/2" in out
        assert "overall: PASS" in out

    def test_cycle12_sequence(self, capsys):
        code = main(["analyze", str(SAMPLES / "cycle12.sg")])
        out = capsys.readouterr().out
        assert code == 0
        assert "K(G)             Z/12" in out
        assert "K(G-)            Z/6" in out
        assert "coker f*         Z/2" in out
        assert "ker f*           0" in out

    def test_structured_output_deterministic(self, tmp_path, capsys):
        path = SAMPLES / "k4minus.sg"
        main(["analyze", str(path), "--format", "structured"])
        first = json.loads(capsys.readouterr().out)
        main(["analyze", str(path), "--format", "structured"])
        second = json.loads(capsys.readouterr().out)
        first.pop("generated_at")
        second.pop("generated_at")
        assert first == second
        assert first["groups"]["K_G"]["invariant_factors"] == [8]
        assert first["verdicts"]["ratio_is_two_power"] is True
        assert first["schema_version"] == 1

    def test_corrupt_file_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.sg"
        bad.write_text("v a L\nv a L\n")
        assert main(["analyze", str(bad)]) == 1
        assert "error" in capsys.readouterr().err

    def test_missing_file_exit_one(self, capsys):
        assert main(["analyze", "/nonexistent/file.sg"]) == 1
        assert "error" in capsys.readouterr().err

    def test_invalid_symmetry_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.sg"
        bad.write_text("v a L\nv b R\nphi a b\ne e1 a b\ne e2 b a\nepair e1 e2\n")
        assert main(["analyze", str(bad)]) == 1
        assert "error" in capsys.readouterr().err

    def test_mismatched_pair_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.sg"
        bad.write_text(MISMATCHED_PAIR)
        assert main(["analyze", str(bad)]) == 1
        assert "'orientation2'" in capsys.readouterr().err

    def test_failing_verdict_exit_two(self, monkeypatch, capsys):
        # no valid input produces a failing verdict, so fake one to pin
        # down the exit-code contract
        import mirrorcrit.cli as cli_module

        real = cli_module.main_theorem_verdict

        def sabotaged(g):
            report = real(g)
            verdicts = dict(report.verdicts)
            verdicts["order_identity"] = False
            object.__setattr__(report, "verdicts", verdicts)
            return report

        monkeypatch.setattr(cli_module, "main_theorem_verdict", sabotaged)
        code = main(["analyze", str(SAMPLES / "k4minus.sg")])
        out = capsys.readouterr().out
        assert code == 2
        assert "FAIL" in out

    def test_internal_error_exit_three(self, monkeypatch, capsys):
        # a bug inside the pipeline must not look like bad input (exit 1)
        import mirrorcrit.cli as cli_module

        def broken(g):
            raise RuntimeError("f does not descend to the critical groups")

        monkeypatch.setattr(cli_module, "main_theorem_verdict", broken)
        code = main(["analyze", str(SAMPLES / "k4minus.sg")])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err.startswith(
            "internal error: RuntimeError: f does not descend to the critical groups\n"
        )


class TestOracleCommand:
    def test_symmetric_file_agrees(self, capsys):
        code = main(["oracle", str(SAMPLES / "k4minus.sg")])
        out = capsys.readouterr().out
        assert code == 0
        assert "forest count: enumeration 8 vs |K| 8  ok" in out
        assert "all checks agree" in out

    def test_plain_triangle(self, tmp_path, capsys):
        f = tmp_path / "triangle.sg"
        f.write_text("v x\nv y\nv z\ne a x y\ne b y z\ne c z x\n")
        code = main(["oracle", str(f)])
        out = capsys.readouterr().out
        assert code == 0
        assert "plain-graph checks only" in out
        assert "enumeration 3 vs |K| 3" in out

    def test_invalid_symmetry_falls_back(self, tmp_path, capsys):
        # parses, but its one edge is fixed with moved endpoints: the
        # symmetry is rejected and the plain-graph checks still run
        f = tmp_path / "invalid.sg"
        f.write_text(INVALID_FIXED_EDGE)
        code = main(["oracle", str(f)])
        out = capsys.readouterr().out
        assert code == 0
        assert "note: no valid symmetry data; running plain-graph checks only" in out
        assert "oracle: all checks agree" in out
        with pytest.raises(InvalidSymmetricGraph, match="fixed edge not fixed point-wise: 'x'"):
            parse(INVALID_FIXED_EDGE)

    def test_random_ten_edge_graph(self, tmp_path, capsys):
        rng = random.Random(42)
        g = random_symmetric_graph(
            rng=rng, n_left=2, n_fixed=2, n_left_edges=4, n_fixed_edges=1
        )
        f = tmp_path / "r.sg"
        f.write_text(serialize(g))
        assert main(["oracle", str(f)]) == 0

    def test_size_guard(self, tmp_path, capsys):
        lines = ["v x F"]
        lines += [f"e l{i} x x" for i in range(21)]
        f = tmp_path / "big.sg"
        f.write_text("\n".join(lines) + "\n")
        code = main(["oracle", str(f), "--max-enum", str(2**20)])
        assert code == 1
        assert "exceed" in capsys.readouterr().err

    def test_bicycle_size_guard_names_the_sizes(self, tmp_path, capsys):
        # 2 edges pass the forest guard; 12 vertices, 10 of them isolated,
        # trip the bicycle guard's vertex-subset count
        lines = [f"v x{i} F" for i in range(12)]
        lines += ["e a x0 x1", "e b x1 x0"]
        f = tmp_path / "sparse.sg"
        f.write_text("\n".join(lines) + "\n")
        code = main(["oracle", str(f), "--max-enum", "16"])
        captured = capsys.readouterr()
        assert code == 1
        assert "forest count: enumeration" in captured.out
        assert "2^2 edge subsets or 2^12 vertex subsets exceed the limit 16" in captured.err

    def test_internal_error_exit_three(self, monkeypatch, capsys):
        # the pipeline failing after the enumerations is a bug, not bad input:
        # f* descends when the coker f* line reads it, after both enumerations
        import mirrorcrit.factorization as factorization_module

        def broken(name, matrix, source, target):
            raise RuntimeError(f"{name} does not descend to the critical groups")

        monkeypatch.setattr(factorization_module, "_descend", broken)
        code = main(["oracle", str(SAMPLES / "k4minus.sg")])
        captured = capsys.readouterr()
        assert code == 3
        assert "forest count: enumeration 8 vs |K| 8  ok" in captured.out
        assert captured.err.startswith("internal error: RuntimeError:")
        assert "Traceback" in captured.err


class TestUsageErrors:
    # a usage error is bad input: exit 1, never 2 (a failed verdict or a
    # disagreement), with argparse's usage line and message on stderr
    @pytest.mark.parametrize(
        "argv",
        [
            ["oracle", str(SAMPLES / "k4minus.sg"), "--max-enum", "1e6"],
            ["analyze"],
        ],
    )
    def test_exit_one(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        err = capsys.readouterr().err
        assert exc.value.code == 1
        assert err.startswith(f"usage: mirrorcrit {argv[0]}")
        assert f"mirrorcrit {argv[0]}: error:" in err

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["oracle", "-h"])
        assert exc.value.code == 0
        assert "--max-enum" in capsys.readouterr().out

    def test_top_level_help_keeps_the_synopsis_lines(self, capsys):
        # the module docstring is the description; its synopsis lines
        # are printed as written, not reflowed into one paragraph
        with pytest.raises(SystemExit) as exc:
            main(["-h"])
        assert exc.value.code == 0
        lines = capsys.readouterr().out.splitlines()
        assert "    mirrorcrit analyze PATH [--format text|structured]" in lines
        assert "    mirrorcrit oracle PATH [--max-enum N]" in lines


class TestParserReuse:
    # main parses every call with one parser, built on first use; no
    # call's options, defaults or exit may carry into the next call
    def test_one_build_and_no_state_carried(self, monkeypatch, tmp_path, capsys):
        import mirrorcrit.cli as cli_module

        builds = []
        init = cli_module._Parser.__init__

        def counting_init(self, *args, **kwargs):
            # a subcommand's parser is a _Parser too, with prog "mirrorcrit <command>"
            if kwargs.get("prog") == "mirrorcrit":
                builds.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(cli_module._Parser, "__init__", counting_init)
        k4minus = str(SAMPLES / "k4minus.sg")
        sparse = tmp_path / "sparse.sg"
        sparse.write_text("".join(f"v x{i} F\n" for i in range(12)) + "e a x0 x1\ne b x1 x0\n")

        assert main(["analyze", k4minus, "--format", "structured"]) == 0
        assert json.loads(capsys.readouterr().out)["overall_pass"] is True
        assert main(["analyze", k4minus]) == 0
        out = capsys.readouterr().out
        assert out.startswith("mirrorcrit ") and out.endswith("overall: PASS\n")

        assert main(["oracle", str(sparse), "--max-enum", "16"]) == 1
        assert "exceed the limit 16" in capsys.readouterr().err
        assert main(["oracle", str(sparse)]) == 0
        assert "oracle: all checks agree" in capsys.readouterr().out

        with pytest.raises(SystemExit) as exc:
            main(["oracle", k4minus, "--max-enum", "1e6"])
        assert exc.value.code == 1
        assert capsys.readouterr().err.startswith("usage: mirrorcrit oracle")
        assert main(["oracle", k4minus]) == 0
        assert "oracle: all checks agree" in capsys.readouterr().out

        with pytest.raises(SystemExit) as exc:
            main(["oracle", "-h"])
        assert exc.value.code == 0
        assert "--max-enum" in capsys.readouterr().out
        assert main(["version"]) == 0
        assert capsys.readouterr().out == f"mirrorcrit {mirrorcrit.__version__}\n"

        assert len(builds) <= 1

    def test_in_process_matches_fresh_process(self, capsys):
        argv = ["analyze", str(SAMPLES / "k4minus.sg"), "--format", "structured"]
        docs = []
        for _ in range(2):
            assert main(argv) == 0
            docs.append(json.loads(capsys.readouterr().out))
        env = dict(os.environ, PYTHONPATH=str(Path(mirrorcrit.__file__).parents[1]))
        result = subprocess.run(
            [sys.executable, "-m", "mirrorcrit.cli", *argv],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert result.returncode == 0, result.stderr
        docs.append(json.loads(result.stdout))
        for doc in docs:
            doc.pop("generated_at")
        assert docs[0] == docs[1] == docs[2]


class TestCyclicAxis:
    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="bicycle_cokernel is not gated on axis_forest: on a cyclic axis coker f* "
        "is 0 but the phi-fixed bicycles have dimension 1 (ROADMAP item E; the FOUND: "
        "line on bicycle_cokernel in CHANGES.md)",
    )
    def test_analyze_and_oracle_exit_zero(self, tmp_path, capsys):
        f = tmp_path / "cyclic_axis.sg"
        f.write_text(CYCLIC_AXIS)
        codes = (main(["analyze", str(f)]), main(["oracle", str(f)]))
        capsys.readouterr()
        assert codes == (0, 0)


class TestInputFile:
    @pytest.mark.parametrize("command", ["analyze", "oracle"])
    def test_no_resource_warning(self, command):
        # `-X dev` reports a file object that is never closed
        env = dict(os.environ, PYTHONPATH=str(Path(mirrorcrit.__file__).parents[1]))
        result = subprocess.run(
            [sys.executable, "-X", "dev", "-m", "mirrorcrit.cli", command,
             str(SAMPLES / "k4minus.sg")],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert result.returncode == 0, result.stderr
        assert "ResourceWarning" not in result.stderr


class TestRandomCommand:
    def test_deterministic(self, capsys):
        args = [
            "random",
            "--seed", "1",
            "--left-vertices", "3",
            "--fixed-vertices", "2",
            "--left-edges", "5",
            "--fixed-edges", "1",
        ]
        main(args)
        first = capsys.readouterr().out
        main(args)
        second = capsys.readouterr().out
        assert first == second

    def test_output_parses_and_validates(self, capsys):
        for seed in range(30):
            code = main(
                [
                    "random",
                    "--seed", str(seed),
                    "--left-vertices", "2",
                    "--fixed-vertices", "2",
                    "--left-edges", "3",
                    "--fixed-edges", "1",
                ]
            )
            out = capsys.readouterr().out
            assert code == 0
            # parse constructs the graph, which raises on invalid output
            assert parse(out).graph.n_edges == 7

    def test_generator_validity_over_many_seeds(self):
        # property: every feasible draw constructs, i.e. is a valid
        # symmetric graph (an invalid draw raises AssertionError, which
        # the ValueError of an infeasible one does not catch)
        count = 0
        for seed in range(1000):
            rng = random.Random(seed)
            try:
                g = random_symmetric_graph(
                    rng=rng,
                    n_left=rng.randint(0, 3),
                    n_fixed=rng.randint(0, 3),
                    n_left_edges=rng.randint(0, 5),
                    n_fixed_edges=rng.randint(0, 2),
                )
            except ValueError:
                continue
            count += 1
            assert g.graph.n_edges == 2 * len(g.left_edges) + len(g.fixed_edges)
        assert count > 400

    def test_generator_bug_exits_three(self, monkeypatch, capsys):
        # a draw that fails construction is an internal error, not bad
        # input: exit 3, although InvalidSymmetricGraph is a ValueError
        monkeypatch.setattr(SymmetricGraph, "_violations", lambda self: ["boom"])
        assert main(["random"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("internal error: AssertionError:")
        assert "boom" in err

    def test_infeasible_parameters(self, capsys):
        code = main(
            [
                "random",
                "--seed", "0",
                "--left-vertices", "2",
                "--fixed-vertices", "0",
                "--left-edges", "2",
                "--fixed-edges", "1",
            ]
        )
        assert code == 1
        assert "infeasible" in capsys.readouterr().err


class TestVersionCommand:
    def test_version(self, capsys):
        assert main(["version"]) == 0
        assert "mirrorcrit" in capsys.readouterr().out
