"""CLI surface: subcommands, formats, exit codes."""

import pytest

from atsep.cli import EXIT_INPUT, EXIT_OK, EXIT_VERIFY, main
from atsep.fileformat import format_graph, load_graph, save_graph
from atsep.graph import build_graph
from atsep.pipeline import separate

from conftest import cycle, path


def write(tmp_path, name, G):
    p = tmp_path / name
    save_graph(G, p)
    return str(p)


def test_gen_round_trip(tmp_path):
    out = tmp_path / "g.txt"
    assert main(["gen", "--n", "8", "--r", "1", "--seed", "7", "--out", str(out)]) == EXIT_OK
    G = load_graph(out)
    assert G.n == 8 and G.m == 9


def test_gen_deterministic(tmp_path, capsys):
    main(["gen", "--n", "15", "--r", "2", "--seed", "4"])
    first = capsys.readouterr().out
    main(["gen", "--n", "15", "--r", "2", "--seed", "4"])
    assert capsys.readouterr().out == first


def test_gen_seed_from_environment(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("ATS_SEED", "4")
    # parser defaults are bound at build time, so rebuild under the env var
    from atsep.cli import build_parser

    args = build_parser().parse_args(["gen", "--n", "15", "--r", "2"])
    assert args.seed == 4


def test_separate_tree_prints_centroid(tmp_path, capsys):
    f = write(tmp_path, "t.txt", path(9))
    assert main(["separate", f]) == EXIT_OK
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "5"  # 1-based centroid of a 9-path
    assert out[1] == "size 1"


def test_separate_c6(tmp_path, capsys):
    f = write(tmp_path, "c6.txt", cycle(6))
    assert main(["separate", f]) == EXIT_OK
    out = capsys.readouterr().out.splitlines()
    assert out[1].startswith("size ")
    assert int(out[1].split()[1]) >= 2


def test_separate_disconnected_is_input_error(tmp_path, capsys):
    f = write(tmp_path, "d.txt", build_graph(4, [(0, 1), (2, 3)]))
    assert main(["separate", f]) == EXIT_INPUT


@pytest.mark.parametrize("command", ["separate", "lt"])
@pytest.mark.parametrize("text,reached", [
    pytest.param("p 5 3\ne 1 2\ne 2 3\ne 4 5\n", "3 of 5", id="path and K2"),
    pytest.param("p 6 5\ne 1 2\ne 2 3\ne 1 3\ne 4 5\ne 5 6\n", "3 of 6",
                 id="triangle and path"),
    pytest.param("p 8 6\ne 1 2\ne 2 3\ne 1 3\ne 4 5\ne 5 6\ne 7 8\n", "3 of 8",
                 id="triangle, path and K2"),
])
def test_disconnected_names_count_and_file_root(tmp_path, capsys, command, text, reached):
    # the count is exact and the root is the file's vertex 1, not 0
    f = tmp_path / "apart.txt"
    f.write_text(text)
    assert main([command, str(f)]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: only {reached} vertices reachable from 1\n"


def test_separate_trace(tmp_path):
    f = write(tmp_path, "c6.txt", cycle(6))
    trace = tmp_path / "trace.txt"
    assert main(["separate", f, "--trace", str(trace)]) == EXIT_OK
    text = trace.read_text()
    assert text.startswith("stage input\n")
    assert "stage separator\n" in text


@pytest.mark.parametrize("command", ["separate", "lt"])
@pytest.mark.parametrize("beta", ["0", "1/2", "1", "3/2"])
def test_beta_outside_open_interval_is_input_error(tmp_path, capsys, command, beta):
    f = write(tmp_path, "c6.txt", cycle(6))
    assert main([command, f, "--beta", beta]) == EXIT_INPUT
    assert "beta must lie strictly between 1/2 and 1" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["separate", "{f}", "--beta", "1/0"],
    ["verify", "{f}", "1", "--beta", "1/0"],
    ["oracle", "{f}", "--beta", "1/0"],
    ["lt", "{f}", "--beta", "1/0"],
    ["gen", "--n", "8", "--r", "1", "--weights", "single_heavy:1/0"],
    ["gen", "--n", "8", "--r", "1", "--weights", "single_heavy"],
    ["gen", "--n", "8", "--r", "1", "--weights", "uniform:1"],
], ids=["separate", "verify", "oracle", "lt", "heavy-1/0", "heavy-bare", "uniform-one-bound"])
def test_malformed_option_value_is_input_error(tmp_path, capsys, argv):
    # a zero denominator or a missing field is an input error, not a traceback
    f = write(tmp_path, "c6.txt", cycle(6))
    assert main([a.replace("{f}", f) for a in argv]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert "usage: atsep" in err and "Traceback" not in err


@pytest.mark.parametrize("mode", ["uniform:-3:2", "uniform:0:0", "uniform:5:2"],
                         ids=["negative", "all-zero", "reversed"])
def test_gen_rejects_weight_range(capsys, mode):
    # weights must be non-negative and not all zero, or separate rejects the file
    assert main(["gen", "--n", "8", "--r", "1", "--weights", mode]) == EXIT_INPUT
    out, err = capsys.readouterr()
    assert out == ""
    assert "uniform weights need 0 <= LO <= HI and HI >= 1" in err and "Traceback" not in err


def test_repair_cap_is_internal_fault(tmp_path, capsys, monkeypatch):
    import atsep.pipeline
    from atsep.errors import RepairCapExceeded

    def failing_fixup(*args, **kwargs):
        raise RepairCapExceeded("still unbalanced after 3 repairs (cap 3)")

    monkeypatch.setattr(atsep.pipeline, "heavy_vertex_fixup", failing_fixup)
    f = write(tmp_path, "c6.txt", cycle(6))
    assert main(["separate", f]) == EXIT_VERIFY
    assert "cap 3" in capsys.readouterr().err


def test_unbalanced_answer_is_internal_fault(tmp_path, capsys, monkeypatch):
    import atsep.cli
    from atsep.pipeline import Separator

    def unbalanced(G, **kwargs):
        return Separator(vertices={0}, size=1, max_component_weight=5,
                         total_weight=6, repairs=0)

    monkeypatch.setattr(atsep.cli, "separate", unbalanced)
    f = write(tmp_path, "c6.txt", cycle(6))
    assert main(["separate", f]) == EXIT_VERIFY
    assert "verification FAILED" in capsys.readouterr().err


def test_separate_searches_input_once(tmp_path, capsys, monkeypatch):
    import atsep.cli
    import atsep.graph
    import atsep.pipeline
    import atsep.planar

    f = tmp_path / "g.txt"
    assert main(["gen", "--n", "5000", "--r", "4", "--seed", "1", "--out", str(f)]) == EXIT_OK
    calls = []
    real = atsep.graph.connected_components
    checks = []
    real_check = atsep.pipeline._TreePlusExtra.heaviest

    def counting(H, *args, **kwargs):
        calls.append(H.n == 5000)
        return real(H, *args, **kwargs)

    def counting_check(self, removed):
        checks.append(len(removed) == 5000)
        return real_check(self, removed)

    # every module-level binding of the function, wherever the package keeps one
    for module in (atsep.graph, atsep.pipeline, atsep.planar, atsep.cli):
        if hasattr(module, "connected_components"):
            monkeypatch.setattr(module, "connected_components", counting)
    monkeypatch.setattr(atsep.pipeline._TreePlusExtra, "heaviest", counting_check)
    assert main(["separate", str(f)]) == EXIT_OK
    assert "repairs 0" in capsys.readouterr().out
    # the input is searched once, on its spanning tree plus extra edges
    assert calls.count(True) == 0
    assert checks == [True]


def test_separate_stage_times(tmp_path, capsys, monkeypatch):
    import atsep.cli
    from atsep.gen import GenSpec, generate

    seps = []

    def recording_separate(*args, **kwargs):
        seps.append(separate(*args, **kwargs))
        return seps[-1]

    monkeypatch.setattr(atsep.cli, "separate", recording_separate)
    f = write(tmp_path, "g.txt", generate(GenSpec(n=300, r=8, seed=1)))
    assert main(["separate", f, "--stage-times"]) == EXIT_OK
    lines = capsys.readouterr().err.splitlines()
    stage_ns = seps[0].stage_ns
    assert len(stage_ns) == 8
    assert lines[:-1] == [f"stage_time {name} {ns}" for name, ns in stage_ns.items()]
    tag, name, total = lines[-1].split()
    assert (tag, name) == ("stage_time", "total") and int(total) >= sum(stage_ns.values())


def test_separate_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("p 2 1\ne 1 5\n")
    assert main(["separate", str(bad)]) == EXIT_INPUT
    assert "error:" in capsys.readouterr().err


def test_separate_vertex_count_too_large(tmp_path, capsys):
    # 18 digits: the weights list this asks for fails at once, allocating nothing
    huge = tmp_path / "huge.txt"
    huge.write_text("p 999999999999999999 0\n")
    assert main(["separate", str(huge)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert "error: line 1: vertex count 999999999999999999 is too large" in err
    assert "Traceback" not in err


def test_verify_pass_and_fail(tmp_path, capsys):
    f = write(tmp_path, "c6.txt", cycle(6))
    assert main(["verify", f, "1 4"]) == EXIT_OK
    assert capsys.readouterr().out.startswith("PASS")
    assert main(["verify", f, "1"]) == EXIT_VERIFY
    assert capsys.readouterr().out.startswith("FAIL")


def test_verify_separator_file(tmp_path, capsys):
    f = write(tmp_path, "c6.txt", cycle(6))
    sep = tmp_path / "sep.txt"
    sep.write_text("1 4\n")
    assert main(["verify", f, "--separator-file", str(sep)]) == EXIT_OK


@pytest.mark.parametrize("ids,token", [("1 5", "5"), ("0 2", "0"), ("3 -1", "-1"), ("1 007", "007")])
def test_verify_separator_out_of_range_names_the_token(tmp_path, capsys, ids, token):
    f = write(tmp_path, "c4.txt", cycle(4))
    sep = tmp_path / "sep.txt"
    sep.write_text(ids + "\n")
    for argv in (["verify", f, ids], ["verify", f, "--separator-file", str(sep)]):
        assert main(argv) == EXIT_INPUT
        err = capsys.readouterr().err
        assert f"error: separator vertex '{token}' out of range [1, 4]" in err
        assert "Traceback" not in err


@pytest.mark.parametrize("text,message", [
    pytest.param("p 3 2\ne 1 2\ne 2 2\n", "error: line 3: self-loop at vertex 2\n",
                 id="self-loop"),
    pytest.param("p 3 2\ne 1 2\ne 2 1\n",
                 "error: line 3: duplicate edge (1, 2), first given on line 2\n",
                 id="reversed repeat"),
    pytest.param("c x\np 3 2\ne 3 1\n\ne 1 3\n",
                 "error: line 5: duplicate edge (1, 3), first given on line 3\n",
                 id="reversed repeat, line loop"),
])
def test_separate_bad_edge_names_line_and_ids(tmp_path, capsys, text, message):
    bad = tmp_path / "bad.txt"
    bad.write_text(text)
    assert main(["separate", str(bad)]) == EXIT_INPUT
    assert capsys.readouterr().err == message


def test_oracle_negative_max_size_is_input_error(tmp_path, capsys):
    f = write(tmp_path, "c6.txt", cycle(6))
    assert main(["oracle", f, "--max-size", "-2"]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: max_size must be at least 0, got -2" in captured.err


def test_oracle_c6(tmp_path, capsys):
    f = write(tmp_path, "c6.txt", cycle(6))
    assert main(["oracle", f]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "2: 1 2"


def test_lt_grid(tmp_path, capsys):
    from atsep.gen import grid_graph

    f = write(tmp_path, "grid.txt", grid_graph(4, 4))
    assert main(["lt", f]) == EXIT_OK
    out = capsys.readouterr().out.splitlines()
    assert out[1].startswith("size ")


def test_unknown_subcommand_is_input_error(capsys):
    assert main(["frobnicate"]) == EXIT_INPUT
    # benchmarks run through benchmark/run.py, not the CLI
    assert main(["bench", "--n", "30", "--r", "0"]) == EXIT_INPUT
