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
