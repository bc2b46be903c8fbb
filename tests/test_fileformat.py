"""Edge-list text format round-trips and error reporting."""

import random
import re

import numpy as np
import pytest

import atsep.fileformat
from atsep.errors import ParseError
from atsep.fileformat import (
    _parse_array,
    _parse_lines,
    format_graph,
    load_graph,
    parse_graph,
    parse_vertex_list,
    save_graph,
)
from atsep.gen import GenSpec, generate
from atsep.graph import build_graph


def test_parse_minimal():
    G = parse_graph("p 3 2\ne 1 2\ne 2 3\n")
    assert G.n == 3 and G.m == 2
    assert sorted(G.edges()) == [(0, 1), (1, 2)]


def test_comments_and_blank_lines_skipped():
    G = parse_graph("c hello\n\np 2 1\nc mid\ne 1 2\n")
    assert G.m == 1


def test_weights_default_to_one():
    G = parse_graph("p 3 0\nw 2 7\n")
    assert G.weights == [1, 7, 1]


def test_weight_scale_fixed_point():
    G = parse_graph("p 2 1\ne 1 2\nw 1 0.25\n", weight_scale=100)
    assert G.weights == [25, 100]


def test_round_trip():
    G = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)], [1, 5, 1, 2])
    again = parse_graph(format_graph(G))
    assert again.n == G.n
    assert sorted(again.edges()) == sorted(G.edges())
    assert again.weights == G.weights


def test_file_round_trip(tmp_path):
    G = build_graph(3, [(0, 1), (1, 2)], [2, 1, 1])
    p = tmp_path / "g.txt"
    save_graph(G, p)
    again = load_graph(p)
    assert sorted(again.edges()) == sorted(G.edges())
    assert again.weights == G.weights


@pytest.mark.parametrize(
    "text,line_no",
    [
        ("e 1 2\n", 1),  # edge before header
        ("p 2 1\np 2 1\n", 2),  # duplicate header
        ("p 2 1\ne 1 5\n", 2),  # vertex out of range
        ("p 2 1\nx 1 2\n", 2),  # unknown tag
        ("p 2\n", 1),  # malformed header
        ("p 2 1\ne 1\n", 2),  # malformed edge
        ("p 2 0\nw 9 1\n", 2),  # weight vertex out of range
        ("p -1 0\n", 1),  # negative vertex count
        ("c x\np 2 -1\n", 2),  # negative edge count
        ("p 2 1\ne 1 2\nw 1 -5\n", 3),  # negative weight
    ],
)
def test_parse_errors_carry_line_numbers(text, line_no):
    with pytest.raises(ParseError) as exc:
        parse_graph(text)
    assert exc.value.line_no == line_no


# 18 digits: the weights list this asks for fails at once, allocating nothing
_HUGE_N = 999999999999999999


@pytest.mark.parametrize(
    "parse,text,line_no",
    [
        (_parse_array, f"p {_HUGE_N} 0\n", 1),
        (parse_graph, f"c big\nc twice\np {_HUGE_N} 0\n", 3),
        (_parse_lines, f"p {_HUGE_N} 0\n", 1),
        (_parse_lines, f"\np {_HUGE_N} 0\ne 1 2\n", 2),
    ],
)
def test_vertex_count_too_large_is_parse_error(parse, text, line_no):
    with pytest.raises(ParseError, match=f"vertex count {_HUGE_N} is too large") as exc:
        parse(text, 1)
    assert exc.value.line_no == line_no


@pytest.mark.parametrize(
    "text,line_no,message",
    [
        pytest.param("p 3 2\ne 1 2\ne 2 2\n", 3, "self-loop at vertex 2", id="self-loop"),
        pytest.param("p 3 2\ne 1 2\ne 2 1\n", 3,
                     "duplicate edge (1, 2), first given on line 2", id="reversed repeat"),
        pytest.param("c x\np 4 3\ne 3 4\ne 1 2\ne 3 4\n", 5,
                     "duplicate edge (3, 4), first given on line 3", id="repeat"),
        pytest.param("p 10 2\ne 1 2\ne 3 3\n" + "".join(
                         f"w {v} 999999999999999999\n" for v in range(1, 11)), 3,
                     "self-loop at vertex 3", id="self-loop and weights above 2**63"),
    ],
)
@pytest.mark.parametrize("parse", [parse_graph, _parse_lines])
def test_bad_edges_name_the_line_and_one_based_ids(parse, text, line_no, message):
    with pytest.raises(ParseError) as exc:
        parse(text, 1)
    assert exc.value.line_no == line_no
    assert str(exc.value) == f"line {line_no}: {message}"


def test_array_path_hands_rejected_edges_to_the_line_loop():
    # as format_graph lays it out, so only build_graph can reject it
    heavy = "".join(f"w {v} 999999999999999999\n" for v in range(1, 11))
    for text in ("p 3 2\ne 1 2\ne 2 2\n", "p 3 2\ne 1 2\ne 2 1\n",
                 "p 10 2\ne 1 2\ne 3 3\n" + heavy):
        assert _parse_array(text, 1) is None


def test_missing_header_rejected():
    with pytest.raises(ParseError):
        parse_graph("c only a comment\n")


def test_edge_count_mismatch_rejected():
    with pytest.raises(ParseError):
        parse_graph("p 3 2\ne 1 2\n")


def test_parse_vertex_list():
    assert parse_vertex_list("3 1 4 1", 4) == [0, 2, 3]
    assert parse_vertex_list("", 4) == []
    with pytest.raises(ParseError):
        parse_vertex_list("1 x", 4)


@pytest.mark.parametrize("text,token", [("1 5", "5"), ("0", "0"), ("2 -1", "-1"), ("+9", "+9")])
def test_parse_vertex_list_names_an_id_outside_the_graph(text, token):
    with pytest.raises(ParseError, match=re.escape(f"separator vertex '{token}' out of range [1, 4]")):
        parse_vertex_list(text, 4)
    assert parse_vertex_list("4 1 +2 04", 4) == [0, 1, 3]


def _outcome(parse, text, weight_scale=1):
    """(n, indptr, indices, weights) of the parsed graph, or what it raised."""
    try:
        G = parse(text, weight_scale)
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "line_no", None)
    if G is None:
        return None
    assert all(type(w) is int for w in G.weights)
    return G.n, G.indptr.tolist(), G.indices.tolist(), G.weights


_WELL_FORMED = "c made by hand\nc twice\np 4 3\ne 1 2\ne 3 2\ne 4 1\nw 2 5\nw 4 0\n"


def _with(old, new):
    return _WELL_FORMED.replace(old, new)


@pytest.mark.parametrize(
    "text,weight_scale",
    [
        pytest.param(_with("\n", "\r\n"), 1, id="CRLF line ends"),
        pytest.param(_with("e 3 2", "e\t3 2"), 1, id="tab"),
        pytest.param(_with("e 3 2", "e  3 2"), 1, id="two spaces"),
        pytest.param(_with("e 3 2", " e 3 2"), 1, id="leading space"),
        pytest.param("\n" + _WELL_FORMED, 1, id="leading blank line"),
        pytest.param(_with("e 3 2\n", "e 3 2\n\n"), 1, id="blank line in the body"),
        pytest.param(_with("e 3 2\n", "e 3 2\nc later\n"), 1, id="c line after the header"),
        pytest.param(_with("c twice\n", "c twice\rp 1 0\n"), 1, id="CR inside a c line"),
        pytest.param(_with("e 4 1\nw 2 5\n", "w 2 5\ne 4 1\n"), 1, id="w before e"),
        pytest.param(_WELL_FORMED + "e 3 4\n", 1, id="e line after the w lines"),
        pytest.param(_with("e 3 2", "e +3 2"), 1, id="sign"),
        pytest.param(_with("w 2 5", "w 2 1_0"), 1, id="underscore"),
        pytest.param(_with("e 3 2", "e \u0663 2"), 1, id="non-ASCII digit"),
        pytest.param(_with("w 2 5", "w 2 0.25"), 100, id="decimal with weight_scale"),
        pytest.param(_WELL_FORMED, 100, id="integers with weight_scale"),
        pytest.param(_WELL_FORMED, 1.0, id="float weight_scale"),
        pytest.param(_with("w 2 5", "w 2 1e3"), 1, id="exponent"),
        pytest.param(_with("e 3 2", "e 9 2"), 1, id="ID out of range"),
        pytest.param(_with("e 3 2", "e 0 2"), 1, id="zero ID"),
        pytest.param(_with("w 4 0", "w 0 3"), 1, id="zero ID in a w line"),
        pytest.param(_with("p 4 3", "p 4 2"), 1, id="wrong m, too small"),
        pytest.param(_with("p 4 3", "p 4 4"), 1, id="wrong m, too large"),
        pytest.param(_WELL_FORMED[:-1], 1, id="no final newline"),
        pytest.param(_WELL_FORMED + "7", 1, id="digits after the final newline"),
        pytest.param(_with("e 3 2", "e 3 1234567890123456789"), 1, id="19 digits"),
        pytest.param("p 1 0\nw 1 9223372036854775808\n", 1, id="weight of 2**63"),
        pytest.param(_with("p 4 3", "p 4 3 "), 1, id="trailing space on the p line"),
        pytest.param(_with("p 4 3", "p -4 3"), 1, id="negative n"),
        pytest.param(_with("w 2 5", "w 2 -5"), 1, id="negative weight"),
    ],
)
def test_fallback_triggers_match_the_line_loop(text, weight_scale):
    assert _parse_array(text, weight_scale) is None
    assert _outcome(parse_graph, text, weight_scale) == _outcome(_parse_lines, text, weight_scale)


@pytest.mark.parametrize(
    "text",
    [
        pytest.param(_WELL_FORMED, id="as format_graph writes it"),
        pytest.param(_with("w 2 5\n", "w 2 5\nw 2 6\nw 4 2\n"), id="repeated w vertex"),
        pytest.param(_with("e 3 2", "e 003 2"), id="leading zeros"),
        pytest.param(_with("w 2 5", "w 2 999999999999999999"), id="18 digits"),
        pytest.param("p 3 0\n", id="header alone"),
        pytest.param("c big\np 999999999999999999 0\n", id="n too large to hold"),
    ],
)
def test_array_path_matches_the_line_loop(text):
    got = _outcome(_parse_array, text)
    assert got is not None
    assert got == _outcome(parse_graph, text) == _outcome(_parse_lines, text)


_JUNK = ("0", "1", "9", " ", "\n", "\r", "\t", "-", "+", "_", ".", "e", "w", "c", "p",
         "x", "\u0663")
_BIG = ("999999999999999999", "1000000000000000000", "9223372036854775807",
        "9223372036854775808", "18446744073709551617", "000000000000000001")


def _mutate(rng, text, n, m):
    """The text with one random fault or irregularity injected.

    n and m are the counts of the unmutated text, whose p line an earlier
    mutation may have changed.
    """
    lines = text.split("\n")
    final = lines.pop()
    header = next((i for i, line in enumerate(lines) if line.startswith("p ")), 0)
    body = range(header + 1, len(lines))
    e_lines = [i for i in body if lines[i].startswith("e ")]
    kind = rng.choice(("tag", "byte", "delete", "insert", "crlf", "dup-w", "big", "sum",
                       "loop", "dup-e", "count", "id", "swap", "final"))
    at = rng.choice(body) if len(body) else header
    tag, *nums = lines[at].split(" ")
    if kind == "tag" and len(body):
        lines[at] = " ".join([rng.choice("ewpcx"), *nums])
    elif kind in ("byte", "delete"):
        text = "\n".join(lines) + "\n" + final
        i = rng.randrange(len(text))
        return text[:i] + (rng.choice(_JUNK) if kind == "byte" else "") + text[i + 1:]
    elif kind == "insert":
        lines.insert(rng.randint(0, len(lines)), rng.choice(("c note", "", "  ", "c")))
    elif kind == "crlf":
        return "\r\n".join(lines) + rng.choice(("\r\n", "\n")) + final
    elif kind == "dup-w":
        line = f"w {rng.randint(1, n)} {rng.randint(0, 9)}"
        lines.insert(rng.randint(header + 1, len(lines)), line)
    elif kind == "big" and len(body) and len(nums) == 2:
        nums[rng.randrange(2)] = rng.choice(_BIG)
        lines[at] = " ".join([tag, *nums])
    elif kind == "sum":
        lines.extend(f"w {v} 999999999999999999" for v in range(1, min(n, 11) + 1))
    elif kind == "loop" and e_lines:
        v = rng.randint(1, n)
        lines[rng.choice(e_lines)] = f"e {v} {v}"
    elif kind == "dup-e" and e_lines:
        _, *ends = lines[rng.choice(e_lines)].split(" ")
        ends = ends[::-1] if rng.random() < 0.5 else ends
        lines.insert(rng.choice(e_lines), " ".join(["e", *ends]))
        if rng.random() < 0.8:
            lines[header] = f"p {n} {m + 1}"
    elif kind == "count":
        lines[header] = f"p {n} {m + rng.choice((-1, 1))}"
    elif kind == "id" and len(body) and nums:
        nums[0] = str(rng.choice((0, n, n + 1)))
        lines[at] = " ".join([tag, *nums])
    elif kind == "swap" and len(body) >= 2:
        i, j = rng.sample(body, 2)
        lines[i], lines[j] = lines[j], lines[i]
    elif kind == "final":
        return "\n".join(lines) + final
    return "\n".join(lines) + "\n" + final


def test_array_path_matches_the_line_loop_on_mutated_texts():
    rng = random.Random(7)
    bases = []
    for seed in range(40):
        spec = GenSpec(n=rng.randint(6, 30), r=rng.randint(-1, 6), seed=seed,
                       weight_mode=rng.choice((("unit",), ("uniform", 0, 9))))
        G = generate(spec)
        text = format_graph(G)
        bases.append(("c generated\n" + text if seed % 2 else text, G.n, G.m))
    taken = {"array": 0, "loop": 0, "raised": 0}
    for _ in range(2000):
        text, n, m = rng.choice(bases)
        for _ in range(rng.choice((0, 1, 1, 1, 2, 2, 3))):
            text = _mutate(rng, text, n, m)
        want = _outcome(_parse_lines, text)
        assert _outcome(parse_graph, text) == want, repr(text)
        taken["loop" if _outcome(_parse_array, text) is None else "array"] += 1
        taken["raised"] += isinstance(want[0], type)
    assert taken["array"] > 400 and taken["loop"] > 400 and taken["raised"] > 400, taken


def test_large_generated_graph_never_reaches_the_line_loop(monkeypatch):
    G = generate(GenSpec(n=10**5, r=16, seed=3, weight_mode=("uniform", 0, 5)))
    text = format_graph(G)
    want = _parse_lines(text, 1)

    def no_loop(*args, **kwargs):
        raise AssertionError("the line loop was called")

    monkeypatch.setattr(atsep.fileformat, "_parse_lines", no_loop)
    got = parse_graph(text)
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert got.weights == want.weights == G.weights
    assert all(type(w) is int for w in got.weights)
    assert sorted(got.edges()) == sorted(G.edges())
