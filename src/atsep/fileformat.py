"""Edge-list text format.

Layout::

    c optional comment lines
    p <n> <m>
    e <u> <v>        (m lines, 1-based vertex IDs)
    w <v> <weight>   (optional; vertices without a w line get weight 1)

Comment and blank lines may appear anywhere, e and w lines in any order
after the p line, and the last w line of a vertex wins. Weights may be
written as decimals when loading with a fixed-point ``weight_scale``;
they are stored internally as integers. Errors carry the line number
and name vertices by their 1-based IDs.
"""

from __future__ import annotations

import re
from decimal import Decimal

import numpy as np

from .errors import DuplicateEdge, Overflow, ParseError, SelfLoop
from .graph import Graph, build_graph

# Text as format_graph writes it: leading c lines and the p line, then
# the e lines and after them the w lines, each a tag and two runs of 1 to
# 18 ASCII digits joined by single spaces (10**18 - 1 < 2**63, so every
# number fits an int64). Group 1 of _BODY holds the e lines.
_HEADER = re.compile(rb"((?:c[^\n]*\n)*)p ([0-9]{1,18}) ([0-9]{1,18})\n")
_BODY = re.compile(rb"((?:e [0-9]{1,18}+ [0-9]{1,18}+\n)*+)(?:w [0-9]{1,18}+ [0-9]{1,18}+\n)*+")
# the ASCII bytes other than \n at which str.splitlines ends a line
_LINE_BREAKS = re.compile(rb"[\r\x0b\x0c\x1c-\x1e]")
_BLANK_TAGS = bytes.maketrans(b"ew", b"  ")


def parse_graph(text: str, weight_scale: int = 1) -> Graph:
    """Graph from edge-list text; raises ParseError with the line at fault.

    Text laid out as ``format_graph`` writes it is checked by one regular
    expression and converted by one numpy call. Anything else goes
    through the line loop, which gives the same graph or raises the same
    error.
    """
    G = _parse_array(text, weight_scale)
    return G if G is not None else _parse_lines(text, weight_scale)


def _parse_array(text: str, weight_scale: int) -> Graph | None:
    """The graph of well-formed text, or None if the line loop must read it.

    Text that ``build_graph`` rejects goes to the line loop too, which
    finds the same fault and names its line and 1-based IDs.
    """
    if type(weight_scale) is not int or weight_scale != 1:
        return None  # the loop's weights are weight_scale and Decimal products
    try:
        data = text.encode("ascii")
    except UnicodeEncodeError:
        return None
    head = _HEADER.match(data)
    if head is None or _LINE_BREAKS.search(head.group(1)):
        return None
    n, m = int(head.group(2)), int(head.group(3))
    body = data[head.end():]
    lines = _BODY.fullmatch(body)
    if lines is None or body.count(b"\n", 0, lines.end(1)) != m:
        return None
    numbers = np.fromstring(body.translate(_BLANK_TAGS), dtype=np.int64, sep=" ")
    numbers = numbers.reshape(-1, 2)
    edges = numbers[:m] - 1
    heavy = numbers[m:, 0] - 1
    if ((edges < 0) | (edges >= n)).any() or ((heavy < 0) | (heavy >= n)).any():
        return None
    # as the line loop does, so that a later w line of a vertex wins and
    # an n too large to hold fails the same way
    try:
        weights = [1] * n
    except MemoryError:
        p_line = head.group(1).count(b"\n") + 1
        raise ParseError(f"vertex count {n} is too large", p_line) from None
    for v, w in zip(heavy.tolist(), numbers[m:, 1].tolist()):
        weights[v] = w
    try:
        return build_graph(n, edges, weights)
    except (SelfLoop, DuplicateEdge, Overflow):
        return None


def _parse_lines(text: str, weight_scale: int) -> Graph:
    """The line loop: reads every text the format allows, finds every fault."""
    n = None
    m = None
    edges: list[tuple[int, int]] = []
    edge_line: dict[int, int] = {}  # each edge's line, keyed by its 1-based ends
    weights: list[int] | None = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        tag = parts[0]
        if tag == "p":
            if n is not None:
                raise ParseError("duplicate p line", line_no)
            if len(parts) != 3:
                raise ParseError("expected 'p <n> <m>'", line_no)
            try:
                n, m = int(parts[1]), int(parts[2])
            except ValueError:
                raise ParseError("expected 'p <n> <m>'", line_no) from None
            if n < 0 or m < 0:
                raise ParseError("negative count in p line", line_no)
            try:
                weights = [weight_scale] * n
            except (MemoryError, OverflowError):
                raise ParseError(f"vertex count {n} is too large", line_no) from None
        elif tag == "e":
            if n is None:
                raise ParseError("e line before p line", line_no)
            if len(parts) != 3:
                raise ParseError("expected 'e <u> <v>'", line_no)
            try:
                u, v = int(parts[1]) - 1, int(parts[2]) - 1
            except ValueError:
                raise ParseError("expected 'e <u> <v>'", line_no) from None
            if not (0 <= u < n and 0 <= v < n):
                raise ParseError(f"vertex out of range in '{line}'", line_no)
            if u == v:
                raise ParseError(f"self-loop at vertex {u + 1}", line_no)
            lo, hi = sorted((u + 1, v + 1))
            first = edge_line.setdefault(lo * (n + 1) + hi, line_no)
            if first != line_no:
                raise ParseError(f"duplicate edge ({lo}, {hi}), first given on line {first}", line_no)
            edges.append((u, v))
        elif tag == "w":
            if n is None or weights is None:
                raise ParseError("w line before p line", line_no)
            if len(parts) != 3:
                raise ParseError("expected 'w <v> <weight>'", line_no)
            try:
                v = int(parts[1]) - 1
                w = int(Decimal(parts[2]) * weight_scale)
            except (ValueError, ArithmeticError):
                raise ParseError("expected 'w <v> <weight>'", line_no) from None
            if not 0 <= v < n:
                raise ParseError(f"vertex out of range in '{line}'", line_no)
            if w < 0:
                raise ParseError(f"negative weight {w}", line_no)
            weights[v] = w
        else:
            raise ParseError(f"unknown line tag '{tag}'", line_no)
    if n is None:
        raise ParseError("missing p line")
    if m is not None and m != len(edges):
        raise ParseError(f"p line promises {m} edges, found {len(edges)}")
    return build_graph(n, edges, weights)


def format_graph(G: Graph) -> str:
    lines = [f"p {G.n} {G.m}"]
    for u, v in G.edges():
        lines.append(f"e {u + 1} {v + 1}")
    for v, w in enumerate(G.weights):
        if w != 1:
            lines.append(f"w {v + 1} {w}")
    return "\n".join(lines) + "\n"


def load_graph(path, weight_scale: int = 1) -> Graph:
    with open(path, "r", encoding="utf-8") as f:
        return parse_graph(f.read(), weight_scale=weight_scale)


def save_graph(G: Graph, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(format_graph(G))


def parse_vertex_list(text: str, n: int) -> list[int]:
    """Whitespace-separated 1-based vertex IDs -> sorted 0-based list.

    An ID outside [1, n] raises ParseError naming the token as written.
    """
    ids = []
    for tok in text.split():
        try:
            v = int(tok)
        except ValueError:
            raise ParseError(f"bad vertex ID '{tok}'") from None
        if not 1 <= v <= n:
            raise ParseError(f"separator vertex '{tok}' out of range [1, {n}]")
        ids.append(v - 1)
    return sorted(set(ids))
