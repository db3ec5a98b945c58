"""DIMACS shortest-path format ('p sp' / 'a u v w' lines).

Input may describe a directed multigraph; it is folded into a simple
undirected graph: duplicate arcs for the same unordered pair keep the
minimum weight, self-loop arcs are dropped.  Every line but a comment is
ASCII, and its numbers are plain decimal digits ('-' only to be refused as
a negative weight): Python's int() would also take '1_0', '+3' and
non-ASCII digits.
"""

from __future__ import annotations

from .graph import MAX_WEIGHT, Graph


class DimacsError(ValueError):
    pass


def parse_dimacs(text: str | bytes, max_n: int | None = None) -> Graph:
    """Parse DIMACS text; with `max_n`, refuse a problem line naming more
    vertices before the graph is allocated."""
    if isinstance(text, bytes):
        text = text.decode("latin-1")  # never fails; a non-ASCII line is refused below

    g: Graph | None = None
    # lines end at \n, \r\n or a lone \r only: str.splitlines would also
    # break a comment at \x0b, \x0c, \x1c-\x1e or \x85
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if not line.isascii():
            raise DimacsError(f"line {lineno}: malformed line {line!r} (not ASCII)")
        fields = line.split()
        if fields[0] == "p":
            if g is not None:
                raise DimacsError(f"line {lineno}: second problem line")
            if not (len(fields) == 4 and fields[1] == "sp"
                    and fields[2].isdigit() and fields[3].isdigit()):
                raise DimacsError(f"line {lineno}: malformed problem line {line!r}")
            try:
                n = int(fields[2])
            except ValueError:  # more digits than int() converts
                raise DimacsError(f"line {lineno}: malformed problem line {line!r}") from None
            if n < 1:
                raise DimacsError(f"line {lineno}: vertex count must be positive")
            if max_n is not None and n > max_n:
                raise DimacsError(
                    f"line {lineno}: n={n} exceeds the cap {max_n} "
                    f"(raise it with --max-n if you have the RAM)")
            g = Graph(n)
        elif fields[0] == "a":
            if g is None:
                raise DimacsError(f"line {lineno}: arc before problem line")
            if not (len(fields) == 4 and fields[1].isdigit() and fields[2].isdigit()
                    and fields[3].removeprefix("-").isdigit()):
                raise DimacsError(f"line {lineno}: malformed arc line {line!r}")
            try:
                u, v, w = int(fields[1]), int(fields[2]), int(fields[3])
            except ValueError:  # more digits than int() converts
                raise DimacsError(f"line {lineno}: malformed arc line {line!r}") from None
            if not (1 <= u <= g.n_original and 1 <= v <= g.n_original):
                raise DimacsError(f"line {lineno}: arc ({u},{v}) references id > {g.n_original}")
            if w < 0:
                raise DimacsError(f"line {lineno}: negative weight {w}")
            if w > MAX_WEIGHT:
                raise DimacsError(f"line {lineno}: weight {w} exceeds {MAX_WEIGHT}")
            if u == v:
                continue
            cur = g.adj[u].get(v)
            if cur is None or w < cur:
                g.set_edge(u, v, w)
        else:
            raise DimacsError(f"line {lineno}: unrecognized line {line!r}")
    if g is None:
        raise DimacsError("no problem line found")
    return g


def write_dimacs(g: Graph) -> str:
    """The graph as DIMACS text; each undirected edge becomes two arc lines,
    ascending (u, v).  Round-trips through parse_dimacs for fully-present
    graphs."""
    chunks = [
        "c graphshrink export\n",
        f"p sp {g.n_original} {2 * g.m}\n",
    ]
    for u, v, w in g.edges():
        chunks.append(f"a {u} {v} {w}\n")
        chunks.append(f"a {v} {u} {w}\n")
    return "".join(chunks)
