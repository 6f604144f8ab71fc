"""Text formats: edge lists, graph6, and facet lists.

Edge list: first line "n m", then m lines "u v" with 0 <= u < v < n.
Facet list: first line "n k", then k lines, each a strictly increasing
vertex list.  graph6 follows the published byte encoding: N(n) then the
upper triangle read column by column, packed big-endian into 6-bit groups,
each offset by 63.  Parsers are strict and report 1-based line numbers.
A declared vertex count above VERTEX_LIMIT is a parse error, raised before
any adjacency row is built: each row is an n-bit integer, so a huge n
would cost quadratic time and memory before anything is checked.  A facet
of dimension above DIMENSION_CAP is a parse error too, with its line
number, so it fails only its own file in a corpus run.

The edge and facet lists share one header reader.  The graph parsers
build the bitmask adjacency rows directly.  An edge list sets the two bits
of each edge as it is read (a bit already set is a duplicate edge).  A
graph6 body is written and read by the triangle codec that canonical keys
use too: `kernels.triangle_bits` writes it, and `kernels.rows_of_triangle`
reads it back from one integer whose bit k is the body's k-th bit, made
by joining the body's 6-bit groups in reverse order, each reversed.  Both
sets of rows are symmetric, irreflexive and in range once these checks
pass, so the graph is built without the constructor's scan.  Likewise
each line of a facet list is checked into a sorted, in-range facet under
DIMENSION_CAP, and the list is reduced once, by
`SimplicialComplex._of_facets`, without `from_facets`'s second pass.
"""

from .complexes import DIMENSION_CAP, EDGE_LIMIT, VERTEX_LIMIT, SimplicialComplex
from .errors import InvalidComplex, InvalidParameter, ParseError
from .graphs import Graph
from .kernels import rows_of_triangle, triangle_bits


def _ints(line, count, path, line_no, what):
    tokens = line.split()
    if len(tokens) != count:
        raise ParseError(
            f"expected {count} {what} fields, got {len(tokens)}", path=path, line=line_no
        )
    try:
        return [int(t) for t in tokens]
    except ValueError:
        raise ParseError(f"non-integer {what} field", path=path, line=line_no) from None


def _check_vertex_count(n, path, line_no):
    if n > VERTEX_LIMIT:
        raise ParseError(
            f"declares {n} vertices, over the vertex limit {VERTEX_LIMIT}", path=path, line=line_no
        )


def _counted_lines(text, path, what):
    """Check the "n m" header and that m lines follow it, blank ones dropped;
    return n and those (line number, stripped line) pairs.  what ("edge" or
    "facet") names the lines in the messages."""
    content = [(no, ln) for no, ln in enumerate(map(str.strip, text.splitlines()), 1) if ln]
    if not content:
        raise ParseError(f"empty {what}-list input", path=path, line=1)
    head_no, head = content[0]
    n, m = _ints(head, 2, path, head_no, "header")
    if n < 0 or m < 0:
        raise ParseError("negative counts in header", path=path, line=head_no)
    _check_vertex_count(n, path, head_no)
    if len(content) - 1 != m:
        raise ParseError(
            f"header promises {m} {what}s but {len(content) - 1} {what} lines follow",
            path=path,
            line=head_no,
        )
    return n, content[1:]


def parse_edge_list(text, path=None):
    n, lines = _counted_lines(text, path, "edge")
    rows = [0] * n
    for no, ln in lines:
        try:
            u, v = map(int, ln.split())
        except ValueError:  # _ints raises the ParseError that names the bad count or field
            u, v = _ints(ln, 2, path, no, "edge")
        if not (0 <= u < v < n):
            raise ParseError(f"edge ({u}, {v}) violates 0 <= u < v < n={n}", path=path, line=no)
        if (rows[u] >> v) & 1:
            raise ParseError(f"duplicate edge ({u}, {v})", path=path, line=no)
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph._of_rows(n, tuple(rows))


def dump_edge_list(g):
    lines = [f"{g.n} {g.edge_count}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def check_graph6_size(n):
    """Raise InvalidParameter when the graph6 body of an n-vertex graph, one
    bit per vertex pair, would hold more than EDGE_LIMIT bits."""
    pairs = n * (n - 1) // 2
    if pairs > EDGE_LIMIT:
        raise InvalidParameter(f"graph6 needs {pairs} bits for n={n}, over the edge limit {EDGE_LIMIT}")


def dump_graph6(g):
    """The graph6 string of g; one over the edge limit is refused by
    check_graph6_size before any bit is written."""
    check_graph6_size(g.n)
    if g.n <= 62:
        head = chr(g.n + 63)
    else:
        head = chr(126) + "".join(chr(((g.n >> k) & 63) + 63) for k in (12, 6, 0))
    bits = triangle_bits(g.masks, g.n)
    bits += "0" * (-len(bits) % 6)
    body = "".join(chr(63 + int(bits[k:k + 6], 2)) for k in range(0, len(bits), 6))
    return head + body


# each body byte's six bits, last bit first
_G6_REVERSED = {chr(63 + code): format(code, "06b")[::-1] for code in range(64)}


def parse_graph6_line(line, path=None, line_no=None):
    s = line.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise ParseError("empty graph6 line", path=path, line=line_no)
    if min(s) < "?" or max(s) > "~":
        ch = next(ch for ch in s if not "?" <= ch <= "~")
        raise ParseError(f"byte {ord(ch)} outside graph6 range", path=path, line=line_no)
    if s[0] != "~":
        n, body = ord(s[0]) - 63, s[1:]
    else:
        if len(s) < 4 or s[1] == "~":
            raise ParseError("bad graph6 size header", path=path, line=line_no)
        n = (ord(s[1]) - 63) << 12 | (ord(s[2]) - 63) << 6 | (ord(s[3]) - 63)
        body = s[4:]
    _check_vertex_count(n, path, line_no)
    need = n * (n - 1) // 2
    if len(body) != (need + 5) // 6:
        raise ParseError(
            f"graph6 body has {len(body)} groups, expected {(need + 5) // 6} for n={n}",
            path=path,
            line=line_no,
        )
    # the body's bits in reverse order, so the padding bits lead
    reverse = "".join(map(_G6_REVERSED.__getitem__, reversed(body)))
    if "1" in reverse[:len(reverse) - need]:
        raise ParseError("nonzero padding bits in graph6 body", path=path, line=line_no)
    return Graph._of_rows(n, tuple(rows_of_triangle(int(reverse or "0", 2), n)))


def parse_facet_list(text, path=None):
    n, lines = _counted_lines(text, path, "facet")
    facets = []
    for no, ln in lines:
        try:
            vs = tuple(map(int, ln.split()))
        except ValueError:
            raise ParseError("non-integer facet field", path=path, line=no) from None
        if min(vs) < 0 or max(vs) >= n:
            raise ParseError(f"facet vertex outside 0..{n - 1}", path=path, line=no)
        if any(map(int.__ge__, vs, vs[1:])):
            raise ParseError("facet vertices must be strictly increasing", path=path, line=no)
        if len(vs) - 1 > DIMENSION_CAP:
            raise ParseError(
                f"facet of dimension {len(vs) - 1} exceeds cap {DIMENSION_CAP}", path=path, line=no
            )
        facets.append(vs)
    del lines  # freed before the reduction builds its rows
    return SimplicialComplex._of_facets(n, facets)


def dump_facet_list(k):
    # the empty facet would dump as a blank line and vanish on re-parse
    if any(facet == () for facet in k.facets):
        raise InvalidComplex("facet lists cannot represent the empty facet")
    lines = [f"{k.n} {len(k.facets)}"]
    lines.extend(" ".join(str(v) for v in facet) for facet in k.facets)
    return "\n".join(lines) + "\n"


def _read_ascii(path):
    """The file's text; the bytes are kept only to locate a non-ASCII one."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read: {exc}", path=str(path)) from None
    try:
        return data.decode("ascii")
    except UnicodeDecodeError as exc:
        # its line as the parsers count them, by str.splitlines
        line = len((data[:exc.start].decode("ascii") + ".").splitlines())
        raise ParseError(f"byte 0x{data[exc.start]:02x} is not ASCII", path=str(path),
                         line=line) from None


def load_instances(path):
    """Parse a file into a list of (instance id, Graph or SimplicialComplex).

    Dispatch is by extension: .g6 holds one graph6 graph per line, .facets
    one facet list, anything else one edge list.  IO failures and bytes
    outside ASCII are reported as ParseError so corpus runs can isolate them
    per file.
    """
    text = _read_ascii(path)
    name = str(path)
    if name.endswith(".g6"):
        out = []
        for i, line in enumerate(text.splitlines()):
            if line.strip():
                out.append((f"{name}:{i + 1}", parse_graph6_line(line, path=name, line_no=i + 1)))
        if not out:
            raise ParseError("no graph6 lines found", path=name, line=1)
        return out
    if name.endswith(".facets"):
        return [(name, parse_facet_list(text, path=name))]
    return [(name, parse_edge_list(text, path=name))]
