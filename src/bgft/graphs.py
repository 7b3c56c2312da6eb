"""Directed weighted graphs: canonical generators and file I/O.

Adjacency is stored dense (experiments stay at a few hundred nodes, and dense
storage keeps the linear algebra uniform).  Iterated P x is the one place
where sparsity pays: markov.TransitionOperator.apply runs a sparse P through
a cached row view of its nonzeros.  A_{ij} is the weight of edge i -> j;
weights are nonnegative reals.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import islice
from operator import index

import numpy as np

from .errors import BgftError, EdgeListParseError, InvalidNodeError, InvalidSizeError
from .linalg import as_array

# Largest node count of a generated graph or a graph file.  The adjacency is
# dense float64, so 4096 nodes is 128 MB; the generators and loaders check
# this before they allocate it.
MAX_NODES = 4096

# Body lines per np.loadtxt call of the bulk edge-list parser: large enough
# that the per-call cost is small, small enough that a chunk (about 0.2 MB
# at 1024 lines) stays well below the adjacency.
BULK_CHUNK_LINES = 1024
_EDGE_DTYPE = np.dtype([("i", np.int64), ("j", np.int64), ("w", np.float64)])
# np.loadtxt record type of one Matrix Market coordinate entry, by field.
_MTX_DTYPES = {
    "real": _EDGE_DTYPE,
    "double": _EDGE_DTYPE,
    "integer": np.dtype([("i", np.int64), ("j", np.int64), ("w", np.int64)]),
    "pattern": np.dtype([("i", np.int64), ("j", np.int64)]),
}


@dataclass(frozen=True)
class DirectedGraph:
    """Weighted digraph with dense nonnegative adjacency."""

    adjacency: np.ndarray

    def __post_init__(self):
        if np.iscomplexobj(self.adjacency):
            raise ValueError("adjacency entries must be real")
        a = as_array(self.adjacency, 2, "adjacency")
        if a.shape[0] != a.shape[1]:
            raise ValueError(f"adjacency must be square, got {a.shape}")
        if np.any(a < 0):
            raise ValueError("adjacency entries must be nonnegative")
        object.__setattr__(self, "adjacency", a)

    @property
    def n(self) -> int:
        return self.adjacency.shape[0]


def undirected_cycle(n: int) -> DirectedGraph:
    """Cycle with unit reciprocal edges i <-> i+1 (mod n)."""
    a = directed_cycle(n).adjacency
    return DirectedGraph(a + a.T)


def directed_cycle(n: int) -> DirectedGraph:
    """Cycle with unit one-way edges i -> i+1 (mod n).  n is an integer of
    any type, numpy's too; InvalidSizeError for any other n."""
    try:
        n = index(n)
    except TypeError:
        raise InvalidSizeError(f"cycle needs an integer n, got {n!r}")
    if not 3 <= n <= MAX_NODES:
        raise InvalidSizeError(f"cycle needs 3 <= n <= MAX_NODES={MAX_NODES}, got {n}")
    a = np.zeros((n, n))
    for i in range(n):
        a[i, (i + 1) % n] = 1.0
    return DirectedGraph(a)


def add_directed_chord(g: DirectedGraph, eps: float, i: int, j: int) -> DirectedGraph:
    """Return a copy of g with weight eps added onto edge i -> j.  i and j
    are integers of any type, numpy's too; InvalidNodeError for any other."""
    try:
        i, j = index(i), index(j)
    except TypeError:
        raise InvalidNodeError(f"chord endpoints must be integers, got ({i!r}, {j!r})")
    n = g.n
    if not (0 <= i < n) or not (0 <= j < n):
        raise InvalidNodeError(f"chord endpoints ({i}, {j}) out of range for n={n}")
    if i == j:
        raise InvalidNodeError("chord endpoints must differ")
    if not (np.isfinite(eps) and eps >= 0):
        raise ValueError(f"chord weight must be finite and >= 0, got {eps}")
    a = g.adjacency.copy()
    a[i, j] += eps
    return DirectedGraph(a)


def out_degrees(g: DirectedGraph) -> np.ndarray:
    """Row sums d_i = sum_j A_{ij}.  Zero entries are allowed here; building
    a transition operator from them is what fails (SinkNodeError there)."""
    return g.adjacency.sum(axis=1)


def save_edge_list(g: DirectedGraph, path) -> None:
    """Write one `src dst weight` triple per line, 0-indexed.

    Weights are written with repr() so the save -> load round trip is
    bit-exact for any float weight.
    """
    with open(path, "w") as fh:
        fh.write(f"# nodes {g.n}\n")
        rows, cols = np.nonzero(g.adjacency)
        for i, j in zip(rows, cols):
            fh.write(f"{i} {j} {float(g.adjacency[i, j])!r}\n")


def load_edge_list(path) -> DirectedGraph:
    """Read the edge-list format written by save_edge_list.

    Lines are `src dst weight` (weight optional, default 1.0); `#` starts a
    comment.  A `# nodes N` header pins the node count, and every node index
    must be below it; otherwise the count is 1 + max node index seen.  Either
    way the count is at most MAX_NODES.  Repeated edges are summed in file
    order, and a sum past the float64 maximum is an EdgeListParseError at
    the line that made it.

    A file whose first line is the header, as save_edge_list writes it, is
    parsed in bulk (_load_edge_list_bulk).  Any other file, and any file the
    bulk parser does not accept in full, is read line by line
    (_load_edge_list_strict), so the adjacency and every EdgeListParseError,
    message and line number included, are the same either way.
    """
    a = _load_edge_list_bulk(path)
    if a is None:
        return _load_edge_list_strict(path)
    return DirectedGraph(a)


def _load_edge_list_bulk(path) -> np.ndarray | None:
    """Adjacency of a file that starts with a valid `# nodes N` header and
    whose other lines are blank or `src dst weight` with indices in [0, N)
    and finite weights >= 0; None for any other file.

    The body goes through _add_entries, which reads it in chunks.  Its
    np.loadtxt rules are not the line parser's, so this returns None on
    anything it does not check in full: any error or warning from np.loadtxt
    (with comments=None, a token holding `#`, as in a comment or a second
    header; 2- and 4-token lines, `1_0`, `3.0` as an index, indices past
    int64), and an index or weight out of range.  np.add.at sums repeated
    edges in file order, as the line parser does, so the two agree bit for
    bit.
    """
    with open(path) as fh:
        try:
            n = _header_node_count(fh.readline())
            if n is None:
                return None
            a = np.zeros((n, n))
            _add_entries(a, fh, _EDGE_DTYPE, 0)
        except (ValueError, Warning):  # UnicodeDecodeError is a ValueError
            return None
    return a


def _add_entries(a, fh, dtype, offset: int, symmetric: bool = False) -> int:
    """Sum the `i j [w]` lines left in fh into the N x N adjacency a and
    return how many entries were read.

    Lines are read BULK_CHUNK_LINES at a time and parsed by np.loadtxt into
    records of dtype (fields i, j and, unless every weight is 1, w), so
    memory beyond a stays bounded.  Indices run from offset to N - 1 +
    offset; with symmetric, each off-diagonal entry is added at (j, i) too.
    Raises ValueError for an index out of range, a weight that is not finite
    and >= 0, repeated weights whose sum is not finite, or a line np.loadtxt
    refuses, and turns np.loadtxt's warnings into errors; a may then hold
    part of the file.
    """
    n = a.shape[0]
    count = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        while lines := list(islice(fh, BULK_CHUNK_LINES)):
            if not any(map(str.strip, lines)):  # np.loadtxt warns on no data
                continue
            e = np.loadtxt(lines, dtype=dtype, comments=None, ndmin=1)
            # An index of int64's minimum wraps to its maximum here: >= n.
            i, j = e["i"] - offset, e["j"] - offset
            w = e["w"] if "w" in dtype.names else np.ones(len(e))
            if not np.all((i >= 0) & (i < n) & (j >= 0) & (j < n)):
                raise ValueError(f"node index outside {offset}..{n - 1 + offset}")
            if not np.all(np.isfinite(w)):
                raise ValueError("adjacency entries must be finite")
            if np.any(w < 0):
                raise ValueError("adjacency entries must be nonnegative")
            with np.errstate(over="ignore"):
                np.add.at(a, (i, j), w)
                if symmetric:
                    off = i != j
                    np.add.at(a, (j[off], i[off]), w[off])
            # Each weight is finite, so only an entry added to can overflow;
            # a mirrored entry holds the same sum as its twin at (i, j).
            if not np.all(np.isfinite(a[i, j])):
                raise ValueError("a summed weight is not finite")
            count += len(e)
    return count


def _header_node_count(line: str) -> int | None:
    """N of a `# nodes N` line, None for a line that is no such header.
    Raises ValueError if N is not an integer in 1..MAX_NODES."""
    parts = line.strip()[1:].split()
    if not line.lstrip().startswith("#") or len(parts) != 2 or parts[0] != "nodes":
        return None
    try:
        nodes = int(parts[1])
    except ValueError:
        raise ValueError("bad node count")
    if not 1 <= nodes <= MAX_NODES:
        raise ValueError(f"node count {nodes} outside 1..MAX_NODES={MAX_NODES}")
    return nodes


def _load_edge_list_strict(path) -> DirectedGraph:
    """The line-by-line reader of load_edge_list's format, and the source of
    all its EdgeListParseErrors."""
    weights = {}  # (i, j) -> summed weight, summed in file order
    nodes = None  # from the `# nodes N` header
    top = 0  # 1 + largest node index seen
    with open(path) as fh:
        for lineno, raw in numbered_lines(fh, lambda msg: EdgeListParseError(path, 0, msg)):
            line = raw.strip()
            if line.startswith("#"):
                try:
                    header = _header_node_count(line)
                except ValueError as e:
                    raise EdgeListParseError(path, lineno, str(e))
                if header is not None:
                    nodes = header
                    if top > nodes:
                        raise EdgeListParseError(
                            path, lineno, f"node index {top - 1} >= node count {nodes}"
                        )
                continue
            if not line:
                continue
            parts = line.split()
            if len(parts) not in (2, 3):
                raise EdgeListParseError(
                    path, lineno, f"expected 'src dst [weight]', got {line!r}"
                )
            try:
                i, j = int(parts[0]), int(parts[1])
                w = float(parts[2]) if len(parts) == 3 else 1.0
            except ValueError:
                raise EdgeListParseError(path, lineno, f"could not parse {line!r}")
            if i < 0 or j < 0:
                raise EdgeListParseError(path, lineno, "negative node index")
            if nodes is not None and max(i, j) >= nodes:
                raise EdgeListParseError(
                    path, lineno, f"node index {max(i, j)} >= node count {nodes}"
                )
            if max(i, j) >= MAX_NODES:
                raise EdgeListParseError(
                    path, lineno, f"node index {max(i, j)} >= MAX_NODES={MAX_NODES}"
                )
            if w < 0 or not np.isfinite(w):
                raise EdgeListParseError(path, lineno, f"bad weight {w!r}")
            weights[i, j] = weights.get((i, j), 0.0) + w
            if not np.isfinite(weights[i, j]):
                raise EdgeListParseError(
                    path, lineno, f"summed weight of edge {i} -> {j} is not finite"
                )
            top = max(top, i + 1, j + 1)
    n = top if nodes is None else nodes
    if n == 0:
        raise EdgeListParseError(path, 0, "empty graph file")
    a = np.zeros((n, n))
    for (i, j), w in weights.items():
        a[i, j] = w
    return DirectedGraph(a)


def numbered_lines(fh, refuse):
    """enumerate(fh, start=1) over a text file, but a byte that fh's
    encoding cannot decode raises refuse(message), which names the file;
    a UnicodeDecodeError would not."""
    try:
        yield from enumerate(fh, start=1)
    except UnicodeDecodeError as exc:
        raise refuse(_not_text(exc)) from None


def _not_text(exc: UnicodeDecodeError) -> str:
    """The refusal of an undecodable file, the same wherever it is read; the
    decoder's own message counts its position from the start of its current
    chunk, not of the file."""
    return f"not {exc.encoding} text ({exc.reason})"


def load_matrix_market(path) -> DirectedGraph:
    """Read a Matrix Market coordinate file as a digraph of at most
    MAX_NODES nodes: the entry in row i, column j (1-based) is the weight of
    edge i-1 -> j-1.

    The banner must name the coordinate format, a real, double, integer or
    pattern field (a pattern entry weighs 1) and general or symmetric
    symmetry (each off-diagonal entry is mirrored).  `%` comment lines may
    precede the `rows cols nnz` size line.  The entries go through the
    edge-list bulk parser's chunked reader (_add_entries), with indices from
    1, and repeated entries are summed in file order.  Every refusal is an
    EdgeListParseError at line 0: a complex, array, hermitian or
    skew-symmetric file, a non-square size or one above MAX_NODES (checked
    before the adjacency is allocated), an index outside 1..N, an entry
    count other than nnz, a token np.loadtxt refuses, a negative or
    non-finite entry, repeated entries whose sum is not finite, and a byte
    the text decoder refuses (worded as numbered_lines words it).
    """
    with open(path) as fh:
        try:
            n, nnz, dtype, symmetric = _mtx_header(fh)
            a = np.zeros((n, n))
            count = _add_entries(a, fh, dtype, 1, symmetric)
            if count != nnz:
                raise ValueError(f"size line gives {nnz} entries, file has {count}")
            return DirectedGraph(a)
        except UnicodeDecodeError as exc:
            raise EdgeListParseError(path, 0, _not_text(exc)) from None
        except (ValueError, Warning) as exc:
            raise EdgeListParseError(path, 0, str(exc)) from None


def _mtx_header(fh) -> tuple[int, int, np.dtype, bool]:
    """(N, nnz, entry dtype, symmetric) from the banner, comment lines and
    size line of a Matrix Market file, leaving fh at the first entry;
    ValueError for a header that load_matrix_market refuses."""
    banner = fh.readline().split()
    if len(banner) != 5 or [t.lower() for t in banner[:2]] != ["%%matrixmarket", "matrix"]:
        raise ValueError("not a readable Matrix Market file: no '%%MatrixMarket matrix' banner")
    fmt, field, symmetry = (t.lower() for t in banner[2:])
    if field == "complex":
        raise ValueError("complex entries are not supported")
    for value, supported, what in ((fmt, ("coordinate",), "format"),
                                   (field, _MTX_DTYPES, "field"),
                                   (symmetry, ("general", "symmetric"), "symmetry")):
        if value not in supported:
            raise ValueError(f"{value} {what} is not supported")
    line = fh.readline()
    while line.startswith("%") or (line and not line.strip()):
        line = fh.readline()
    sizes = line.split()
    if len(sizes) != 3 or not all(t.isdecimal() for t in sizes):
        raise ValueError(f"not a readable Matrix Market file: bad size line {line!r}")
    rows, cols, nnz = map(int, sizes)
    if rows != cols:
        raise ValueError(f"adjacency must be square, got {(rows, cols)}")
    if rows > MAX_NODES:
        raise ValueError(f"node count {rows} > MAX_NODES={MAX_NODES}")
    return rows, nnz, _MTX_DTYPES[field], symmetry == "symmetric"


def load_graph(path) -> DirectedGraph:
    """Dispatch on extension: .mtx is Matrix Market, anything else edge list.
    A file that cannot be opened or read is a BgftError either way."""
    load = load_matrix_market if str(path).endswith(".mtx") else load_edge_list
    try:
        return load(path)
    except OSError as exc:
        raise BgftError(f"cannot read graph file {path}: {exc.strerror or exc}")
