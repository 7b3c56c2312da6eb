"""Directed weighted graphs: canonical generators and file I/O.

Adjacency is stored dense (experiments stay at a few hundred nodes, and dense
storage keeps the linear algebra uniform).  A_{ij} is the weight of edge
i -> j; weights are nonnegative reals.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import islice

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
    """Cycle with unit one-way edges i -> i+1 (mod n)."""
    if not 3 <= n <= MAX_NODES:
        raise InvalidSizeError(f"cycle needs 3 <= n <= MAX_NODES={MAX_NODES}, got {n}")
    a = np.zeros((n, n))
    for i in range(n):
        a[i, (i + 1) % n] = 1.0
    return DirectedGraph(a)


def add_directed_chord(g: DirectedGraph, eps: float, i: int, j: int) -> DirectedGraph:
    """Return a copy of g with weight eps added onto edge i -> j."""
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
    order.

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

    The body is read BULK_CHUNK_LINES lines at a time, so memory beyond the
    N x N adjacency stays bounded.  np.loadtxt's rules are not the line
    parser's, so this returns None on anything it does not check in full:
    any error or warning from np.loadtxt (with comments=None, a token holding
    `#`, as in a comment or a second header; 2- and 4-token lines, `1_0`,
    `3.0` as an index, indices past int64), and an index or weight out of
    range.  np.add.at sums repeated edges in file order, as the line parser
    does, so the two agree bit for bit.
    """
    with open(path) as fh:
        try:
            n = _header_node_count(fh.readline())
            if n is None:
                return None
            a = np.zeros((n, n))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                while lines := list(islice(fh, BULK_CHUNK_LINES)):
                    e = np.loadtxt(lines, dtype=_EDGE_DTYPE, comments=None, ndmin=1)
                    i, j, w = e["i"], e["j"], e["w"]
                    if not (np.all((i >= 0) & (i < n) & (j >= 0) & (j < n))
                            and np.all(np.isfinite(w) & (w >= 0))):
                        return None
                    np.add.at(a, (i, j), w)
        except (ValueError, Warning):  # UnicodeDecodeError is a ValueError
            return None
    return a


def _header_node_count(line: str) -> int | None:
    """N of a `# nodes N` line with 1 <= N <= MAX_NODES, else None."""
    line = line.strip()
    if not line.startswith("#"):
        return None
    parts = line[1:].split()
    if len(parts) != 2 or parts[0] != "nodes":
        return None
    try:
        nodes = int(parts[1])
    except ValueError:
        return None
    return nodes if 1 <= nodes <= MAX_NODES else None


def _load_edge_list_strict(path) -> DirectedGraph:
    """The line-by-line reader of load_edge_list's format, and the source of
    all its EdgeListParseErrors."""
    weights = {}  # (i, j) -> summed weight, summed in file order
    nodes = None  # from the `# nodes N` header
    top = 0  # 1 + largest node index seen
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if line.startswith("#"):
                parts = line[1:].split()
                if len(parts) == 2 and parts[0] == "nodes":
                    try:
                        nodes = int(parts[1])
                    except ValueError:
                        raise EdgeListParseError(path, lineno, "bad node count")
                    if not 1 <= nodes <= MAX_NODES:
                        raise EdgeListParseError(
                            path, lineno,
                            f"node count {nodes} outside 1..MAX_NODES={MAX_NODES}",
                        )
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
            top = max(top, i + 1, j + 1)
    n = top if nodes is None else nodes
    if n == 0:
        raise EdgeListParseError(path, 0, "empty graph file")
    a = np.zeros((n, n))
    for (i, j), w in weights.items():
        a[i, j] = w
    return DirectedGraph(a)


def load_matrix_market(path) -> DirectedGraph:
    """Read a Matrix Market coordinate file (general, real) as a digraph of
    at most MAX_NODES nodes."""
    import scipy.io

    try:
        m = scipy.io.mmread(path)
    except Exception as exc:
        raise EdgeListParseError(path, 0, f"not a readable Matrix Market file: {exc}")
    if np.iscomplexobj(m):
        raise EdgeListParseError(path, 0, "complex entries are not supported")
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise EdgeListParseError(path, 0, f"adjacency must be square, got {m.shape}")
    if m.shape[0] > MAX_NODES:
        raise EdgeListParseError(
            path, 0, f"node count {m.shape[0]} > MAX_NODES={MAX_NODES}"
        )
    try:
        return DirectedGraph(m.todense() if hasattr(m, "todense") else m)
    except ValueError as exc:
        raise EdgeListParseError(path, 0, str(exc))


def load_graph(path) -> DirectedGraph:
    """Dispatch on extension: .mtx is Matrix Market, anything else edge list."""
    if str(path).endswith(".mtx"):
        return load_matrix_market(path)
    try:
        return load_edge_list(path)
    except OSError as exc:
        raise BgftError(f"cannot read graph file {path}: {exc.strerror or exc}")
