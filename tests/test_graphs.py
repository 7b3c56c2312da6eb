import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

import bgft
from bgft import graphs
from bgft.errors import BgftError, EdgeListParseError, InvalidNodeError, InvalidSizeError


class TestGenerators:
    def test_undirected_3cycle(self):
        a = bgft.undirected_cycle(3).adjacency
        assert a.sum() == 6
        assert_allclose(a, a.T)

    def test_undirected_4cycle_row_sums(self):
        a = bgft.undirected_cycle(4).adjacency
        assert_allclose(a, a.T)
        assert_allclose(a.sum(axis=1), 2 * np.ones(4))

    def test_undirected_64_alpha_zero(self):
        p = bgft.transition(bgft.undirected_cycle(64)).p
        assert bgft.asymmetry_index(p) == 0.0

    def test_directed_4cycle_is_permutation(self):
        a = bgft.directed_cycle(4).adjacency
        expected = np.zeros((4, 4))
        for i in range(4):
            expected[i, (i + 1) % 4] = 1
        assert_allclose(a, expected)

    def test_directed_64_delta_zero_alpha_sqrt2(self):
        p = bgft.transition(bgft.directed_cycle(64)).p
        assert bgft.departure_from_normality(p) <= 1e-15
        assert bgft.asymmetry_index(p) == pytest.approx(np.sqrt(2), abs=1e-14)

    def test_no_reciprocal_edges(self):
        a = bgft.directed_cycle(10).adjacency
        assert np.all(a * a.T == 0)

    def test_too_small_raises(self):
        with pytest.raises(InvalidSizeError):
            bgft.directed_cycle(2)
        with pytest.raises(InvalidSizeError):
            bgft.undirected_cycle(1)

    @pytest.mark.parametrize("gen", [bgft.directed_cycle, bgft.undirected_cycle])
    def test_node_cap(self, gen):
        with pytest.raises(InvalidSizeError, match="MAX_NODES"):
            gen(bgft.graphs.MAX_NODES + 1)

    @pytest.mark.parametrize("gen", [bgft.directed_cycle, bgft.undirected_cycle])
    @pytest.mark.parametrize("n", [5.0, "5", None])
    def test_non_integer_size_refused(self, gen, n):
        with pytest.raises(InvalidSizeError, match="cycle needs an integer n"):
            gen(n)

    def test_numpy_integer_size(self):
        assert np.array_equal(bgft.directed_cycle(np.int64(5)).adjacency,
                              bgft.directed_cycle(5).adjacency)

    def test_deterministic(self):
        assert np.array_equal(
            bgft.directed_cycle(9).adjacency, bgft.directed_cycle(9).adjacency
        )


class TestChord:
    def test_table1_graph(self):
        g = bgft.add_directed_chord(bgft.directed_cycle(64), 20, 0, 32)
        assert g.adjacency[0, 32] == 20.0
        assert g.adjacency[0, 1] == 1.0

    def test_eps_zero_unchanged(self):
        g = bgft.directed_cycle(8)
        g2 = bgft.add_directed_chord(g, 0.0, 0, 4)
        assert_allclose(g.adjacency, g2.adjacency)

    def test_additive_semantics_and_normalization(self):
        # row 0 weights become (0, 1, 1, 0), so P row 0 is (0, .5, .5, 0)
        g = bgft.add_directed_chord(bgft.directed_cycle(4), 1.0, 0, 2)
        p = bgft.transition(g).p
        assert_allclose(p[0], [0, 0.5, 0.5, 0])

    def test_original_not_mutated(self):
        g = bgft.directed_cycle(6)
        bgft.add_directed_chord(g, 5.0, 0, 3)
        assert g.adjacency[0, 3] == 0.0

    def test_invalid_nodes(self):
        g = bgft.directed_cycle(4)
        with pytest.raises(InvalidNodeError):
            bgft.add_directed_chord(g, 1.0, 0, 7)
        with pytest.raises(InvalidNodeError):
            bgft.add_directed_chord(g, 1.0, 2, 2)

    @pytest.mark.parametrize("i,j", [(0.0, 2), (0, 2.0), (None, 2)])
    def test_non_integer_nodes_refused(self, i, j):
        with pytest.raises(InvalidNodeError, match="chord endpoints must be integers"):
            bgft.add_directed_chord(bgft.directed_cycle(4), 1.0, i, j)

    def test_numpy_integer_nodes(self):
        g = bgft.add_directed_chord(bgft.directed_cycle(4), 1.0, np.int64(0), np.uint8(2))
        assert g.adjacency[0, 2] == 1.0


class TestOutDegrees:
    def test_cycle_degrees(self):
        assert_allclose(bgft.out_degrees(bgft.undirected_cycle(5)), 2 * np.ones(5))
        assert_allclose(bgft.out_degrees(bgft.directed_cycle(5)), np.ones(5))


class TestFileIO:
    def test_round_trip(self, tmp_path):
        g = bgft.directed_cycle(5)
        path = tmp_path / "g.edges"
        bgft.save_edge_list(g, path)
        assert np.array_equal(bgft.load_edge_list(path).adjacency, g.adjacency)

    def test_round_trip_bit_exact_weights(self, tmp_path):
        rng = np.random.default_rng(0)
        a = rng.random((6, 6))
        g = bgft.DirectedGraph(a)
        path = tmp_path / "g.edges"
        bgft.save_edge_list(g, path)
        assert np.array_equal(bgft.load_edge_list(path).adjacency, a)

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.edges"
        path.write_text("0 1 1.0\na b\n")
        with pytest.raises(EdgeListParseError) as exc:
            bgft.load_edge_list(path)
        assert exc.value.line_number == 2

    def test_comments_and_defaults(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("# nodes 4\n# a comment\n0 1\n1 2 2.5\n2 0\n3 0\n")
        g = bgft.load_edge_list(path)
        assert g.n == 4
        assert g.adjacency[1, 2] == 2.5
        assert g.adjacency[0, 1] == 1.0

    def test_matrix_market_3cycle(self, tmp_path):
        path = tmp_path / "c3.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            "3 3 3\n1 2 1.0\n2 3 1.0\n3 1 1.0\n"
        )
        g = bgft.load_matrix_market(path)
        assert np.array_equal(g.adjacency, bgft.directed_cycle(3).adjacency)

    def test_load_graph_dispatch(self, tmp_path):
        g = bgft.directed_cycle(4)
        edge_path = tmp_path / "g.edges"
        bgft.save_edge_list(g, edge_path)
        assert np.array_equal(bgft.load_graph(edge_path).adjacency, g.adjacency)

    @pytest.mark.parametrize("text", ["# nodes 5\n0 1\n7 0\n", "0 1\n7 0\n# nodes 5\n"],
                             ids=["header-first", "header-last"])
    def test_header_pins_node_count(self, tmp_path, text):
        path = tmp_path / "g.edges"
        path.write_text(text)
        with pytest.raises(EdgeListParseError) as exc:
            bgft.load_edge_list(path)
        assert exc.value.line_number == 3

    # Just past the 4096-node cap: refused before the dense allocation.
    @pytest.mark.parametrize("name,text", [
        ("index.edges", "0 5000\n"),
        ("header.edges", "# nodes 5000\n0 1\n1 0\n"),
        ("big.mtx", "%%MatrixMarket matrix coordinate real general\n"
                    "5000 5000 1\n1 2 1.0\n"),
    ], ids=["edge-index", "header", "mtx-shape"])
    def test_node_cap(self, tmp_path, name, text):
        path = tmp_path / name
        path.write_text(text)
        with pytest.raises(EdgeListParseError, match="MAX_NODES"):
            bgft.load_graph(path)

    @pytest.mark.parametrize("entry", ["-1.0", "nan"])
    def test_matrix_market_bad_entry(self, tmp_path, entry):
        path = tmp_path / "bad.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n"
                        f"3 3 3\n1 2 1.0\n2 3 {entry}\n3 1 1.0\n")
        with pytest.raises(EdgeListParseError, match="bad.mtx"):
            bgft.load_matrix_market(path)

    def test_matrix_market_complex_rejected(self, tmp_path):
        # The imaginary parts are not dropped with a warning.
        path = tmp_path / "c.mtx"
        path.write_text("%%MatrixMarket matrix coordinate complex general\n"
                        "3 3 3\n1 2 1.0 0.5\n2 3 1.0 0.0\n3 1 1.0 0.0\n")
        with pytest.raises(EdgeListParseError, match="c.mtx:0: complex entries"):
            bgft.load_matrix_market(path)

    def test_repeated_edges_summed_as_read(self, tmp_path):
        # Memory follows the distinct edges, not the lines of the file.
        path = tmp_path / "g.edges"
        path.write_text("0 1\n1 2\n2 0\n" + "0 1\n" * 20_000)
        tracemalloc.start()
        try:
            g = bgft.load_edge_list(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g.adjacency[0, 1] == 20_001.0
        assert peak < 0.5e6

    def test_bulk_memory_bounded(self, tmp_path):
        # Header first, so the chunked bulk parser reads it.
        path = tmp_path / "g.edges"
        path.write_text("# nodes 2\n" + "0 1 1.0\n" * 200_000)
        assert graphs._load_edge_list_bulk(path) is not None
        tracemalloc.start()
        try:
            g = bgft.load_edge_list(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g.adjacency[0, 1] == 200_000.0
        assert peak < 0.5e6

    def test_header_node_cap_before_allocation(self, tmp_path):
        # 3-token lines, the bulk parser's format: 5000 x 5000 would be 200 MB.
        path = tmp_path / "g.edges"
        path.write_text("# nodes 5000\n0 1 1.0\n1 0 1.0\n")
        tracemalloc.start()
        try:
            with pytest.raises(EdgeListParseError, match="MAX_NODES") as exc:
                bgft.load_edge_list(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert exc.value.line_number == 1
        assert peak < 1e6

    def test_negative_weight_rejected(self, tmp_path):
        path = tmp_path / "bad.edges"
        path.write_text("0 1 -3.0\n")
        with pytest.raises(EdgeListParseError):
            bgft.load_edge_list(path)

    @pytest.mark.parametrize("header", ["# nodes 2\n", ""], ids=["bulk", "line-by-line"])
    def test_summed_weight_overflow(self, tmp_path, header):
        # Each weight is finite; their sum is not.
        path = tmp_path / "sum.edges"
        path.write_text(header + "0 1 1e308\n0 1 1e308\n1 0 1\n")
        line = 3 if header else 2
        with pytest.raises(EdgeListParseError, match=f"sum.edges:{line}: summed weight "
                                                     "of edge 0 -> 1 is not finite"):
            bgft.load_graph(path)


def _field(k, value):
    return lambda tokens: " ".join(tokens[:k] + [value] + tokens[k + 1:])


# One change to one line of a header-first edge list over EQUIV_N nodes.
# Each takes the line's tokens and returns its replacement.
EQUIV_N = 12
MUTATIONS = {
    "weight-nan": _field(2, "nan"),
    "weight-inf": _field(2, "inf"),
    "weight-1e400": _field(2, "1e400"),
    "weight-negative": _field(2, "-0.5"),
    "index-negative": _field(0, "-1"),
    "index-n": _field(1, str(EQUIV_N)),
    "index-underscore": _field(0, "1_0"),
    "index-plus": _field(1, "+3"),
    "index-float": _field(0, "3.0"),
    "index-past-int64": _field(1, "99999999999999999999"),
    "two-tokens": lambda t: " ".join(t[:2]),
    "four-tokens": lambda t: " ".join(t + ["1.0"]),
    "trailing-comment": lambda t: " ".join(t) + " # c",
    "second-header": lambda t: f"# nodes {EQUIV_N}",
    "second-header-smaller": lambda t: "# nodes 3",
    "blank": lambda t: "",
    "whitespace-only": lambda t: " \t ",
    "tabs": lambda t: "\t".join(t),
}


def _edge_list_lines(seed: int) -> list:
    """A header, then 1100 random `i j w` lines with repeated edges: more
    than one bulk chunk."""
    rng = np.random.default_rng(seed)
    i, j = rng.integers(0, EQUIV_N, (2, 1100))
    w = rng.random(1100).tolist()
    return [f"# nodes {EQUIV_N}\n"] + [f"{a} {b} {c!r}\n" for a, b, c in zip(i, j, w)]


def _parse(load, path):
    """The adjacency, or (message, line number) of the EdgeListParseError."""
    try:
        return load(path).adjacency
    except EdgeListParseError as exc:
        return str(exc), exc.line_number


class TestBulkParser:
    def test_base_file_read_in_bulk(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("".join(_edge_list_lines(0)))
        a = graphs._load_edge_list_bulk(path)
        assert a is not None
        assert np.array_equal(a, graphs._load_edge_list_strict(path).adjacency)

    # Line 2 is the first body line; 1025 and 1026 end and start a chunk.
    @pytest.mark.parametrize("line", [2, 1025, 1026])
    @pytest.mark.parametrize("mutation", list(MUTATIONS))
    def test_agrees_with_strict_parser(self, tmp_path, mutation, line):
        lines = _edge_list_lines(line)
        lines[line - 1] = MUTATIONS[mutation](lines[line - 1].split()) + "\n"
        path = tmp_path / "g.edges"
        path.write_text("".join(lines))
        got = _parse(bgft.load_edge_list, path)
        want = _parse(graphs._load_edge_list_strict, path)
        if isinstance(want, tuple):
            assert got == want
        else:
            assert np.array_equal(got, want)


MTX_BANNER = "%%MatrixMarket matrix coordinate real general\n"


def _mmread_adjacency(path) -> np.ndarray:
    """scipy's reading of a Matrix Market file, as a dense float64 array."""
    scipy_io = pytest.importorskip("scipy.io")
    return np.asarray(scipy_io.mmread(path).todense()).astype(float)


class TestMatrixMarket:
    @pytest.mark.parametrize("symmetry", ["general", "symmetric"])
    @pytest.mark.parametrize("field", ["real", "integer", "pattern"])
    def test_matches_mmread(self, tmp_path, field, symmetry):
        scipy_io = pytest.importorskip("scipy.io")
        scipy_sparse = pytest.importorskip("scipy.sparse")
        rng = np.random.default_rng(3)
        a = rng.random((9, 9)) * (rng.random((9, 9)) < 0.4)
        if field == "integer":
            a = np.round(a * 20)
        if symmetry == "symmetric":
            a = a + a.T
        path = tmp_path / "g.mtx"
        scipy_io.mmwrite(str(path), scipy_sparse.coo_matrix(a), field=field, symmetry=symmetry)
        assert f"{field} {symmetry}" in path.read_text().splitlines()[0]
        got = bgft.load_matrix_market(path).adjacency
        assert got.dtype == np.float64
        assert np.array_equal(got, _mmread_adjacency(path))

    def test_comments_and_repeated_entries_match_mmread(self, tmp_path):
        # 0.1 + 0.2 + 0.3 depends on the order of the sum: file order.
        path = tmp_path / "g.mtx"
        path.write_text(MTX_BANNER + "% a comment\n%\n% another\n3 3 7\n"
                        "1 2 0.1\n1 2 0.2\n1 2 0.3\n2 3 1.0\n3 1 1.0\n3 1 2.5\n1 1 0.5\n")
        got = bgft.load_matrix_market(path).adjacency
        assert got[0, 1] == 0.1 + 0.2 + 0.3
        assert np.array_equal(got, _mmread_adjacency(path))

    def test_blank_lines_after_a_full_chunk(self, tmp_path):
        # The last chunk holds blank lines only.
        m = graphs.BULK_CHUNK_LINES
        path = tmp_path / "g.mtx"
        path.write_text(MTX_BANNER + f"2 2 {m}\n" + "1 2 1.0\n2 1 1.0\n" * (m // 2) + "\n\n")
        got = bgft.load_matrix_market(path).adjacency
        assert np.array_equal(got, [[0.0, m / 2], [m / 2, 0.0]])

    @pytest.mark.parametrize("text,message", [
        ("%%MatrixMarket matrix coordinate complex general\n2 2 1\n1 2 1.0 0.0\n",
         "complex entries are not supported"),
        ("%%MatrixMarket matrix array real general\n2 2\n0\n1\n1\n0\n",
         "array format is not supported"),
        ("%%MatrixMarket matrix coordinate real hermitian\n2 2 1\n2 1 1.0\n",
         "hermitian symmetry is not supported"),
        ("%%MatrixMarket matrix coordinate real skew-symmetric\n2 2 1\n2 1 1.0\n",
         "skew-symmetric symmetry is not supported"),
        ("not a Matrix Market file\n", "not a readable Matrix Market file"),
        (MTX_BANNER + "2 2\n1 2 1.0\n", "not a readable Matrix Market file: bad size line"),
        (MTX_BANNER + "2 3 1\n1 2 1.0\n", "adjacency must be square, got (2, 3)"),
        (MTX_BANNER + "3 3 2\n1 2 1.0\n0 1 1.0\n", "node index outside 1..3"),
        (MTX_BANNER + "3 3 2\n1 2 1.0\n3 4 1.0\n", "node index outside 1..3"),
        (MTX_BANNER + "3 3 1\n-9223372036854775808 1 1.0\n", "node index outside 1..3"),
        (MTX_BANNER + "3 3 3\n1 2 1.0\n2 3 1.0\n", "size line gives 3 entries, file has 2"),
        (MTX_BANNER + "3 3 1\n1 2 1.0\n2 3 1.0\n", "size line gives 1 entries, file has 2"),
        (MTX_BANNER + "3 3 1\n1 2 abc\n", "could not convert string 'abc'"),
        (MTX_BANNER + "3 3 1\n1.0 2 1.0\n", "could not convert string '1.0'"),
        (MTX_BANNER + "3 3 1\n1 2\n", "requires 3 columns"),
        (MTX_BANNER + "3 3 2\n1 2 1.0\n% late comment\n", "could not convert"),
        ("%%MatrixMarket matrix coordinate integer general\n3 3 1\n1 2 1.5\n",
         "could not convert string '1.5'"),
        ("%%MatrixMarket matrix coordinate pattern general\n3 3 1\n1 2 1.0\n",
         "requires 2 columns"),
        (MTX_BANNER + "3 3 1\n1 2 -1.0\n", "adjacency entries must be nonnegative"),
        (MTX_BANNER + "3 3 1\n1 2 inf\n", "adjacency entries must be finite"),
    ], ids=["complex", "array", "hermitian", "skew-symmetric", "no-banner", "size-line",
            "non-square", "index-zero", "index-past-n", "index-int64-min", "too-few-entries",
            "too-many-entries", "weight-token", "index-token", "two-tokens", "body-comment",
            "integer-token", "pattern-weight", "negative", "inf"])
    def test_refused(self, tmp_path, text, message):
        path = tmp_path / "bad.mtx"
        path.write_text(text)
        with pytest.raises(EdgeListParseError, match="bad.mtx:0: ") as exc:
            bgft.load_graph(path)
        assert message in str(exc.value)

    @pytest.mark.parametrize("symmetry,body", [
        ("general", "1 2 1e308\n1 2 1e308\n2 1 1\n"),
        ("symmetric", "2 1 1e308\n1 2 1e308\n2 2 1\n"),  # 1 2 adds to the mirror of 2 1
    ], ids=["general", "symmetric"])
    def test_summed_weight_overflow(self, tmp_path, symmetry, body):
        path = tmp_path / "sum.mtx"
        path.write_text(f"%%MatrixMarket matrix coordinate real {symmetry}\n2 2 3\n{body}")
        with pytest.raises(EdgeListParseError, match="sum.mtx:0: a summed weight is not finite"):
            bgft.load_graph(path)

    def test_undecodable_byte_refused(self, tmp_path):
        # 0xff at byte 23 979 of a 3000-entry file, past the decoder's first
        # chunk: refused as the edge-list and signal readers refuse it, with
        # no position counted from the start of a chunk.
        path = tmp_path / "late.mtx"
        path.write_bytes(MTX_BANNER.encode() + b"2 2 3000\n" + b"1 2 1.0\n" * 2990
                         + b"1 2 \xff\n" + b"1 2 1.0\n" * 9)
        assert path.read_bytes().index(b"\xff") == 23979
        with pytest.raises(EdgeListParseError) as exc:
            bgft.load_graph(path)
        assert str(exc.value) == f"{path}:0: not utf-8 text (invalid start byte)"

    def test_node_cap_before_allocation(self, tmp_path):
        # 5000 x 5000 would be 200 MB.
        path = tmp_path / "g.mtx"
        path.write_text(MTX_BANNER + "5000 5000 2\n1 2 1.0\n2 1 1.0\n")
        tracemalloc.start()
        try:
            with pytest.raises(EdgeListParseError,
                               match="g.mtx:0: node count 5000 > MAX_NODES"):
                bgft.load_matrix_market(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6

    def test_memory_bounded(self, tmp_path):
        path = tmp_path / "g.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real symmetric\n"
                        "100 100 200000\n" + "2 1 1.0\n" * 200_000)
        tracemalloc.start()
        try:
            g = bgft.load_matrix_market(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g.adjacency[0, 1] == g.adjacency[1, 0] == 200_000.0
        assert peak < g.adjacency.nbytes + 0.5e6

    @pytest.mark.parametrize("name", ["missing.mtx", "missing.edges", "dir.mtx"])
    def test_unreadable_file(self, tmp_path, name):
        (tmp_path / "dir.mtx").mkdir()
        with pytest.raises(BgftError, match=f"cannot read graph file .*{name}: "):
            bgft.load_graph(tmp_path / name)


class TestConstruction:
    def test_rejects_negative_adjacency(self):
        with pytest.raises(ValueError):
            bgft.DirectedGraph(np.array([[0.0, -1.0], [1.0, 0.0]]))

    def test_rejects_complex_adjacency(self):
        # a float cast would keep weight 1.0 with only a ComplexWarning
        with pytest.raises(ValueError, match="adjacency entries must be real"):
            bgft.DirectedGraph([[0, 1 + 5j, 0], [0, 0, 1], [1, 0, 0]])

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            bgft.DirectedGraph(np.zeros((2, 3)))
