import gzip
import io
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphspring import (GraphFormatError, SignedGraph, SplitSpec,
                         compute_node_statics, dump_graph, hide_signs,
                         load_edge_list, parse_graph_dump, to_undirected)
from graphspring import graphs
from graphspring.graphs import EdgeStage, nearest_rank_percentile

from conftest import toy_graph
from oracles import load_edge_list_by_line, stage_back, to_undirected_by_unique
from test_rng import uniform01_py


# --- loading ---------------------------------------------------------------

def test_rating_csv_takes_sign_of_rating():
    stage = load_edge_list(["7,2,4,1407470400"], "rating_csv")
    assert stage.n_edges == 1
    assert stage.sign[0] == 1
    assert stage.raw_ids[stage.src[0]] == 7 and stage.raw_ids[stage.dst[0]] == 2


def test_rating_csv_negative_rating():
    stage = load_edge_list(["3,9,-10,1407470400"], "rating_csv")
    assert stage.sign[0] == -1


def test_rating_zero_is_an_error():
    with pytest.raises(GraphFormatError, match="line 2"):
        load_edge_list(["1,2,3", "4,5,0"], "rating_csv")


def test_plain_parses_comma_or_whitespace():
    stage = load_edge_list(["1 2 1", "3,4,-1"], "plain")
    assert stage.n_edges == 2
    assert list(stage.sign) == [1, -1]


def test_plain_rejects_bad_sign():
    with pytest.raises(GraphFormatError, match="line 1"):
        load_edge_list(["1 2 5"], "plain")


def test_malformed_line_reports_number():
    with pytest.raises(GraphFormatError, match="line 3"):
        load_edge_list(["1 2 1", "2 3 1", "oops"], "plain")


def test_empty_input_is_an_error():
    with pytest.raises(GraphFormatError, match="empty"):
        load_edge_list(["# only a comment"], "plain")


def test_comments_and_blanks_skipped():
    stage = load_edge_list(["# header", "", "1 2 1"], "plain")
    assert stage.n_edges == 1


def test_ids_remapped_dense_in_first_appearance_order():
    stage = load_edge_list(["100 7 1", "7 250 -1"], "plain")
    assert list(stage.raw_ids) == [100, 7, 250]
    assert list(stage.src) == [0, 1]
    assert list(stage.dst) == [1, 2]


def test_byte_stream_accepted():
    stage = load_edge_list(io.BytesIO(b"1 2 1\n2 3 -1\n"), "plain")
    assert stage.n_edges == 2


@pytest.mark.parametrize("fmt, lines", [
    ("plain", ["1 2 1", "3 1180591620717411303424 -1"]),
    ("plain", ["1 2 1", "-9223372036854775809 5 1"]),
    ("rating_csv", ["1,2,3", "1180591620717411303424,5,2,1407470400"]),
])
def test_ids_beyond_int64_name_the_line(fmt, lines):
    with pytest.raises(GraphFormatError, match="line 2: node id outside the int64 range"):
        load_edge_list(lines, fmt)


# tokens on both sides of every difference between int() and np.loadtxt
_IDS = ["0", "1", "2", "3", "4", "5", "7", "12", "-3", "+7", "0001", "-0", "1_0",
        "\u0661", "\u0663\u0662", "9223372036854775807", "-9223372036854775808",
        "9223372036854775808", "-9223372036854775809", "1180591620717411303424",
        "x", "", "1.0", "+-1"]
_VALUES = ["1", "-1"] * 6 + ["+1", "0", "2", "-7", "+7", "01", "1_0", "\u0661", "1.5",
                             "99999999999999999999999", "-99999999999999999999999"]
_STAMPS = ["1407470400", "1289241911.72836", "", "abc#x", " 7 "]
_PADS = ["", "", "", " ", "\t", "  ", "\x0b", "\x1c", "\x01", "\x7f", "\xa0"]
_SEPS = {"plain": [" ", " ", "\t", ",", " , ", "  ", "\x0c", "\r"],
         "rating_csv": [",", ",", ",", " ,", ", ", "\t,"]}


@st.composite
def _edge_list_text(draw, fmt):
    def pick(options):
        return draw(st.sampled_from(options))

    def line():
        kind = pick(["edge"] * 8 + ["blank", "comment", "no field"])
        if kind == "blank":
            return pick(["", " ", "\t"])
        if kind == "no field":
            return pick([",", " , ", ",,", "\t,,,", ", ,\t"])
        if kind == "comment":
            return pick(_PADS) + pick(["#", "# c", "# 1,2,3", "#1 2 1"])
        n_fields = pick([3] * 6 + [2, 4, 5])
        small = [str(i) for i in range(8)]
        fields = [pick(small * 3 + _IDS), pick(small * 3 + _IDS), pick(_VALUES)]
        fields = (fields + [pick(_STAMPS) for _ in range(2)])[:n_fields]
        text = fields[0]
        for field in fields[1:]:
            text += pick(_SEPS[fmt]) + field
        return pick(_PADS) + text + pick(_PADS)

    lines = [line() for _ in range(draw(st.integers(0, 14)))]
    if lines and draw(st.integers(0, 9)) == 0:
        # one list item holding a line break; in a stream these are two lines
        at = draw(st.integers(0, len(lines) - 1))
        lines[at] += pick(["\n", "\r", "\r\n"]) + line()
    return lines, pick(["\n", "\r\n"]), draw(st.booleans())


def _outcome(load, source, fmt):
    try:
        stage = load(source, fmt)
    except GraphFormatError as err:
        return "error", str(err)
    assert type(stage.n_nodes) is int
    return stage.n_nodes, [(a.dtype.str, a.tolist())
                           for a in (stage.src, stage.dst, stage.sign, stage.raw_ids)]


@given(fmt=st.sampled_from(["plain", "rating_csv"]), data=st.data(),
       kind=st.sampled_from(["list", "StringIO", "BytesIO", "gzip"]),
       chunk=st.sampled_from([1, 2, 3, graphs.CHUNK_LINES]))
@settings(max_examples=400, deadline=None)
@pytest.mark.filterwarnings("error")
def test_loader_matches_the_line_by_line_oracle(fmt, data, kind, chunk):
    lines, ending, final_newline = data.draw(_edge_list_text(fmt))
    text = ending.join(lines) + (ending if final_newline else "")

    def source():
        if kind == "list":
            return [line + ending for line in lines] if final_newline else list(lines)
        if kind == "StringIO":
            return io.StringIO(text)
        if kind == "BytesIO":
            return io.BytesIO(text.encode("utf-8"))
        return gzip.open(io.BytesIO(gzip.compress(text.encode("utf-8"))), "rt",
                         encoding="utf-8")

    with mock.patch.object(graphs, "CHUNK_LINES", chunk):
        got = _outcome(load_edge_list, source(), fmt)
    assert got == _outcome(load_edge_list_by_line, source(), fmt)


@pytest.mark.parametrize("fmt, lines", [
    ("plain", ["1 2 1", "\x01# c"]),             # not a comment: \x01 is no blank
    ("plain", ["1 2 1", "\x1c\x0b# c", "\x0c"]),   # but these are
    ("plain", ["1 2 1", "2 3 1\x00"]),
    ("plain", ["# a\x00b", "1 2 1"]),
    ("plain", ["1 2 1", "1 2\n1"]),
    ("plain", ["1 2 1", "1 2 1\r3 4 1"]),
    ("plain", ["1 2 1", "3 4 1e0"]),
    ("rating_csv", ["1,2,3", "4,5,1.0"]),
    ("rating_csv", ["1,2,3", "4,5,6,x\ny"]),
    ("rating_csv", ["1,2,3", "4,5,6,7,8"]),
    ("rating_csv", ["1,2,3", "4,5"]),
    ("plain", ["1 2 1", "9223372036854775808 5 1"]),
    ("rating_csv", ["1,2,3", "4,-9223372036854775809,2"]),
    ("rating_csv", ["1,2,3", "4,5,99999999999999999999999"]),
    ("rating_csv", ["1,2,3", "4,5,-99999999999999999999999,7"]),
    ("plain", ["1 2 1\n3 4 1", ","]),
    ("plain", [",", " ,\t"]),
    ("plain", [b"1 2 1\r3 4 1\n", b",\n"]),
])
def test_loader_matches_the_oracle_on_lines_numpy_may_read_differently(fmt, lines):
    # whatever numpy's version, such a chunk goes to the per-line grammar unread
    with mock.patch.object(graphs.np, "loadtxt", side_effect=AssertionError("read")):
        assert graphs._parse_chunk_bulk(lines, fmt) is None
    assert _outcome(load_edge_list, lines, fmt) == _outcome(load_edge_list_by_line, lines, fmt)


def test_clean_chunks_take_the_bulk_path():
    """Comments, blank lines, CRLF, padding, 3- and 4-field rows and byte
    lines parse without the per-line fallback."""
    plain = "# header\r\n\r\n 1 2 1\r\n3\t4  -1 \r\n  # note\r\n5,6,+1\r\n7 , 8,-1"
    rating = "# src,dst,rating\n1, 2,3,1289241911.72836\n\n3 ,4,-0010\n5,6,+2,\n"
    for fmt, text in (("plain", plain), ("rating_csv", rating)):
        want = _outcome(load_edge_list_by_line, text.splitlines(), fmt)
        assert want[0] != "error"
        for source in (io.StringIO(text), io.BytesIO(text.encode()), text.splitlines()):
            with mock.patch.object(graphs, "_parse_chunk_by_line",
                                   side_effect=AssertionError("per-line fallback")):
                assert _outcome(load_edge_list, source, fmt) == want


def test_loader_peak_memory_is_a_small_multiple_of_the_text():
    rand = np.random.default_rng(8)
    m = 35_000
    ends = rand.integers(1, 60_000, (m, 2))
    rating = rand.integers(1, 11, m) * rand.choice([-1, 1], m)
    stamp = 1_300_000_000 + rand.integers(0, 200_000_000, m)
    text = "".join(f"{s},{t},{r},{ts}\n" for (s, t), r, ts
                   in zip(ends.tolist(), rating.tolist(), stamp.tolist()))
    source = io.StringIO(text)
    tracemalloc.start()
    try:
        stage = load_edge_list(source, "rating_csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stage.n_edges == m
    assert peak <= 4 * len(text)


# --- undirected conversion ---------------------------------------------------

def test_agreeing_duplicates_merge():
    g = to_undirected(load_edge_list(["1 2 1", "2 1 1"], "plain"))
    assert g.n_edges == 1 and g.true_sign[0] == 1


def test_disagreement_prioritizes_negative():
    g = to_undirected(load_edge_list(["1 2 1", "2 1 -1"], "plain"))
    assert g.n_edges == 1 and g.true_sign[0] == -1


def test_single_direction_kept():
    g = to_undirected(load_edge_list(["1 2 1"], "plain"))
    assert g.n_edges == 1 and g.true_sign[0] == 1


def test_self_loops_dropped():
    g = to_undirected(load_edge_list(["1 1 1", "1 2 -1"], "plain"))
    assert g.n_edges == 1


def test_edges_sorted_by_pair():
    g = to_undirected(load_edge_list(["5 3 1", "1 2 1", "4 1 -1"], "plain"))
    pairs = list(zip(g.u, g.v))
    assert pairs == sorted(pairs)


@given(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9),
                          st.sampled_from([-1, 1])), min_size=1, max_size=60))
@settings(max_examples=80, deadline=None)
def test_to_undirected_and_hide_signs_match_the_unique_formulation(edges):
    src, dst, sign = (np.array(col) for col in zip(*edges))
    stage = EdgeStage(10, src.astype(np.int64), dst.astype(np.int64),
                      sign.astype(np.int8), np.arange(10, dtype=np.int64) * 3)
    got, want = to_undirected(stage), to_undirected_by_unique(stage)
    spec = SplitSpec(0.4, 3)
    for a, b in ((got, want), (hide_signs(got, spec)[0], hide_signs(want, spec)[0])):
        assert a.n_nodes == b.n_nodes
        for name in ("u", "v", "true_sign", "observed_sign", "raw_ids"):
            x, y = getattr(a, name), getattr(b, name)
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes()


def test_to_undirected_idempotent():
    g = to_undirected(load_edge_list(
        ["1 2 1", "2 1 -1", "3 4 1", "4 5 1", "5 4 -1"], "plain"))
    again = to_undirected(stage_back(g))
    assert np.array_equal(g.u, again.u)
    assert np.array_equal(g.v, again.v)
    assert np.array_equal(g.true_sign, again.true_sign)


@given(st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8),
                          st.sampled_from([-1, 1])), min_size=1, max_size=40))
@settings(max_examples=60, deadline=None)
def test_to_undirected_properties(edges):
    if all(a == b for a, b, _ in edges):
        return
    lines = [f"{a} {b} {s}" for a, b, s in edges]
    g = to_undirected(load_edge_list(lines, "plain"))
    # one row per unordered pair, negative priority
    seen = {}
    remap = {}
    for a, b, s in edges:
        if a not in remap:
            remap[a] = len(remap)
        if b not in remap:
            remap[b] = len(remap)
        if a == b:
            continue
        x, y = remap[a], remap[b]
        key = (min(x, y), max(x, y))
        seen[key] = min(seen.get(key, 1), s)
    assert g.n_edges == len(seen)
    for u, v, s in zip(g.u, g.v, g.true_sign):
        assert seen[(int(u), int(v))] == s
    again = to_undirected(stage_back(g))
    assert np.array_equal(g.true_sign, again.true_sign)


# --- hiding ---------------------------------------------------------------

def test_hide_degenerate_probabilities():
    g = toy_graph()
    same, hidden = hide_signs(g, SplitSpec(0.0, seed=1))
    assert hidden.size == 0
    assert np.array_equal(same.observed_sign, g.true_sign)
    all_hidden, hidden = hide_signs(g, SplitSpec(1.0, seed=1))
    assert hidden.size == g.n_edges
    assert (all_hidden.observed_sign == 0).all()


def test_hide_matches_documented_stream():
    g = toy_graph(n_nodes=6, n_edges=10)
    hidden_graph, hidden = hide_signs(g, SplitSpec(0.2, seed=99))
    expected = [i for i in range(g.n_edges)
                if uniform01_py(99, "hide", i) < 0.2]
    assert list(hidden) == expected
    assert (hidden_graph.observed_sign[hidden] == 0).all()


def test_hide_preserves_everything_else():
    g = toy_graph()
    hidden_graph, hidden = hide_signs(g, SplitSpec(0.4, seed=5))
    assert hidden_graph.n_edges == g.n_edges
    assert hidden_graph.n_nodes == g.n_nodes
    assert np.array_equal(hidden_graph.true_sign, g.true_sign)
    visible = np.setdiff1d(np.arange(g.n_edges), hidden)
    assert np.array_equal(hidden_graph.observed_sign[visible], g.true_sign[visible])


def test_hide_is_reproducible():
    g = toy_graph()
    _, h1 = hide_signs(g, SplitSpec(0.3, seed=12))
    _, h2 = hide_signs(g, SplitSpec(0.3, seed=12))
    assert np.array_equal(h1, h2)
    _, h3 = hide_signs(g, SplitSpec(0.3, seed=13))
    assert not np.array_equal(h1, h3)


def test_hide_requires_clean_graph():
    g = toy_graph()
    hidden_graph, _ = hide_signs(g, SplitSpec(0.5, seed=2))
    with pytest.raises(ValueError):
        hide_signs(hidden_graph, SplitSpec(0.5, seed=2))


def test_bad_p_hidden_rejected():
    with pytest.raises(ValueError):
        SplitSpec(1.5, seed=0)


# --- statics ---------------------------------------------------------------

def test_statics_direct_counting():
    # node 0 sees observed {+1, +1, -1, 0}
    g = SignedGraph(
        5,
        np.array([0, 0, 0, 0]), np.array([1, 2, 3, 4]),
        np.array([1, 1, -1, 1], dtype=np.int8),
        np.array([1, 1, -1, 0], dtype=np.int8),
    )
    st_ = compute_node_statics(g)
    assert st_.deg[0] == 4
    assert st_.pos_frac[0] == 0.5
    assert st_.neg_frac[0] == 0.25


def test_p80_nearest_rank():
    assert nearest_rank_percentile(np.array([1, 1, 2, 3, 10]), 0.8) == 3.0


def test_isolated_node_fractions_zero():
    g = SignedGraph(3, np.array([0]), np.array([1]),
                    np.array([1], dtype=np.int8), np.array([1], dtype=np.int8))
    st_ = compute_node_statics(g)
    assert st_.deg[2] == 0
    assert st_.neg_frac[2] == 0.0 and st_.pos_frac[2] == 0.0


def test_statics_consistency_properties():
    for seed in range(5):
        g = toy_graph(seed=seed)
        hidden_graph, _ = hide_signs(g, SplitSpec(0.3, seed=seed))
        st_ = compute_node_statics(hidden_graph)
        assert st_.deg.sum() == 2 * g.n_edges
        # each node's degree counts the edges it is an endpoint of
        touching = [int(((g.u == i) | (g.v == i)).sum()) for i in range(g.n_nodes)]
        assert np.array_equal(hidden_graph.degrees, touching)
        assert np.array_equal(st_.deg, touching)
        assert st_.p80 >= 1
        counts_neg = st_.neg_frac * st_.deg
        counts_pos = st_.pos_frac * st_.deg
        assert np.allclose(counts_neg, np.round(counts_neg))
        assert np.allclose(counts_pos, np.round(counts_pos))
        assert (st_.neg_frac + st_.pos_frac <= 1 + 1e-12).all()


def test_fractions_use_observed_not_true():
    g = toy_graph()
    hidden_graph, hidden = hide_signs(g, SplitSpec(0.5, seed=8))
    st_hidden = compute_node_statics(hidden_graph)
    st_full = compute_node_statics(g)
    if hidden.size:
        assert (st_hidden.neg_frac + st_hidden.pos_frac).sum() < \
            (st_full.neg_frac + st_full.pos_frac).sum()


# --- invariants and dump ------------------------------------------------------

def test_graph_invariants_enforced():
    with pytest.raises(ValueError):
        SignedGraph(3, np.array([1]), np.array([1]),
                    np.array([1], np.int8), np.array([1], np.int8))
    with pytest.raises(ValueError):
        SignedGraph(3, np.array([0]), np.array([1]),
                    np.array([1], np.int8), np.array([-1], np.int8))
    with pytest.raises(ValueError, match="duplicate"):
        SignedGraph(3, np.array([0, 0]), np.array([1, 1]),
                    np.array([1, 1], np.int8), np.array([1, 1], np.int8))
    ones = np.ones(3, np.int8)
    with pytest.raises(ValueError, match="duplicate"):
        SignedGraph(3, np.array([0, 1, 0]), np.array([1, 2, 1]), ones, ones)
    # out of the documented order but distinct: accepted
    SignedGraph(3, np.array([1, 0, 0]), np.array([2, 1, 2]), ones, ones)


def test_dump_round_trip():
    g, _ = hide_signs(toy_graph(), SplitSpec(0.3, seed=4))
    text = dump_graph(g)
    back = parse_graph_dump(text)
    assert back.n_nodes == g.n_nodes
    assert np.array_equal(back.u, g.u)
    assert np.array_equal(back.v, g.v)
    assert np.array_equal(back.true_sign, g.true_sign)
    assert np.array_equal(back.observed_sign, g.observed_sign)
    assert dump_graph(back) == text


def test_dump_header_after_an_edge_line_names_its_line():
    with pytest.raises(GraphFormatError, match="line 2: the '# n_nodes' header"):
        parse_graph_dump("0 5 1 1\n# n_nodes 3\n")


def test_loader_deterministic_bitwise():
    lines = ["5,1,3,1", "1,5,-2,2", "2,5,10,3"]
    a = to_undirected(load_edge_list(lines, "rating_csv"))
    b = to_undirected(load_edge_list(lines, "rating_csv"))
    assert dump_graph(a) == dump_graph(b)
