import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphspring import (GraphFormatError, SignedGraph, SplitSpec,
                         compute_node_statics, dump_graph, hide_signs,
                         load_edge_list, parse_graph_dump, to_undirected)
from graphspring.graphs import nearest_rank_percentile

from conftest import toy_graph
from oracles import stage_back
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


def test_exact_split_count():
    g = toy_graph(n_edges=30)
    for p in (0.2, 0.33, 0.5):
        _, hidden = hide_signs(g, SplitSpec(p, seed=3, exact=True))
        assert hidden.size == math.ceil(p * g.n_edges)


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
    with pytest.raises(ValueError):
        SignedGraph(3, np.array([0, 0]), np.array([1, 1]),
                    np.array([1, 1], np.int8), np.array([1, 1], np.int8))


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


def test_loader_deterministic_bitwise():
    lines = ["5,1,3,1", "1,5,-2,2", "2,5,10,3"]
    a = to_undirected(load_edge_list(lines, "rating_csv"))
    b = to_undirected(load_edge_list(lines, "rating_csv"))
    assert dump_graph(a) == dump_graph(b)
