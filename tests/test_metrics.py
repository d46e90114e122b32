import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphspring import SignedGraph, evaluate, f1_scores, predict, rank_auc
from graphspring.metrics import aggregate_reports, auc, confusion

from conftest import hidden_toy


# --- independent brute-force oracles ------------------------------------------

def oracle_f1(truths, preds):
    def per_class(cls):
        tp = sum(1 for t, p in zip(truths, preds) if t == cls and p == cls)
        fp = sum(1 for t, p in zip(truths, preds) if t != cls and p == cls)
        fn = sum(1 for t, p in zip(truths, preds) if t == cls and p != cls)
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        return 2 * precision * recall / (precision + recall) \
            if precision + recall else 0.0

    f1p, f1n = per_class(1), per_class(-1)
    correct = sum(1 for t, p in zip(truths, preds) if t == p)
    micro = correct / len(truths)
    macro = (f1p + f1n) / 2
    sup_p = sum(1 for t in truths if t == 1)
    sup_n = len(truths) - sup_p
    weighted = (sup_p * f1p + sup_n * f1n) / len(truths)
    return micro, macro, weighted, f1p


def oracle_auc(scores, truths):
    wins = ties = total = 0
    for (s_p, t_p), (s_n, t_n) in itertools.product(
            [(s, t) for s, t in zip(scores, truths) if t == 1],
            [(s, t) for s, t in zip(scores, truths) if t == -1]):
        total += 1
        if s_p > s_n:
            wins += 1
        elif s_p == s_n:
            ties += 1
    return (wins + 0.5 * ties) / total


# --- predict ---------------------------------------------------------------------

def line_graph_with_hidden(dists, true_signs, mu_nodes_k=2):
    m = len(dists)
    u = np.arange(m, dtype=np.int64) * 2
    v = u + 1
    g = SignedGraph(2 * m, u, v, np.array(true_signs, np.int8),
                    np.zeros(m, np.int8))
    X = np.zeros((2 * m, mu_nodes_k))
    for i, d in enumerate(dists):
        X[v[i], 0] = d
    return g, np.arange(m), X


def test_predict_threshold_conventions():
    g, hidden, X = line_graph_with_hidden([2.5, 0.0, 10.0], [1, 1, -1])
    pred = predict(g, hidden, X, mu=2.5)
    assert pred.prob[0] == pytest.approx(0.5)
    assert pred.pred_sign[0] == 1      # tie goes to positive
    assert pred.pred_sign[1] == 1      # d = 0 is confidently positive
    assert pred.prob[2] == pytest.approx(5.5e-4, abs=1e-4)
    assert pred.pred_sign[2] == -1


def test_predict_empty_hidden_set():
    g, _, X = line_graph_with_hidden([1.0], [1])
    with pytest.raises(ValueError):
        predict(g, np.array([], dtype=np.int64), X, 2.5)


def test_prob_in_open_interval():
    g, hidden, X = line_graph_with_hidden([0.0, 100.0], [1, -1])
    pred = predict(g, hidden, X, 2.5)
    assert (pred.prob > 0).all() and (pred.prob < 1).all()


# --- f1 ---------------------------------------------------------------------------

def test_f1_hand_example():
    truths = np.array([1, 1, -1])
    preds = np.array([1, -1, -1])
    micro, macro, weighted, binary = f1_scores(truths, preds)
    assert micro == pytest.approx(2 / 3)
    assert macro == pytest.approx(2 / 3)
    assert weighted == pytest.approx(2 / 3)
    assert binary == pytest.approx(2 / 3)


def test_f1_perfect():
    truths = np.array([1, -1, 1, -1])
    assert f1_scores(truths, truths) == (1.0, 1.0, 1.0, 1.0)


def test_f1_trivial_positive_classifier():
    truths = np.array([1] * 90 + [-1] * 10)
    preds = np.ones(100, dtype=int)
    micro, macro, weighted, binary = f1_scores(truths, preds)
    assert binary == pytest.approx(0.947368, abs=1e-6)
    assert macro == pytest.approx(0.473684, abs=1e-6)
    assert micro == pytest.approx(0.9)


def test_f1_absent_class_contributes_zero():
    truths = np.array([1, 1, 1])
    preds = np.array([1, 1, 1])
    micro, macro, weighted, binary = f1_scores(truths, preds)
    assert binary == 1.0
    assert macro == 0.5       # negative class has zero F1
    assert weighted == 1.0    # zero support for the absent class
    assert micro == 1.0


def test_f1_micro_equals_accuracy():
    rand = np.random.default_rng(0)
    for _ in range(20):
        truths = rand.choice([-1, 1], 50)
        preds = rand.choice([-1, 1], 50)
        micro, _, _, _ = f1_scores(truths, preds)
        tp, fp, tn, fn = confusion(truths, preds)
        assert micro == pytest.approx((tp + tn) / (tp + tn + fp + fn))


def test_f1_validates_input():
    with pytest.raises(ValueError):
        f1_scores(np.array([]), np.array([]))
    with pytest.raises(ValueError):
        f1_scores(np.array([1, 0]), np.array([1, 1]))


# --- auc ---------------------------------------------------------------------------

def test_auc_perfect_separation():
    truths = np.array([1, 1, -1, -1])
    assert rank_auc(np.array([0.9, 0.8, 0.2, 0.1]), truths) == 1.0


def test_auc_uninformative_scores():
    truths = np.array([1, 1, -1, -1])
    assert rank_auc(np.full(4, 0.7), truths) == 0.5


def test_auc_hand_example():
    truths = np.array([1, 1, -1, -1])
    probs = np.array([0.9, 0.4, 0.6, 0.1])
    assert rank_auc(probs, truths) == pytest.approx(0.75)


def test_auc_single_class_errors():
    with pytest.raises(ValueError):
        rank_auc(np.array([0.5, 0.6]), np.array([1, 1]))


def test_auc_monotone_transform_invariance():
    rand = np.random.default_rng(1)
    for _ in range(20):
        truths = np.r_[np.ones(12, int), -np.ones(8, int)]
        scores = rand.uniform(0, 1, 20)
        base = rank_auc(scores, truths)
        for transform in (np.exp, lambda s: s ** 3 + 2 * s,
                          lambda s: np.log(s + 1.0)):
            assert rank_auc(transform(scores), truths) == pytest.approx(base,
                                                                        abs=1e-12)


def test_auc_l_equals_balanced_accuracy():
    rand = np.random.default_rng(2)
    for _ in range(50):
        tp, fp, tn, fn = rand.integers(1, 30, 4)
        truths = np.array([1] * (tp + fn) + [-1] * (tn + fp))
        preds = np.array([1] * tp + [-1] * fn + [-1] * tn + [1] * fp)
        scores = np.where(preds == 1, 1.0, 0.0)
        tpr = tp / (tp + fn)
        tnr = tn / (tn + fp)
        assert rank_auc(scores, truths) == pytest.approx((tpr + tnr) / 2,
                                                         abs=1e-12)


def test_metrics_match_brute_force_oracle():
    rand = np.random.default_rng(3)
    for _ in range(40):
        n = 60
        truths = np.where(rand.random(n) < 0.7, 1, -1)
        if abs(truths.sum()) == n:
            truths[0] = -truths[0]
        probs = np.round(rand.uniform(0, 1, n), 2)  # rounded to force ties
        preds = np.where(probs >= 0.5, 1, -1)
        got = f1_scores(truths, preds)
        want = oracle_f1(list(truths), list(preds))
        assert np.allclose(got, want, atol=1e-12)
        assert rank_auc(probs, truths) == pytest.approx(
            oracle_auc(list(probs), list(truths)), abs=1e-12)


@given(st.lists(st.tuples(st.sampled_from([-1, 1]),
                          st.floats(0, 1, allow_nan=False)),
                min_size=2, max_size=60))
@settings(max_examples=80, deadline=None)
def test_auc_property_matches_pairwise(data):
    truths = np.array([t for t, _ in data])
    scores = np.array([round(s, 1) for _, s in data])
    if not ((truths == 1).any() and (truths == -1).any()):
        return
    assert rank_auc(scores, truths) == pytest.approx(
        oracle_auc(list(scores), list(truths)), abs=1e-12)


# --- evaluate --------------------------------------------------------------------

def test_evaluate_two_point_perfect():
    g, hidden, X = line_graph_with_hidden([0.5, 9.0], [1, -1])
    report = evaluate(g, hidden, X, mu=2.5, seed=3, config_hash="abc")
    assert report.f1_micro == 1.0
    assert report.auc_l == 1.0
    assert report.auc_p == 1.0
    assert (report.tp, report.fp, report.tn, report.fn) == (1, 0, 1, 0)
    assert report.n_hidden == 2
    assert report.seed == 3 and report.config_hash == "abc"


def test_report_is_pure_function_of_predictions():
    graph, hidden = hidden_toy(seed=8)
    X = np.random.default_rng(5).normal(0, 1, (graph.n_nodes, 4))
    a = evaluate(graph, hidden, X, 2.5)
    b = evaluate(graph, hidden, X, 2.5)
    assert a == b


def test_report_json_field_names():
    g, hidden, X = line_graph_with_hidden([0.5, 9.0], [1, -1])
    report = evaluate(g, hidden, X, mu=2.5, seed=1, config_hash="x")
    doc = json.loads(report.to_json())
    assert list(doc) == ["f1_micro", "f1_macro", "f1_weighted", "f1_binary",
                         "auc_p", "auc_l", "tp", "fp", "tn", "fn", "n_hidden",
                         "seed", "config_hash"]


def test_report_table_column_names():
    g, hidden, X = line_graph_with_hidden([0.5, 9.0], [1, -1])
    table = evaluate(g, hidden, X, 2.5).to_table()
    for name in ("F1-MI", "F1-MA", "F1-WT", "F1-BI", "AUC-P", "AUC-L"):
        assert name in table


def test_auc_mode_validation():
    g, hidden, X = line_graph_with_hidden([0.5, 9.0], [1, -1])
    pred = predict(g, hidden, X, 2.5)
    with pytest.raises(ValueError):
        auc(pred, "Q")


def test_aggregate_reports_statistics():
    g, hidden, X = line_graph_with_hidden([0.5, 9.0], [1, -1])
    report = evaluate(g, hidden, X, 2.5)
    agg = aggregate_reports([report, report, report])
    assert agg["n_runs"] == 3
    assert agg["f1_micro_mean"] == report.f1_micro
    assert agg["f1_micro_std"] == 0.0

