"""Sign prediction on hidden edges and the reported classification metrics."""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .graphs import SignedGraph

# the reported metrics in table order: (column heading, MetricsReport field)
METRICS = (("F1-MI", "f1_micro"), ("F1-MA", "f1_macro"), ("F1-WT", "f1_weighted"),
           ("F1-BI", "f1_binary"), ("AUC-P", "auc_p"), ("AUC-L", "auc_l"))


@dataclass(frozen=True)
class PredictionSet:
    u: np.ndarray
    v: np.ndarray
    true_sign: np.ndarray
    prob: np.ndarray
    pred_sign: np.ndarray


@dataclass(frozen=True)
class MetricsReport:
    f1_micro: float
    f1_macro: float
    f1_weighted: float
    f1_binary: float
    auc_p: float
    auc_l: float
    tp: int
    fp: int
    tn: int
    fn: int
    n_hidden: int
    seed: int | None = None
    config_hash: str = ""

    def to_json(self) -> str:
        return json.dumps(self.__dict__, indent=2) + "\n"

    def to_table(self) -> str:
        """Aligned text table with the conventional percentage scaling."""
        head = "  ".join(f"{name:>7}" for name, _ in METRICS)
        body = "  ".join(f"{100.0 * getattr(self, field):7.2f}" for _, field in METRICS)
        return head + "\n" + body + "\n"


def predict_prob(dist, mu: float):
    """Probability that an edge is positive: logistic in (mu - dist)."""
    return expit(mu - np.asarray(dist, dtype=np.float64))


def edge_distances(graph: SignedGraph, edges: np.ndarray, X: np.ndarray) -> np.ndarray:
    u, v = graph.u[edges], graph.v[edges]
    return np.sqrt(((X[v] - X[u]) ** 2).sum(axis=1))


def predict(graph: SignedGraph, hidden_set: np.ndarray, X: np.ndarray,
            mu: float) -> PredictionSet:
    """Logistic sign prediction for hidden edges; prob >= 0.5 maps to +1.

    The probability is sigmoid(mu - dist), the rule the training loss scores.
    """
    hidden_set = np.asarray(hidden_set, dtype=np.int64)
    if hidden_set.size == 0:
        raise ValueError("hidden set is empty, nothing to predict")
    dist = edge_distances(graph, hidden_set, X)
    prob = predict_prob(dist, mu)
    pred = np.where(prob >= 0.5, 1, -1).astype(np.int8)
    return PredictionSet(graph.u[hidden_set], graph.v[hidden_set],
                         graph.true_sign[hidden_set], prob, pred)


def confusion(truths: np.ndarray, preds: np.ndarray) -> tuple[int, int, int, int]:
    """(tp, fp, tn, fn) with +1 as the positive class."""
    tp = int(((preds == 1) & (truths == 1)).sum())
    fp = int(((preds == 1) & (truths == -1)).sum())
    tn = int(((preds == -1) & (truths == -1)).sum())
    fn = int(((preds == -1) & (truths == 1)).sum())
    return tp, fp, tn, fn


def _f1_from_counts(tp: int, fp: int, fn: int) -> float:
    denom = 2 * tp + fp + fn
    return 2.0 * tp / denom if denom else 0.0


def f1_scores(truths: np.ndarray, preds: np.ndarray
              ) -> tuple[float, float, float, float]:
    """(micro, macro, weighted, binary) F1 over labels in {-1, +1}.

    Micro pools both classes and reduces to accuracy for single-label binary
    data; macro averages the per-class F1 with equal weight; weighted uses
    class support; binary is the F1 of the positive class.  A class with a
    zero denominator contributes an F1 of 0.
    """
    truths = np.asarray(truths)
    preds = np.asarray(preds)
    if truths.shape != preds.shape or truths.ndim != 1:
        raise ValueError("truths and preds must be equal-length vectors")
    if truths.size == 0:
        raise ValueError("empty input")
    for arr in (truths, preds):
        if not np.isin(arr, (-1, 1)).all():
            raise ValueError("labels must be -1 or +1")
    tp, fp, tn, fn = confusion(truths, preds)
    f1_pos = _f1_from_counts(tp, fp, fn)
    f1_neg = _f1_from_counts(tn, fn, fp)
    micro = (tp + tn) / truths.size
    macro = (f1_pos + f1_neg) / 2.0
    support_pos = tp + fn
    support_neg = tn + fp
    weighted = (support_pos * f1_pos + support_neg * f1_neg) / truths.size
    return micro, macro, weighted, f1_pos


def rank_auc(scores: np.ndarray, truths: np.ndarray) -> float:
    """Mann-Whitney AUC with midrank tie handling."""
    scores = np.asarray(scores, dtype=np.float64)
    truths = np.asarray(truths)
    n_pos = int((truths == 1).sum())
    n_neg = int((truths == -1).sum())
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC requires both classes in the truths")
    order = np.argsort(scores, kind="stable")
    sorted_scores = scores[order]
    boundary = np.r_[True, sorted_scores[1:] != sorted_scores[:-1]]
    group = np.cumsum(boundary) - 1
    starts = np.flatnonzero(boundary)
    ends = np.r_[starts[1:], scores.size]
    midrank_by_group = (starts + ends + 1) / 2.0  # average of 1-based ranks
    ranks = np.empty(scores.size)
    ranks[order] = midrank_by_group[group]
    rank_sum_pos = ranks[truths == 1].sum()
    return float((rank_sum_pos - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def auc(pred: PredictionSet, mode: str) -> float:
    """AUC from prediction probabilities (mode "P") or binarized labels ("L")."""
    if mode == "P":
        scores = pred.prob
    elif mode == "L":
        scores = np.where(pred.pred_sign == 1, 1.0, 0.0)
    else:
        raise ValueError(f"unknown AUC mode {mode!r} (expected 'P' or 'L')")
    return rank_auc(scores, pred.true_sign)


def evaluate(graph: SignedGraph, hidden_set: np.ndarray, X: np.ndarray, mu: float,
             seed: int | None = None, config_hash: str = "") -> MetricsReport:
    """Full metric report for the hidden edges of a graph."""
    pred = predict(graph, hidden_set, X, mu)
    micro, macro, weighted, binary = f1_scores(pred.true_sign, pred.pred_sign)
    tp, fp, tn, fn = confusion(pred.true_sign, pred.pred_sign)
    return MetricsReport(
        f1_micro=micro, f1_macro=macro, f1_weighted=weighted, f1_binary=binary,
        auc_p=auc(pred, "P"), auc_l=auc(pred, "L"),
        tp=tp, fp=fp, tn=tn, fn=fn, n_hidden=int(pred.true_sign.size),
        seed=seed, config_hash=config_hash,
    )


def aggregate_reports(reports: list[MetricsReport]) -> dict:
    """Mean and standard deviation of each metric across seeded runs."""
    if not reports:
        raise ValueError("no reports to aggregate")
    out: dict = {"n_runs": len(reports)}
    for _, name in METRICS:
        values = np.array([getattr(r, name) for r in reports], dtype=np.float64)
        out[f"{name}_mean"] = float(values.mean())
        out[f"{name}_std"] = float(values.std())
    return out


def aggregate_table(agg: dict) -> str:
    """Aligned text table of each metric's mean ± std from `aggregate_reports`."""
    head = "  ".join(f"{name:>14}" for name, _ in METRICS)
    body = "  ".join(
        f"{100 * agg[field + '_mean']:8.2f}±{100 * agg[field + '_std']:.2f}".rjust(14)
        for _, field in METRICS)
    return head + "\n" + body + "\n"
