import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from graphspring import (SignedGraph, SplitSpec, compute_node_statics,
                         hide_signs, load_edge_list, to_undirected)

DATA_ENV = "GRAPHSPRING_DATA"
DATASETS = {
    "bitcoin_alpha": ("soc-sign-bitcoinalpha.csv", "soc-sign-bitcoinalpha.csv.gz"),
    "bitcoin_otc": ("soc-sign-bitcoinotc.csv", "soc-sign-bitcoinotc.csv.gz"),
}


def dataset_path(name: str):
    """Locate a real dataset file, or None when it is not available."""
    roots = []
    if os.environ.get(DATA_ENV):
        roots.append(Path(os.environ[DATA_ENV]))
    roots.append(Path(__file__).resolve().parent.parent / "data")
    for root in roots:
        for filename in DATASETS[name]:
            candidate = root / filename
            if candidate.is_file():
                return candidate
    return None


def require_dataset(name: str) -> Path:
    path = dataset_path(name)
    if path is None:
        pytest.skip(
            f"dataset {name} not found; place {DATASETS[name][0]} under ./data "
            f"or set ${DATA_ENV} (see README)")
    return path


def traced_peak(call) -> int:
    """tracemalloc's peak, in bytes, over call()."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def toy_graph(n_nodes: int = 12, n_edges: int = 30, seed: int = 0,
              neg_fraction: float = 0.3) -> SignedGraph:
    """Small random connected signed graph with both sign classes."""
    rand = np.random.default_rng(seed)
    pairs = {(min(i, (i + 1) % n_nodes), max(i, (i + 1) % n_nodes))
             for i in range(n_nodes)}
    while len(pairs) < n_edges:
        a, b = rand.integers(0, n_nodes, 2)
        if a != b:
            pairs.add((min(int(a), int(b)), max(int(a), int(b))))
    pairs = sorted(pairs)
    u = np.array([p[0] for p in pairs], dtype=np.int64)
    v = np.array([p[1] for p in pairs], dtype=np.int64)
    sign = np.where(rand.random(len(pairs)) < neg_fraction, -1, 1).astype(np.int8)
    sign[0] = 1
    sign[1] = -1
    return SignedGraph(n_nodes, u, v, sign, sign.copy())


def hidden_toy(seed: int = 0, p_hidden: float = 0.25, **kw):
    """A toy graph with hidden signs whose visible part keeps both classes."""
    for attempt in range(20):
        graph = toy_graph(seed=seed + 100 * attempt, **kw)
        hidden_graph, hidden = hide_signs(graph, SplitSpec(p_hidden, seed + attempt))
        visible = hidden_graph.observed_sign[hidden_graph.observed_sign != 0]
        if hidden.size and (visible == 1).any() and (visible == -1).any():
            return hidden_graph, hidden
    raise RuntimeError("could not build a usable toy split")


@pytest.fixture
def alpha_like_lines():
    """A miniature rating_csv stream shaped like the trust datasets."""
    return [
        "7,2,4,1407470400",
        "2,7,9,1407470400",
        "3,9,-10,1407470400",
        "9,3,2,1407470401",
        "4,7,1,1407470402",
        "2,4,-3,1407470403",
        "4,2,5,1407470404",
        "5,4,2,1407470405",
    ]


def load_undirected(lines, fmt="plain"):
    return to_undirected(load_edge_list(lines, fmt))


def statics_of(graph):
    return compute_node_statics(graph)
