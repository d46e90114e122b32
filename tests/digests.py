"""Fixed-seed SHA-256 digests of the numerical results, for bitwise comparisons.

Run it against two checkouts and diff the outputs; a change meant to leave the
arithmetic alone must print the same lines:

    PYTHONPATH=/path/to/a/src python tests/digests.py > a.txt
    PYTHONPATH=/path/to/b/src python tests/digests.py > b.txt
    diff a.txt b.txt

It digests the loss, gradient and final X and V of `loss_and_grad` and the
final state of `simulate` for both models, both orderings, k in {8, 64}, with
and without coincident endpoints (on the first, a middle and the last edge,
starting at t_step 3), and the per-epoch loss, auc_l and f1_macro and the
`params.json` bytes of a 3-epoch `train` for both models.  The file name keeps
pytest from collecting it.
"""

from __future__ import annotations

import hashlib

import numpy as np

from graphspring import (LossConfig, SimConfig, SimState, SpringParams,
                         TrainConfig, compute_node_statics, init_params,
                         init_state, loss_and_grad, params_to_json, prepare,
                         simulate, train)
from graphspring.bench import synthetic_graph

N_NODES, N_EDGES, N_STEPS = 300, 1200, 30
# rest lengths either side of the typical distances at k = 8 and k = 64, so the
# spring kinks are crossed and some sign groups sit wholly on a flat side
SPRING = SpringParams(2.0, 3.0, 5.0, 1.2, 0.8, 1.1, 0.3)


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(np.ascontiguousarray(part, dtype=np.float64).tobytes())
    return h.hexdigest()[:16]


def cases():
    for kind in ("spring", "spring-nn"):
        model = SPRING if kind == "spring" else init_params(kind, seed=5)
        for semi in (False, True):
            for k in (8, 64):
                for tied in (False, True):
                    yield kind, model, semi, k, tied


def start_state(graph, cfg: SimConfig, tied: bool) -> SimState:
    state = init_state(graph.n_nodes, cfg)
    if not tied:
        return state
    X = state.X.copy()
    for e in (0, graph.n_edges // 2, graph.n_edges - 1):
        X[graph.v[e]] = X[graph.u[e]]
    return SimState(X, state.V, 3)


def main() -> None:
    graph = synthetic_graph(N_NODES, N_EDGES, seed=11)
    statics = compute_node_statics(graph)
    ctx = prepare(graph, statics)
    loss_cfg = LossConfig()
    for kind, model, semi, k, tied in cases():
        cfg = SimConfig(k=k, n_steps=N_STEPS, seed=7, semi_implicit=semi)
        name = f"{kind:9} semi={int(semi)} k={k:2} tied={int(tied)}"
        value, grad, final = loss_and_grad(graph, statics, model, cfg, loss_cfg,
                                           state0=start_state(graph, cfg, tied), ctx=ctx)
        print(f"loss_and_grad {name} loss {digest(value)} grad {digest(grad)} "
              f"X {digest(final.X)} V {digest(final.V)}")
        state = simulate(start_state(graph, cfg, tied), graph, statics, model, cfg, ctx=ctx)
        print(f"simulate      {name} X {digest(state.X)} V {digest(state.V)} "
              f"t {state.t_step}")
    for kind in ("spring", "spring-nn"):
        cfg = TrainConfig(epochs=3, sim=SimConfig(k=8, n_steps=N_STEPS),
                          model_kind=kind, seed=3)
        params, history = train(graph, statics, cfg)
        print(f"train         {kind:9} "
              f"loss {digest([h.loss for h in history])} "
              f"auc_l {digest([h.auc_l for h in history])} "
              f"f1_macro {digest([h.f1_macro for h in history])} "
              f"params.json {hashlib.sha256(params_to_json(params).encode()).hexdigest()[:16]}")


if __name__ == "__main__":
    main()
