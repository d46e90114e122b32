"""Spring-force node embeddings for signed graphs.

Pipeline: load a signed edge list, hide a share of the signs, simulate a
learnable spring system until the node positions settle, then predict hidden
edge signs from endpoint distances.  Force parameters are trained by
differentiating through the unrolled simulation.
"""

__version__ = "0.1.0"

from .forces import (ForceParams, MlpParams, NeuralSpringParams, SpringParams,
                     init_params, params_from_json, params_to_json)
from .forcefield import FieldContext, force_field, prepare
from .graphs import (EdgeStage, GraphFormatError, NodeStatics, SignedGraph,
                     SplitSpec, compute_node_statics, dump_graph, hide_signs,
                     load_edge_list, parse_graph_dump, to_undirected)
from .metrics import (MetricsReport, PredictionSet, auc, evaluate, f1_scores,
                      predict, predict_prob, rank_auc)
from .simulate import (SimConfig, SimState, SimulationDivergedError, init_state,
                       read_embeddings_binary, read_embeddings_text, simulate,
                       write_embeddings_binary, write_embeddings_text)
from .training import (AdamState, Checkpoint, EpochStats, LossConfig, TrainConfig,
                       adam_step, clip_gradient, load_checkpoint, loss,
                       loss_and_grad, save_checkpoint, train)
