"""Heterogeneous graph contrastive recommender with meta-network knowledge transfer."""

from .autodiff import DiffError, SparseMatrix, Tape, Tensor, backward, grad_check
from .config import Ablations, Hyperparams, RunConfig, parse_config, serialize_config
from .dataset import BprSampler, InteractionDataset, split_leave_one_out
from .graphs import HeteroGraph, build_hetero_graph, load_dataset, load_edge_file
from .model import forward_model, init_params
from .objectives import LossConfig, predict_scores
from .synthetic import generate_synthetic
from .trainer import MetricsReport, evaluate, train

__version__ = "0.1.0"

__all__ = [
    "Ablations", "BprSampler", "DiffError", "HeteroGraph", "Hyperparams",
    "InteractionDataset", "LossConfig", "MetricsReport", "RunConfig",
    "SparseMatrix", "Tape", "Tensor", "backward", "build_hetero_graph",
    "evaluate", "forward_model", "generate_synthetic", "grad_check",
    "init_params", "load_dataset", "load_edge_file", "parse_config",
    "predict_scores", "serialize_config", "split_leave_one_out", "train",
]
