"""Reward learning for goal-conditioned route choice on road graphs."""

__version__ = "0.1.0"

from .algorithms import (GradientReport, IrlConfig, batch_gradient,
                         demo_gradient, receding_horizon_gradient,
                         sample_demonstrations)
from .errors import InfeasibilityError, ValidationError
from .graph import (GoalView, MergeMap, RoadGraph, Trajectory, build_graph,
                    compress_graph, compress_trajectory, expand_trajectory,
                    extract_subgraph, gen_gridworld, gen_random_graph,
                    gen_two_state_loop, merge_chains, split_high_degree,
                    two_state_loop_rewards)
from .io import (export_reward_table, load_checkpoint, load_graph, load_merge_map,
                 load_reward_table, load_trajectories, save_checkpoint,
                 save_graph, save_merge_map, save_trajectories)
from .metrics import Metrics, SignificanceResult, diff_of_proportions, evaluate
from .planners import Policy, RolloutResult, greedy_path, rollout, softmax_backup
from .rewards import (CompositeReward, DenseNetReward, LinearReward,
                      RewardModel, SparsePerEdgeReward, backprop,
                      edge_rewards, project_nonpositive)
from .spectral import (SpectralReport, cheap_bounds, convergence_rate_probe,
                       dominant_eigenvalue, loss_surface_scan)
from .training import (Shard, TrainConfig, TrainHistory, assemble_global,
                       cross_region_eval, partition_geographic, train_expert)
