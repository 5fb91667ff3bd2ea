"""Compact neural interatomic potentials with generalization diagnostics:
filter-normalized loss landscapes, landscape entropy, MD time-to-failure,
label-noise robustness, and learning-curve slopes."""

from .data import (Configuration, Dataset, NoiseSpec, corrupt_labels, dataset_stats,
                   generate_reference_dataset, parse_extxyz, split_by_temperature,
                   write_extxyz)
from .descriptors import DescriptorSpec
from .entropy import (EntropyReport, entropy_from_profile, loss_entropy,
                      temperature_sweep, weighted_entropy)
from .landscape import (Direction, LandscapeProfile, Surface2D, filter_normalize, free_blocks,
                        interpolate_models, landscape_1d, landscape_2d,
                        orthogonalize_pair, reweight_surface, sample_direction)
from .md import MDConfig, TrajectoryRecord, init_velocities, run_ensemble
from .model import NeuralPotential, fit_rescale, load_checkpoint, loss_eval, save_checkpoint
from .analysis import (SlopeFit, ToyRegressionResult, extrapolation_slope, learning_curve_slope,
                       rmse_by_split, toy_regression_experiment)
from .potentials import LennardJones, Morse
from .training import TrainConfig, TrainReport, apply_weight_schedule, train

__version__ = "0.1.0"
