//! Experiment scaling and command-line configuration.
//!
//! The paper's full-scale configuration (13,866-instance MNIST2-6, 90-tree
//! ensembles, grid search, ten fake signatures for the forgery attack) is
//! reproducible but takes hours on a laptop; the default "laptop" settings
//! shrink the datasets and ensembles while preserving every qualitative
//! trend. `--full` switches to paper-scale parameters.

use crate::datasets::PaperDataset;
use serde::{Deserialize, Serialize};
use wdte_core::WatermarkConfig;
use wdte_solver::SolverConfig;
use wdte_trees::TreeParams;

/// Scaling configuration shared by every experiment binary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentSettings {
    /// `true` for paper-scale parameters.
    pub full_scale: bool,
    /// Master seed; every experiment derives its own sub-seeds from it.
    pub seed: u64,
    /// Number of fake signatures for the forgery attack.
    pub forgery_signatures: usize,
    /// Cap on test instances attempted per fake signature (None = all).
    pub forgery_max_instances: Option<usize>,
    /// Per-instance solver time budget in milliseconds.
    pub solver_time_ms: u64,
}

impl ExperimentSettings {
    /// Laptop-sized defaults.
    pub fn laptop() -> Self {
        Self {
            full_scale: false,
            seed: 2025,
            forgery_signatures: 4,
            forgery_max_instances: Some(40),
            solver_time_ms: 1_000,
        }
    }

    /// Paper-scale settings.
    pub fn full() -> Self {
        Self {
            full_scale: true,
            seed: 2025,
            forgery_signatures: 10,
            forgery_max_instances: None,
            solver_time_ms: 30_000,
        }
    }

    /// Parses settings from process arguments: `--full`, `--seed N`,
    /// `--signatures N`, `--max-instances N`.
    pub fn from_args() -> Self {
        let args: Vec<String> = std::env::args().collect();
        Self::from_arg_slice(&args)
    }

    /// Parses settings from an explicit argument slice (testable variant of
    /// [`Self::from_args`]).
    pub fn from_arg_slice(args: &[String]) -> Self {
        let mut settings = if args.iter().any(|a| a == "--full") {
            Self::full()
        } else {
            Self::laptop()
        };
        for (position, arg) in args.iter().enumerate() {
            let next = args.get(position + 1);
            match arg.as_str() {
                "--seed" => {
                    if let Some(value) = next.and_then(|v| v.parse::<u64>().ok()) {
                        settings.seed = value;
                    }
                }
                "--time-ms" => {
                    if let Some(value) = next.and_then(|v| v.parse::<u64>().ok()) {
                        settings.solver_time_ms = value;
                    }
                }
                "--signatures" => {
                    if let Some(value) = next.and_then(|v| v.parse::<usize>().ok()) {
                        settings.forgery_signatures = value;
                    }
                }
                "--max-instances" => {
                    if let Some(value) = next.and_then(|v| v.parse::<usize>().ok()) {
                        settings.forgery_max_instances = Some(value);
                    }
                }
                _ => {}
            }
        }
        settings
    }

    /// Dataset scale factor for one of the paper datasets.
    pub fn dataset_scale(&self, dataset: PaperDataset) -> f64 {
        if self.full_scale {
            return 1.0;
        }
        match dataset {
            PaperDataset::Mnist26 => 0.06,
            PaperDataset::BreastCancer => 1.0,
            PaperDataset::Ijcnn1 => 0.10,
        }
    }

    /// Ensemble size used for one of the paper datasets (the per-dataset
    /// tree counts implied by Table 2: 90 / 70 / 80).
    pub fn num_trees(&self, dataset: PaperDataset) -> usize {
        if self.full_scale {
            match dataset {
                PaperDataset::Mnist26 => 90,
                PaperDataset::BreastCancer => 70,
                PaperDataset::Ijcnn1 => 80,
            }
        } else {
            match dataset {
                PaperDataset::Mnist26 => 24,
                PaperDataset::BreastCancer => 20,
                PaperDataset::Ijcnn1 => 20,
            }
        }
    }

    /// Watermarking configuration for one of the paper datasets.
    pub fn watermark_config(&self, dataset: PaperDataset) -> WatermarkConfig {
        if self.full_scale {
            WatermarkConfig {
                num_trees: self.num_trees(dataset),
                strict: false,
                ..WatermarkConfig::paper_default()
            }
        } else {
            WatermarkConfig {
                num_trees: self.num_trees(dataset),
                tree_params: TreeParams {
                    max_depth: Some(10),
                    max_leaves: Some(128),
                },
                ..WatermarkConfig::fast()
            }
        }
    }

    /// Constraint-solver budget for the forgery experiments.
    pub fn solver_config(&self) -> SolverConfig {
        SolverConfig {
            max_nodes: if self.full_scale { 5_000_000 } else { 300_000 },
            time_budget_ms: self.solver_time_ms,
            domain: Some((0.0, 1.0)),
        }
    }
}

impl Default for ExperimentSettings {
    fn default() -> Self {
        Self::laptop()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn default_is_laptop_scale() {
        let settings = ExperimentSettings::default();
        assert!(!settings.full_scale);
        assert!(settings.dataset_scale(PaperDataset::Mnist26) < 0.2);
        assert_eq!(settings.dataset_scale(PaperDataset::BreastCancer), 1.0);
        assert!(settings.num_trees(PaperDataset::Mnist26) <= 32);
    }

    #[test]
    fn full_flag_switches_to_paper_scale() {
        let settings = ExperimentSettings::from_arg_slice(&args(&["bin", "--full"]));
        assert!(settings.full_scale);
        assert_eq!(settings.num_trees(PaperDataset::Mnist26), 90);
        assert_eq!(settings.num_trees(PaperDataset::BreastCancer), 70);
        assert_eq!(settings.num_trees(PaperDataset::Ijcnn1), 80);
        assert_eq!(settings.dataset_scale(PaperDataset::Ijcnn1), 1.0);
        assert_eq!(settings.forgery_signatures, 10);
        let config = settings.watermark_config(PaperDataset::Mnist26);
        assert!(config.grid.is_some());
        assert!(matches!(
            config.weight_schedule,
            wdte_core::WeightSchedule::Additive(_)
        ));
    }

    #[test]
    fn numeric_overrides_are_parsed() {
        let settings = ExperimentSettings::from_arg_slice(&args(&[
            "bin",
            "--seed",
            "7",
            "--signatures",
            "3",
            "--max-instances",
            "12",
            "--time-ms",
            "500",
        ]));
        assert_eq!(settings.seed, 7);
        assert_eq!(settings.forgery_signatures, 3);
        assert_eq!(settings.forgery_max_instances, Some(12));
        assert_eq!(settings.solver_time_ms, 500);
    }

    #[test]
    fn watermark_config_matches_tree_count() {
        let settings = ExperimentSettings::laptop();
        for dataset in PaperDataset::ALL {
            let config = settings.watermark_config(dataset);
            assert_eq!(config.num_trees, settings.num_trees(dataset));
            assert!((config.trigger_fraction - 0.02).abs() < 1e-12);
        }
    }
}
