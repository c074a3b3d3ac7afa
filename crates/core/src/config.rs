//! Model hyper-parameters.

use serde::{Deserialize, Serialize};

/// Hyper-parameters of ODNET and its variants. Defaults follow §V-A.5 and
/// §V-B of the paper where the paper specifies a value (heads = 4, K = 2,
/// neighbor cap = 5, Adam lr = 0.01, batch 128, 5 epochs) and sensible
/// laptop-scale widths elsewhere.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct OdnetConfig {
    /// Embedding width `d` (the output dimension of the HSGC's `M_T`).
    pub embed_dim: usize,
    /// Attention heads `h` in the PEC encoding layer (paper optimum: 4).
    pub heads: usize,
    /// HSG exploration depth `K` in Algorithm 1 (paper knee: 2).
    pub depth: usize,
    /// Per-node neighbor cap in the HSG (paper: 5, after Fan et al.).
    pub neighbor_cap: usize,
    /// Number of MMoE experts (paper: 3).
    pub experts: usize,
    /// Expert output width `d_r`.
    pub expert_dim: usize,
    /// Hidden width of the task towers.
    pub tower_hidden: usize,
    /// Maximum long-term sequence length fed to the PEC.
    pub max_long_seq: usize,
    /// Maximum short-term sequence length fed to the PEC.
    pub max_short_seq: usize,
    /// Adam learning rate (paper: 0.01).
    pub learning_rate: f32,
    /// Mini-batch size in *groups* — each group is one (user, day) decision
    /// with all its candidate samples (paper: batch 128 samples).
    pub batch_groups: usize,
    /// Training epochs (paper: 5).
    pub epochs: usize,
    /// Initial value of the learnable loss weight θ (Eq. 8), before the
    /// sigmoid reparameterization.
    pub theta_init: f32,
    /// Entropy-regularization strength λ on the learnable θ. The bare Eq. 8
    /// objective collapses θ onto the easier task; with the regularizer the
    /// stationary point is θ* = σ((L_D − L_O)/λ), which keeps both tasks
    /// learning. Set to 0 to recover the unregularized paper equation.
    pub theta_entropy: f32,
    /// Gradient-clipping threshold (global L2 norm).
    pub grad_clip: f32,
    /// Worker threads for data-parallel training (the paper trains on
    /// 50 PAI workers; we use cores).
    pub workers: usize,
    /// Travel-intention prototypes (the paper's §VII future-work extension;
    /// 0 disables the intent module).
    pub intents: usize,
    /// Seed for parameter initialization and neighbor sampling.
    pub seed: u64,
}

impl Default for OdnetConfig {
    fn default() -> Self {
        OdnetConfig {
            embed_dim: 16,
            heads: 4,
            depth: 2,
            neighbor_cap: 5,
            experts: 3,
            expert_dim: 32,
            tower_hidden: 32,
            max_long_seq: 12,
            max_short_seq: 8,
            learning_rate: 0.01,
            batch_groups: 18, // ≈ 128 samples at 7 samples per group
            epochs: 5,
            theta_init: 0.5,
            theta_entropy: 0.5,
            grad_clip: 5.0,
            workers: default_workers(),
            intents: 0,
            seed: 0x0D_0E7,
        }
    }
}

impl OdnetConfig {
    /// A miniature configuration for unit tests (fast, single-threaded).
    pub fn tiny() -> Self {
        OdnetConfig {
            embed_dim: 8,
            heads: 2,
            depth: 1,
            expert_dim: 8,
            tower_hidden: 8,
            max_long_seq: 6,
            max_short_seq: 4,
            epochs: 2,
            workers: 1,
            ..Self::default()
        }
    }

    /// Derived width of the per-task representation `q` (Fig. 4): the PEC
    /// summary `v_L`, the user embedding, the current-city embedding, the
    /// candidate-city embedding, and the temporal statistics vector.
    pub fn q_dim(&self) -> usize {
        let intent = if self.intents > 0 { self.embed_dim } else { 0 };
        4 * self.embed_dim + crate::features::XST_DIM + intent
    }
}

fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get().min(8))
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_settings() {
        let c = OdnetConfig::default();
        assert_eq!(c.heads, 4);
        assert_eq!(c.depth, 2);
        assert_eq!(c.neighbor_cap, 5);
        assert_eq!(c.experts, 3);
        assert_eq!(c.epochs, 5);
        assert!((c.learning_rate - 0.01).abs() < f32::EPSILON);
    }

    #[test]
    fn q_dim_accounts_for_all_concatenated_parts() {
        let c = OdnetConfig::default();
        assert_eq!(c.q_dim(), 4 * 16 + crate::features::XST_DIM);
    }

    #[test]
    fn tiny_is_small_and_single_threaded() {
        let c = OdnetConfig::tiny();
        assert_eq!(c.workers, 1);
        assert!(c.embed_dim <= 8);
        assert!(
            c.embed_dim.is_multiple_of(c.heads),
            "heads must divide embed_dim"
        );
    }
}
