//! # lda — Latent Dirichlet Allocation
//!
//! The weaker of the paper's two baselines: earlier semantics-aware
//! spatial keyword work (Qian et al., DASFAA'16/WWW'18, followed by the
//! paper) measured semantic relevance with LDA topic distributions. The
//! paper finds LDA performs poorly on short POI texts ("the queries and
//! POI attributes are relatively short, making it difficult for LDA to
//! learn accurate distributions") — this crate reproduces that behaviour
//! with a standard collapsed Gibbs sampler.

#![warn(missing_docs)]

pub mod model;
pub mod similarity;

pub use model::{LdaConfig, LdaModel};
pub use similarity::jensen_shannon;
