//! # llm — a simulated LLM runtime
//!
//! Stand-in for the OpenAI chat models the paper calls: GPT-3.5 Turbo
//! (tip summarization), GPT-4o (query-result refinement) and o1-mini
//! (query generation; the SemaSK-O1 variant).
//!
//! ## Interface fidelity
//!
//! [`SimLlm`] exposes a chat-completion API ([`ChatRequest`] →
//! [`ChatResponse`]) and *recognises the paper's actual prompts*: the
//! prompt builders in [`prompts`] reproduce the three prompt templates
//! printed in the paper verbatim, and the engine routes on their
//! distinctive instruction text, parses the embedded data (a Python-style
//! list of tips, a JSON array of POI attributes + a query, a POI
//! information block) back out of the raw prompt string, and produces
//! output in the format the paper's prompts demand — including the
//! re-ranker's Python-dict-style `{name: reason}` answer and the "return
//! the empty dictionary" failure mode.
//!
//! The prompt is still a real string. The caller writes the refinement
//! prompt's JSON straight from its objects, and the engine reads it back
//! in one pass ([`prompts::extract_rerank`]) with no value tree on either
//! side: of each POI it keeps the name and the concept reading of the
//! string values the model reads, fed straight from the prompt.
//!
//! ## Semantic fidelity
//!
//! Task execution is grounded in the shared [`concepts`] ontology: the
//! engine detects concepts in the supplied text through the requesting
//! model's [`concepts::FidelityProfile`], so GPT-4o judgements are nearly
//! perfect, o1-mini slightly noisier, and GPT-3.5 noisier still — the
//! ordering that drives the paper's Table 2. All noise is deterministic
//! in (text, model), so experiments are exactly reproducible.
//!
//! ## Cost and latency
//!
//! Each call is metered: approximate token counts, per-model USD pricing,
//! and a simulated latency from token throughput (the paper reports 2–3 s
//! per refinement call; the virtual clock reproduces that scale without
//! actually sleeping). See [`CostLog`].

#![warn(missing_docs)]

pub mod api;
pub mod cost;
pub mod engine;
pub mod error;
pub(crate) mod models;
pub mod prompts;
pub mod tasks;
pub mod tokens;

pub use api::{ChatRequest, ChatResponse, Usage};
pub use cost::CostLog;
pub use engine::SimLlm;
pub use error::LlmError;
pub use models::ModelKind;
pub use tasks::rerank::{parse_rerank_response, RankedEntry};
