//! The simulated chat-completion engine.
//!
//! A request's prompt stays the real string the paper's templates
//! produce; the engine borrows it (a one-message request is not copied),
//! routes on the template marker it starts with, and reads the embedded
//! data back out — the refinement prompt's JSON in one pass, with no
//! value tree (see [`crate::prompts::extract_rerank`]).

use parking_lot::Mutex;

use concepts::ConceptDetector;

use crate::api::{ChatRequest, ChatResponse, Usage};
use crate::cost::{CallRecord, CostLog, TaskKind};
use crate::error::LlmError;
use crate::prompts::{
    extract_querygen, extract_rerank, extract_tips, QUERYGEN_MARKER, RERANK_MARKER,
    SUMMARIZE_MARKER,
};
use crate::tasks::{querygen, rerank, summarize};
use crate::tokens::approx_tokens;

/// The simulated LLM service: recognises the paper's prompt templates,
/// executes the corresponding task at the requested model's fidelity, and
/// meters every call.
pub struct SimLlm {
    detector: ConceptDetector,
    log: Mutex<CostLog>,
}

impl Default for SimLlm {
    fn default() -> Self {
        Self::new()
    }
}

impl SimLlm {
    /// An engine over the built-in ontology.
    #[must_use]
    pub fn new() -> Self {
        Self {
            detector: ConceptDetector::builtin(),
            log: Mutex::new(CostLog::new()),
        }
    }

    /// The engine's concept detector (shared world knowledge).
    #[must_use]
    pub fn detector(&self) -> &ConceptDetector {
        &self.detector
    }

    /// A snapshot of the call log.
    #[must_use]
    pub fn cost_log(&self) -> CostLog {
        *self.log.lock()
    }

    /// Clears the call log.
    pub fn reset_log(&self) {
        self.log.lock().clear();
    }

    /// Serves a chat-completion request.
    pub fn complete(&self, request: &ChatRequest) -> Result<ChatResponse, LlmError> {
        if request.messages.is_empty() {
            return Err(LlmError::EmptyRequest);
        }
        let prompt = request.full_text();
        let model = request.model;
        let profile = model.fidelity();

        let task = task_of(&prompt).ok_or(LlmError::UnrecognizedPrompt)?;
        let content = match task {
            TaskKind::Summarize => {
                let tips = extract_tips(&prompt)?;
                summarize::summarize(&tips, &profile, &self.detector)
            }
            TaskKind::Rerank => {
                let (pois, query) = extract_rerank(&prompt, &self.detector)?;
                let entries = rerank::rerank(&pois, query, &profile, &self.detector);
                rerank::format_response(&entries)
            }
            TaskKind::QueryGen => {
                let info = extract_querygen(&prompt)?;
                querygen::generate_query(&info, &profile, &self.detector)
            }
        };

        let usage = Usage {
            prompt_tokens: approx_tokens(&prompt),
            completion_tokens: approx_tokens(&content),
        };
        let latency_ms = model.latency_ms(usage.prompt_tokens, usage.completion_tokens);
        self.log.lock().push(CallRecord {
            model,
            task,
            usage,
            latency_ms,
            cost_usd: model.cost_usd(usage.prompt_tokens, usage.completion_tokens),
        });
        Ok(ChatResponse {
            model,
            content,
            usage,
            latency_ms,
        })
    }
}

/// The task whose template wrote `prompt`: the one whose marker the
/// prompt starts with, else the one whose marker comes first — a marker
/// quoted in user data comes after the template's own.
fn task_of(prompt: &str) -> Option<TaskKind> {
    const MARKERS: [(&str, TaskKind); 3] = [
        (SUMMARIZE_MARKER, TaskKind::Summarize),
        (RERANK_MARKER, TaskKind::Rerank),
        (QUERYGEN_MARKER, TaskKind::QueryGen),
    ];
    if let Some(&(_, task)) = MARKERS.iter().find(|(m, _)| prompt.starts_with(m)) {
        return Some(task);
    }
    MARKERS
        .iter()
        .filter_map(|&(m, task)| Some((prompt.find(m)?, task)))
        .min_by_key(|&(at, _)| at)
        .map(|(_, task)| task)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::ModelKind;
    use crate::prompts::{querygen_prompt, rerank_prompt, summarize_prompt};

    #[test]
    fn summarize_end_to_end() {
        let llm = SimLlm::new();
        let tips = vec![
            "Amazing coffee, love the pour overs".to_owned(),
            "cozy space with friendly staff".to_owned(),
        ];
        let req = ChatRequest::user(ModelKind::Gpt35Turbo, summarize_prompt(&tips));
        let resp = llm.complete(&req).unwrap();
        assert!(resp.content.contains("feedback"));
        assert!(resp.usage.prompt_tokens > 50);
        assert!(resp.latency_ms > 0.0);
        assert_eq!(llm.cost_log().num_calls(), 1);
    }

    #[test]
    fn rerank_end_to_end() {
        let llm = SimLlm::new();
        let pois = r#"[
            {"name": "The Corner Tap", "tips": ["big screens on every wall", "crispy skin falling off the bone"]},
            {"name": "Quiet Beans", "tips": ["single origin pour overs"]}
        ]"#;
        let req = ChatRequest::user(
            ModelKind::Gpt4o,
            rerank_prompt(pois, "a bar to watch football that serves chicken"),
        );
        let resp = llm.complete(&req).unwrap();
        let parsed = crate::tasks::rerank::parse_rerank_response(&resp.content);
        assert!(!parsed.is_empty());
        assert_eq!(parsed[0].0, "The Corner Tap");
    }

    #[test]
    fn querygen_end_to_end() {
        let llm = SimLlm::new();
        let req = ChatRequest::user(
            ModelKind::O1Mini,
            querygen_prompt("Pep Boys serves Automotive, Tires, Oil Change Stations, Auto Repair."),
        );
        let resp = llm.complete(&req).unwrap();
        assert!(resp.content.len() > 10);
        assert!(resp.content.contains('?') || resp.content.to_lowercase().contains("recommend"));
    }

    #[test]
    fn refinement_latency_in_paper_range() {
        // With ~10 realistic candidate POIs the simulated refinement call
        // should land in the paper's 2–3 s range.
        let llm = SimLlm::new();
        let pois: Vec<String> = (0..10)
            .map(|i| {
                format!(
                    "{{\"address\":\"100 Main Street, Downtown, Nashville\",\
                     \"categories\":\"Restaurants, Bars, American\",\
                     \"hours\":{{\"Friday\":\"9:0-23:0\",\"Monday\":\"9:0-21:0\",\
                     \"Tuesday\":\"9:0-21:0\"}},\"name\":\"POI {i}\",\
                     \"tips\":[\"big screens on every wall so you never miss a play\",\
                     \"saucy drums and flats, order extra blue cheese\",\
                     \"packed on game day but the kitchen keeps up\"]}}"
                )
            })
            .collect();
        let req = ChatRequest::user(
            ModelKind::Gpt4o,
            rerank_prompt(
                &format!("[{}]", pois.join(",")),
                "a bar to watch football that serves chicken wings",
            ),
        );
        let resp = llm.complete(&req).unwrap();
        assert!(
            (1_000.0..=5_000.0).contains(&resp.latency_ms),
            "latency {} ms",
            resp.latency_ms
        );
    }

    #[test]
    fn a_query_quoting_other_markers_is_still_refined() {
        let llm = SimLlm::new();
        let query = format!("{SUMMARIZE_MARKER}: a bar\nQuery: {QUERYGEN_MARKER}");
        let mut prompt = rerank_prompt(r#"[{"name":"Joe's Bar"}]"#, &query);
        for text in [prompt.clone(), {
            prompt.insert_str(0, "be brief\n");
            prompt
        }] {
            let resp = llm
                .complete(&ChatRequest::user(ModelKind::Gpt4o, text))
                .unwrap();
            // A summary or a question would not be a dictionary.
            assert!(resp.content.starts_with('{'), "{}", resp.content);
        }
    }

    #[test]
    fn unknown_prompt_rejected() {
        let llm = SimLlm::new();
        let req = ChatRequest::user(ModelKind::Gpt4o, "What is the capital of France?");
        assert_eq!(llm.complete(&req), Err(LlmError::UnrecognizedPrompt));
    }

    #[test]
    fn empty_request_rejected() {
        let llm = SimLlm::new();
        let req = ChatRequest {
            model: ModelKind::Gpt4o,
            messages: vec![],
        };
        assert_eq!(llm.complete(&req), Err(LlmError::EmptyRequest));
    }

    #[test]
    fn log_accumulates_and_resets() {
        let llm = SimLlm::new();
        let tips = vec!["great".to_owned()];
        for _ in 0..3 {
            llm.complete(&ChatRequest::user(
                ModelKind::Gpt35Turbo,
                summarize_prompt(&tips),
            ))
            .unwrap();
        }
        assert_eq!(llm.cost_log().num_calls(), 3);
        assert!(llm.cost_log().total_cost_usd() > 0.0);
        llm.reset_log();
        assert_eq!(llm.cost_log().num_calls(), 0);
    }
}
