//! Cost and latency accounting for simulated LLM calls.

use crate::api::Usage;
use crate::models::ModelKind;

/// The task a call performed (inferred from the prompt template).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TaskKind {
    /// Tip summarization.
    Summarize,
    /// Query-result refinement.
    Rerank,
    /// Test-query generation.
    QueryGen,
}

/// One metered call, as [`CostLog::push`] takes it.
#[derive(Debug, Clone)]
pub(crate) struct CallRecord {
    /// Which model served the call.
    pub model: ModelKind,
    /// Which task template the prompt matched.
    pub task: TaskKind,
    /// Token usage.
    pub usage: Usage,
    /// Simulated latency in milliseconds.
    pub latency_ms: f64,
    /// Simulated cost in USD.
    pub cost_usd: f64,
}

/// Cumulative totals of the calls of one `(model, task)` pair.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct Totals {
    calls: usize,
    prompt_tokens: u64,
    completion_tokens: u64,
    latency_ms: f64,
    cost_usd: f64,
}

impl Totals {
    fn add(&mut self, r: &CallRecord) {
        self.calls += 1;
        self.prompt_tokens += u64::from(r.usage.prompt_tokens);
        self.completion_tokens += u64::from(r.usage.completion_tokens);
        self.latency_ms += r.latency_ms;
        self.cost_usd += r.cost_usd;
    }
}

/// Models, in the order of [`ModelKind`]'s variants.
const MODELS: usize = 3;
/// Tasks, in the order of [`TaskKind`]'s variants.
const TASKS: usize = 3;

/// Cumulative call totals per `(model, task)`, with aggregate queries.
/// A record is folded into its pair's totals and not kept, so the log is
/// the same few cells however many calls it has seen.
#[derive(Debug, Clone, Copy, Default)]
pub struct CostLog {
    totals: [[Totals; TASKS]; MODELS],
}

impl CostLog {
    /// An empty log.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a call to its `(model, task)` totals.
    pub(crate) fn push(&mut self, record: CallRecord) {
        self.totals[record.model as usize][record.task as usize].add(&record);
    }

    /// Every pair's totals.
    fn cells(&self) -> impl Iterator<Item = &Totals> {
        self.totals.iter().flatten()
    }

    /// Number of calls.
    #[must_use]
    pub fn num_calls(&self) -> usize {
        self.cells().map(|t| t.calls).sum()
    }

    /// Total USD across all calls.
    #[must_use]
    pub fn total_cost_usd(&self) -> f64 {
        self.cells().map(|t| t.cost_usd).sum()
    }

    /// `(calls, total tokens, cost)` for one model.
    #[must_use]
    pub fn by_model(&self, model: ModelKind) -> (usize, u64, f64) {
        self.totals[model as usize]
            .iter()
            .fold((0, 0, 0.0), |(calls, tokens, cost), t| {
                (
                    calls + t.calls,
                    tokens + t.prompt_tokens + t.completion_tokens,
                    cost + t.cost_usd,
                )
            })
    }

    /// Clears the log.
    pub fn clear(&mut self) {
        *self = Self::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(model: ModelKind, prompt: u32, completion: u32) -> CallRecord {
        CallRecord {
            model,
            task: TaskKind::Rerank,
            usage: Usage {
                prompt_tokens: prompt,
                completion_tokens: completion,
            },
            latency_ms: model.latency_ms(prompt, completion),
            cost_usd: model.cost_usd(prompt, completion),
        }
    }

    #[test]
    fn aggregates() {
        let mut log = CostLog::new();
        log.push(rec(ModelKind::Gpt4o, 1000, 100));
        log.push(rec(ModelKind::Gpt4o, 2000, 200));
        log.push(rec(ModelKind::O1Mini, 500, 50));
        assert_eq!(log.num_calls(), 3);
        let (calls, tokens, cost) = log.by_model(ModelKind::Gpt4o);
        assert_eq!(calls, 2);
        assert_eq!(tokens, 3300);
        assert!(cost > 0.0);
        assert!(log.total_cost_usd() > cost);
    }

    #[test]
    fn the_log_does_not_grow_with_the_calls_it_counts() {
        // `Copy` types own no heap memory: a log is its inline cells.
        fn owns_nothing<T: Copy>(_: &T) {}
        let mut log = CostLog::new();
        for i in 0..100_000u32 {
            let model =
                [ModelKind::Gpt35Turbo, ModelKind::Gpt4o, ModelKind::O1Mini][i as usize % 3];
            log.push(rec(model, 100 + i % 7, 10));
        }
        owns_nothing(&log);
        assert_eq!(std::mem::size_of_val(&log), std::mem::size_of::<CostLog>());
        assert_eq!(log.num_calls(), 100_000);
        let (calls, tokens, _) = log.by_model(ModelKind::Gpt4o);
        assert_eq!(calls, 33_333);
        assert!(tokens > 33_333 * 110);
    }

    #[test]
    fn empty_log() {
        let log = CostLog::new();
        assert_eq!(log.total_cost_usd(), 0.0);
    }
}
