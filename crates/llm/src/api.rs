//! Chat-completion request/response types.

use std::borrow::Cow;

use crate::models::ModelKind;

/// A chat-completion request.
#[derive(Debug, Clone)]
pub struct ChatRequest {
    /// Target model.
    pub model: ModelKind,
    /// The messages' text (the engine concatenates it).
    pub(crate) messages: Vec<String>,
}

impl ChatRequest {
    /// A single-user-message request.
    #[must_use]
    pub fn user(model: ModelKind, content: impl Into<String>) -> Self {
        Self {
            model,
            messages: vec![content.into()],
        }
    }

    /// Prompt text of all messages, joined by newlines; the one
    /// message's text itself, borrowed, when there is one.
    #[must_use]
    pub(crate) fn full_text(&self) -> Cow<'_, str> {
        if let [only] = self.messages.as_slice() {
            return Cow::Borrowed(only);
        }
        Cow::Owned(self.messages.join("\n"))
    }
}

/// Token accounting for one call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Usage {
    /// Tokens in the prompt.
    pub prompt_tokens: u32,
    /// Tokens in the completion.
    pub completion_tokens: u32,
}

impl Usage {
    /// Total tokens.
    #[must_use]
    pub fn total(&self) -> u32 {
        self.prompt_tokens + self.completion_tokens
    }
}

/// A chat-completion response.
#[derive(Debug, Clone, PartialEq)]
pub struct ChatResponse {
    /// The model that answered.
    pub model: ModelKind,
    /// Completion text.
    pub content: String,
    /// Token usage.
    pub usage: Usage,
    /// Simulated end-to-end latency in milliseconds (virtual clock — no
    /// actual sleeping happens).
    pub latency_ms: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_text_joins_messages() {
        let r = ChatRequest {
            model: ModelKind::Gpt4o,
            messages: vec!["be brief".to_owned(), "hello".to_owned()],
        };
        assert_eq!(r.full_text(), "be brief\nhello");
    }

    #[test]
    fn usage_total() {
        let u = Usage {
            prompt_tokens: 10,
            completion_tokens: 5,
        };
        assert_eq!(u.total(), 15);
    }
}
