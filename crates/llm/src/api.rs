//! Chat-completion request/response types.

use std::borrow::Cow;

use crate::models::ModelKind;

/// Message author role.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// System instruction.
    System,
    /// End-user message.
    User,
    /// Model output.
    Assistant,
}

/// One chat message.
#[derive(Debug, Clone, PartialEq)]
pub struct ChatMessage {
    /// Author role.
    pub role: Role,
    /// Message text.
    pub content: String,
}

impl ChatMessage {
    /// A user message.
    #[must_use]
    pub fn user(content: impl Into<String>) -> Self {
        Self {
            role: Role::User,
            content: content.into(),
        }
    }

    /// A system message.
    #[must_use]
    pub fn system(content: impl Into<String>) -> Self {
        Self {
            role: Role::System,
            content: content.into(),
        }
    }
}

/// A chat-completion request.
#[derive(Debug, Clone)]
pub struct ChatRequest {
    /// Target model.
    pub model: ModelKind,
    /// Conversation so far (the engine concatenates all message text).
    pub messages: Vec<ChatMessage>,
}

impl ChatRequest {
    /// A single-user-message request.
    #[must_use]
    pub fn user(model: ModelKind, content: impl Into<String>) -> Self {
        Self {
            model,
            messages: vec![ChatMessage::user(content)],
        }
    }

    /// Prompt text of all messages, joined by newlines; the one
    /// message's text itself, borrowed, when there is one.
    #[must_use]
    pub fn full_text(&self) -> Cow<'_, str> {
        if let [only] = self.messages.as_slice() {
            return Cow::Borrowed(&only.content);
        }
        let mut s = String::new();
        for m in &self.messages {
            if !s.is_empty() {
                s.push('\n');
            }
            s.push_str(&m.content);
        }
        Cow::Owned(s)
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
            messages: vec![ChatMessage::system("be brief"), ChatMessage::user("hello")],
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
