//! Approximate token counting.
//!
//! A faithful BPE tokenizer is out of scope (and unnecessary: the paper's
//! token statistics are themselves approximate). The standard engineering
//! approximation for GPT-family tokenizers is ~4 characters per token for
//! English prose; we refine it slightly by never counting fewer tokens
//! than whitespace-separated words × 0.75, which handles short keyword-y
//! strings better.

/// Approximate number of tokens in `text`: the larger of chars / 4 and
/// whitespace-separated words × 0.75, rounded up. One pass counts both;
/// an ASCII byte is a char on its own, whitespace if it is one of
/// `\t \n \x0b \x0c \r` or a space (what `char::is_whitespace` says of
/// ASCII), and only a non-ASCII char is decoded.
#[must_use]
pub fn approx_tokens(text: &str) -> u32 {
    if text.is_empty() {
        return 0;
    }
    let bytes = text.as_bytes();
    let (mut chars, mut words) = (0usize, 0usize);
    let mut in_word = false;
    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i];
        let space = if b.is_ascii() {
            i += 1;
            matches!(b, b' ' | b'\t'..=b'\r')
        } else {
            let c = text[i..].chars().next().expect("i is a char boundary");
            i += c.len_utf8();
            c.is_whitespace()
        };
        chars += 1;
        words += usize::from(!space && !in_word);
        in_word = !space;
    }
    let by_chars = chars as f64 / 4.0;
    let by_words = words as f64 * 0.75;
    by_chars.max(by_words).ceil() as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_is_zero() {
        assert_eq!(approx_tokens(""), 0);
    }

    #[test]
    fn prose_is_roughly_chars_over_four() {
        let text = "The feedback highlights a mix of experiences at Sonic.";
        let t = approx_tokens(text);
        assert!((10..=20).contains(&t), "got {t}");
    }

    #[test]
    fn monotone_in_length() {
        let a = approx_tokens("short text");
        let b = approx_tokens("short text that keeps going with many more words added");
        assert!(b > a);
    }

    #[test]
    fn tip_scale_sanity() {
        // The paper: ~147 tokens across ~11 tips → ~13 tokens/tip, i.e. a
        // one-sentence review.
        let tip = "Amazing ice cream! So creamy and the staff were lovely.";
        let t = approx_tokens(tip);
        assert!((10..=20).contains(&t), "got {t}");
    }
}
