//! Approximate token counting.
//!
//! A faithful BPE tokenizer is out of scope (and unnecessary: the paper's
//! token statistics are themselves approximate). The standard engineering
//! approximation for GPT-family tokenizers is ~4 characters per token for
//! English prose; we refine it slightly by never counting fewer tokens
//! than whitespace-separated words × 0.75, which handles short keyword-y
//! strings better.
//!
//! Every simulated call counts its whole prompt (some 14 KB for a
//! refinement over ten POIs), so the count reads ASCII eight bytes at a
//! time and decodes only non-ASCII chars; the count is that of the
//! formula over chars and `split_whitespace` words, exactly.

/// Approximate number of tokens in `text`: the larger of chars / 4 and
/// whitespace-separated words × 0.75, rounded up. One pass counts both.
///
/// ASCII is counted eight bytes at a time, with no decoding: each byte is
/// a char, whitespace if it is one of `\t \n \x0b \x0c \r` or a space
/// (what `char::is_whitespace` says of ASCII), and a word starts wherever
/// a byte that is not whitespace follows one that is (or starts the
/// text). A word of eight bytes holding a non-ASCII byte, and the tail
/// shorter than a word, go a char at a time; only a non-ASCII char is
/// decoded.
#[must_use]
pub fn approx_tokens(text: &str) -> u32 {
    const LO: u64 = 0x0101_0101_0101_0101;
    const HI: u64 = 0x8080_8080_8080_8080;
    if text.is_empty() {
        return 0;
    }
    let bytes = text.as_bytes();
    let (mut chars, mut words) = (0usize, 0usize);
    // Whether the char before the next one is whitespace.
    let mut after_space = true;
    let mut i = 0;
    while i < bytes.len() {
        while let Some(chunk) = bytes.get(i..i + 8) {
            let x = u64::from_le_bytes(chunk.try_into().expect("8 bytes"));
            if x & HI != 0 {
                break;
            }
            // The high bit of each byte that is a space, then of each
            // that is `\t`..=`\r`: every byte is below 0x80, so no sum
            // carries into the next byte.
            let t = x ^ (LO * u64::from(b' '));
            let blank = !(((t & !HI) + !HI) | t) & HI;
            let control = (x + LO * (0x80 - 9)) & !(x + LO * (0x80 - 14)) & HI;
            let space = blank | control;
            // The previous byte's whitespace bit, in each byte's place.
            let before = (space << 8) | (u64::from(after_space) << 7);
            words += (before & !space & HI).count_ones() as usize;
            after_space = space >> 63 != 0;
            chars += 8;
            i += 8;
        }
        let Some(c) = text[i..].chars().next() else {
            break;
        };
        i += c.len_utf8();
        let space = c.is_whitespace();
        chars += 1;
        words += usize::from(after_space && !space);
        after_space = space;
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
