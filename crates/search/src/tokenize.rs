//! Tokenization and vocabulary management for text pages.
//!
//! The synthetic corpus already speaks term ids, but real deployments (and
//! our text-based example) start from strings: `Vocabulary` interns
//! lowercase alphanumeric tokens into dense `u32` ids — the "vocabulary
//! containing all the words in the crawled web pages" of §3.2.

use std::collections::HashMap;

/// Lowercase alphanumeric tokens of `text`, in order.
pub fn tokenize(text: &str) -> Vec<String> {
    text.split(|c: char| !c.is_alphanumeric())
        .filter(|t| !t.is_empty())
        .map(|t| t.to_lowercase())
        .collect()
}

/// An interning vocabulary: token string → dense term id.
#[derive(Clone, Debug, Default)]
pub struct Vocabulary {
    by_token: HashMap<String, u32>,
    tokens: Vec<String>,
}

impl Vocabulary {
    /// Empty vocabulary.
    pub fn new() -> Self {
        Vocabulary::default()
    }

    /// Intern `token`, returning its id (existing or fresh).
    pub fn intern(&mut self, token: &str) -> u32 {
        if let Some(&id) = self.by_token.get(token) {
            return id;
        }
        let id = u32::try_from(self.tokens.len()).expect("vocabulary overflow");
        self.by_token.insert(token.to_string(), id);
        self.tokens.push(token.to_string());
        id
    }

    /// Look up a token without interning.
    pub fn get(&self, token: &str) -> Option<u32> {
        self.by_token.get(token).copied()
    }

    /// The token behind an id.
    pub fn token(&self, id: u32) -> Option<&str> {
        self.tokens.get(id as usize).map(String::as_str)
    }

    /// Number of interned tokens.
    pub fn len(&self) -> usize {
        self.tokens.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.tokens.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenize_splits_and_lowercases() {
        assert_eq!(
            tokenize("Hello, World! rust-lang 2024"),
            vec!["hello", "world", "rust", "lang", "2024"]
        );
        assert!(tokenize("  ,,, ").is_empty());
    }

    #[test]
    fn intern_is_idempotent() {
        let mut v = Vocabulary::new();
        let a = v.intern("apple");
        let b = v.intern("banana");
        assert_ne!(a, b);
        assert_eq!(v.intern("apple"), a);
        assert_eq!(v.len(), 2);
        assert_eq!(v.token(a), Some("apple"));
        assert_eq!(v.get("cherry"), None);
    }
}
