//! Collapsed Gibbs sampling for LDA.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use textindex::TermId;

/// LDA hyper-parameters.
#[derive(Debug, Clone)]
pub struct LdaConfig {
    /// Number of latent topics.
    pub num_topics: usize,
    /// Symmetric document–topic prior.
    pub alpha: f64,
    /// Symmetric topic–word prior.
    pub beta: f64,
    /// Gibbs sweeps over the corpus during training.
    pub iterations: usize,
    /// Gibbs sweeps when folding in an unseen document.
    pub infer_iterations: usize,
    /// RNG seed (training is deterministic given the seed).
    pub seed: u64,
}

impl Default for LdaConfig {
    fn default() -> Self {
        Self {
            num_topics: 20,
            alpha: 0.1,
            beta: 0.01,
            iterations: 150,
            infer_iterations: 30,
            seed: 42,
        }
    }
}

/// A trained LDA model.
#[derive(Debug, Clone)]
pub struct LdaModel {
    config: LdaConfig,
    vocab_size: usize,
    /// `topic_word[k * vocab_size + w]` = count of word `w` in topic `k`.
    topic_word: Vec<u32>,
    /// Total words per topic.
    topic_totals: Vec<u32>,
    /// Per-document topic distributions of the training corpus.
    doc_topics: Vec<Vec<f64>>,
}

impl LdaModel {
    /// Trains LDA on tokenized documents (term ids must be `< vocab_size`).
    ///
    /// Empty documents are allowed; they get the uniform distribution.
    #[must_use]
    pub fn fit(docs: &[Vec<TermId>], vocab_size: usize, config: LdaConfig) -> Self {
        let k = config.num_topics.max(1);
        let v = vocab_size.max(1);
        let mut rng = StdRng::seed_from_u64(config.seed);

        let mut topic_word = vec![0u32; k * v];
        let mut topic_totals = vec![0u32; k];
        let mut doc_topic: Vec<Vec<u32>> = vec![vec![0u32; k]; docs.len()];
        // z[d][i] = topic of the i-th token of doc d.
        let mut z: Vec<Vec<u16>> = Vec::with_capacity(docs.len());

        // Random initialization.
        for (d, doc) in docs.iter().enumerate() {
            let mut zd = Vec::with_capacity(doc.len());
            for &w in doc {
                let t = rng.gen_range(0..k);
                zd.push(t as u16);
                doc_topic[d][t] += 1;
                topic_word[t * v + w as usize] += 1;
                topic_totals[t] += 1;
            }
            z.push(zd);
        }

        let alpha = config.alpha;
        let beta = config.beta;
        let vbeta = v as f64 * beta;
        let mut probs = vec![0.0f64; k];

        for _ in 0..config.iterations {
            for (d, doc) in docs.iter().enumerate() {
                for (i, &w) in doc.iter().enumerate() {
                    let old = z[d][i] as usize;
                    // Remove the token from the counts.
                    doc_topic[d][old] -= 1;
                    topic_word[old * v + w as usize] -= 1;
                    topic_totals[old] -= 1;

                    // Full conditional.
                    let mut sum = 0.0;
                    for (t, p) in probs.iter_mut().enumerate() {
                        let pw = (f64::from(topic_word[t * v + w as usize]) + beta)
                            / (f64::from(topic_totals[t]) + vbeta);
                        let pt = f64::from(doc_topic[d][t]) + alpha;
                        *p = pw * pt;
                        sum += *p;
                    }
                    // Sample.
                    let mut target = rng.gen_range(0.0..sum);
                    let mut new = k - 1;
                    for (t, &p) in probs.iter().enumerate() {
                        if target < p {
                            new = t;
                            break;
                        }
                        target -= p;
                    }

                    z[d][i] = new as u16;
                    doc_topic[d][new] += 1;
                    topic_word[new * v + w as usize] += 1;
                    topic_totals[new] += 1;
                }
            }
        }

        // Final document distributions.
        let doc_topics: Vec<Vec<f64>> = docs
            .iter()
            .enumerate()
            .map(|(d, doc)| {
                let n = doc.len() as f64;
                (0..k)
                    .map(|t| (f64::from(doc_topic[d][t]) + alpha) / (n + k as f64 * alpha))
                    .collect()
            })
            .collect();

        Self {
            config,
            vocab_size: v,
            topic_word,
            topic_totals,
            doc_topics,
        }
    }

    /// Number of topics.
    #[must_use]
    pub fn num_topics(&self) -> usize {
        self.config.num_topics.max(1)
    }

    /// Topic distribution of training document `d`.
    #[must_use]
    pub fn doc_topics(&self, d: usize) -> Option<&[f64]> {
        self.doc_topics.get(d).map(Vec::as_slice)
    }

    /// Folds in an unseen tokenized document (Gibbs with frozen
    /// topic–word counts) and returns its topic distribution.
    ///
    /// Out-of-vocabulary term ids are skipped.
    #[must_use]
    pub fn infer(&self, doc: &[TermId], seed: u64) -> Vec<f64> {
        let k = self.num_topics();
        let v = self.vocab_size;
        let alpha = self.config.alpha;
        let beta = self.config.beta;
        let vbeta = v as f64 * beta;
        let tokens: Vec<u32> = doc.iter().copied().filter(|&w| (w as usize) < v).collect();
        if tokens.is_empty() {
            return vec![1.0 / k as f64; k];
        }
        let mut rng = StdRng::seed_from_u64(seed ^ self.config.seed);
        let mut counts = vec![0u32; k];
        let mut z: Vec<usize> = tokens.iter().map(|_| rng.gen_range(0..k)).collect();
        for &t in &z {
            counts[t] += 1;
        }
        let mut probs = vec![0.0f64; k];
        for _ in 0..self.config.infer_iterations {
            for (i, &w) in tokens.iter().enumerate() {
                let old = z[i];
                counts[old] -= 1;
                let mut sum = 0.0;
                for (t, p) in probs.iter_mut().enumerate() {
                    let pw = (f64::from(self.topic_word[t * v + w as usize]) + beta)
                        / (f64::from(self.topic_totals[t]) + vbeta);
                    let pt = f64::from(counts[t]) + alpha;
                    *p = pw * pt;
                    sum += *p;
                }
                let mut target = rng.gen_range(0.0..sum);
                let mut new = k - 1;
                for (t, &p) in probs.iter().enumerate() {
                    if target < p {
                        new = t;
                        break;
                    }
                    target -= p;
                }
                z[i] = new;
                counts[new] += 1;
            }
        }
        let n = tokens.len() as f64;
        (0..k)
            .map(|t| (f64::from(counts[t]) + alpha) / (n + k as f64 * alpha))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two clearly separated word groups: topics should separate them.
    fn synthetic_corpus() -> (Vec<Vec<TermId>>, usize) {
        // Vocab: 0..5 = "sports" words, 5..10 = "food" words.
        let mut docs = Vec::new();
        for d in 0..30 {
            let base: u32 = if d % 2 == 0 { 0 } else { 5 };
            let doc: Vec<TermId> = (0..20).map(|i| base + (i % 5)).collect();
            docs.push(doc);
        }
        (docs, 10)
    }

    #[test]
    fn fit_is_deterministic() {
        let (docs, v) = synthetic_corpus();
        let cfg = LdaConfig {
            num_topics: 2,
            iterations: 50,
            ..LdaConfig::default()
        };
        let a = LdaModel::fit(&docs, v, cfg.clone());
        let b = LdaModel::fit(&docs, v, cfg);
        assert_eq!(a.doc_topics(0), b.doc_topics(0));
    }

    #[test]
    fn separable_corpus_separates() {
        let (docs, v) = synthetic_corpus();
        let cfg = LdaConfig {
            num_topics: 2,
            iterations: 100,
            ..LdaConfig::default()
        };
        let m = LdaModel::fit(&docs, v, cfg);
        let even = m.doc_topics(0).unwrap();
        let odd = m.doc_topics(1).unwrap();
        // Dominant topics of the two doc families differ.
        let top_even = even
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        let top_odd = odd
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert_ne!(top_even, top_odd);
        assert!(even[top_even] > 0.8);
    }

    #[test]
    fn distributions_sum_to_one() {
        let (docs, v) = synthetic_corpus();
        let m = LdaModel::fit(
            &docs,
            v,
            LdaConfig {
                num_topics: 4,
                iterations: 20,
                ..LdaConfig::default()
            },
        );
        for d in 0..docs.len() {
            let s: f64 = m.doc_topics(d).unwrap().iter().sum();
            assert!((s - 1.0).abs() < 1e-9, "doc {d} sums to {s}");
        }
    }

    #[test]
    fn infer_assigns_similar_docs_same_topic() {
        let (docs, v) = synthetic_corpus();
        let cfg = LdaConfig {
            num_topics: 2,
            iterations: 100,
            ..LdaConfig::default()
        };
        let m = LdaModel::fit(&docs, v, cfg);
        let sports_like = m.infer(&[0, 1, 2, 3, 4, 0, 1], 7);
        let train_sports = m.doc_topics(0).unwrap();
        let top_new = sports_like
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        let top_train = train_sports
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(top_new, top_train);
    }

    #[test]
    fn infer_handles_oov_and_empty() {
        let (docs, v) = synthetic_corpus();
        let m = LdaModel::fit(
            &docs,
            v,
            LdaConfig {
                num_topics: 3,
                iterations: 10,
                ..LdaConfig::default()
            },
        );
        let uniform = m.infer(&[], 1);
        assert!(uniform.iter().all(|&p| (p - 1.0 / 3.0).abs() < 1e-9));
        // OOV ids are skipped rather than panicking.
        let dist = m.infer(&[999, 1000], 1);
        assert_eq!(dist.len(), 3);
    }

    #[test]
    fn empty_docs_allowed_in_training() {
        let docs = vec![vec![], vec![0, 1], vec![]];
        let m = LdaModel::fit(
            &docs,
            2,
            LdaConfig {
                num_topics: 2,
                iterations: 5,
                ..LdaConfig::default()
            },
        );
        let d0 = m.doc_topics(0).unwrap();
        assert!((d0.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }
}
