//! An embedded frequent-word list standing in for the Corpus of
//! Contemporary American English (COCA) top-5000 the paper samples from
//! (§6, \[6\]).
//!
//! The list below contains ~470 of the most common English words restricted
//! to lowercase `a`–`z` (the font's coverage), spanning lengths 2–10 and
//! including the words the paper shows being written ("play", "clear",
//! "import"). It also serves as the recognition dictionary for word
//! decoding, mirroring how a handwriting app leverages a lexicon (§9.2).

use rand::seq::SliceRandom;
use rand::Rng;

/// The embedded word list.
#[derive(Debug, Clone)]
pub struct Corpus {
    words: Vec<&'static str>,
}

const COMMON_WORDS: &[&str] = &[
    // Paper examples first.
    "play", "clear", "import",
    // 2–3 letters.
    "be", "to", "of", "in", "it", "on", "he", "as", "do", "at", "by", "we",
    "or", "an", "my", "so", "up", "if", "go", "me", "no", "us", "am",
    "the", "and", "for", "are", "but", "not", "you", "all", "any", "can",
    "had", "her", "was", "one", "our", "out", "day", "get", "has", "him",
    "his", "how", "man", "new", "now", "old", "see", "two", "way", "who",
    "boy", "did", "its", "let", "put", "say", "she", "too", "use", "end",
    "why", "try", "ask", "men", "run", "own", "big", "few", "yes", "car",
    "eat", "far", "sea", "eye", "job", "lot", "war", "map", "art", "act",
    // 4 letters.
    "that", "with", "have", "this", "will", "your", "from", "they", "know",
    "want", "been", "good", "much", "some", "time", "very", "when", "come",
    "here", "just", "like", "long", "make", "many", "more", "only", "over",
    "such", "take", "than", "them", "well", "were", "what", "work", "year",
    "back", "call", "came", "each", "even", "find", "give", "hand", "high",
    "keep", "last", "left", "life", "live", "look", "made", "most", "move",
    "must", "name", "need", "next", "open", "part", "same", "seem", "show",
    "side", "tell", "turn", "used", "want", "ways", "week", "went", "word",
    "home", "love", "line", "read", "door", "face", "fact", "feel", "girl",
    "head", "help", "idea", "kind", "land", "mind", "real", "room", "said",
    "stop", "talk", "walk", "wall", "city", "down", "game", "half", "hear",
    "hold", "hope", "hour", "late", "mean", "near", "once", "plan", "rest",
    "road", "rock", "seat", "ship", "shop", "sing", "site", "size", "skin",
    "star", "stay", "step", "sure", "team", "town", "tree", "view", "vote",
    "wait", "warm", "wear", "wife", "wind", "wish", "able", "area", "away",
    "best", "body", "book", "born", "both", "care", "case", "cost", "dark",
    "data", "days", "dead", "deal", "dear", "deep", "does", "done", "draw",
    "drop", "easy", "else", "ever", "fall", "fast", "fear", "fine", "fire",
    "fish", "five", "food", "foot", "form", "four", "free", "full", "gave",
    // 5 letters.
    "about", "after", "again", "began", "being", "below", "between", "black",
    "bring", "build", "carry", "cause", "check", "child", "class", "close",
    "color", "could", "cover", "cross", "doing", "early", "earth", "every",
    "field", "first", "found", "front", "given", "going", "great", "green",
    "group", "happy", "heard", "heart", "heavy", "horse", "house", "human",
    "large", "learn", "leave", "level", "light", "local", "might", "money",
    "month", "music", "never", "night", "north", "often", "order", "other",
    "paper", "party", "peace", "piece", "place", "plant", "point", "power",
    "press", "quite", "reach", "right", "river", "round", "seven", "shall",
    "share", "short", "since", "small", "sound", "south", "space", "speak",
    "stand", "start", "state", "still", "story", "study", "table", "their",
    "there", "these", "thing", "think", "three", "today", "together", "total",
    "touch", "under", "until", "value", "voice", "watch", "water", "where",
    "which", "while", "white", "whole", "woman", "world", "would", "write",
    "wrong", "young", "above", "along", "among", "asked", "basic", "began",
    "blood", "board", "break", "brown", "chair", "cheap", "chief", "clean",
    "court", "daily", "dance", "death", "dream", "dress", "drink", "drive",
    "eight", "enjoy", "enter", "equal", "exist", "extra", "faith", "false",
    "fight", "final", "floor", "focus", "force", "fresh", "fruit", "funny",
    "glass", "grand", "grass", "guess", "happy", "hotel", "image", "issue",
    "judge", "knife", "known", "labor", "later", "laugh", "limit", "lower",
    // 6 letters.
    "accept", "across", "action", "almost", "always", "amount", "animal",
    "answer", "anyone", "appear", "around", "become", "before", "behind",
    "better", "beyond", "bought", "bridge", "broken", "budget", "button",
    "camera", "cannot", "center", "chance", "change", "choice", "choose",
    "church", "circle", "closed", "common", "copper", "corner", "county",
    "couple", "course", "create", "credit", "danger", "decide", "degree",
    "design", "detail", "doctor", "dollar", "double", "during", "effect",
    "effort", "eleven", "energy", "enough", "entire", "expect", "family",
    "famous", "father", "figure", "finger", "finish", "follow", "forest",
    "forget", "formal", "friend", "future", "garden", "ground",
    "growth", "happen", "health", "island", "itself", "letter", "listen",
    "little", "living", "making", "manner", "market", "matter", "member",
    "memory", "middle", "minute", "modern", "moment", "mother", "moving",
    "myself", "nation", "nature", "nearly", "nobody", "normal", "notice",
    "number", "object", "office", "padding", "people", "period", "person",
    "picture", "planet", "please", "plenty", "policy", "pretty", "public",
    "reason", "recent", "record", "remain", "report", "result", "return",
    "school", "season", "second", "secret", "sector", "senior", "series",
    "should", "silver", "simple", "single", "sister", "smooth", "social",
    "spring", "square", "stream", "street", "strong", "summer", "supply",
    "system", "theory", "thirty", "toward", "travel", "trying", "twenty",
    "unless", "wanted", "window", "winter", "wonder", "worker", "writer",
    // 7+ letters.
    "because", "believe", "between", "brought", "business", "certain",
    "company", "country", "develop", "different", "evening", "everyone",
    "example", "feeling", "finally", "general", "history", "however",
    "hundred", "husband", "imagine", "include", "instead", "interest",
    "machine", "million", "morning", "nothing", "outside", "perhaps",
    "picture", "present", "problem", "process", "produce", "program",
    "provide", "purpose", "quality", "question", "quickly", "receive",
    "remember", "research", "science", "service", "several", "similar",
    "society", "special", "station", "student", "subject", "success",
    "support", "teacher", "thought", "through", "together", "tonight",
    "usually", "village", "whether", "without", "building", "children",
    "computer", "consider", "continue", "decision", "describe", "economic",
    "education", "important", "increase", "industry", "language", "national",
    "personal", "position", "possible", "practice", "pressure", "probably",
    "remember", "security", "sentence", "somebody", "standard", "strength",
];

impl Corpus {
    /// The embedded frequent-word corpus, deduplicated and filtered to the
    /// font's `a`–`z` coverage.
    pub fn common() -> Self {
        let mut words: Vec<&'static str> = COMMON_WORDS
            .iter()
            .copied()
            .filter(|w| !w.is_empty() && w.chars().all(|c| c.is_ascii_lowercase()))
            .collect();
        words.sort_unstable();
        words.dedup();
        Self { words }
    }

    /// All words.
    pub fn words(&self) -> &[&'static str] {
        &self.words
    }

    /// Number of words.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// Whether the corpus is empty (never, for [`Corpus::common`]).
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Whether a word is in the corpus.
    pub fn contains(&self, word: &str) -> bool {
        self.words.binary_search(&word).is_ok()
    }

    /// Samples `n` words uniformly with replacement — the paper's protocol
    /// of writing randomly-sampled common words.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R, n: usize) -> Vec<&'static str> {
        (0..n)
            .map(|_| *self.words.choose(rng).expect("corpus is non-empty"))
            .collect()
    }

    /// Words of an exact length.
    pub fn with_length(&self, len: usize) -> Vec<&'static str> {
        self.words
            .iter()
            .copied()
            .filter(|w| w.len() == len)
            .collect()
    }

    /// Words of length ≥ `len` (the Fig. 15 "≥6" bucket).
    pub fn with_length_at_least(&self, len: usize) -> Vec<&'static str> {
        self.words
            .iter()
            .copied()
            .filter(|w| w.len() >= len)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn corpus_is_substantial_and_clean() {
        let c = Corpus::common();
        assert!(c.len() >= 400, "only {} words", c.len());
        for w in c.words() {
            assert!(w.chars().all(|ch| ch.is_ascii_lowercase()), "dirty word {w:?}");
            assert!(w.len() >= 2);
        }
    }

    #[test]
    fn paper_examples_are_present() {
        let c = Corpus::common();
        for w in ["play", "clear", "import"] {
            assert!(c.contains(w), "missing paper example {w:?}");
        }
    }

    #[test]
    fn no_duplicates_and_sorted() {
        let c = Corpus::common();
        for w in c.words().windows(2) {
            assert!(w[0] < w[1], "duplicate or unsorted: {:?}", w);
        }
    }

    #[test]
    fn contains_rejects_nonwords() {
        let c = Corpus::common();
        assert!(!c.contains("zzzzz"));
        assert!(!c.contains(""));
    }

    #[test]
    fn sampling_is_reproducible_and_in_corpus() {
        let c = Corpus::common();
        let a = c.sample(&mut StdRng::seed_from_u64(1), 150);
        let b = c.sample(&mut StdRng::seed_from_u64(1), 150);
        assert_eq!(a, b);
        assert_eq!(a.len(), 150);
        for w in &a {
            assert!(c.contains(w));
        }
    }

    #[test]
    fn length_buckets_cover_fig15_range() {
        let c = Corpus::common();
        for len in 2..=5 {
            assert!(
                c.with_length(len).len() >= 10,
                "too few {len}-letter words: {}",
                c.with_length(len).len()
            );
        }
        assert!(c.with_length_at_least(6).len() >= 30);
    }

    #[test]
    fn every_corpus_word_lays_out() {
        let c = Corpus::common();
        for w in c.words() {
            assert!(
                crate::layout::layout_word(w, 0.1, 0.02).is_ok(),
                "word {w:?} fails layout"
            );
        }
    }
}
