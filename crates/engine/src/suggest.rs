//! Did-you-mean suggestions for string-keyed registry lookups.
//!
//! Every user-facing surface of the workspace selects things by string key —
//! scenarios and backends in `bhsim`, job fields in `bhserve`, command-line
//! flags everywhere (`crate::cli`) — and a typo used to produce a bare
//! "unknown X" error.  This module is the one shared helper behind those messages: it
//! picks the closest registered key (bounded edit distance, with a prefix
//! fast path for truncated input) and formats the standard error line.

/// Maximum edit distance at which a candidate still counts as "close".
/// Scaled with the input so short keys (`upc`, `mpi`) don't suggest each
/// other for arbitrary garbage while long keys tolerate a couple of typos.
fn max_distance(input: &str) -> usize {
    1 + input.chars().count() / 4
}

/// Optimal-string-alignment (restricted Damerau-Levenshtein) distance over
/// chars: insertions, deletions, substitutions, and adjacent transpositions
/// each cost 1, so the most common keyboard slip (`mip` → `mpi`) stays
/// within reach of short keys' distance budget.
fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev2 = vec![0usize; b.len() + 1];
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut row = vec![0usize; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        row[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            let mut best = sub.min(prev[j + 1] + 1).min(row[j] + 1);
            if i > 0 && j > 0 && ca == b[j - 1] && a[i - 1] == cb {
                best = best.min(prev2[j - 1] + 1);
            }
            row[j + 1] = best;
        }
        std::mem::swap(&mut prev2, &mut prev);
        std::mem::swap(&mut prev, &mut row);
    }
    prev[b.len()]
}

/// The closest candidate to `input`, if any is close enough to plausibly be
/// what the user meant.  A candidate that extends the input as a prefix
/// (`plum` → `plummer`) always qualifies; otherwise the edit distance must
/// stay within [`max_distance`].  Ties go to the earliest candidate, so
/// registration order breaks them deterministically.
pub fn suggest<'a>(input: &str, candidates: impl IntoIterator<Item = &'a str>) -> Option<&'a str> {
    let mut best: Option<(usize, &'a str)> = None;
    for candidate in candidates {
        if candidate == input {
            return Some(candidate);
        }
        let score = if !input.is_empty() && candidate.starts_with(input) {
            0
        } else {
            let d = edit_distance(input, candidate);
            if d > max_distance(input) {
                continue;
            }
            d
        };
        if best.is_none_or(|(s, _)| score < s) {
            best = Some((score, candidate));
        }
    }
    best.map(|(_, c)| c)
}

/// Formats the standard unknown-key error: kind, offending key, an optional
/// did-you-mean, and the registered names.  Shared by `bhsim`, `bhserve`
/// and the backend registry, so every lookup surface reports typos
/// identically.
pub fn unknown_key(kind: &str, input: &str, candidates: &[&str]) -> String {
    match suggest(input, candidates.iter().copied()) {
        Some(near) => format!(
            "unknown {kind}: {input} (did you mean {near:?}? registered: {})",
            candidates.join(", ")
        ),
        None => format!("unknown {kind}: {input} (registered: {})", candidates.join(", ")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_is_osa_damerau_levenshtein() {
        assert_eq!(edit_distance("", ""), 0);
        assert_eq!(edit_distance("abc", "abc"), 0);
        assert_eq!(edit_distance("kitten", "sitting"), 3);
        assert_eq!(edit_distance("", "abc"), 3);
        // Adjacent transpositions cost 1, not 2.
        assert_eq!(edit_distance("mip", "mpi"), 1);
        assert_eq!(edit_distance("dierct", "direct"), 1);
    }

    #[test]
    fn close_typos_and_prefixes_are_suggested() {
        let names = ["plummer", "king", "hernquist", "exp-disk", "cold-cube", "merger"];
        assert_eq!(suggest("plumer", names), Some("plummer"));
        assert_eq!(suggest("plum", names), Some("plummer"));
        assert_eq!(suggest("kign", names), Some("king"));
        assert_eq!(suggest("hernqust", names), Some("hernquist"));
        // Garbage suggests nothing rather than something misleading.
        assert_eq!(suggest("xyzzy-42", names), None);
        assert_eq!(suggest("", names), None);
    }

    #[test]
    fn short_keys_do_not_suggest_each_other_for_garbage() {
        let names = ["upc", "mpi", "direct"];
        assert_eq!(suggest("upk", names), Some("upc"));
        assert_eq!(suggest("mip", names), Some("mpi"));
        assert_eq!(suggest("zzzzz", names), None);
    }

    #[test]
    fn unknown_key_formats_with_and_without_a_suggestion() {
        let with = unknown_key("backend", "upk", &["upc", "mpi", "direct"]);
        assert!(with.starts_with("unknown backend: upk"), "{with}");
        assert!(with.contains("did you mean \"upc\"?"), "{with}");
        assert!(with.contains("registered: upc, mpi, direct"), "{with}");
        let without = unknown_key("backend", "qqqqq", &["upc", "mpi", "direct"]);
        assert!(!without.contains("did you mean"), "{without}");
        assert!(without.contains("registered: upc, mpi, direct"), "{without}");
    }
}
