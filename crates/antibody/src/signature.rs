//! Input signatures (paper §3.3).
//!
//! Sweeper starts with *exact-match* signatures ("very low false
//! positives, and impervious to malicious training") because VSEFs
//! provide the safety net, then optionally generalizes: a substring
//! signature covering the taint-implicated bytes, or a token-sequence
//! signature (Polygraph-style ordered disjoint substrings) derived from
//! multiple exploit samples.

/// A deployable input signature.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Signature {
    /// Matches only the exact exploit bytes.
    Exact(Vec<u8>),
    /// Matches any input containing the substring.
    Substring(Vec<u8>),
    /// Matches inputs containing all tokens, in order (Polygraph-lite).
    TokenSeq(Vec<Vec<u8>>),
}

impl Signature {
    /// Whether `input` matches this signature.
    pub fn matches(&self, input: &[u8]) -> bool {
        match self {
            Signature::Exact(e) => input == e.as_slice(),
            Signature::Substring(s) => {
                !s.is_empty() && input.windows(s.len()).any(|w| w == s.as_slice())
            }
            Signature::TokenSeq(tokens) => {
                let mut pos = 0usize;
                for t in tokens {
                    if t.is_empty() {
                        continue;
                    }
                    match find_from(input, pos, t) {
                        Some(at) => pos = at + t.len(),
                        None => return false,
                    }
                }
                !tokens.is_empty()
            }
        }
    }

    /// Short kind name for reports.
    pub fn kind(&self) -> &'static str {
        match self {
            Signature::Exact(_) => "exact",
            Signature::Substring(_) => "substring",
            Signature::TokenSeq(_) => "token-seq",
        }
    }
}

fn find_from(hay: &[u8], from: usize, needle: &[u8]) -> Option<usize> {
    let avail = hay.len().checked_sub(from)?;
    if needle.len() > avail {
        return None;
    }
    hay[from..]
        .windows(needle.len())
        .position(|w| w == needle)
        .map(|p| p + from)
}

/// Build an exact-match signature from the exploit input.
pub fn exact_from(input: &[u8]) -> Signature {
    Signature::Exact(input.to_vec())
}

/// Build a substring signature from the taint-implicated byte offsets:
/// the longest contiguous implicated run, widened to `min_len` with
/// surrounding context when the run alone is too short to be selective.
pub fn substring_from_taint(input: &[u8], offsets: &[u32], min_len: usize) -> Option<Signature> {
    if offsets.is_empty() {
        return None;
    }
    let mut offs: Vec<u32> = offsets
        .iter()
        .copied()
        .filter(|&o| (o as usize) < input.len())
        .collect();
    offs.sort_unstable();
    offs.dedup();
    if offs.is_empty() {
        return None;
    }
    // Longest contiguous run.
    let (mut best_start, mut best_len) = (offs[0], 1usize);
    let (mut cur_start, mut cur_len) = (offs[0], 1usize);
    for w in offs.windows(2) {
        if w[1] == w[0] + 1 {
            cur_len += 1;
        } else {
            cur_start = w[1];
            cur_len = 1;
        }
        if cur_len > best_len {
            best_start = cur_start;
            best_len = cur_len;
        }
    }
    let mut start = best_start as usize;
    let mut end = start + best_len;
    // Widen with context to reach min_len.
    while end - start < min_len && (start > 0 || end < input.len()) {
        start = start.saturating_sub(1);
        if end < input.len() && end - start < min_len {
            end += 1;
        }
    }
    Some(Signature::Substring(input[start..end].to_vec()))
}

/// Derive an ordered token-sequence signature common to all samples
/// (for polymorphic exploits): greedy longest-common-substring chaining.
pub fn tokens_from_samples(samples: &[&[u8]], min_token: usize) -> Option<Signature> {
    if samples.len() < 2 {
        return None;
    }
    let mut tokens: Vec<Vec<u8>> = Vec::new();
    // Cursors into every sample.
    let mut cursors = vec![0usize; samples.len()];
    loop {
        // Longest substring of samples[0][cursors[0]..] present (at or
        // after each cursor) in every other sample.
        let base = &samples[0][cursors[0]..];
        let mut best: Option<(usize, usize)> = None; // (start in base, len)
        for s in 0..base.len() {
            // Grow the match at this start as far as all samples allow.
            let mut len = 0usize;
            'grow: loop {
                let cand = &base[s..s + len + 1];
                for (i, samp) in samples.iter().enumerate().skip(1) {
                    if find_from(samp, cursors[i], cand).is_none() {
                        break 'grow;
                    }
                }
                len += 1;
                if s + len >= base.len() {
                    break;
                }
            }
            if len >= min_token && best.map(|(_, bl)| len > bl).unwrap_or(true) {
                best = Some((s, len));
            }
        }
        let Some((s, len)) = best else { break };
        let token = base[s..s + len].to_vec();
        // Advance all cursors past this token.
        cursors[0] += s + len;
        for (i, samp) in samples.iter().enumerate().skip(1) {
            // The grow loop found `token` in every sample; failing here
            // would be a bug, and yields no signature rather than a panic.
            let at = find_from(samp, cursors[i], &token)?;
            cursors[i] = at + token.len();
        }
        tokens.push(token);
        if tokens.len() >= 8 {
            break;
        }
    }
    if tokens.is_empty() {
        None
    } else {
        Some(Signature::TokenSeq(tokens))
    }
}

/// A deployable set of signatures (the proxy-side filter).
#[derive(Debug, Clone, Default)]
pub struct SignatureSet {
    sigs: Vec<Signature>,
}

impl SignatureSet {
    /// An empty set.
    pub fn new() -> SignatureSet {
        SignatureSet::default()
    }

    /// Add a signature.
    pub fn add(&mut self, sig: Signature) {
        if !self.sigs.contains(&sig) {
            self.sigs.push(sig);
        }
    }

    /// Whether any signature matches.
    pub fn matches(&self, input: &[u8]) -> bool {
        self.sigs.iter().any(|s| s.matches(input))
    }

    /// Number of deployed signatures.
    pub fn len(&self) -> usize {
        self.sigs.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.sigs.is_empty()
    }

    /// The signatures.
    pub fn all(&self) -> &[Signature] {
        &self.sigs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_matches_only_identical() {
        let s = exact_from(b"GET /evil");
        assert!(s.matches(b"GET /evil"));
        assert!(!s.matches(b"GET /evil "));
        assert!(!s.matches(b"get /evil"));
    }

    #[test]
    fn substring_matches_anywhere() {
        let s = Signature::Substring(b"~~~~@".to_vec());
        assert!(s.matches(b"ftp://~~~~@host/"));
        assert!(!s.matches(b"ftp://bob@host/"));
        assert!(
            !Signature::Substring(Vec::new()).matches(b"x"),
            "empty never matches"
        );
    }

    #[test]
    fn token_seq_requires_order() {
        let s = Signature::TokenSeq(vec![b"Directory ".to_vec(), b"Entry ".to_vec()]);
        assert!(s.matches(b"Directory a\nEntry b\n"));
        assert!(!s.matches(b"Entry b\nDirectory a\n"), "wrong order");
        assert!(!s.matches(b"Directory a\n"));
    }

    #[test]
    fn taint_substring_picks_longest_run() {
        let input = b"GET /AAAABBBBCCCC HTTP/1.0";
        // Offsets 9..17 contiguous; 2 isolated.
        let offsets: Vec<u32> = (9..17).chain([2]).collect();
        let sig = substring_from_taint(input, &offsets, 4).expect("sig");
        match &sig {
            Signature::Substring(s) => assert_eq!(s, b"BBBBCCCC"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn taint_substring_widens_short_runs() {
        let input = b"abcdefgh";
        let sig = substring_from_taint(input, &[3], 4).expect("sig");
        match &sig {
            Signature::Substring(s) => {
                assert_eq!(s.len(), 4);
                assert!(input.windows(4).any(|w| w == s.as_slice()));
                assert!(s.contains(&b'd'), "covers the implicated byte");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn taint_substring_handles_edges() {
        assert!(substring_from_taint(b"abc", &[], 2).is_none());
        assert!(
            substring_from_taint(b"abc", &[99], 2).is_none(),
            "out of range"
        );
        let s = substring_from_taint(b"ab", &[0, 1], 8).expect("sig");
        match s {
            Signature::Substring(v) => assert_eq!(v, b"ab", "capped at input length"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn tokens_from_polymorphic_samples() {
        let a = b"GET /AAAA HTTP/1.0\nReferer: gopher://x/\n";
        let b = b"GET /zzzz HTTP/1.0\nReferer: wais://y/\n";
        let sig = tokens_from_samples(&[a.as_slice(), b.as_slice()], 4).expect("sig");
        // The common structure matches both samples and a fresh variant.
        assert!(sig.matches(a));
        assert!(sig.matches(b));
        assert!(sig.matches(b"GET /qq HTTP/1.0\nReferer: telnet://z/\n"));
        // And not a plain benign request without a Referer.
        assert!(!sig.matches(b"POST /form\n"));
    }

    #[test]
    fn signature_set_dedups_and_matches() {
        let mut set = SignatureSet::new();
        set.add(exact_from(b"x"));
        set.add(exact_from(b"x"));
        set.add(Signature::Substring(b"evil".to_vec()));
        assert_eq!(set.len(), 2);
        assert!(set.matches(b"x"));
        assert!(set.matches(b"so evil input"));
        assert!(!set.matches(b"benign"));
    }
}
