//! Property tests for the core additions: the AS-path regex against
//! a brute-force reference.

use bgpstream::AsPathRegex;
use proptest::prelude::*;

/// Reference implementation of unanchored-pattern search: try the
/// compiled pattern anchored at every offset via exact recursion.
fn reference_match(pat: &[PatTok], toks: &[u32]) -> bool {
    fn anchored(pat: &[PatTok], toks: &[u32]) -> bool {
        match pat.first() {
            None => toks.is_empty(),
            Some(PatTok::Lit(l)) => toks.first() == Some(l) && anchored(&pat[1..], &toks[1..]),
            Some(PatTok::One) => !toks.is_empty() && anchored(&pat[1..], &toks[1..]),
            Some(PatTok::Run) => (0..=toks.len()).any(|k| anchored(&pat[1..], &toks[k..])),
        }
    }
    // Unanchored on both sides.
    (0..=toks.len()).any(|i| {
        (i..=toks.len()).any(|_| {
            // pad with Run on the right by trying every suffix cut.
            let mut padded = vec![PatTok::Run];
            padded.extend_from_slice(pat);
            padded.push(PatTok::Run);
            anchored(&padded, toks)
        })
    })
}

#[derive(Clone, Copy, Debug)]
enum PatTok {
    Lit(u32),
    One,
    Run,
}

fn arb_pattern() -> impl Strategy<Value = Vec<PatTok>> {
    proptest::collection::vec(
        prop_oneof![
            (0u32..6).prop_map(PatTok::Lit),
            Just(PatTok::One),
            Just(PatTok::Run),
        ],
        1..6,
    )
}

fn pattern_string(pat: &[PatTok]) -> String {
    pat.iter()
        .map(|t| match t {
            PatTok::Lit(l) => l.to_string(),
            PatTok::One => "?".into(),
            PatTok::Run => "*".into(),
        })
        .collect::<Vec<_>>()
        .join(" ")
}

proptest! {
    /// The linear-time glob matcher agrees with an exponential
    /// reference on small alphabets.
    #[test]
    fn regex_agrees_with_reference(
        pat in arb_pattern(),
        toks in proptest::collection::vec(0u32..6, 0..10),
    ) {
        let re = AsPathRegex::parse(&pattern_string(&pat)).unwrap();
        prop_assert_eq!(re.matches_tokens(&toks), reference_match(&pat, &toks));
    }

    /// Anchoring is a strictly tighter constraint.
    #[test]
    fn anchored_implies_unanchored(
        pat in arb_pattern(),
        toks in proptest::collection::vec(0u32..6, 0..10),
    ) {
        let s = pattern_string(&pat);
        let full = AsPathRegex::parse(&format!("^{s}$")).unwrap();
        let free = AsPathRegex::parse(&s).unwrap();
        if full.matches_tokens(&toks) {
            prop_assert!(free.matches_tokens(&toks));
        }
    }
}
