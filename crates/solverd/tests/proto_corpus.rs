//! Adversarial corpus for the wire decoder: every input line — random bytes,
//! truncated requests, deep nesting, oversized integers, duplicate keys, cut
//! string escapes — must decode to a request or a typed [`Reject`], never a
//! panic, and every reject must render as a parseable response line.

use std::panic::{catch_unwind, AssertUnwindSafe};

use runtime_stats::json::{Json, MAX_DEPTH};
use solverd::proto::{parse_message, RejectReason, WireMessage};
use xrand::{default_rng, RandExt};

const REQUEST: &str = r#"{"id":"réq-1","problem":"costas","n":12,"seed":7,"budget":5000,"deadline_ms":250,"warm_start":[1,2,3],"walks":2}"#;
const CANCEL: &str = r#"{"cancel":"réq-1"}"#;

/// Decode `line`, failing with the offending input if the decoder panics.
fn decode(line: &str) -> Result<WireMessage, RejectReason> {
    let outcome = catch_unwind(AssertUnwindSafe(|| parse_message(line)))
        .unwrap_or_else(|_| panic!("parse_message panicked on {line:?}"));
    outcome.map_err(|reject| {
        Json::parse(&reject.render())
            .unwrap_or_else(|e| panic!("reject for {line:?} renders invalid JSON: {e:?}"));
        reject.reason
    })
}

/// Every byte prefix, decoded lossily (a cut can split a UTF-8 sequence).
fn prefixes(line: &str) -> impl Iterator<Item = String> + '_ {
    (0..=line.len()).map(|end| String::from_utf8_lossy(&line.as_bytes()[..end]).into_owned())
}

#[test]
fn the_seed_lines_are_valid() {
    assert!(matches!(decode(REQUEST), Ok(WireMessage::Solve(_))));
    assert!(matches!(decode(CANCEL), Ok(WireMessage::Cancel { .. })));
}

#[test]
fn random_bytes_never_panic() {
    let mut rng = default_rng(0x5EED_F022);
    // Raw bytes exercise the lexer; a JSON-ish alphabet gets past it into the
    // structural and field-level checks.
    let alphabet = br#"{}[]":,\-+.0123456789eEtrufalsn cancelidproblemu"#;
    for case in 0..4_000 {
        let len = rng.index(96);
        let bytes: Vec<u8> = (0..len)
            .map(|_| {
                if case % 2 == 0 {
                    rng.below(256) as u8
                } else {
                    *rng.pick(alphabet)
                }
            })
            .collect();
        let _ = decode(&String::from_utf8_lossy(&bytes));
    }
}

#[test]
fn every_truncation_of_a_valid_line_is_decoded_or_rejected() {
    for line in [REQUEST, CANCEL] {
        for prefix in prefixes(line) {
            let decoded = decode(&prefix);
            if prefix.len() < line.len() {
                assert!(decoded.is_err(), "truncated {prefix:?} was accepted");
            }
        }
    }
}

#[test]
fn nesting_at_and_past_the_depth_cap_is_a_parse_reject() {
    for depth in [MAX_DEPTH - 1, MAX_DEPTH, MAX_DEPTH + 1] {
        let nested = format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert_eq!(decode(&nested).err(), Some(RejectReason::Parse), "{depth}");
        // The same nesting one level down, inside a request and a cancel.
        let inner = format!("{}{}", "[".repeat(depth - 1), "]".repeat(depth - 1));
        for line in [
            format!(r#"{{"id":"d","problem":"costas","n":5,"warm_start":{inner}}}"#),
            format!(r#"{{"cancel":{inner}}}"#),
        ] {
            let reason = decode(&line).expect_err("nested arrays are never valid fields");
            let expected = if depth > MAX_DEPTH {
                RejectReason::Parse
            } else {
                RejectReason::InvalidRequest
            };
            assert_eq!(reason, expected, "depth {depth}: {line}");
        }
    }
}

#[test]
fn integers_beyond_u64_are_rejected() {
    for number in [
        "18446744073709551616",
        "99999999999999999999999999999",
        "-1",
        "-9223372036854775809",
        "1e400",
        "1.5",
    ] {
        for field in ["n", "seed", "budget", "deadline_ms", "walks"] {
            let line = format!(r#"{{"id":"big","problem":"costas","n":5,"{field}":{number}}}"#);
            assert!(decode(&line).is_err(), "{line}");
        }
        let line = format!(r#"{{"id":"big","problem":"costas","n":5,"warm_start":[{number}]}}"#);
        assert!(decode(&line).is_err(), "{line}");
    }
}

#[test]
fn duplicate_keys_decode_or_reject_deterministically() {
    for line in [
        r#"{"id":"a","id":"b","problem":"costas","n":5}"#,
        r#"{"id":"a","problem":"costas","n":5,"n":6}"#,
        r#"{"id":"a","problem":"costas","problem":"nope","n":5}"#,
        r#"{"cancel":"a","cancel":"b"}"#,
        r#"{"cancel":"a","cancel":7}"#,
    ] {
        assert_eq!(decode(line), decode(line), "{line}");
    }
}

#[test]
fn string_escapes_cut_mid_sequence_never_panic() {
    for escape in [
        r"\",
        r"\u",
        r"\u0",
        r"\u00",
        r"\u00e",
        r"\uD83D",
        r"\uD83D\",
        r"\uD83D\u",
        r"\uDE00",
        r"\x",
    ] {
        // Cut at the escape: the string (and the object) never closes.
        for line in [
            format!(r#"{{"id":"{escape}"#),
            format!(r#"{{"cancel":"{escape}"#),
        ] {
            assert!(decode(&line).is_err(), "{line}");
        }
        for line in [
            format!(r#"{{"id":"{escape}","problem":"costas","n":5}}"#),
            format!(r#"{{"cancel":"{escape}"}}"#),
        ] {
            for prefix in prefixes(&line) {
                let _ = decode(&prefix);
            }
        }
    }
}
