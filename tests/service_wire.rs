//! Property tests over the service wire layer: request parsing is
//! total and round-trips its fields, error responses always serialize
//! to parseable JSON that echoes what it can, and the daemon's line
//! framing is invariant under arbitrary read chunkings (the TCP
//! partial-write adversary).

use kbp_service::{
    error_response, id_hint, json, parse_request, quota_response, reject_response, FrameDecoder,
    FrameError, JobKind, LineOutcome, QueueFull, Request,
};
use proptest::prelude::*;

const KINDS: [(&str, JobKind); 4] = [
    ("solve", JobKind::Solve),
    ("enumerate", JobKind::Enumerate),
    ("check", JobKind::Check),
    ("fault_lattice", JobKind::FaultLattice),
];
const SCENARIOS: [&str; 3] = ["bit_transmission", "muddy_children_3", "zoo_plain"];

/// Feeds `data` to a decoder in `chunk`-byte pieces, like a socket
/// under an adversarial sender, then ends the stream; returns every
/// line outcome in order.
fn frame(data: &[u8], chunk: usize, max_line: usize) -> Vec<LineOutcome> {
    let mut decoder = FrameDecoder::new(max_line);
    let mut out = Vec::new();
    for piece in data.chunks(chunk) {
        decoder.feed(piece);
        while let Some(outcome) = decoder.pop() {
            out.push(outcome);
        }
    }
    out.extend(decoder.finish());
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A well-formed job line round-trips every field through
    /// `parse_request`.
    #[test]
    fn job_requests_roundtrip(
        id in 0u64..1_000_000_000,
        kind_idx in 0usize..4,
        scenario_idx in 0usize..3,
        horizon in 1usize..12,
        with_horizon in 0u8..2,
        fault_seed in 0u64..1_000_000,
        deadline_ms in 1u64..100_000,
        with_budget in 0u8..2,
    ) {
        let (kind_name, kind) = KINDS[kind_idx];
        let scenario = SCENARIOS[scenario_idx];
        let mut line = format!(
            r#"{{"id":{id},"kind":"{kind_name}","scenario":"{scenario}","fault_seed":{fault_seed}"#
        );
        if with_horizon == 1 {
            line.push_str(&format!(r#","horizon":{horizon}"#));
        }
        if with_budget == 1 {
            line.push_str(&format!(r#","budget":{{"deadline_ms":{deadline_ms}}}"#));
        }
        line.push('}');
        let parsed = parse_request(&line).expect("well-formed line parses");
        let Request::Job(job) = parsed else {
            panic!("expected a job, got {parsed:?}");
        };
        prop_assert_eq!(job.id, id);
        prop_assert_eq!(job.kind, kind);
        prop_assert_eq!(job.scenario.as_str(), scenario);
        prop_assert_eq!(job.fault_seed, fault_seed);
        prop_assert_eq!(job.horizon, (with_horizon == 1).then_some(horizon));
        // The id is also recoverable by the error-path hint extractor.
        prop_assert_eq!(id_hint(&line), Some(id));
    }

    /// `parse_request` and `id_hint` are total: arbitrary input yields
    /// a value or a typed error, never a panic.
    #[test]
    fn request_parsing_is_total(input in ".{0,200}") {
        let _ = parse_request(&input);
        let _ = id_hint(&input);
    }

    /// ... including JSON-shaped garbage.
    #[test]
    fn request_parsing_is_total_on_json_soup(input in "[{}\\[\\]\",:0-9a-z ]{0,120}") {
        let _ = parse_request(&input);
        let _ = id_hint(&input);
    }

    /// Every rejection response serializes to one parseable JSON line
    /// with `ok:false` and a typed error kind.
    #[test]
    fn rejection_responses_are_parseable_json(
        id in 0u64..1_000_000,
        with_id in 0u8..2,
        capacity in 1usize..10_000,
        retry in 1u64..10_000,
        pending in 0usize..100,
        limit in 1usize..100,
    ) {
        let id = (with_id == 1).then_some(id);
        let bad = parse_request("definitely not json").expect_err("parse error");
        for response in [
            error_response(id, &bad),
            reject_response(id, QueueFull { capacity, retry_after_ms: retry }),
            quota_response(id, pending, limit),
        ] {
            let line = response.to_line();
            let back = json::parse(&line).expect("response line parses");
            prop_assert_eq!(back.get("id").and_then(json::Json::as_u64), id);
            prop_assert_eq!(
                back.get("ok").cloned(),
                Some(json::Json::Bool(false))
            );
            prop_assert!(
                back.get("error")
                    .and_then(|e| e.get("kind"))
                    .and_then(json::Json::as_str)
                    .is_some_and(|k| !k.is_empty()),
                "typed error kind missing in {}",
                line
            );
        }
    }

    /// Framing is chunking-invariant: however a sender fragments its
    /// writes, the sequence of line outcomes is identical.
    #[test]
    fn framing_is_invariant_under_read_chunking(
        body in "[a-zA-Z0-9{}\" :,\\r\\n]{0,300}",
        chunk in 1usize..64,
        max_line in 8usize..128,
    ) {
        let reference = frame(body.as_bytes(), 4096, max_line);
        let dribbled = frame(body.as_bytes(), chunk, max_line);
        prop_assert_eq!(&dribbled, &reference);
    }

    /// Oversized-line handling never buffers unboundedly and always
    /// resynchronizes: a huge line between two small ones yields
    /// exactly small, Oversized, small.
    #[test]
    fn oversized_lines_resynchronize(
        limit in 8usize..64,
        excess in 1usize..2048,
        chunk in 1usize..128,
    ) {
        let huge = "y".repeat(limit + excess);
        let data = format!("before\n{huge}\nafter\n");
        let outcomes = frame(data.as_bytes(), chunk, limit);
        prop_assert_eq!(&outcomes, &vec![
            LineOutcome::Line("before".to_string()),
            LineOutcome::Malformed(FrameError::Oversized { limit }),
            LineOutcome::Line("after".to_string()),
        ]);
    }
}
