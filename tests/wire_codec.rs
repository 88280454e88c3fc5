//! Property-based tests for the net wire codec: arbitrary request and
//! response sequences survive encode → random stream splits → decode
//! byte-for-byte, and malformed frames of every flavor come back as
//! [`WireError`]s instead of panics.

use pm_index_bench::net::wire::{
    FrameBuf, Opcode, ReqOp, Request, Response, Status, WireError, MAX_FRAME, MAX_SCAN,
};
use proptest::prelude::*;

fn arb_reqop() -> impl Strategy<Value = ReqOp> {
    prop_oneof![
        3 => any::<u64>().prop_map(ReqOp::Lookup),
        3 => (any::<u64>(), any::<u64>()).prop_map(|(k, v)| ReqOp::Insert(k, v)),
        2 => (any::<u64>(), any::<u64>()).prop_map(|(k, v)| ReqOp::Update(k, v)),
        2 => any::<u64>().prop_map(ReqOp::Remove),
        2 => (any::<u64>(), 0u32..MAX_SCAN + 1).prop_map(|(k, n)| ReqOp::Scan(k, n)),
        1 => Just(ReqOp::Shutdown),
    ]
}

fn arb_request() -> impl Strategy<Value = Request> {
    (any::<u64>(), arb_reqop()).prop_map(|(req_id, op)| Request { req_id, op })
}

fn arb_status() -> impl Strategy<Value = Status> {
    prop_oneof![
        4 => Just(Status::Ok),
        2 => Just(Status::Miss),
        1 => Just(Status::Overload),
        1 => Just(Status::Bad),
    ]
}

fn arb_response() -> impl Strategy<Value = Response> {
    (
        any::<u64>(),
        arb_reqop(),
        arb_status(),
        any::<u64>(),
        proptest::collection::vec((any::<u64>(), any::<u64>()), 0..50),
    )
        .prop_map(|(req_id, op, status, value, pairs)| {
            // The codec only carries a body on Ok, and only the body
            // matching the opcode; build the response the way the
            // server does so the round trip is exact.
            let op = op.opcode();
            let mut r = Response::basic(req_id, op, status);
            if status == Status::Ok {
                match op {
                    Opcode::Lookup => r.value = Some(value),
                    Opcode::Scan => r.pairs = pairs,
                    _ => {}
                }
            }
            r
        })
}

/// Feed `bytes` into a [`FrameBuf`] chopped at the given relative cut
/// points, draining complete frames after every push.
fn decode_split<T>(
    bytes: &[u8],
    cuts: &[usize],
    decode: impl Fn(&[u8]) -> Result<T, WireError>,
) -> Vec<T> {
    let mut splits: Vec<usize> = cuts.iter().map(|&c| c % (bytes.len() + 1)).collect();
    splits.sort_unstable();
    splits.push(bytes.len());
    let mut fb = FrameBuf::new();
    let mut out = Vec::new();
    let mut at = 0usize;
    for s in splits {
        if s > at {
            fb.push(&bytes[at..s]);
            at = s;
        }
        while let Some(p) = fb.next_frame().expect("well-formed stream") {
            out.push(decode(p).expect("well-formed payload"));
        }
    }
    assert_eq!(fb.pending(), 0, "no leftover bytes after the last frame");
    out
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 64,
        .. ProptestConfig::default()
    })]

    #[test]
    fn requests_roundtrip_across_arbitrary_splits(
        reqs in proptest::collection::vec(arb_request(), 1..80),
        cuts in proptest::collection::vec(any::<usize>(), 0..40),
    ) {
        let mut bytes = Vec::new();
        for r in &reqs {
            r.encode_into(&mut bytes);
        }
        let decoded = decode_split(&bytes, &cuts, Request::decode);
        prop_assert_eq!(decoded, reqs);
    }

    #[test]
    fn responses_roundtrip_across_arbitrary_splits(
        resps in proptest::collection::vec(arb_response(), 1..40),
        cuts in proptest::collection::vec(any::<usize>(), 0..40),
    ) {
        let mut bytes = Vec::new();
        for r in &resps {
            r.encode_into(&mut bytes);
        }
        let decoded = decode_split(&bytes, &cuts, Response::decode);
        prop_assert_eq!(decoded, resps);
    }

    #[test]
    fn mutated_request_frames_never_panic(
        req in arb_request(),
        flip in (any::<usize>(), any::<u8>()),
        truncate_to in any::<usize>(),
        extra in proptest::collection::vec(any::<u8>(), 0..16),
    ) {
        let (flip_at, flip_to) = flip;
        let mut bytes = Vec::new();
        req.encode_into(&mut bytes);
        let payload = bytes[4..].to_vec();

        // Single-byte corruption: must decode, error, or at worst
        // decode to a *different* valid request — never panic.
        let mut mutated = payload.clone();
        let at = flip_at % mutated.len();
        mutated[at] = flip_to;
        let _ = Request::decode(&mutated);

        // Truncation strictly shortens the payload → Truncated (or a
        // BadOpcode if the cut lands inside the opcode byte's prefix).
        let keep = truncate_to % payload.len();
        let r = Request::decode(&payload[..keep]);
        prop_assert!(r.is_err(), "truncated payload decoded: {:?}", r);

        // Trailing garbage is always rejected.
        if !extra.is_empty() {
            let mut long = payload.clone();
            long.extend_from_slice(&extra);
            let r = Request::decode(&long);
            prop_assert!(r.is_err(), "payload with trailing bytes decoded: {:?}", r);
        }
    }

    #[test]
    fn random_byte_soup_never_panics_the_framer(
        soup in proptest::collection::vec(any::<u8>(), 0..512),
        cuts in proptest::collection::vec(any::<usize>(), 0..16),
    ) {
        // Arbitrary bytes through the frame reassembler: each complete
        // frame either decodes or errors; an oversize prefix errors the
        // stream. Nothing panics.
        let mut splits: Vec<usize> = cuts.iter().map(|&c| c % (soup.len() + 1)).collect();
        splits.sort_unstable();
        splits.push(soup.len());
        let mut fb = FrameBuf::new();
        let mut at = 0usize;
        'outer: for s in splits {
            if s > at {
                fb.push(&soup[at..s]);
                at = s;
            }
            loop {
                match fb.next_frame() {
                    Ok(Some(p)) => {
                        let _ = Request::decode(p);
                        let _ = Response::decode(p);
                    }
                    Ok(None) => break,
                    Err(WireError::Oversize(n)) => {
                        prop_assert!(n as usize > MAX_FRAME);
                        break 'outer; // stream unrecoverable, as the server treats it
                    }
                    Err(e) => prop_assert!(false, "framer returned non-framing error {e}"),
                }
            }
        }
    }
}

#[test]
fn scan_count_guard_is_exact() {
    // MAX_SCAN itself is legal; one past it is rejected on both sides.
    let mut bytes = Vec::new();
    Request {
        req_id: 9,
        op: ReqOp::Scan(0, MAX_SCAN),
    }
    .encode_into(&mut bytes);
    assert!(Request::decode(&bytes[4..]).is_ok());

    let at = bytes.len() - 4;
    bytes[at..].copy_from_slice(&(MAX_SCAN + 1).to_le_bytes());
    assert_eq!(
        Request::decode(&bytes[4..]),
        Err(WireError::ScanTooLarge(MAX_SCAN + 1))
    );
}
