//! Property tests for the binary wire codec's hostile-input guarantee:
//! **no byte sequence a client can send makes the decoder panic or
//! over-allocate** — every outcome is `Ok` or a typed `Protocol` error —
//! and every frame the encoder produces scans and decodes back to what
//! went in.

use ldafp_net::binwire::{self, BinRequest, RowsPayload, ScanOutcome, HEADER_LEN, MAGIC};
use ldafp_net::jsonwire::DEFAULT_MAX_FRAME;
use ldafp_stats::rng::{check, CASES};
use ldafp_stats::Rng;

/// Small frame bound so the generator can actually reach "oversized".
const SMALL_MAX: usize = 4096;

/// Up to `max_len - 1` arbitrary bytes.
fn bytes(rng: &mut Rng, max_len: usize) -> Vec<u8> {
    let len = rng.below(max_len);
    (0..len).map(|_| rng.next_u64() as u8).collect()
}

/// A request of a uniformly drawn kind, with predict payloads of one to
/// five features and up to six rows, in either row encoding.
fn request(rng: &mut Rng) -> BinRequest {
    const MODELS: [&str; 4] = ["", "default", "a", "naive-bayes"];
    const ARTIFACTS: [&str; 2] = ["{}", "{\"kind\":\"binary\"}"];
    let model = MODELS[rng.below(MODELS.len())].to_string();
    match rng.below(5) {
        0 => {
            let features = 1 + rng.below(5);
            let len = features * rng.below(7);
            let payload = if rng.bool() {
                let values = (0..len).map(|_| rng.range_f64(-8.0..8.0)).collect();
                RowsPayload::F64 { features, values }
            } else {
                let words = (0..len).map(|_| i64::from(rng.next_u64() as i32)).collect();
                RowsPayload::Raw { features, words }
            };
            BinRequest::Predict { model, payload }
        }
        1 => BinRequest::Health { model },
        2 => BinRequest::Stats,
        3 => BinRequest::Shutdown,
        _ => BinRequest::Reload {
            name: model,
            artifact_json: ARTIFACTS[rng.below(ARTIFACTS.len())].to_string(),
        },
    }
}

/// Arbitrary byte soup: the incremental scanner never panics, and
/// whatever it deems a complete binary frame, the request decoder
/// consumes without panicking — `Ok` or typed error, nothing else.
/// (The call itself is the assertion: a panic fails the test.)
#[test]
fn scanner_and_decoder_never_panic_on_arbitrary_bytes() {
    const MAXES: [usize; 3] = [64, SMALL_MAX, DEFAULT_MAX_FRAME];
    let case = |rng: &mut Rng| (bytes(rng, 256), MAXES[rng.below(MAXES.len())]);
    check(CASES, case, |(bytes, max)| {
        match binwire::scan_frame(bytes, *max) {
            Ok(ScanOutcome::Binary { header, frame_len }) => {
                assert!(frame_len <= bytes.len());
                assert!(frame_len >= HEADER_LEN);
                let body = &bytes[HEADER_LEN..frame_len];
                let _ = binwire::decode_request(header, body);
            }
            Ok(ScanOutcome::Json { frame_len }) => {
                assert!(frame_len <= bytes.len());
                assert!(!bytes.is_empty() && bytes[0] != MAGIC);
            }
            Ok(ScanOutcome::NeedMore) | Err(_) => {}
        }
    });
}

/// Same guarantee for the client-side reply decoder: arbitrary reply
/// bodies (with and without a plausible predict shell) never panic.
#[test]
fn predict_reply_decoder_never_panics_on_arbitrary_bodies() {
    check(
        CASES,
        |rng| bytes(rng, 256),
        |body| {
            let _ = binwire::decode_predict_reply(body);
        },
    );
}

/// A frame truncated anywhere is never misread as complete: every
/// strict prefix of a valid frame scans to `NeedMore` (or, for the
/// empty prefix, `NeedMore` trivially) — the torn-frame guarantee
/// the event loop's buffering rests on.
#[test]
fn every_torn_prefix_of_a_valid_frame_scans_as_incomplete() {
    check(CASES, request, |req| {
        let frame = binwire::encode_request(req);
        for cut in 0..frame.len() {
            match binwire::scan_frame(&frame[..cut], DEFAULT_MAX_FRAME) {
                Ok(ScanOutcome::NeedMore) => {}
                other => panic!("prefix of {cut}/{} bytes scanned as {other:?}", frame.len()),
            }
        }
    });
}

/// Encode → scan → decode is the identity on requests, and the
/// scanner consumes exactly the encoded length (so pipelined frames
/// behind it are untouched).
#[test]
fn encoded_requests_roundtrip_through_scan_and_decode() {
    check(
        CASES,
        |rng| (request(rng), bytes(rng, 16)),
        |(req, trailing)| {
            let mut frame = binwire::encode_request(req);
            let encoded_len = frame.len();
            frame.extend_from_slice(trailing);
            match binwire::scan_frame(&frame, DEFAULT_MAX_FRAME) {
                Ok(ScanOutcome::Binary { header, frame_len }) => {
                    assert_eq!(frame_len, encoded_len);
                    let decoded = binwire::decode_request(header, &frame[HEADER_LEN..frame_len])
                        .expect("own encoding decodes");
                    assert_eq!(&decoded, req);
                }
                other => panic!("own encoding scanned as {other:?}"),
            }
        },
    );
}

/// Oversized claims are rejected from the 8-byte prefix alone —
/// before any body arrives or any buffer is grown.
#[test]
fn oversized_claims_are_rejected_from_the_prefix() {
    let case = |rng: &mut Rng| {
        let claimed = rng.range_i64(SMALL_MAX as i64 + 1..=i64::from(u32::MAX)) as u32;
        (claimed, rng.range_i64(1..=5) as u8)
    };
    check(CASES, case, |&(claimed, opcode)| {
        let header = binwire::encode_header(binwire::Header {
            opcode,
            flags: 0,
            status: 0,
            len: claimed,
        });
        assert!(binwire::scan_frame(&header, SMALL_MAX).is_err());
    });
}
