//! Loopback integration for the evented server: real epoll loop, real
//! sockets, both codecs — and the acceptance bar from the paper's
//! deployment story: **every decision the server returns must be
//! bit-identical to the in-process engine**, for all three model
//! families, through JSON floats, binary floats and raw `QK.F` words
//! alike.

#![cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]

use ldafp_core::multiclass::OneVsRestClassifier;
use ldafp_core::FixedPointClassifier;
use ldafp_fixedpoint::{QFormat, RoundingMode};
use ldafp_net::{
    binwire, quantize_rows, serve_evented, Codec, EventedConfig, EventedHandle, NetClient,
    NetError, RetryPolicy,
};
use ldafp_serve::{InferenceEngine, ModelArtifact, ModelRegistry};
use ldafp_stats::Rng;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

const CLIENT_TIMEOUT: Duration = Duration::from_secs(5);

fn random_rows(n: usize, m: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = Rng::new(seed);
    (0..n)
        .map(|_| (0..m).map(|_| rng.range_f64(-3.0..3.0)).collect())
        .collect()
}

fn family_dataset() -> ldafp_datasets::BinaryDataset {
    let a = ldafp_linalg::Matrix::from_rows(&[
        &[0.6, 0.5, 0.4][..],
        &[0.5, 0.7, 0.3][..],
        &[0.7, 0.4, 0.5][..],
    ])
    .unwrap();
    let b = ldafp_linalg::Matrix::from_rows(&[
        &[-0.5, -0.6, -0.4][..],
        &[-0.6, -0.4, -0.5][..],
        &[-0.4, -0.5, -0.6][..],
    ])
    .unwrap();
    ldafp_datasets::BinaryDataset::new(a, b).unwrap()
}

/// One artifact per model family, all over 3 features so a single row set
/// exercises every one of them. Each carries its own non-default labels,
/// so a reply that names classes from a defaulted, swapped or another
/// model's label table fails the label asserts.
fn family_artifacts() -> Vec<(&'static str, ModelArtifact)> {
    let lda = FixedPointClassifier::from_float(
        &[0.875, -1.25, 0.375],
        0.1875,
        QFormat::new(3, 8).unwrap(),
    )
    .unwrap();
    let nb = ldafp_models::NaiveBayesTrainer::new(
        QFormat::new(3, 6).unwrap(),
        RoundingMode::NearestEven,
        0.95,
    )
    .train(&family_dataset())
    .unwrap();
    let mut elm_trainer = ldafp_models::OsElmTrainer::new(
        ldafp_models::choose_format(10, 4).unwrap(),
        RoundingMode::Floor,
    );
    elm_trainer.config.hidden_units = 4;
    let elm = elm_trainer.train(&family_dataset()).unwrap();
    let labelled = |mut artifact: ModelArtifact, labels: [&str; 2]| {
        artifact.class_labels = labels.map(String::from).to_vec();
        artifact
    };
    vec![
        (
            "lda",
            labelled(ModelArtifact::binary(lda), ["lda-hit", "lda-miss"]),
        ),
        (
            "naive-bayes",
            labelled(ModelArtifact::naive_bayes(nb), ["nb-spike", "nb-rest"]),
        ),
        (
            "os-elm",
            labelled(ModelArtifact::os_elm(elm), ["elm-up", "elm-down"]),
        ),
    ]
}

fn engine_from(artifact: &ModelArtifact) -> InferenceEngine {
    // Duplicate through the serialization layer so every tier serves the
    // exact artifact a deployment would load from disk.
    InferenceEngine::new(ModelArtifact::from_json_str(&artifact.to_json_string()).unwrap()).unwrap()
}

fn evented(artifact: &ModelArtifact, config: EventedConfig) -> EventedHandle {
    serve_evented(
        ModelRegistry::with_default(engine_from(artifact)),
        "127.0.0.1:0",
        config,
    )
    .unwrap()
}

/// The tentpole differential: shared artifact, three transport paths,
/// one truth. In-process `predict_batch` is the reference; the JSON path,
/// the binary-f64 path and the raw-word path must all reproduce its
/// classes, labels, scores (bit-for-bit f64 equality) and wrap counters.
#[test]
fn evented_predictions_match_in_process_for_all_families() {
    for (name, artifact) in family_artifacts() {
        let rows = random_rows(64, 3, 0xC0FFEE ^ name.len() as u64);
        let reference = engine_from(&artifact).predict_batch(&rows).unwrap();

        // All three request paths against one server.
        let mut handle = evented(&artifact, EventedConfig::default());
        let addr = handle.addr().to_string();

        let mut json_client = NetClient::connect_json(&addr, CLIENT_TIMEOUT).unwrap();
        let evented_json = json_client.predict_rows(None, &rows).unwrap();

        let mut bin = NetClient::connect(&addr, CLIENT_TIMEOUT).unwrap();
        let evented_f64 = bin.predict_rows(None, &rows).unwrap();

        let engine = engine_from(&artifact);
        let words = quantize_rows(artifact.model.format(), engine.rounding(), &rows);
        let evented_raw = bin.predict_raw(None, 3, &words).unwrap();

        let labels = &artifact.class_labels;
        for (i, p) in reference.predictions.iter().enumerate() {
            let tag = format!("{name} row {i}");
            // evented JSON
            assert_eq!(evented_json.classes[i] as usize, p.class_index, "{tag}");
            assert_eq!(evented_json.label(i), labels[p.class_index], "{tag}");
            assert_eq!(evented_json.scores[i], p.score, "{tag}");
            // evented binary f64
            assert_eq!(evented_f64.classes[i] as usize, p.class_index, "{tag}");
            assert_eq!(evented_f64.label(i), labels[p.class_index], "{tag}");
            assert_eq!(evented_f64.scores[i], p.score, "{tag}");
            // evented raw words
            assert_eq!(evented_raw.classes[i] as usize, p.class_index, "{tag}");
            assert_eq!(evented_raw.scores[i], p.score, "{tag}");
        }
        assert_eq!(
            evented_f64.accumulator_wraps, reference.stats.accumulator_wraps,
            "{name} wraps"
        );
        assert_eq!(
            evented_raw.accumulator_wraps, reference.stats.accumulator_wraps,
            "{name} raw wraps (scaling is identity, so raw == float datapath)"
        );
        handle.shutdown();
    }
}

/// The raw-word path applies no input scaling, so a client serving a
/// scaled model must multiply by `input_scale` before it quantizes. With
/// that done, raw words decide exactly as the float path does; without
/// it, they land on a different grid point.
#[test]
fn raw_words_from_pre_scaled_rows_match_the_float_path() {
    let lda = FixedPointClassifier::from_float(
        &[0.875, -1.25, 0.375],
        0.1875,
        QFormat::new(3, 8).unwrap(),
    )
    .unwrap();
    let mut artifact = ModelArtifact::binary(lda);
    artifact.input_scale = vec![0.5, 2.0, 0.75];
    let rows = random_rows(64, 3, 0x5CA1E);
    let engine = engine_from(&artifact);
    let reference = engine.predict_batch(&rows).unwrap();

    let scaled: Vec<Vec<f64>> = rows
        .iter()
        .map(|row| {
            row.iter()
                .zip(&artifact.input_scale)
                .map(|(x, s)| x * s)
                .collect()
        })
        .collect();
    let format = artifact.model.format();
    let words = quantize_rows(format, engine.rounding(), &scaled);
    let unscaled = engine
        .predict_raw_batch(&quantize_rows(format, engine.rounding(), &rows))
        .unwrap();
    assert!(
        unscaled
            .predictions
            .iter()
            .zip(&reference.predictions)
            .any(|(u, p)| u.score != p.score),
        "unscaled words must miss the float path somewhere"
    );

    let mut handle = evented(&artifact, EventedConfig::default());
    let mut bin = NetClient::connect(&handle.addr().to_string(), CLIENT_TIMEOUT).unwrap();
    let raw = bin.predict_raw(None, 3, &words).unwrap();
    for (i, p) in reference.predictions.iter().enumerate() {
        assert_eq!(raw.classes[i] as usize, p.class_index, "row {i}");
        assert_eq!(raw.scores[i], p.score, "row {i}");
    }
    assert_eq!(raw.accumulator_wraps, reference.stats.accumulator_wraps);
    handle.shutdown();
}

/// Cross-family kernel equivalence: for every served family the SoA
/// batch kernels (`predict_batch`), the single-row kernel path
/// (`predict_row`) and both wire codecs agree **byte-for-byte** — class
/// indices, labels, and the f64 score *bit patterns* (`to_bits`, so a
/// negative zero or NaN drift through any codec or kernel variant would
/// be caught where plain `==` stays silent).
#[test]
fn kernel_batch_row_and_both_codecs_agree_byte_for_byte() {
    for (name, artifact) in family_artifacts() {
        let rows = random_rows(48, 3, 0xBEEF ^ name.len() as u64);
        let engine = engine_from(&artifact);

        // Row-at-a-time kernel path vs the batched SoA kernels.
        let labels = &artifact.class_labels;
        let batch = engine.predict_batch(&rows).unwrap();
        for (i, row) in rows.iter().enumerate() {
            let tag = format!("{name} row {i} (row path)");
            let (p, _) = engine.predict_row(row).unwrap();
            assert_eq!(p.class_index, batch.predictions[i].class_index, "{tag}");
            assert_eq!(
                labels[p.class_index], labels[batch.predictions[i].class_index],
                "{tag}"
            );
            assert_eq!(
                p.score.to_bits(),
                batch.predictions[i].score.to_bits(),
                "{tag}"
            );
        }

        // Both wire codecs against the same served engine.
        let mut handle = evented(&artifact, EventedConfig::default());
        let addr = handle.addr().to_string();
        let mut json_client = NetClient::connect_json(&addr, CLIENT_TIMEOUT).unwrap();
        let via_json = json_client.predict_rows(None, &rows).unwrap();
        let mut bin = NetClient::connect(&addr, CLIENT_TIMEOUT).unwrap();
        let via_bin = bin.predict_rows(None, &rows).unwrap();
        for i in 0..rows.len() {
            let want = &batch.predictions[i];
            let tag = format!("{name} row {i} (codecs)");
            assert_eq!(via_json.classes[i] as usize, want.class_index, "{tag}");
            assert_eq!(via_json.label(i), labels[want.class_index], "{tag}");
            assert_eq!(via_json.scores[i].to_bits(), want.score.to_bits(), "{tag}");
            assert_eq!(via_bin.classes[i] as usize, want.class_index, "{tag}");
            assert_eq!(via_bin.label(i), labels[want.class_index], "{tag}");
            assert_eq!(via_bin.scores[i].to_bits(), want.score.to_bits(), "{tag}");
        }
        handle.shutdown();
    }
}

/// Per-frame codec negotiation: one raw socket alternates JSON and
/// binary frames and gets matching replies for each, no handshake.
#[test]
fn json_and_binary_frames_interleave_on_one_connection() {
    let (_, artifact) = &family_artifacts()[0];
    let handle = evented(artifact, EventedConfig::default());
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    stream.set_read_timeout(Some(CLIENT_TIMEOUT)).unwrap();

    // JSON health.
    let body = br#"{"op": "health"}"#;
    stream
        .write_all(&(body.len() as u32).to_be_bytes())
        .unwrap();
    stream.write_all(body).unwrap();
    let mut prefix = [0u8; 4];
    stream.read_exact(&mut prefix).unwrap();
    let len = u32::from_be_bytes(prefix) as usize;
    let mut reply = vec![0u8; len];
    stream.read_exact(&mut reply).unwrap();
    let text = std::str::from_utf8(&reply).unwrap();
    assert!(text.contains("\"evented\":true"), "{text}");

    // Binary stats on the same socket.
    stream
        .write_all(&binwire::encode_request(&binwire::BinRequest::Stats))
        .unwrap();
    let mut hdr = [0u8; binwire::HEADER_LEN];
    stream.read_exact(&mut hdr).unwrap();
    assert_eq!(hdr[0], binwire::MAGIC);
    assert_eq!(hdr[3], binwire::STATUS_OK);
    let len = u32::from_le_bytes([hdr[4], hdr[5], hdr[6], hdr[7]]) as usize;
    let mut body = vec![0u8; len];
    stream.read_exact(&mut body).unwrap();
    let text = std::str::from_utf8(&body).unwrap();
    assert!(text.contains("\"frames_in\":2"), "{text}");
}

/// Hot reload + routing: models installed over the wire become routable
/// under their name, the default stays untouched, and unknown routes get
/// a typed error on both codecs.
#[test]
fn hot_reload_installs_routable_models_atomically() {
    let artifacts = family_artifacts();
    let handle = evented(&artifacts[0].1, EventedConfig::default());
    let addr = handle.addr().to_string();
    let mut bin = NetClient::connect(&addr, CLIENT_TIMEOUT).unwrap();

    // Install the other two families over the wire.
    for (name, artifact) in &artifacts[1..] {
        let reply = bin.reload(name, &artifact.to_json_string()).unwrap();
        assert_eq!(reply.get("ok").and_then(|v| v.as_bool()), Some(true));
        assert_eq!(
            reply.get("replaced").and_then(|v| v.as_bool()),
            Some(false),
            "fresh name must not report replacement"
        );
    }
    let health = bin.health(None).unwrap();
    let models: Vec<String> = health
        .get("models")
        .and_then(|v| v.as_array())
        .unwrap()
        .iter()
        .map(|v| v.as_str().unwrap().to_string())
        .collect();
    assert_eq!(models, ["default", "naive-bayes", "os-elm"]);

    // Routed predictions hit the named model, bit-identically.
    let rows = random_rows(32, 3, 99);
    for (name, artifact) in &artifacts[1..] {
        let reference = engine_from(artifact).predict_batch(&rows).unwrap();
        let routed = bin.predict_rows(Some(name), &rows).unwrap();
        for (i, p) in reference.predictions.iter().enumerate() {
            assert_eq!(routed.classes[i] as usize, p.class_index, "{name} row {i}");
            assert_eq!(routed.scores[i], p.score, "{name} row {i}");
        }
        // The JSON codec routes through the same registry.
        let mut jc = NetClient::connect_json(&addr, CLIENT_TIMEOUT).unwrap();
        let json_routed = jc.predict_rows(Some(name), &rows).unwrap();
        for (i, p) in reference.predictions.iter().enumerate() {
            assert_eq!(json_routed.classes[i] as usize, p.class_index);
        }
    }

    // Unknown route: typed error, connection survives.
    match bin.predict_rows(Some("nope"), &rows) {
        Err(NetError::Server(msg)) => assert!(msg.contains("unknown model"), "{msg}"),
        other => panic!("expected a typed server error, got {other:?}"),
    }
    assert!(
        bin.health(None).is_ok(),
        "connection survives the rejection"
    );

    // Replacing the default is atomic and visible in the generation.
    let before = bin.health(None).unwrap();
    let gen_before = before.get("generation").and_then(|v| v.as_i64()).unwrap();
    let reply = bin
        .reload("default", &artifacts[1].1.to_json_string())
        .unwrap();
    assert_eq!(reply.get("replaced").and_then(|v| v.as_bool()), Some(true));
    let after = bin.health(None).unwrap();
    assert_eq!(
        after.get("generation").and_then(|v| v.as_i64()),
        Some(gen_before + 1)
    );
}

/// Pipelined predicts from one socket coalesce: the server classifies
/// many requests in far fewer engine dispatches, and every reply still
/// matches the reference bit-for-bit in request order.
#[test]
fn pipelined_predicts_coalesce_into_micro_batches() {
    let (_, artifact) = &family_artifacts()[0];
    let handle = evented(
        artifact,
        EventedConfig {
            batch_deadline: Duration::from_millis(50),
            ..EventedConfig::default()
        },
    );
    let addr = handle.addr().to_string();
    let reference_engine = engine_from(artifact);
    let mut bin = NetClient::connect(&addr, CLIENT_TIMEOUT).unwrap();

    const REQUESTS: usize = 16;
    let batches: Vec<Vec<Vec<f64>>> = (0..REQUESTS)
        .map(|i| random_rows(3, 3, 7_000 + i as u64))
        .collect();
    for rows in &batches {
        bin.send_predict_rows(None, rows).unwrap();
    }
    for rows in &batches {
        let reply = bin.recv_predict().unwrap();
        let expected = reference_engine.predict_batch(rows).unwrap();
        for (i, p) in expected.predictions.iter().enumerate() {
            assert_eq!(reply.classes[i] as usize, p.class_index);
            assert_eq!(reply.scores[i], p.score);
        }
    }

    let stats = bin.stats().unwrap();
    let stats = stats.get("stats").unwrap();
    let requests = stats.get("requests").and_then(|v| v.as_i64()).unwrap();
    let dispatches = stats.get("batches").and_then(|v| v.as_i64()).unwrap();
    assert_eq!(requests, REQUESTS as i64);
    assert!(
        dispatches < requests,
        "{REQUESTS} pipelined requests should coalesce into fewer engine \
         dispatches, got {dispatches}"
    );
}

/// Natural batching under the default zero linger: frames that arrive in
/// one read pass still share engine dispatches, and every reply matches
/// the reference bit-for-bit in request order.
#[test]
fn frames_read_in_one_pass_batch_without_a_linger() {
    let (_, artifact) = &family_artifacts()[0];
    let handle = evented(artifact, EventedConfig::default());
    let reference_engine = engine_from(artifact);
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    stream.set_read_timeout(Some(CLIENT_TIMEOUT)).unwrap();

    const REQUESTS: usize = 16;
    let batches: Vec<Vec<Vec<f64>>> = (0..REQUESTS)
        .map(|i| random_rows(3, 3, 9_000 + i as u64))
        .collect();
    let mut frames = Vec::new();
    for rows in &batches {
        frames.extend(binwire::encode_request(&binwire::BinRequest::Predict {
            model: String::new(),
            payload: binwire::RowsPayload::F64 {
                features: 3,
                values: rows.concat(),
            },
        }));
    }
    stream.write_all(&frames).unwrap();

    for rows in &batches {
        let mut hdr = [0u8; binwire::HEADER_LEN];
        stream.read_exact(&mut hdr).unwrap();
        assert_eq!(hdr[3], binwire::STATUS_OK);
        let len = u32::from_le_bytes([hdr[4], hdr[5], hdr[6], hdr[7]]) as usize;
        let mut body = vec![0u8; len];
        stream.read_exact(&mut body).unwrap();
        let reply = binwire::decode_predict_reply(&body).unwrap();
        let expected = reference_engine.predict_batch(rows).unwrap();
        assert_eq!(reply.classes.len(), rows.len());
        for (i, p) in expected.predictions.iter().enumerate() {
            assert_eq!(reply.classes[i] as usize, p.class_index);
            assert_eq!(reply.scores[i].to_bits(), p.score.to_bits());
        }
    }

    let stats = handle.metrics().snapshot();
    assert_eq!(stats.requests, REQUESTS as u64);
    assert!(
        stats.batches < stats.requests,
        "{REQUESTS} frames read in one pass should share engine dispatches, \
         got {} dispatches",
        stats.batches
    );
    assert_eq!(
        handle.metrics().queue_wait_us.count(),
        REQUESTS as u64,
        "one queue-wait record per request"
    );
}

/// The load-shedder: beyond `max_inflight_per_conn`, requests get the
/// typed overloaded reply while every admitted request still completes
/// with bit-identical output — overload never corrupts in-flight work,
/// and the shed reply is typed over either codec.
#[test]
fn load_shedding_sheds_typed_replies_without_corrupting_admitted_work() {
    let (_, artifact) = &family_artifacts()[0];
    for codec in [Codec::Binary, Codec::Json] {
        let handle = evented(
            artifact,
            EventedConfig {
                max_inflight_per_conn: 4,
                batch_deadline: Duration::from_millis(200),
                batch_max_rows: 1 << 14,
                ..EventedConfig::default()
            },
        );
        let addr = handle.addr().to_string();
        let reference_engine = engine_from(artifact);
        let mut client =
            NetClient::connect_with_retry(&addr, CLIENT_TIMEOUT, codec, &RetryPolicy::default())
                .unwrap();

        const SENT: usize = 12;
        let rows: Vec<Vec<Vec<f64>>> = (0..SENT)
            .map(|i| random_rows(1, 3, 31_000 + i as u64))
            .collect();
        for r in &rows {
            client.send_predict_rows(None, r).unwrap();
        }
        let outcomes: Vec<_> = (0..SENT).map(|_| client.recv_predict()).collect();

        let admitted: Vec<_> = outcomes.iter().filter(|o| o.is_ok()).collect();
        let shed = outcomes
            .iter()
            .filter(|o| matches!(o, Err(NetError::Overloaded)))
            .count();
        assert_eq!(
            admitted.len(),
            4,
            "{codec:?}: inflight cap admits exactly 4"
        );
        assert_eq!(
            shed,
            SENT - 4,
            "{codec:?}: the rest get the typed overloaded reply"
        );

        // Replies preserve per-connection request order among admitted
        // work, so the k-th OK reply answers the k-th sent request.
        for (k, ok) in admitted.iter().enumerate() {
            let reply = ok.as_ref().unwrap();
            let expected = reference_engine.predict_batch(&rows[k]).unwrap();
            assert_eq!(
                reply.classes[0] as usize,
                expected.predictions[0].class_index
            );
            assert_eq!(reply.scores[0], expected.predictions[0].score);
        }

        let stats = client.stats().unwrap();
        let stats = stats.get("stats").unwrap();
        assert_eq!(
            stats.get("shed").and_then(|v| v.as_i64()),
            Some(8),
            "{codec:?}"
        );
        assert_eq!(
            stats.get("requests").and_then(|v| v.as_i64()),
            Some(4),
            "{codec:?}"
        );
    }
}

/// Slowloris: a partial frame that never completes is closed at the read
/// deadline and counted, while a healthy connection on the same server
/// keeps working.
#[test]
fn slowloris_partial_frames_are_closed_at_the_read_deadline() {
    let (_, artifact) = &family_artifacts()[0];
    let handle = evented(
        artifact,
        EventedConfig {
            read_deadline: Duration::from_millis(150),
            ..EventedConfig::default()
        },
    );
    let addr = handle.addr().to_string();

    let mut sloth = TcpStream::connect(handle.addr()).unwrap();
    sloth
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    // Three bytes of a four-byte JSON length prefix, then silence.
    sloth.write_all(&[0x00, 0x00, 0x01]).unwrap();
    let mut scratch = [0u8; 64];
    let n = sloth.read(&mut scratch).expect("server closes, not hangs");
    assert_eq!(n, 0, "deadline close is a clean EOF, not an error frame");

    let mut bin = NetClient::connect(&addr, CLIENT_TIMEOUT).unwrap();
    let stats = bin.stats().unwrap();
    let stats = stats.get("stats").unwrap();
    assert_eq!(
        stats.get("deadline_closes").and_then(|v| v.as_i64()),
        Some(1)
    );
    assert!(bin.health(None).is_ok(), "server is still serving");
}

/// Hostile framing: oversize claims and garbage bytes get a typed error
/// and a close — never a hang, never a crash — and the server keeps
/// serving everyone else.
#[test]
fn oversize_and_garbage_frames_get_typed_errors_then_close() {
    let (_, artifact) = &family_artifacts()[0];
    let handle = evented(
        artifact,
        EventedConfig {
            max_frame: 4096,
            ..EventedConfig::default()
        },
    );
    let addr = handle.addr().to_string();

    // Binary header claiming a body beyond the bound.
    let mut s = TcpStream::connect(handle.addr()).unwrap();
    s.set_read_timeout(Some(CLIENT_TIMEOUT)).unwrap();
    s.write_all(&binwire::encode_header(binwire::Header {
        opcode: binwire::OP_PREDICT,
        flags: 0,
        status: 0,
        len: u32::MAX,
    }))
    .unwrap();
    let mut hdr = [0u8; binwire::HEADER_LEN];
    s.read_exact(&mut hdr).unwrap();
    assert_eq!(hdr[0], binwire::MAGIC);
    assert_eq!(hdr[3], binwire::STATUS_ERROR, "typed error before close");
    let len = u32::from_le_bytes([hdr[4], hdr[5], hdr[6], hdr[7]]) as usize;
    let mut msg = vec![0u8; len];
    s.read_exact(&mut msg).unwrap();
    assert!(String::from_utf8_lossy(&msg).contains("exceeds"), "{msg:?}");
    assert_eq!(s.read(&mut [0u8; 16]).unwrap(), 0, "then EOF");

    // Garbage that is neither codec (an HTTP request, say) implies an
    // absurd JSON length and dies on the same bound, answered in JSON.
    let mut s = TcpStream::connect(handle.addr()).unwrap();
    s.set_read_timeout(Some(CLIENT_TIMEOUT)).unwrap();
    s.write_all(b"GET / HTTP/1.1\r\n\r\n").unwrap();
    let mut prefix = [0u8; 4];
    s.read_exact(&mut prefix).unwrap();
    let len = u32::from_be_bytes(prefix) as usize;
    let mut body = vec![0u8; len];
    s.read_exact(&mut body).unwrap();
    let text = std::str::from_utf8(&body).unwrap();
    assert!(text.contains("\"ok\":false"), "{text}");
    assert!(text.contains("4096"), "the reply names the bound: {text}");
    assert_eq!(s.read(&mut [0u8; 16]).unwrap(), 0, "then EOF");

    // A client that tears a frame and vanishes leaves no wreckage.
    let mut s = TcpStream::connect(handle.addr()).unwrap();
    let frame = binwire::encode_request(&binwire::BinRequest::Stats);
    s.write_all(&frame[..5]).unwrap();
    drop(s);
    std::thread::sleep(Duration::from_millis(50));

    let mut bin = NetClient::connect(&addr, CLIENT_TIMEOUT).unwrap();
    assert!(bin.health(None).is_ok(), "server unfazed by all three");
}

/// A wire shutdown acks, then drains: predicts already admitted complete
/// with correct replies before the loop exits.
#[test]
fn client_shutdown_drains_admitted_predicts() {
    let (_, artifact) = &family_artifacts()[0];
    let mut handle = evented(
        artifact,
        EventedConfig {
            batch_deadline: Duration::from_millis(500),
            ..EventedConfig::default()
        },
    );
    let addr = handle.addr().to_string();
    let reference_engine = engine_from(artifact);
    let mut bin = NetClient::connect(&addr, CLIENT_TIMEOUT).unwrap();

    let rows: Vec<Vec<Vec<f64>>> = (0..3)
        .map(|i| random_rows(2, 3, 51_000 + i as u64))
        .collect();
    for r in &rows {
        bin.send_predict_rows(None, r).unwrap();
    }
    // Shutdown acks first (admin ops answer inline)...
    let ack = bin.shutdown_server().unwrap();
    assert_eq!(
        ack.get("shutting_down").and_then(|v| v.as_bool()),
        Some(true)
    );
    // ...and the queued predicts still come back, correct.
    for r in &rows {
        let reply = bin.recv_predict().unwrap();
        let expected = reference_engine.predict_batch(r).unwrap();
        for (i, p) in expected.predictions.iter().enumerate() {
            assert_eq!(reply.classes[i] as usize, p.class_index);
            assert_eq!(reply.scores[i], p.score);
        }
    }
    handle.join();
    assert!(handle.is_shutting_down());
}

/// Concurrent clients over distinct sockets: every one gets its own
/// answers (the micro-batcher must never cross-wire replies), across
/// mixed binary/JSON codecs and mixed registry routes.
#[test]
fn concurrent_mixed_codec_clients_get_their_own_answers() {
    let artifacts = family_artifacts();
    let registry = ModelRegistry::with_default(engine_from(&artifacts[0].1));
    registry.install("naive-bayes", engine_from(&artifacts[1].1));
    registry.install("os-elm", engine_from(&artifacts[2].1));
    let handle = serve_evented(registry, "127.0.0.1:0", EventedConfig::default()).unwrap();
    let addr = handle.addr();

    let workers: Vec<_> = (0..6)
        .map(|w| {
            let route = match w % 3 {
                0 => None,
                1 => Some("naive-bayes"),
                _ => Some("os-elm"),
            };
            let artifact_text = match w % 3 {
                0 => artifacts[0].1.to_json_string(),
                1 => artifacts[1].1.to_json_string(),
                _ => artifacts[2].1.to_json_string(),
            };
            std::thread::spawn(move || {
                let reference =
                    InferenceEngine::new(ModelArtifact::from_json_str(&artifact_text).unwrap())
                        .unwrap();
                let rows = random_rows(24, 3, 88_000 + w as u64);
                let expected = reference.predict_batch(&rows).unwrap();
                if w % 2 == 0 {
                    let mut c = NetClient::connect(&addr.to_string(), CLIENT_TIMEOUT).unwrap();
                    let reply = c.predict_rows(route, &rows).unwrap();
                    for (i, p) in expected.predictions.iter().enumerate() {
                        assert_eq!(reply.classes[i] as usize, p.class_index, "worker {w}");
                        assert_eq!(reply.scores[i], p.score, "worker {w}");
                    }
                } else {
                    let mut c = NetClient::connect_json(&addr.to_string(), CLIENT_TIMEOUT).unwrap();
                    let reply = c.predict_rows(route, &rows).unwrap();
                    for (i, p) in expected.predictions.iter().enumerate() {
                        assert_eq!(reply.classes[i] as usize, p.class_index, "worker {w}");
                        assert_eq!(reply.scores[i], p.score, "worker {w}");
                    }
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }

    // Every worker's request was counted once, with all of its rows.
    let mut bin = NetClient::connect(&addr.to_string(), CLIENT_TIMEOUT).unwrap();
    let stats = bin.stats().unwrap();
    let stats = stats.get("stats").unwrap();
    assert_eq!(stats.get("requests").and_then(|v| v.as_i64()), Some(6));
    assert_eq!(stats.get("rows").and_then(|v| v.as_i64()), Some(6 * 24));
}

/// One-vs-rest over the JSON codec: `health` describes the model, and
/// every class index and label that comes back equals the in-memory
/// ensemble's decision.
#[test]
fn multiclass_round_trip_is_bit_identical_over_json() {
    let format = QFormat::new(2, 7).unwrap();
    let heads = vec![
        FixedPointClassifier::from_float(&[1.0, -0.5, 0.25], 0.0, format).unwrap(),
        FixedPointClassifier::from_float(&[-0.75, 1.25, 0.5], 0.125, format).unwrap(),
        FixedPointClassifier::from_float(&[0.25, 0.25, -1.5], -0.25, format).unwrap(),
    ];
    let clf = OneVsRestClassifier::from_parts(heads, vec![0.8, 0.6, 0.9]).unwrap();
    let mut artifact = ModelArtifact::one_vs_rest(clf.clone());
    artifact.class_labels = vec!["ant".into(), "bee".into(), "wasp".into()];

    let mut handle = evented(&artifact, EventedConfig::default());
    let mut client = NetClient::connect_json(&handle.addr().to_string(), CLIENT_TIMEOUT).unwrap();

    let health = client.health(None).unwrap();
    let model = health.get("model").expect("health carries a model block");
    assert_eq!(
        model.get("kind").and_then(|v| v.as_str()),
        Some("one-vs-rest")
    );
    assert_eq!(model.get("features").and_then(|v| v.as_i64()), Some(3));
    assert_eq!(model.get("classes").and_then(|v| v.as_i64()), Some(3));

    let rows = random_rows(90, 3, 7);
    let reply = client.predict_rows(None, &rows).unwrap();
    assert_eq!(reply.classes.len(), rows.len());
    let labels = ["ant", "bee", "wasp"];
    for (i, (row, &class)) in rows.iter().zip(&reply.classes).enumerate() {
        let expected = clf.classify(row);
        assert_eq!(class as usize, expected, "row {row:?}");
        assert_eq!(reply.label(i), labels[expected]);
    }

    client.shutdown_server().unwrap();
    handle.join();
}

/// A JSON predict with the wrong row width gets the typed mismatch error,
/// the connection keeps serving, and `stats` counts the error (the
/// rejected request is not counted as served).
#[test]
fn feature_mismatch_is_reported_and_the_connection_survives() {
    let (_, artifact) = &family_artifacts()[0];
    let mut handle = evented(artifact, EventedConfig::default());
    let mut client = NetClient::connect_json(&handle.addr().to_string(), CLIENT_TIMEOUT).unwrap();

    match client.predict_rows(None, &[vec![1.0, 2.0]]).unwrap_err() {
        NetError::Server(msg) => {
            assert!(msg.contains("2 features"), "{msg}");
            assert!(msg.contains("expects 3"), "{msg}");
        }
        other => panic!("expected a server-reported error, got {other:?}"),
    }
    let ok = client.predict_rows(None, &[vec![0.0; 3]]).unwrap();
    assert_eq!(ok.classes.len(), 1);

    let stats = client.stats().unwrap();
    let stats = stats.get("stats").unwrap();
    assert_eq!(stats.get("errors").and_then(|v| v.as_i64()), Some(1));
    assert_eq!(stats.get("requests").and_then(|v| v.as_i64()), Some(1));

    client.shutdown_server().unwrap();
    handle.join();
}

/// `EventedHandle::shutdown` returns promptly, a second call is a no-op,
/// and nothing answers on the address afterwards.
#[test]
fn handle_shutdown_is_prompt_and_idempotent() {
    let (_, artifact) = &family_artifacts()[0];
    let mut handle = evented(artifact, EventedConfig::default());
    let addr = handle.addr();
    let started = Instant::now();
    handle.shutdown();
    handle.shutdown();
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "shutdown took {:?}",
        started.elapsed()
    );
    assert!(handle.is_shutting_down());
    // The listener is gone: a fresh connection is refused (or at best
    // accepted by the OS backlog and closed — either way, no reply).
    if let Ok(mut client) = NetClient::connect_json(&addr.to_string(), Duration::from_millis(500)) {
        assert!(client.health(None).is_err());
    }
}

/// The binary client resolves host names: dialing `localhost:<port>`
/// reaches a server bound on the loopback address.
#[test]
fn net_client_dials_a_host_name() {
    let (_, artifact) = &family_artifacts()[0];
    let handle = evented(artifact, EventedConfig::default());
    let addr = format!("localhost:{}", handle.addr().port());
    let mut bin = NetClient::connect(&addr, CLIENT_TIMEOUT).unwrap();
    let rows = random_rows(4, 3, 5);
    let reply = bin.predict_rows(None, &rows).unwrap();
    let expected = engine_from(artifact).predict_batch(&rows).unwrap();
    for (i, p) in expected.predictions.iter().enumerate() {
        assert_eq!(reply.classes[i] as usize, p.class_index, "row {i}");
    }
}
