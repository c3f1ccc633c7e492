//! Serving gate for the evented server (`ldafp-net`): at 16 concurrent
//! clients the binary codec must carry at least 2× the rows/s of the JSON
//! codec on the same server, and under overload the shedder must engage
//! without corrupting any admitted reply.
//!
//! ```text
//! cargo test --release -p ldafp-bench --test net_gate
//! ```
//!
//! Both codecs serve one fixture from one server build, torn down between
//! modes so they never compete for the cores; the comparison isolates the
//! wire codec, not the datapath or the loop:
//!
//! * JSON: request/reply per client (the baseline);
//! * binary: the compact codec with pipelined clients (the deployment
//!   configuration).
#![cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]

use ldafp_core::FixedPointClassifier;
use ldafp_fixedpoint::QFormat;
use ldafp_net::{serve_evented, EventedConfig, NetClient, NetError};
use ldafp_serve::{InferenceEngine, ModelArtifact, ModelRegistry};
use ldafp_stats::Rng;
use std::sync::Barrier;
use std::time::{Duration, Instant};

const CLIENT_TIMEOUT: Duration = Duration::from_secs(30);
/// Feature count (42 ≈ the paper's BCI workload).
const FEATURES: usize = 42;
/// Concurrent client connections per codec.
const CLIENTS: usize = 16;
const ROWS_PER_REQUEST: usize = 16;
const REQUESTS_PER_CLIENT: usize = 64;
/// In-flight requests each binary client keeps pipelined.
const PIPELINE_DEPTH: usize = 8;
/// Minimum binary over JSON rows/s.
const GATE_BINARY_VS_JSON: f64 = 2.0;

/// A `Q2.6` classifier artifact with seeded weights, plus rows for every
/// client.
fn fixture() -> (ModelArtifact, Vec<Vec<f64>>) {
    let mut rng = Rng::new(42);
    let format = QFormat::new(2, 6).expect("static format");
    let weights: Vec<f64> = (0..FEATURES).map(|_| rng.range_f64(-1.5..1.5)).collect();
    let clf =
        FixedPointClassifier::from_float(&weights, 0.125, format).expect("fixture classifier");
    let rows = (0..CLIENTS * ROWS_PER_REQUEST)
        .map(|_| (0..FEATURES).map(|_| rng.range_f64(-0.9..0.9)).collect())
        .collect();
    (ModelArtifact::binary(clf), rows)
}

/// A fresh engine per server and for the reference, so no two share the
/// engine's batch scratch.
fn engine(artifact: &ModelArtifact) -> InferenceEngine {
    InferenceEngine::new(artifact.clone()).expect("fixture artifact validates")
}

/// Runs `CLIENTS` threads of `f`, released together on a barrier, and
/// returns the seconds from release to the last exit.
fn timed_clients<F: Fn(usize) + Sync>(f: F) -> f64 {
    let barrier = Barrier::new(CLIENTS + 1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (barrier, f) = (&barrier, &f);
                scope.spawn(move || {
                    barrier.wait();
                    f(c);
                })
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        for h in handles {
            h.join().expect("gate client panicked");
        }
        start.elapsed().as_secs_f64()
    })
}

/// Sustained rows/s of one codec on a fresh server.
fn rows_per_s(artifact: &ModelArtifact, all_rows: &[Vec<f64>], binary: bool) -> f64 {
    let mut handle = serve_evented(
        ModelRegistry::with_default(engine(artifact)),
        "127.0.0.1:0",
        EventedConfig::default(),
    )
    .expect("evented server starts");
    let addr = handle.addr().to_string();
    let elapsed = timed_clients(|c| {
        let rows = &all_rows[c * ROWS_PER_REQUEST..(c + 1) * ROWS_PER_REQUEST];
        if binary {
            // Keep PIPELINE_DEPTH requests in flight so the micro-batcher
            // sees cross-connection pressure.
            let mut client = NetClient::connect(&addr, CLIENT_TIMEOUT).expect("connect");
            for _ in 0..PIPELINE_DEPTH {
                client.send_predict_rows(None, rows).expect("send");
            }
            for _ in PIPELINE_DEPTH..REQUESTS_PER_CLIENT {
                let reply = client.recv_predict().expect("pipelined recv");
                assert_eq!(reply.classes.len(), rows.len());
                client.send_predict_rows(None, rows).expect("send");
            }
            for _ in 0..PIPELINE_DEPTH {
                let reply = client.recv_predict().expect("drain recv");
                assert_eq!(reply.classes.len(), rows.len());
            }
        } else {
            let mut client = NetClient::connect_json(&addr, CLIENT_TIMEOUT).expect("connect");
            for _ in 0..REQUESTS_PER_CLIENT {
                let reply = client.predict_rows(None, rows).expect("json predict");
                assert_eq!(reply.classes.len(), rows.len());
            }
        }
    });
    handle.shutdown();
    (CLIENTS * REQUESTS_PER_CLIENT * ROWS_PER_REQUEST) as f64 / elapsed
}

#[test]
#[cfg_attr(debug_assertions, ignore = "timing gate: run with --release")]
fn binary_codec_doubles_json_and_shedding_keeps_admitted_replies_exact() {
    let (artifact, all_rows) = fixture();
    let json = rows_per_s(&artifact, &all_rows, false);
    let binary = rows_per_s(&artifact, &all_rows, true);

    // Overload probe: a tiny inflight budget, a long batch deadline and a
    // pipelined burst on one connection.
    const BURST: usize = 24;
    let reference = engine(&artifact);
    let mut handle = serve_evented(
        ModelRegistry::with_default(engine(&artifact)),
        "127.0.0.1:0",
        EventedConfig {
            max_inflight_per_conn: 4,
            batch_deadline: Duration::from_millis(150),
            ..EventedConfig::default()
        },
    )
    .expect("probe server starts");
    let mut client =
        NetClient::connect(&handle.addr().to_string(), CLIENT_TIMEOUT).expect("connect");
    let burst: Vec<Vec<Vec<f64>>> = (0..BURST)
        .map(|i| {
            vec![(0..FEATURES)
                .map(|j| ((i * 31 + j * 7) % 13) as f64 * 0.1 - 0.6)
                .collect()]
        })
        .collect();
    for rows in &burst {
        client.send_predict_rows(None, rows).expect("burst send");
    }
    let mut shed = 0usize;
    let mut admitted = Vec::new();
    for _ in 0..BURST {
        match client.recv_predict() {
            Ok(reply) => admitted.push(reply),
            Err(NetError::Overloaded) => shed += 1,
            Err(e) => panic!("overload probe hit a non-shed error: {e}"),
        }
    }
    handle.shutdown();

    assert!(
        shed > 0,
        "the overload probe never tripped the load-shedder"
    );
    // Admitted replies answer the first requests in order (FIFO per
    // connection); each must equal the in-process reference.
    for (k, reply) in admitted.iter().enumerate() {
        let expected = reference.predict_batch(&burst[k]).expect("reference");
        assert_eq!(reply.classes.len(), 1, "admitted reply {k}");
        assert_eq!(
            (reply.classes[0] as usize, reply.scores[0]),
            (
                expected.predictions[0].class_index,
                expected.predictions[0].score
            ),
            "admitted reply {k} diverged from predict_batch under overload"
        );
    }
    let ratio = binary / json;
    assert!(
        ratio >= GATE_BINARY_VS_JSON,
        "evented binary is {ratio:.2}x evented JSON at {CLIENTS} clients \
         (< {GATE_BINARY_VS_JSON}x gate; binary {binary:.0} rows/s, JSON {json:.0} rows/s)"
    );
}
