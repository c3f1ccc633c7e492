//! Sustained multi-connection serving throughput of the evented server
//! (`ldafp-net`) over its two codecs on the same artifact, measured at N
//! concurrent client connections over loopback, plus an overload probe
//! proving the load-shedder refuses work without corrupting admitted
//! requests. Written to `BENCH_net.json`.
//!
//! Two configurations share one fixture and one server build, so the
//! comparison isolates the wire codec, not the datapath or the loop:
//!
//! * **evented JSON** — epoll loop + micro-batching, JSON frames,
//!   request/reply per client (the baseline);
//! * **evented binary** — the same loop with the compact binary codec
//!   and client-side pipelining (the deployment configuration).

use ldafp_net::{serve_evented, EventedConfig, NetClient, NetError};
use ldafp_serve::json::Value;
use ldafp_serve::{InferenceEngine, ModelArtifact, ModelRegistry};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use super::serve_fixture;

const CLIENT_TIMEOUT: Duration = Duration::from_secs(30);

/// Workload shape for [`run_net_throughput`].
#[derive(Debug, Clone)]
pub struct NetBenchConfig {
    /// Feature count (42 ≈ the paper's BCI workload).
    pub num_features: usize,
    /// Concurrent client connections per configuration.
    pub clients: usize,
    /// Rows per predict request.
    pub rows_per_request: usize,
    /// Requests each client issues in the timed window.
    pub requests_per_client: usize,
    /// In-flight requests each binary client keeps pipelined.
    pub pipeline_depth: usize,
}

impl Default for NetBenchConfig {
    fn default() -> Self {
        NetBenchConfig {
            num_features: 42,
            clients: 16,
            rows_per_request: 16,
            requests_per_client: 64,
            pipeline_depth: 8,
        }
    }
}

/// Measured sustained throughput plus the overload-probe verdicts.
#[derive(Debug, Clone)]
pub struct NetThroughputReport {
    /// Concurrent client connections.
    pub clients: usize,
    /// Rows per predict request.
    pub rows_per_request: usize,
    /// Requests per client.
    pub requests_per_client: usize,
    /// Feature count.
    pub num_features: usize,
    /// Evented server, JSON codec, request/reply per client.
    pub evented_json_rows_per_s: f64,
    /// Evented server, binary codec, pipelined clients.
    pub evented_binary_rows_per_s: f64,
    /// The shedder refused at least one request in the overload probe.
    pub shed_engaged: bool,
    /// Every admitted reply in the overload probe was bit-identical to
    /// the in-process reference (overload never corrupts in-flight work).
    pub shed_admitted_correct: bool,
}

impl NetThroughputReport {
    /// The headline ratio: the binary codec over the JSON codec on the
    /// same server.
    #[must_use]
    pub fn binary_vs_json(&self) -> f64 {
        self.evented_binary_rows_per_s / self.evented_json_rows_per_s
    }

    /// The `BENCH_net.json` document.
    #[must_use]
    pub fn to_json_string(&self) -> String {
        Value::object([
            ("bench", Value::from("net-throughput")),
            ("clients", Value::from(self.clients)),
            ("rows_per_request", Value::from(self.rows_per_request)),
            (
                "requests_per_client",
                Value::from(self.requests_per_client),
            ),
            ("num_features", Value::from(self.num_features)),
            (
                "evented_json_rows_per_s",
                Value::from(self.evented_json_rows_per_s),
            ),
            (
                "evented_binary_rows_per_s",
                Value::from(self.evented_binary_rows_per_s),
            ),
            ("binary_vs_json", Value::from(self.binary_vs_json())),
            ("shed_engaged", Value::from(self.shed_engaged)),
            (
                "shed_admitted_correct",
                Value::from(self.shed_admitted_correct),
            ),
        ])
        .to_pretty_string()
    }
}

/// Per-client request rows, deterministic per client index so every
/// configuration classifies the exact same byte streams.
fn client_rows(all: &[Vec<f64>], config: &NetBenchConfig, client: usize) -> Vec<Vec<f64>> {
    let offset = (client * config.rows_per_request) % all.len().max(1);
    (0..config.rows_per_request)
        .map(|i| all[(offset + i) % all.len()].clone())
        .collect()
}

/// Runs `clients` worker threads against `f`, synchronized on a barrier,
/// and returns the wall-clock seconds from release to last exit.
fn timed_clients<F>(clients: usize, f: F) -> f64
where
    F: Fn(usize) + Sync,
{
    let barrier = Barrier::new(clients + 1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let barrier = &barrier;
                let f = &f;
                scope.spawn(move || {
                    barrier.wait();
                    f(c);
                })
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        for h in handles {
            h.join().expect("bench client panicked");
        }
        start.elapsed().as_secs_f64()
    })
}

/// Measures the two configurations on one shared fixture and runs the
/// overload probe. Loopback only; servers are torn down between modes so
/// the configurations never compete for the core.
///
/// # Panics
///
/// Panics when a server fails to start or a client hits a transport
/// error — a bench fixture failure, not a measurement.
#[must_use]
pub fn run_net_throughput(config: &NetBenchConfig) -> NetThroughputReport {
    let (engine, all_rows) = serve_fixture(
        config.num_features,
        (config.clients * config.rows_per_request).max(1),
    );
    let artifact_text = engine.artifact().to_json_string();
    let fresh_engine = || {
        InferenceEngine::new(ModelArtifact::from_json_str(&artifact_text).expect("own artifact"))
            .expect("fixture artifact validates")
    };
    let total_rows =
        (config.clients * config.requests_per_client * config.rows_per_request) as f64;

    // JSON then binary, fresh server per mode.
    let evented = |binary: bool| -> f64 {
        let mut handle = serve_evented(
            ModelRegistry::with_default(fresh_engine()),
            "127.0.0.1:0",
            EventedConfig::default(),
        )
        .expect("evented server starts");
        let addr = handle.addr();
        let elapsed = timed_clients(config.clients, |c| {
            let rows = client_rows(&all_rows, config, c);
            if binary {
                // Pipelined: keep `pipeline_depth` requests in flight so
                // the micro-batcher sees cross-connection pressure.
                let mut client =
                    NetClient::connect(&addr.to_string(), CLIENT_TIMEOUT).expect("connect");
                let depth = config.pipeline_depth.clamp(1, config.requests_per_client);
                for _ in 0..depth {
                    client.send_predict_rows(None, &rows).expect("send");
                }
                for _ in depth..config.requests_per_client {
                    let reply = client.recv_predict().expect("pipelined recv");
                    assert_eq!(reply.classes.len(), rows.len());
                    client.send_predict_rows(None, &rows).expect("send");
                }
                for _ in 0..depth {
                    let reply = client.recv_predict().expect("drain recv");
                    assert_eq!(reply.classes.len(), rows.len());
                }
            } else {
                let mut client =
                    NetClient::connect_json(&addr.to_string(), CLIENT_TIMEOUT).expect("connect");
                for _ in 0..config.requests_per_client {
                    let reply = client.predict_rows(None, &rows).expect("evented json predict");
                    assert_eq!(reply.classes.len(), rows.len());
                }
            }
        });
        handle.shutdown();
        total_rows / elapsed
    };
    let evented_json_rows_per_s = evented(false);
    let evented_binary_rows_per_s = evented(true);

    let (shed_engaged, shed_admitted_correct) = overload_probe(&fresh_engine(), &artifact_text);

    NetThroughputReport {
        clients: config.clients,
        rows_per_request: config.rows_per_request,
        requests_per_client: config.requests_per_client,
        num_features: config.num_features,
        evented_json_rows_per_s,
        evented_binary_rows_per_s,
        shed_engaged,
        shed_admitted_correct,
    }
}

/// Drives an evented server into overload (tiny inflight budget, long
/// batch deadline, a pipelined burst) and checks the two acceptance
/// properties: the shedder engages, and every admitted reply is
/// bit-identical to the in-process reference.
fn overload_probe(reference: &InferenceEngine, artifact_text: &str) -> (bool, bool) {
    const BURST: usize = 24;
    const INFLIGHT: usize = 4;
    let engine = InferenceEngine::new(
        ModelArtifact::from_json_str(artifact_text).expect("own artifact"),
    )
    .expect("fixture artifact validates");
    let mut handle = serve_evented(
        ModelRegistry::with_default(engine),
        "127.0.0.1:0",
        EventedConfig {
            max_inflight_per_conn: INFLIGHT,
            batch_deadline: Duration::from_millis(150),
            ..EventedConfig::default()
        },
    )
    .expect("probe server starts");
    let mut client =
        NetClient::connect(&handle.addr().to_string(), CLIENT_TIMEOUT).expect("connect");

    let rows: Vec<Vec<Vec<f64>>> = (0..BURST)
        .map(|i| {
            vec![(0..reference.num_features())
                .map(|j| ((i * 31 + j * 7) % 13) as f64 * 0.1 - 0.6)
                .collect()]
        })
        .collect();
    for r in &rows {
        client.send_predict_rows(None, r).expect("burst send");
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

    // Admitted replies answer the first `admitted.len()` requests in
    // order (FIFO per connection); each must match the reference.
    let correct = admitted.iter().enumerate().all(|(k, reply)| {
        let expected = reference.predict_batch(&rows[k]).expect("reference");
        reply.classes.len() == 1
            && reply.classes[0] as usize == expected.predictions[0].class_index
            && reply.scores[0] == expected.predictions[0].score
    });
    (shed > 0, correct)
}

#[cfg(test)]
#[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
mod tests {
    use super::*;

    #[test]
    fn net_throughput_report_is_positive_and_serializes() {
        let report = run_net_throughput(&NetBenchConfig {
            num_features: 8,
            clients: 2,
            rows_per_request: 4,
            requests_per_client: 6,
            pipeline_depth: 2,
        });
        assert!(report.evented_json_rows_per_s > 0.0);
        assert!(report.evented_binary_rows_per_s > 0.0);
        assert!(report.shed_engaged, "overload probe must trip the shedder");
        assert!(report.shed_admitted_correct);
        let json = report.to_json_string();
        for needle in [
            "\"bench\"",
            "\"binary_vs_json\"",
            "\"shed_engaged\"",
            "\"shed_admitted_correct\"",
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
    }
}
