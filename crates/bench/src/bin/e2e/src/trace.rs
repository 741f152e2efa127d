//! The traced run: a per-layer budget for one workload.
//!
//! Spans are recorded from the benchmark's own files, around calls into
//! the public functions of each layer; nothing inside the program is
//! instrumented. The run alternates three things, so that whatever the
//! host does during it, it does to every side of the budget:
//!
//! 1. **TCP slices** on the served world: the untraced run's slices,
//!    with every other latency slice also reading the allocation
//!    counters and keeping one span per call. This gives the traced
//!    round trip, the tracing overhead, CPU per operation by thread and
//!    allocations per operation.
//! 2. **An in-process replay round** ([`crate::replay`]) on a second,
//!    identically configured world, one thread: the steps a round trip
//!    crosses, then the layers beneath the service entry point. A
//!    storage decorator and a replay-guard decorator
//!    ([`crate::spans`]) record real child spans inside those calls.
//! 3. **Probes** ([`crate::probes`]): what the replay cannot see — both
//!    socket ends, the event loop, the client's framing — measured on
//!    its own as the round trip of a request that needs no service
//!    work, so the layers are checked against the measured round trip
//!    rather than defined to sum to it (`trace.sum_vs_rtt_pct`).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use proxy_net::NetError;
use proxy_storage::Storage;
use proxy_wire::Message;

use crate::harness::{rtt_slice, sat_slice, warm_up, HostLog, Served, Tally};
use crate::host;
use crate::measure::RunCfg;
use crate::probes::{Probes, PROBE_OPS};
use crate::replay::{service_span, Replay, BATCH};
use crate::spans::{write_spans, Durations, Sink, SpanStorage, WAIT_SPAN};
use crate::stats::{
    median, percentile, sorted, supported_tail_pct, Metrics, RunResult, CALIB_REF_NS,
};
use crate::worlds::{hit_ratio, plain_storage, World, WorldCfg};

/// The per-layer metrics and their units, as `BENCHMARK.json` lists
/// them. Every workload reports all of them; a layer a workload never
/// enters reads zero.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("wire.encode_req_us", "us"),
    ("wire.split_req_us", "us"),
    ("wire.decode_req_us", "us"),
    ("wire.encode_reply_us", "us"),
    ("wire.split_reply_us", "us"),
    ("wire.decode_reply_us", "us"),
    ("wire.req_bytes", "B"),
    ("wire.reply_bytes", "B"),
    ("net.mux_handle_us", "us"),
    ("net.mux_self_us", "us"),
    ("net.socket_echo_us", "us"),
    ("net.socket_residual_us", "us"),
    ("net.server_cpu_us_per_op", "us"),
    ("net.client_cpu_us_per_op", "us"),
    ("net.rtt_p50_traced_us", "us"),
    ("net.rtt_p99_us", "us"),
    ("net.rtt_samples", "count"),
    ("net.pipeline_gain", "ratio"),
    ("runtime.poller_wake_us", "us"),
    ("authz.request_authorization_us", "us"),
    ("authz.authorize_us", "us"),
    ("proxy.verify_us", "us"),
    ("proxy.verify_self_us", "us"),
    ("proxy.replay_check_us", "us"),
    ("proxy.seal_cache_hit_ratio", "ratio"),
    ("proxy.seal_lookups_per_op", "count"),
    ("crypto.ed25519_verify_us", "us"),
    ("crypto.ed25519_verifies_per_op", "count"),
    ("crypto.hmac_us", "us"),
    ("crypto.per_op_us", "us"),
    ("accounting.deposit_us", "us"),
    ("accounting.self_us", "us"),
    ("storage.stage_us", "us"),
    ("storage.wait_durable_us", "us"),
    ("storage.wait_durable_p99_us", "us"),
    ("storage.waits_per_op", "count"),
    ("storage.bytes_per_op", "B"),
    ("alloc.allocs_per_op", "count"),
    ("alloc.bytes_per_op", "B"),
    ("host.pinned", "count"),
    ("host.calib_ns_p50", "ns"),
    ("host.calib_spread_pct", "%"),
    ("host.steal_pct", "%"),
    ("trace.sum_vs_rtt_pct", "%"),
    ("trace.overhead_pct", "%"),
];

/// The steps of one request's in-process replay, in the order a round
/// trip crosses them. Their medians are the in-process part of the
/// budget.
const ROUND_TRIP_STEPS: [&str; 7] = [
    "wire.encode_req",
    "wire.split_req",
    "wire.decode_req",
    "net.mux_handle",
    "wire.encode_reply",
    "wire.split_reply",
    "wire.decode_reply",
];

/// The metrics (all in microseconds) that are one span's duration per
/// operation: `(metric, span)`.
const SPAN_MEDIANS: &[(&str, &str)] = &[
    ("wire.encode_req_us", "wire.encode_req"),
    ("wire.split_req_us", "wire.split_req"),
    ("wire.decode_req_us", "wire.decode_req"),
    ("wire.encode_reply_us", "wire.encode_reply"),
    ("wire.split_reply_us", "wire.split_reply"),
    ("wire.decode_reply_us", "wire.decode_reply"),
    ("net.mux_handle_us", "net.mux_handle"),
    (
        "authz.request_authorization_us",
        "authz.request_authorization",
    ),
    ("authz.authorize_us", "authz.authorize"),
    ("proxy.verify_us", "proxy.verify"),
    ("proxy.replay_check_us", "proxy.replay_check"),
    ("crypto.ed25519_verify_us", "crypto.ed25519_verify"),
    ("crypto.hmac_us", "crypto.hmac"),
    ("accounting.deposit_us", "accounting.deposit"),
    ("storage.stage_us", "storage.stage"),
    ("storage.wait_durable_us", WAIT_SPAN),
];

/// `(allocation calls, bytes requested)` so far, process-wide; zero in
/// a build without the counting allocator.
fn alloc_counters() -> (u64, u64) {
    #[cfg(feature = "alloc-count")]
    {
        let snapshot = proxy_bench::alloc_count::snapshot();
        (snapshot.allocs, snapshot.bytes)
    }
    #[cfg(not(feature = "alloc-count"))]
    {
        (0, 0)
    }
}

/// The world served over TCP, and what its slices measured.
struct TcpSide {
    world: World,
    served: Served,
    next_req: u64,
    plain_rtt_us: Vec<f64>,
    traced_rtt_us: Vec<f64>,
    /// Every traced round trip, corrected, microseconds.
    round_trips_us: Vec<f64>,
    sat_ops_s: Vec<f64>,
    server_cpu_us: Vec<f64>,
    client_cpu_us: Vec<f64>,
    allocs_per_op: Vec<f64>,
    alloc_bytes_per_op: Vec<f64>,
}

impl TcpSide {
    /// A plain latency slice, a traced one and a saturation slice. The
    /// traced slice differs from the plain one (which is the untraced
    /// run's) by two readings of the allocation counters and by keeping
    /// one `net.rtt` span per call.
    fn triple(&mut self, cfg: &RunCfg, sink: &Sink, host: &mut HostLog) {
        let (world, client) = (&mut self.world, &self.served.client);
        let plain = rtt_slice(world, client, cfg.scale.rtt, host, &mut || ());
        self.plain_rtt_us.push(plain.p50_us());

        let mut counters = Vec::with_capacity(2);
        let traced = rtt_slice(world, client, cfg.scale.rtt, host, &mut || {
            counters.push(alloc_counters());
        });
        let ops = traced.latencies_ns.len();
        self.traced_rtt_us.push(traced.p50_us());
        self.round_trips_us.extend(
            traced
                .latencies_ns
                .iter()
                .map(|l| traced.sample.correct(*l) / 1e3),
        );
        self.allocs_per_op
            .push((counters[1].0 - counters[0].0) as f64 / ops as f64);
        self.alloc_bytes_per_op
            .push((counters[1].1 - counters[0].1) as f64 / ops as f64);
        sink.push_round_trips(self.next_req, &traced.started, &traced.latencies_ns);
        self.next_req += ops as u64;

        let sat = sat_slice(world, client, cfg.scale.sat, host);
        self.sat_ops_s.push(sat.ops_per_s());
        let per_op = CALIB_REF_NS / sat.sample.calib_ns / sat.ops as f64 / 1e3;
        self.server_cpu_us
            .push(sat.sample.cpu.server as f64 * per_op);
        self.client_cpu_us
            .push(sat.sample.cpu.client as f64 * per_op);
    }
}

/// Runs the workload traced and returns its per-layer metrics.
pub fn run(cfg: &RunCfg) -> Result<RunResult, String> {
    let name = cfg.workload.name();
    let mut host = HostLog::start()?;
    let sink = Sink::new();
    let mut tally = Tally::default();

    // The world served over TCP keeps its plain storage, so that its
    // round trip is the untraced run's.
    let world_cfg = WorldCfg {
        scale: cfg.scale,
        scratch: cfg.scratch.clone(),
        replay_capacity: cfg.replay_capacity,
        wrap_storage: &plain_storage,
    };
    let mut world = World::build(cfg.workload, cfg.seed, &world_cfg)?;
    let served = Served::spawn(&world.mux, cfg.seed)?;
    warm_up(&mut world, &served.client, cfg.scale.warmup_ops);
    let lookups_before = world.seal_cache_stats();
    let ops_before = world.attempted;
    let mut tcp = TcpSide {
        world,
        served,
        next_req: 1,
        plain_rtt_us: Vec::new(),
        traced_rtt_us: Vec::new(),
        round_trips_us: Vec::new(),
        sat_ops_s: Vec::new(),
        server_cpu_us: Vec::new(),
        client_cpu_us: Vec::new(),
        allocs_per_op: Vec::new(),
        alloc_bytes_per_op: Vec::new(),
    };

    // The replayed world's storage records spans.
    let staged_bytes = Arc::new(AtomicU64::new(0));
    let wrap = |inner: Arc<dyn Storage>| -> Arc<dyn Storage> {
        Arc::new(SpanStorage::new(
            inner,
            sink.clone(),
            Arc::clone(&staged_bytes),
        ))
    };
    let replay_cfg = WorldCfg {
        scratch: cfg.scratch.join("replay"),
        wrap_storage: &wrap,
        ..world_cfg
    };
    let world = World::build(cfg.workload, cfg.seed, &replay_cfg)?;
    let mut replay = Replay::new(world, &sink, cfg.seed);
    // Warm-up: the same steps; these spans belong to no round and so
    // enter no statistic.
    for _ in 0..cfg.scale.warmup_ops.div_ceil(BATCH) {
        replay.wire_and_handle();
        let requests = replay.service_direct();
        replay.verify_and_crypto(&requests);
    }
    let bytes_before = staged_bytes.load(Ordering::Relaxed);

    // TCP slices and replay rounds alternate, so that whatever the host
    // (or the disk under `fig5_wal`) does during the run, it does to
    // both sides of the budget.
    let batches = cfg.scale.rtt.0.div_ceil(BATCH);
    let mut probes = Probes::start(cfg.seed)?;
    let mut rounds = Vec::new();
    let started = Instant::now();
    while rounds.len() < cfg.min_pairs || started.elapsed() < cfg.measure_for {
        tcp.triple(cfg, &sink, &mut host);
        rounds.push(replay.round(batches, &mut host));
        probes.round(PROBE_OPS.min(cfg.scale.rtt.0), &mut host)?;
    }
    let Probes {
        echo_rtt_us,
        echo_in_process_us,
        poller_wake_us,
        ..
    } = probes;
    let staged = staged_bytes.load(Ordering::Relaxed) - bytes_before;

    // Correctness, both worlds.
    let TcpSide {
        world,
        served,
        plain_rtt_us,
        traced_rtt_us,
        round_trips_us: round_trips,
        sat_ops_s,
        server_cpu_us,
        client_cpu_us,
        allocs_per_op,
        alloc_bytes_per_op,
        ..
    } = tcp;
    let lookups_after = world.seal_cache_stats();
    let tcp_ops = (world.attempted - ops_before) as f64;
    tally.close_served(world, served, true);

    let Replay {
        world: replay_world,
        problems: replay_problems,
        mut rng,
        frame_bytes,
        possession_checks,
        presentations_seen,
        ..
    } = replay;
    tally.problems(replay_problems);
    let mux = Arc::clone(&replay_world.mux);
    tally.close_local(replay_world, |request| {
        match mux.handle(request.clone(), &mut rng) {
            Message::Error { code, detail } => Err(NetError::Remote { code, detail }),
            reply => Ok(reply),
        }
    });

    // The budget.
    let spans = sink.take();
    let d = Durations::from_spans(&spans, &rounds);
    let rtt = median(&traced_rtt_us);
    let in_process: f64 = ROUND_TRIP_STEPS.iter().map(|s| d.p50(s)).sum();
    let echo_rtt = median(&echo_rtt_us);
    let socket_echo = echo_rtt - median(&echo_in_process_us);
    let service = d.p50(service_span(cfg.workload));
    let deposits = ["net.mux_handle", "accounting.deposit"];
    let deposit_ops = d.count(deposits[0]) + d.count(deposits[1]);
    let stages_per_op = d.count_ratio("storage.stage", &deposits);
    let waits_per_op = d.count_ratio(WAIT_SPAN, &deposits);
    let storage_per_op = d.p50("storage.stage") * stages_per_op + d.p50(WAIT_SPAN) * waits_per_op;
    let verify = d.p50("proxy.verify");
    let crypto_per_op = d.p50("crypto.per_op") + d.p50("crypto.hmac");
    let waits = sorted(&d.all(WAIT_SPAN));
    let round_trips = sorted(&round_trips);
    let tail = supported_tail_pct(round_trips.len()).min(99.0);
    let (hits, misses) = (
        lookups_after.0 - lookups_before.0,
        lookups_after.1 - lookups_before.1,
    );
    // Seals the serving cache missed, plus the possession proof a
    // bearer presentation under an Ed25519 proxy key carries.
    let ed25519_per_op = misses as f64 / tcp_ops.max(1.0)
        + possession_checks as f64 / presentations_seen.max(1) as f64;

    let mut m = Metrics::default();
    for (metric, span) in SPAN_MEDIANS {
        m.push(metric, "us", d.p50(span));
    }
    m.push("wire.req_bytes", "B", median(&frame_bytes.0));
    m.push("wire.reply_bytes", "B", median(&frame_bytes.1));
    let mux_self = (d.p50("net.mux_handle") - service).max(0.0);
    m.push("net.mux_self_us", "us", mux_self);
    m.push("net.socket_echo_us", "us", socket_echo);
    m.push("net.socket_residual_us", "us", rtt - in_process);
    m.push("net.server_cpu_us_per_op", "us", median(&server_cpu_us));
    m.push("net.client_cpu_us_per_op", "us", median(&client_cpu_us));
    m.push("net.rtt_p50_traced_us", "us", rtt);
    m.push("net.rtt_p99_us", "us", percentile(&round_trips, tail));
    m.push("net.rtt_samples", "count", round_trips.len() as f64);
    let gain = median(&sat_ops_s) * rtt / 1e6;
    m.push("net.pipeline_gain", "ratio", gain);
    let poller_wake = median(&poller_wake_us);
    m.push("runtime.poller_wake_us", "us", poller_wake);
    let verify_self = (verify - d.p50("crypto.per_op")).max(0.0);
    m.push("proxy.verify_self_us", "us", verify_self);
    let hit_ratio = hit_ratio(hits, misses);
    m.push("proxy.seal_cache_hit_ratio", "ratio", hit_ratio);
    let lookups_per_op = (hits + misses) as f64 / tcp_ops.max(1.0);
    m.push("proxy.seal_lookups_per_op", "count", lookups_per_op);
    m.push("crypto.ed25519_verifies_per_op", "count", ed25519_per_op);
    m.push("crypto.per_op_us", "us", crypto_per_op);
    // Zero off fig5, where there is no deposit to take children from.
    let deposit = d.p50("accounting.deposit");
    let accounting_self = (deposit - verify - storage_per_op).max(0.0).min(deposit);
    m.push("accounting.self_us", "us", accounting_self);
    let wait_tail = supported_tail_pct(waits.len()).min(99.0);
    let wait_p99 = percentile(&waits, wait_tail);
    m.push("storage.wait_durable_p99_us", "us", wait_p99);
    m.push("storage.waits_per_op", "count", waits_per_op);
    let bytes_per_op = staged as f64 / deposit_ops.max(1) as f64;
    m.push("storage.bytes_per_op", "B", bytes_per_op);
    m.push("alloc.allocs_per_op", "count", median(&allocs_per_op));
    m.push("alloc.bytes_per_op", "B", median(&alloc_bytes_per_op));
    let pinned = f64::from(u8::from(host::pinned_to_one_cpu()));
    m.push("host.pinned", "count", pinned);
    m.push("host.calib_ns_p50", "ns", host.calib_p50());
    m.push("host.calib_spread_pct", "%", host.calib_spread_pct());
    m.push("host.steal_pct", "%", host.steal_pct());
    let budget_pct = 100.0 * (in_process + socket_echo) / rtt;
    m.push("trace.sum_vs_rtt_pct", "%", budget_pct);
    let overhead = 100.0 * (rtt / median(&plain_rtt_us) - 1.0);
    m.push("trace.overhead_pct", "%", overhead);

    let trace_file = cfg.scratch.join(format!("trace-{name}.jsonl"));
    if let Err(e) = write_spans(&trace_file, &spans) {
        tally.problems([format!("could not write {}: {e}", trace_file.display())]);
    }

    println!("workload {name} seed {} (traced)", cfg.seed);
    m.print();
    println!(
        "budget: in-process {in_process:.3} us + socket {socket_echo:.3} us vs round trip \
         {rtt:.3} us (echo round trip {echo_rtt:.3} us); the tails are p{tail} of \
         {} round trips and p{wait_tail} of {} durability waits",
        round_trips.len(),
        waits.len()
    );
    println!(
        "samples: {} rounds of slices and replay, {} spans -> {}",
        rounds.len(),
        spans.len(),
        trace_file.display()
    );
    println!("{}", host.report());
    Ok(tally.into_result(m))
}
