//! What the traced and the untraced run share: a world served over
//! loopback TCP, the warm-up, and the two kinds of timed slice.

use std::sync::Arc;
use std::time::Instant;

use proxy_net::{ClientOptions, EventLoopServer, NetError, ServiceMux, TcpClient, Transport};
use proxy_wire::Message;
use restricted_proxy::prelude::MapResolver;

use crate::host::{self, CpuTimes, Yardstick};
use crate::stats::{self, corrected, Metrics, RunResult};
use crate::worlds::World;

/// In-flight requests on the one connection during saturation slices.
pub const PIPELINE_DEPTH: usize = 16;

/// Yardstick runs on each side of a measurement that is timed whole.
const BRACKET_RUNS: usize = 8;

/// Wall and on-CPU time of one measurement, and the yardstick beside
/// it.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// Elapsed nanoseconds of the measured work, the yardstick runs
    /// between its pieces left out.
    pub wall_ns: f64,
    /// On-CPU nanoseconds of the measured work, by thread role, the
    /// yardstick's own left out.
    pub cpu: CpuTimes,
    /// Mean of the yardstick runs before, between and after the pieces
    /// of the measurement.
    pub calib_ns: f64,
}

impl Sample {
    /// Share of the wall time the process spent on a CPU, at most one
    /// (two threads overlap only when the process is not pinned).
    pub fn busy(&self) -> f64 {
        (self.cpu.total as f64 / self.wall_ns).min(1.0)
    }

    /// `wall`, a duration inside this sample (the sample itself, or one
    /// operation of it), corrected for host speed: the sample's on-CPU
    /// share of it is rescaled, the rest left as measured.
    pub fn correct(&self, wall: f64) -> f64 {
        corrected(wall, wall * self.busy(), self.calib_ns)
    }
}

/// The yardstick and every run of it, for the `host.*` diagnostics.
pub struct HostLog {
    yardstick: Yardstick,
    calib_ns: Vec<f64>,
    steal_at_start: (u64, u64),
}

impl HostLog {
    /// Starts the yardstick, the log and the steal-time window.
    pub fn start() -> Result<HostLog, String> {
        Ok(HostLog {
            yardstick: Yardstick::start().map_err(|e| format!("yardstick: {e}"))?,
            calib_ns: Vec::new(),
            steal_at_start: host::steal_jiffies(),
        })
    }

    fn yardstick(&mut self) -> f64 {
        let ns = self.yardstick.run();
        self.calib_ns.push(ns);
        ns
    }

    /// Runs `piece` `pieces` times with a yardstick run before each and
    /// one after the last, between two readings of the on-CPU clocks.
    /// The pieces are a millisecond or so each: the host's speed moves
    /// on every timescale from there up (README.md, "Why it repeats"),
    /// and only a yardstick read that often moves with the work.
    pub fn interleaved(&mut self, pieces: usize, mut piece: impl FnMut(usize)) -> Sample {
        // Nothing here allocates between the first piece and the last.
        self.calib_ns.reserve(pieces + 1);
        let cpu_before = host::cpu_times();
        let whole = Instant::now();
        let (mut wall_ns, mut yard_ns) = (0.0, 0.0);
        for index in 0..pieces {
            yard_ns += self.yardstick();
            let start = Instant::now();
            piece(index);
            wall_ns += start.elapsed().as_nanos() as f64;
        }
        yard_ns += self.yardstick();
        let whole_ns = whole.elapsed().as_nanos() as f64;
        let cpu = host::cpu_times().since(cpu_before);
        // What is neither a piece nor a yardstick run — this loop — is a
        // few clock readings per piece.
        Sample {
            wall_ns,
            cpu: without_yardstick(cpu, whole_ns - wall_ns),
            calib_ns: yard_ns / (pieces + 1) as f64,
        }
    }

    /// Runs `work` whole, between two readings of the on-CPU clocks and
    /// [`BRACKET_RUNS`] yardstick runs on each side: for work that
    /// cannot be cut into pieces (a set-up).
    pub fn bracketed<T>(&mut self, work: impl FnOnce() -> T) -> (Sample, T) {
        let mut yard_ns = 0.0;
        for _ in 0..BRACKET_RUNS {
            yard_ns += self.yardstick();
        }
        let cpu_before = host::cpu_times();
        let start = Instant::now();
        let out = work();
        let wall_ns = start.elapsed().as_nanos() as f64;
        let cpu = host::cpu_times().since(cpu_before);
        for _ in 0..BRACKET_RUNS {
            yard_ns += self.yardstick();
        }
        (
            Sample {
                wall_ns,
                cpu,
                calib_ns: yard_ns / (2 * BRACKET_RUNS) as f64,
            },
            out,
        )
    }

    /// Median yardstick run, nanoseconds.
    pub fn calib_p50(&self) -> f64 {
        stats::median(&self.calib_ns)
    }

    /// Distance between the 10th and 90th percentile yardstick run as
    /// a percentage of the median: how much the host's speed moved.
    pub fn calib_spread_pct(&self) -> f64 {
        let sorted = stats::sorted(&self.calib_ns);
        let spread = stats::percentile(&sorted, 90.0) - stats::percentile(&sorted, 10.0);
        100.0 * spread / self.calib_p50().max(1.0)
    }

    /// Steal time as a percentage of all CPU time since the log began.
    pub fn steal_pct(&self) -> f64 {
        let (steal, total) = host::steal_jiffies();
        let steal = steal.saturating_sub(self.steal_at_start.0);
        let total = total.saturating_sub(self.steal_at_start.1);
        100.0 * steal as f64 / total.max(1) as f64
    }

    /// Lines describing the host for the human-readable report; a run
    /// on a host this unsteady is marked, never failed.
    pub fn report(&self) -> String {
        let (spread, steal) = (self.calib_spread_pct(), self.steal_pct());
        let mark = if spread > 80.0 || steal > 10.0 {
            "  ** unsteady host: treat this run with suspicion **"
        } else {
            ""
        };
        format!(
            "host.pinned {}\nhost.calib_ns_p50 {:.0} ns ({} runs)\nhost.calib_spread_pct {spread:.1} %\n\
             host.steal_pct {steal:.2} %{mark}",
            u8::from(host::pinned_to_one_cpu()),
            self.calib_p50(),
            self.calib_ns.len(),
        )
    }
}

/// `cpu`, read around pieces of work and `yard_ns` nanoseconds of
/// yardstick runs, with the yardstick's share taken out. A yardstick
/// run keeps a pinned CPU busy throughout, its echo thread for the part
/// `cpu.yardstick` counted and the calling thread for the rest.
fn without_yardstick(cpu: CpuTimes, yard_ns: f64) -> CpuTimes {
    let yard = yard_ns as u64;
    CpuTimes {
        total: cpu.total.saturating_sub(yard),
        client: cpu
            .client
            .saturating_sub(yard.saturating_sub(cpu.yardstick)),
        server: cpu.server,
        yardstick: 0,
    }
}

/// A world's mux served by a one-worker event loop, and the one client
/// (one thread, one connection) that talks to it.
pub struct Served {
    /// The client.
    pub client: TcpClient,
    // Dropped after the client: shuts the worker down and joins it.
    _server: EventLoopServer,
}

impl Served {
    /// Spawns the server on an ephemeral loopback port.
    pub fn spawn(mux: &Arc<ServiceMux<MapResolver>>, seed: u64) -> Result<Served, String> {
        let server = EventLoopServer::spawn(Arc::clone(mux), seed)
            .map_err(|e| format!("spawn event loop: {e}"))?;
        let client = TcpClient::new(server.addr(), ClientOptions::default());
        Ok(Served {
            client,
            _server: server,
        })
    }
}

/// The running correctness tally of a run, over every world it built.
#[derive(Default)]
pub struct Tally {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Tally {
    /// Closes a served world: the end-of-run checks that need the
    /// server answering (`probe`; skipped for a world that was only set
    /// up), then the server dropped, then the checks that need it gone.
    pub fn close_served(&mut self, mut world: World, served: Served, probe: bool) {
        if probe {
            self.problems
                .extend(world.check_online(|request| served.client.call(request)));
        }
        drop(served);
        self.close(world);
    }

    /// Closes a world that was driven in-process through `call`.
    pub fn close_local(
        &mut self,
        mut world: World,
        call: impl FnMut(&Message) -> Result<Message, NetError>,
    ) {
        self.problems.extend(world.check_online(call));
        self.close(world);
    }

    fn close(&mut self, mut world: World) {
        self.attempted += world.attempted;
        self.failed += world.failed;
        self.problems.append(&mut world.failure_notes);
        self.problems.extend(world.check_offline());
    }

    /// Notes something wrong that no world saw.
    pub fn problems(&mut self, problems: impl IntoIterator<Item = String>) {
        self.problems.extend(problems);
    }

    /// Prints the tally and turns it, with `metrics`, into the run's
    /// result: correct only if no operation failed and no check did.
    pub fn into_result(self, metrics: Metrics) -> RunResult {
        println!(
            "ops_attempted {}\nops_failed {}",
            self.attempted, self.failed
        );
        for problem in &self.problems {
            println!("FAILED CHECK: {problem}");
        }
        RunResult {
            correct: self.failed == 0 && self.problems.is_empty(),
            attempted: self.attempted,
            failed: self.failed,
            metrics,
        }
    }
}

/// The fixed-count warm-up: `ops` calls at depth 1, then `ops`
/// pipelined, all checked like any other reply.
pub fn warm_up(world: &mut World, client: &TcpClient, ops: usize) {
    for request in &world.next_batch(ops) {
        let result = client.call(request);
        world.record(&result, false);
    }
    let batch = world.next_batch(ops);
    for result in &client.call_pipelined(&batch, PIPELINE_DEPTH) {
        world.record(result, false);
    }
}

/// One latency slice.
pub struct RttSlice {
    /// Wall and CPU time of the whole slice.
    pub sample: Sample,
    /// When each call began, in call order.
    pub started: Vec<Instant>,
    /// Every round trip of the slice, nanoseconds, in call order.
    pub latencies_ns: Vec<f64>,
}

impl RttSlice {
    /// The slice-median round trip, host-speed-corrected, microseconds.
    pub fn p50_us(&self) -> f64 {
        self.sample.correct(stats::median(&self.latencies_ns)) / 1e3
    }
}

/// Times `ops` depth-1 `TcpClient::call` round trips one by one, in
/// pieces of `piece` calls with the yardstick between them. The batch
/// is generated before and the replies are checked after the timed
/// part. `around` runs immediately before the first and after the last
/// call (the traced run reads the allocation counters there); the
/// yardstick runs in between allocate nothing, and neither does
/// anything the slice appends to.
pub fn rtt_slice(
    world: &mut World,
    client: &TcpClient,
    (ops, piece): (usize, usize),
    host: &mut HostLog,
    around: &mut dyn FnMut(),
) -> RttSlice {
    let batch = world.next_batch(ops);
    let mut started = Vec::with_capacity(ops);
    let mut latencies_ns = Vec::with_capacity(ops);
    let mut replies = Vec::with_capacity(ops);
    let mut pieces = batch.chunks(piece);
    let last = ops.div_ceil(piece).saturating_sub(1);
    let sample = host.interleaved(last + 1, |index| {
        if index == 0 {
            around();
        }
        for request in pieces.next().unwrap_or_default() {
            let start = Instant::now();
            let reply = client.call(request);
            latencies_ns.push(start.elapsed().as_nanos() as f64);
            started.push(start);
            replies.push(reply);
        }
        if index == last {
            around();
        }
    });
    for (i, reply) in replies.iter().enumerate() {
        world.record(reply, i == 0);
    }
    RttSlice {
        sample,
        started,
        latencies_ns,
    }
}

/// One saturation slice.
pub struct SatSlice {
    /// Wall and CPU time of the whole slice.
    pub sample: Sample,
    /// Operations completed.
    pub ops: usize,
}

impl SatSlice {
    /// Completed operations per second of host-speed-corrected time.
    pub fn ops_per_s(&self) -> f64 {
        self.ops as f64 * 1e9 / self.sample.correct(self.sample.wall_ns)
    }
}

/// Times `ops` requests through `call_pipelined` at depth 16 on the one
/// connection, `piece` requests to a call with the yardstick between
/// the calls.
pub fn sat_slice(
    world: &mut World,
    client: &TcpClient,
    (ops, piece): (usize, usize),
    host: &mut HostLog,
) -> SatSlice {
    let batch = world.next_batch(ops);
    let mut results = Vec::with_capacity(ops);
    let mut pieces = batch.chunks(piece);
    let sample = host.interleaved(ops.div_ceil(piece), |_| {
        results.extend(client.call_pipelined(pieces.next().unwrap_or_default(), PIPELINE_DEPTH));
    });
    for result in &results {
        world.record(result, false);
    }
    SatSlice { sample, ops }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_yardsticks_own_time_is_left_out_of_a_sample() {
        let cpu = CpuTimes {
            total: 1_000,
            client: 600,
            server: 250,
            yardstick: 150,
        };
        // 400 ns of yardstick runs: 150 on the echo thread, so 250 on
        // the calling one.
        let work = without_yardstick(cpu, 400.0);
        assert_eq!(
            (work.total, work.client, work.server, work.yardstick),
            (600, 350, 250, 0)
        );
    }

    #[test]
    fn an_interleaved_sample_times_the_pieces_and_reads_the_yardstick_between_them() {
        let mut host = HostLog::start().expect("loopback");
        let mut seen = Vec::new();
        let whole = Instant::now();
        let sample = host.interleaved(5, |index| {
            seen.push(index);
            std::thread::sleep(std::time::Duration::from_millis(2));
        });
        let whole_ns = whole.elapsed().as_nanos() as f64;
        assert_eq!(seen, [0, 1, 2, 3, 4]);
        assert_eq!(host.calib_ns.len(), 6);
        // Five sleeps and nothing of the six yardstick runs.
        assert!(sample.calib_ns > 20_000.0);
        assert!(sample.wall_ns >= 10e6);
        assert!(sample.wall_ns + 6.0 * sample.calib_ns <= whole_ns);
    }
}
