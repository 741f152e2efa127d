//! The untraced run: the four end-to-end metrics of one workload.
//!
//! Closed loop, one client: set-up (repeated, timed), then latency and
//! saturation slices alternating for `--seconds`, so that both metrics
//! span the whole run and a change of host speed part-way through hits
//! them alike. A slice is a count of operations, the same work on every
//! host and every commit; only how many of them a run measures depends
//! on the time it is given.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::harness::{rtt_slice, sat_slice, warm_up, HostLog, Served, Tally};
use crate::host;
use crate::stats::{median, Metrics, RunResult};
use crate::worlds::{hit_ratio, plain_storage, Scale, Workload, World, WorldCfg};

/// The end-to-end metrics and their units, as `BENCHMARK.json` lists
/// them. The same four on every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("rtt_p50_us", "us"),
    ("sat_ops_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// Everything one run is told.
pub struct RunCfg {
    /// The workload.
    pub workload: Workload,
    /// Seed of keys, serials, check numbers and the permutation.
    pub seed: u64,
    /// How long to go on measuring slice pairs (rounds of slices and
    /// replay, traced); set-up comes on top.
    pub measure_for: Duration,
    /// Pairs or rounds to measure at least, however short that is.
    pub min_pairs: usize,
    /// Operation counts.
    pub scale: Scale,
    /// Where the WAL workload keeps its log.
    pub scratch: PathBuf,
    /// Accept-once capacity of the accounting server.
    pub replay_capacity: usize,
    /// Times set-up is carried out; its median is reported.
    pub setups: usize,
}

/// A world built, served and warmed up, and how long that took.
struct Ready {
    world: World,
    served: Served,
    /// Host-speed-corrected seconds from nothing to ready.
    setup_s: f64,
}

fn set_up(cfg: &RunCfg, host: &mut HostLog) -> Result<Ready, String> {
    let world_cfg = WorldCfg {
        scale: cfg.scale,
        scratch: cfg.scratch.clone(),
        replay_capacity: cfg.replay_capacity,
        wrap_storage: &plain_storage,
    };
    let (sample, ready) = host.bracketed(|| {
        let mut world = World::build(cfg.workload, cfg.seed, &world_cfg)?;
        let served = Served::spawn(&world.mux, cfg.seed)?;
        warm_up(&mut world, &served.client, cfg.scale.warmup_ops);
        Ok::<_, String>((world, served))
    });
    let (world, served) = ready?;
    Ok(Ready {
        world,
        served,
        setup_s: sample.correct(sample.wall_ns) / 1e9,
    })
}

/// Runs the workload and returns its end-to-end metrics. Progress and
/// the diagnostics that are not gated go to standard output as text.
pub fn run(cfg: &RunCfg) -> Result<RunResult, String> {
    let name = cfg.workload.name();
    let mut host = HostLog::start()?;
    let mut tally = Tally::default();

    // Set-up, several times over: the driver gates its median.
    let mut setup_s = Vec::with_capacity(cfg.setups);
    let mut ready = set_up(cfg, &mut host)?;
    setup_s.push(ready.setup_s);
    for _ in 1..cfg.setups {
        tally.close_served(ready.world, ready.served, false);
        ready = set_up(cfg, &mut host)?;
        setup_s.push(ready.setup_s);
    }
    let Ready {
        mut world, served, ..
    } = ready;

    let (mut rtt_us, mut sat_ops_s, mut busy) = (Vec::new(), Vec::new(), Vec::new());
    let mut rtt_ops = 0;
    let started = Instant::now();
    while rtt_us.len() < cfg.min_pairs || started.elapsed() < cfg.measure_for {
        let rtt = rtt_slice(
            &mut world,
            &served.client,
            cfg.scale.rtt,
            &mut host,
            &mut || (),
        );
        rtt_us.push(rtt.p50_us());
        rtt_ops += rtt.latencies_ns.len();
        let sat = sat_slice(&mut world, &served.client, cfg.scale.sat, &mut host);
        sat_ops_s.push(sat.ops_per_s());
        busy.push(sat.sample.busy());
        // Every slice pair as measured, with what it read before the
        // correction and the yardstick it was corrected by.
        println!(
            "slice {} at {:.2} s: rtt {:.3} us (raw {:.3} us, yardstick {:.0} ns); \
             sat {:.1} 1/s (raw {:.1} 1/s, yardstick {:.0} ns)",
            rtt_us.len(),
            started.elapsed().as_secs_f64(),
            rtt.p50_us(),
            median(&rtt.latencies_ns) / 1e3,
            rtt.sample.calib_ns,
            sat.ops_per_s(),
            sat.ops as f64 * 1e9 / sat.sample.wall_ns,
            sat.sample.calib_ns,
        );
    }

    let (hits, misses) = world.seal_cache_stats();
    tally.close_served(world, served, true);

    let mut metrics = Metrics::default();
    metrics.push("rtt_p50_us", "us", median(&rtt_us));
    metrics.push("sat_ops_s", "1/s", median(&sat_ops_s));
    metrics.push("setup_s", "s", median(&setup_s));
    metrics.push("peak_rss_mib", "MiB", host::peak_rss_mib());

    println!("workload {name} seed {} (untraced)", cfg.seed);
    metrics.print();
    println!(
        "samples: {} slice pairs, {rtt_ops} depth-1 ops, {} pipelined ops, {} set-ups",
        rtt_us.len(),
        sat_ops_s.len() * cfg.scale.sat.0,
        setup_s.len()
    );
    println!("saturation cpu busy {:.1} %", 100.0 * median(&busy));
    // Throughput may drift over a run for the program's own reasons
    // (fig5's journal snapshots grow with every live check), so say how
    // the end of the run compares with its beginning.
    let quarter = (sat_ops_s.len() / 4).max(1);
    println!(
        "sat drift: last quarter of slices at {:.1} % of the first",
        100.0 * median(&sat_ops_s[sat_ops_s.len() - quarter..]) / median(&sat_ops_s[..quarter])
    );
    if hits + misses > 0 {
        println!(
            "proxy.seal_cache_hit_ratio {:.4} ({hits} hits, {misses} misses)",
            hit_ratio(hits, misses)
        );
    }
    println!("{}", host.report());
    Ok(tally.into_result(metrics))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_cfg(workload: Workload, replay_capacity: usize) -> RunCfg {
        RunCfg {
            workload,
            seed: 7,
            measure_for: Duration::ZERO,
            min_pairs: 2,
            scale: workload.smoke_scale(),
            scratch: std::env::temp_dir().join(format!("e2e-unit-{}", std::process::id())),
            replay_capacity,
            setups: 1,
        }
    }

    #[test]
    fn a_provisioned_run_reports_every_metric_and_no_failure() {
        let cfg = smoke_cfg(Workload::Fig5Mem, crate::worlds::REPLAY_CAPACITY);
        let result = run(&cfg).expect("run");
        assert!(result.correct && result.failed == 0 && result.attempted > 0);
        for (name, _) in END_TO_END {
            assert!(result.metrics.get(name).is_some_and(|v| v > 0.0), "{name}");
        }
    }

    /// The accounting server's replay guard fails closed when full:
    /// every further deposit is answered with a `Message::Error`. Such a
    /// run must say so, not report a throughput for refused work.
    #[test]
    fn an_under_provisioned_replay_guard_fails_the_run() {
        let result = run(&smoke_cfg(Workload::Fig5Mem, 16)).expect("run");
        assert!(result.failed > 0, "deposits beyond the guard are refused");
        assert!(!result.correct, "main() turns this into a non-zero exit");
        assert!(result.to_json().starts_with("{\"correct\": false"));
    }
}
