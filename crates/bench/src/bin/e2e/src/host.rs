//! What the harness reads from the host: the yardstick, per thread
//! on-CPU time, steal time, CPU affinity and peak memory.
//!
//! Everything but the yardstick comes from `/proc`; a field that cannot
//! be read yields zero and shows up as such in the `host.*` diagnostics
//! rather than failing the run.

use std::fs;
use std::hint::black_box;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::thread::JoinHandle;
use std::time::Instant;

/// Name of the yardstick's echo thread (`comm` holds 15 bytes).
const ECHO_THREAD: &str = "yardstick-echo";

/// Round trips of one yardstick run.
const ECHO_ROUND_TRIPS: usize = 32;

/// Bytes each way per yardstick round trip.
const ECHO_BYTES: usize = 128;

/// Calls into the function table per yardstick run.
const TABLE_CALLS: u32 = 8_000;

/// Words of memory the table functions read and write.
const TABLE_WORDS: usize = 512;

/// One of the 512 distinct functions of the yardstick's table: a few
/// dozen instructions of integer mixing whose constants, shifts and
/// branch conditions depend on `N`, so that no two compile to the same
/// code, with a load and a store or two into `mem`.
#[inline(never)]
fn table_fn<const N: u64>(mut x: u64, mem: &mut [u64; TABLE_WORDS]) -> u64 {
    let k = N.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    x = x.rotate_left((N % 63) as u32 + 1) ^ k;
    let i = (x as usize ^ N as usize) % TABLE_WORDS;
    mem[i] = mem[i].wrapping_add(x);
    x = x
        .wrapping_mul(k)
        .wrapping_add(mem[(i + N as usize) % TABLE_WORDS]);
    if x & (1 << (N % 17)) == 0 {
        x = x.wrapping_add(k << 2);
    } else {
        x ^= k >> 3;
    }
    x ^= x >> ((N % 29) as u32 + 1);
    x = x.wrapping_mul(k ^ 0xff51_afd7_ed55_8ccd);
    if x & (1 << (N % 13 + 20)) != 0 {
        x = x.rotate_right(7);
        mem[(i ^ 77) % TABLE_WORDS] ^= x;
    }
    x.wrapping_add(N)
}

type TableFn = fn(u64, &mut [u64; TABLE_WORDS]) -> u64;

macro_rules! table8 {
    ($b:expr) => {
        [
            table_fn::<{ $b }>,
            table_fn::<{ $b + 1 }>,
            table_fn::<{ $b + 2 }>,
            table_fn::<{ $b + 3 }>,
            table_fn::<{ $b + 4 }>,
            table_fn::<{ $b + 5 }>,
            table_fn::<{ $b + 6 }>,
            table_fn::<{ $b + 7 }>,
        ]
    };
}

macro_rules! table64 {
    ($b:expr) => {
        [
            table8!($b),
            table8!($b + 8),
            table8!($b + 16),
            table8!($b + 24),
            table8!($b + 32),
            table8!($b + 40),
            table8!($b + 48),
            table8!($b + 56),
        ]
    };
}

static TABLE: [[[TableFn; 8]; 8]; 8] = [
    table64!(0),
    table64!(64),
    table64!(128),
    table64!(192),
    table64!(256),
    table64!(320),
    table64!(384),
    table64!(448),
];

/// The fixed piece of work every reported time is measured against.
///
/// It is the benchmark's own code and never changes with the program
/// under test, yet it is slowed by the host the way the program is —
/// which a tight arithmetic loop is not: on this kind of host (a few
/// vCPUs of a shared machine) whatever runs beside the guest costs
/// ordinary server code 30 to 70 % for seconds on end and a dependent
/// multiply chain 5 % (README.md, "Why it repeats"). One run is two
/// halves of about equal length:
///
/// * **echo**: `ECHO_ROUND_TRIPS` round trips of `ECHO_BYTES` bytes
///   over a loopback TCP connection to a blocking echo thread — system
///   calls, the TCP stack and two context switches per round trip;
/// * **table**: `TABLE_CALLS` indirect calls in a fixed pseudo-random
///   order into a table of 512 distinct small functions — more code
///   than the first-level instruction cache holds, unpredictable
///   branches, a little memory traffic.
pub struct Yardstick {
    stream: Option<TcpStream>,
    echo: Option<JoinHandle<()>>,
    mem: Box<[u64; TABLE_WORDS]>,
}

impl Yardstick {
    /// Spawns the echo thread and connects to it.
    pub fn start() -> io::Result<Yardstick> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        let echo = std::thread::Builder::new()
            .name(ECHO_THREAD.to_owned())
            .spawn(move || {
                let Ok((mut peer, _)) = listener.accept() else {
                    return;
                };
                let _ = peer.set_nodelay(true);
                let mut buf = [0u8; ECHO_BYTES];
                while peer.read_exact(&mut buf).is_ok() && peer.write_all(&buf).is_ok() {}
            })?;
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Yardstick {
            stream: Some(stream),
            echo: Some(echo),
            mem: Box::new([1; TABLE_WORDS]),
        })
    }

    /// One yardstick run; returns the elapsed nanoseconds. A quarter of
    /// the work is done once more beforehand, untimed, so that the
    /// reading depends little on how much of the yardstick the work
    /// that ran since the last reading pushed out of the caches: without
    /// it `fig4_hot` read 10 to 15 % lower with 50 ms of work between
    /// readings than with 0.5 ms, with it 0 to 4 %.
    pub fn run(&mut self) -> f64 {
        self.work(ECHO_ROUND_TRIPS / 4, TABLE_CALLS / 4);
        let start = Instant::now();
        self.work(ECHO_ROUND_TRIPS, TABLE_CALLS);
        start.elapsed().as_nanos() as f64
    }

    fn work(&mut self, round_trips: usize, calls: u32) {
        if let Some(mut stream) = self.stream.as_ref() {
            let mut buf = [3u8; ECHO_BYTES];
            for _ in 0..round_trips {
                // A dead echo thread shows as an absurdly fast yardstick
                // and a run that reads absurdly slow, never as a hang.
                if stream.write_all(&buf).is_err() || stream.read_exact(&mut buf).is_err() {
                    break;
                }
            }
        }
        let mut x = black_box(12_345_u64);
        let mut order = 1_u32;
        for _ in 0..calls {
            order = order.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            let f = (order >> 20) as usize % 512;
            x = TABLE[f >> 6][(f >> 3) & 7][f & 7](x, &mut self.mem);
        }
        black_box(x);
    }
}

impl Drop for Yardstick {
    fn drop(&mut self) {
        // Closing the connection ends the echo thread's read.
        self.stream = None;
        if let Some(echo) = self.echo.take() {
            let _ = echo.join();
        }
    }
}

/// Second whitespace-separated field of a `schedstat` file: nanoseconds
/// the task has spent on a CPU.
fn schedstat_run_ns(path: &str) -> u64 {
    fs::read_to_string(path)
        .ok()
        .and_then(|s| s.split_whitespace().next().and_then(|f| f.parse().ok()))
        .unwrap_or(0)
}

/// On-CPU nanoseconds so far, by who spent them.
#[derive(Clone, Copy, Debug, Default)]
pub struct CpuTimes {
    /// Every thread of the process.
    pub total: u64,
    /// The calling thread: the benchmark's one client.
    pub client: u64,
    /// The event-loop workers (threads named `event-loop-<n>`).
    pub server: u64,
    /// The yardstick's echo thread.
    pub yardstick: u64,
}

impl CpuTimes {
    /// Time spent between `earlier` and `self`.
    pub fn since(self, earlier: CpuTimes) -> CpuTimes {
        CpuTimes {
            total: self.total.saturating_sub(earlier.total),
            client: self.client.saturating_sub(earlier.client),
            server: self.server.saturating_sub(earlier.server),
            yardstick: self.yardstick.saturating_sub(earlier.yardstick),
        }
    }
}

/// Reads every thread's on-CPU time. The kernel brings a running
/// thread's counter up to date when it is descheduled, so the caller
/// yields first: its own reading is then exact rather than up to a
/// scheduler tick stale.
pub fn cpu_times() -> CpuTimes {
    std::thread::yield_now();
    let mut times = CpuTimes {
        client: schedstat_run_ns("/proc/thread-self/schedstat"),
        ..CpuTimes::default()
    };
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return times;
    };
    for task in tasks.flatten() {
        let Some(dir) = task.path().to_str().map(str::to_owned) else {
            continue;
        };
        let ns = schedstat_run_ns(&format!("{dir}/schedstat"));
        times.total += ns;
        let comm = fs::read_to_string(format!("{dir}/comm")).unwrap_or_default();
        if comm.starts_with("event-loop-") {
            times.server += ns;
        } else if comm.trim_end() == ECHO_THREAD {
            times.yardstick += ns;
        }
    }
    times
}

/// `(steal, total)` jiffies summed over all CPUs since boot.
pub fn steal_jiffies() -> (u64, u64) {
    let Ok(stat) = fs::read_to_string("/proc/stat") else {
        return (0, 0);
    };
    let Some(line) = stat.lines().next() else {
        return (0, 0);
    };
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal guest guest_nice;
    // guest time is already inside user, so the total stops at steal.
    let total = fields.iter().take(8).sum();
    (fields.get(7).copied().unwrap_or(0), total)
}

fn status_field(key: &str) -> Option<String> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .map(|v| v.trim().to_owned())
}

/// True when the process may run on exactly one CPU (`run.sh` starts it
/// under `taskset -c <cpu>`).
pub fn pinned_to_one_cpu() -> bool {
    status_field("Cpus_allowed_list:")
        .is_some_and(|list| !list.is_empty() && !list.contains(',') && !list.contains('-'))
}

/// Peak resident set size of this process so far, in MiB.
pub fn peak_rss_mib() -> f64 {
    status_field("VmHWM:")
        .and_then(|v| {
            v.split_whitespace()
                .next()
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_yardstick_takes_measurable_time_and_cpu_on_both_threads() {
        let mut yardstick = Yardstick::start().expect("loopback");
        let before = cpu_times();
        let ns = (0..20).map(|_| yardstick.run()).fold(f64::MAX, f64::min);
        assert!(
            ns > 20_000.0,
            "32 round trips and 8 000 calls cannot take {ns} ns"
        );
        let spent = cpu_times().since(before);
        assert!(spent.client > 0, "schedstat did not advance");
        assert!(spent.yardstick > 0, "the echo thread was not found by name");
    }

    #[test]
    fn the_table_holds_distinct_functions() {
        let mut mem = [1; TABLE_WORDS];
        let outputs: std::collections::BTreeSet<u64> = TABLE
            .iter()
            .flatten()
            .flatten()
            .map(|f| f(7, &mut mem))
            .collect();
        assert_eq!(outputs.len(), 512);
    }

    #[test]
    fn proc_readers_return_plausible_values() {
        assert!(peak_rss_mib() > 0.1);
        let (steal, total) = steal_jiffies();
        assert!(total > 0 && steal <= total);
    }
}
