//! The two measurements that need no workload: the socket layer and the
//! poller.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::Arc;
use std::time::{Duration, Instant};

use proxy_net::{ServiceMux, Transport};
use proxy_runtime::{Interest, Poller};
use proxy_wire::frame::split_frame;
use proxy_wire::Message;
use rand::rngs::StdRng;
use rand::SeedableRng;
use restricted_proxy::prelude::{MapResolver, PrincipalId};

use crate::harness::{HostLog, Served};
use crate::replay::BATCH;
use crate::stats::{median, CALIB_REF_NS};

/// Echo round trips (and poller wake-ups) per round: about 15 ms of
/// them.
pub const PROBE_OPS: usize = 2_000;

/// The two measurements that need no workload: the socket layer and
/// the poller.
///
/// **Echo.** A mux with nothing mounted answers `RevocationFetch` with
/// a typed error at once. The round trip of that request is both
/// socket ends, the event loop's wake-up, the client's framing and the
/// wire steps of two tiny messages — the last of which are replayed
/// in-process and subtracted, leaving `net.socket_echo_us`: what the
/// in-process replay of a workload cannot see, measured rather than
/// defined as the remainder.
///
/// **Poller.** A byte written on one end of a loopback connection
/// until `Poller::wait` reports the other end readable.
pub struct Probes {
    mux: Arc<ServiceMux<MapResolver>>,
    served: Served,
    request: Message,
    rng: StdRng,
    writer: TcpStream,
    reader: TcpStream,
    poller: Poller,
    /// Echo round trip per round, microseconds, corrected.
    pub echo_rtt_us: Vec<f64>,
    /// The echo's in-process steps per round.
    pub echo_in_process_us: Vec<f64>,
    /// Poller wake-up per round.
    pub poller_wake_us: Vec<f64>,
}

impl Probes {
    pub fn start(seed: u64) -> Result<Probes, String> {
        let io = |e: std::io::Error| format!("poller probe: {e}");
        let mux = Arc::new(ServiceMux::<MapResolver>::new());
        let served = Served::spawn(&mux, seed)?;
        let listener = TcpListener::bind(("127.0.0.1", 0)).map_err(io)?;
        let writer = TcpStream::connect(listener.local_addr().map_err(io)?).map_err(io)?;
        let (reader, _) = listener.accept().map_err(io)?;
        writer.set_nodelay(true).map_err(io)?;
        let mut poller = Poller::new().map_err(io)?;
        poller
            .register(reader.as_raw_fd(), 1, Interest::READ)
            .map_err(io)?;
        Ok(Probes {
            mux,
            served,
            request: Message::RevocationFetch {
                issuer: PrincipalId::new("R"),
                have_epoch: 0,
            },
            rng: StdRng::seed_from_u64(seed),
            writer,
            reader,
            poller,
            echo_rtt_us: Vec::new(),
            echo_in_process_us: Vec::new(),
            poller_wake_us: Vec::new(),
        })
    }

    /// `ops` echo round trips, the same number of in-process echoes,
    /// and `ops` poller wake-ups, each in pieces of [`BATCH`] with the
    /// yardstick between them.
    pub fn round(&mut self, ops: usize, host: &mut HostLog) -> Result<(), String> {
        let pieces = ops.div_ceil(BATCH);
        let mut round_trips = Vec::with_capacity(pieces * BATCH);
        let sample = host.interleaved(pieces, |_| {
            for _ in 0..BATCH {
                let start = Instant::now();
                let reply = self.served.client.call(&self.request);
                round_trips.push(start.elapsed().as_nanos() as f64);
                std::hint::black_box(reply.is_err());
            }
        });
        self.echo_rtt_us
            .push(sample.correct(median(&round_trips)) / 1e3);

        let mut in_process = Vec::with_capacity(pieces);
        let sample = host.interleaved(pieces, |_| {
            let start = Instant::now();
            for id in 0..BATCH as u64 {
                self.echo_in_process(id);
            }
            in_process.push(start.elapsed().as_nanos() as f64 / BATCH as f64);
        });
        let cpu_scale = CALIB_REF_NS / sample.calib_ns;
        self.echo_in_process_us
            .push(median(&in_process) * cpu_scale / 1e3);

        let mut events = Vec::new();
        let mut wakes = Vec::with_capacity(pieces * BATCH);
        let mut byte = [0u8; 1];
        let mut result = Ok(());
        let sample = host.interleaved(pieces, |_| {
            for _ in 0..BATCH {
                let start = Instant::now();
                let woken = self
                    .writer
                    .write_all(&[1])
                    .and_then(|()| self.poller.wait(&mut events, Some(Duration::from_secs(1))));
                wakes.push(start.elapsed().as_nanos() as f64);
                if let Err(e) = woken.and_then(|_| self.reader.read_exact(&mut byte)) {
                    result = Err(e);
                    return;
                }
            }
        });
        result.map_err(|e| format!("poller probe: {e}"))?;
        let cpu_scale = CALIB_REF_NS / sample.calib_ns;
        self.poller_wake_us.push(median(&wakes) * cpu_scale / 1e3);
        Ok(())
    }

    /// The seven round-trip steps for the echo request.
    fn echo_in_process(&mut self, id: u64) {
        let mut frame = Vec::new();
        self.request.encode_frame_into(&mut frame, id);
        let Ok(Some((header, body, _))) = split_frame(&frame) else {
            return;
        };
        let Ok(decoded) = Message::decode_body(header.msg_type, body) else {
            return;
        };
        let reply = self.mux.handle(decoded, &mut self.rng);
        let mut frame = Vec::new();
        reply.encode_frame_into(&mut frame, id);
        let Ok(Some((header, body, _))) = split_frame(&frame) else {
            return;
        };
        std::hint::black_box(Message::decode_body(header.msg_type, body).is_ok());
    }
}
