//! The load generator: `M` logical clients multiplexed over at most
//! `nproc` connections, one thread per connection, with every message
//! generated before the timed phase starts.
//!
//! A phase runs either closed-loop (one op in flight per connection,
//! the next sent when the previous reply is decoded) or open-loop on a
//! fixed-rate [`Schedule`]. Open-loop latency runs from the instant an op
//! was *due*, not from when the generator got round to sending it, so a
//! stalled generator shows up as latency and as [`OpRecord::lag`].

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use coca_daemon::{ClientMsg, ServerMsg, Workload};
use coca_net::WireSize;
use coca_sim::SeedTree;

/// A reply slower than this fails its op and ends its connection's phase.
const REPLY_TIMEOUT: Duration = Duration::from_secs(20);
/// Socket read granularity.
const READ_CHUNK: usize = 256 << 10;

/// Protocol operation type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `ClientMsg::Request`, answered by an allocation.
    Request,
    /// `ClientMsg::Upload`, answered by an ack.
    Upload,
}

/// Which logical client sends op `i`, from which pool round. Each client
/// sends a request then an upload; clients take turns, and the rounds
/// wrap around the pre-generated pool.
fn op_at(i: usize, clients: usize, rounds: usize) -> (usize, usize, Kind) {
    let pair = i / 2;
    let kind = if i.is_multiple_of(2) {
        Kind::Request
    } else {
        Kind::Upload
    };
    (pair % clients, (pair / clients) % rounds, kind)
}

/// Every message the generator sends, built before any phase starts.
pub struct Pool {
    clients: usize,
    rounds: usize,
    requests: Vec<ClientMsg>,
    uploads: Vec<ClientMsg>,
}

impl Pool {
    /// Pre-generates `wl.clients × wl.rounds` requests and uploads with
    /// [`Workload`]; `profile` is the daemon's `Hello` answer. `seed`
    /// draws the upload contents and offsets the client ids (which shape
    /// each request's recency vector); the daemon's world stays the one
    /// `wl.spec` names.
    pub fn new(wl: &Workload, profile: &[f64], seed: u64) -> Self {
        let (rt, _, _) = wl.spec.build();
        let seeds = SeedTree::new(seed);
        let first_id = (seed % 1_000) as usize * wl.clients;
        let mut requests = Vec::with_capacity(wl.clients * wl.rounds);
        let mut uploads = Vec::with_capacity(wl.clients * wl.rounds);
        for k in first_id..first_id + wl.clients {
            for r in 0..wl.rounds {
                requests.push(ClientMsg::Request(wl.request(&rt, profile, k, r)));
                uploads.push(ClientMsg::Upload(wl.upload(&rt, &seeds, k, r)));
            }
        }
        Self {
            clients: wl.clients,
            rounds: wl.rounds,
            requests,
            uploads,
        }
    }

    /// The client that sends op `i`.
    fn client_of(&self, i: usize) -> usize {
        op_at(i, self.clients, self.rounds).0
    }

    /// Op `i`'s type and message.
    pub fn msg(&self, i: usize) -> (Kind, &ClientMsg) {
        let (k, r, kind) = op_at(i, self.clients, self.rounds);
        let slot = k * self.rounds + r;
        match kind {
            Kind::Request => (kind, &self.requests[slot]),
            Kind::Upload => (kind, &self.uploads[slot]),
        }
    }
}

/// A fixed-rate open-loop schedule: op `i` of a phase is due `i / rate`
/// seconds after the phase starts. Integer arithmetic, so due instants
/// never drift however long the phase.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    /// Offered load, ops per second.
    pub rate: u64,
}

impl Schedule {
    /// Offset of op `i` from the phase start.
    pub fn due(&self, i: usize) -> Duration {
        let nanos = i as u128 * 1_000_000_000 / self.rate.max(1) as u128;
        Duration::from_nanos(nanos as u64)
    }

    /// Ops due strictly within `window` of the phase start.
    pub fn ops_within(&self, window: Duration) -> usize {
        (window.as_nanos() * self.rate as u128).div_ceil(1_000_000_000) as usize
    }
}

/// One op as the generator saw it. Instants are offsets from the phase
/// start.
#[derive(Debug, Clone)]
pub struct OpRecord {
    /// Op index in the generated sequence.
    pub index: usize,
    /// Request or upload.
    pub kind: Kind,
    /// When the op was due (open loop) or sent (closed loop).
    pub due: Duration,
    /// When the generator began encoding it.
    pub start: Duration,
    /// When its reply was decoded; `None` if it never was.
    pub done: Option<Duration>,
    /// Client-side `encode_frame` time.
    pub encode: Duration,
    /// Client-side `decode_message` time of the reply.
    pub decode: Duration,
    /// Frame bytes written.
    pub sent_bytes: usize,
    /// Frame bytes of the reply.
    pub recv_bytes: usize,
    /// `WireSize` of the message sent.
    pub priced_sent: usize,
    /// `WireSize` of the allocation received (0 for an ack).
    pub priced_recv: usize,
    /// Why the op failed, if it did.
    pub error: Option<String>,
}

impl OpRecord {
    /// Due instant to decoded reply.
    pub fn latency(&self) -> Option<Duration> {
        self.done.map(|d| d.saturating_sub(self.due))
    }

    /// How late the generator started the op.
    pub fn lag(&self) -> Duration {
        self.start.saturating_sub(self.due)
    }

    /// Whether the op got the right reply.
    pub fn ok(&self) -> bool {
        self.error.is_none() && self.done.is_some()
    }
}

/// A blocking protocol connection that reassembles reply frames itself,
/// so a read can wait for "a reply or the next due instant, whichever
/// comes first".
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    head: usize,
    chunk: Vec<u8>,
}

impl Conn {
    /// Connects to the daemon.
    pub fn connect(addr: SocketAddr) -> Result<Self, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("set_nodelay: {e}"))?;
        Ok(Self {
            stream,
            buf: Vec::new(),
            head: 0,
            chunk: vec![0; READ_CHUNK],
        })
    }

    /// Encodes and writes one message: (frame bytes, encode time).
    fn send(&mut self, msg: &ClientMsg) -> Result<(usize, Duration), String> {
        let t = Instant::now();
        let frame = coca_net::encode_frame(msg).map_err(|e| format!("encode: {e}"))?;
        let encode = t.elapsed();
        self.stream
            .write_all(&frame)
            .map_err(|e| format!("write: {e}"))?;
        Ok((frame.len(), encode))
    }

    /// The next reply, waiting at most `wait`: `Ok(None)` on timeout,
    /// else (reply, frame bytes, decode time).
    fn recv(&mut self, wait: Duration) -> Result<Option<(ServerMsg, usize, Duration)>, String> {
        let deadline = Instant::now() + wait;
        loop {
            let pending = &self.buf[self.head..];
            if pending.len() >= 4 {
                let len = u32::from_be_bytes([pending[0], pending[1], pending[2], pending[3]]);
                let total = 4 + len as usize;
                if pending.len() >= total {
                    let t = Instant::now();
                    let reply: ServerMsg = coca_net::decode_message(&pending[..total])
                        .map_err(|e| format!("decode: {e}"))?;
                    let decode = t.elapsed();
                    self.head += total;
                    if self.head == self.buf.len() {
                        self.buf.clear();
                        self.head = 0;
                    }
                    return Ok(Some((reply, total, decode)));
                }
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Ok(None);
            }
            self.stream
                .set_read_timeout(Some(left))
                .map_err(|e| format!("set_read_timeout: {e}"))?;
            match self.stream.read(&mut self.chunk) {
                Ok(0) => return Err("daemon closed the connection".into()),
                Ok(n) => {
                    if self.head > 0 {
                        self.buf.drain(..self.head);
                        self.head = 0;
                    }
                    self.buf.extend_from_slice(&self.chunk[..n]);
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) => {}
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("read: {e}")),
            }
        }
    }

    /// One untimed round trip (handshakes outside the timed phases).
    pub fn call(&mut self, msg: &ClientMsg) -> Result<ServerMsg, String> {
        self.send(msg)?;
        match self.recv(REPLY_TIMEOUT)? {
            Some((reply, _, _)) => Ok(reply),
            None => Err("reply timed out".into()),
        }
    }
}

/// Checks a reply against the op that caused it: the right variant, and
/// an allocation that answers the requested round within its budget.
/// Returns the allocation's priced bytes.
fn check_reply(msg: &ClientMsg, reply: &ServerMsg) -> Result<usize, String> {
    match (msg, reply) {
        (ClientMsg::Request(req), ServerMsg::Alloc(alloc)) => {
            if alloc.round != req.round {
                return Err(format!(
                    "allocation answers round {} for a round-{} request",
                    alloc.round, req.round
                ));
            }
            let bytes = alloc.cache.total_bytes() as u64;
            if bytes > req.budget_bytes {
                return Err(format!(
                    "allocation of {bytes} B exceeds its {} B budget",
                    req.budget_bytes
                ));
            }
            Ok(alloc.wire_bytes())
        }
        (ClientMsg::Upload(_), ServerMsg::UploadAck(_)) => Ok(0),
        (_, other) => Err(format!("unexpected reply {}", variant(other))),
    }
}

fn variant(m: &ServerMsg) -> &'static str {
    match m {
        ServerMsg::Profile(_) => "Profile",
        ServerMsg::Alloc(_) => "Alloc",
        ServerMsg::UploadAck(_) => "UploadAck",
        ServerMsg::FlushDone => "FlushDone",
        ServerMsg::Digest(_) => "Digest",
        ServerMsg::WatermarkSet => "WatermarkSet",
        ServerMsg::PeerAck(_) => "PeerAck",
        ServerMsg::SyncDone(_) => "SyncDone",
        ServerMsg::ShuttingDown => "ShuttingDown",
    }
}

fn priced(msg: &ClientMsg) -> usize {
    match msg {
        ClientMsg::Request(r) => r.wire_bytes(),
        ClientMsg::Upload(u) => u.wire_bytes(),
        _ => 0,
    }
}

/// Runs ops `first..first + count` over `conns`: client `k`'s ops go to
/// connection `k % conns.len()`. `schedule` = `None` runs closed-loop.
/// Returns every op's record, in op order.
pub fn run_phase(
    conns: &mut [Conn],
    pool: &Pool,
    first: usize,
    count: usize,
    schedule: Option<Schedule>,
) -> Vec<OpRecord> {
    let n = conns.len();
    let start = Instant::now();
    let mut records: Vec<OpRecord> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| {
                let mine: Vec<usize> = (first..first + count)
                    .filter(|&i| pool.client_of(i) % n == c)
                    .collect();
                scope.spawn(move || drive(conn, pool, &mine, first, schedule, start))
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("generator thread panicked"))
            .collect()
    });
    records.sort_by_key(|r| r.index);
    records
}

/// One connection's share of a phase.
fn drive(
    conn: &mut Conn,
    pool: &Pool,
    ops: &[usize],
    first: usize,
    schedule: Option<Schedule>,
    start: Instant,
) -> Vec<OpRecord> {
    let window = if schedule.is_some() { usize::MAX } else { 1 };
    let mut records: Vec<OpRecord> = Vec::with_capacity(ops.len());
    let mut inflight: VecDeque<usize> = VecDeque::new();
    let mut failure: Option<String> = None;
    while failure.is_none() {
        let now = start.elapsed();
        let next = records.len();
        let can_send = next < ops.len() && inflight.len() < window;
        let due = match (can_send, schedule) {
            (true, Some(s)) => s.due(ops[next] - first),
            _ => now,
        };
        if can_send && due <= now {
            let (kind, msg) = pool.msg(ops[next]);
            let mut rec = OpRecord {
                index: ops[next],
                kind,
                due,
                start: now,
                done: None,
                encode: Duration::ZERO,
                decode: Duration::ZERO,
                sent_bytes: 0,
                recv_bytes: 0,
                priced_sent: priced(msg),
                priced_recv: 0,
                error: None,
            };
            match conn.send(msg) {
                Ok((bytes, encode)) => {
                    rec.sent_bytes = bytes;
                    rec.encode = encode;
                    inflight.push_back(next);
                }
                Err(e) => failure = Some(e),
            }
            records.push(rec);
            continue;
        }
        let Some(&oldest) = inflight.front() else {
            if next == ops.len() {
                break;
            }
            std::thread::sleep(due - now);
            continue;
        };
        let timeout_at = records[oldest].start + REPLY_TIMEOUT;
        if now >= timeout_at {
            failure = Some("reply timed out".into());
            break;
        }
        let mut wait = timeout_at - now;
        if can_send {
            wait = wait.min(due - now);
        }
        match conn.recv(wait) {
            Ok(None) => {}
            Ok(Some((reply, bytes, decode))) => {
                inflight.pop_front();
                let rec = &mut records[oldest];
                rec.done = Some(start.elapsed());
                rec.recv_bytes = bytes;
                rec.decode = decode;
                match check_reply(pool.msg(rec.index).1, &reply) {
                    Ok(p) => rec.priced_recv = p,
                    Err(e) => rec.error = Some(e),
                }
            }
            Err(e) => failure = Some(e),
        }
    }
    if let Some(e) = failure {
        // Frames do not resume across a broken read: everything still in
        // flight or unsent on this connection fails with the cause.
        for &i in &inflight {
            records[i].error.get_or_insert_with(|| e.clone());
        }
        for &i in &ops[records.len()..] {
            let (kind, msg) = pool.msg(i);
            records.push(OpRecord {
                index: i,
                kind,
                due: Duration::ZERO,
                start: Duration::ZERO,
                done: None,
                encode: Duration::ZERO,
                decode: Duration::ZERO,
                sent_bytes: 0,
                recv_bytes: 0,
                priced_sent: priced(msg),
                priced_recv: 0,
                error: Some(e.clone()),
            });
        }
    }
    records
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_due_instants_are_exact_and_never_drift() {
        let s = Schedule { rate: 3 };
        assert_eq!(s.due(0), Duration::ZERO);
        assert_eq!(s.due(1), Duration::from_nanos(333_333_333));
        assert_eq!(s.due(3), Duration::from_secs(1));
        // A million ops later the offset is still exact.
        assert_eq!(s.due(3_000_000), Duration::from_secs(1_000_000));
        let s = Schedule { rate: 40 };
        assert_eq!(s.due(40 * 3600), Duration::from_secs(3600));
    }

    #[test]
    fn schedule_counts_the_ops_due_in_a_window() {
        let s = Schedule { rate: 40 };
        assert_eq!(s.ops_within(Duration::from_secs(6)), 240);
        assert_eq!(s.ops_within(Duration::from_millis(1_010)), 41);
        // Every counted op is due inside the window, the next one is not.
        let w = Duration::from_millis(2_345);
        let n = s.ops_within(w);
        assert!(s.due(n - 1) < w && s.due(n) >= w);
    }

    #[test]
    fn ops_alternate_request_and_upload_per_client_and_wrap_the_pool() {
        assert_eq!(op_at(0, 4, 2), (0, 0, Kind::Request));
        assert_eq!(op_at(1, 4, 2), (0, 0, Kind::Upload));
        assert_eq!(op_at(2, 4, 2), (1, 0, Kind::Request));
        assert_eq!(op_at(8, 4, 2), (0, 1, Kind::Request));
        assert_eq!(op_at(16, 4, 2), (0, 0, Kind::Request));
    }
}
