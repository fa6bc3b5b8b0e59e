//! Real UDP multicast transport for the session directory.
//!
//! Runs the same [`SessionDirectory`] engine that the simulator drives,
//! but over a kernel UDP socket joined to a SAP multicast group — the
//! code path an actual sdr deployment would use.  `std::net` supports
//! everything needed (join, TTL, loopback), so no extra dependencies.
//!
//! Two layers:
//! * [`SapSocket`] — a joined, non-blocking-with-timeout UDP socket that
//!   sends/receives [`SapPacket`]s.
//! * [`SapAgent`] — glue mapping wall-clock time onto the engine's
//!   [`SimTime`] and pumping packets both ways; step it from your own
//!   loop, or run it on a background thread via [`SapAgent::spawn`].
//!
//! The agent is generic over [`SapTransport`] so its pump loop can be
//! exercised against scripted fault-injecting fakes in tests.  Transient
//! transport errors on the background thread are retried with jittered
//! exponential backoff under a [`RetryPolicy`]; only persistent failure
//! (or a disabled policy) terminates the pump, and then the error is
//! surfaced through [`AgentHandle::terminal_error`] rather than lost.

use std::io;
use std::net::{Ipv4Addr, SocketAddrV4, UdpSocket};
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, Receiver, Sender};
use parking_lot::Mutex;
use std::sync::Arc;

use sdalloc_core::Allocator;
use sdalloc_sim::{SimRng, SimTime};
use sdalloc_telemetry::{CounterId, Severity, NO_ARG};

use crate::directory::{CreateError, DirectoryConfig, SessionDirectory};
use crate::sdp::Media;
use crate::wire::{SapPacket, SAP_GROUP, SAP_PORT};

/// A UDP socket joined to a SAP multicast group.
#[derive(Debug)]
pub struct SapSocket {
    sock: UdpSocket,
    dest: SocketAddrV4,
}

impl SapSocket {
    /// Join `group:port` on all interfaces with the given send TTL.
    /// Multicast loopback is enabled so co-located agents hear each
    /// other (and us), matching sdr's behaviour on a shared host.
    ///
    /// A TTL of 0 is rejected with [`io::ErrorKind::InvalidInput`]: a
    /// zero-TTL announcement never leaves the host, and silently
    /// promoting it to 1 (as an earlier version did) would widen the
    /// session's scope beyond what the caller asked for.
    pub fn open(group: Ipv4Addr, port: u16, ttl: u8) -> io::Result<SapSocket> {
        if ttl == 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "SAP send TTL must be at least 1; 0 would never leave the host",
            ));
        }
        assert!(group.is_multicast(), "{group} is not a multicast group");
        let sock = UdpSocket::bind(SocketAddrV4::new(Ipv4Addr::UNSPECIFIED, port))?;
        sock.join_multicast_v4(&group, &Ipv4Addr::UNSPECIFIED)?;
        sock.set_multicast_loop_v4(true)?;
        sock.set_multicast_ttl_v4(ttl as u32)?;
        Ok(SapSocket {
            sock,
            dest: SocketAddrV4::new(group, port),
        })
    }

    /// Join the well-known SAP group/port (224.2.127.254:9875).
    pub fn open_default(ttl: u8) -> io::Result<SapSocket> {
        SapSocket::open(SAP_GROUP, SAP_PORT, ttl)
    }

    /// Send a packet to the group.
    pub fn send(&self, pkt: &SapPacket) -> io::Result<usize> {
        self.sock.send_to(&pkt.encode(), self.dest)
    }

    /// One receive attempt, waiting at most `timeout`, with the outcome
    /// classified instead of collapsed to `Option`.  This is the
    /// primitive the runtime driver loop builds on: `TimedOut` means
    /// the wait budget was genuinely spent (re-check timers), while
    /// `Interrupted` means a signal cut the wait short and the caller
    /// should retry with the *remaining* budget — conflating the two
    /// (as `recv` once did) makes every stray `SIGCHLD`/`SIGPROF` look
    /// like a full listen interval and skews the driver's timer math.
    // lint:allow(panic-reach): recv_from returns a length bounded by the 2048-byte buffer it filled
    pub fn recv_once(&self, timeout: Duration) -> io::Result<RecvOutcome> {
        self.sock
            .set_read_timeout(Some(timeout.max(Duration::from_millis(1))))?;
        let mut buf = [0u8; 2048];
        self.classify(self.sock.recv_from(&mut buf), &buf)
    }

    /// Non-blocking poll: receive whatever is queued right now without
    /// waiting.  `TimedOut` here means "nothing pending".  Lets the
    /// driver drain a burst of queued datagrams before going back to
    /// sleep until the next protocol deadline.
    pub fn try_recv(&self) -> io::Result<RecvOutcome> {
        self.sock.set_nonblocking(true)?;
        let mut buf = [0u8; 2048];
        let res = self.classify(self.sock.recv_from(&mut buf), &buf);
        self.sock.set_nonblocking(false)?;
        res
    }

    fn classify(
        &self,
        res: io::Result<(usize, std::net::SocketAddr)>,
        buf: &[u8],
    ) -> io::Result<RecvOutcome> {
        match res {
            Ok((len, _src)) => {
                // `len` is the kernel's byte count and cannot exceed the
                // buffer, but stay checked: a short slice decodes (or
                // fails to) the same way.
                let datagram = buf.get(..len).unwrap_or(buf);
                Ok(match SapPacket::decode(datagram) {
                    Ok(pkt) => RecvOutcome::Packet(pkt),
                    Err(_) => RecvOutcome::Undecodable(len),
                })
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                Ok(RecvOutcome::TimedOut)
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => Ok(RecvOutcome::Interrupted),
            Err(e) => Err(e),
        }
    }

    /// Receive one packet, waiting at most `timeout`.  Returns
    /// `Ok(None)` once the timeout is spent or on an undecodable
    /// datagram.  Signal interruptions are retried internally with the
    /// remaining budget rather than reported as a (fake) timeout.
    ///
    /// A zero budget never blocks: it takes the non-blocking
    /// [`Self::try_recv`] path.  (A blocking read needs a non-zero
    /// timeout, which the kernel rounds up to a scheduler tick — a
    /// multi-millisecond stall after every drained burst.)
    pub fn recv_timeout(&self, timeout: Duration) -> io::Result<Option<SapPacket>> {
        if timeout.is_zero() {
            return Ok(match self.try_recv()? {
                RecvOutcome::Packet(pkt) => Some(pkt),
                _ => None,
            });
        }
        let deadline = Instant::now() + timeout;
        let mut remaining = timeout;
        loop {
            match self.recv_once(remaining)? {
                RecvOutcome::Packet(pkt) => return Ok(Some(pkt)),
                RecvOutcome::TimedOut | RecvOutcome::Undecodable(_) => return Ok(None),
                RecvOutcome::Interrupted => {
                    remaining = deadline.saturating_duration_since(Instant::now());
                    if remaining.is_zero() {
                        return Ok(None);
                    }
                }
            }
        }
    }

    /// The group/port this socket is joined to.
    pub fn destination(&self) -> SocketAddrV4 {
        self.dest
    }
}

/// Classified outcome of a single receive attempt on a [`SapSocket`].
///
/// The distinction between [`RecvOutcome::TimedOut`] and
/// [`RecvOutcome::Interrupted`] matters to callers doing timer math: a
/// timeout consumed the whole wait budget, an interruption consumed an
/// unknown fraction of it and should be retried with the remainder.
#[derive(Debug, Clone, PartialEq)]
pub enum RecvOutcome {
    /// A well-formed SAP packet arrived.
    Packet(SapPacket),
    /// A datagram of this many bytes arrived but failed to decode.
    Undecodable(usize),
    /// The wait budget elapsed with nothing to read (`WouldBlock` /
    /// `TimedOut`).
    TimedOut,
    /// A signal interrupted the wait before the budget elapsed
    /// (`EINTR`); retry with the remaining budget.
    Interrupted,
}

/// Packet transport abstraction for [`SapAgent`].
///
/// [`SapSocket`] is the real implementation; tests substitute scripted
/// fakes to inject transient and persistent I/O faults into the pump
/// loop without touching the network.
pub trait SapTransport: Send {
    /// Send one packet toward the group.
    fn send(&self, pkt: &SapPacket) -> io::Result<usize>;

    /// Receive one packet, waiting at most `timeout`.  `Ok(None)` means
    /// nothing arrived (timeout or undecodable datagram).
    fn recv(&self, timeout: Duration) -> io::Result<Option<SapPacket>>;

    /// Number of datagrams that reached this endpoint but died before
    /// decode since the last call (the count resets on read).  Lets a
    /// driver feed [`SessionDirectory::note_rx_dropped`] without the
    /// transport knowing about directories.  Transports that cannot
    /// observe pre-decode deaths (like a kernel socket, where `recv`
    /// already folds them into `Ok(None)`) report zero.
    fn take_rx_predecode_drops(&self) -> u64 {
        0
    }
}

impl SapTransport for SapSocket {
    fn send(&self, pkt: &SapPacket) -> io::Result<usize> {
        SapSocket::send(self, pkt)
    }

    fn recv(&self, timeout: Duration) -> io::Result<Option<SapPacket>> {
        self.recv_timeout(timeout)
    }
}

/// How the background pump reacts to transport errors.
///
/// Transient I/O errors (an interface flap, a full socket buffer) should
/// not kill a long-lived announcer.  With retries enabled the pump backs
/// off exponentially with full jitter and keeps going; only
/// `max_consecutive` failures in a row are treated as persistent and
/// terminate the thread, surfacing the error via
/// [`AgentHandle::terminal_error`].
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// When false, any step error terminates the pump immediately (the
    /// pre-degradation behaviour, kept for comparison experiments).
    pub enabled: bool,
    /// Consecutive failures tolerated before giving up.
    pub max_consecutive: u32,
    /// First backoff ceiling; doubles each consecutive failure.
    pub base: Duration,
    /// Upper bound on the backoff ceiling.
    pub cap: Duration,
    /// Total wall-clock budget for one unbroken failure run, measured
    /// from the first error of the run.  A run that outlives this is
    /// terminal even with `max_consecutive` to spare, so a permanently
    /// dead transport cannot spin the pump forever at max backoff.
    /// `None` leaves only the attempt cap.
    pub max_elapsed: Option<Duration>,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            enabled: true,
            max_consecutive: 8,
            base: Duration::from_millis(10),
            cap: Duration::from_secs(2),
            max_elapsed: Some(Duration::from_secs(300)),
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries: the first error kills the pump.
    pub fn disabled() -> Self {
        RetryPolicy {
            enabled: false,
            ..RetryPolicy::default()
        }
    }

    /// Backoff before retry number `attempt` (0-based): uniform in
    /// `[0, min(cap, base·2^attempt))` — "full jitter", so co-failing
    /// agents do not retry in lockstep.
    pub fn backoff(&self, attempt: u32, rng: &mut SimRng) -> Duration {
        let ceiling = self
            .base
            .saturating_mul(2u32.saturating_pow(attempt.min(20)))
            .min(self.cap);
        let nanos = ceiling.as_nanos().min(u64::MAX as u128) as u64;
        if nanos == 0 {
            return Duration::ZERO;
        }
        Duration::from_nanos(rng.below(nanos))
    }
}

/// Statistics a running agent exposes.
#[derive(Debug, Clone, Default)]
pub struct AgentStats {
    /// Announcements sent.
    pub sent: u64,
    /// Packets received and fed to the engine.
    pub received: u64,
    /// Sessions currently in the listen cache.
    pub cached_sessions: usize,
    /// Transient step failures absorbed by the retry policy.
    pub retries: u64,
}

/// The session directory bound to a real transport and the wall clock.
pub struct SapAgent<T: SapTransport = SapSocket> {
    directory: SessionDirectory,
    transport: T,
    epoch: Instant,
    rng: SimRng,
    stats: AgentStats,
    retry: RetryPolicy,
    retry_counter: CounterId,
    terminal_counter: CounterId,
}

impl<T: SapTransport> SapAgent<T> {
    /// Create an agent over an already-open transport.
    pub fn new(
        cfg: DirectoryConfig,
        allocator: Box<dyn Allocator>,
        transport: T,
        seed: u64,
    ) -> SapAgent<T> {
        let mut directory = SessionDirectory::new(cfg, allocator);
        directory.set_telemetry_identity(0, seed);
        let retry_counter = directory.telemetry_mut().counter("agent.retries");
        let terminal_counter = directory.telemetry_mut().counter("agent.terminal_failures");
        SapAgent {
            directory,
            transport,
            epoch: Instant::now(),
            rng: SimRng::new(seed),
            stats: AgentStats::default(),
            retry: RetryPolicy::default(),
            retry_counter,
            terminal_counter,
        }
    }

    /// Replace the retry policy (builder style).
    pub fn with_retry_policy(mut self, retry: RetryPolicy) -> SapAgent<T> {
        self.retry = retry;
        self
    }

    fn now(&self) -> SimTime {
        SimTime::from_nanos(self.epoch.elapsed().as_nanos() as u64)
    }

    /// The engine, for creating/withdrawing sessions.
    pub fn directory_mut(&mut self) -> &mut SessionDirectory {
        &mut self.directory
    }

    /// Create a session now (convenience over [`Self::directory_mut`]).
    pub fn create_session(
        &mut self,
        name: &str,
        ttl: u8,
        media: Vec<Media>,
    ) -> Result<u64, CreateError> {
        let now = self.now();
        self.directory
            .create_session(now, name, ttl, media, &mut self.rng)
    }

    /// Current stats snapshot.
    pub fn stats(&self) -> AgentStats {
        AgentStats {
            cached_sessions: self.directory.cached_sessions(),
            ..self.stats.clone()
        }
    }

    /// One pump iteration: send due announcements, then listen for up to
    /// `listen`.  Call in a loop.
    pub fn step(&mut self, listen: Duration) -> io::Result<()> {
        let now = self.now();
        for pkt in self.directory.poll(now) {
            self.transport.send(&pkt)?;
            self.stats.sent += 1;
        }
        if let Some(pkt) = self.transport.recv(listen)? {
            self.stats.received += 1;
            let now = self.now();
            let (replies, _events) = self.directory.handle_packet(now, &pkt, &mut self.rng);
            for reply in replies {
                self.transport.send(&reply)?;
                self.stats.sent += 1;
            }
        }
        Ok(())
    }

    /// Run the agent on a background thread, returning a handle for
    /// issuing commands and reading state.  The thread exits when the
    /// handle is dropped, or when a step error exhausts the retry
    /// policy — in which case the error string is readable through
    /// [`AgentHandle::terminal_error`] instead of vanishing with the
    /// thread.
    pub fn spawn(mut self) -> AgentHandle
    where
        T: 'static,
    {
        let (cmd_tx, cmd_rx): (Sender<Command>, Receiver<Command>) = bounded(16);
        let stats = Arc::new(Mutex::new(AgentStats::default()));
        let stats_writer = Arc::clone(&stats);
        let error = Arc::new(Mutex::new(None));
        let error_writer = Arc::clone(&error);
        let dump = Arc::new(Mutex::new(None));
        let dump_writer = Arc::clone(&dump);
        let thread = std::thread::spawn(move || {
            let mut consecutive: u32 = 0;
            let mut failing_since: Option<SimTime> = None;
            loop {
                match cmd_rx.try_recv() {
                    Ok(Command::Create {
                        name,
                        ttl,
                        media,
                        reply,
                    }) => {
                        let _ = reply.send(self.create_session(&name, ttl, media));
                    }
                    Ok(Command::Withdraw { id }) => {
                        if let Some(pkt) = self.directory.withdraw_session(id) {
                            let _ = self.transport.send(&pkt);
                        }
                    }
                    Err(crossbeam::channel::TryRecvError::Disconnected) => break,
                    Err(crossbeam::channel::TryRecvError::Empty) => {}
                }
                match self.step(Duration::from_millis(100)) {
                    Ok(()) => {
                        consecutive = 0;
                        failing_since = None;
                    }
                    Err(e) => {
                        let now = self.now();
                        let t_nanos = now.as_nanos();
                        let since = *failing_since.get_or_insert(now);
                        let deadline_passed = self.retry.max_elapsed.is_some_and(|budget| {
                            now.saturating_since(since).as_nanos()
                                >= budget.as_nanos().min(u64::MAX as u128) as u64
                        });
                        if !self.retry.enabled
                            || consecutive >= self.retry.max_consecutive
                            || deadline_passed
                        {
                            let telemetry = self.directory.telemetry_mut();
                            telemetry.inc(self.terminal_counter);
                            telemetry.record(
                                t_nanos,
                                Severity::Error,
                                "net",
                                "terminal_failure",
                                [("attempts", u64::from(consecutive)), NO_ARG, NO_ARG],
                            );
                            *dump_writer.lock() = Some(
                                self.directory
                                    .flight_dump_json(&format!("agent pump terminated: {e}")),
                            );
                            *error_writer.lock() = Some(e.to_string());
                            break;
                        }
                        let telemetry = self.directory.telemetry_mut();
                        telemetry.inc(self.retry_counter);
                        telemetry.record(
                            t_nanos,
                            Severity::Warn,
                            "net",
                            "retry",
                            [("attempt", u64::from(consecutive)), NO_ARG, NO_ARG],
                        );
                        let pause = self.retry.backoff(consecutive, &mut self.rng);
                        consecutive += 1;
                        self.stats.retries += 1;
                        std::thread::sleep(pause);
                    }
                }
                *stats_writer.lock() = self.stats();
            }
        });
        AgentHandle {
            cmd: cmd_tx,
            stats,
            error,
            dump,
            thread: Some(thread),
        }
    }
}

enum Command {
    Create {
        name: String,
        ttl: u8,
        media: Vec<Media>,
        reply: Sender<Result<u64, CreateError>>,
    },
    Withdraw {
        id: u64,
    },
}

/// Handle to a spawned [`SapAgent`].
pub struct AgentHandle {
    cmd: Sender<Command>,
    stats: Arc<Mutex<AgentStats>>,
    error: Arc<Mutex<Option<String>>>,
    dump: Arc<Mutex<Option<String>>>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl AgentHandle {
    /// Create a session on the running agent.
    pub fn create_session(
        &self,
        name: &str,
        ttl: u8,
        media: Vec<Media>,
    ) -> Result<u64, CreateError> {
        let (reply_tx, reply_rx) = bounded(1);
        self.cmd
            .send(Command::Create {
                name: name.to_string(),
                ttl,
                media,
                reply: reply_tx,
            })
            .map_err(|_| CreateError::SpaceFull)?;
        reply_rx.recv().unwrap_or(Err(CreateError::SpaceFull))
    }

    /// Withdraw a session.
    pub fn withdraw(&self, id: u64) {
        let _ = self.cmd.send(Command::Withdraw { id });
    }

    /// Stats snapshot.
    pub fn stats(&self) -> AgentStats {
        self.stats.lock().clone()
    }

    /// The error that terminated the pump thread, if it has died.
    /// `None` means the pump is still running (or exited cleanly on
    /// handle drop).
    pub fn terminal_error(&self) -> Option<String> {
        self.error.lock().clone()
    }

    /// The flight-recorder dump written when the pump died, if any —
    /// the agent's post-mortem: directory metrics, retry/terminal
    /// telemetry events, and the last protocol activity before death.
    pub fn terminal_dump(&self) -> Option<String> {
        self.dump.lock().clone()
    }
}

impl Drop for AgentHandle {
    fn drop(&mut self) {
        // Closing the command channel tells the thread to exit.
        let (tx, _) = bounded(0);
        self.cmd = tx;
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdalloc_core::{AddrSpace, InformedRandomAllocator};

    /// Multicast may be unavailable in sandboxes; skip gracefully.
    fn try_socket(port: u16) -> Option<SapSocket> {
        match SapSocket::open(Ipv4Addr::new(239, 195, 255, 253), port, 1) {
            Ok(s) => Some(s),
            Err(e) => {
                eprintln!("skipping multicast test: {e}");
                None
            }
        }
    }

    fn media() -> Vec<Media> {
        vec![Media {
            kind: "audio".into(),
            port: 5004,
            proto: "RTP/AVP".into(),
            format: 0,
        }]
    }

    #[test]
    fn socket_loopback_roundtrip() {
        let Some(sock) = try_socket(29875) else {
            return;
        };
        let pkt = SapPacket::announce(
            Ipv4Addr::new(127, 0, 0, 1),
            0xABCD,
            "v=0\r\no=- 1 1 IN IP4 127.0.0.1\r\ns=x\r\nc=IN IP4 239.195.255.253/1\r\nt=0 0\r\n"
                .into(),
        );
        sock.send(&pkt).expect("send");
        // Loopback should deliver our own packet.
        let mut got = None;
        for _ in 0..20 {
            if let Some(p) = sock.recv_timeout(Duration::from_millis(100)).expect("recv") {
                got = Some(p);
                break;
            }
        }
        match got {
            Some(p) => assert_eq!(p.msg_id_hash, 0xABCD),
            None => eprintln!("skipping assertion: multicast loopback not delivered"),
        }
    }

    #[test]
    fn two_agents_over_loopback() {
        let Some(sock_a) = try_socket(29876) else {
            return;
        };
        let Ok(sock_b) = SapSocket::open(Ipv4Addr::new(239, 195, 255, 253), 29876, 1) else {
            eprintln!("skipping: cannot open second socket (no SO_REUSEADDR?)");
            return;
        };
        let mut cfg_a = DirectoryConfig::new(Ipv4Addr::new(127, 0, 0, 1));
        cfg_a.space = AddrSpace::abstract_space(64);
        let mut cfg_b = DirectoryConfig::new(Ipv4Addr::new(127, 0, 0, 2));
        cfg_b.space = AddrSpace::abstract_space(64);
        let mut a = SapAgent::new(cfg_a, Box::new(InformedRandomAllocator), sock_a, 1);
        let mut b = SapAgent::new(cfg_b, Box::new(InformedRandomAllocator), sock_b, 2);
        a.create_session("from-a", 1, media()).unwrap();
        for _ in 0..50 {
            a.step(Duration::from_millis(20)).unwrap();
            b.step(Duration::from_millis(20)).unwrap();
            if b.stats().cached_sessions > 0 {
                break;
            }
        }
        if b.stats().cached_sessions == 0 {
            eprintln!("skipping assertion: multicast delivery unavailable");
            return;
        }
        assert_eq!(b.stats().cached_sessions, 1);
    }

    #[test]
    fn spawned_agent_responds_to_commands() {
        let Some(sock) = try_socket(29877) else {
            return;
        };
        let mut cfg = DirectoryConfig::new(Ipv4Addr::new(127, 0, 0, 9));
        cfg.space = AddrSpace::abstract_space(64);
        let agent = SapAgent::new(cfg, Box::new(InformedRandomAllocator), sock, 3);
        let handle = agent.spawn();
        let id = handle.create_session("bg", 1, media()).unwrap();
        assert!(id >= 1);
        std::thread::sleep(Duration::from_millis(250));
        let stats = handle.stats();
        assert!(stats.sent >= 1, "no announcement sent: {stats:?}");
        handle.withdraw(id);
        drop(handle); // joins the thread
    }

    #[test]
    fn empty_socket_classifies_timeout() {
        let Some(sock) = try_socket(29880) else {
            return;
        };
        assert_eq!(
            sock.recv_once(Duration::from_millis(5)).expect("recv_once"),
            RecvOutcome::TimedOut,
            "an idle socket's wait budget ends in TimedOut, not an error"
        );
        assert_eq!(
            sock.try_recv().expect("try_recv"),
            RecvOutcome::TimedOut,
            "a non-blocking poll of an idle socket reports nothing pending"
        );
        assert_eq!(
            sock.recv_timeout(Duration::from_millis(5)).expect("recv"),
            None
        );
    }

    #[test]
    fn zero_budget_receive_never_blocks() {
        let Some(sock) = try_socket(29882) else {
            return;
        };
        let mut took: Vec<Duration> = (0..20)
            .map(|_| {
                let t0 = Instant::now();
                assert_eq!(sock.recv_timeout(Duration::ZERO).expect("recv"), None);
                t0.elapsed()
            })
            .collect();
        took.sort();
        // A blocking read costs at least 1 ms every time; a poll costs
        // microseconds.  One slow call is tolerated so that a single
        // preemption on a busy host cannot fail the test.
        assert!(
            took[18] < Duration::from_millis(1),
            "zero-budget receives blocked: {took:?}"
        );
        assert!(
            took[10] < Duration::from_micros(200),
            "zero-budget receives blocked: {took:?}"
        );
    }

    #[test]
    fn recv_once_surfaces_undecodable_datagrams() {
        let Some(sock) = try_socket(29881) else {
            return;
        };
        let sender = UdpSocket::bind("0.0.0.0:0").expect("bind sender");
        let _ = sender.set_multicast_ttl_v4(1);
        sender
            .send_to(&[0xFFu8; 7], sock.destination())
            .expect("send garbage");
        let mut got = None;
        for _ in 0..20 {
            match sock
                .recv_once(Duration::from_millis(50))
                .expect("recv_once")
            {
                RecvOutcome::TimedOut | RecvOutcome::Interrupted => continue,
                other => {
                    got = Some(other);
                    break;
                }
            }
        }
        match got {
            Some(RecvOutcome::Undecodable(len)) => assert_eq!(len, 7),
            Some(other) => panic!("expected Undecodable(7), got {other:?}"),
            None => eprintln!("skipping assertion: multicast loopback not delivered"),
        }
    }

    #[test]
    #[should_panic(expected = "not a multicast")]
    fn unicast_group_rejected() {
        let _ = SapSocket::open(Ipv4Addr::new(10, 0, 0, 1), 29878, 1);
    }

    #[test]
    fn zero_ttl_rejected() {
        let err = SapSocket::open(Ipv4Addr::new(239, 195, 255, 253), 29879, 0)
            .expect_err("TTL 0 must not be silently promoted to 1");
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }

    use std::sync::atomic::{AtomicUsize, Ordering};

    /// A transport that fails its first `failures` operations with a
    /// transient error, then behaves as an idle (packet-less) link.
    struct FlakyTransport {
        failures: AtomicUsize,
    }

    impl FlakyTransport {
        fn new(failures: usize) -> Self {
            FlakyTransport {
                failures: AtomicUsize::new(failures),
            }
        }

        fn trip(&self) -> io::Result<()> {
            let mut cur = self.failures.load(Ordering::SeqCst);
            loop {
                if cur == 0 {
                    return Ok(());
                }
                match self.failures.compare_exchange(
                    cur,
                    cur - 1,
                    Ordering::SeqCst,
                    Ordering::SeqCst,
                ) {
                    Ok(_) => return Err(io::Error::other("injected transport fault")),
                    Err(actual) => cur = actual,
                }
            }
        }
    }

    impl SapTransport for FlakyTransport {
        fn send(&self, _pkt: &SapPacket) -> io::Result<usize> {
            self.trip()?;
            Ok(0)
        }

        fn recv(&self, timeout: Duration) -> io::Result<Option<SapPacket>> {
            self.trip()?;
            std::thread::sleep(timeout.min(Duration::from_millis(2)));
            Ok(None)
        }
    }

    fn flaky_agent(failures: usize, seed: u64) -> SapAgent<FlakyTransport> {
        let mut cfg = DirectoryConfig::new(Ipv4Addr::new(127, 0, 0, 8));
        cfg.space = AddrSpace::abstract_space(64);
        SapAgent::new(
            cfg,
            Box::new(InformedRandomAllocator),
            FlakyTransport::new(failures),
            seed,
        )
    }

    #[test]
    fn pump_dies_on_first_fault_without_retry() {
        let handle = flaky_agent(usize::MAX, 7)
            .with_retry_policy(RetryPolicy::disabled())
            .spawn();
        let mut died = false;
        for _ in 0..500 {
            if handle.terminal_error().is_some() {
                died = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(died, "disabled retry policy must kill the pump on error");
        let msg = handle.terminal_error().unwrap();
        assert!(msg.contains("injected"), "error surfaced verbatim: {msg}");
    }

    #[test]
    fn pump_survives_transient_faults_with_retry() {
        // Five consecutive failures, then a healthy link: well inside the
        // default policy's tolerance of eight.
        let handle = flaky_agent(5, 8).spawn();
        let id = handle
            .create_session("resilient", 1, media())
            .expect("agent still serving commands after transient faults");
        assert!(id >= 1);
        // The pump must have absorbed the faults, not died.
        let mut retried = false;
        for _ in 0..500 {
            if handle.stats().retries >= 1 {
                retried = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(retried, "faults should be visible as retries in stats");
        assert_eq!(handle.terminal_error(), None, "pump must not have died");
    }

    #[test]
    fn pump_gives_up_after_persistent_faults() {
        // An always-failing link exhausts max_consecutive and surfaces
        // the terminal error even with retries enabled.
        let policy = RetryPolicy {
            base: Duration::from_micros(100),
            max_consecutive: 3,
            ..RetryPolicy::default()
        };
        let handle = flaky_agent(usize::MAX, 9).with_retry_policy(policy).spawn();
        let mut died = false;
        for _ in 0..500 {
            if handle.terminal_error().is_some() {
                died = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(died, "persistent failure must eventually terminate");
        // The post-mortem flight dump surfaces the retries and the
        // terminal failure as telemetry events.
        let dump = handle
            .terminal_dump()
            .expect("terminal failure must leave a flight-recorder dump");
        assert!(dump.contains("\"flight_recorder\": true"), "{dump}");
        assert!(dump.contains("agent pump terminated"), "{dump}");
        assert!(dump.contains("\"agent.retries\": 3"), "{dump}");
        assert!(dump.contains("\"agent.terminal_failures\": 1"), "{dump}");
        assert!(dump.contains("\"name\": \"terminal_failure\""), "{dump}");
        assert!(dump.contains("\"name\": \"retry\""), "{dump}");
    }

    #[test]
    fn pump_hits_retry_wall_time_deadline() {
        // A permanently dead transport with an effectively unlimited
        // attempt budget still terminates once the elapsed-time budget
        // for the failure run is spent.
        let policy = RetryPolicy {
            base: Duration::from_micros(100),
            cap: Duration::from_millis(1),
            max_consecutive: u32::MAX,
            max_elapsed: Some(Duration::from_millis(25)),
            ..RetryPolicy::default()
        };
        let handle = flaky_agent(usize::MAX, 10)
            .with_retry_policy(policy)
            .spawn();
        let mut died = false;
        for _ in 0..2_000 {
            if handle.terminal_error().is_some() {
                died = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(died, "wall-time budget must terminate a dead transport");
        let dump = handle.terminal_dump().expect("post-mortem dump");
        assert!(dump.contains("\"name\": \"terminal_failure\""), "{dump}");
    }

    #[test]
    fn backoff_is_bounded_and_jittered() {
        let policy = RetryPolicy::default();
        let mut rng = SimRng::new(10);
        for attempt in 0..64 {
            let d = policy.backoff(attempt, &mut rng);
            let ceiling = policy
                .base
                .saturating_mul(2u32.saturating_pow(attempt.min(20)))
                .min(policy.cap);
            assert!(d < ceiling.max(Duration::from_nanos(1)));
        }
        // Jitter: two agents with different seeds diverge.
        let mut a = SimRng::new(11);
        let mut b = SimRng::new(12);
        let diverged = (0..8).any(|n| policy.backoff(n, &mut a) != policy.backoff(n, &mut b));
        assert!(diverged, "backoff must be jittered per-agent");
    }
}
