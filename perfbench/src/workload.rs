//! The three workloads and the seeded inputs they offer.
//!
//! Every input — resident sessions, the send schedule, which sends are
//! changes, reader operations and creates — is drawn from one
//! [`SimRng`] seeded from the command line.  The service under test
//! receives only the generated datagrams and commands.

use std::net::Ipv4Addr;
use std::time::Duration;

use sdalloc_core::AddrSpace;
use sdalloc_sap::sdp::{Media, Origin, SessionDescription};
use sdalloc_sap::wire::{msg_id_hash, SapPacket};
use sdalloc_sim::SimRng;

use crate::stats::arrivals;

/// How the generator offers announcements.
#[derive(Debug, Clone, Copy)]
pub enum Traffic {
    /// Announcements at uniformly random instants, `per_sec` on average;
    /// `change_share` of those inside the measured window are changes.
    Steady { per_sec: f64, change_share: f64 },
    /// A burst in every `period` (at a random point of its first half),
    /// of a size drawn uniformly from `min..=max`; the last datagram of
    /// each burst is a change.
    Bursts {
        period: Duration,
        min: usize,
        max: usize,
    },
}

/// One workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    /// Announcements travel over kernel UDP multicast instead of the
    /// in-process loopback bus.
    pub udp: bool,
    /// Agent A hears the generator (and so allocates around its
    /// sessions); otherwise A is a send-only site.
    pub a_hears: bool,
    /// Resident sessions announced by the generator.
    pub sessions: usize,
    pub traffic: Traffic,
    /// Reader operations against agent B's snapshots.
    pub lookups_per_sec: f64,
    pub searches_per_sec: f64,
    /// Sessions created on agent A, each withdrawn after [`LIFETIME`].
    pub creates_per_sec: f64,
    /// Agent B's snapshot cadence.
    pub cadence: Duration,
}

/// The workloads, in the order BENCHMARK.json lists them.
pub const WORKLOADS: [Spec; 3] = [
    // The deployed steady state: a large resident set, refreshes with a
    // trickle of changes.  Snapshot capture dominates.  A only creates,
    // so the create path stays cheap and the load stays on B.
    Spec {
        name: "steady_100k",
        udp: false,
        a_hears: false,
        sessions: 100_000,
        traffic: Traffic::Steady {
            per_sec: 10_000.0,
            change_share: 0.012,
        },
        lookups_per_sec: 5_000.0,
        searches_per_sec: 10.0,
        creates_per_sec: 25.0,
        cadence: Duration::from_millis(250),
    },
    // The write side: creates on A (view, allocator, own announce
    // timers, command path) and the admit/delete churn B publishes.
    Spec {
        name: "create_2agents",
        udp: false,
        a_hears: true,
        sessions: 50_000,
        traffic: Traffic::Steady {
            per_sec: 5_000.0,
            change_share: 0.024,
        },
        lookups_per_sec: 2_000.0,
        searches_per_sec: 10.0,
        creates_per_sec: 50.0,
        cadence: Duration::from_millis(250),
    },
    // The per-packet path a deployment runs: kernel recv, decode,
    // on_packet, with capture cheap at 2k rows.  Bursts stay well inside
    // the kernel's default receive buffer (about 160 datagrams of this
    // size).  B publishes whenever updates are pending: `AgentDriver` only
    // re-checks the cadence when a packet wakes it, so any interval
    // would hold a change back until the next burst.
    Spec {
        name: "burst_udp_2k",
        udp: true,
        a_hears: false,
        sessions: 2_000,
        traffic: Traffic::Bursts {
            period: Duration::from_millis(10),
            min: 20,
            max: 100,
        },
        lookups_per_sec: 2_000.0,
        searches_per_sec: 100.0,
        creates_per_sec: 40.0,
        cadence: Duration::ZERO,
    },
];

/// How long a session created on A lives before A withdraws it; short
/// enough that creates early in a run are withdrawn within it.
pub const LIFETIME: Duration = Duration::from_secs(4);

/// Look a workload up by name.
pub fn spec(name: &str) -> Option<Spec> {
    WORKLOADS.iter().copied().find(|s| s.name == name)
}

/// Address space every agent allocates from and generator sessions
/// occupy (bus workloads).
pub fn shared_space() -> AddrSpace {
    AddrSpace::new(Ipv4Addr::new(224, 4, 0, 0), 1 << 18)
}

/// A disjoint space for agent A when it does not hear the generator,
/// so its blind allocations never clash with generator sessions at B.
pub fn deaf_space() -> AddrSpace {
    AddrSpace::new(Ipv4Addr::new(224, 8, 0, 0), 1 << 18)
}

/// Unicast address of agent A (the creating site).
pub const HOST_A: Ipv4Addr = Ipv4Addr::new(10, 1, 0, 1);
/// Unicast address of agent B (the observed site).
pub const HOST_B: Ipv4Addr = Ipv4Addr::new(10, 1, 0, 2);

/// Scope TTLs drawn for sessions; they span the allocator's TTL bands.
pub const TTLS: [u8; 8] = [1, 15, 31, 47, 63, 127, 191, 255];

/// Search keywords; every generator session's name contains exactly one.
pub const TOPICS: usize = 100;

/// The keyword of topic `t`.
pub fn topic_keyword(t: usize) -> String {
    format!("topic-{t:02}-")
}

fn media() -> Vec<Media> {
    vec![Media {
        kind: "audio".into(),
        port: 5004,
        proto: "RTP/AVP".into(),
        format: 0,
    }]
}

/// A generator-announced session.
#[derive(Debug, Clone)]
pub struct Session {
    pub origin: Ipv4Addr,
    pub session_id: u64,
    pub group: Ipv4Addr,
    pub ttl: u8,
    pub topic: usize,
}

impl Session {
    /// The announcement of this session at `version`.
    pub fn packet(&self, version: u64) -> SapPacket {
        let desc = SessionDescription {
            origin: Origin {
                username: "-".into(),
                session_id: self.session_id,
                version,
                address: self.origin,
            },
            name: format!("{} session {}", topic_keyword(self.topic), self.session_id),
            info: None,
            group: self.group,
            ttl: self.ttl,
            start: 0,
            stop: 0,
            media: media(),
        };
        let payload = desc.format();
        SapPacket::announce(self.origin, msg_id_hash(&payload), payload)
    }
}

/// One scheduled announcement.
#[derive(Debug, Clone, Copy)]
pub struct Send {
    /// Due offset from the start of the run, ns.
    pub due: u64,
    /// Index into [`Input::sessions`].
    pub session: u32,
    /// The version this send carries; a change when it is new.
    pub version: u64,
    pub change: bool,
}

/// Everything a run offers, generated from the seed.
#[derive(Debug)]
pub struct Input {
    pub sessions: Vec<Session>,
    /// Announcements during the run, sorted by due time, followed by a
    /// refresh-only tail that lets late changes heal.
    pub sends: Vec<Send>,
    /// (due, session) point lookups.
    pub lookups: Vec<(u64, u32)>,
    /// (due, topic) keyword searches.
    pub searches: Vec<(u64, usize)>,
    /// (due, ttl) creates on agent A.
    pub creates: Vec<(u64, u8)>,
    /// Final version of every session.
    pub final_versions: Vec<u64>,
    /// Sessions per topic.
    pub topic_counts: Vec<usize>,
}

/// Length of the refresh-only tail after the measured window.
pub const TAIL: Duration = Duration::from_secs(1);

/// Generate a run's input.
pub fn generate(spec: &Spec, seed: u64, seconds: u64) -> Input {
    let mut rng = SimRng::new(seed);
    let window = Duration::from_secs(seconds);
    let space = shared_space();

    // Distinct groups, so no two generator sessions ever clash.
    let mut groups: Vec<u32> = (0..space.size()).collect();
    rng.shuffle(&mut groups);
    let sessions: Vec<Session> = (0..spec.sessions)
        .map(|i| Session {
            origin: Ipv4Addr::new(10, 2, (i % 64) as u8, 1 + (i / 64 % 200) as u8),
            session_id: i as u64 + 1,
            group: Ipv4Addr::from(u32::from(space.base()) + groups[i]),
            ttl: *rng.choose(&TTLS),
            topic: rng.index(TOPICS),
        })
        .collect();
    let mut topic_counts = vec![0; TOPICS];
    for s in &sessions {
        topic_counts[s.topic] += 1;
    }

    // Refreshes walk a seeded permutation round-robin, so every session
    // is refreshed once per cycle.
    let mut order: Vec<u32> = (0..spec.sessions as u32).collect();
    rng.shuffle(&mut order);
    let mut versions = vec![1u64; spec.sessions];
    let mut cursor = 0usize;
    let mut sends = Vec::new();
    let mut push = |due: u64, change: bool, sends: &mut Vec<Send>| {
        let session = order[cursor % order.len()];
        cursor += 1;
        let v = &mut versions[session as usize];
        if change {
            *v += 1;
        }
        sends.push(Send {
            due,
            session,
            version: *v,
            change,
        });
    };
    let total = window + TAIL;
    match spec.traffic {
        Traffic::Steady {
            per_sec,
            change_share,
        } => {
            let n = (per_sec * total.as_secs_f64()).round() as usize;
            let window_ns = window.as_nanos() as u64;
            let due = arrivals(&mut rng, n, total);
            // Exactly `change_share` of the window's sends are changes,
            // so every seed yields the same number of visibility samples.
            let in_window = due.partition_point(|&d| d < window_ns);
            let mut pick: Vec<usize> = (0..in_window).collect();
            rng.shuffle(&mut pick);
            let mut change = vec![false; n];
            let k = (change_share * in_window as f64).round() as usize;
            for &i in &pick[..k] {
                change[i] = true;
            }
            for (d, c) in due.into_iter().zip(change) {
                push(d, c, &mut sends);
            }
        }
        Traffic::Bursts { period, min, max } => {
            let bursts = (total.as_nanos() / period.as_nanos()) as u64;
            let in_window = (window.as_nanos() / period.as_nanos()) as u64;
            let period_ns = period.as_nanos() as u64;
            for b in 0..bursts {
                // Jitter within the first half of the period keeps bursts
                // ordered but off any fixed phase with the kernel's timer
                // tick, which socket receive timeouts are rounded to.
                let due = b * period_ns + rng.below(period_ns / 2);
                let size = rng.range_inclusive(min as u64, max as u64) as usize;
                for k in 0..size {
                    push(due, b < in_window && k + 1 == size, &mut sends);
                }
            }
        }
    }

    let count = |rate: f64| (rate * window.as_secs_f64()).round() as usize;
    let lookups = arrivals(&mut rng, count(spec.lookups_per_sec), window)
        .into_iter()
        .map(|due| (due, rng.below(spec.sessions as u64) as u32))
        .collect();
    let searches = arrivals(&mut rng, count(spec.searches_per_sec), window)
        .into_iter()
        .map(|due| (due, rng.index(TOPICS)))
        .collect();
    let creates = arrivals(&mut rng, count(spec.creates_per_sec), window)
        .into_iter()
        .map(|due| (due, *rng.choose(&TTLS)))
        .collect();
    Input {
        sessions,
        sends,
        lookups,
        searches,
        creates,
        final_versions: versions,
        topic_counts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_input() {
        let s = spec("burst_udp_2k").unwrap();
        let a = generate(&s, 3, 2);
        let b = generate(&s, 3, 2);
        assert_eq!(a.sends.len(), b.sends.len());
        assert_eq!(a.final_versions, b.final_versions);
        assert_eq!(a.lookups, b.lookups);
        assert_ne!(generate(&s, 4, 2).final_versions, a.final_versions);
    }

    #[test]
    fn versions_rise_by_one_per_change() {
        let s = spec("create_2agents").unwrap();
        let input = generate(&s, 9, 1);
        let mut seen = vec![1u64; input.sessions.len()];
        for send in &input.sends {
            let v = &mut seen[send.session as usize];
            assert_eq!(send.version, *v + u64::from(send.change));
            *v = send.version;
        }
        assert_eq!(seen, input.final_versions);
        assert!(input.sends.iter().any(|s| s.change));
    }

    #[test]
    fn every_burst_ends_in_a_change_and_the_tail_has_none() {
        let s = spec("burst_udp_2k").unwrap();
        let input = generate(&s, 1, 1);
        let changes: Vec<_> = input.sends.iter().filter(|s| s.change).collect();
        assert_eq!(changes.len(), 100);
        assert!(changes.iter().all(|c| c.due < 1_000_000_000));
        assert_eq!(input.topic_counts.iter().sum::<usize>(), 2_000);
    }
}
