//! The open-loop load generator.
//!
//! Two threads, each owning one keep-alive connection, share a fixed
//! schedule: request `k` of a rung is due at `start + k / rate`, and the
//! threads take alternate slots. A thread that is idle sleeps until the
//! next slot is due; a thread still waiting on its previous response sends
//! the moment it returns. Latency is timed from when the request was *due*,
//! so a stall is charged to every request queued behind it. Two lags are
//! kept apart:
//!
//! * **backlog** — send time minus due time, whatever the cause. It grows
//!   without bound when the server cannot keep up.
//! * **own lag** — send time minus the later of due time and the moment
//!   the thread became free: lateness the generator itself caused (sleep
//!   overshoot, scheduling). A run where this is large measured the
//!   generator, not the server, and is marked invalid.
//!
//! The reference rate runs in segments. On a virtual machine the host can
//! take the CPUs away for milliseconds at a time (`steal` in `/proc/stat`);
//! a segment during which it took more than a small share is discarded and
//! replaced, a bounded number of times, and the run record says how many.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use gks_server::client::HttpClient;

use crate::stats::quantile;

/// One step of the rate ladder.
#[derive(Debug, Clone, Copy)]
pub struct Rung {
    /// Requests per second.
    pub rate: f64,
    /// Seconds at this rate.
    pub secs: f64,
}

impl Rung {
    /// Slots in this rung.
    pub fn slots(&self) -> usize {
        (self.rate * self.secs).round() as usize
    }
}

/// What the generator checks in a response as it arrives.
pub trait Checker: Sync {
    /// Inspects the body of the response to request `index`. `Some(false)`
    /// marks the request failed; returning `Some(true)` or `None` accepts it.
    /// `keep` asks for the body to be kept for a check after the run.
    fn check(&self, index: usize, body: &[u8]) -> Option<bool>;
    /// Whether the body of request `index` is kept for a later check.
    fn keep(&self, index: usize) -> bool;
}

/// Accepts everything, keeps nothing.
#[derive(Debug)]
pub struct NoCheck;

impl Checker for NoCheck {
    fn check(&self, _: usize, _: &[u8]) -> Option<bool> {
        None
    }

    fn keep(&self, _: usize) -> bool {
        false
    }
}

/// One request as it went.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Index into the request sequence.
    pub index: usize,
    /// Milliseconds from due to response (or error).
    pub latency_ms: f64,
    /// Milliseconds from due to send.
    pub backlog_ms: f64,
    /// Milliseconds of lateness the generator caused itself.
    pub own_lag_ms: f64,
    /// Failed: transport error, non-2xx, or a body that failed its check.
    pub failed: bool,
    /// Seconds from the start of the timed phase to the send.
    pub sent_at: f64,
    /// The body, when the checker asked to keep it.
    pub body: Option<Vec<u8>>,
}

/// The result of one rung.
#[derive(Debug, Clone)]
pub struct RungReport {
    /// The rung as scheduled.
    pub rung: Rung,
    /// Whether this rung ran after the ladder stopped (at the reference
    /// rate, to keep the run length fixed).
    pub cooldown: bool,
    /// Every request sent.
    pub outcomes: Vec<Outcome>,
    /// Slots never sent because the backlog outgrew the latency limit.
    pub unsent: usize,
    /// Wall seconds the rung took.
    pub elapsed: f64,
    /// CPU clock ticks stolen by the hypervisor while it ran.
    pub steal: u64,
}

impl RungReport {
    /// Latencies in ms.
    pub fn latencies(&self) -> Vec<f64> {
        self.outcomes.iter().map(|o| o.latency_ms).collect()
    }

    /// Failed requests.
    pub fn failures(&self) -> usize {
        self.outcomes.iter().filter(|o| o.failed).count()
    }

    /// Completed requests per second of wall time, from the rung's start to
    /// its last response.
    pub fn achieved_rate(&self) -> f64 {
        let done = self.outcomes.iter().filter(|o| !o.failed).count();
        if self.elapsed > 0.0 {
            done as f64 / self.elapsed
        } else {
            0.0
        }
    }

    /// The rung meets the limit: everything sent, nothing failed, p99
    /// within `limit_ms`, and the backlog did not grow — the requests of the
    /// rung's last tenth went out within `limit_ms` of when they were due
    /// on average.
    pub fn passes(&self, limit_ms: f64) -> bool {
        let tail = &self.outcomes[self.outcomes.len() - self.outcomes.len() / 10..];
        let tail_backlog =
            tail.iter().map(|o| o.backlog_ms).sum::<f64>() / tail.len().max(1) as f64;
        self.unsent == 0
            && self.failures() == 0
            && !self.outcomes.is_empty()
            && quantile(&self.latencies(), 0.99) <= limit_ms
            && tail_backlog <= limit_ms
    }
}

/// Opens the generator's keep-alive connections.
pub fn connect(addr: SocketAddr, n: usize) -> Result<Vec<HttpClient>, String> {
    (0..n)
        .map(|_| HttpClient::connect(addr, Duration::from_secs(10)).map_err(|e| e.to_string()))
        .collect()
}

fn wait_until(deadline: Instant) {
    loop {
        let now = Instant::now();
        if now >= deadline {
            return;
        }
        // Sleep most of the wait; yield (rather than spin) through the last
        // stretch so the server's threads keep the cores.
        let left = deadline - now;
        if left > Duration::from_micros(150) {
            std::thread::sleep(left - Duration::from_micros(100));
        } else {
            std::thread::yield_now();
        }
    }
}

/// CPU time the hypervisor took from this machine so far, in clock ticks
/// (the `steal` column of `/proc/stat`; 0 where it cannot be read).
pub fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| s.lines().next().and_then(|l| l.split_whitespace().nth(8)?.parse().ok()))
        .unwrap_or(0)
}

/// Runs one rung over `clients`, sending `targets[base..]` in slot order.
#[allow(clippy::too_many_arguments)]
pub fn run_rung(
    clients: &mut [HttpClient],
    addr: SocketAddr,
    targets: &[String],
    base: usize,
    rung: Rung,
    limit_ms: f64,
    phase_start: Instant,
    checker: &dyn Checker,
) -> RungReport {
    let slots = rung.slots().min(targets.len().saturating_sub(base));
    let steal_before = steal_ticks();
    let start = Instant::now();
    let interval = Duration::from_secs_f64(1.0 / rung.rate);
    let give_up = start + Duration::from_secs_f64(rung.secs + limit_ms / 1e3);
    let lanes = clients.len();
    let mut per_lane: Vec<(Vec<Outcome>, usize)> = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(lane, client)| {
                scope.spawn(move || {
                    let mut outcomes = Vec::with_capacity(slots / lanes + 1);
                    let mut unsent = 0usize;
                    let mut free_at = start;
                    for k in (lane..slots).step_by(lanes) {
                        let due = start + interval * k as u32;
                        if Instant::now() > give_up {
                            unsent += 1;
                            continue;
                        }
                        wait_until(due);
                        let sent = Instant::now();
                        let index = base + k;
                        let response = client.get(&targets[index]);
                        let done = Instant::now();
                        let (failed, body) = match response {
                            Ok(r) if (200..300).contains(&r.status) => {
                                let ok = checker.check(index, &r.body) != Some(false);
                                let keep = checker.keep(index).then_some(r.body);
                                (!ok, keep)
                            }
                            Ok(_) => (true, None),
                            Err(_) => {
                                // A transport error poisons the connection.
                                if let Ok(c) = HttpClient::connect(addr, Duration::from_secs(10)) {
                                    *client = c;
                                }
                                (true, None)
                            }
                        };
                        let ms = |a: Instant, b: Instant| {
                            b.saturating_duration_since(a).as_secs_f64() * 1e3
                        };
                        outcomes.push(Outcome {
                            index,
                            latency_ms: ms(due, done),
                            backlog_ms: ms(due, sent),
                            own_lag_ms: ms(due.max(free_at), sent),
                            failed,
                            sent_at: sent.duration_since(phase_start).as_secs_f64(),
                            body,
                        });
                        free_at = done;
                    }
                    (outcomes, unsent)
                })
            })
            .collect();
        for h in handles {
            per_lane.push(h.join().expect("generator thread panicked"));
        }
    });
    let elapsed = start.elapsed().as_secs_f64();
    let mut outcomes = Vec::with_capacity(slots);
    let mut unsent = 0;
    for (o, u) in per_lane {
        outcomes.extend(o);
        unsent += u;
    }
    outcomes.sort_by_key(|o| o.index);
    let steal = steal_ticks().saturating_sub(steal_before);
    RungReport { rung, cooldown: false, outcomes, unsent, elapsed, steal }
}

/// The reference phase runs in this many segments.
pub const SEGMENTS: usize = 5;
/// Up to this many reference segments may be discarded and replaced.
pub const MAX_REPLACEMENTS: usize = 4;
/// A reference segment during which the hypervisor stole more than this
/// share of the machine's CPU time measured the host, not the server: it
/// is discarded and replaced. (Steal is time the host ran something else
/// on our virtual CPUs; nothing the program does can cause it.)
pub const STEAL_LIMIT: f64 = 0.02;
/// A run whose generator was late by this much itself (p99 on the kept
/// reference segments) measured the generator, not the server: invalid.
pub const OWN_LAG_LIMIT_MS: f64 = 2.0;

/// Clock ticks per second of `/proc/stat`.
const TICKS_PER_SEC: f64 = 100.0;

/// The schedule of a timed phase of `seconds`: the reference rung takes
/// `ref_share` of it, the higher rungs split the rest evenly.
pub fn ladder(rates: &[f64], ref_share: f64, seconds: f64) -> Vec<Rung> {
    let rest = (seconds * (1.0 - ref_share)) / (rates.len().saturating_sub(1).max(1)) as f64;
    rates
        .iter()
        .enumerate()
        .map(|(i, &rate)| Rung { rate, secs: if i == 0 { seconds * ref_share } else { rest } })
        .collect()
}

fn segment(rung: Rung) -> Rung {
    Rung { rate: rung.rate, secs: rung.secs / SEGMENTS as f64 }
}

/// Requests a full ladder can send, replacements included.
pub fn capacity(rungs: &[Rung]) -> usize {
    let spare = rungs.first().map_or(0, |r| segment(*r).slots() * MAX_REPLACEMENTS);
    rungs.iter().map(Rung::slots).sum::<usize>() + spare
}

/// The outcome of a ladder.
#[derive(Debug)]
pub struct Ladder {
    /// The kept segments of the reference rung.
    pub reference: Vec<RungReport>,
    /// The ordinal (as passed to [`Hooks::during`]) of each kept segment.
    pub kept: Vec<usize>,
    /// Reference segments discarded because the host stole CPU time.
    pub discarded: Vec<RungReport>,
    /// The higher rungs, then any cool-down.
    pub rungs: Vec<RungReport>,
}

impl Ladder {
    /// The kept reference segments as one report.
    pub fn reference_report(&self) -> RungReport {
        let mut outcomes = Vec::new();
        let (mut unsent, mut elapsed, mut secs, mut steal) = (0, 0.0, 0.0, 0);
        for r in &self.reference {
            outcomes.extend(r.outcomes.iter().cloned());
            unsent += r.unsent;
            elapsed += r.elapsed;
            secs += r.rung.secs;
            steal += r.steal;
        }
        let rate = self.reference.first().map_or(0.0, |r| r.rung.rate);
        RungReport { rung: Rung { rate, secs }, cooldown: false, outcomes, unsent, elapsed, steal }
    }

    /// Every report, discarded segments included (for failure counts).
    pub fn all(&self) -> impl Iterator<Item = &RungReport> {
        self.reference.iter().chain(&self.discarded).chain(&self.rungs)
    }

    /// The highest passing rung's achieved rate (0 when even the reference
    /// rung failed).
    pub fn max_ok_qps(&self, limit_ms: f64) -> f64 {
        std::iter::once(self.reference_report())
            .chain(self.rungs.iter().filter(|r| !r.cooldown).cloned())
            .take_while(|r| r.passes(limit_ms))
            .map(|r| r.achieved_rate())
            .fold(0.0, f64::max)
    }
}

/// The generator's own-lag p99 in a report, ms.
pub fn own_lag_p99(report: &RungReport) -> f64 {
    quantile(&report.outcomes.iter().map(|o| o.own_lag_ms).collect::<Vec<_>>(), 0.99)
}

/// Whether the host stole more than [`STEAL_LIMIT`] of the CPU time while
/// `report` ran.
pub fn stolen(report: &RungReport) -> bool {
    let available = report.elapsed * TICKS_PER_SEC * crate::server::nproc() as f64;
    report.steal as f64 > STEAL_LIMIT * available
}

/// Work run beside the load: `during(n)` runs on its own thread while the
/// `n`-th reference segment (replacements included) is under load;
/// `between()` runs in each pause between segments and rungs.
pub struct Hooks<'a> {
    /// Runs beside reference segment `n`.
    pub during: &'a (dyn Fn(usize) + Sync),
    /// Runs between steps.
    pub between: &'a mut dyn FnMut(),
}

/// Runs the ladder. The reference rung runs in [`SEGMENTS`] segments; a
/// segment the host stole CPU from (see [`stolen`]) is discarded and
/// replaced by another, up to [`MAX_REPLACEMENTS`] times. After the first
/// rung that fails, the remaining rungs' time runs at the reference rate
/// instead (marked `cooldown`), so the timed phase lasts as scheduled.
#[allow(clippy::too_many_arguments)]
pub fn run_ladder(
    clients: &mut [HttpClient],
    addr: SocketAddr,
    targets: &[String],
    rungs: &[Rung],
    limit_ms: f64,
    phase_start: Instant,
    checker: &dyn Checker,
    hooks: Hooks<'_>,
) -> Ladder {
    let mut ladder = Ladder {
        reference: Vec::new(),
        kept: Vec::new(),
        discarded: Vec::new(),
        rungs: Vec::new(),
    };
    let Some(&first) = rungs.first() else {
        return ladder;
    };
    let mut base = 0;
    let seg = segment(first);
    let mut n = 0;
    while ladder.reference.len() < SEGMENTS {
        let report = std::thread::scope(|scope| {
            let beside = scope.spawn(|| (hooks.during)(n));
            let report =
                run_rung(clients, addr, targets, base, seg, limit_ms, phase_start, checker);
            beside.join().expect("work beside the load panicked");
            report
        });
        (hooks.between)();
        base += seg.slots();
        if stolen(&report) && ladder.discarded.len() < MAX_REPLACEMENTS {
            ladder.discarded.push(report);
        } else {
            ladder.reference.push(report);
            ladder.kept.push(n);
        }
        n += 1;
    }
    let mut stopped = !ladder.reference_report().passes(limit_ms);
    for &rung in &rungs[1..] {
        let rung = if stopped {
            Rung { rate: first.rate, secs: rung.secs }
        } else {
            rung
        };
        let mut report =
            run_rung(clients, addr, targets, base, rung, limit_ms, phase_start, checker);
        (hooks.between)();
        report.cooldown = stopped;
        base += rung.slots();
        if !stopped && !report.passes(limit_ms) {
            stopped = true;
        }
        ladder.rungs.push(report);
    }
    ladder
}
