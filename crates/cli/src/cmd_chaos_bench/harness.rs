//! The skeleton every soak mode shares, written once: the flags more than
//! one mode reads, the bounded ticket wait, the closed loop and the
//! capacity calibration built on it, the open-loop mixed-priority drive,
//! the redeem-and-golden-audit tally, and the gates every mode applies.
//! A mode supplies only how to build its target, the submit closure, its
//! fault population and its extra gates.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use npcgra::nn::Tensor;
use npcgra::serve::{BackendTier, Priority, Response, ServeConfig, ServeError, Server, Ticket, WorkerExit};
use npcgra::CgraSpec;

use super::Mode;
use crate::args::Flags;
use crate::endpoints::Endpoints;

/// Longest a redeemed ticket may stay unresolved before it counts as hung.
/// It must dominate the longest legitimate stall — a wedged batch held for
/// its whole watchdog deadline — so a counted hang means liveness failed.
pub const HANG_CAP: Duration = Duration::from_secs(30);
/// Closed-loop window of a capacity calibration.
const CALIBRATION: Duration = Duration::from_secs(1);
/// Back-off of a closed-loop client whose submit was refused.
const REFUSED_BACKOFF: Duration = Duration::from_micros(200);
/// Batch cap of every single-layer `Server` the soaks start; dispatch is
/// the shipping default (work-conserving, no linger).
const MAX_BATCH: usize = 4;
/// CoDel sojourn target of every overload-controlled target.
pub const DELAY_TARGET: Duration = Duration::from_millis(2);
/// The workload: MobileNet at width 0.25 and 32x32 input, small enough
/// that a few seconds on the cycle-accurate tier resolve thousands of
/// tickets.
pub const ALPHA: f64 = 0.25;
pub const RES: usize = 32;

/// The flags more than one mode reads, parsed and range-checked once. The
/// mode's table row supplies the defaults; a flag the row does not list
/// was already refused, so it holds its default here.
pub struct Common {
    pub spec: CgraSpec,
    pub tier: BackendTier,
    pub workers: usize,
    pub clients: usize,
    /// `--seconds`: the soak (or open-loop drive) window.
    pub window: Duration,
    /// `--overload-factor`: the open-loop rate as a multiple of capacity.
    pub factor: f64,
    /// `--slo-ms`: the deadline Interactive open-loop traffic carries.
    pub slo: Duration,
}

impl Common {
    pub fn parse(flags: &Flags, mode: &Mode) -> Result<Common, String> {
        let common = Common {
            spec: flags.machine()?,
            tier: flags.tier(mode.tier)?,
            workers: flags.parse_or("workers", mode.workers)?,
            clients: flags.parse_or("clients", mode.clients)?,
            window: Duration::try_from_secs_f64(flags.parse_or("seconds", mode.seconds)?)
                .map_err(|e| format!("--seconds: {e}"))?,
            factor: flags.parse_or("overload-factor", 2.0)?,
            slo: Duration::from_millis(flags.parse_or("slo-ms", mode.slo_ms)?),
        };
        if common.workers == 0 || common.clients == 0 {
            return Err("chaos-bench needs at least one worker and one client".to_string());
        }
        if !(1.0..=100.0).contains(&common.factor) {
            return Err(format!("--overload-factor must be in [1, 100], got {}", common.factor));
        }
        Ok(common)
    }

    /// The single-layer serving config every `Server`-backed mode starts
    /// from.
    pub fn serve_config(&self) -> ServeConfig {
        ServeConfig::for_spec(&self.spec)
            .with_workers(self.workers)
            .with_max_batch(MAX_BATCH)
            .with_backend_tier(self.tier)
    }

    /// The banner's description of the served fleet.
    pub fn fleet(&self, eps: &Endpoints) -> String {
        let (tier, n, shards, spec) = (self.tier, eps.len(), self.workers, &self.spec);
        format!(
            "[{tier}]: {n} models, {shards} shard(s) of a {}x{} machine",
            spec.rows, spec.cols
        )
    }

    /// The banner line that follows a calibration.
    pub fn announce_drive(&self, target: &str, unit: &str, capacity_rps: f64) -> f64 {
        let offered_rps = capacity_rps * self.factor;
        println!(
            "calibrated {target} ≈ {capacity_rps:.0} {unit}/s; driving open-loop at {offered_rps:.0} {unit}/s ({:.1}x) \
             for {:.1}s — 30% Interactive (SLO {}ms) / 40% Batch / 30% BestEffort",
            self.factor,
            self.window.as_secs_f64(),
            self.slo.as_millis(),
        );
        offered_rps
    }
}

/// The one bounded ticket wait: `None` when `cap` passed with no reply, so
/// a stranded reply slot shows up as a hang count, never as a wedged soak.
pub fn redeem(ticket: &Ticket, cap: Duration) -> Option<Result<Response, ServeError>> {
    match ticket.wait_timeout(cap) {
        Err(ServeError::ReplyTimeout { .. }) => None,
        resolved => Some(resolved),
    }
}

/// Whether a submission was admitted and then answered with a reply.
pub fn answered(submitted: Result<Ticket, ServeError>) -> bool {
    submitted.is_ok_and(|ticket| matches!(redeem(&ticket, HANG_CAP), Some(Ok(_))))
}

/// What became of the tickets a soak redeemed.
#[derive(Default)]
pub struct Tally {
    /// Tickets that resolved, with a reply or a typed error.
    pub answered: u64,
    /// Tickets that resolved with a reply.
    pub delivered: u64,
    /// Tickets still unresolved at the hang cap.
    pub hung: u64,
    /// Delivered replies that diverged from the golden host reference.
    pub wrong: u64,
}

impl Tally {
    /// Count one redeemed outcome; `bit_exact` audits a delivered output
    /// against its golden. Returns the reply when there was one.
    pub fn record(
        &mut self,
        outcome: Option<Result<Response, ServeError>>,
        bit_exact: impl FnOnce(&Tensor) -> bool,
    ) -> Option<Response> {
        let Some(resolved) = outcome else {
            self.hung += 1;
            return None;
        };
        self.answered += 1;
        let resp = resolved.ok()?;
        self.delivered += 1;
        if !bit_exact(&resp.output) {
            self.wrong += 1;
            eprintln!("audit: request {} diverged from the golden reference", resp.request_id);
        }
        Some(resp)
    }
}

/// The closed loop: `clients` scoped threads each keep one request in
/// flight until `window` elapses. `request(c, r)` issues client `c`'s
/// `r`-th request and blocks for its outcome; `false` means the target
/// refused it, and the client backs off briefly. Returns the `true` count.
pub fn closed_loop(clients: usize, window: Duration, request: impl Fn(usize, usize) -> bool + Sync) -> u64 {
    let end = Instant::now() + window;
    let done = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for c in 0..clients {
            let (request, done) = (&request, &done);
            scope.spawn(move || {
                for r in 0.. {
                    if Instant::now() >= end {
                        break;
                    }
                    if request(c, r) {
                        done.fetch_add(1, Ordering::Relaxed);
                    } else {
                        std::thread::sleep(REFUSED_BACKOFF);
                    }
                }
            });
        }
    });
    done.into_inner()
}

/// Closed-loop capacity calibration: with one request in flight per
/// client, answered requests per second is the service capacity of
/// `target`. `request(c, r)` says whether the request was answered.
pub fn calibrate(target: &str, clients: usize, request: impl Fn(usize, usize) -> bool + Sync) -> Result<f64, String> {
    let start = Instant::now();
    let done = closed_loop(clients, CALIBRATION, request);
    if done == 0 {
        return Err(format!("calibration completed no requests — the {target} is wedged"));
    }
    Ok(done as f64 / start.elapsed().as_secs_f64())
}

/// The closed-loop soak of a `Server` (fault and gray modes): clients
/// cycle the endpoints for the window and every ticket is redeemed under
/// the hang cap; with `audit`, every delivered reply is compared
/// bit-exactly against the golden host reference.
pub fn soak(server: &Server, eps: &Endpoints, common: &Common, audit: bool) -> Tally {
    let tally = Mutex::new(Tally::default());
    closed_loop(common.clients, common.window, |c, r| {
        let idx = r % eps.len();
        let input = eps.input(idx, (c * 1_000_000 + r) as u64);
        // The golden needs the input, which the request consumes.
        let golden = audit.then(|| eps.golden(idx, &input));
        match server.submit(eps.ids[idx], input) {
            Ok(ticket) => {
                let outcome = redeem(&ticket, HANG_CAP);
                let mut tally = tally.lock().expect("a client panicked mid-tally");
                tally.record(outcome, |out| golden.as_ref().is_none_or(|g| out == g));
                true
            }
            Err(ServeError::QueueFull { .. } | ServeError::Degraded { .. }) => false,
            Err(e) => panic!("submit failed: {e}"),
        }
    });
    tally.into_inner().expect("a client panicked mid-tally")
}

/// The class of the `g`-th open-loop submission: 30 % Interactive, 40 %
/// Batch, 30 % BestEffort over any ten consecutive ordinals.
pub fn class_of(g: usize) -> Priority {
    match g % 10 {
        0..=2 => Priority::Interactive,
        3..=6 => Priority::Batch,
        _ => Priority::BestEffort,
    }
}

/// One submission of the open-loop schedule.
pub struct Due {
    /// Global ordinal across all clients (selects class, endpoint, seed).
    pub g: usize,
    pub class: Priority,
    /// The SLO, on Interactive submissions only.
    pub deadline: Option<Duration>,
}

/// The open-loop drive: `clients` scoped threads share one wall-clock
/// schedule of `offered_rps` submissions per second from `start` for the
/// `--seconds` window, regardless of replies. Each thread runs
/// `client(c, schedule)`, whose `schedule` sleeps until each of its
/// submissions is due; the per-thread results come back in client order.
pub fn open_loop<R: Send>(
    common: &Common,
    offered_rps: f64,
    start: Instant,
    client: impl Fn(usize, &mut dyn Iterator<Item = Due>) -> R + Sync,
) -> Vec<R> {
    let (clients, end) = (common.clients, start + common.window);
    let interval = Duration::from_secs_f64(clients as f64 / offered_rps);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let client = &client;
                scope.spawn(move || {
                    let t0 = start + Duration::from_secs_f64(c as f64 / offered_rps);
                    let mut schedule = (0u32..).map_while(|i| {
                        let due = t0 + interval * i;
                        if due >= end {
                            return None;
                        }
                        std::thread::sleep(due.saturating_duration_since(Instant::now()));
                        let g = i as usize * clients + c;
                        let class = class_of(g);
                        Some(Due {
                            g,
                            class,
                            deadline: (class == Priority::Interactive).then_some(common.slo),
                        })
                    });
                    client(c, &mut schedule)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("open-loop client")).collect()
    })
}

/// Per-class outcome of an open-loop drive (`[interactive, batch,
/// best-effort]`).
#[derive(Default)]
pub struct Classes {
    /// Submissions the target admitted.
    pub admitted: [u64; 3],
    /// Submissions refused at admission with a typed error.
    pub rejected: [u64; 3],
    /// Admitted submissions that were answered with a reply.
    pub served: [u64; 3],
    /// Interactive replies within the SLO.
    pub in_slo: u64,
}

impl Classes {
    pub fn offered(&self) -> u64 {
        self.admitted.iter().chain(&self.rejected).sum()
    }

    /// Share of admitted Interactive submissions answered within the SLO.
    pub fn attainment(&self) -> f64 {
        if self.admitted[0] == 0 {
            return 0.0;
        }
        self.in_slo as f64 / self.admitted[0] as f64
    }

    pub fn merge(&mut self, other: &Classes) {
        for k in 0..3 {
            self.admitted[k] += other.admitted[k];
            self.rejected[k] += other.rejected[k];
            self.served[k] += other.served[k];
        }
        self.in_slo += other.in_slo;
    }

    /// One line of per-class counts and the Interactive SLO attainment.
    pub fn summary(&self, slo: Duration) -> String {
        let ibe = |x: [u64; 3]| format!("{}/{}/{}", x[0], x[1], x[2]);
        format!(
            "offered {}, admitted I/B/E {}, rejected at admission I/B/E {}, served I/B/E {}; \
             interactive SLO {}/{} within {}ms ({:.2}%)",
            self.offered(),
            ibe(self.admitted),
            ibe(self.rejected),
            ibe(self.served),
            self.in_slo,
            self.admitted[0],
            slo.as_millis(),
            self.attainment() * 100.0,
        )
    }

    /// Count one delivered reply of `class` that took `latency`.
    pub fn serve(&mut self, class: Priority, latency: Duration, slo: Duration) {
        self.served[class.index()] += 1;
        self.in_slo += u64::from(class == Priority::Interactive && latency <= slo);
    }
}

/// Drive a ticket-returning target open-loop at `offered_rps`, then redeem
/// every admitted ticket under the hang cap and audit every delivered
/// reply, `bit_exact(g, output)` auditing the reply to submission `g`.
/// Tickets are redeemed after the window: the target stamps each reply
/// with its own admission-to-reply latency, so late redemption skews
/// nothing. A typed error after admission (deadline, brownout shed, …)
/// resolved the ticket; for Interactive it is simply an SLO miss.
pub fn drive_and_audit(
    common: &Common,
    offered_rps: f64,
    submit: impl Fn(&Due) -> Result<Ticket, ServeError> + Sync,
    bit_exact: impl Fn(usize, &Tensor) -> bool,
) -> (Classes, Tally) {
    let parts = open_loop(common, offered_rps, Instant::now(), |_, schedule| {
        let (mut admitted, mut refused) = (Vec::new(), Classes::default());
        for due in schedule {
            match submit(&due) {
                Ok(ticket) => admitted.push((due, ticket)),
                Err(ServeError::ShuttingDown) => break,
                Err(_) => refused.rejected[due.class.index()] += 1,
            }
        }
        (admitted, refused)
    });
    let (mut classes, mut tally) = (Classes::default(), Tally::default());
    for (admitted, refused) in parts {
        classes.merge(&refused);
        for (due, ticket) in admitted {
            classes.admitted[due.class.index()] += 1;
            if let Some(resp) = tally.record(redeem(&ticket, HANG_CAP), |out| bit_exact(due.g, out)) {
                classes.serve(due.class, resp.latency, common.slo);
            }
        }
    }
    (classes, tally)
}

/// The gates every mode applies: nothing hung, nothing wrong, and no
/// worker thread ended `Panicked` (escaped supervision).
pub fn sound(hung: u64, wrong: u64, exits: &[WorkerExit]) -> Result<(), String> {
    if hung > 0 {
        return Err(format!("{hung} ticket(s) never resolved — a reply was lost"));
    }
    if exits.contains(&WorkerExit::Panicked) {
        return Err(format!("a worker thread escaped supervision: exits {exits:?}"));
    }
    if wrong > 0 {
        return Err(format!("{wrong} delivered reply(s) diverged from the golden reference"));
    }
    Ok(())
}

/// The `--assert-slo` gate of every open-loop mode: the drive must have
/// pushed the target into shedding, admitted enough Interactive traffic
/// for a 99 % assertion to mean something, and held the SLO on it.
pub fn slo_gate(classes: &Classes, shed: u64, slo: Duration) -> Result<(), String> {
    if shed == 0 {
        return Err(
            "assert-slo: the drive never pushed the target into shedding — raise --overload-factor or --seconds".to_string(),
        );
    }
    if classes.admitted[0] < 50 {
        return Err(format!(
            "assert-slo: only {} Interactive request(s) admitted — too few for a meaningful 99% assertion; raise --seconds",
            classes.admitted[0]
        ));
    }
    if classes.attainment() < 0.99 {
        return Err(format!(
            "assert-slo: only {:.2}% of admitted Interactive requests met the {}ms SLO (need 99%)",
            classes.attainment() * 100.0,
            slo.as_millis()
        ));
    }
    Ok(())
}

/// Supervised panics are part of the plan, but the default hook would
/// still print a backtrace for each; keep chaos quiet on worker threads.
pub fn quiet_worker_panics() {
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let current = std::thread::current();
        if current.name().is_some_and(|n| n.starts_with("npcgra-serve-")) {
            return;
        }
        default_hook(info);
    }));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_schedule_is_30_40_30_over_any_ten_consecutive_ordinals() {
        for start in 0..25 {
            let mut counts = [0usize; 3];
            for g in start..start + 10 {
                counts[class_of(g).index()] += 1;
            }
            assert_eq!(counts, [3, 4, 3], "window starting at ordinal {start}");
        }
    }

    fn classes(admitted_interactive: u64, in_slo: u64) -> Classes {
        Classes {
            admitted: [admitted_interactive, 0, 0],
            in_slo,
            ..Classes::default()
        }
    }

    #[test]
    fn slo_gate_refuses_thin_late_or_unshed_drives_and_accepts_the_boundary() {
        let slo = Duration::from_millis(250);
        assert!(slo_gate(&classes(50, 50), 1, slo).is_ok(), "50 admitted is enough");
        assert!(slo_gate(&classes(100, 99), 1, slo).is_ok(), "99% exactly holds the SLO");
        assert!(slo_gate(&classes(49, 49), 1, slo)
            .unwrap_err()
            .contains("only 49 Interactive"));
        assert!(slo_gate(&classes(1000, 989), 1, slo).unwrap_err().contains("98.90%"));
        assert!(slo_gate(&classes(100, 100), 0, slo).unwrap_err().contains("shedding"));
    }

    #[test]
    fn bounded_wait_reports_a_hang_at_its_cap_instead_of_blocking() {
        // No workers: the request is admitted and can never be answered.
        let server = Server::start(ServeConfig::for_spec(&CgraSpec::np_cgra(4, 4)).with_workers(0));
        let layer = npcgra::ConvLayer::depthwise("dw", 2, 8, 8, 3, 1, 1);
        let id = server.register("dw", layer.clone(), layer.random_weights(1)).unwrap();
        let ticket = server.submit(id, Tensor::random(2, 8, 8, 2)).unwrap();
        let started = Instant::now();
        let mut tally = Tally::default();
        assert!(tally.record(redeem(&ticket, Duration::from_millis(50)), |_| true).is_none());
        assert!(started.elapsed() < Duration::from_secs(5), "the wait is bounded by its cap");
        assert_eq!((tally.hung, tally.answered), (1, 0));
        drop(ticket);
        let _ = server.shutdown();
    }
}
