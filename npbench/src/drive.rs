//! The load generators: one thread each, closed or open loop, in process
//! or over the wire. Every reply is bit-compared with the pooled golden
//! output; a mismatch, a typed error, a refusal or a timeout is a failure.

use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use npcgra::net::frame::{encode_frame, FrameDecoder};
use npcgra::net::{NetClient, WireFrame, WireRequest, WireResponse};
use npcgra::serve::{Priority, ServeError, Ticket};
use npcgra::Tensor;

use crate::record::{Recorder, Sample};
use crate::traffic::{Req, Source};

/// How long the generator waits for one reply before calling it lost.
const REPLY_TIMEOUT: Duration = Duration::from_secs(5);

/// What a generator needs to know of the pool: the input a request carries
/// and the output it must bring back.
pub trait Pool {
    fn input(&self, req: &Req) -> &Tensor;
    fn golden(&self, req: &Req) -> &Tensor;
}

struct InFlight {
    req: Req,
    due_ns: u64,
    late_ns: u64,
    call_ns: u64,
    ticket: Ticket,
}

/// Log the outcome of one in-process request. The round trip is the
/// lateness, the submitting call and the latency the server reports.
fn settle(
    rec: &mut Recorder,
    pool: &(impl Pool + ?Sized),
    f: InFlight,
    at_ns: Option<u64>,
    outcome: Result<npcgra::serve::Response, ServeError>,
) {
    let sample = |core_ns: u64, batch: usize, ok: bool, mismatch: bool| Sample {
        endpoint: f.req.draw.endpoint as u32,
        due_ns: f.due_ns,
        late_ns: f.late_ns,
        call_ns: f.call_ns,
        core_ns,
        done_ns: f.due_ns + f.late_ns + f.call_ns + core_ns,
        words: pool.golden(&f.req).len() as u64,
        batch: batch as u32,
        ok,
        mismatch,
    };
    let s = match outcome {
        Ok(resp) => {
            let ok = resp.output == *pool.golden(&f.req);
            sample(resp.latency.as_nanos() as u64, resp.batch_size, ok, !ok)
        }
        Err(_) => sample(0, 0, false, false),
    };
    let at = at_ns.unwrap_or(f.due_ns);
    rec.record(at, s);
}

/// Closed loop over an in-process program: a sliding window of `window`
/// outstanding requests; the oldest is waited for, then replaced.
pub fn closed_loop(
    rec: &mut Recorder,
    pool: &(impl Pool + ?Sized),
    source: &mut Source,
    window: usize,
    mut submit: impl FnMut(&Req, Tensor) -> Result<Ticket, ServeError>,
) {
    let mut inflight: VecDeque<InFlight> = VecDeque::with_capacity(window);
    loop {
        let now = rec.now_ns();
        rec.tick(now);
        if now >= rec.end_ns() {
            break;
        }
        while inflight.len() < window {
            let req = source.next();
            let input = pool.input(&req).clone();
            let due_ns = rec.now_ns();
            match submit(&req, input) {
                Ok(ticket) => inflight.push_back(InFlight {
                    req,
                    due_ns,
                    late_ns: 0,
                    call_ns: rec.now_ns() - due_ns,
                    ticket,
                }),
                Err(_) => {
                    rec.record_failure(due_ns, req.draw.endpoint as u32);
                    // A refusing program must not turn the generator into a
                    // busy loop of refusals.
                    std::thread::sleep(Duration::from_millis(1));
                    break;
                }
            }
        }
        if let Some(f) = inflight.pop_front() {
            let outcome = f.ticket.wait_timeout(REPLY_TIMEOUT);
            if outcome.is_ok() {
                source.acked(f.req);
            }
            let now = rec.now_ns();
            settle(rec, pool, f, Some(now), outcome);
        }
    }
    // Replies past the end of the timeline are waited for (the program
    // must be idle before the next driver call) but belong to no phase.
    for f in inflight {
        let _ = f.ticket.wait_timeout(REPLY_TIMEOUT);
    }
}

/// Open loop: one request at each instant of `schedule` (ns from the start
/// of the timeline), whatever became of the earlier ones. Requests are
/// timed from the instant they were due and logged under the phase that
/// instant lies in; replies are redeemed, oldest first, while the
/// generator waits for the next arrival.
pub fn open_loop(
    rec: &mut Recorder,
    pool: &(impl Pool + ?Sized),
    source: &mut Source,
    schedule: &[u64],
    mut submit: impl FnMut(&Req, Tensor) -> Result<Ticket, ServeError>,
) {
    let mut outstanding: VecDeque<InFlight> = VecDeque::new();
    for &due_ns in schedule {
        loop {
            let now = rec.now_ns();
            rec.tick(now);
            if now >= due_ns {
                break;
            }
            if let Some(front) = outstanding.front() {
                match front.ticket.wait_timeout(Duration::ZERO) {
                    Err(ServeError::ReplyTimeout { .. }) => {}
                    outcome => {
                        let f = outstanding.pop_front().expect("front was just read");
                        settle(rec, pool, f, None, outcome);
                        continue;
                    }
                }
            }
            // Spin, never sleep: a sleeper is woken late (by milliseconds on
            // a virtual machine), and that lateness would be charged to the
            // program. One core is the generator's; see `common::workers`.
            std::hint::spin_loop();
        }
        let req = source.next();
        let input = pool.input(&req).clone();
        let start = rec.now_ns();
        match submit(&req, input) {
            Ok(ticket) => outstanding.push_back(InFlight {
                req,
                due_ns,
                late_ns: start - due_ns,
                call_ns: rec.now_ns() - start,
                ticket,
            }),
            Err(_) => rec.record_failure(due_ns, req.draw.endpoint as u32),
        }
    }
    for f in outstanding {
        let outcome = f.ticket.wait_timeout(REPLY_TIMEOUT);
        settle(rec, pool, f, None, outcome);
    }
    let now = rec.now_ns();
    rec.tick(now);
}

/// One request that went over the wire, judged: the reply's words against
/// the golden tensor's.
fn wire_sample(pool: &(impl Pool + ?Sized), req: &Req, sent: (u64, u64), done_ns: u64, reply: Option<&WireResponse>) -> Sample {
    let golden = pool.golden(req);
    let ok = reply.is_some_and(|r| r.words == golden.as_slice());
    Sample {
        endpoint: req.draw.endpoint as u32,
        due_ns: sent.0,
        late_ns: 0,
        call_ns: sent.1,
        core_ns: reply.map_or(0, |r| r.latency_us * 1000),
        done_ns,
        words: golden.len() as u64,
        batch: reply.map_or(0, |r| u32::from(r.batch)),
        ok,
        mismatch: reply.is_some() && !ok,
    }
}

fn wire_request(pool: &(impl Pool + ?Sized), req: &Req, tag: u64) -> WireFrame {
    let input = pool.input(req);
    let (c, h, w) = input.shape();
    WireFrame::Request(WireRequest {
        tag,
        idem: req.key,
        token: Vec::new(),
        class: Priority::Interactive.index() as u8,
        deadline_ms: 0,
        model: req.draw.endpoint as u32,
        shape: (c as u16, h as u16, w as u16),
        words: input.as_slice().to_vec(),
    })
}

/// Closed loop over one TCP connection, `window` requests in flight: the
/// harness's own minimal client on the public frame codec, so that each
/// Reply frame is timestamped as it arrives and not when a caller asks.
///
/// # Errors
///
/// Socket errors and undecodable frames end the run: there is no
/// connection left to measure.
pub fn wire_closed_loop(
    rec: &mut Recorder,
    pool: &(impl Pool + ?Sized),
    source: &mut Source,
    window: usize,
    stream: &mut TcpStream,
) -> std::io::Result<()> {
    stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
    let mut decoder = FrameDecoder::new(1 << 24);
    let mut inflight: HashMap<u64, (Req, u64, u64)> = HashMap::with_capacity(window);
    let mut next_tag = 1u64;
    let mut out = Vec::new();
    let mut buf = vec![0u8; 1 << 16];
    loop {
        let now = rec.now_ns();
        rec.tick(now);
        let stopping = now >= rec.end_ns();
        while !stopping && inflight.len() < window {
            let req = source.next();
            let start = rec.now_ns();
            out.clear();
            encode_frame(&wire_request(pool, &req, next_tag), &mut out);
            stream.write_all(&out)?;
            inflight.insert(next_tag, (req, start, rec.now_ns() - start));
            next_tag += 1;
        }
        // Only a stopping loop gets here with nothing in flight: the
        // connection is drained and stays usable.
        if inflight.is_empty() {
            return Ok(());
        }
        let n = stream.read(&mut buf)?;
        if n == 0 {
            return Err(std::io::Error::other("the front-end closed the connection"));
        }
        decoder.push(&buf[..n]);
        while let Some(frame) = decoder.next().map_err(|e| std::io::Error::other(format!("{e:?}")))? {
            let done_ns = rec.now_ns();
            let WireFrame::Reply(reply) = frame else {
                return Err(std::io::Error::other(format!("unexpected frame {frame:?}")));
            };
            let Some((req, due_ns, call_ns)) = inflight.remove(&reply.tag) else {
                continue;
            };
            rec.record(
                done_ns,
                wire_sample(pool, &req, (due_ns, call_ns), done_ns, reply.result.as_ref().ok()),
            );
        }
    }
}

/// One request at a time through `NetClient::call`.
pub fn pingpong(rec: &mut Recorder, pool: &(impl Pool + ?Sized), source: &mut Source, client: &mut NetClient) {
    loop {
        let due_ns = rec.now_ns();
        rec.tick(due_ns);
        if due_ns >= rec.end_ns() {
            return;
        }
        let req = source.next();
        let reply = client.call(
            req.draw.endpoint as u32,
            pool.input(&req),
            Priority::Interactive,
            None,
            REPLY_TIMEOUT,
        );
        let done_ns = rec.now_ns();
        let response = reply.as_ref().ok().and_then(|r| r.result.as_ref().ok());
        rec.record(done_ns, wire_sample(pool, &req, (due_ns, 0), done_ns, response));
    }
}
