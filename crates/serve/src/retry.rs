//! Batch retry with poison isolation.
//!
//! A batch can fail for a reason that has nothing to do with most of its
//! members: one poison request (bad data tripping a hardware rule), or a
//! transient injected fault. Failing the whole batch would punish the
//! innocent batch-mates; retrying the whole batch forever would wedge the
//! shard. The policy here bisects instead: a failed group of `n > 1`
//! requests splits into halves that re-execute independently, so after
//! `log2(n)` rounds the poison is isolated in a group of one while every
//! clean half completes bit-exactly. A solo request that keeps failing is
//! quarantined with [`ServeError::Quarantined`] once its attempt count
//! (which survives requeueing across shards) exceeds
//! [`max_retries`](crate::ServeConfig::max_retries).
//!
//! The worklist is depth-first (halves push to the *front*), so a poison
//! request is isolated and quarantined before unrelated groups run —
//! bounding how long its batch-mates wait on it.

use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::time::Instant;

use npcgra_nn::{ConvLayer, Tensor};
use std::sync::Arc;

use crate::error::{RetryClass, ServeError};
use crate::server::{settle, ModelId, Pending, Response, Shared};
use crate::supervisor::{read_models, requeue_or_fail, Shard};

/// Run one dequeued batch through deadline shedding, supervised execution
/// and the bisect/retry policy, replying to every request exactly once
/// (or handing unfinished work back to the queue if the shard dies). Each
/// reply consumes the request's only sender, so completed/failed/
/// quarantined count each request once.
pub(crate) fn process(shared: &Shared, shard: &mut Shard, model: ModelId, pendings: Vec<Pending>) {
    // Shed requests whose deadline passed while queued — before spending
    // any simulation time on them.
    let now = Instant::now();
    let mut live = Vec::with_capacity(pendings.len());
    for p in pendings {
        if p.deadline.is_some_and(|d| d < now) {
            settle(shared, p.idem_key, p.reply, Err(ServeError::DeadlineExceeded));
            shared.stats.rejected_deadline.fetch_add(1, Ordering::Relaxed);
        } else {
            live.push(p);
        }
    }
    if live.is_empty() {
        return;
    }

    let (layer, weights): (ConvLayer, Arc<Tensor>) = {
        let models = read_models(shared);
        let entry = &models[model.0];
        (entry.layer.clone(), Arc::clone(&entry.weights))
    };

    // Worklist of (group, generation): generation 0 is the batch as formed,
    // higher generations are retries/bisection halves.
    let mut work: VecDeque<(Vec<Pending>, u32)> = VecDeque::new();
    work.push_back((live, 0));
    while let Some((group, generation)) = work.pop_front() {
        if !shard.alive {
            // The shard died under an earlier group: hand everything not
            // yet executed back to the surviving shards.
            let mut rest = group;
            while let Some((g, _)) = work.pop_front() {
                rest.extend(g);
            }
            requeue_or_fail(shared, model, rest);
            return;
        }
        if generation > 0 {
            shared.stats.retries.fetch_add(1, Ordering::Relaxed);
        }
        let batch_size = group.len();
        match shard.execute(shared, &layer, &weights, &group) {
            Ok((outputs, report)) => {
                shared.stats.observe_batch(batch_size);
                shared
                    .stats
                    .integrity_checked
                    .fetch_add(report.integrity_checked, Ordering::Relaxed);
                shared
                    .stats
                    .integrity_failed
                    .fetch_add(report.integrity_failed, Ordering::Relaxed);
                shared
                    .stats
                    .integrity_recovered
                    .fetch_add(report.integrity_recovered, Ordering::Relaxed);
                let done = Instant::now();
                for (p, output) in group.into_iter().zip(outputs) {
                    let latency = done.duration_since(p.enqueued);
                    let request_id = p.reply.request_id();
                    settle(
                        shared,
                        p.idem_key,
                        p.reply,
                        Ok(Response {
                            output,
                            report: report.clone(),
                            batch_size,
                            worker: shard.worker,
                            latency,
                            request_id,
                        }),
                    );
                    shared.stats.completed.fetch_add(1, Ordering::Release);
                    if p.integrity_hit {
                        // An earlier attempt failed its output checksum;
                        // this completion is corruption caught and healed.
                        shared.stats.integrity_recovered.fetch_add(1, Ordering::Relaxed);
                    }
                    shared.stats.observe_latency(latency);
                }
            }
            Err(e) => {
                let mut group = group;
                let integrity = matches!(e, ServeError::Integrity(_));
                if integrity {
                    shared.stats.integrity_failed.fetch_add(1, Ordering::Relaxed);
                }
                for p in &mut group {
                    p.attempts += 1;
                    if integrity {
                        p.integrity_hit = true;
                    }
                }
                if RetryClass::of(&e) == RetryClass::Final {
                    for p in group {
                        settle(shared, p.idem_key, p.reply, Err(e.clone()));
                        shared.stats.failed.fetch_add(1, Ordering::Release);
                    }
                } else if group.len() > 1 {
                    // Bisect: the failure could be one poison member.
                    // Halves go to the worklist front (depth-first), so the
                    // poison is isolated before unrelated groups run.
                    let tail = group.split_off(group.len() / 2);
                    work.push_front((tail, generation + 1));
                    work.push_front((group, generation + 1));
                } else if group[0].attempts > shared.config.max_retries {
                    let p = group.pop().expect("solo group");
                    settle(
                        shared,
                        p.idem_key,
                        p.reply,
                        Err(ServeError::Quarantined {
                            attempts: p.attempts,
                            cause: Box::new(e),
                        }),
                    );
                    shared.stats.quarantined.fetch_add(1, Ordering::Release);
                    shared.stats.failed.fetch_add(1, Ordering::Release);
                } else {
                    work.push_front((group, generation + 1));
                }
            }
        }
    }
}
