//! The open-loop driver: one sender thread submits each request at its
//! scheduled time whether or not earlier ones were answered, and one
//! collector thread observes the replies in submit order (an in-order
//! client).
//!
//! Latency is charged from each request's *intended* send time, as wrk2
//! does, so a stall in the system — or in the driver — is paid by every
//! request that was due during it instead of vanishing from the samples
//! (coordinated omission). How late the sender ran is recorded per
//! request so a run can show it stayed on schedule.

use std::sync::mpsc;

use crate::spans::{request_root, Clock, Span, SpanLog};

/// One scheduled request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// Intended send time, ns after the phase start.
    pub at_ns: u64,
    /// Index of the request payload.
    pub payload: u32,
}

/// The system under test, as the driver sees it.
pub trait Target: Sync {
    /// A decoded request, ready to submit.
    type Request;
    /// An accepted request's future reply.
    type Pending: Send;

    /// Decode payload `payload` (on the sender thread, at send time).
    fn decode(&self, payload: u32) -> Self::Request;

    /// Submit without blocking; an `Err` is a refusal.
    ///
    /// # Errors
    ///
    /// The refusal reason.
    fn submit(&self, request: Self::Request) -> Result<Self::Pending, String>;

    /// Block until the reply arrives.
    ///
    /// # Errors
    ///
    /// The failure reason of an accepted request.
    fn wait(&self, pending: Self::Pending) -> Result<Vec<f64>, String>;
}

/// How a request ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Answered with scores.
    Replied,
    /// Refused at submission.
    Refused,
    /// Accepted, then failed.
    Failed,
}

/// What happened to one request; times are ns on the run's [`Clock`].
#[derive(Debug, Clone, Copy)]
pub struct Record {
    /// Payload index.
    pub payload: u32,
    /// When it was due.
    pub intended: u64,
    /// When the sender started decoding it.
    pub sent: u64,
    /// Decode time.
    pub decode_ns: u64,
    /// Time inside the submit call.
    pub submit_ns: u64,
    /// When the in-order client saw the reply (or the refusal).
    pub done: u64,
    /// How it ended.
    pub outcome: Outcome,
}

impl Record {
    /// Latency charged from the intended send time; infinite for a
    /// refused or failed request, which misses any latency limit.
    pub fn latency_ms(&self) -> f64 {
        match self.outcome {
            Outcome::Replied => (self.done - self.intended) as f64 / 1e6,
            Outcome::Refused | Outcome::Failed => f64::INFINITY,
        }
    }

    /// How late the sender was.
    pub fn late_ms(&self) -> f64 {
        self.sent.saturating_sub(self.intended) as f64 / 1e6
    }
}

/// Sleep until `due` on `clock`. Never sends early; wakes about one
/// timer slack late. It never yields or spins: on a two-core host a
/// yielding sender can lose the CPU for a whole scheduler slice to the
/// engine's workers, and a spinning one takes a core from them.
pub fn sleep_until(clock: &Clock, due: u64) {
    loop {
        let now = clock.ns();
        if now >= due {
            return;
        }
        std::thread::sleep(std::time::Duration::from_nanos(due - now));
    }
}

/// Replay `arrivals` against `target` starting at `start` (ns on
/// `clock`). `on_reply(payload, scores)` runs on the collector thread for
/// every reply, in submit order. Request `i` of the phase is traced as
/// request `i` when `spans` is enabled.
pub fn run<T: Target>(
    target: &T,
    clock: &Clock,
    start: u64,
    arrivals: &[Arrival],
    spans: &mut SpanLog,
    mut on_reply: impl FnMut(u32, &[f64]) + Send,
) -> Vec<Record> {
    let traced = spans.enabled();
    let (tx, rx) = mpsc::channel::<(usize, Record, Option<T::Pending>)>();
    let mut sender_spans = SpanLog::new(traced);
    let (records, collector_spans) = std::thread::scope(|s| {
        let collector = s.spawn(move || {
            let mut log = SpanLog::new(traced);
            let mut records = Vec::with_capacity(arrivals.len());
            for (i, mut rec, pending) in rx {
                let accepted = rec.sent + rec.decode_ns + rec.submit_ns;
                match pending {
                    Some(p) => {
                        let reply = target.wait(p);
                        rec.done = clock.ns();
                        match reply {
                            Ok(scores) => on_reply(rec.payload, &scores),
                            Err(_) => rec.outcome = Outcome::Failed,
                        }
                    }
                    None => rec.done = accepted,
                }
                let request = i as u64;
                let root = request_root(request);
                log.record(Span {
                    id: root,
                    parent: 0,
                    name: "driver.request",
                    start: rec.intended,
                    end: rec.done,
                    request,
                });
                if rec.outcome != Outcome::Refused {
                    log.record(Span {
                        id: crate::spans::next_id(),
                        parent: root,
                        name: "engine.reply_wait",
                        start: accepted,
                        end: rec.done,
                        request,
                    });
                }
                records.push(rec);
            }
            (records, log)
        });
        for (i, a) in arrivals.iter().enumerate() {
            let intended = start + a.at_ns;
            sleep_until(clock, intended);
            let sent = clock.ns();
            let request = target.decode(a.payload);
            let decoded = clock.ns();
            let result = target.submit(request);
            let submitted = clock.ns();
            let request_id = i as u64;
            for (name, s0, s1) in [
                ("framing.decode", sent, decoded),
                ("shard.submit", decoded, submitted),
            ] {
                sender_spans.record(Span {
                    id: crate::spans::next_id(),
                    parent: request_root(request_id),
                    name,
                    start: s0,
                    end: s1,
                    request: request_id,
                });
            }
            let (outcome, pending) = match result {
                Ok(p) => (Outcome::Replied, Some(p)),
                Err(_) => (Outcome::Refused, None),
            };
            let rec = Record {
                payload: a.payload,
                intended,
                sent,
                decode_ns: decoded - sent,
                submit_ns: submitted - decoded,
                done: 0,
                outcome,
            };
            tx.send((i, rec, pending))
                .expect("collector outlives the sender");
        }
        drop(tx);
        collector.join().expect("collector thread panicked")
    });
    spans.absorb(sender_spans);
    spans.absorb(collector_spans);
    records
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::Duration;

    /// Answers instantly, except that the first submit at or after
    /// `stall_at` ns blocks for 50 ms.
    struct StallingStub {
        clock: Clock,
        stall_at: u64,
        stalled: AtomicBool,
    }

    impl Target for StallingStub {
        type Request = u32;
        type Pending = Vec<f64>;

        fn decode(&self, payload: u32) -> u32 {
            payload
        }

        fn submit(&self, payload: u32) -> Result<Vec<f64>, String> {
            if self.clock.ns() >= self.stall_at && !self.stalled.swap(true, Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(50));
            }
            Ok(vec![f64::from(payload)])
        }

        fn wait(&self, pending: Vec<f64>) -> Result<Vec<f64>, String> {
            Ok(pending)
        }
    }

    #[test]
    fn a_stall_is_charged_to_every_request_due_during_it() {
        let clock = Clock::new();
        let start = clock.ns() + 2_000_000;
        // One request per ms for 300 ms; the stub stalls at 100 ms.
        let arrivals: Vec<Arrival> = (0..300u32)
            .map(|i| Arrival {
                at_ns: u64::from(i) * 1_000_000,
                payload: i,
            })
            .collect();
        let stub = StallingStub {
            clock,
            stall_at: start + 100_000_000,
            stalled: AtomicBool::new(false),
        };
        let mut replies = Vec::new();
        let mut spans = SpanLog::new(true);
        let records = run(&stub, &clock, start, &arrivals, &mut spans, |p, s| {
            replies.push((p, s[0]))
        });
        assert_eq!(records.len(), 300);
        assert!(records.iter().all(|r| r.outcome == Outcome::Replied));
        // In-order client: replies arrive in submit order.
        assert!(replies.windows(2).all(|w| w[0].0 < w[1].0));

        // The stub's own service time is ~0, so without the correction
        // every latency would be tiny. The request due 10 ms into the
        // stall waited for the remaining ~40 ms and must be charged it.
        let stall_start = records
            .iter()
            .position(|r| r.intended >= start + 100_000_000)
            .expect("a request is due at the stall");
        let due_mid_stall = &records[stall_start + 10];
        assert!(
            due_mid_stall.latency_ms() >= 35.0,
            "charged {:.3} ms from its intended send time",
            due_mid_stall.latency_ms()
        );
        let uncorrected_ms = (due_mid_stall.done - due_mid_stall.sent) as f64 / 1e6;
        assert!(uncorrected_ms < 35.0, "send-to-reply hides the stall");

        // Roughly the 50 requests due during the stall are late; the
        // driver's lateness p99 reports it, and so does latency p99.
        let late: Vec<f64> = records.iter().map(Record::late_ms).collect();
        let late_p99 = crate::stats::quantile(&crate::stats::sorted(late), 9_900);
        assert!(late_p99 >= 40.0, "late p99 {late_p99:.3} ms");
        let lat: Vec<f64> = records.iter().map(Record::latency_ms).collect();
        let lat_p99 = crate::stats::quantile(&crate::stats::sorted(lat), 9_900);
        assert!(lat_p99 >= 40.0, "latency p99 {lat_p99:.3} ms");
        let behind = records.iter().filter(|r| r.latency_ms() >= 10.0).count();
        assert!(
            (35..=60).contains(&behind),
            "{behind} requests charged the stall"
        );

        // Every request has a root span with its decode/submit children.
        let roots = spans
            .spans()
            .iter()
            .filter(|s| s.name == "driver.request")
            .count();
        assert_eq!(roots, 300);
    }

    #[test]
    fn refusals_count_as_misses() {
        struct Refuser;
        impl Target for Refuser {
            type Request = u32;
            type Pending = ();
            fn decode(&self, payload: u32) -> u32 {
                payload
            }
            fn submit(&self, payload: u32) -> Result<(), String> {
                if payload.is_multiple_of(2) {
                    Ok(())
                } else {
                    Err("queue full".into())
                }
            }
            fn wait(&self, _: ()) -> Result<Vec<f64>, String> {
                Ok(vec![0.0])
            }
        }
        let clock = Clock::new();
        let arrivals: Vec<Arrival> = (0..10u32)
            .map(|i| Arrival {
                at_ns: u64::from(i) * 100_000,
                payload: i,
            })
            .collect();
        let mut spans = SpanLog::new(false);
        let records = run(
            &Refuser,
            &clock,
            clock.ns(),
            &arrivals,
            &mut spans,
            |_, _| {},
        );
        let refused = records
            .iter()
            .filter(|r| r.outcome == Outcome::Refused)
            .count();
        assert_eq!(refused, 5);
        assert!(records
            .iter()
            .filter(|r| r.outcome == Outcome::Refused)
            .all(|r| r.latency_ms().is_infinite()));
    }
}
