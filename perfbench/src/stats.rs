//! The benchmark's own arithmetic: medians, the tail-percentile rule,
//! due-time latency and the highest sustainable open-loop rate.

/// Median of `xs` (mean of the two middle values for an even count).
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let s = sorted(xs);
    let n = s.len();
    Some(if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    })
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// A tail latency: the highest percentile of a sample set that still
/// has at least [`TAIL_BEYOND`] samples above it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample at that percentile.
    pub value: f64,
    /// The percentile, in percent.
    pub percentile: f64,
    /// Samples strictly beyond it (always [`TAIL_BEYOND`]).
    pub beyond: usize,
    /// Total samples.
    pub samples: usize,
}

/// The highest percentile with at least ten samples beyond it, or
/// `None` when there are too few samples for any percentile to qualify.
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let n = xs.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let s = sorted(xs);
    let k = n - TAIL_BEYOND - 1;
    Some(Tail {
        value: s[k],
        percentile: 100.0 * (k + 1) as f64 / n as f64,
        beyond: n - 1 - k,
        samples: n,
    })
}

/// One open-loop request as the generator saw it, in seconds since the
/// phase started.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timed {
    /// When the schedule said to send it.
    pub due: f64,
    /// When it was actually written (later than `due` if the generator
    /// ran late).
    pub sent: f64,
    /// When its response line arrived, or `None` if none did.
    pub done: Option<f64>,
    /// The response said `ok`.
    pub ok: bool,
}

impl Timed {
    /// Latency from the due time — what the request's user waited,
    /// including any wait a stall imposed on the generator. `None` for a
    /// request that never completed or did not succeed: it counts as a
    /// miss against every latency limit.
    pub fn latency(&self) -> Option<f64> {
        self.done.filter(|_| self.ok).map(|d| d - self.due)
    }

    /// How late the generator wrote it.
    pub fn lag(&self) -> f64 {
        self.sent - self.due
    }
}

/// Summary of one fixed-rate phase.
#[derive(Debug, Clone, PartialEq)]
pub struct RatePhase {
    /// Offered rate, requests per second.
    pub rate: f64,
    /// Successful latencies, seconds.
    pub latencies: Vec<f64>,
    /// Requests that failed, were shed or never answered.
    pub misses: usize,
    /// Requests still unanswered when the phase's last request was due.
    pub backlog_at_end: usize,
}

impl RatePhase {
    /// Summarize `reqs`, all from one phase at `rate`.
    pub fn from_requests(rate: f64, reqs: &[Timed]) -> RatePhase {
        let latencies: Vec<f64> = reqs.iter().filter_map(Timed::latency).collect();
        let last_due = reqs.iter().map(|r| r.due).fold(0.0, f64::max);
        let backlog_at_end = reqs
            .iter()
            .filter(|r| r.sent <= last_due && r.done.is_none_or(|d| d > last_due))
            .count();
        RatePhase {
            rate,
            misses: reqs.len() - latencies.len(),
            latencies,
            backlog_at_end,
        }
    }

    /// A phase with no requests yet.
    pub fn empty(rate: f64) -> RatePhase {
        RatePhase {
            rate,
            latencies: Vec::new(),
            misses: 0,
            backlog_at_end: 0,
        }
    }

    /// Fold in another stretch at the same rate; the backlog is the
    /// worst either ended with.
    pub fn merge(&mut self, other: RatePhase) {
        self.latencies.extend(other.latencies);
        self.misses += other.misses;
        self.backlog_at_end = self.backlog_at_end.max(other.backlog_at_end);
    }

    /// Tail latency with every miss counted as slower than any success.
    pub fn tail_with_misses(&self) -> Option<Tail> {
        let mut xs = self.latencies.clone();
        xs.extend(std::iter::repeat_n(f64::INFINITY, self.misses));
        tail(&xs)
    }

    /// Does this rate hold: tail latency (misses counted as infinitely
    /// slow) within `limit_s`, and no growing backlog? A backlog grows
    /// when more requests wait at the end than arrive within one latency
    /// limit (plus one in flight per connection): by Little's law the
    /// newest of them then waits longer than the limit.
    pub fn holds(&self, limit_s: f64, connections: usize) -> bool {
        let within = self.tail_with_misses().is_some_and(|t| t.value <= limit_s);
        let allowed = (self.rate * limit_s).ceil() as usize + connections;
        within && self.backlog_at_end <= allowed
    }
}

/// The highest offered rate that holds (0 when none does).
pub fn max_rate(phases: &[RatePhase], limit_s: f64, connections: usize) -> f64 {
    phases
        .iter()
        .filter(|p| p.holds(limit_s, connections))
        .map(|p| p.rate)
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(tail(&ten), None, "no percentile has ten samples beyond it");

        let eleven: Vec<f64> = (1..=11).map(f64::from).collect();
        let t = tail(&eleven).expect("eleven samples qualify");
        assert_eq!(t.value, 1.0);
        assert_eq!((t.beyond, t.samples), (10, 11));

        let hundred: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let t = tail(&hundred).expect("a hundred samples qualify");
        assert_eq!(t.value, 90.0, "p90 is the highest with ten beyond");
        assert_eq!(t.percentile, 90.0);
        assert_eq!((t.beyond, t.samples), (10, 100));

        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&thousand).expect("a thousand samples qualify");
        assert_eq!((t.value, t.percentile), (990.0, 99.0));
    }

    /// A stalled response delays the generator on that connection; the
    /// requests behind it are timed from when they were due, so the stall
    /// shows in their latency instead of being hidden by the late send.
    #[test]
    fn due_time_latency_counts_a_stall() {
        let reqs = [
            Timed {
                due: 0.0,
                sent: 0.0,
                done: Some(0.010),
                ok: true,
            },
            // Stalled for a second; the next two sends slip behind it.
            Timed {
                due: 0.1,
                sent: 0.1,
                done: Some(1.100),
                ok: true,
            },
            Timed {
                due: 0.2,
                sent: 1.100,
                done: Some(1.110),
                ok: true,
            },
            Timed {
                due: 0.3,
                sent: 1.110,
                done: Some(1.120),
                ok: true,
            },
        ];
        let lat: Vec<f64> = reqs.iter().map(|r| r.latency().unwrap()).collect();
        let want = [0.010, 1.0, 0.91, 0.82];
        for (got, want) in lat.iter().zip(want) {
            assert!((got - want).abs() < 1e-9, "{got} vs {want}");
        }
        // Timed from the send instead, the two requests behind the stall
        // would read 10 ms each.
        assert!((reqs[2].done.unwrap() - reqs[2].sent - 0.010).abs() < 1e-9);
        assert!((reqs[3].lag() - 0.81).abs() < 1e-9);
    }

    fn steady(rate: f64, n: usize, latency: f64) -> Vec<Timed> {
        (0..n)
            .map(|i| {
                let due = i as f64 / rate;
                Timed {
                    due,
                    sent: due,
                    done: Some(due + latency),
                    ok: true,
                }
            })
            .collect()
    }

    #[test]
    fn max_rate_is_the_highest_rate_that_holds() {
        let phases = [
            RatePhase::from_requests(10.0, &steady(10.0, 50, 0.02)),
            RatePhase::from_requests(20.0, &steady(20.0, 100, 0.05)),
            RatePhase::from_requests(30.0, &steady(30.0, 150, 0.30)),
        ];
        assert!(phases[1].holds(0.25, 2));
        assert!(!phases[2].holds(0.25, 2), "tail above the limit");
        assert_eq!(max_rate(&phases, 0.25, 2), 20.0);
    }

    #[test]
    fn a_shed_request_is_a_miss() {
        let mut reqs = steady(30.0, 150, 0.02);
        // Shed responses arrive fast but are not successes; with more
        // than ten of them the tail percentile lands on a miss.
        for r in reqs.iter_mut().step_by(10) {
            r.ok = false;
        }
        let p = RatePhase::from_requests(30.0, &reqs);
        assert_eq!(p.misses, 15);
        assert_eq!(p.tail_with_misses().unwrap().value, f64::INFINITY);
        assert!(!p.holds(0.25, 2));
        let ok = RatePhase::from_requests(10.0, &steady(10.0, 50, 0.02));
        assert_eq!(max_rate(&[ok, p], 0.25, 2), 10.0);
    }

    #[test]
    fn a_growing_backlog_fails_the_rate() {
        // The last eleven requests pile up and are all answered just after
        // the final due time. Fewer than ten of them are older than the
        // limit, so the tail still passes, but eleven outstanding requests
        // exceed 30 req/s x 0.25 s + 2 connections.
        let last_due = 149.0 / 30.0;
        let reqs: Vec<Timed> = (0..150)
            .map(|i| {
                let due = i as f64 / 30.0;
                let done = if i >= 139 {
                    last_due + 0.001
                } else {
                    due + 0.02
                };
                Timed {
                    due,
                    sent: due,
                    done: Some(done),
                    ok: true,
                }
            })
            .collect();
        let p = RatePhase::from_requests(30.0, &reqs);
        assert_eq!(p.backlog_at_end, 11);
        assert!(p.tail_with_misses().unwrap().value <= 0.25);
        assert!(!p.holds(0.25, 2));
        assert_eq!(max_rate(&[p], 0.25, 2), 0.0);
    }

    #[test]
    fn merged_blocks_keep_the_worst_backlog() {
        let mut p = RatePhase::empty(30.0);
        p.merge(RatePhase {
            rate: 30.0,
            latencies: vec![0.1; 5],
            misses: 1,
            backlog_at_end: 3,
        });
        p.merge(RatePhase {
            rate: 30.0,
            latencies: vec![0.2; 6],
            misses: 0,
            backlog_at_end: 1,
        });
        assert_eq!((p.latencies.len(), p.misses, p.backlog_at_end), (11, 1, 3));
    }

    #[test]
    fn unanswered_requests_are_misses() {
        let mut reqs = steady(10.0, 30, 0.01);
        reqs[29].done = None;
        let p = RatePhase::from_requests(10.0, &reqs);
        assert_eq!((p.misses, p.latencies.len()), (1, 29));
        assert_eq!(p.backlog_at_end, 1);
    }
}
