//! Two-class weighted fair admission for concurrent query streams.
//!
//! The paper sells cloud IQ on *many readers over one bucket*; what makes
//! or breaks that picture is admission. A multiprogramming level worth of
//! execution slots is shared by hundreds of closed-loop streams, and a
//! FIFO run queue lets scan-heavy queries convoy: a point query arriving
//! behind a burst of table scans waits for all of them, so its p99 tracks
//! the *heavy* class's service time. [`QueryScheduler`] implements
//! start-time fair queueing (SFQ) over two classes — scan-heavy vs
//! point/light, classified upstream by estimated metered cost — so the
//! light class is guaranteed a weighted share of the slots however deep
//! the heavy backlog grows.
//!
//! Everything here runs in *virtual time*: jobs carry modeled service
//! seconds (from the throughput drill's `TimeModel` fold), the event loop advances
//! a virtual clock, and the whole simulation is a pure deterministic
//! function of its inputs — fixed seed in, byte-identical latency
//! distribution out. No wall clocks, no threads, no locks.

use std::collections::VecDeque;

/// Admission class of one query job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueryClass {
    /// Point/light queries (low estimated metered cost).
    Light,
    /// Scan-heavy queries and refresh transactions.
    Heavy,
}

impl QueryClass {
    fn idx(self) -> usize {
        match self {
            QueryClass::Light => 0,
            QueryClass::Heavy => 1,
        }
    }

    /// `"light"` or `"heavy"` — the name reports and `BENCH_throughput.json`
    /// carry.
    pub fn name(self) -> &'static str {
        match self {
            QueryClass::Light => "light",
            QueryClass::Heavy => "heavy",
        }
    }
}

impl serde::Serialize for QueryClass {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        self.name().serialize(serializer)
    }
}

/// One job of one stream: a query (or refresh) with modeled service time
/// and per-execution store traffic.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Display label (`Q1`…`Q22`, `RF1`, `RF2`).
    pub label: String,
    /// Admission class.
    pub class: QueryClass,
    /// Modeled service seconds once the job holds a slot.
    pub service_secs: f64,
    /// Object-store requests one execution issues (scaled).
    pub requests: f64,
    /// Request-priced dollars one execution costs (scaled).
    pub cost_usd: f64,
}

/// Admission policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// Two-class start-time fair queueing with per-class weights.
    WeightedFair,
    /// Single global FIFO by arrival — the convoy baseline.
    Fifo,
}

/// Scheduler configuration.
#[derive(Debug, Clone)]
pub struct SchedulerConfig {
    /// Concurrent execution slots (the multiprogramming level).
    pub slots: usize,
    /// Fair-queueing weight of the light class.
    pub light_weight: f64,
    /// Fair-queueing weight of the heavy class.
    pub heavy_weight: f64,
    /// Admission policy.
    pub policy: Policy,
}

impl SchedulerConfig {
    /// Weighted-fair config: `slots` slots, light:heavy share of
    /// `light_weight : heavy_weight`.
    pub fn weighted(slots: usize, light_weight: f64, heavy_weight: f64) -> Self {
        Self {
            slots: slots.max(1),
            light_weight: light_weight.max(f64::MIN_POSITIVE),
            heavy_weight: heavy_weight.max(f64::MIN_POSITIVE),
            policy: Policy::WeightedFair,
        }
    }

    /// FIFO baseline with the same slot count.
    pub fn fifo(slots: usize) -> Self {
        Self {
            policy: Policy::Fifo,
            ..Self::weighted(slots, 1.0, 1.0)
        }
    }
}

/// One finished job with its virtual-time line.
#[derive(Debug, Clone)]
pub struct Completion {
    /// Stream index.
    pub stream: usize,
    /// Position within the stream.
    pub seq: usize,
    /// Job label.
    pub label: String,
    /// Admission class.
    pub class: QueryClass,
    /// Virtual second the job entered the run queue.
    pub arrival: f64,
    /// Virtual second it was admitted to a slot.
    pub start: f64,
    /// Virtual second it finished (`start + service_secs`).
    pub finish: f64,
    /// Modeled service seconds.
    pub service_secs: f64,
    /// Store requests issued.
    pub requests: f64,
    /// Request-priced dollars.
    pub cost_usd: f64,
}

impl Completion {
    /// Queue wait + service: the latency a client of this stream saw.
    pub fn latency(&self) -> f64 {
        self.finish - self.arrival
    }
}

/// Per-class digest of one scheduler run (a `fair` / `fifo` row of
/// `BENCH_throughput.json`).
#[derive(Debug, Clone, serde::Serialize)]
pub struct ClassSummary {
    /// The class.
    pub class: QueryClass,
    /// Jobs completed.
    pub completed: u64,
    /// Median virtual latency (arrival → finish) in seconds.
    pub p50_s: f64,
    /// 99th-percentile virtual latency in seconds.
    pub p99_s: f64,
    /// Mean service seconds (no queueing) — the solo baseline.
    pub mean_service_s: f64,
    /// Mean slot-wait seconds (admission delay).
    pub mean_wait_s: f64,
    /// Mean object-store requests per query.
    pub requests_per_query: f64,
    /// Mean request-priced dollars per query.
    pub usd_per_query: f64,
}

#[derive(Debug, Clone)]
struct Pending {
    stream: usize,
    seq: usize,
    arrival: f64,
    /// SFQ virtual start tag (weighted-fair admission key).
    start_tag: f64,
    /// Global enqueue sequence (FIFO admission key; also the final
    /// deterministic tie-break everywhere).
    enqueue_seq: u64,
}

#[derive(Debug, Clone)]
struct Running {
    stream: usize,
    seq: usize,
    arrival: f64,
    start: f64,
    finish: f64,
}

/// The two per-class run queues with their SFQ bookkeeping.
struct RunQueues {
    /// Per-class fair-queueing weights, `[light, heavy]`.
    weights: [f64; 2],
    queues: [VecDeque<Pending>; 2],
    /// Each class's last-issued finish tag.
    last_finish_tag: [f64; 2],
    /// The global virtual work clock (start tag of the latest admission).
    vtime: f64,
    enqueue_seq: u64,
}

impl RunQueues {
    fn enqueue(&mut self, spec: &JobSpec, stream: usize, seq: usize, now: f64) {
        let c = spec.class.idx();
        // A backlogged class's tags advance by service/weight per
        // job; an idle class restarts at the current virtual time —
        // the classic SFQ start tag.
        let start_tag = self.vtime.max(self.last_finish_tag[c]);
        self.last_finish_tag[c] = start_tag + spec.service_secs / self.weights[c];
        self.queues[c].push_back(Pending {
            stream,
            seq,
            arrival: now,
            start_tag,
            enqueue_seq: self.enqueue_seq,
        });
        self.enqueue_seq += 1;
    }

    /// Pop the next job to admit, if any is queued: of the two class
    /// heads, the smallest start tag under `WeightedFair`, the oldest
    /// under `Fifo`. Enqueue order breaks ties (it is unique), so
    /// Light-before-Heavy never depends on float equality luck.
    fn admit(&mut self, policy: Policy) -> Option<Pending> {
        let key = |p: &Pending| match policy {
            Policy::WeightedFair => (p.start_tag, p.enqueue_seq),
            Policy::Fifo => (0.0, p.enqueue_seq),
        };
        let heads = [self.queues[0].front(), self.queues[1].front()];
        let c = match heads.map(|head| head.map(key)) {
            [None, None] => return None,
            [Some(_), None] => 0,
            [None, Some(_)] => 1,
            [Some(l), Some(h)] => usize::from(l > h),
        };
        let p = self.queues[c].pop_front().expect("picked head exists");
        self.vtime = self.vtime.max(p.start_tag);
        Some(p)
    }
}

/// Deterministic virtual-time scheduler over closed-loop job streams.
///
/// Each stream runs its jobs strictly in order: job `k + 1` enters the
/// run queue the instant job `k` finishes (a closed loop — every stream
/// models one client connection). Admission picks, per free slot, the
/// queued job with the smallest SFQ start tag (`WeightedFair`) or the
/// oldest arrival (`Fifo`).
#[derive(Debug, Clone)]
pub struct QueryScheduler {
    config: SchedulerConfig,
}

impl QueryScheduler {
    /// A scheduler with the given admission config.
    pub fn new(config: SchedulerConfig) -> Self {
        Self { config }
    }

    /// Run every stream to completion; returns completions in virtual
    /// finish order. Pure function of the inputs: same streams, same
    /// config ⇒ bitwise-identical output.
    pub fn run(&self, streams: &[Vec<JobSpec>]) -> Vec<Completion> {
        let mut run_queues = RunQueues {
            weights: [self.config.light_weight, self.config.heavy_weight],
            queues: [VecDeque::new(), VecDeque::new()],
            last_finish_tag: [0.0; 2],
            vtime: 0.0,
            enqueue_seq: 0,
        };
        let mut slots: Vec<Option<Running>> = vec![None; self.config.slots];
        let mut clock = 0.0f64;
        let mut completions: Vec<Completion> = Vec::new();

        // All streams open their connection at t = 0, in stream order.
        for (stream, jobs) in streams.iter().enumerate() {
            if let Some(first) = jobs.first() {
                run_queues.enqueue(first, stream, 0, 0.0);
            }
        }

        loop {
            // Fill every free slot from the run queues.
            for slot in slots.iter_mut().filter(|s| s.is_none()) {
                let Some(p) = run_queues.admit(self.config.policy) else {
                    break;
                };
                *slot = Some(Running {
                    stream: p.stream,
                    seq: p.seq,
                    arrival: p.arrival,
                    start: clock,
                    finish: clock + streams[p.stream][p.seq].service_secs,
                });
            }

            // Advance to the earliest completion (lowest slot breaks ties).
            let next = slots
                .iter()
                .enumerate()
                .filter_map(|(i, s)| s.as_ref().map(|r| (r.finish, i)))
                .min_by(|a, b| a.partial_cmp(b).expect("virtual times are finite"));
            let Some((finish, slot)) = next else {
                debug_assert!(run_queues.queues.iter().all(VecDeque::is_empty));
                break;
            };
            clock = finish;
            let r = slots[slot].take().expect("slot was running");
            let spec = &streams[r.stream][r.seq];
            completions.push(Completion {
                stream: r.stream,
                seq: r.seq,
                label: spec.label.clone(),
                class: spec.class,
                arrival: r.arrival,
                start: r.start,
                finish: r.finish,
                service_secs: spec.service_secs,
                requests: spec.requests,
                cost_usd: spec.cost_usd,
            });
            // Closed loop: the stream's next job arrives now.
            if let Some(next) = streams[r.stream].get(r.seq + 1) {
                run_queues.enqueue(next, r.stream, r.seq + 1, clock);
            }
        }
        completions
    }
}

/// Nearest-rank percentile of an unsorted latency sample (p in 0..=100).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Per-class digest of a run's completions (`[Light, Heavy]`; classes
/// with no completions report zeros).
pub fn summarize(completions: &[Completion]) -> Vec<ClassSummary> {
    [QueryClass::Light, QueryClass::Heavy]
        .into_iter()
        .map(|class| {
            let of_class: Vec<&Completion> =
                completions.iter().filter(|c| c.class == class).collect();
            let n = of_class.len() as f64;
            let latencies: Vec<f64> = of_class.iter().map(|c| c.latency()).collect();
            let mean = |f: &dyn Fn(&Completion) -> f64| {
                if of_class.is_empty() {
                    0.0
                } else {
                    of_class.iter().map(|c| f(c)).sum::<f64>() / n
                }
            };
            ClassSummary {
                class,
                completed: of_class.len() as u64,
                p50_s: percentile(&latencies, 50.0),
                p99_s: percentile(&latencies, 99.0),
                mean_service_s: mean(&|c| c.service_secs),
                mean_wait_s: mean(&|c| c.start - c.arrival),
                requests_per_query: mean(&|c| c.requests),
                usd_per_query: mean(&|c| c.cost_usd),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(label: &str, class: QueryClass, service: f64) -> JobSpec {
        JobSpec {
            label: label.into(),
            class,
            service_secs: service,
            requests: 10.0,
            cost_usd: 0.001,
        }
    }

    /// 4 heavy streams of long scans + 2 light streams of point queries.
    fn mixed_streams() -> Vec<Vec<JobSpec>> {
        let mut streams = Vec::new();
        for _ in 0..4 {
            streams.push(vec![job("HEAVY", QueryClass::Heavy, 10.0); 20]);
        }
        for _ in 0..2 {
            streams.push(vec![job("LIGHT", QueryClass::Light, 0.1); 20]);
        }
        streams
    }

    #[test]
    fn run_is_deterministic() {
        let streams = mixed_streams();
        let sched = QueryScheduler::new(SchedulerConfig::weighted(2, 4.0, 1.0));
        let a = sched.run(&streams);
        let b = sched.run(&streams);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!((x.stream, x.seq), (y.stream, y.seq));
            assert_eq!(x.arrival.to_bits(), y.arrival.to_bits());
            assert_eq!(x.start.to_bits(), y.start.to_bits());
            assert_eq!(x.finish.to_bits(), y.finish.to_bits());
        }
    }

    #[test]
    fn streams_are_closed_loops() {
        let streams = mixed_streams();
        let done = QueryScheduler::new(SchedulerConfig::weighted(3, 4.0, 1.0)).run(&streams);
        // Every job of every stream completes, in sequence order, and
        // job k+1 never enters service before job k finished.
        for (i, stream) in streams.iter().enumerate() {
            let mine: Vec<&Completion> = done.iter().filter(|c| c.stream == i).collect();
            assert_eq!(mine.len(), stream.len());
            let mut by_seq = mine.clone();
            by_seq.sort_by_key(|c| c.seq);
            for w in by_seq.windows(2) {
                assert!(w[1].arrival >= w[0].finish);
                assert!(w[1].start >= w[1].arrival);
            }
        }
    }

    #[test]
    fn single_job_finishes_in_its_service_time() {
        let streams = vec![vec![job("Q", QueryClass::Light, 2.5)]];
        let done = QueryScheduler::new(SchedulerConfig::weighted(4, 1.0, 1.0)).run(&streams);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].start, 0.0);
        assert_eq!(done[0].finish, 2.5);
    }

    #[test]
    fn weighted_fair_shields_light_queries_from_scan_convoys() {
        let streams = mixed_streams();
        let fair = QueryScheduler::new(SchedulerConfig::weighted(2, 4.0, 1.0)).run(&streams);
        let fifo = QueryScheduler::new(SchedulerConfig::fifo(2)).run(&streams);
        let light_p99 = |done: &[Completion]| {
            let lat: Vec<f64> = done
                .iter()
                .filter(|c| c.class == QueryClass::Light)
                .map(|c| c.latency())
                .collect();
            percentile(&lat, 99.0)
        };
        let fair_p99 = light_p99(&fair);
        let fifo_p99 = light_p99(&fifo);
        // Under FIFO a 0.1 s point query convoys behind 10 s scans; under
        // weighted fair queueing it overtakes them at admission.
        assert!(
            fair_p99 * 5.0 < fifo_p99,
            "fair p99 {fair_p99} should be far below fifo p99 {fifo_p99}"
        );
        // And the heavy class still finishes everything (no starvation
        // in the other direction either).
        assert_eq!(
            fair.iter().filter(|c| c.class == QueryClass::Heavy).count(),
            80
        );
    }

    #[test]
    fn summaries_split_by_class() {
        let streams = mixed_streams();
        let done = QueryScheduler::new(SchedulerConfig::weighted(2, 4.0, 1.0)).run(&streams);
        let summary = summarize(&done);
        assert_eq!(summary.len(), 2);
        assert_eq!(summary[0].class, QueryClass::Light);
        assert_eq!(summary[0].completed, 40);
        assert_eq!(summary[1].completed, 80);
        assert!(summary[0].p50_s <= summary[0].p99_s);
        assert!((summary[0].mean_service_s - 0.1).abs() < 1e-12);
        assert!((summary[0].requests_per_query - 10.0).abs() < 1e-12);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 50.0), 2.0);
        assert_eq!(percentile(&v, 99.0), 4.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }
}
