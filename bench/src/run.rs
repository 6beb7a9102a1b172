//! One workload's measurement context: options, the tracer, timing
//! samples, counter totals, the correctness tally — and the measured
//! loop that alternates traced and untraced rounds.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::alloc;
use crate::counters::Counters;
use crate::spans::Tracer;
use crate::stats::{median, percentile, supported_tail};

/// What the command line asked for.
#[derive(Debug, Clone)]
pub struct Opts {
    pub seed: u64,
    /// Seconds the measured loop runs for.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Smoke-test length; never reported.
    pub quick: bool,
}

impl Opts {
    /// How often set-up is repeated, so `setup_s` can be a median. The
    /// traced and the quick run do not report it and set up once.
    pub fn setup_reps(&self) -> usize {
        if self.trace || self.quick {
            1
        } else {
            3
        }
    }
}

/// The location statistic of every reported timing: the 10th percentile.
///
/// On a shared host interference only ever adds time. Identical code was
/// seen to drift by 25-80 % in its median within minutes while its
/// fastest tenth held within about 10 %, so the fastest tenth is what a
/// change to the program can be read from. Medians and tails are still
/// printed for every series.
pub fn fast(samples: &[f64]) -> f64 {
    percentile(samples, 0.10)
}

/// [`fast`] for a rate, where higher is faster.
pub fn fast_rate(samples: &[f64]) -> f64 {
    percentile(samples, 0.90)
}

/// Named series of samples.
#[derive(Debug, Default)]
pub struct Samples(BTreeMap<String, Vec<f64>>);

impl Samples {
    pub fn push(&mut self, name: &str, value: f64) {
        self.0.entry(name.to_owned()).or_default().push(value);
    }

    pub fn get(&self, name: &str) -> &[f64] {
        self.0.get(name).map_or(&[], Vec::as_slice)
    }

    pub fn median(&self, name: &str) -> f64 {
        median(self.get(name))
    }

    /// The reported location of a timing series: its fastest tenth. See
    /// [`fast`].
    pub fn fast(&self, name: &str) -> f64 {
        fast(self.get(name))
    }

    pub fn sum(&self, name: &str) -> f64 {
        self.get(name).iter().sum()
    }
}

/// A finished workload run.
#[derive(Debug)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Declared metrics by name.
    pub metrics: BTreeMap<String, f64>,
    /// Sizes, sample counts and distribution lines for the human reader.
    pub notes: Vec<String>,
}

/// Measurement context of one workload run.
pub struct Run {
    pub opts: Opts,
    pub tracer: Tracer,
    /// Timings (ms unless the name says otherwise) of untraced rounds.
    pub plain: Samples,
    /// Timings of traced rounds; empty in an untraced run.
    pub traced: Samples,
    /// Observations that are not timings (counts read at a boundary).
    pub values: Samples,
    pub counters: Counters,
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
    /// Rounds measured, all and traced.
    pub rounds: u64,
    pub traced_rounds: u64,
    tracing_now: bool,
}

impl Run {
    pub fn new(opts: Opts) -> Self {
        Self {
            opts,
            tracer: Tracer::new(),
            plain: Samples::default(),
            traced: Samples::default(),
            values: Samples::default(),
            counters: Counters::default(),
            attempted: 0,
            failed: 0,
            notes: Vec::new(),
            rounds: 0,
            traced_rounds: 0,
            tracing_now: false,
        }
    }

    /// The series the current round records its timings into.
    pub fn samples(&mut self) -> &mut Samples {
        if self.tracing_now {
            &mut self.traced
        } else {
            &mut self.plain
        }
    }

    /// Count one checked operation.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Set up `setup_reps()` times, keeping the last state and recording
    /// each repetition's wall seconds, so `setup_s` can be a median. The
    /// previous state is dropped before the next build starts.
    pub fn setup<S>(&mut self, mut build: impl FnMut(&mut Run) -> S) -> S {
        let mut state = None;
        for _ in 0..self.opts.setup_reps() {
            drop(state.take());
            let t = Instant::now();
            state = Some(build(self));
            self.values.push("setup_s", t.elapsed().as_secs_f64());
        }
        state.expect("set-up runs at least once")
    }

    /// Run warm-up work against a scratch context: its samples, spans and
    /// counters are thrown away, only its checks count.
    pub fn warm_up(&mut self, work: impl FnOnce(&mut Run)) {
        let mut scratch = Run::new(self.opts.clone());
        work(&mut scratch);
        self.attempted += scratch.attempted;
        self.failed += scratch.failed;
    }

    /// Repeat `round` until the run's seconds are used up (at least
    /// twice). In a traced run every second round records spans and
    /// counts allocations; the others are the untraced reference the
    /// tracing overhead is measured against, in the same process and
    /// against the same data.
    pub fn measure(&mut self, mut round: impl FnMut(&mut Run, u64)) {
        let start = Instant::now();
        while self.rounds < 2 || start.elapsed().as_secs_f64() < self.opts.seconds {
            self.tracing_now = self.opts.trace && self.rounds % 2 == 1;
            self.tracer.set_on(self.tracing_now);
            alloc::set_counting(self.tracing_now);
            let t = Instant::now();
            round(self, self.rounds);
            // Everything the round did, checks included: what the
            // top-level spans of a traced round are reconciled against.
            let wall_ms = t.elapsed().as_secs_f64() * 1e3;
            self.samples().push("wall", wall_ms);
            self.rounds += 1;
            self.traced_rounds += u64::from(self.tracing_now);
        }
        self.tracing_now = false;
        self.tracer.set_on(false);
        alloc::set_counting(false);
    }

    /// Describe the untraced timing series `series`: sample count, the
    /// fastest tenth (what the metrics report), the median, the highest
    /// percentile that has at least ten samples beyond it, and the
    /// extremes.
    pub fn note_distribution(&mut self, label: &str, unit: &str, series: &str) {
        let samples = self.plain.get(series);
        let tail = match supported_tail(samples.len()) {
            Some((name, p)) => format!("{name} {:.4}", percentile(samples, p)),
            None => "no percentile has 10 samples beyond it".into(),
        };
        self.notes.push(format!(
            "{label}: n={} p10 {:.4} {unit}, median {:.4}, {tail}, min {:.4}, max {:.4}",
            samples.len(),
            fast(samples),
            median(samples),
            percentile(samples, 0.0),
            percentile(samples, 1.0),
        ));
    }
}
