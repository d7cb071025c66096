//! The single-worker session engine: an open, steppable training session.
//!
//! [`TrainingSession`] is the only owner of a single-worker session's
//! state: the trainer, the [`PartialRun`] progress, the eval cadence and
//! target check, park/unpark through [`snapshot_run`] and the strict
//! restore path, and [`RunResult`] construction. The single-worker runners
//! are drivers over it: [`run_to_quality`](crate::runner::run_to_quality)
//! runs a fresh session to the end, the resumable runners in
//! [`crate::ckpt`] run a resumed one with a checkpoint cadence and a kill
//! budget, and `aibench-fault`'s `SupervisedSession` interposes injection,
//! sentinels and recovery between [`commit_loss`](TrainingSession::commit_loss),
//! [`eval_due`](TrainingSession::eval_due) and
//! [`record_quality`](TrainingSession::record_quality).
//!
//! # Determinism contract
//!
//! Every driver performs the same call sequence — `train_epoch`, then
//! `evaluate` on the `eval_every` cadence and always at the epoch cap — so
//! each reproduces the others' trajectory bit for bit.
//! [`TrainingSession::park`] saves a snapshot through [`snapshot_run`] and
//! [`TrainingSession::unpark`] restores it through the same strict path the
//! resumable runner uses, so a parked-and-resumed session is
//! [`RunResult::deterministic_eq`] to one that never stopped.

use std::time::Instant;

use aibench_ckpt::{CheckpointSink, CkptError};
use aibench_models::Trainer;

use crate::ckpt::{restore_newest, snapshot_run, PartialRun};
use crate::registry::Benchmark;
use crate::runner::{RunConfig, RunResult};

/// One open training session: a trainer plus its accumulated progress,
/// steppable one epoch at a time and parkable between epochs.
pub struct TrainingSession<'a> {
    benchmark: &'a Benchmark,
    seed: u64,
    config: RunConfig,
    /// `None` while parked: the trainer's state lives in the snapshot the
    /// park wrote, not in memory.
    trainer: Option<Box<dyn Trainer>>,
    progress: PartialRun,
    resumed_from: Option<usize>,
    start: Instant,
}

impl<'a> TrainingSession<'a> {
    /// A session at epoch 0 with no trainer yet. Installs `config.parallel`
    /// if set and starts the wall clock.
    fn parked(benchmark: &'a Benchmark, seed: u64, config: &RunConfig) -> Self {
        if let Some(par) = config.parallel {
            par.install();
        }
        TrainingSession {
            benchmark,
            seed,
            config: *config,
            trainer: None,
            progress: PartialRun::fresh(),
            resumed_from: None,
            start: Instant::now(),
        }
    }

    /// Opens a fresh session at epoch 0. Installs `config.parallel` if set.
    pub fn fresh(benchmark: &'a Benchmark, seed: u64, config: &RunConfig) -> Self {
        let mut session = TrainingSession::parked(benchmark, seed, config);
        session.trainer = Some(benchmark.build(seed));
        session
    }

    /// Opens a session from the newest valid snapshot in `sink`, falling
    /// back to a fresh start when no snapshot survives validation.
    pub fn resume(
        benchmark: &'a Benchmark,
        seed: u64,
        config: &RunConfig,
        sink: &dyn CheckpointSink,
    ) -> Self {
        let mut session = TrainingSession::parked(benchmark, seed, config);
        session.resumed_from = session.unpark(sink);
        session
    }

    /// The benchmark this session trains.
    pub fn benchmark(&self) -> &'a Benchmark {
        self.benchmark
    }

    /// The session's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Epochs committed so far.
    pub fn epochs_run(&self) -> usize {
        self.progress.epochs_run
    }

    /// The accumulated progress.
    pub fn progress(&self) -> &PartialRun {
        &self.progress
    }

    /// Whether the session reached its quality target.
    pub fn converged(&self) -> bool {
        self.progress.epochs_to_target.is_some()
    }

    /// Whether the session is over: converged, or out of epochs.
    pub fn finished(&self) -> bool {
        self.converged() || self.progress.epochs_run >= self.config.max_epochs
    }

    /// Whether the session is parked (trainer dropped; state lives in the
    /// park snapshot).
    pub fn is_parked(&self) -> bool {
        self.trainer.is_none()
    }

    /// The live trainer.
    ///
    /// # Panics
    ///
    /// Panics if the session is parked.
    pub fn trainer(&self) -> &dyn Trainer {
        self.trainer
            .as_deref()
            .expect("session is parked; unpark before use")
    }

    /// The live trainer, mutably.
    ///
    /// # Panics
    ///
    /// Panics if the session is parked.
    pub fn trainer_mut(&mut self) -> &mut dyn Trainer {
        self.trainer
            .as_deref_mut()
            .expect("session is parked; unpark before use")
    }

    /// Commits `loss` as the next epoch's training loss and returns that
    /// (1-based) epoch.
    pub fn commit_loss(&mut self, loss: f32) -> usize {
        self.progress.loss_trace.push(loss);
        self.progress.epochs_run += 1;
        self.progress.epochs_run
    }

    /// Whether the last committed epoch evaluates: every `eval_every`
    /// epochs, plus always at the epoch cap.
    pub fn eval_due(&self) -> bool {
        let epoch = self.progress.epochs_run;
        epoch.is_multiple_of(self.config.eval_every.max(1)) || epoch == self.config.max_epochs
    }

    /// Records `quality` as the last committed epoch's evaluation and
    /// returns whether it met the benchmark's target (which converges the
    /// session).
    pub fn record_quality(&mut self, quality: f64) -> bool {
        let epoch = self.progress.epochs_run;
        self.progress.quality_trace.push((epoch, quality));
        self.progress.final_quality = quality;
        let met = self.benchmark.target.met_by(quality);
        if met {
            self.progress.epochs_to_target = Some(epoch);
        }
        met
    }

    /// Commits `loss` as the next epoch's result and evaluates if
    /// [`eval_due`](Self::eval_due). Returns the quality if this epoch
    /// evaluated.
    pub fn commit(&mut self, loss: f32) -> Option<f64> {
        self.commit_loss(loss);
        if !self.eval_due() {
            return None;
        }
        let quality = self.trainer_mut().evaluate();
        self.record_quality(quality);
        Some(quality)
    }

    /// Trains and commits one epoch. Returns `(loss, quality)`.
    ///
    /// # Panics
    ///
    /// Panics if the session is parked or [`finished`](Self::finished).
    pub fn step(&mut self) -> (f32, Option<f64>) {
        assert!(!self.finished(), "session is finished; no epochs left");
        let loss = self.trainer_mut().train_epoch();
        let quality = self.commit(loss);
        (loss, quality)
    }

    /// Steps the session until it finishes, or until `epoch_budget` epochs
    /// have run in this call — a simulated kill, after which the session is
    /// left as a `kill -9` would leave it. With a `sink`, saves a
    /// checkpoint every `config.checkpoint_every` epochs (never after the
    /// converging epoch). Returns whether the session finished; a failed
    /// checkpoint save is an `Err`, since durable progress was requested
    /// and lost.
    pub fn run(
        &mut self,
        epoch_budget: Option<usize>,
        mut sink: Option<&mut dyn CheckpointSink>,
    ) -> Result<bool, CkptError> {
        let every = self.config.checkpoint_every;
        let mut executed = 0;
        while !self.finished() {
            if epoch_budget.is_some_and(|budget| executed >= budget) {
                return Ok(false);
            }
            executed += 1;
            self.step();
            if let Some(sink) = sink.as_deref_mut() {
                if !self.converged() && every > 0 && self.epochs_run().is_multiple_of(every) {
                    self.checkpoint(sink)?;
                }
            }
        }
        Ok(true)
    }

    /// Serializes the session (identity, progress, trainer state) into
    /// snapshot bytes.
    ///
    /// # Panics
    ///
    /// Panics if the session is parked: its state is already in the park
    /// snapshot.
    pub fn snapshot(&self) -> Vec<u8> {
        snapshot_run(
            self.benchmark,
            self.seed,
            &self.config,
            &self.progress,
            self.trainer(),
        )
    }

    /// Saves a snapshot of the current state into `sink` under the current
    /// epoch.
    pub fn checkpoint(&self, sink: &mut dyn CheckpointSink) -> Result<(), CkptError> {
        sink.save(self.progress.epochs_run, &self.snapshot())
    }

    /// Parks the session: snapshots it into `sink` and drops the trainer,
    /// freeing its memory and worker slot. Returns the epoch the park
    /// snapshot was taken at. The session stays queryable (progress,
    /// finished) but cannot step until [`unpark`](Self::unpark)ed.
    pub fn park(&mut self, sink: &mut dyn CheckpointSink) -> Result<usize, CkptError> {
        self.checkpoint(sink)?;
        Ok(self.park_without_snapshot())
    }

    /// The park transition without a park snapshot, for when the park
    /// save failed: drops the trainer at the current epoch anyway and
    /// returns that epoch. The next [`unpark`](Self::unpark) restores the
    /// newest surviving snapshot — or restarts from scratch — and the
    /// driver re-runs the gap.
    pub fn park_without_snapshot(&mut self) -> usize {
        self.trainer = None;
        self.progress.epochs_run
    }

    /// Unparks (or rolls back) the session from the newest valid snapshot
    /// in `sink`, returning the epoch restored from; with no usable
    /// snapshot the session restarts from scratch and `None` is returned.
    pub fn unpark(&mut self, sink: &dyn CheckpointSink) -> Option<usize> {
        self.unpark_skipping(sink, 0)
    }

    /// [`unpark`](Self::unpark), passing over the newest `skip` snapshots
    /// in `sink` without loading them.
    pub fn unpark_skipping(&mut self, sink: &dyn CheckpointSink, skip: usize) -> Option<usize> {
        let restored = restore_newest(self.benchmark, self.seed, &self.config, sink, skip);
        let (trainer, progress, epoch) = match restored {
            Some((trainer, progress, epoch)) => (trainer, progress, Some(epoch)),
            None => (self.benchmark.build(self.seed), PartialRun::fresh(), None),
        };
        self.trainer = Some(trainer);
        self.progress = progress;
        epoch
    }

    /// Closes the session into a [`RunResult`].
    pub fn result(&self) -> RunResult {
        RunResult {
            code: self.benchmark.id.code().to_string(),
            seed: self.seed,
            epochs_run: self.progress.epochs_run,
            epochs_to_target: self.progress.epochs_to_target,
            quality_trace: self.progress.quality_trace.clone(),
            loss_trace: self.progress.loss_trace.clone(),
            final_quality: self.progress.final_quality,
            wall_seconds: self.start.elapsed().as_secs_f64(),
            resumed_from: self.resumed_from,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;
    use crate::runner::run_to_quality;
    use aibench_ckpt::MemorySink;

    fn cfg(max_epochs: usize) -> RunConfig {
        RunConfig {
            max_epochs,
            eval_every: 1,
            ..RunConfig::default()
        }
    }

    #[test]
    fn stepped_session_matches_plain_runner() {
        let r = Registry::aibench();
        let b = r.get("DC-AI-C15").unwrap();
        let config = cfg(3);
        let plain = run_to_quality(b, 1, &config);
        let mut session = TrainingSession::fresh(b, 1, &config);
        while !session.finished() {
            session.step();
        }
        assert!(plain.deterministic_eq(&session.result()));
    }

    #[test]
    fn park_and_unpark_is_bitwise_neutral() {
        let r = Registry::aibench();
        let b = r.get("DC-AI-C15").unwrap();
        let config = cfg(4);
        let plain = run_to_quality(b, 1, &config);

        let mut sink = MemorySink::new();
        let mut session = TrainingSession::fresh(b, 1, &config);
        session.step();
        session.step();
        let parked_at = session.park(&mut sink).unwrap();
        assert_eq!(parked_at, 2);
        assert!(session.is_parked());
        assert_eq!(session.epochs_run(), 2);
        let resumed_from = session.unpark(&sink);
        assert_eq!(resumed_from, Some(2));
        while !session.finished() {
            session.step();
        }
        assert!(plain.deterministic_eq(&session.result()));
    }

    #[test]
    fn park_before_first_epoch_resumes_from_scratch_state() {
        let r = Registry::aibench();
        let b = r.get("DC-AI-C15").unwrap();
        let config = cfg(2);
        let plain = run_to_quality(b, 7, &config);
        let mut sink = MemorySink::new();
        let mut session = TrainingSession::fresh(b, 7, &config);
        assert_eq!(session.park(&mut sink).unwrap(), 0);
        assert_eq!(session.unpark(&sink), Some(0));
        while !session.finished() {
            session.step();
        }
        assert!(plain.deterministic_eq(&session.result()));
    }

    #[test]
    fn unpark_without_snapshot_restarts_from_scratch() {
        let r = Registry::aibench();
        let b = r.get("DC-AI-C15").unwrap();
        let config = cfg(2);
        let mut session = TrainingSession::fresh(b, 1, &config);
        session.step();
        session.park_without_snapshot();
        let empty = MemorySink::new();
        assert_eq!(session.unpark(&empty), None);
        assert_eq!(session.epochs_run(), 0, "lost work restarts from scratch");
    }
}
