//! The phase worker: one parked thread per engine that runs the next
//! epoch's shard phase while the engine's own thread runs the hub.
//!
//! The shards travel by value (a `Vec` move, no allocation) over a
//! bounded channel and come back the same way at the barrier. Dropping
//! the worker closes the channel and joins the thread; a panic on the
//! thread resurfaces on the caller of [`PhaseWorker::finish`] with its
//! original payload.

use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::thread::JoinHandle;
use std::time::Instant;

use hivemind_sim::time::SimTime;

use super::{advance_shards, Shard, ShardCtx};

/// Shards to run up to `upto` over `threads` threads, timed if `timed`.
struct Job {
    shards: Vec<Shard>,
    upto: SimTime,
    threads: usize,
    timed: bool,
}

/// The shards back, with the nanoseconds spent on them (zero untimed).
struct Done {
    shards: Vec<Shard>,
    busy_ns: u64,
}

#[derive(Debug)]
pub(super) struct PhaseWorker {
    jobs: Option<SyncSender<Job>>,
    done: Receiver<Done>,
    thread: Option<JoinHandle<()>>,
}

impl PhaseWorker {
    /// Spawns the thread, parked until the first [`PhaseWorker::start`].
    pub(super) fn spawn(ctx: ShardCtx) -> PhaseWorker {
        let (jobs, job_rx) = sync_channel::<Job>(1);
        let (done_tx, done) = sync_channel::<Done>(1);
        let thread = std::thread::Builder::new()
            .name("hivemind-phase".into())
            .spawn(move || {
                for mut job in job_rx {
                    let clock = job.timed.then(Instant::now);
                    advance_shards(&mut job.shards, &ctx, job.upto, job.threads);
                    let busy_ns = clock.map_or(0, |c| c.elapsed().as_nanos() as u64);
                    let back = Done {
                        shards: job.shards,
                        busy_ns,
                    };
                    if done_tx.send(back).is_err() {
                        break;
                    }
                }
            })
            .expect("failed to spawn the phase worker thread");
        PhaseWorker {
            jobs: Some(jobs),
            done,
            thread: Some(thread),
        }
    }

    /// Hands `shards` over to run up to `upto` on `threads` threads.
    pub(super) fn start(&self, shards: Vec<Shard>, upto: SimTime, threads: usize, timed: bool) {
        let job = Job {
            shards,
            upto,
            threads,
            timed,
        };
        // The worker only exits when this side hangs up or after a panic,
        // and `finish` rethrows that panic before another `start`.
        self.jobs
            .as_ref()
            .and_then(|jobs| jobs.send(job).ok())
            .expect("the phase worker is parked");
    }

    /// Blocks until the shards come back, with their busy nanoseconds.
    pub(super) fn finish(&mut self) -> (Vec<Shard>, u64) {
        if let Ok(Done { shards, busy_ns }) = self.done.recv() {
            return (shards, busy_ns);
        }
        // The thread hung up holding the shards: it panicked.
        let thread = self.thread.take().expect("the phase worker is joined once");
        match thread.join() {
            Err(payload) => std::panic::resume_unwind(payload),
            Ok(()) => unreachable!("the phase worker exited holding the shards"),
        }
    }
}

impl Drop for PhaseWorker {
    fn drop(&mut self) {
        // Hanging up ends the worker's loop; a job still in flight (the
        // hub panicked mid-epoch) finishes into the buffered channel.
        drop(self.jobs.take());
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use std::panic::{catch_unwind, AssertUnwindSafe};

    use hivemind_apps::suite::App;

    use super::super::{Capture, Engine, EngineConfig};
    use super::*;
    use crate::dsl::PlacementSite;
    use crate::platform::Platform;

    #[test]
    fn a_worker_panic_resurfaces_with_its_payload() {
        let mut cfg = EngineConfig::testbed(Platform::DistributedEdge);
        cfg.devices = 2;
        cfg.shards = 1;
        let mut engine = Engine::new(cfg);
        let mut shards = std::mem::take(&mut engine.shards);
        // A capture for a device outside the shard's block indexes past
        // its per-device lanes.
        shards[0].actions.push(
            (SimTime::ZERO, 0),
            Capture {
                task: 0,
                device: 7,
                app: App::Maze,
                placement: PlacementSite::Edge,
            },
        );
        let mut worker = PhaseWorker::spawn(engine.ctx.clone());
        worker.start(shards, SimTime::MAX, 1, false);
        let payload = catch_unwind(AssertUnwindSafe(|| worker.finish()))
            .expect_err("the worker's panic must reach the caller");
        let message = payload
            .downcast_ref::<String>()
            .expect("a formatted panic message");
        assert!(message.contains("index out of bounds"), "{message}");
        // The thread is already joined; dropping must not hang.
        drop(worker);
    }
}
