//! The device plane: every shard's devices — capture run, FIFO queues,
//! batteries and RNG lanes — and the exchange that hands their effects
//! to the hub.
//!
//! Device-local work (capture, the hybrid filter tier, on-device FIFO
//! execution, battery accounting, and the RPC-send cost draws) is
//! partitioned into [`ShardMap`] blocks — contiguous device ranges, one
//! spatial swarm region each — and advanced one *epoch* at a time under
//! conservative lookahead derived from the slowest cross-shard link
//! (the wireless hop: no device-side event can influence another
//! device's hardware, or the shared cloud, in less virtual time than
//! one wireless propagation). Each epoch runs two phases:
//!
//! 1. **Shard phase** (parallel): every shard drains its own capture
//!    run and FIFO wake index up to the epoch boundary, drawing
//!    only from per-device RNG lanes (`forge.indexed_stream("device", d)`)
//!    and emitting boundary *effects* stamped `(time, device, seq)`.
//! 2. **Hub phase** (serial): the per-shard effect batches are folded,
//!    together with the previous epoch's not-yet-due leftovers, through
//!    one order-stable k-way merge ([`merge_keyed_into`]) per barrier —
//!    batched exchange, not per-event handoff — and applied interleaved,
//!    in global time order, with hub actions, network deliveries, and
//!    cloud completions. All hub randomness stays on the global
//!    `"engine"` stream.
//!
//! The hub reaches the device plane only through [`Shards`]'s methods;
//! no other module knows a shard's layout.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use hivemind_apps::suite::App;
use hivemind_faas::types::AppProfile;
use hivemind_net::rpc::RpcProfile;
use hivemind_sim::fifo::{self, FifoServer};
use hivemind_sim::rng::RngForge;
use hivemind_sim::shard::{merge_keyed_into, shards_from_env, EffectKey, ShardMap};
use hivemind_sim::time::{SimDuration, SimTime};
use hivemind_sim::trace::TraceHandle;
use hivemind_swarm::{Battery, BatteryBlock};
use rand::rngs::SmallRng;

use super::captures::CaptureRun;
use super::{earliest, EngineConfig, PhaseBreakdown};
use crate::dsl::PlacementSite;

/// An on-device job's kind plus the device-local context its completion
/// needs. It rides with the job through the device FIFO as the job's
/// payload, so no side table holds in-flight jobs. It stays at 16 bytes
/// because every device queue entry carries one.
///
/// A capture's job carries the task's birth facts on to its uplink
/// effect, less the capture instant: the job was queued at it, so it is
/// the job's finish less its queueing delay and `service`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum EdgeJob {
    /// An edge-placed task's execution.
    Exec {
        app: App,
        label: u32,
        service: SimDuration,
    },
    /// A hybrid cloud-placed task's on-device filter tier.
    Filter {
        app: App,
        label: u32,
        service: SimDuration,
    },
    /// Degraded-model re-execution of the task in progress slot `slot`,
    /// whose cloud work was shed (brownout spillover) or whose device
    /// went autonomous.
    Spillover { slot: u32 },
}
const _: () = assert!(std::mem::size_of::<EdgeJob>() == 16);

/// On-device job ids carry their task and kind arithmetically (kind in
/// the two low bits): unique per job, they settle a FIFO's same-instant
/// completions.
fn edge_job(task: u32, job: EdgeJob) -> u64 {
    (task as u64) * 4
        + match job {
            EdgeJob::Exec { .. } => 0,
            EdgeJob::Filter { .. } => 1,
            EdgeJob::Spillover { .. } => 2,
        }
}

// Per queued task the engine holds one capture entry and nothing else;
// this pins its size.
const _: () = assert!(std::mem::size_of::<(SimTime, Capture)>() == 24);

/// A capture scheduled on a shard's [`CaptureRun`], which orders it by
/// `(at, task)`; task ids are unique, so the order is total.
#[derive(Debug, Clone, Copy)]
pub(super) struct Capture {
    pub(super) task: u32,
    pub(super) device: u32,
    /// Caller label.
    pub(super) label: u32,
    pub(super) app: App,
    pub(super) placement: PlacementSite,
}

/// A boundary event a shard hands to the hub, applied at its
/// [`EffectKey`] instant in globally merged key order.
#[derive(Debug, Clone, Copy)]
pub(super) enum Effect {
    /// Put the task's upload on the uplink toward a (hub-chosen) server:
    /// a task's first hub touch. A cloud-placed task uploads its input
    /// ([`upload_bytes`]); an edge-placed one its result
    /// ([`result_bytes`]; no cloud execution follows), with `exec` the
    /// on-device service time drawn at capture. Carries the task's birth
    /// facts (id, label, app, site, capture instant) and the
    /// latency-breakdown contributions of the device-side leg.
    Uplink {
        task: u32,
        label: u32,
        app: App,
        site: PlacementSite,
        capture: SimTime,
        network: SimDuration,
        management: SimDuration,
        exec: SimDuration,
    },
    /// The spillover (degraded on-device) job of the task in progress
    /// slot `slot` finished; the result is already on the device, so the
    /// task completes with no uplink.
    FinishLocal { slot: u32, queued: SimDuration },
    /// Queue-depth trace counter from the shard phase (the tracer is
    /// hub-owned, so shard-side emissions ride the effect stream and
    /// land in merge-key order).
    QueueDepth { depth: u64 },
}

/// One spatial shard: a contiguous device block with its own capture
/// run, FIFO wake index, and outbound effect batch.
///
/// Per-device hot state is struct-of-arrays: parallel vectors indexed by
/// the block offset `device - first_dev`, aligned with [`ShardMap`]'s
/// contiguous ranges, so the inner loop streams dense cache lines
/// instead of pointer-chasing one struct per device. The FIFO queues
/// (cold, pointer-heavy) live in their own array away from the battery /
/// RNG / sequence state the per-event path actually touches.
#[derive(Debug)]
pub(super) struct Shard {
    first_dev: u32,
    /// Per-device FIFO compute queues, block-offset order.
    fifos: Vec<FifoServer<EdgeJob>>,
    /// Per-device batteries, one dense block.
    batteries: BatteryBlock,
    /// Per-device RNG lanes (`forge.indexed_stream("device", dev)`).
    rngs: Vec<SmallRng>,
    /// Per-device monotone effect counters — the `seq` leg of the
    /// shard-count-invariant `(time, device, seq)` merge key.
    eseqs: Vec<u64>,
    /// Scheduled captures in `(at, task)` order.
    captures: CaptureRun,
    /// Conservative wake index over this shard's FIFO queues (entries
    /// may be early, never late; equal keys are interchangeable).
    wake: BinaryHeap<Reverse<(SimTime, u32)>>,
    /// Lifetime push + pop count of `wake` (profiling breakdown).
    wake_ops: u64,
    /// RNG sampling calls made by this shard (profiling breakdown).
    rng_draws: u64,
    done_scratch: Vec<fifo::Done<EdgeJob>>,
    /// Effects emitted this epoch, sorted by key at the barrier.
    out: Vec<(EffectKey, Effect)>,
    /// Latest device-local event time processed (feeds the engine clock:
    /// `now` tracks processed events, not epoch boundaries).
    cursor: SimTime,
    events: u64,
    /// Battery draws (block offset, draw) made on the phase worker,
    /// charged at the barrier after the hub's draws for the epoch the
    /// shard ran ahead of.
    draws: Vec<(u32, Draw)>,
}

impl Shard {
    /// The earliest device-local instant at which anything happens.
    fn next_event(&self) -> Option<SimTime> {
        earliest(
            self.captures.peek().map(|(t, _)| t),
            self.wake.peek().map(|&Reverse((t, _))| t),
        )
    }

    /// Queues `job` on `device`'s FIFO at `now`, returning the queue's
    /// new load. Only head changes are indexed — one live wake entry per
    /// device, not one per job (which would go quadratic on overloaded
    /// devices).
    fn submit(
        &mut self,
        now: SimTime,
        device: u32,
        task: u32,
        service: SimDuration,
        job: EdgeJob,
    ) -> u64 {
        let fifo = &mut self.fifos[(device - self.first_dev) as usize];
        let prev = fifo.next_wakeup();
        fifo.submit(now, edge_job(task, job), service, job);
        let new = fifo.next_wakeup();
        let load = fifo.load() as u64;
        if new != prev {
            if let Some(t) = new {
                self.push_wake(t, device);
            }
        }
        load
    }

    /// Indexes device `device`'s FIFO head at `t`.
    fn push_wake(&mut self, t: SimTime, device: u32) {
        self.wake_ops += 1;
        self.wake.push(Reverse((t, device)));
    }

    /// Charges device `di`'s battery, or logs the draw on the phase
    /// worker.
    fn draw(&mut self, ctx: &ShardCtx, di: usize, draw: Draw) {
        if ctx.on_worker {
            self.draws.push((di as u32, draw));
        } else {
            draw.apply(self.batteries.cell_mut(di));
        }
    }
}

/// One battery charge. Draws accumulate in floating point, so their
/// order is part of the output; see [`Shards::draw`].
#[derive(Debug, Clone, Copy)]
pub(super) enum Draw {
    Radio(u64),
    Compute(SimDuration),
}

impl Draw {
    fn apply(self, battery: &mut Battery) {
        match self {
            Draw::Radio(bytes) => battery.draw_radio(bytes),
            Draw::Compute(d) => battery.draw_compute(d),
        }
    }
}

/// Read-only configuration the shard phase runs against (everything it
/// needs from [`EngineConfig`], plus the edge RPC profile). Fixed at
/// construction; the phase worker holds its own clone.
#[derive(Debug, Clone)]
pub(super) struct ShardCtx {
    pub(super) hybrid: bool,
    pub(super) upload_fraction: f64,
    pub(super) input_scale: f64,
    pub(super) uplink_budget: f64,
    pub(super) device_factor: f64,
    pub(super) trace: bool,
    /// Set only on the phase worker's copy, whose shards run ahead of hub
    /// draws not yet made and so log their own.
    pub(super) on_worker: bool,
    /// The devices' RPC profile; also their receive side for the hub.
    pub(super) edge_rpc: RpcProfile,
    /// Each app's calibrated cloud profile, indexed by `App as usize`;
    /// built once, read by both the shard phase and the hub.
    pub(super) profiles: [AppProfile; App::ALL.len()],
}

impl ShardCtx {
    pub(super) fn profile(&self, app: App) -> &AppProfile {
        &self.profiles[app as usize]
    }
}

/// The device plane's exact counters, summed over the shards.
#[derive(Debug, Default)]
pub(super) struct Counters {
    /// Captures and FIFO completions processed.
    pub(super) events: u64,
    /// Pushes + pops across the capture runs and the wake heaps.
    pub(super) queue_ops: u64,
    /// RNG sampling calls drawn from the device lanes.
    pub(super) rng_draws: u64,
}

/// The device plane as the hub sees it: the shards, the exchange that
/// merges their effects, and the hub's side of the pipelined barrier.
#[derive(Debug)]
pub(super) struct Shards {
    map: ShardMap,
    /// The shards, in device order; empty while they are away on the
    /// phase worker, which is the one record that they are.
    list: Vec<Shard>,
    /// Hub battery draws made while the shards are away, applied before
    /// the shards' own when they come back.
    hub_draws: Vec<(u32, Draw)>,
    /// The shards' earliest event when they were sent away, so
    /// [`Shards::next_event`] — and with it the epoch grid — ignores how
    /// far they ran ahead. Cleared by the next shard phase.
    spec_next: Option<SimTime>,
    /// Merged shard effects not yet applied, as one sorted run consumed
    /// through `pending_cursor` (effects may be future-dated past their
    /// epoch, e.g. `finish + send_cost`). Rebuilt once per barrier by
    /// folding the leftovers with the fresh per-shard batches.
    pending: Vec<(EffectKey, Effect)>,
    pending_cursor: usize,
    /// The merge target swapped with `pending` at each barrier; both
    /// buffers hold their high-water capacity, so the exchange is
    /// allocation-free in steady state.
    pending_scratch: Vec<(EffectKey, Effect)>,
    /// Spillover jobs created by the hub phase, resubmitted at the epoch
    /// boundary (the one hub→device feedback edge; the boundary is
    /// shard-count-invariant, so the deferral is deterministic). Entries
    /// are `(at, device, task, slot, service)`.
    spill_inbox: Vec<(SimTime, u32, u32, u32, SimDuration)>,
}

impl Shards {
    /// Splits `cfg`'s devices into `cfg.shards` blocks (`0` reads
    /// `HIVEMIND_SHARDS`), each device with its FIFO, battery and RNG
    /// lane.
    pub(super) fn new(cfg: &EngineConfig, forge: &RngForge) -> Shards {
        let shard_count = Some(cfg.shards).filter(|&n| n > 0);
        let map = ShardMap::new(cfg.devices, shard_count.unwrap_or_else(shards_from_env));
        let list = (0..map.shards())
            .map(|s| {
                let range = map.range(s);
                let n = range.len();
                Shard {
                    first_dev: range.start,
                    fifos: (0..n)
                        .map(|_| FifoServer::new(cfg.device_profile.cores))
                        .collect(),
                    batteries: BatteryBlock::new(cfg.device_profile.battery, n),
                    // One RNG lane per device, keyed by the
                    // shard-count-invariant device id — re-sharding
                    // never reshuffles a single draw.
                    rngs: range
                        .map(|dev| forge.indexed_stream("device", dev as u64))
                        .collect(),
                    eseqs: vec![0; n],
                    captures: CaptureRun::new(),
                    wake: BinaryHeap::new(),
                    wake_ops: 0,
                    rng_draws: 0,
                    done_scratch: Vec::new(),
                    out: Vec::new(),
                    cursor: SimTime::ZERO,
                    events: 0,
                    draws: Vec::new(),
                }
            })
            .collect();
        Shards {
            map,
            list,
            hub_draws: Vec::new(),
            spec_next: None,
            pending: Vec::new(),
            pending_cursor: 0,
            pending_scratch: Vec::new(),
            spill_inbox: Vec::new(),
        }
    }

    /// The number of shards.
    pub(super) fn count(&self) -> u32 {
        self.map.shards()
    }

    /// Resolves a device id to its `(shard index, block offset)` pair.
    #[inline]
    fn locate(&self, device: u32) -> (usize, usize) {
        let s = self.map.shard_of(device) as usize;
        (s, (device - self.list[s].first_dev) as usize)
    }

    /// Schedules a capture on its device's shard.
    pub(super) fn submit(&mut self, at: SimTime, capture: Capture) {
        let (s, _) = self.locate(capture.device);
        self.list[s].captures.push(at, capture);
    }

    /// The inline shard phase: every shard with work by `upto` advances
    /// through it, over up to `threads` threads.
    pub(super) fn advance(&mut self, ctx: &ShardCtx, upto: SimTime, threads: usize) {
        self.spec_next = None;
        advance_shards(&mut self.list, ctx, upto, threads);
    }

    /// Barrier: the batched cross-shard exchange. Every shard's (sorted)
    /// effect batch and the previous epoch's not-yet-due leftovers fold
    /// through one k-way merge into the next pending run — a single
    /// buffer swap per epoch instead of a per-event heap handoff. The
    /// result is the same unique `(time, device, seq)` order a global
    /// heap would produce, independent of the shard count. An epoch with
    /// no fresh effect exchanges nothing; when one shard's batch is the
    /// only non-empty run, it becomes the pending run by a swap, at any
    /// shard count. Counts into `b`'s exchange counters.
    pub(super) fn exchange(&mut self, b: &mut PhaseBreakdown) {
        let fresh: usize = self.list.iter().map(|s| s.out.len()).sum();
        if fresh == 0 {
            return;
        }
        b.exchange_epochs += 1;
        b.exchange_effects += fresh as u64;
        let left = &self.pending[self.pending_cursor..];
        let mut batches = self.list.iter_mut().filter(|s| !s.out.is_empty());
        match (left.is_empty(), batches.next(), batches.next()) {
            // One shard's batch is the only run: it *is* the next pending
            // run; swap buffers and reuse the old one for emission.
            (true, Some(sh), None) => std::mem::swap(&mut self.pending, &mut sh.out),
            _ => {
                self.pending_scratch.clear();
                if let [sh] = &self.list[..] {
                    // Leftovers and one batch merge without allocating.
                    merge_keyed_into(&[left, &sh.out], &mut self.pending_scratch);
                } else {
                    let runs: Vec<&[(EffectKey, Effect)]> = std::iter::once(left)
                        .chain(self.list.iter().map(|s| &s.out[..]))
                        .filter(|run| !run.is_empty())
                        .collect();
                    merge_keyed_into(&runs, &mut self.pending_scratch);
                }
                std::mem::swap(&mut self.pending, &mut self.pending_scratch);
                b.merge_elems += self.pending.len() as u64;
            }
        }
        self.pending_cursor = 0;
        for sh in &mut self.list {
            sh.out.clear();
        }
    }

    /// The instant of the earliest merged effect not yet applied.
    pub(super) fn next_effect(&self) -> Option<SimTime> {
        self.pending.get(self.pending_cursor).map(|&(k, _)| k.at)
    }

    /// Takes the next merged effect if it is due by `t`.
    #[inline]
    pub(super) fn pop_effect(&mut self, t: SimTime) -> Option<(EffectKey, Effect)> {
        let &(key, effect) = self.pending.get(self.pending_cursor)?;
        if key.at > t {
            return None;
        }
        self.pending_cursor += 1;
        Some((key, effect))
    }

    /// Charges a battery draw from the hub: in place, or into the hub
    /// log while the shards are away.
    pub(super) fn draw(&mut self, device: u32, draw: Draw) {
        if self.list.is_empty() {
            self.hub_draws.push((device, draw));
        } else {
            draw.apply(self.battery_mut(device));
        }
    }

    /// Queues a hub-made spillover job — degraded re-execution of `task`,
    /// in progress slot `slot` — for `device`'s FIFO. The shard phase may
    /// already have run past `at`, so the job waits for the epoch
    /// boundary.
    pub(super) fn spill(
        &mut self,
        at: SimTime,
        device: u32,
        task: u32,
        slot: u32,
        service: SimDuration,
    ) {
        self.spill_inbox.push((at, device, task, slot, service));
    }

    /// Resubmits the spilled jobs to their device FIFOs at the epoch
    /// boundary `end`, in hub (time) order, tracing each queue's depth.
    pub(super) fn drain_spillover(&mut self, end: SimTime, tracer: &TraceHandle) {
        for i in 0..self.spill_inbox.len() {
            let (orig, device, task, slot, service) = self.spill_inbox[i];
            let at = orig.max(end);
            let (s, _) = self.locate(device);
            let depth = self.list[s].submit(at, device, task, service, EdgeJob::Spillover { slot });
            tracer.counter("edge", "queue", device, at, depth as f64);
        }
        self.spill_inbox.clear();
    }

    /// The earliest device-local instant at which anything happens; while
    /// the shards are away or just back, no later than their earliest
    /// event when they were sent away.
    pub(super) fn next_event(&self) -> Option<SimTime> {
        self.list
            .iter()
            .map(Shard::next_event)
            .fold(self.spec_next, earliest)
    }

    /// A gauge of the shard work ahead up to `t`: the captures due by
    /// then, plus the wake indexes' lengths, about one entry per device
    /// with queued jobs, due by `t` or not (counting only the due ones
    /// scans the index, which cost `edge_local` ~8% of its wall time).
    pub(super) fn due_by(&self, t: SimTime) -> usize {
        let due = |s: &Shard| s.captures.due_by(t) + s.wake.len();
        self.list.iter().map(due).sum()
    }

    /// The latest device-local event time processed by any shard.
    pub(super) fn latest_cursor(&self) -> SimTime {
        self.list
            .iter()
            .map(|s| s.cursor)
            .fold(SimTime::ZERO, SimTime::max)
    }

    /// Hands the shards over to run ahead on the phase worker, noting
    /// their earliest event first (see [`Shards::next_event`]).
    pub(super) fn send_away(&mut self) -> Vec<Shard> {
        self.spec_next = self.next_event();
        std::mem::take(&mut self.list)
    }

    /// The barrier of an overlapped epoch: takes the shards back and
    /// charges the hub's logged battery draws, then the shards' — the
    /// order the serial engine charges them in (this epoch's hub before
    /// the next epoch's shard phase).
    pub(super) fn take_back(&mut self, shards: Vec<Shard>) {
        self.list = shards;
        for i in 0..self.hub_draws.len() {
            let (device, draw) = self.hub_draws[i];
            draw.apply(self.battery_mut(device));
        }
        self.hub_draws.clear();
        for sh in &mut self.list {
            for (di, draw) in sh.draws.drain(..) {
                draw.apply(sh.batteries.cell_mut(di as usize));
            }
        }
    }

    /// Battery state of a device.
    pub(super) fn battery(&self, device: u32) -> &Battery {
        let (s, di) = self.locate(device);
        self.list[s].batteries.cell(di)
    }

    /// Mutable battery access.
    pub(super) fn battery_mut(&mut self, device: u32) -> &mut Battery {
        let (s, di) = self.locate(device);
        self.list[s].batteries.cell_mut(di)
    }

    /// The exact counters, summed over the shards.
    pub(super) fn counters(&self) -> Counters {
        let mut c = Counters::default();
        for sh in &self.list {
            c.events += sh.events;
            c.queue_ops += sh.captures.ops() + sh.wake_ops;
            c.rng_draws += sh.rng_draws;
        }
        c
    }
}

/// Advances every shard with work by `upto` through [`shard_phase`],
/// fanning them out over up to `threads` scoped threads.
pub(super) fn advance_shards(shards: &mut [Shard], ctx: &ShardCtx, upto: SimTime, threads: usize) {
    let due = |sh: &Shard| sh.next_event().is_some_and(|t| t <= upto);
    let threads = threads.clamp(1, shards.len());
    if threads <= 1 || shards.iter().filter(|sh| due(sh)).count() <= 1 {
        for sh in shards.iter_mut().filter(|sh| due(sh)) {
            shard_phase(sh, ctx, upto);
        }
        return;
    }
    let chunk = shards.len().div_ceil(threads);
    std::thread::scope(|scope| {
        for group in shards.chunks_mut(chunk) {
            scope.spawn(move || {
                for sh in group {
                    shard_phase(sh, ctx, upto);
                }
            });
        }
    });
}

/// Advances one shard through `[.., upto]`: local captures and FIFO
/// completions in device-local time order, drawing only from per-device
/// RNG lanes and emitting boundary effects. Runs with no access to hub
/// state, so shards advance in parallel.
fn shard_phase(sh: &mut Shard, ctx: &ShardCtx, upto: SimTime) {
    while let Some(t) = sh.next_event() {
        if t > upto {
            break;
        }
        sh.cursor = sh.cursor.max(t);
        while let Some((at, c)) = sh.captures.pop_until(t) {
            sh.events += 1;
            shard_capture(sh, ctx, at, c);
        }
        drain_completions(sh, ctx, t);
    }
    sh.captures.release_consumed();
    // The hub merges batches by `(time, device, seq)`; emissions can be
    // future-dated (`finish + send`), so local order is not key order.
    // Keys are unique, so the unstable sort is order-deterministic and
    // avoids the stable sort's temporary buffer.
    sh.out.sort_unstable_by_key(|&(k, _)| k);
}

/// Stamps and queues one effect on the shard's outbound batch.
fn emit(sh: &mut Shard, device: u32, at: SimTime, effect: Effect) {
    let di = (device - sh.first_dev) as usize;
    let seq = sh.eseqs[di];
    sh.eseqs[di] += 1;
    sh.out.push((EffectKey::new(at, device, seq), effect));
}

fn shard_capture(sh: &mut Shard, ctx: &ShardCtx, at: SimTime, c: Capture) {
    let Capture {
        task,
        device,
        label,
        app,
        placement,
    } = c;
    let di = (device - sh.first_dev) as usize;
    sh.rng_draws += 1;
    let (service, job) = match placement {
        PlacementSite::Edge => {
            let service = edge_service(&mut sh.rngs[di], ctx, app);
            let job = EdgeJob::Exec {
                app,
                label,
                service,
            };
            (service, job)
        }
        PlacementSite::Cloud if ctx.hybrid => {
            // The synthesized on-device filter tier runs first: a cheap
            // salience detector, far lighter than the full model
            // (bounded so it never dominates the device).
            let service = edge_service(&mut sh.rngs[di], ctx, app)
                .mul_f64(0.02)
                .min(SimDuration::from_millis(40));
            let job = EdgeJob::Filter {
                app,
                label,
                service,
            };
            (service, job)
        }
        PlacementSite::Cloud => {
            let bytes = upload_bytes(ctx, app);
            let send = ctx.edge_rpc.send_cost(&mut sh.rngs[di], bytes);
            let uplink = Effect::Uplink {
                task,
                label,
                app,
                site: PlacementSite::Cloud,
                capture: at,
                network: send,
                management: SimDuration::ZERO,
                exec: SimDuration::ZERO,
            };
            emit(sh, device, at + send, uplink);
            return;
        }
    };
    sh.draw(ctx, di, Draw::Compute(service));
    let depth = sh.submit(at, device, task, service, job);
    if ctx.trace {
        // The tracer is the hub's; the spillover drain emits directly.
        emit(sh, device, at, Effect::QueueDepth { depth });
    }
}

/// Drains this shard's FIFO completions due by `t`, in global head-time
/// order (wake entries are exact head times or stale-early duplicates).
fn drain_completions(sh: &mut Shard, ctx: &ShardCtx, t: SimTime) {
    let mut done = std::mem::take(&mut sh.done_scratch);
    while let Some(&Reverse((et, dev))) = sh.wake.peek() {
        if et > t {
            break;
        }
        sh.wake.pop();
        sh.wake_ops += 1;
        let di = (dev - sh.first_dev) as usize;
        match sh.fifos[di].next_wakeup() {
            Some(actual) if actual <= t => {
                sh.fifos[di].advance_into(actual, &mut done);
                if let Some(next) = sh.fifos[di].next_wakeup() {
                    sh.push_wake(next, dev);
                }
                if ctx.trace {
                    let depth = sh.fifos[di].load() as u64;
                    emit(sh, dev, actual, Effect::QueueDepth { depth });
                }
                // Drain in place: `done` keeps its high-water capacity
                // across batches instead of reallocating per completion.
                for (finish, id, queued, job) in done.drain(..) {
                    sh.events += 1;
                    edge_completion(sh, ctx, dev, finish, id, queued, job);
                }
            }
            Some(actual) => sh.push_wake(actual, dev),
            None => {}
        }
    }
    sh.done_scratch = done;
}

fn edge_completion(
    sh: &mut Shard,
    ctx: &ShardCtx,
    dev: u32,
    finish: SimTime,
    id: u64,
    queued: SimDuration,
    job: EdgeJob,
) {
    let task = (id / 4) as u32; // `edge_job`'s inverse
    let di = (dev - sh.first_dev) as usize;
    match job {
        EdgeJob::Exec {
            app,
            label,
            service,
        }
        | EdgeJob::Filter {
            app,
            label,
            service,
        } => {
            // An edge task uploads its result, a radio draw of its own; a
            // filtered cloud task its input, which the hub charges.
            use PlacementSite::{Cloud, Edge};
            let (site, bytes, exec) = match job {
                EdgeJob::Exec { .. } => (Edge, result_bytes(ctx, app), service),
                _ => (Cloud, upload_bytes(ctx, app), SimDuration::ZERO),
            };
            if site == Edge {
                sh.draw(ctx, di, Draw::Radio(bytes));
            }
            sh.rng_draws += 1;
            let send = ctx.edge_rpc.send_cost(&mut sh.rngs[di], bytes);
            let uplink = Effect::Uplink {
                task,
                label,
                app,
                site,
                capture: finish - queued - service,
                network: send,
                management: queued,
                exec,
            };
            emit(sh, dev, finish + send, uplink);
        }
        EdgeJob::Spillover { slot } => {
            // Degraded re-execution finished: the result is already on
            // the device, so the task completes with no downlink leg.
            emit(sh, dev, finish, Effect::FinishLocal { slot, queued });
        }
    }
}

/// On-device service time: the app's edge slow-down is calibrated for
/// the drone's Cortex-A8; other device classes scale proportionally.
pub(super) fn edge_service(rng: &mut SmallRng, ctx: &ShardCtx, app: App) -> SimDuration {
    let factor = (app.edge_slowdown() * ctx.device_factor).max(1.0);
    let cloud = ctx.profile(app).exec.sample(rng);
    cloud.mul_f64(factor)
}

fn scaled_input_bytes(ctx: &ShardCtx, app: App) -> u64 {
    ((ctx.profile(app).input_bytes as f64) * ctx.input_scale).max(1.0) as u64
}

/// What a cloud-placed capture of `app` puts on the uplink.
pub(super) fn upload_bytes(ctx: &ShardCtx, app: App) -> u64 {
    let mut upload = (scaled_input_bytes(ctx, app) as f64) * ctx.upload_fraction;
    if ctx.hybrid {
        // The synthesized collect tier is rate-adaptive: it never offers
        // more than ~70% of the device's fair share of the wireless
        // medium, so HiveMind "does not saturate the network links" even
        // at 8 MB / 32 fps (Sec. 5.6, Fig. 17a) — excess pixels are
        // culled by the on-device filter instead.
        upload = upload.min(ctx.uplink_budget);
    }
    (upload as u64).max(1)
}

/// What an edge-placed task of `app` puts on the uplink: its result.
pub(super) fn result_bytes(ctx: &ShardCtx, app: App) -> u64 {
    ctx.profile(app).output_bytes.max(1)
}
