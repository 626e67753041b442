//! The DRAM module: banks, buses, refresh, and open-page row state.

use bimodal_obs::{anatomy, BandwidthTracker, TrafficClass};

use crate::bank::{Bank, RowEvent};
use crate::config::{DramConfig, PagePolicy};
use crate::request::{Completion, Location, Op, Request};
use crate::stats::{BankStats, DramStats};
use crate::timing::Cycle;

/// Result of opening a row ahead of time (the parallel tag+data
/// optimization of the Bi-Modal cache opens the data row while tags are
/// being read from the metadata bank).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpenRowOutcome {
    /// Cycle at which the row is open in the row buffer.
    pub row_open: Cycle,
    /// What the row buffer did to get there.
    pub row_event: RowEvent,
}

/// A DRAM module: a set of channels/ranks/banks behind per-channel data
/// buses. Each request is serviced on arrival ([`DramModule::access`]),
/// in call order, against the banks' open-page row state: it waits for
/// its bank, refresh, tFAW and its channel's bus, and there is no
/// request queue to reorder.
#[derive(Debug)]
pub struct DramModule {
    config: DramConfig,
    banks: Vec<Bank>,
    bank_stats: Vec<BankStats>,
    /// Running sum over all banks, so [`DramModule::stats`] is O(1) —
    /// the observability layer reads it on every sampled access.
    totals: BankStats,
    /// Refresh epoch (`time / tREFI`) last observed per bank; a new epoch
    /// closes the row buffer (refresh precharges all banks).
    bank_epoch: Vec<u64>,
    /// Last four activate times per rank (and how many are valid), for
    /// the tFAW constraint.
    rank_activates: Vec<([Cycle; 4], u8)>,
    bus_free_at: Vec<Cycle>,
    refresh_stalls: u64,
    /// Traffic class the next command is attributed to; set by the
    /// issuing scheme via [`DramModule::set_class`] before each access.
    class: TrafficClass,
    /// Whether the commands being issued are drained background
    /// (deferred-queue) work; their bank occupancy is marked so the
    /// latency anatomy can attribute later accesses' waits to it.
    /// Transient — toggled around each drain, never true at checkpoint
    /// boundaries.
    deferred_mode: bool,
    bandwidth: BandwidthTracker,
}

impl DramModule {
    /// Creates a module from a validated configuration.
    ///
    /// # Panics
    ///
    /// Panics if `config.validate()` fails; configurations are static
    /// experiment inputs, so a bad one is a programming error.
    #[must_use]
    pub fn new(config: DramConfig) -> Self {
        if let Err(e) = config.validate() {
            panic!("invalid DRAM configuration: {e}");
        }
        let n_banks = config.total_banks() as usize;
        DramModule {
            banks: (0..n_banks).map(|_| Bank::new()).collect(),
            bank_stats: vec![BankStats::default(); n_banks],
            totals: BankStats::default(),
            bank_epoch: vec![0; n_banks],
            rank_activates: vec![
                ([0; 4], 0);
                (config.channels * config.ranks_per_channel) as usize
            ],
            bus_free_at: vec![0; config.channels as usize],
            refresh_stalls: 0,
            class: TrafficClass::Other,
            deferred_mode: false,
            bandwidth: BandwidthTracker::new(config.channels as usize, n_banks),
            config,
        }
    }

    /// Sets the traffic class attributed to subsequent commands. A plain
    /// register store: schemes set it immediately before each DRAM
    /// operation they issue.
    #[inline]
    pub fn set_class(&mut self, class: TrafficClass) {
        self.class = class;
    }

    /// Marks subsequent commands as drained background (deferred-queue)
    /// work. The drain loop brackets itself with `true`/`false`.
    #[inline]
    pub fn set_deferred_mode(&mut self, on: bool) {
        self.deferred_mode = on;
    }

    /// Cycles a column access's CAS + data burst of `bytes` takes,
    /// ignoring queueing and row state. Used to estimate the latency a
    /// fused tag+data burst avoided.
    #[must_use]
    pub fn column_cost(&self, bytes: u32) -> Cycle {
        self.config.timing.cl + self.config.burst_cycles(bytes)
    }

    /// Per-class bandwidth and occupancy counters.
    #[must_use]
    pub fn bandwidth(&self) -> &BandwidthTracker {
        &self.bandwidth
    }

    /// Turns on the per-set access heatmap (a hash insert per access, so
    /// off unless an observer wants it).
    pub fn enable_heatmap(&mut self) {
        self.bandwidth.enable_heatmap();
    }

    /// The configuration this module was built with.
    #[must_use]
    pub fn config(&self) -> &DramConfig {
        &self.config
    }

    fn bank_index(&self, loc: Location) -> usize {
        let c = &self.config;
        assert!(
            loc.channel < c.channels
                && loc.rank < c.ranks_per_channel
                && loc.bank < c.banks_per_rank,
            "location {loc:?} out of range for geometry {}x{}x{}",
            c.channels,
            c.ranks_per_channel,
            c.banks_per_rank
        );
        ((loc.channel * c.ranks_per_channel + loc.rank) * c.banks_per_rank + loc.bank) as usize
    }

    fn rank_index(&self, loc: Location) -> usize {
        (loc.channel * self.config.ranks_per_channel + loc.rank) as usize
    }

    /// Enforces the four-activate window: if `at` would be the fifth
    /// activate within `tFAW` of this rank, push it out, then record it.
    ///
    /// Transaction-level approximation: the recorded time is the
    /// (constrained) service start rather than the precise ACT command
    /// cycle, slightly under-enforcing the window when a precharge
    /// precedes the activate.
    fn faw_adjust(&mut self, loc: Location, at: Cycle, will_activate: bool) -> Cycle {
        let faw = self.config.timing.faw;
        if faw == 0 || !will_activate {
            return at;
        }
        let rank = self.rank_index(loc);
        let (window, count) = &mut self.rank_activates[rank];
        // window[0] is the oldest of the last four activates; a fifth
        // activate must wait until tFAW past it.
        let earliest = if *count < 4 {
            at
        } else {
            at.max(window[0] + faw)
        };
        window.rotate_left(1);
        window[3] = earliest;
        *count = (*count + 1).min(4);
        earliest
    }

    /// Pushes `t` past any refresh window it falls into, and closes the row
    /// buffer if a refresh happened since the bank was last touched.
    fn refresh_adjust(&mut self, bank_idx: usize, t: Cycle) -> Cycle {
        let refi = self.config.timing.refi;
        if refi == 0 {
            return t;
        }
        let rfc = self.config.timing.rfc;
        let epoch = t / refi;
        if epoch > self.bank_epoch[bank_idx] {
            // A refresh has occurred since the last access: the row buffer
            // contents were lost to the precharge-all. The precharge was
            // part of the refresh itself, so no tRP is charged here.
            // Each crossed epoch occupied the bank for tRFC; attribute
            // that occupancy (no data-bus time) to the Refresh class.
            let crossed = epoch - self.bank_epoch[bank_idx];
            self.bandwidth
                .record_bank_busy(bank_idx, TrafficClass::Refresh, crossed * rfc);
            self.bank_epoch[bank_idx] = epoch;
            self.banks[bank_idx].discard_row();
        }
        let window_start = epoch * refi;
        if epoch >= 1 && t < window_start + rfc {
            self.refresh_stalls += 1;
            window_start + rfc
        } else {
            t
        }
    }

    /// Opens (activates) `loc.row` without performing a column access.
    ///
    /// Used to overlap the data-row activation with a metadata read on a
    /// different channel. Row-buffer events are recorded against the bank.
    pub fn open_row_hint(&mut self, loc: Location, at: Cycle) -> OpenRowOutcome {
        let idx = self.bank_index(loc);
        let probe = at.max(self.banks[idx].ready_at());
        let at = self.refresh_adjust(idx, probe);
        let at = self.faw_adjust(loc, at, !self.banks[idx].would_hit(loc.row));
        let timing = self.config.timing;
        let prep = self.banks[idx].prepare_row(loc.row, at, &timing);
        self.note_row_event(idx, prep.event);
        OpenRowOutcome {
            row_open: prep.row_open,
            row_event: prep.event,
        }
    }

    /// A column access against a row assumed open (after
    /// [`DramModule::open_row_hint`]). If the row is no longer open (e.g. a
    /// refresh closed it), the row is transparently re-opened and the row
    /// event recorded.
    pub fn column_access(&mut self, loc: Location, bytes: u32, op: Op, at: Cycle) -> Completion {
        let idx = self.bank_index(loc);
        // The unadjusted arrival: refresh/tFAW pushes below shadow `at`,
        // and the pushed value deliberately feeds the queue-wait counter
        // (`record_transfer`), but the anatomy measures from the cycle
        // the issuer asked for.
        let orig_arrival = at;
        let probe = at.max(self.banks[idx].ready_at());
        let at = self.refresh_adjust(idx, probe);
        let at = self.faw_adjust(loc, at, !self.banks[idx].would_hit(loc.row));
        let timing = self.config.timing;
        let (cas_ready, row_event, start) = if self.banks[idx].would_hit(loc.row) {
            let start = at.max(self.banks[idx].ready_at());
            (start, None, start)
        } else {
            let prep = self.banks[idx].prepare_row(loc.row, at, &timing);
            self.note_row_event(idx, prep.event);
            (prep.row_open, Some(prep.event), prep.start)
        };
        let completion =
            self.finish_column(idx, loc, bytes, op, cas_ready, start, at, orig_arrival);
        Completion {
            row_event: row_event.unwrap_or(RowEvent::Hit),
            ..completion
        }
    }

    #[allow(clippy::too_many_arguments)] // internal timing helper: splitting loses clarity
    fn finish_column(
        &mut self,
        idx: usize,
        loc: Location,
        bytes: u32,
        op: Op,
        cas_ready: Cycle,
        start: Cycle,
        arrival: Cycle,
        orig_arrival: Cycle,
    ) -> Completion {
        let t = &self.config.timing;
        // Slow-media extension (zero on DRAM): reads wait on the media
        // before data, writes hold the bank after the burst.
        let media_read = match op {
            Op::Read => self.config.extra_read_lat,
            Op::Write => 0,
        };
        let data_ready = cas_ready + t.cl + media_read;
        let ch = loc.channel as usize;
        let xfer_start = data_ready.max(self.bus_free_at[ch]);
        let burst = self.config.burst_cycles(bytes);
        let done = xfer_start + burst;
        self.bus_free_at[ch] = done;
        // Bank occupancy is decoupled from bus-queue waits: a write holds
        // its bank for the column + burst + recovery window, not for time
        // spent queued behind other channels' transfers.
        let occupy = match op {
            Op::Read => cas_ready + media_read + t.ccd,
            Op::Write => data_ready + burst + t.wr + self.config.extra_write_lat,
        };
        // Anatomy note: the exact timing partition of this column access,
        // telescoping to `done - orig_arrival`. Read the bank's deferred
        // watermark before this op extends it.
        if anatomy::active() {
            let wait = start.saturating_sub(orig_arrival);
            let deferred = self.banks[idx]
                .deferred_until()
                .min(start)
                .saturating_sub(orig_arrival)
                .min(wait);
            anatomy::note_dram(anatomy::DramSegments {
                wait,
                deferred,
                prep: cas_ready.saturating_sub(start),
                cas: data_ready.saturating_sub(cas_ready),
                bus: xfer_start.saturating_sub(data_ready),
                burst,
            });
        }
        self.banks[idx].occupy_until(occupy);
        if self.deferred_mode {
            self.banks[idx].note_deferred(occupy);
        }
        // Attribution: pure counter adds off values the timing model just
        // computed; nothing here feeds back into timing.
        self.bandwidth.record_transfer(
            ch,
            self.class,
            burst,
            u64::from(bytes),
            start.saturating_sub(arrival),
            done,
        );
        self.bandwidth
            .record_bank_busy(idx, self.class, occupy.saturating_sub(start));
        self.bandwidth.record_access(idx as u32, loc.row);
        if self.config.page_policy == PagePolicy::Closed {
            // Auto-precharge after the column access.
            let timing = self.config.timing;
            self.banks[idx].close(occupy, &timing);
        }
        self.note_op(idx, op, bytes);
        Completion {
            arrival,
            start,
            done,
            row_event: RowEvent::Hit,
        }
    }

    /// Services one request on arrival.
    pub fn access(&mut self, req: Request) -> Completion {
        let idx = self.bank_index(req.loc);
        // Probe refresh at the time service could actually begin: a
        // request arriving just before a refresh window but queued behind
        // the bank still collides with the window.
        let probe = req.arrival.max(self.banks[idx].ready_at());
        let at = self.refresh_adjust(idx, probe);
        let at = self.faw_adjust(req.loc, at, !self.banks[idx].would_hit(req.loc.row));
        let timing = self.config.timing;
        let prep = self.banks[idx].prepare_row(req.loc.row, at, &timing);
        self.note_row_event(idx, prep.event);
        let completion = self.finish_column(
            idx,
            req.loc,
            req.bytes,
            req.op,
            prep.row_open,
            prep.start,
            req.arrival,
            req.arrival,
        );
        Completion {
            row_event: prep.event,
            ..completion
        }
    }

    /// Would a request to `loc` currently hit the row buffer?
    #[must_use]
    pub fn would_row_hit(&self, loc: Location) -> bool {
        self.banks[self.bank_index(loc)].would_hit(loc.row)
    }

    /// Earliest cycle the bank holding `loc` can accept a command.
    #[must_use]
    pub fn bank_ready_at(&self, loc: Location) -> Cycle {
        self.banks[self.bank_index(loc)].ready_at()
    }

    /// Statistics for a single bank.
    #[must_use]
    pub fn bank_stats(&self, channel: u32, rank: u32, bank: u32) -> &BankStats {
        let loc = Location::new(channel, rank, bank, 0);
        &self.bank_stats[self.bank_index(loc)]
    }

    /// Aggregate statistics over the whole module. O(1): totals are
    /// maintained incrementally as commands are recorded.
    #[must_use]
    pub fn stats(&self) -> DramStats {
        DramStats {
            totals: self.totals,
            refresh_stalls: self.refresh_stalls,
        }
    }

    fn note_row_event(&mut self, idx: usize, event: RowEvent) {
        self.bank_stats[idx].record_row_event(event);
        self.totals.record_row_event(event);
    }

    fn note_op(&mut self, idx: usize, op: Op, bytes: u32) {
        self.bank_stats[idx].record_op(op, bytes);
        self.totals.record_op(op, bytes);
    }

    /// Clears all statistics (e.g. after a warm-up phase). Timing state
    /// (open rows, bank readiness) is preserved.
    pub fn reset_stats(&mut self) {
        for b in &mut self.bank_stats {
            *b = BankStats::default();
        }
        self.totals = BankStats::default();
        self.refresh_stalls = 0;
        self.bandwidth.reset();
    }

    /// Serializes the module's mutable state (banks, stats, bandwidth
    /// accounting). The geometry and timing configuration are
    /// not written: a checkpoint is restored into a module freshly built
    /// from the same experiment configuration.
    pub fn save_state(&self, w: &mut bimodal_ckpt::SnapshotWriter) {
        use bimodal_ckpt::Snapshot;
        self.banks.save(w);
        self.bank_stats.save(w);
        self.totals.save(w);
        self.bank_epoch.save(w);
        self.rank_activates.save(w);
        self.bus_free_at.save(w);
        w.u64(self.refresh_stalls);
        self.class.save(w);
        self.bandwidth.save(w);
    }

    /// Restores state written by [`DramModule::save_state`] into a module
    /// built from the same configuration. Vector lengths are validated
    /// against the module's geometry so a checkpoint taken under a
    /// different configuration is rejected rather than silently applied.
    pub fn load_state(
        &mut self,
        r: &mut bimodal_ckpt::SnapshotReader<'_>,
    ) -> Result<(), bimodal_ckpt::CkptError> {
        use bimodal_ckpt::Snapshot;
        let banks: Vec<Bank> = Snapshot::load(r)?;
        let bank_stats: Vec<BankStats> = Snapshot::load(r)?;
        let totals: BankStats = Snapshot::load(r)?;
        let bank_epoch: Vec<u64> = Snapshot::load(r)?;
        let rank_activates: Vec<([Cycle; 4], u8)> = Snapshot::load(r)?;
        let bus_free_at: Vec<Cycle> = Snapshot::load(r)?;
        let n_banks = self.config.total_banks() as usize;
        let n_ranks = (self.config.channels * self.config.ranks_per_channel) as usize;
        if banks.len() != n_banks
            || bank_stats.len() != n_banks
            || bank_epoch.len() != n_banks
            || rank_activates.len() != n_ranks
            || bus_free_at.len() != self.config.channels as usize
        {
            return Err(r.corrupt(format!(
                "DRAM geometry mismatch: checkpoint has {} banks / {} ranks / {} channels, \
                 configuration expects {} / {} / {}",
                banks.len(),
                rank_activates.len(),
                bus_free_at.len(),
                n_banks,
                n_ranks,
                self.config.channels
            )));
        }
        let refresh_stalls = r.u64()?;
        let class: TrafficClass = Snapshot::load(r)?;
        let bandwidth: BandwidthTracker = Snapshot::load(r)?;
        if bandwidth.channels().len() != self.config.channels as usize
            || bandwidth.banks().len() != n_banks
        {
            return Err(r.corrupt("bandwidth tracker shape does not match DRAM geometry"));
        }
        self.banks = banks;
        self.bank_stats = bank_stats;
        self.totals = totals;
        self.bank_epoch = bank_epoch;
        self.rank_activates = rank_activates;
        self.bus_free_at = bus_free_at;
        self.refresh_stalls = refresh_stalls;
        self.class = class;
        self.bandwidth = bandwidth;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timing::TimingParams;

    fn no_refresh_config() -> DramConfig {
        let mut c = DramConfig::stacked(2, 8);
        c.timing = TimingParams::stacked(2).without_refresh();
        c
    }

    fn loc(bank: u32, row: u64) -> Location {
        Location::new(0, 0, bank, row)
    }

    #[test]
    fn row_hit_is_faster_than_row_miss() {
        let mut m = DramModule::new(no_refresh_config());
        let a = m.access(Request::read(loc(0, 1), 64, 0));
        assert_eq!(a.row_event, RowEvent::Empty);
        let b = m.access(Request::read(loc(0, 1), 64, a.done + 100));
        assert_eq!(b.row_event, RowEvent::Hit);
        let c = m.access(Request::read(loc(0, 2), 64, b.done + 10_000));
        assert_eq!(c.row_event, RowEvent::Miss);
        assert!(b.latency() < a.latency());
        assert!(a.latency() < c.latency());
    }

    #[test]
    fn hit_latency_is_cl_plus_burst() {
        let mut m = DramModule::new(no_refresh_config());
        m.access(Request::read(loc(0, 1), 64, 0));
        let t = m.config().timing;
        let burst = m.config().burst_cycles(64);
        let b = m.access(Request::read(loc(0, 1), 64, 10_000));
        assert_eq!(b.latency(), t.cl + burst);
    }

    #[test]
    fn bus_contention_serializes_transfers_on_one_channel() {
        let mut m = DramModule::new(no_refresh_config());
        // Warm two different banks on the same channel.
        m.access(Request::read(loc(0, 1), 64, 0));
        m.access(Request::read(loc(1, 1), 64, 0));
        // Two large simultaneous row hits must share the bus.
        let a = m.access(Request::read(loc(0, 1), 2048, 10_000));
        let b = m.access(Request::read(loc(1, 1), 2048, 10_000));
        assert!(b.done >= a.done + m.config().burst_cycles(2048));
    }

    #[test]
    fn different_channels_do_not_share_a_bus() {
        let mut m = DramModule::new(no_refresh_config());
        m.access(Request::read(Location::new(0, 0, 0, 1), 64, 0));
        m.access(Request::read(Location::new(1, 0, 0, 1), 64, 0));
        let a = m.access(Request::read(Location::new(0, 0, 0, 1), 2048, 10_000));
        let b = m.access(Request::read(Location::new(1, 0, 0, 1), 2048, 10_000));
        assert_eq!(a.done, b.done);
    }

    #[test]
    fn open_row_hint_makes_later_column_access_fast() {
        let mut m = DramModule::new(no_refresh_config());
        let t = m.config().timing;
        let hint = m.open_row_hint(loc(3, 9), 1000);
        assert_eq!(hint.row_event, RowEvent::Empty);
        assert_eq!(hint.row_open, 1000 + t.rcd);
        let col = m.column_access(loc(3, 9), 64, Op::Read, hint.row_open);
        assert_eq!(col.latency(), t.cl + m.config().burst_cycles(64));
        // The stats recorded exactly one row event and one read.
        let s = m.bank_stats(0, 0, 3);
        assert_eq!(s.row_empty, 1);
        assert_eq!(s.row_hits, 0);
        assert_eq!(s.reads, 1);
    }

    #[test]
    fn column_access_reopens_row_when_necessary() {
        let mut m = DramModule::new(no_refresh_config());
        m.access(Request::read(loc(0, 5), 64, 0));
        // Row 5 open; a column access to row 6 must re-open transparently.
        let c = m.column_access(loc(0, 6), 64, Op::Read, 10_000);
        assert_eq!(c.row_event, RowEvent::Miss);
    }

    #[test]
    fn refresh_window_delays_requests() {
        let mut c = DramConfig::stacked(1, 2);
        c.timing.refi = 1000;
        c.timing.rfc = 200;
        let mut m = DramModule::new(c);
        // Request arriving just inside the first refresh window.
        let comp = m.access(Request::read(loc(0, 1), 64, 1001));
        assert!(comp.start >= 1200);
        assert_eq!(m.stats().refresh_stalls, 1);
    }

    #[test]
    fn refresh_closes_open_rows() {
        let mut c = DramConfig::stacked(1, 2);
        c.timing.refi = 10_000;
        c.timing.rfc = 200;
        let mut m = DramModule::new(c);
        m.access(Request::read(loc(0, 1), 64, 0));
        assert!(m.would_row_hit(loc(0, 1)));
        // Past the refresh boundary the row buffer is lost.
        let comp = m.access(Request::read(loc(0, 1), 64, 20_000));
        assert_eq!(comp.row_event, RowEvent::Empty);
    }

    #[test]
    fn stats_reset_preserves_timing_state() {
        let mut m = DramModule::new(no_refresh_config());
        m.access(Request::read(loc(0, 1), 64, 0));
        m.reset_stats();
        assert_eq!(m.stats().totals.accesses(), 0);
        // Row is still open though.
        assert!(m.would_row_hit(loc(0, 1)));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_location_panics() {
        let mut m = DramModule::new(no_refresh_config());
        m.access(Request::read(Location::new(9, 0, 0, 0), 64, 0));
    }

    #[test]
    fn tfaw_limits_activation_bursts() {
        let mut c = no_refresh_config();
        c.timing.faw = 1000;
        let mut m = DramModule::new(c);
        // Five activates to five different banks of one rank, all at t=0.
        let mut starts = Vec::new();
        for b in 0..5 {
            let comp = m.access(Request::read(loc(b, 1), 64, 0));
            starts.push(comp.start);
        }
        // The fifth activate waits for the four-activate window.
        assert!(starts[4] >= starts[0] + 1000, "{starts:?}");
    }

    #[test]
    fn bandwidth_classes_sum_to_channel_busy_and_fit_elapsed() {
        let mut m = DramModule::new(no_refresh_config());
        let mut last_done = 0;
        m.set_class(TrafficClass::MetadataRead);
        for i in 0..4u32 {
            let c = m.access(Request::read(loc(i % 2, u64::from(i) + 1), 64, 0));
            last_done = last_done.max(c.done);
        }
        m.set_class(TrafficClass::DataHit);
        for i in 0..4u32 {
            let c = m.access(Request::write(loc(i % 2, 1), 64, last_done));
            last_done = last_done.max(c.done);
        }
        for ch in m.bandwidth().channels() {
            // Per-channel class cycles sum exactly to the channel's busy
            // cycles, and bus serialization bounds busy by elapsed time.
            assert_eq!(ch.busy.total_cycles(), ch.busy_cycles);
            assert!(ch.busy_cycles <= last_done);
            assert!(ch.busy_until <= last_done);
        }
        let s = m.bandwidth().summary(last_done, 8);
        assert!(s.class_totals.cycles[TrafficClass::MetadataRead.index()] > 0);
        assert!(s.class_totals.cycles[TrafficClass::DataHit.index()] > 0);
        assert_eq!(s.class_totals.total_cycles(), s.total_busy_cycles());
        // Queue waits were recorded for every transfer.
        let waits: u64 = m
            .bandwidth()
            .channels()
            .iter()
            .map(|c| c.queue_wait.count())
            .sum();
        assert_eq!(waits, 8);
    }

    #[test]
    fn refresh_windows_accrue_bank_refresh_cycles_not_bus_cycles() {
        let mut c = DramConfig::stacked(1, 2);
        c.timing.refi = 1000;
        c.timing.rfc = 200;
        let mut m = DramModule::new(c);
        m.access(Request::read(loc(0, 1), 64, 0));
        m.access(Request::read(loc(0, 1), 64, 5_500));
        let s = m.bandwidth().summary(6_000, 4);
        // Five refresh epochs crossed at 200 cycles each, on the bank.
        assert_eq!(s.bank_totals.cycles[TrafficClass::Refresh.index()], 1000);
        assert_eq!(s.class_totals.cycles[TrafficClass::Refresh.index()], 0);
    }

    #[test]
    fn closed_page_policy_never_row_hits() {
        let mut c = no_refresh_config();
        c.page_policy = crate::PagePolicy::Closed;
        let mut m = DramModule::new(c);
        let a = m.access(Request::read(loc(0, 1), 64, 0));
        assert_eq!(a.row_event, RowEvent::Empty);
        let b = m.access(Request::read(loc(0, 1), 64, a.done + 10_000));
        // Same row again, but the page was auto-precharged.
        assert_eq!(b.row_event, RowEvent::Empty);
        assert_eq!(m.stats().totals.row_hits, 0);
    }
}
