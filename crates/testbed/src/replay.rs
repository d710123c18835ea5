//! One replay: browser + per-group servers + the simulated network.
//!
//! This is the Mahimahi-equivalent core of the paper's testbed (§4.1): the
//! page's server groups become independent replay servers behind the
//! emulated DSL access link, the browser loads the page, and we collect the
//! timing metrics plus the server-side request trace.
//!
//! This module holds the replay's *vocabulary* — configuration, inputs,
//! outcome and error types; the event loop itself is the sans-IO netsim
//! adapter in `driver.rs`.

use crate::prepared::PreparedPage;
use h2push_browser::{BrowserConfig, LoadResult, PreparedScan};
use h2push_netsim::{NetStats, NetworkSpec, SimDuration, SimTime};
use h2push_server::Prepared as ServerPrepared;
use h2push_strategies::{RunTrace, Strategy};
use h2push_webmodel::{Page, RecordDb, ResourceId};
use std::collections::HashMap;
use std::sync::Arc;

/// Which protocol the replay runs over.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Protocol {
    /// HTTP/2 (with whatever push strategy is configured).
    #[default]
    H2,
    /// HTTP/1.1 baseline: six connections per origin, no push (any push
    /// strategy is ignored).
    H1,
}

/// Configuration of one replay.
#[derive(Debug, Clone)]
pub struct ReplayConfig {
    /// Access-link profile (defaults to the paper's DSL).
    pub network: NetworkSpec,
    /// Browser knobs (push enablement is derived from the strategy).
    pub browser: BrowserConfig,
    /// The push strategy under test. Shared (`Arc`) because one strategy
    /// typically serves every rep, connection and worker thread of a
    /// measurement: deriving a per-rep config or standing up a per-group
    /// server is a pointer bump, never a deep clone of the order vectors.
    pub strategy: Arc<Strategy>,
    /// Protocol to replay over.
    pub protocol: Protocol,
    /// Extra one-way delay per server group (internet mode gives far-away
    /// third parties their real distance; the testbed leaves this empty).
    pub server_extra_delay: HashMap<usize, SimDuration>,
    /// Per-request think time on the servers (zero in the testbed, §4.1).
    pub server_think: SimDuration,
    /// Resources already in the browser cache (warm revisit).
    pub warm_cache: Vec<ResourceId>,
    /// Whether servers honor `cache-digest` headers (suppressing pushes of
    /// cached resources). Irrelevant on cold loads.
    pub server_honors_digest: bool,
    /// Abort the replay after this much simulated time.
    pub deadline: SimDuration,
    /// Watchdog: abort the replay once the netsim loop has processed this
    /// many internal events. Sim-time deadlines cannot catch a zero-delay
    /// livelock (two endpoints ping-ponging frames without advancing the
    /// clock past the deadline check granularity is still bounded, but an
    /// adversarial peer can force unbounded *work* per unit sim-time); the
    /// event budget bounds work directly. The default is far above any
    /// benign replay.
    pub watchdog_events: u64,
    /// Adversarial-peer resource limits applied to *both* endpoints of
    /// every HTTP/2 connection in the replay. Purely local enforcement —
    /// never advertised in SETTINGS — so swapping limits never changes
    /// wire bytes on benign workloads (asserted by the equality suite).
    pub limits: h2push_h2proto::ConnLimits,
}

impl ReplayConfig {
    /// The paper's deterministic testbed profile for `strategy` (accepts
    /// an owned [`Strategy`] or an already-shared `Arc<Strategy>`).
    pub fn testbed(strategy: impl Into<Arc<Strategy>>) -> Self {
        ReplayConfig {
            network: NetworkSpec::dsl_testbed(),
            browser: BrowserConfig::default(),
            strategy: strategy.into(),
            protocol: Protocol::H2,
            server_extra_delay: HashMap::new(),
            server_think: SimDuration::ZERO,
            warm_cache: Vec::new(),
            server_honors_digest: true,
            deadline: SimDuration::from_millis(180_000),
            watchdog_events: 50_000_000,
            limits: h2push_h2proto::ConnLimits::new(),
        }
    }
}

/// What a replay produced.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayOutcome {
    /// Browser-side measurements.
    pub load: LoadResult,
    /// Request order observed by the main server (for §4.2 push-order
    /// computation).
    pub trace: RunTrace,
    /// Body bytes the main server pushed.
    pub server_pushed_bytes: u64,
    /// Network-level fault and loss-recovery counters (all zero on a
    /// fault-free link).
    pub net: NetStats,
}

/// Replay failure modes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplayError {
    /// The simulation quiesced before onload (a wiring bug or an
    /// unservable page).
    Stalled { at: SimTime },
    /// The deadline passed.
    DeadlineExceeded,
    /// The event-count watchdog fired: the netsim loop processed more
    /// internal events than [`ReplayConfig::watchdog_events`] allows —
    /// the run was livelocking (adversarial input or a wiring bug).
    Watchdog { events: u64 },
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayError::Stalled { at } => write!(f, "replay stalled at {at}"),
            ReplayError::DeadlineExceeded => write!(f, "replay deadline exceeded"),
            ReplayError::Watchdog { events } => {
                write!(f, "watchdog fired after {events} simulation events")
            }
        }
    }
}

impl std::error::Error for ReplayError {}

/// The immutable inputs of a replay: the page model and everything derived
/// from the page alone — the record-and-replay response database, the
/// browser's page scan and the server's push URLs. Built once per page
/// (the DB walk is the expensive part) and shared by reference across
/// every repetition, connection and thread — `Arc` clones are pointer
/// bumps.
#[derive(Debug, Clone)]
pub struct ReplayInputs {
    /// The page under replay.
    pub page: Arc<Page>,
    /// Recorded responses for every resource of `page`.
    pub db: Arc<RecordDb>,
    /// The browser's scan of `page`, handed to every load of it.
    pub(crate) scan: Arc<PreparedScan>,
    /// The push URLs of `page`, attached to every H2 server of a replay.
    pub(crate) server: Arc<ServerPrepared>,
    /// The HPACK memos ([`PreparedPage`]); `None` encodes and decodes every
    /// header block. Attached with [`ReplayInputs::prepared`]; outputs are
    /// byte-identical either way.
    pub(crate) prepared: Option<Arc<PreparedPage>>,
}

impl ReplayInputs {
    /// Attach a [`PreparedPage`] over these inputs' own scan and push URLs
    /// (build once, share across every rep and config touching this page).
    /// No observable output changes — only per-rep work is skipped.
    pub fn prepared(mut self) -> Self {
        if self.prepared.is_none() {
            let (scan, server) = (Arc::clone(&self.scan), Arc::clone(&self.server));
            self.prepared = Some(Arc::new(PreparedPage::from_parts(scan, server)));
        }
        self
    }

    /// The attached precomputation, if any.
    pub fn prepared_page(&self) -> Option<&Arc<PreparedPage>> {
        self.prepared.as_ref()
    }
}

impl From<Arc<Page>> for ReplayInputs {
    fn from(page: Arc<Page>) -> Self {
        let db = Arc::new(RecordDb::record(&page));
        let scan = Arc::new(PreparedScan::build(&page));
        let server = Arc::new(ServerPrepared::build(&page));
        ReplayInputs { page, db, scan, server, prepared: None }
    }
}

impl From<Page> for ReplayInputs {
    fn from(page: Page) -> Self {
        Self::from(Arc::new(page))
    }
}

impl From<&Page> for ReplayInputs {
    fn from(page: &Page) -> Self {
        Self::from(Arc::new(page.clone()))
    }
}

impl From<&ReplayInputs> for ReplayInputs {
    fn from(inputs: &ReplayInputs) -> Self {
        inputs.clone()
    }
}

/// One replay of `inputs` under `cfg` through [`crate::RunPlan`], the
/// one way to run a replay; the crate's unit tests share it.
#[cfg(test)]
pub(crate) fn run_once(
    inputs: impl Into<ReplayInputs>,
    cfg: &ReplayConfig,
) -> Result<ReplayOutcome, ReplayError> {
    crate::RunPlan::new(inputs).config(cfg.clone()).run_one().map(|run| run.outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2push_webmodel::{PageBuilder, ResourceSpec};

    fn page() -> Page {
        let mut b = PageBuilder::new("replay-test", "r.test", 60_000, 5_000);
        let third = b.origin("cdn.other.net", 1, false);
        b.resource(ResourceSpec::css(0, 20_000, 300, 0.3));
        b.resource(ResourceSpec::js(0, 25_000, 1_000, 30_000));
        b.resource(ResourceSpec::image(0, 40_000, 20_000, true, 2.0));
        b.resource(ResourceSpec::js_async(third, 10_000, 30_000, 5_000));
        b.text_paint(10_000, 1.0);
        b.text_paint(40_000, 1.0);
        b.build()
    }

    #[test]
    fn no_push_replay_completes() {
        let out = run_once(page(), &ReplayConfig::testbed(Strategy::NoPush)).unwrap();
        assert!(out.load.finished());
        // connectEnd ≈ 3 RTT (DNS local, TCP+TLS1.2) = ~150 ms.
        let ce = out.load.connect_end.as_millis_f64();
        assert!((145.0..165.0).contains(&ce), "connectEnd {ce}");
        // PLT plausible: several RTTs + transfer + exec, well under 5 s.
        let plt = out.load.plt();
        assert!((200.0..5_000.0).contains(&plt), "plt {plt}");
        assert_eq!(out.server_pushed_bytes, 0);
        // The main server saw the html + 3 same-group requests.
        assert_eq!(out.trace.order.len(), 4);
        assert_eq!(out.trace.order[0], ResourceId(0));
    }

    #[test]
    fn replay_is_deterministic() {
        let cfg = ReplayConfig::testbed(Strategy::NoPush);
        let a = run_once(page(), &cfg).unwrap();
        let b = run_once(page(), &cfg).unwrap();
        assert_eq!(a.load.plt(), b.load.plt());
        assert_eq!(a.load.speed_index(), b.load.speed_index());
        assert_eq!(a.trace.order, b.trace.order);
    }

    #[test]
    fn replay_of_shared_inputs_matches_cold_replay() {
        // Sharing the page/DB through Arc must not change a single output.
        let p = page();
        let cfg = ReplayConfig::testbed(Strategy::NoPush);
        let cold = run_once(&p, &cfg).unwrap();
        let inputs = ReplayInputs::from(p);
        let a = run_once(&inputs, &cfg).unwrap();
        let b = run_once(&inputs, &cfg).unwrap();
        assert_eq!(cold.load.plt(), a.load.plt());
        assert_eq!(cold.load.speed_index(), a.load.speed_index());
        assert_eq!(cold.trace.order, a.trace.order);
        assert_eq!(a.load.plt(), b.load.plt());
        assert_eq!(a.trace.order, b.trace.order);
    }

    #[test]
    fn preparing_and_cloning_share_the_inputs_scan_and_push_urls() {
        let inputs = ReplayInputs::from(page());
        let (clone, prepared) = (inputs.clone(), inputs.clone().prepared());
        let memos = prepared.prepared_page().expect("prepared inputs");
        for other in [&clone, &prepared] {
            assert!(Arc::ptr_eq(&inputs.scan, &other.scan));
            assert!(Arc::ptr_eq(&inputs.server, &other.server));
        }
        assert!(Arc::ptr_eq(&inputs.scan, memos.scan()), "preparing built a second scan");
        assert!(Arc::ptr_eq(&inputs.server, memos.server()), "preparing built second push URLs");
    }

    #[test]
    fn watchdog_aborts_runaway_replays() {
        let mut cfg = ReplayConfig::testbed(Strategy::NoPush);
        cfg.watchdog_events = 10; // no page loads in 10 simulation events
        match run_once(page(), &cfg) {
            Err(ReplayError::Watchdog { events }) => assert!(events > 10),
            other => panic!("expected watchdog, got {other:?}"),
        }
    }

    #[test]
    fn default_watchdog_budget_is_inert() {
        // The default budget is far above what a benign replay consumes:
        // outputs are identical to a watchdog-free notion of the run.
        let p = page();
        let cfg = ReplayConfig::testbed(Strategy::NoPush);
        let a = run_once(&p, &cfg).unwrap();
        let mut huge = ReplayConfig::testbed(Strategy::NoPush);
        huge.watchdog_events = u64::MAX;
        let b = run_once(&p, &huge).unwrap();
        assert_eq!(a.load, b.load);
        assert_eq!(a.trace.order, b.trace.order);
    }

    #[test]
    fn push_list_transfers_push_bytes() {
        let p = page();
        let strategy = Strategy::PushList { order: vec![ResourceId(1), ResourceId(2)] };
        let out = run_once(&p, &ReplayConfig::testbed(strategy)).unwrap();
        assert!(out.load.finished());
        assert_eq!(out.server_pushed_bytes, 45_000);
        assert_eq!(out.load.pushed_count, 2);
        // Pushed resources are not requested: html + image only.
        assert_eq!(out.trace.order.len(), 2);
    }

    #[test]
    fn interleaved_strategy_completes_and_pushes() {
        let p = page();
        let strategy = Strategy::Interleaved {
            offset: 6_000,
            critical: vec![ResourceId(1)],
            after: vec![ResourceId(3)],
        };
        let out = run_once(&p, &ReplayConfig::testbed(strategy)).unwrap();
        assert!(out.load.finished());
        assert_eq!(out.load.pushed_count, 2);
    }

    #[test]
    fn push_helps_late_referenced_css_on_large_html() {
        // A large document whose CSS is referenced late: push should beat
        // no-push on first paint substantially (the paper's premise).
        let mut b = PageBuilder::new("late-css", "l.test", 150_000, 3_000);
        b.resource(ResourceSpec::css(0, 30_000, 2_000, 0.3));
        b.text_paint(10_000, 1.0);
        let p = b.build();
        let no_push = run_once(&p, &ReplayConfig::testbed(Strategy::NoPush)).unwrap();
        let push = run_once(
            &p,
            &ReplayConfig::testbed(Strategy::Interleaved {
                offset: 4_096,
                critical: vec![ResourceId(1)],
                after: vec![],
            }),
        )
        .unwrap();
        let fp_no = no_push.load.first_paint().unwrap().since(no_push.load.connect_end);
        let fp_push = push.load.first_paint().unwrap().since(push.load.connect_end);
        assert!(
            fp_push.as_millis_f64() < fp_no.as_millis_f64() * 0.8,
            "interleaving must speed first paint: {fp_push} vs {fp_no}"
        );
    }
}

#[cfg(test)]
mod cache_tests {
    use super::*;
    use h2push_strategies::push_all;
    use h2push_webmodel::{PageBuilder, ResourceSpec};

    fn page() -> Page {
        let mut b = PageBuilder::new("warm", "warm.test", 40_000, 4_000);
        b.resource(ResourceSpec::css(0, 20_000, 300, 0.4)); // 1
        b.resource(ResourceSpec::js(0, 30_000, 1_000, 10_000)); // 2
        b.resource(ResourceSpec::image(0, 25_000, 10_000, true, 1.5)); // 3
        b.text_paint(8_000, 1.0);
        b.build()
    }

    #[test]
    fn warm_cache_speeds_up_the_load() {
        let p = page();
        let cold = run_once(&p, &ReplayConfig::testbed(Strategy::NoPush)).unwrap();
        let mut cfg = ReplayConfig::testbed(Strategy::NoPush);
        cfg.warm_cache = vec![ResourceId(1), ResourceId(2), ResourceId(3)];
        let warm = run_once(&p, &cfg).unwrap();
        assert!(
            warm.load.plt() < cold.load.plt() * 0.8,
            "warm {} vs cold {}",
            warm.load.plt(),
            cold.load.plt()
        );
        // Cached resources never hit the network: only the HTML request.
        assert_eq!(warm.trace.order.len(), 1);
    }

    #[test]
    fn digest_aware_server_skips_cached_pushes() {
        let p = page();
        let mut cfg = ReplayConfig::testbed(push_all(&p, &[]));
        cfg.warm_cache = vec![ResourceId(1), ResourceId(2)];
        let out = run_once(&p, &cfg).unwrap();
        // Only the (uncached) image is pushed.
        assert_eq!(out.server_pushed_bytes, 25_000);
        assert_eq!(out.load.cancelled_pushes, 0, "nothing to cancel — never promised");
    }

    #[test]
    fn digest_oblivious_server_wastes_push_bytes() {
        let p = page();
        let mut cfg = ReplayConfig::testbed(push_all(&p, &[]));
        cfg.warm_cache = vec![ResourceId(1), ResourceId(2)];
        cfg.server_honors_digest = false;
        let out = run_once(&p, &cfg).unwrap();
        // The server queues everything; the client cancels the cached two
        // (bytes may already be in flight — the §2.1 waste).
        assert_eq!(out.server_pushed_bytes, 75_000);
        assert_eq!(out.load.cancelled_pushes, 2);
        assert!(out.load.finished());
    }

    #[test]
    fn warm_cache_with_digest_is_not_slower_than_cold_push() {
        let p = page();
        let cold = run_once(&p, &ReplayConfig::testbed(push_all(&p, &[]))).unwrap();
        let mut cfg = ReplayConfig::testbed(push_all(&p, &[]));
        cfg.warm_cache = vec![ResourceId(1), ResourceId(2), ResourceId(3)];
        let warm = run_once(&p, &cfg).unwrap();
        assert!(warm.load.speed_index() <= cold.load.speed_index() + 1.0);
    }
}

#[cfg(test)]
mod h1_tests {
    use super::*;
    use h2push_webmodel::{PageBuilder, ResourceSpec};

    fn page() -> Page {
        let mut b = PageBuilder::new("h1-replay", "h1r.test", 50_000, 4_000);
        let third = b.origin("cdn.other.net", 1, false);
        b.resource(ResourceSpec::css(0, 15_000, 300, 0.4));
        b.resource(ResourceSpec::js(0, 20_000, 1_000, 15_000));
        for i in 0..8 {
            b.resource(ResourceSpec::image(0, 18_000, 10_000 + i * 4_000, i < 3, 1.0));
        }
        b.resource(ResourceSpec::js_async(third, 8_000, 30_000, 3_000));
        b.text_paint(8_000, 1.0);
        b.text_paint(35_000, 1.0);
        b.build()
    }

    fn h1_config() -> ReplayConfig {
        let mut cfg = ReplayConfig::testbed(Strategy::NoPush);
        cfg.protocol = Protocol::H1;
        cfg
    }

    #[test]
    fn h1_replay_completes() {
        let out = run_once(page(), &h1_config()).unwrap();
        assert!(out.load.finished());
        assert_eq!(out.load.pushed_count, 0, "no push over HTTP/1.1");
        assert_eq!(out.server_pushed_bytes, 0);
        // 12 resources requested (html + 11 subresources).
        assert_eq!(out.load.requests, 12);
    }

    #[test]
    fn h1_is_deterministic() {
        let a = run_once(page(), &h1_config()).unwrap();
        let b = run_once(page(), &h1_config()).unwrap();
        assert_eq!(a.load.plt(), b.load.plt());
        assert_eq!(a.load.speed_index(), b.load.speed_index());
    }

    #[test]
    fn h2_beats_h1_on_a_many_object_page() {
        // The paper's motivating context (§1–§3, Varvello et al.): H2's
        // multiplexing beats H1's six-connection pool on pages with many
        // small objects at a non-trivial RTT.
        let p = page();
        let h1 = run_once(&p, &h1_config()).unwrap();
        let h2 = run_once(&p, &ReplayConfig::testbed(Strategy::NoPush)).unwrap();
        assert!(
            h2.load.plt() < h1.load.plt(),
            "H2 {} ms should beat H1 {} ms",
            h2.load.plt(),
            h1.load.plt()
        );
    }

    #[test]
    fn h1_ignores_push_strategies() {
        let p = page();
        let mut cfg = h1_config();
        cfg.strategy = h2push_strategies::push_all(&p, &[]).into();
        let out = run_once(&p, &cfg).unwrap();
        assert!(out.load.finished());
        assert_eq!(out.load.pushed_count, 0);
    }
}

#[cfg(test)]
mod warm_h1_tests {
    use super::*;
    use h2push_webmodel::{PageBuilder, ResourceSpec};

    #[test]
    fn h1_with_warm_cache_skips_cached_fetches() {
        let mut b = PageBuilder::new("h1-warm", "hw.test", 30_000, 3_000);
        b.resource(ResourceSpec::css(0, 10_000, 200, 0.5));
        b.resource(ResourceSpec::image(0, 15_000, 8_000, true, 1.0));
        b.text_paint(6_000, 1.0);
        let p = b.build();
        let mut cfg = ReplayConfig::testbed(Strategy::NoPush);
        cfg.protocol = Protocol::H1;
        cfg.warm_cache = vec![ResourceId(1), ResourceId(2)];
        let warm = run_once(&p, &cfg).unwrap();
        assert!(warm.load.finished());
        // Only the document goes over the wire.
        assert_eq!(warm.load.requests, 1);
        let mut cold_cfg = ReplayConfig::testbed(Strategy::NoPush);
        cold_cfg.protocol = Protocol::H1;
        let cold = run_once(&p, &cold_cfg).unwrap();
        assert!(warm.load.plt() < cold.load.plt());
    }
}
