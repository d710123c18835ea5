//! The browser model: Chromium-64-like load and render behaviour (§2.2,
//! §4.2, §5 of the paper).
//!
//! What is modelled — exactly the mechanisms the paper's analysis leans on:
//!
//! * **Incremental HTML parsing** over the bytes received so far; the
//!   parser stops at classic `<script src>` tags (execution additionally
//!   waits for every stylesheet appearing earlier — the CSSOM rule that
//!   makes w2/w5 computation-bound) and at inline scripts.
//! * **Preload scanning**: references are discovered the moment the bytes
//!   containing them arrive, even while the parser is blocked.
//! * **Request priorities**: Chromium's exclusive dependency chain. Each
//!   request is spliced into a linear H2 priority chain ordered by class
//!   (HTML ≻ CSS/font ≻ blocking JS ≻ async/defer/other ≻ images), so an
//!   h2o-style server delivers responses *sequentially* in priority order —
//!   the very behaviour that makes a large HTML starve its own CSS (the
//!   paper's w1/Fig. 5 observation).
//! * **Server Push**: PUSH_PROMISEs are accepted (or cancelled with
//!   RST_STREAM CANCEL when the resource was already requested), and
//!   `SETTINGS_ENABLE_PUSH=0` implements the paper's *no push* baseline.
//! * **Rendering**: render-blocking CSS gates first paint; text paints
//!   progressively with parser progress; above-the-fold images paint when
//!   decoded. The resulting visual-progress curve feeds SpeedIndex.
//! * **A single main thread**: script execution, CSS parsing and decoding
//!   contend for it (`main_free_at`), reproducing the computation-bound
//!   pages where push cannot help (s5, w5).

use crate::result::{LoadResult, PaintSample};
use bytes::Bytes;
use h2push_h2proto::{
    CacheDigest, Connection, ErrorCode, Event, FifoScheduler, PrioritySpec, Settings,
};
use h2push_hpack::FxHashMap;
use h2push_hpack::{BlockCache, DecodeCache, HeaderList};
use h2push_netsim::{SimDuration, SimTime};
use h2push_trace::{conn_label, TraceEvent, TraceHandle};
use h2push_webmodel::{Discovery, Page, ResourceId, ResourceType, ScriptMode};
use std::sync::Arc;

/// Request priority classes, highest first (Chromium's five buckets).
const CLASS_WEIGHTS: [u16; 5] = [256, 220, 183, 147, 110];

/// Maximum parallel HTTP/1.1 connections per origin (the classic browser
/// limit the paper's §1 motivation assumes).
const H1_POOL_SIZE: usize = 6;

/// Per-stream receive window advertised on every HTTP/2 connection
/// (Chromium uses ~6 MB).
const INITIAL_WINDOW: u32 = 6 * 1024 * 1024;

/// How many times a failed or timed-out fetch is re-issued before the
/// resource is given up on. Only reachable under faults — fault-free
/// loads never time out or see transport errors.
pub const MAX_RETRIES: u32 = 2;

/// Delay before the first retry of a fetch; it doubles per attempt
/// (exponential backoff).
pub const RETRY_BACKOFF: SimDuration = SimDuration::from_millis(500);

/// Which protocol the browser speaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransportMode {
    /// HTTP/2: one multiplexed connection per server group.
    #[default]
    H2,
    /// HTTP/1.1: up to six keep-alive connections per group, one request
    /// outstanding per connection — the baseline the paper motivates
    /// against.
    H1,
}

/// Browser configuration for one load.
#[derive(Debug, Clone)]
pub struct BrowserConfig {
    /// Advertise SETTINGS_ENABLE_PUSH (false ⇒ the paper's "no push").
    pub enable_push: bool,
    /// Multiplies all CPU times; models per-run client-side processing
    /// variance (the residual noise the paper's testbed still observes).
    pub cpu_scale: f64,
    /// Protocol to load over.
    pub transport: TransportMode,
    /// Whether the preload scanner runs (discovering references in
    /// received-but-unparsed bytes). All modern browsers have one; turning
    /// it off shows how much of Server Push's promise is really just
    /// "discover earlier" — the ablation behind the guidelines' "push
    /// saves discovery time" argument.
    pub preload_scanner: bool,
    /// Resources already in the browser cache (a warm revisit). Cached
    /// resources load instantly, and the browser advertises them in a
    /// `cache-digest` header (draft-ietf-httpbis-cache-digest) so a
    /// digest-aware server can skip pushing them; pushes that slip through
    /// are cancelled (§2.1 of the paper).
    pub warm_cache: Vec<ResourceId>,
    /// Per-resource fetch timeout. `None` (the default) schedules no
    /// timers at all, keeping fault-free loads byte-identical; under fault
    /// injection a stalled transfer is cancelled and retried after this
    /// long (up to [`MAX_RETRIES`] times, [`RETRY_BACKOFF`] apart).
    pub resource_timeout: Option<SimDuration>,
    /// Hard deadline for the whole load. `None` (the default) schedules
    /// nothing; when set, a load still unfinished at the deadline is
    /// closed out as a *partial* result — PLT and SpeedIndex over what
    /// actually rendered.
    pub load_deadline: Option<SimDuration>,
    /// Adversarial-peer resource limits for every HTTP/2 connection this
    /// browser opens. Local enforcement only — never advertised in
    /// SETTINGS, so the knob is inert on benign replays.
    pub limits: h2push_h2proto::ConnLimits,
}

impl Default for BrowserConfig {
    fn default() -> Self {
        BrowserConfig {
            enable_push: true,
            cpu_scale: 1.0,
            transport: TransportMode::H2,
            preload_scanner: true,
            warm_cache: Vec::new(),
            resource_timeout: None,
            load_deadline: None,
            limits: h2push_h2proto::ConnLimits::new(),
        }
    }
}

/// What the browser asks its environment (the testbed) to do.
#[derive(Debug)]
pub enum BrowserAction {
    /// Open a TCP+TLS connection to this server group. HTTP/2 uses a
    /// single connection (slot 0); HTTP/1.1 opens up to six slots.
    OpenConnection { group: usize, slot: usize },
    /// Write bytes on connection `slot` of this group. The payload is a
    /// shared slice handed through to the network layer without copying.
    SendBytes { group: usize, slot: usize, bytes: Bytes },
    /// Wake the browser at `at` with `token`.
    SetTimer { at: SimTime, token: u64 },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ResState {
    Undiscovered,
    /// Requested or promised; transfer in progress.
    Fetching,
    /// All bytes received; evaluation not finished.
    Loaded,
    /// Fully processed (executed / parsed / decoded).
    Evaluated,
    /// Given up on after exhausting retries. Terminal: the load completes
    /// around the hole (failed CSS stops gating render, failed scripts
    /// unblock the parser) instead of hanging.
    Failed,
}

#[derive(Debug)]
struct ResInfo {
    state: ResState,
    discovered: bool,
    pushed: bool,
    received: usize,
    eval_scheduled: bool,
    /// Fetch attempts so far (0 until the first timeout/error).
    attempts: u32,
}

#[derive(Debug, Clone, Copy)]
enum StopKind {
    /// External parser-blocking script.
    Script(ResourceId),
    /// Inline script block (index into `Page::inline_scripts`).
    Inline(usize),
}

/// Pre-scanned, page-derived load inputs: parser stop points, the preload
/// scanner's HTML reference index, the visual-weight total, the index
/// that resolves a push promise to its resource, and the per-page index
/// lists the paint, CSSOM and child-discovery checks walk — everything
/// [`Browser::new`] derives from the [`Page`] alone. A pure function of the
/// page, so it is built once per page and shared across every
/// configuration and rep touching that page ([`Browser::with_scan`]);
/// [`Browser::new`] builds one on the spot.
#[derive(Debug)]
pub struct PreparedScan {
    /// Parser stop points (external blocking scripts + inline scripts),
    /// sorted by document offset.
    stops: Vec<(usize, StopKind)>,
    /// HTML references sorted by offset, for the preload scanner.
    html_refs: Vec<(usize, ResourceId)>,
    /// Deferred scripts referenced from the HTML, sorted by `(offset, id)`:
    /// their execution order once parsing ends.
    defers: Vec<ResourceId>,
    inline_count: usize,
    total_weight: f64,
    /// Resources sorted by `(host, path)`, for resolving a promised
    /// request; where several share one the first in page order is kept.
    by_url: Vec<ResourceId>,
    /// Render-blocking stylesheets referenced from the HTML, as
    /// `(offset, id)` sorted by offset: what first paint and a script's
    /// CSSOM wait on.
    blocking_css: Vec<(usize, ResourceId)>,
    /// Above-the-fold resources whose visual weight is not `<= 0.0`, in
    /// page order, as `(id, layout offset, weight)`; a resource not
    /// referenced from the HTML has offset 0 (laid out at once).
    painted: Vec<(ResourceId, usize, f64)>,
    /// Children each resource discovers when evaluated, in page order:
    /// those of resource `r` are `children[child_start[r]..child_start[r + 1]]`.
    child_start: Vec<u32>,
    children: Vec<ResourceId>,
}

impl PreparedScan {
    /// Scan `page` once. Deterministic: depends only on the page.
    pub fn build(page: &Page) -> Self {
        let mut stops: Vec<(usize, StopKind)> = page
            .resources
            .iter()
            .filter(|r| r.is_parser_blocking_script())
            .filter_map(|r| match r.discovery {
                Discovery::Html { offset } => Some((offset, StopKind::Script(r.id))),
                _ => None,
            })
            .chain(
                page.inline_scripts
                    .iter()
                    .enumerate()
                    .map(|(i, s)| (s.offset, StopKind::Inline(i))),
            )
            .collect();
        stops.sort_by_key(|&(off, _)| off);
        let mut html_refs: Vec<(usize, ResourceId)> = page
            .resources
            .iter()
            .skip(1)
            .filter_map(|r| match r.discovery {
                Discovery::Html { offset } => Some((offset, r.id)),
                _ => None,
            })
            .collect();
        html_refs.sort_by_key(|&(off, id)| (off, id));
        let defers = html_refs
            .iter()
            .map(|&(_, id)| id)
            .filter(|&id| {
                let r = page.resource(id);
                r.rtype == ResourceType::Js && r.script_mode == ScriptMode::Defer
            })
            .collect();
        let url = |id: ResourceId| (page.host_of(id), page.resource(id).path.as_str());
        let mut by_url: Vec<ResourceId> = page.resources.iter().map(|r| r.id).collect();
        by_url.sort_by_key(|&id| (url(id), id));
        by_url.dedup_by_key(|id| url(*id));
        let mut blocking_css: Vec<(usize, ResourceId)> = page
            .resources
            .iter()
            .filter(|r| r.rtype == ResourceType::Css && r.render_blocking)
            .filter_map(|r| match r.discovery {
                Discovery::Html { offset } => Some((offset, r.id)),
                _ => None,
            })
            .collect();
        blocking_css.sort_by_key(|&(off, _)| off);
        // The negation keeps what `completeness` kept when it skipped
        // `visual_weight <= 0.0`, a NaN weight included.
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        let painted = page
            .resources
            .iter()
            .filter(|r| r.above_fold && !(r.visual_weight <= 0.0))
            .map(|r| {
                let offset = match r.discovery {
                    Discovery::Html { offset } => offset,
                    _ => 0,
                };
                (r.id, offset, r.visual_weight)
            })
            .collect();
        // A stylesheet discovers its `Css` children, any resource its
        // `Script` children.
        let n = page.resources.len();
        let parent_of = |r: &h2push_webmodel::Resource| match r.discovery {
            Discovery::Css { parent }
                if page.resources.get(parent.0).is_some_and(|p| p.rtype == ResourceType::Css) =>
            {
                Some(parent.0)
            }
            Discovery::Script { parent } if parent.0 < n => Some(parent.0),
            _ => None,
        };
        let mut child_start = vec![0u32; n + 1];
        for p in page.resources.iter().filter_map(parent_of) {
            child_start[p + 1] += 1;
        }
        for i in 0..n {
            child_start[i + 1] += child_start[i];
        }
        let mut next = child_start.clone();
        let mut children = vec![ResourceId(0); child_start[n] as usize];
        for r in &page.resources {
            if let Some(p) = parent_of(r) {
                children[next[p] as usize] = r.id;
                next[p] += 1;
            }
        }
        PreparedScan {
            stops,
            html_refs,
            defers,
            inline_count: page.inline_scripts.len(),
            total_weight: page.total_visual_weight(),
            by_url,
            blocking_css,
            painted,
            child_start,
            children,
        }
    }

    /// The children `rid` discovers when evaluated.
    fn children_of(&self, rid: ResourceId) -> std::ops::Range<usize> {
        self.child_start[rid.0] as usize..self.child_start[rid.0 + 1] as usize
    }

    /// The resource `page` serves at `(authority, path)`, compared as
    /// octets: what a PUSH_PROMISE's request headers name.
    fn resource_at(&self, page: &Page, authority: &[u8], path: &[u8]) -> Option<ResourceId> {
        let url = |id: ResourceId| (page.host_of(id).as_bytes(), page.resource(id).path.as_bytes());
        let at = self.by_url.binary_search_by(|&id| url(id).cmp(&(authority, path))).ok()?;
        Some(self.by_url[at])
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Blocked {
    /// Waiting for an external script to load/execute.
    Script(ResourceId),
    /// Inline script waiting for earlier stylesheets.
    InlineCss(usize),
    /// Inline script executing on the main thread.
    InlineExec(usize),
}

#[derive(Debug, Clone, Copy)]
enum TimerKind {
    EvalDone(ResourceId),
    InlineDone(usize),
    /// The fetch of this resource (at this attempt number) ran out of
    /// time. Stamped with the attempt so a stale timer from a superseded
    /// attempt is ignored.
    ResourceTimeout(ResourceId, u32),
    /// Re-issue the fetch of this resource (after backoff).
    RetryFetch(ResourceId),
    /// The whole-page deadline: close out a partial load.
    LoadDeadline,
}

/// One HTTP/1.1 connection slot in a per-group pool.
struct H1Slot {
    conn: h2push_h1::H1ClientConn,
    current: Option<ResourceId>,
    /// The connection died (protocol error or cancelled mid-response —
    /// HTTP/1.1 cannot abort a response without closing). Dead slots keep
    /// their index (the testbed addresses connections by slot) but take no
    /// further work.
    dead: bool,
}

/// The per-group HTTP/1.1 connection pool with its priority-ordered
/// request queue.
#[derive(Default)]
struct H1Pool {
    slots: Vec<H1Slot>,
    /// Pending fetches: (class, discovery sequence, resource).
    queue: Vec<(u8, u64, ResourceId)>,
}

struct ConnState {
    conn: Connection,
    /// The priority chain: streams in dependency order (root-most first)
    /// with their class.
    chain: Vec<(u32, u8)>,
    /// Whether the cache digest was already sent on this connection.
    digest_sent: bool,
    /// Testbed slot this connection lives on. The first HTTP/2 connection
    /// to a group is slot 0; a replacement opened after a connection error
    /// takes the next slot, so bytes still in flight on the dead
    /// connection can no longer reach the new one.
    slot: usize,
}

/// Splice `stream` of priority `class` into the connection's exclusive
/// dependency chain (Chromium's scheme): it becomes an exclusive child of
/// the deepest live stream of equal-or-higher class, adopting everything
/// below. Returns the PRIORITY spec to signal.
fn splice_into_chain(cs: &mut ConnState, stream: u32, class: u8) -> PrioritySpec {
    let parent = cs.chain.iter().rev().find(|&&(_, c)| c <= class).map(|&(s, _)| s).unwrap_or(0);
    let spec =
        PrioritySpec { depends_on: parent, weight: CLASS_WEIGHTS[class as usize], exclusive: true };
    let pos = cs.chain.iter().position(|&(s, _)| s == parent).map(|i| i + 1).unwrap_or(0);
    cs.chain.insert(pos, (stream, class));
    spec
}

/// The live HTTP/2 connection to `group`, for a call that can queue output
/// on it (a request, a reset, a PRIORITY, or received bytes the endpoint
/// may answer): the group is marked for the next flush. A free function
/// over the two fields so callers keep the rest of the browser borrowable.
fn conn_for_output<'a>(
    conns: &'a mut [Option<ConnState>],
    dirty: &mut Vec<usize>,
    group: usize,
) -> Option<&'a mut ConnState> {
    let cs = conns.get_mut(group)?.as_mut()?;
    if dirty.last() != Some(&group) {
        dirty.push(group);
    }
    Some(cs)
}

/// The browser: drive it with `on_connected` / `on_bytes` / `on_timer`,
/// collect [`BrowserAction`]s, read the [`LoadResult`] when done.
pub struct Browser {
    page: Arc<Page>,
    cfg: BrowserConfig,
    /// The live HTTP/2 connection per server group, indexed by group: one
    /// table sized by the page and cleared in place between loads, so a
    /// recycled browser allocates nothing to hold these 850-byte states.
    conns: Vec<Option<ConnState>>,
    h1: FxHashMap<usize, H1Pool>,
    h1_seq: u64,
    res: Vec<ResInfo>,
    stream_map: FxHashMap<(usize, u32), ResourceId>,
    // Page-derived scan data (stop points, reference index, request
    // headers); shared across loads of the same page.
    scan: Arc<PreparedScan>,
    // Parser state.
    available: usize,
    parsed: usize,
    stop_idx: usize,
    blocked: Option<Blocked>,
    inline_done: Vec<bool>,
    parser_done: bool,
    next_ref: usize,
    // Main thread.
    main_free_at: SimTime,
    timers: FxHashMap<u64, TimerKind>,
    next_token: u64,
    // Deferred scripts pending execution after parse end.
    defer_queue: Vec<ResourceId>,
    // Timeline.
    connect_end: Option<SimTime>,
    dcl: Option<SimTime>,
    onload: Option<SimTime>,
    paints: Vec<PaintSample>,
    last_completeness: f64,
    /// Shared HPACK block cache applied to every connection opened.
    hpack_cache: Option<BlockCache>,
    /// Shared HPACK decode cache applied to every connection opened.
    hpack_decode_cache: Option<DecodeCache>,
    // Stats.
    pushed_bytes: u64,
    pushed_count: u32,
    cancelled_pushes: u32,
    requests: u32,
    // Fault handling.
    /// Next slot for a replacement HTTP/2 connection, per group.
    next_h2_slot: FxHashMap<usize, usize>,
    partial: bool,
    retries: u32,
    timeouts: u32,
    conn_errors: u32,
    actions: Vec<BrowserAction>,
    /// Groups whose HTTP/2 connection may have queued output since the
    /// last flush. Every call that can queue a frame reaches its
    /// connection through [`conn_for_output`] (or opens it in
    /// `ensure_conn`), so `flush_conns` visits these and no others.
    dirty: Vec<usize>,
    /// An input of `after_state_change` — the parse position, a resource
    /// state, `parser_done` or `dcl` — changed since it last ran.
    progress_dirty: bool,
    trace: TraceHandle,
    /// Retired HTTP/2 connection machines (from [`Browser::reset`] or a
    /// failed connection), recycled by `ensure_conn` instead of building a
    /// fresh [`Connection`] per open.
    spare_conns: Vec<ConnState>,
    /// The groups of the HTTP/2 connections this load opened, in order.
    opened: Vec<usize>,
    /// Retired HTTP/1.1 connection machines, recycled by `h1_dispatch`.
    spare_h1: Vec<h2push_h1::H1ClientConn>,
    /// Retired (emptied) HTTP/1.1 pools, recycled per group.
    spare_h1_pools: Vec<H1Pool>,
}

impl Browser {
    /// Create a browser for one load of `page`. The page is a shared
    /// immutable input: repeated loads of the same page reuse one
    /// allocation instead of deep-cloning per run.
    pub fn new(page: Arc<Page>, cfg: BrowserConfig) -> Self {
        let scan = Arc::new(PreparedScan::build(&page));
        Browser::with_scan(page, cfg, scan)
    }

    /// Like [`Browser::new`], but reusing a [`PreparedScan`] built once for
    /// this page — repeated loads skip the per-load page scan entirely.
    pub fn with_scan(page: Arc<Page>, cfg: BrowserConfig, scan: Arc<PreparedScan>) -> Self {
        let n = page.resources.len();
        let inline_count = scan.inline_count;
        Browser {
            res: (0..n)
                .map(|_| ResInfo {
                    state: ResState::Undiscovered,
                    discovered: false,
                    pushed: false,
                    received: 0,
                    eval_scheduled: false,
                    attempts: 0,
                })
                .collect(),
            conns: (0..page.server_group_count()).map(|_| None).collect(),
            page,
            cfg,
            h1: FxHashMap::default(),
            h1_seq: 0,
            stream_map: FxHashMap::default(),
            scan,
            available: 0,
            parsed: 0,
            stop_idx: 0,
            blocked: None,
            inline_done: vec![false; inline_count],
            parser_done: false,
            next_ref: 0,
            main_free_at: SimTime::ZERO,
            timers: FxHashMap::default(),
            next_token: 1,
            defer_queue: Vec::new(),
            connect_end: None,
            dcl: None,
            onload: None,
            paints: Vec::new(),
            last_completeness: 0.0,
            hpack_cache: None,
            hpack_decode_cache: None,
            pushed_bytes: 0,
            pushed_count: 0,
            cancelled_pushes: 0,
            requests: 0,
            next_h2_slot: FxHashMap::default(),
            partial: false,
            retries: 0,
            timeouts: 0,
            conn_errors: 0,
            actions: Vec::new(),
            dirty: Vec::new(),
            progress_dirty: true,
            trace: TraceHandle::off(),
            spare_conns: Vec::new(),
            opened: Vec::new(),
            spare_h1: Vec::new(),
            spare_h1_pools: Vec::new(),
        }
    }

    /// Recycle this browser into a fresh one for a new load: equivalent to
    /// [`Browser::with_scan`] but reusing every buffer of the previous
    /// life. Connection machines are parked and re-issued by `ensure_conn`
    /// through the exact construction path a cold browser uses, so a
    /// recycled browser's wire behaviour is byte-identical to a fresh one.
    pub fn reset(&mut self, page: Arc<Page>, cfg: BrowserConfig, scan: Arc<PreparedScan>) {
        let n = page.resources.len();
        let inline_count = scan.inline_count;
        self.res.clear();
        self.res.extend((0..n).map(|_| ResInfo {
            state: ResState::Undiscovered,
            discovered: false,
            pushed: false,
            received: 0,
            eval_scheduled: false,
            attempts: 0,
        }));
        // Park every connection machine the last load opened on top of the
        // spares it left unused. A load builds a machine only when its
        // stack is empty, so what a browser keeps is the most machines any
        // one of its loads had in use at once. Last-opened first, so the
        // next load's connection i is issued what this load's connection i
        // grew, whichever page either load was of.
        while let Some(group) = self.opened.pop() {
            if let Some(cs) = self.conns[group].take() {
                self.park_conn(cs);
            }
        }
        self.conns.resize_with(page.server_group_count(), || None);
        self.page = page;
        self.cfg = cfg;
        for (_, mut pool) in self.h1.drain() {
            pool.queue.clear();
            self.spare_h1.extend(pool.slots.drain(..).map(|slot| slot.conn));
            self.spare_h1_pools.push(pool);
        }
        self.h1_seq = 0;
        self.stream_map.clear();
        self.scan = scan;
        self.available = 0;
        self.parsed = 0;
        self.stop_idx = 0;
        self.blocked = None;
        self.inline_done.clear();
        self.inline_done.resize(inline_count, false);
        self.parser_done = false;
        self.next_ref = 0;
        self.main_free_at = SimTime::ZERO;
        self.timers.clear();
        self.next_token = 1;
        self.defer_queue.clear();
        self.connect_end = None;
        self.dcl = None;
        self.onload = None;
        self.paints.clear();
        self.last_completeness = 0.0;
        self.hpack_cache = None;
        self.hpack_decode_cache = None;
        self.pushed_bytes = 0;
        self.pushed_count = 0;
        self.cancelled_pushes = 0;
        self.requests = 0;
        self.next_h2_slot.clear();
        self.partial = false;
        self.retries = 0;
        self.timeouts = 0;
        self.conn_errors = 0;
        self.actions.clear();
        self.dirty.clear();
        self.progress_dirty = true;
        self.trace = TraceHandle::off();
    }

    fn park_conn(&mut self, mut cs: ConnState) {
        cs.chain.clear();
        self.spare_conns.push(cs);
    }

    /// This browser's scan, if `page` is the very page it holds: what a
    /// repeat load of that page hands [`Browser::reset`]. Identity, not
    /// equality — the browser keeps its page alive, so no other page can
    /// have the same address.
    pub fn scan_for(&self, page: &Arc<Page>) -> Option<Arc<PreparedScan>> {
        Arc::ptr_eq(&self.page, page).then(|| Arc::clone(&self.scan))
    }

    /// Attach a trace handle before [`Browser::start`]. Forwarded to every
    /// HTTP/2 client connection the browser opens; purely observational.
    pub fn set_trace(&mut self, trace: TraceHandle) {
        self.trace = trace;
    }

    /// Detach the trace handle from the browser and from every HTTP/2
    /// connection machine it holds, open or parked, so a finished traced
    /// load keeps no clone of it.
    pub fn clear_trace(&mut self) {
        self.trace = TraceHandle::off();
        for cs in self.conns.iter_mut().flatten().chain(&mut self.spare_conns) {
            cs.conn.set_trace(TraceHandle::off(), 0);
        }
    }

    /// Share a memoized HPACK block cache across loads of the same page.
    /// Must be set before [`Browser::start`]; forwarded to every HTTP/2
    /// client connection the browser opens. Encoded output is unchanged —
    /// the cache only skips redundant encoding work.
    pub fn set_hpack_block_cache(&mut self, cache: BlockCache) {
        self.hpack_cache = Some(cache);
    }

    /// Share a memoized HPACK decode cache across loads of the same page.
    /// Must be set before [`Browser::start`]; forwarded to every HTTP/2
    /// client connection the browser opens. Decoded headers are unchanged —
    /// the cache only skips redundant decoding work.
    pub fn set_hpack_decode_cache(&mut self, cache: DecodeCache) {
        self.hpack_decode_cache = Some(cache);
    }

    /// Hand back an action buffer returned by [`start`] / [`on_bytes`] /
    /// [`on_connected`] / [`on_timer`] once its actions are consumed. The
    /// engine reuses the capacity, so a driver that recycles keeps the
    /// steady-state event loop allocation-free.
    ///
    /// [`start`]: Browser::start
    /// [`on_bytes`]: Browser::on_bytes
    /// [`on_connected`]: Browser::on_connected
    /// [`on_timer`]: Browser::on_timer
    pub fn recycle_actions(&mut self, mut spare: Vec<BrowserAction>) {
        spare.clear();
        if spare.capacity() > self.actions.capacity() {
            self.actions = spare;
        }
    }

    /// Begin navigation: opens the main connection and requests the
    /// document. Returns the initial actions.
    pub fn start(&mut self, now: SimTime) -> Vec<BrowserAction> {
        if let Some(deadline) = self.cfg.load_deadline {
            self.set_timer(now + deadline, TimerKind::LoadDeadline);
        }
        self.discover(ResourceId(0), now);
        self.flush_conns();
        std::mem::take(&mut self.actions)
    }

    /// The handshake of connection `slot` to `group` finished.
    pub fn on_connected(&mut self, group: usize, slot: usize, now: SimTime) -> Vec<BrowserAction> {
        let _ = slot;
        if group == self.page.server_group_of(ResourceId(0)) && self.connect_end.is_none() {
            self.connect_end = Some(now);
        }
        self.flush_conns();
        std::mem::take(&mut self.actions)
    }

    /// Wire bytes arrived on connection `slot` of `group`.
    pub fn on_bytes(
        &mut self,
        group: usize,
        slot: usize,
        bytes: &[u8],
        now: SimTime,
    ) -> Vec<BrowserAction> {
        self.on_pieces(group, slot, [bytes], now)
    }

    /// [`Browser::on_bytes`] for a delivery that arrives cut into
    /// consecutive pieces (the chunks a transport queued it in): the
    /// actions are those of the pieces' concatenation, and nothing is
    /// concatenated. The connection takes the pieces one by one — where
    /// the cuts fall is invisible to it — and events are handled and
    /// output flushed once, after the last.
    pub fn on_pieces<P: AsRef<[u8]>>(
        &mut self,
        group: usize,
        slot: usize,
        pieces: impl IntoIterator<Item = P>,
        now: SimTime,
    ) -> Vec<BrowserAction> {
        match self.cfg.transport {
            TransportMode::H2 => {
                // Bytes from a connection abandoned after an error still
                // drain out of the network on the old slot; only the live
                // connection's slot is fed to the state machine.
                if let Some(cs) = conn_for_output(&mut self.conns, &mut self.dirty, group) {
                    if cs.slot == slot {
                        for piece in pieces {
                            cs.conn.receive(piece.as_ref());
                        }
                    }
                }
                self.drain_events(group, now);
            }
            TransportMode::H1 => self.h1_on_bytes(group, slot, pieces, now),
        }
        self.flush_conns();
        std::mem::take(&mut self.actions)
    }

    /// A timer set earlier fired.
    pub fn on_timer(&mut self, token: u64, now: SimTime) -> Vec<BrowserAction> {
        match self.timers.remove(&token) {
            Some(TimerKind::EvalDone(rid)) => self.finish_eval(rid, now),
            Some(TimerKind::InlineDone(idx)) => {
                self.inline_done[idx] = true;
                if self.blocked == Some(Blocked::InlineExec(idx)) {
                    self.blocked = None;
                    self.stop_idx += 1;
                    self.advance_parser(now);
                    if !self.cfg.preload_scanner {
                        self.scan(now);
                    }
                }
                self.after_state_change(now);
            }
            // Only the timer armed for the *current* attempt counts; a
            // stale one from a superseded attempt falls through as a no-op.
            Some(TimerKind::ResourceTimeout(rid, attempt))
                if self.res[rid.0].state == ResState::Fetching
                    && self.res[rid.0].attempts == attempt =>
            {
                self.timeouts += 1;
                self.cancel_inflight(rid);
                self.retry_or_fail(rid, now);
            }
            Some(TimerKind::ResourceTimeout(..)) => {}
            Some(TimerKind::RetryFetch(rid)) if self.res[rid.0].state == ResState::Fetching => {
                self.fetch(rid, now);
            }
            Some(TimerKind::RetryFetch(_)) => {}
            Some(TimerKind::LoadDeadline) if self.onload.is_none() => {
                self.give_up(now);
            }
            Some(TimerKind::LoadDeadline) | None => {}
        }
        self.flush_conns();
        std::mem::take(&mut self.actions)
    }

    /// Whether onload has fired.
    pub fn done(&self) -> bool {
        self.onload.is_some()
    }

    /// Collect the measurements (valid once [`Browser::done`]).
    pub fn result(&self) -> LoadResult {
        let failed = self.res.iter().filter(|i| i.state == ResState::Failed).count() as u32;
        LoadResult {
            connect_end: self.connect_end.unwrap_or(SimTime::ZERO),
            dom_content_loaded: self.dcl,
            onload: self.onload,
            paints: self.paints.clone(),
            pushed_bytes: self.pushed_bytes,
            pushed_count: self.pushed_count,
            cancelled_pushes: self.cancelled_pushes,
            requests: self.requests,
            partial: self.partial || failed > 0,
            failed_resources: failed,
            retries: self.retries,
            timeouts: self.timeouts,
            conn_errors: self.conn_errors,
        }
    }

    // ------------------------------------------------------------------
    // Requests and connections
    // ------------------------------------------------------------------

    fn class_of(&self, rid: ResourceId) -> u8 {
        let r = self.page.resource(rid);
        match r.rtype {
            ResourceType::Html => 0,
            // Deferred (non-render-blocking) stylesheets are fetched like
            // async scripts, not like critical CSS — that is the whole
            // point of the critical-CSS rewrite.
            ResourceType::Css if !r.render_blocking => 3,
            ResourceType::Css | ResourceType::Font => 1,
            ResourceType::Js if r.script_mode == ScriptMode::Blocking => 2,
            ResourceType::Js | ResourceType::Other => 3,
            ResourceType::Image => 4,
        }
    }

    fn ensure_conn(&mut self, group: usize) {
        if self.conns[group].is_some() {
            return;
        }
        let slot = self.next_h2_slot.get(&group).copied().unwrap_or(0);
        let settings = Settings {
            enable_push: Some(self.cfg.enable_push),
            initial_window_size: Some(INITIAL_WINDOW),
            ..Default::default()
        };
        // A parked machine reset into the client role is byte-identical to
        // a fresh `Connection::client` (see `reset_client`).
        let mut cs = match self.spare_conns.pop() {
            Some(mut cs) => {
                cs.conn.reset_client(settings);
                cs.digest_sent = false;
                cs
            }
            None => ConnState {
                conn: Connection::client(settings),
                chain: Vec::new(),
                digest_sent: false,
                slot,
            },
        };
        cs.slot = slot;
        cs.conn.set_limits(self.cfg.limits);
        if self.trace.is_on() {
            cs.conn.set_trace(self.trace.clone(), conn_label(group, slot));
        }
        if let Some(cache) = &self.hpack_cache {
            cs.conn.set_hpack_block_cache(cache.clone());
        }
        if let Some(cache) = &self.hpack_decode_cache {
            cs.conn.set_hpack_decode_cache(cache.clone());
        }
        self.conns[group] = Some(cs);
        self.opened.push(group);
        // The new connection has its preface queued.
        self.dirty.push(group);
        self.actions.push(BrowserAction::OpenConnection { group, slot });
    }

    fn discover(&mut self, rid: ResourceId, now: SimTime) {
        if self.res[rid.0].discovered {
            return;
        }
        self.res[rid.0].discovered = true;
        self.trace.emit_at(now.as_micros(), TraceEvent::ResourceDiscovered { resource: rid.0 });
        if self.res[rid.0].state != ResState::Undiscovered {
            // Already being pushed.
            return;
        }
        if rid.0 != 0 && self.cfg.warm_cache.contains(&rid) {
            // Cache hit: no network, straight to evaluation.
            self.progress_dirty = true;
            let info = &mut self.res[rid.0];
            info.state = ResState::Loaded;
            info.received = self.page.resource(rid).size;
            self.trace.emit_at(now.as_micros(), TraceEvent::ResourceLoaded { resource: rid.0 });
            self.try_schedule_eval(rid, now);
            return;
        }
        self.fetch(rid, now);
    }

    /// Issue (or re-issue) the network fetch of `rid`. Shared between
    /// first discovery and retries after a timeout or transport error; a
    /// retry requests the resource afresh on a live connection.
    fn fetch(&mut self, rid: ResourceId, now: SimTime) {
        self.set_state(rid, ResState::Fetching);
        if let Some(timeout) = self.cfg.resource_timeout {
            let attempt = self.res[rid.0].attempts;
            self.set_timer(now + timeout, TimerKind::ResourceTimeout(rid, attempt));
        }
        let group = self.page.server_group_of(rid);
        if self.cfg.transport == TransportMode::H1 {
            // HTTP/1.1: queue on the group pool, highest class first.
            let class = self.class_of(rid);
            let seq = self.h1_seq;
            self.h1_seq += 1;
            let spare_pools = &mut self.spare_h1_pools;
            let pool =
                self.h1.entry(group).or_insert_with(|| spare_pools.pop().unwrap_or_default());
            pool.queue.push((class, seq, rid));
            pool.queue.sort();
            self.requests += 1;
            self.h1_dispatch(group);
            return;
        }
        self.ensure_conn(group);
        let class = self.class_of(rid);
        let cs = conn_for_output(&mut self.conns, &mut self.dirty, group).expect("just ensured");
        // Reserve the id the connection will assign, then splice it into
        // the Chromium-style exclusive chain and send HEADERS with that
        // priority.
        let spec_stream = cs.conn.peek_next_stream_id();
        let spec = splice_into_chain(cs, spec_stream, class);
        // The GET as borrowed fields over the page's own strings; only the
        // first request on a warm-cache connection appends a digest.
        let digest;
        let mut get = [
            (":method", "GET"),
            (":scheme", "https"),
            (":authority", self.page.host_of(rid)),
            (":path", self.page.resource(rid).path.as_str()),
            ("cache-digest", ""),
        ];
        let mut fields = 4;
        if !cs.digest_sent && !self.cfg.warm_cache.is_empty() {
            cs.digest_sent = true;
            let urls: Vec<String> = self
                .cfg
                .warm_cache
                .iter()
                .map(|&c| self.page.resource(c).url(self.page.host_of(c)))
                .collect();
            digest = CacheDigest::build(&urls, 7).to_hex();
            get[4].1 = &digest;
            fields = 5;
        }
        let stream = cs.conn.request(&get[..fields], Some(spec));
        debug_assert_eq!(stream, spec_stream);
        self.stream_map.insert((group, stream), rid);
        self.requests += 1;
        self.trace
            .emit_at(now.as_micros(), TraceEvent::RequestSent { resource: rid.0, group, stream });
    }

    /// Assign queued HTTP/1.1 fetches to idle pool slots, opening new
    /// connections up to the per-origin limit.
    fn h1_dispatch(&mut self, group: usize) {
        loop {
            let spare_pools = &mut self.spare_h1_pools;
            let spare_conns = &mut self.spare_h1;
            let pool =
                self.h1.entry(group).or_insert_with(|| spare_pools.pop().unwrap_or_default());
            if pool.queue.is_empty() {
                return;
            }
            let idle =
                pool.slots.iter().position(|s| !s.dead && s.current.is_none() && s.conn.is_idle());
            // Dead slots keep their index but free up their place in the
            // six-connection budget.
            let live = pool.slots.iter().filter(|s| !s.dead).count();
            let slot = match idle {
                Some(i) => i,
                None if live < H1_POOL_SIZE => {
                    // A parked machine reset is byte-identical to a fresh
                    // `H1ClientConn::new` (see `H1ClientConn::reset`).
                    let conn = match spare_conns.pop() {
                        Some(mut c) => {
                            c.reset();
                            c
                        }
                        None => h2push_h1::H1ClientConn::new(),
                    };
                    pool.slots.push(H1Slot { conn, current: None, dead: false });
                    let slot = pool.slots.len() - 1;
                    self.actions.push(BrowserAction::OpenConnection { group, slot });
                    slot
                }
                None => return, // all six busy; ResponseComplete re-dispatches
            };
            let (_, _, rid) = pool.queue.remove(0);
            let host = self.page.host_of(rid).to_string();
            let path = self.page.resource(rid).path.clone();
            let pool = self.h1.get_mut(&group).expect("pool exists");
            let s = &mut pool.slots[slot];
            s.current = Some(rid);
            // Real HTTP/1.1 requests carry the full header set on every
            // request (≈ 400–700 bytes in 2018 traffic) — the repetition
            // HPACK exists to remove (§2.1). These are what an H2-vs-H1
            // comparison actually compared.
            s.conn.send_request(
                &host,
                &path,
                &[
                    (
                        "user-agent",
                        "Mozilla/5.0 (X11; Linux x86_64) AppleWebKit/537.36 (KHTML, like Gecko) Chrome/64.0.3282.140 Safari/537.36",
                    ),
                    (
                        "accept",
                        "text/html,application/xhtml+xml,application/xml;q=0.9,image/webp,image/apng,*/*;q=0.8",
                    ),
                    ("accept-encoding", "gzip, deflate, br"),
                    ("accept-language", "en-US,en;q=0.9,de;q=0.8"),
                    (
                        "cookie",
                        "session=8f14e45fceea167a5a36dedd4bea2543; consent=1; ab_bucket=B; _ga=GA1.2.1234567890.1512345678; _gid=GA1.2.987654321.1512345678",
                    ),
                ],
            );
            let bytes = s.conn.produce();
            if !bytes.is_empty() {
                self.actions.push(BrowserAction::SendBytes {
                    group,
                    slot,
                    bytes: Bytes::from(bytes),
                });
            }
        }
    }

    fn h1_on_bytes<P: AsRef<[u8]>>(
        &mut self,
        group: usize,
        slot: usize,
        pieces: impl IntoIterator<Item = P>,
        now: SimTime,
    ) {
        let Some(pool) = self.h1.get_mut(&group) else { return };
        let Some(s) = pool.slots.get_mut(slot) else { return };
        if s.dead {
            return; // late bytes for an abandoned connection
        }
        for piece in pieces {
            s.conn.receive(piece.as_ref());
        }
        loop {
            let pool = self.h1.get_mut(&group).expect("pool exists");
            let s = &mut pool.slots[slot];
            let Some(ev) = s.conn.poll_event() else { break };
            let rid = s.current;
            match ev {
                h2push_h1::H1ClientEvent::ResponseHead { .. } => {}
                h2push_h1::H1ClientEvent::BodyData { len } => {
                    if let Some(rid) = rid {
                        self.body_arrived(rid, len, now);
                    }
                }
                h2push_h1::H1ClientEvent::ResponseComplete => {
                    let pool = self.h1.get_mut(&group).expect("pool exists");
                    let rid = pool.slots[slot].current.take();
                    if let Some(rid) = rid {
                        self.response_finished(rid, now);
                    }
                    self.h1_dispatch(group);
                    self.after_state_change(now);
                }
                h2push_h1::H1ClientEvent::Error { .. } => {
                    // A malformed response kills the connection, not the
                    // load: retire the slot and retry its resource.
                    self.conn_errors += 1;
                    let pool = self.h1.get_mut(&group).expect("pool exists");
                    let s = &mut pool.slots[slot];
                    s.dead = true;
                    let rid = s.current.take();
                    if let Some(rid) = rid {
                        if self.res[rid.0].state == ResState::Fetching {
                            self.retry_or_fail(rid, now);
                        }
                    }
                    self.h1_dispatch(group);
                    self.after_state_change(now);
                    break;
                }
            }
        }
    }

    /// Turn queued connection output into `SendBytes` actions. Only the
    /// connections touched since the last flush can have any (every flush
    /// drains its connections completely), and they are visited in
    /// ascending group order — the order a walk over all of `conns` would
    /// emit their actions in.
    fn flush_conns(&mut self) {
        let mut sched = FifoScheduler;
        let mut dirty = std::mem::take(&mut self.dirty);
        dirty.sort_unstable();
        dirty.dedup();
        for &group in &dirty {
            // A dirty group's connection may be gone (`conn_failed`).
            let Some(cs) = &mut self.conns[group] else { continue };
            while cs.conn.wants_send() {
                let bytes = cs.conn.produce(usize::MAX, &mut sched);
                if bytes.is_empty() {
                    break;
                }
                self.actions.push(BrowserAction::SendBytes { group, slot: cs.slot, bytes });
            }
        }
        dirty.clear();
        self.dirty = dirty;
        debug_assert!(
            self.conns.iter().flatten().all(|cs| !cs.conn.wants_send()),
            "a connection queued output without being marked dirty"
        );
    }

    fn drain_events(&mut self, group: usize, now: SimTime) {
        loop {
            let conn = self.conns.get_mut(group).and_then(Option::as_mut);
            let Some(ev) = conn.and_then(|cs| cs.conn.poll_event()) else { break };
            match ev {
                Event::Headers { .. } | Event::Settings(_) | Event::SettingsAck => {}
                Event::PushPromise { parent: _, promised, headers } => {
                    self.handle_push_promise(group, promised, &headers);
                }
                Event::Data { stream, len, end_stream } => {
                    self.handle_data(group, stream, len, end_stream, now);
                }
                Event::Reset { stream, .. } => {
                    // Server refused/cancelled: treat the resource as failed
                    // ⇒ re-request it plainly.
                    if let Some(rid) = self.stream_map.remove(&(group, stream)) {
                        if self.res[rid.0].state == ResState::Fetching {
                            self.set_state(rid, ResState::Undiscovered);
                            self.res[rid.0].discovered = false;
                            self.discover(rid, now);
                        }
                    }
                }
                Event::StreamError { stream, .. } => {
                    // One stream failed; the connection lives. Retry the
                    // resource (with backoff) or give up on it.
                    if let Some(cs) = &mut self.conns[group] {
                        cs.chain.retain(|&(s, _)| s != stream);
                    }
                    if let Some(rid) = self.stream_map.remove(&(group, stream)) {
                        if self.res[rid.0].state == ResState::Fetching {
                            self.retry_or_fail(rid, now);
                        }
                    }
                }
                Event::Priority { .. } | Event::GoAway { .. } => {}
                Event::ConnectionError { .. } => {
                    // Fatal protocol error: abandon the connection, retry
                    // every in-flight resource on a fresh one.
                    self.conn_errors += 1;
                    self.conn_failed(group, now);
                }
            }
        }
    }

    /// The HTTP/2 connection to `group` died: drop it (a later fetch
    /// reopens on the next slot) and retry or fail every resource that was
    /// in flight on it.
    fn conn_failed(&mut self, group: usize, now: SimTime) {
        self.trace.emit_at(now.as_micros(), TraceEvent::ConnError { group });
        if let Some(cs) = self.conns[group].take() {
            self.next_h2_slot.insert(group, cs.slot + 1);
            self.park_conn(cs);
        }
        let orphaned: Vec<(usize, u32)> =
            self.stream_map.keys().filter(|&&(g, _)| g == group).copied().collect();
        let mut rids: Vec<ResourceId> =
            orphaned.iter().filter_map(|k| self.stream_map.remove(k)).collect();
        // HashMap iteration order is arbitrary; sort so retry timers and
        // main-thread slots are assigned deterministically.
        rids.sort_unstable();
        rids.dedup();
        for rid in rids {
            if self.res[rid.0].state == ResState::Fetching {
                self.retry_or_fail(rid, now);
            }
        }
        self.after_state_change(now);
    }

    /// Book another attempt for `rid`: schedule a backed-off re-fetch, or
    /// fail the resource once the retry budget is spent.
    fn retry_or_fail(&mut self, rid: ResourceId, now: SimTime) {
        self.res[rid.0].attempts += 1;
        if self.res[rid.0].attempts > MAX_RETRIES {
            self.fail_resource(rid, now);
            return;
        }
        self.retries += 1;
        let shift = (self.res[rid.0].attempts - 1).min(16);
        let delay = SimDuration::from_micros(RETRY_BACKOFF.as_micros() << shift);
        self.set_timer(now + delay, TimerKind::RetryFetch(rid));
    }

    /// Cancel whatever transfer currently carries `rid`: reset its HTTP/2
    /// stream, or retire the HTTP/1.1 connection serving it (H1 cannot
    /// abandon a response without closing), and drop any queued fetch.
    fn cancel_inflight(&mut self, rid: ResourceId) {
        if let Some(key) = self.stream_map.iter().find(|&(_, &r)| r == rid).map(|(&k, _)| k) {
            self.stream_map.remove(&key);
            if let Some(cs) = conn_for_output(&mut self.conns, &mut self.dirty, key.0) {
                cs.conn.reset(key.1, ErrorCode::Cancel);
                cs.chain.retain(|&(s, _)| s != key.1);
            }
        }
        let group = self.page.server_group_of(rid);
        if let Some(pool) = self.h1.get_mut(&group) {
            for s in pool.slots.iter_mut() {
                if s.current == Some(rid) {
                    s.current = None;
                    s.dead = true;
                }
            }
            pool.queue.retain(|&(_, _, r)| r != rid);
        }
    }

    /// Give up on `rid` for good. The load completes *around* the hole:
    /// anything gated on this resource (parser, CSSOM, defer queue,
    /// onload) treats it as settled.
    fn fail_resource(&mut self, rid: ResourceId, now: SimTime) {
        self.cancel_inflight(rid);
        if matches!(self.res[rid.0].state, ResState::Evaluated | ResState::Failed) {
            return;
        }
        self.set_state(rid, ResState::Failed);
        self.trace.emit_at(now.as_micros(), TraceEvent::ResourceFailed { resource: rid.0 });
        if rid.0 == 0 {
            // The document itself is unrecoverable: keep whatever rendered.
            self.give_up(now);
            return;
        }
        // Unblock the parser, mirroring finish_eval minus child discovery.
        match self.blocked {
            Some(Blocked::Script(b)) if b == rid => {
                self.blocked = None;
                self.stop_idx += 1;
                self.advance_parser(now);
            }
            Some(Blocked::Script(b)) => {
                // A failed stylesheet may satisfy the CSSOM condition of
                // the blocking script we're parked on.
                self.try_schedule_eval(b, now);
            }
            Some(Blocked::InlineCss(idx)) => {
                let s = self.page.inline_scripts[idx];
                if self.cssom_ready_before(s.offset) {
                    self.blocked = Some(Blocked::InlineExec(idx));
                    let dur =
                        SimDuration::from_micros((s.exec_us as f64 * self.cfg.cpu_scale) as u64);
                    let done = self.schedule_main_thread(now, dur);
                    self.set_timer(done, TimerKind::InlineDone(idx));
                }
            }
            _ => {}
        }
        if self.parser_done {
            self.process_defers(now);
        }
        self.after_state_change(now);
    }

    /// Close out the load as partial: whatever rendered by now is the
    /// result. The paint curve is *not* forced to 1.0 — SpeedIndex and PLT
    /// measure what actually made it to the screen.
    fn give_up(&mut self, now: SimTime) {
        if self.onload.is_some() {
            return;
        }
        self.partial = true;
        self.parser_done = true;
        self.progress_dirty = true;
        if self.dcl.is_none() {
            self.dcl = Some(now);
            self.trace.emit_at(now.as_micros(), TraceEvent::DomContentLoaded);
        }
        self.onload = Some(now);
        self.trace.emit_at(now.as_micros(), TraceEvent::Onload);
    }

    fn handle_push_promise(&mut self, group: usize, promised: u32, headers: &HeaderList) {
        let get = |name: &[u8]| headers.get(name).unwrap_or_default();
        let rid = self.scan.resource_at(&self.page, get(b":authority"), get(b":path"));
        match rid {
            Some(id)
                if self.res[id.0].state == ResState::Undiscovered
                    && self.cfg.warm_cache.contains(&id) =>
            {
                // Already cached: cancel, like real clients do — by which
                // time the object may be in flight (§2.1).
                let cs = conn_for_output(&mut self.conns, &mut self.dirty, group)
                    .expect("push on unknown group");
                cs.conn.reset(promised, ErrorCode::Cancel);
                self.cancelled_pushes += 1;
                self.trace.emit(TraceEvent::PushCancelled { group, stream: promised });
            }
            Some(id) if self.res[id.0].state == ResState::Undiscovered => {
                self.set_state(id, ResState::Fetching);
                self.res[id.0].pushed = true;
                self.stream_map.insert((group, promised), id);
                self.trace.emit(TraceEvent::PushAccepted {
                    resource: id.0,
                    group,
                    stream: promised,
                });
                // Chromium reprioritizes accepted pushes into its exclusive
                // dependency chain by resource type, exactly like its own
                // requests — otherwise later requests (which splice
                // *exclusively* under the document, adopting the pushes as
                // children) would starve pushed critical resources behind
                // low-priority content.
                let class = self.class_of(id);
                let cs = conn_for_output(&mut self.conns, &mut self.dirty, group)
                    .expect("push on unknown group");
                let spec = splice_into_chain(cs, promised, class);
                cs.conn.send_priority(promised, spec);
            }
            _ => {
                // Duplicate (already requested) or unknown: cancel. Bytes
                // already in flight still arrive and are discarded — the
                // paper's §2.1 "can be already in flight" caveat.
                let cs = conn_for_output(&mut self.conns, &mut self.dirty, group)
                    .expect("push on unknown group");
                cs.conn.reset(promised, ErrorCode::Cancel);
                self.cancelled_pushes += 1;
                self.trace.emit(TraceEvent::PushCancelled { group, stream: promised });
            }
        }
    }

    fn handle_data(&mut self, group: usize, stream: u32, len: usize, end: bool, now: SimTime) {
        let Some(&rid) = self.stream_map.get(&(group, stream)) else {
            return; // discarded push data after cancel
        };
        self.body_arrived(rid, len, now);
        if end {
            // Retire the stream from the priority chain.
            if let Some(cs) = &mut self.conns[group] {
                cs.chain.retain(|&(s, _)| s != stream);
            }
            self.response_finished(rid, now);
        }
        self.after_state_change(now);
    }

    /// Transport-independent: body bytes of `rid` arrived.
    fn body_arrived(&mut self, rid: ResourceId, len: usize, now: SimTime) {
        let info = &mut self.res[rid.0];
        info.received += len;
        if info.pushed {
            self.pushed_bytes += len as u64;
        }
        if rid.0 == 0 {
            self.available = info.received.min(self.page.html_size());
            self.scan(now);
            self.advance_parser(now);
        }
    }

    /// Transport-independent: the response for `rid` completed.
    fn response_finished(&mut self, rid: ResourceId, now: SimTime) {
        let info = &mut self.res[rid.0];
        if info.state == ResState::Fetching {
            self.progress_dirty = true;
            info.state = ResState::Loaded;
            self.trace.emit_at(now.as_micros(), TraceEvent::ResourceLoaded { resource: rid.0 });
        }
        if info.pushed {
            self.pushed_count += 1;
        }
        self.try_schedule_eval(rid, now);
    }

    // ------------------------------------------------------------------
    // Preload scanner and parser
    // ------------------------------------------------------------------

    /// Discover HTML references. With the preload scanner, everything in
    /// the *received* bytes is found immediately (even while the parser is
    /// blocked); without it, only references the *parser* has passed are
    /// seen.
    fn scan(&mut self, now: SimTime) {
        // Without the scanner the parser still *reads* the tag it is
        // standing on, hence the +1.
        let horizon = if self.cfg.preload_scanner {
            self.available
        } else {
            self.parsed.saturating_add(1).min(self.available)
        };
        while self.next_ref < self.scan.html_refs.len()
            && self.scan.html_refs[self.next_ref].0 < horizon
        {
            let (_, rid) = self.scan.html_refs[self.next_ref];
            self.next_ref += 1;
            self.discover(rid, now);
        }
    }

    fn cssom_ready_before(&self, offset: usize) -> bool {
        // Every render-blocking stylesheet appearing earlier in the
        // document must be evaluated (a failed one stops gating — real
        // browsers proceed without the sheet).
        let mut before = self.scan.blocking_css.iter().take_while(|&&(o, _)| o < offset);
        before.all(|&(_, id)| self.css_settled(id))
    }

    /// Whether stylesheet `id` no longer gates anything: evaluated, or
    /// given up on.
    fn css_settled(&self, id: ResourceId) -> bool {
        matches!(self.res[id.0].state, ResState::Evaluated | ResState::Failed)
    }

    fn advance_parser(&mut self, now: SimTime) {
        loop {
            if self.parser_done || self.blocked.is_some() {
                return;
            }
            let limit = self.available;
            let stop = self.scan.stops.get(self.stop_idx).copied();
            match stop {
                Some((off, kind)) if off < limit => {
                    self.set_parsed(self.parsed.max(off));
                    if !self.cfg.preload_scanner {
                        // The parser has now read everything up to (and
                        // including) this tag.
                        self.scan(now);
                    }
                    match kind {
                        StopKind::Script(rid) => {
                            if self.res[rid.0].state == ResState::Evaluated {
                                self.stop_idx += 1;
                                continue;
                            }
                            self.blocked = Some(Blocked::Script(rid));
                            self.try_schedule_eval(rid, now);
                            return;
                        }
                        StopKind::Inline(idx) => {
                            if self.inline_done[idx] {
                                self.stop_idx += 1;
                                continue;
                            }
                            let s = self.page.inline_scripts[idx];
                            if s.needs_cssom && !self.cssom_ready_before(s.offset) {
                                self.blocked = Some(Blocked::InlineCss(idx));
                                return;
                            }
                            self.blocked = Some(Blocked::InlineExec(idx));
                            let dur = SimDuration::from_micros(
                                (s.exec_us as f64 * self.cfg.cpu_scale) as u64,
                            );
                            let done = self.schedule_main_thread(now, dur);
                            let token = self.set_timer(done, TimerKind::InlineDone(idx));
                            let _ = token;
                            return;
                        }
                    }
                }
                _ => {
                    self.set_parsed(limit);
                    if !self.cfg.preload_scanner {
                        self.scan(now);
                    }
                    if self.parsed >= self.page.html_size()
                        && self.res[0].state != ResState::Fetching
                        && self.res[0].state != ResState::Undiscovered
                    {
                        self.parser_done = true;
                        self.progress_dirty = true;
                        self.build_defer_queue();
                        self.process_defers(now);
                    }
                    return;
                }
            }
        }
    }

    fn build_defer_queue(&mut self) {
        self.defer_queue.clear();
        let discovered = self.scan.defers.iter().filter(|id| self.res[id.0].discovered);
        self.defer_queue.extend(discovered);
    }

    fn process_defers(&mut self, now: SimTime) {
        // Execute deferred scripts in order; DCL after the last.
        for i in 0..self.defer_queue.len() {
            let rid = self.defer_queue[i];
            match self.res[rid.0].state {
                ResState::Evaluated | ResState::Failed => continue,
                ResState::Loaded => {
                    self.try_schedule_eval(rid, now);
                    return;
                }
                _ => return, // still fetching; resumes on load
            }
        }
        if self.dcl.is_none() {
            self.dcl = Some(now);
            self.progress_dirty = true;
            self.trace.emit_at(now.as_micros(), TraceEvent::DomContentLoaded);
        }
    }

    // ------------------------------------------------------------------
    // Main-thread evaluation
    // ------------------------------------------------------------------

    fn schedule_main_thread(&mut self, now: SimTime, dur: SimDuration) -> SimTime {
        let start = self.main_free_at.max(now);
        let done = start + dur;
        self.main_free_at = done;
        done
    }

    fn set_timer(&mut self, at: SimTime, kind: TimerKind) -> u64 {
        let token = self.next_token;
        self.next_token += 1;
        self.timers.insert(token, kind);
        self.actions.push(BrowserAction::SetTimer { at, token });
        token
    }

    /// Schedule the evaluation (exec/parse/decode) of a loaded resource if
    /// its gating conditions hold.
    fn try_schedule_eval(&mut self, rid: ResourceId, now: SimTime) {
        if rid.0 == 0 {
            // The document has no evaluation of its own.
            if self.res[0].state == ResState::Loaded {
                self.set_state(rid, ResState::Evaluated);
                self.advance_parser(now);
            }
            return;
        }
        let page = Arc::clone(&self.page);
        let r = page.resource(rid);
        let info = &mut self.res[rid.0];
        if info.state != ResState::Loaded || info.eval_scheduled {
            return;
        }
        let ready = match r.rtype {
            ResourceType::Js => match r.script_mode {
                ScriptMode::Blocking => {
                    // Executes only at parser position, after earlier CSSOM.
                    let at_parser = self.blocked == Some(Blocked::Script(rid));
                    let off = match r.discovery {
                        Discovery::Html { offset } => offset,
                        _ => 0,
                    };
                    at_parser && self.cssom_ready_before(off)
                }
                ScriptMode::Async => true,
                ScriptMode::Defer => {
                    // Only as the head of the defer queue after parsing
                    // (failed defers are skipped over, not waited on).
                    self.parser_done
                        && self.defer_queue.iter().find(|&&d| {
                            !matches!(self.res[d.0].state, ResState::Evaluated | ResState::Failed)
                        }) == Some(&rid)
                }
            },
            _ => true,
        };
        if !ready {
            return;
        }
        self.res[rid.0].eval_scheduled = true;
        let dur = SimDuration::from_micros((r.exec_us as f64 * self.cfg.cpu_scale) as u64);
        let done = self.schedule_main_thread(now, dur);
        self.set_timer(done, TimerKind::EvalDone(rid));
    }

    fn finish_eval(&mut self, rid: ResourceId, now: SimTime) {
        self.set_state(rid, ResState::Evaluated);
        self.trace.emit_at(now.as_micros(), TraceEvent::ResourceEvaluated { resource: rid.0 });
        // Children discovered by this resource.
        for i in self.scan.children_of(rid) {
            let child = self.scan.children[i];
            self.discover(child, now);
        }
        // Unblock the parser.
        match self.blocked {
            Some(Blocked::Script(b)) if b == rid => {
                self.blocked = None;
                self.stop_idx += 1;
                self.advance_parser(now);
            }
            Some(Blocked::Script(b)) => {
                // A stylesheet finishing may satisfy the CSSOM condition of
                // the blocking script we're parked on.
                self.try_schedule_eval(b, now);
            }
            Some(Blocked::InlineCss(idx)) => {
                let s = self.page.inline_scripts[idx];
                if self.cssom_ready_before(s.offset) {
                    self.blocked = Some(Blocked::InlineExec(idx));
                    let dur =
                        SimDuration::from_micros((s.exec_us as f64 * self.cfg.cpu_scale) as u64);
                    let done = self.schedule_main_thread(now, dur);
                    self.set_timer(done, TimerKind::InlineDone(idx));
                }
            }
            _ => {}
        }
        if self.parser_done {
            self.process_defers(now);
        }
        self.after_state_change(now);
    }

    // ------------------------------------------------------------------
    // Rendering and completion
    // ------------------------------------------------------------------

    fn render_unblocked(&self) -> bool {
        if self.parsed < self.page.head_end {
            return false;
        }
        let mut parsed = self.scan.blocking_css.iter().take_while(|&&(o, _)| o <= self.parsed);
        parsed.all(|&(_, id)| self.css_settled(id))
    }

    fn completeness(&self) -> f64 {
        if self.scan.total_weight <= 0.0 {
            return 1.0;
        }
        let mut done = 0.0;
        for t in &self.page.text_paints {
            if t.offset <= self.parsed {
                done += t.weight;
            }
        }
        for &(id, offset, weight) in &self.scan.painted {
            // Layout must have reached an HTML-referenced resource.
            if self.res[id.0].state == ResState::Evaluated && offset <= self.parsed {
                done += weight;
            }
        }
        (done / self.scan.total_weight).min(1.0)
    }

    fn set_state(&mut self, rid: ResourceId, state: ResState) {
        self.res[rid.0].state = state;
        self.progress_dirty = true;
    }

    fn set_parsed(&mut self, parsed: usize) {
        if parsed != self.parsed {
            self.parsed = parsed;
            self.progress_dirty = true;
        }
    }

    /// The completeness to paint now, if rendering is unblocked and the
    /// page got visibly more complete since the last paint.
    fn paint_due(&self) -> Option<f64> {
        if !self.render_unblocked() {
            return None;
        }
        Some(self.completeness()).filter(|&c| c > self.last_completeness + 1e-12)
    }

    /// Whether onload should fire: not yet fired, parsing and DCL done,
    /// and every discovered resource settled.
    fn onload_due(&self) -> bool {
        self.onload.is_none()
            && self.parser_done
            && self.dcl.is_some()
            && self.res.iter().all(|i| {
                matches!(i.state, ResState::Evaluated | ResState::Undiscovered | ResState::Failed)
            })
    }

    /// Paint what became paintable and fire onload once everything
    /// settled. Both are functions of the parse position, the resource
    /// states, `parser_done` and `dcl` only, so when none of those moved
    /// since the last run (a DATA event in the middle of a subresource
    /// body, say) the paint and onload checks are skipped.
    fn after_state_change(&mut self, now: SimTime) {
        if !std::mem::take(&mut self.progress_dirty) {
            debug_assert!(
                self.paint_due().is_none() && !self.onload_due(),
                "an input of after_state_change moved without setting progress_dirty"
            );
            return;
        }
        if let Some(c) = self.paint_due() {
            self.last_completeness = c;
            if self.paints.is_empty() {
                self.trace.emit_at(now.as_micros(), TraceEvent::FirstPaint);
            }
            self.paints.push(PaintSample { time: now, completeness: c });
        }
        if self.onload_due() {
            self.onload = Some(now);
            self.trace.emit_at(now.as_micros(), TraceEvent::Onload);
            // Whatever is painted by onload is the final frame: close the
            // visual progress curve — unless resources failed, in which
            // case the curve honestly stays below 1.0 (SpeedIndex then
            // integrates the missing fraction up to onload).
            let any_failed = self.res.iter().any(|i| i.state == ResState::Failed);
            if !any_failed && self.last_completeness < 1.0 {
                self.last_completeness = 1.0;
                if self.paints.is_empty() {
                    self.trace.emit_at(now.as_micros(), TraceEvent::FirstPaint);
                }
                self.paints.push(PaintSample { time: now, completeness: 1.0 });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2push_webmodel::{
        generate_set, realworld_set, rewrite_critical_css, CorpusKind, PageBuilder, ResourceSpec,
    };

    /// Render-blocking stylesheets in the body as well as the head, and a
    /// painted resource the HTML does not reference: cases the generated
    /// corpora leave out.
    fn body_css_page() -> Page {
        let mut b = PageBuilder::new("body-css", "body.test", 30_000, 2_000);
        let head = b.resource(ResourceSpec::css(0, 8_000, 1_000, 0.3));
        let body = b.resource(ResourceSpec::css(0, 8_000, 9_000, 0.3));
        let js = b.resource(ResourceSpec::js(0, 10_000, 9_000, 2_000));
        b.resource(ResourceSpec::font(0, 3_000, head));
        b.resource(ResourceSpec::font(0, 3_000, body));
        b.resource(ResourceSpec::image(0, 20_000, 12_000, true, 2.0));
        b.resource(ResourceSpec::image(0, 20_000, 15_000, true, 0.0));
        b.resource(ResourceSpec {
            above_fold: true,
            visual_weight: 1.5,
            ..ResourceSpec::script_loaded(0, 5_000, js, ResourceType::Image)
        });
        b.inline_script(9_000, 500, true);
        b.text_paint(3_000, 1.0);
        b.text_paint(20_000, 1.0);
        b.build()
    }

    /// The whole-page scans [`PreparedScan`]'s lists replace, kept as the
    /// oracles they are checked against.
    mod oracle {
        use super::*;

        pub fn render_unblocked(b: &Browser) -> bool {
            if b.parsed < b.page.head_end {
                return false;
            }
            b.page.resources.iter().all(|r| {
                let gating = r.rtype == ResourceType::Css
                    && r.render_blocking
                    && matches!(r.discovery, Discovery::Html { offset } if offset <= b.parsed);
                !gating || matches!(b.res[r.id.0].state, ResState::Evaluated | ResState::Failed)
            })
        }

        pub fn cssom_ready_before(b: &Browser, offset: usize) -> bool {
            b.page.resources.iter().all(|r| {
                let gating = r.rtype == ResourceType::Css
                    && r.render_blocking
                    && matches!(r.discovery, Discovery::Html { offset: o } if o < offset);
                !gating || matches!(b.res[r.id.0].state, ResState::Evaluated | ResState::Failed)
            })
        }

        pub fn completeness(b: &Browser) -> f64 {
            if b.scan.total_weight <= 0.0 {
                return 1.0;
            }
            let mut done = 0.0;
            for t in &b.page.text_paints {
                if t.offset <= b.parsed {
                    done += t.weight;
                }
            }
            for r in &b.page.resources {
                if !r.above_fold || r.visual_weight <= 0.0 {
                    continue;
                }
                if b.res[r.id.0].state != ResState::Evaluated {
                    continue;
                }
                let laid_out = match r.discovery {
                    Discovery::Html { offset } => offset <= b.parsed,
                    _ => true,
                };
                if laid_out {
                    done += r.visual_weight;
                }
            }
            (done / b.scan.total_weight).min(1.0)
        }

        pub fn children(page: &Page, rid: ResourceId) -> Vec<ResourceId> {
            let r = page.resource(rid);
            page.resources
                .iter()
                .filter(|c| match c.discovery {
                    Discovery::Css { parent } => parent == rid && r.rtype == ResourceType::Css,
                    Discovery::Script { parent } => parent == rid,
                    _ => false,
                })
                .map(|c| c.id)
                .collect()
        }
    }

    /// Every real-world page, its critical-CSS rewrite and a sample of
    /// generated ones, under random resource states and parse positions:
    /// the list-driven checks equal the whole-page scans, and
    /// `completeness` adds the same weights in the same order.
    #[test]
    fn prepared_lists_match_the_whole_page_scans() {
        const STATES: [ResState; 5] = [
            ResState::Undiscovered,
            ResState::Fetching,
            ResState::Loaded,
            ResState::Evaluated,
            ResState::Failed,
        ];
        let mut pages = vec![body_css_page()];
        pages.extend(realworld_set());
        pages.extend(realworld_set().iter().map(|p| rewrite_critical_css(p).page));
        for (i, kind) in
            [CorpusKind::Top, CorpusKind::Random, CorpusKind::PushUsers].into_iter().enumerate()
        {
            pages.extend(generate_set(kind, 6, 40 + i as u64));
        }
        let mut rng = proptest::TestRng::deterministic();
        let mut below = |n: usize| (rng.next_u64() % n as u64) as usize;
        for page in pages {
            let page = Arc::new(page);
            let mut b = Browser::new(Arc::clone(&page), BrowserConfig::default());
            for r in &page.resources {
                let mine: Vec<ResourceId> =
                    b.scan.children_of(r.id).map(|i| b.scan.children[i]).collect();
                assert_eq!(mine, oracle::children(&page, r.id), "{} {:?}", page.name, r.id);
            }
            let html = page.html_size();
            let mut offsets: Vec<usize> = page.inline_scripts.iter().map(|s| s.offset).collect();
            offsets.extend(b.scan.blocking_css.iter().flat_map(|&(o, _)| [o, o + 1]));
            offsets.push(0);
            for _ in 0..64 {
                // Bias toward settled states, so the gates open as often
                // as they stay shut.
                let settled = below(4);
                for info in &mut b.res {
                    info.state = STATES[if below(4) < settled { 3 + below(2) } else { below(5) }];
                }
                let at_offset = offsets[below(offsets.len())];
                for parsed in [below(html + 2), at_offset, page.head_end, html, 0] {
                    b.parsed = parsed;
                    let what = format!("{} parsed {parsed}", page.name);
                    assert_eq!(b.render_unblocked(), oracle::render_unblocked(&b), "{what}");
                    assert_eq!(
                        b.completeness().to_bits(),
                        oracle::completeness(&b).to_bits(),
                        "{what}"
                    );
                }
                for &off in offsets.iter().chain([below(html + 2)].iter()) {
                    assert_eq!(
                        b.cssom_ready_before(off),
                        oracle::cssom_ready_before(&b, off),
                        "{} offset {off}",
                        page.name
                    );
                }
            }
        }
    }
}
