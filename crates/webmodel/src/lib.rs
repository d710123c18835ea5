//! # h2push-webmodel — the website model and corpus
//!
//! Structural models of the web pages the paper replays: resources with
//! types, sizes, discovery offsets and render-blocking semantics; origins
//! with server groups (HTTP/2 connection coalescing, §4.1); a
//! Mahimahi-style record database; the critical-CSS rewrite used by the
//! "optimized" strategies (§5); seeded random corpora calibrated to the
//! paper's §4.2 statistics; and hand-written specs for the synthetic sites
//! s1–s10 (§4.3) and the Table-1 real-world sites w1–w20 (§5).

pub mod corpus;
pub mod critical_css;
pub mod page;
pub mod recorddb;
pub mod sites_realworld;
pub mod sites_synthetic;
pub mod types;

pub use corpus::{generate_set, generate_site, CorpusKind};
pub use critical_css::{rewrite_critical_css, CriticalCssRewrite};
pub use page::{Page, PageBuilder, ResourceSpec};
pub use recorddb::{RecordDb, RecordedResponse, RequestKey};
pub use sites_realworld::{realworld_labels, realworld_set, realworld_site};
pub use sites_synthetic::{custom_strategy, synthetic_set, synthetic_site};
pub use types::{
    Discovery, InlineScript, Origin, Resource, ResourceId, ResourceType, ScriptMode, TextPaint,
};
