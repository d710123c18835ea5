//! HAR 1.2 export of a replayed page load.
//!
//! Turns a traced load — its [`LoadResult`], its [`Page`] and the
//! timeline's [`ResourceSpan`]s — into an HTTP-Archive document that
//! standard waterfall viewers (browser devtools, HAR analyzers) can open:
//! the replay-testbed equivalent of saving a devtools capture, and a
//! convenient way to eyeball what a push strategy did to the load. The
//! spans are the one per-resource record; this is their third renderer,
//! beside the trace crate's text and JSON waterfalls.

use h2push_browser::LoadResult;
use h2push_netsim::SimTime;
use h2push_trace::ResourceSpan;
use h2push_webmodel::{Page, ResourceId};
use serde_json::{json, Value};

fn iso(t: SimTime) -> String {
    // Nominal wall-clock epoch of every replay (the sim clock starts at
    // 0): December 4 2018, the first day of CoNEXT '18.
    let total_ms = t.as_micros() / 1000;
    let (s, ms) = (total_ms / 1000, total_ms % 1000);
    let (m, s) = (s / 60, s % 60);
    format!("2018-12-04T00:{m:02}:{s:02}.{ms:03}Z")
}

/// Build the HAR document: one entry per discovered resource, in resource
/// order (`spans` as [`h2push_trace::Timeline::resource_spans`] returns
/// them).
pub fn to_har(page: &Page, load: &LoadResult, spans: &[ResourceSpan]) -> Value {
    let rel = |t: Option<SimTime>| -> Value {
        match t {
            Some(t) => json!(t.since(SimTime::ZERO).as_millis_f64()),
            None => json!(-1),
        }
    };
    let entries: Vec<Value> = spans
        .iter()
        .filter_map(|span| {
            let started = SimTime(span.discovered?);
            let loaded = span.loaded.map(SimTime);
            let time = loaded.map(|l| l.since(started).as_millis_f64()).unwrap_or(-1.0);
            let id = ResourceId(span.resource);
            let r = page.resource(id);
            Some(json!({
                "pageref": "page_1",
                "startedDateTime": iso(started),
                "time": time,
                "request": {
                    "method": "GET",
                    "url": r.url(page.host_of(id)),
                    "httpVersion": "HTTP/2",
                    "headers": [],
                    "queryString": [],
                    "cookies": [],
                    "headersSize": -1,
                    "bodySize": 0,
                },
                "response": {
                    "status": 200,
                    "statusText": "OK",
                    "httpVersion": "HTTP/2",
                    "headers": [],
                    "cookies": [],
                    "content": { "size": r.size, "mimeType": r.rtype.mime() },
                    "redirectURL": "",
                    "headersSize": -1,
                    "bodySize": r.size,
                },
                "cache": {},
                "timings": {
                    "blocked": -1,
                    "dns": -1,
                    "connect": -1,
                    "send": 0,
                    "wait": -1,
                    "receive": time,
                },
                // Custom fields (underscore-prefixed per the HAR spec).
                "_resourceType": r.rtype.label(),
                "_pushed": span.pushed,
                "_evaluatedAt": rel(span.evaluated.map(SimTime)),
            }))
        })
        .collect();
    json!({
        "log": {
            "version": "1.2",
            "creator": { "name": "h2push", "version": env!("CARGO_PKG_VERSION") },
            "pages": [{
                "startedDateTime": iso(SimTime::ZERO),
                "id": "page_1",
                "title": page.name,
                "pageTimings": {
                    "onContentLoad": rel(load.dom_content_loaded),
                    "onLoad": rel(load.onload),
                    "_firstPaint": rel(load.first_paint()),
                    "_connectEnd": json!(load.connect_end.as_millis_f64()),
                    "_speedIndex": json!(load.speed_index()),
                }
            }],
            "entries": entries,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2push_browser::PaintSample;
    use h2push_trace::{Timeline, TraceEvent};
    use h2push_webmodel::{PageBuilder, ResourceSpec};

    fn fixture() -> (Page, LoadResult, Vec<ResourceSpan>) {
        let mut b = PageBuilder::new("har-test", "har.test", 10_000, 1_000);
        b.resource(ResourceSpec::css(0, 4_000, 100, 0.5));
        let page = b.build();
        let t = SimTime::from_millis;
        let load = LoadResult {
            connect_end: t(150),
            dom_content_loaded: Some(t(350)),
            onload: Some(t(400)),
            paints: vec![PaintSample { time: t(300), completeness: 1.0 }],
            pushed_bytes: 4_000,
            pushed_count: 1,
            requests: 1,
            ..Default::default()
        };
        let mut tl = Timeline::default();
        let ms = |ms: u64| ms * 1000;
        tl.push(ms(0), TraceEvent::ResourceDiscovered { resource: 0 });
        tl.push(ms(150), TraceEvent::RequestSent { resource: 0, group: 0, stream: 1 });
        tl.push(ms(180), TraceEvent::PushAccepted { resource: 1, group: 0, stream: 2 });
        tl.push(ms(200), TraceEvent::ResourceDiscovered { resource: 1 });
        tl.push(ms(280), TraceEvent::ResourceLoaded { resource: 0 });
        tl.push(ms(290), TraceEvent::ResourceLoaded { resource: 1 });
        tl.push(ms(295), TraceEvent::ResourceEvaluated { resource: 1 });
        (page, load, tl.resource_spans())
    }

    #[test]
    fn har_has_pages_and_entries() {
        let (page, load, spans) = fixture();
        let har = to_har(&page, &load, &spans);
        assert_eq!(har["log"]["version"], "1.2");
        assert_eq!(har["log"]["entries"].as_array().unwrap().len(), 2);
        assert_eq!(har["log"]["pages"][0]["title"], "har-test");
        assert_eq!(har["log"]["pages"][0]["pageTimings"]["onLoad"], 400.0);
        assert_eq!(har["log"]["pages"][0]["pageTimings"]["_firstPaint"], 300.0);
    }

    #[test]
    fn pushed_entries_are_marked() {
        let (page, load, spans) = fixture();
        let har = to_har(&page, &load, &spans);
        let entries = har["log"]["entries"].as_array().unwrap();
        assert_eq!(entries[0]["_pushed"], false);
        assert_eq!(entries[0]["_evaluatedAt"], -1);
        assert_eq!(entries[1]["_pushed"], true);
        assert_eq!(entries[1]["time"], 90.0);
        assert_eq!(entries[1]["_evaluatedAt"], 295.0);
        assert_eq!(entries[1]["response"]["content"]["mimeType"], "text/css");
    }

    #[test]
    fn undiscovered_resources_have_no_entry() {
        let (page, load, mut spans) = fixture();
        spans[1].discovered = None; // promised, never referenced
        let har = to_har(&page, &load, &spans);
        assert_eq!(har["log"]["entries"].as_array().unwrap().len(), 1);
    }

    #[test]
    fn timestamps_are_iso_like() {
        let (page, load, spans) = fixture();
        let har = to_har(&page, &load, &spans);
        let s = har["log"]["entries"][1]["startedDateTime"].as_str().unwrap();
        assert_eq!(s, "2018-12-04T00:00:00.200Z");
    }

    #[test]
    fn serializes_to_valid_json_string() {
        let (page, load, spans) = fixture();
        let text = serde_json::to_string_pretty(&to_har(&page, &load, &spans)).unwrap();
        let _: Value = serde_json::from_str(&text).unwrap();
    }
}
