//! Cross-crate integration tests: the whole pipeline from website model
//! through protocol stack, network simulation, browser and metrics.

use h2push::core::{evaluate, PushPlanner};
use h2push::strategies::{
    critical_set, interleave_offset, paper_strategy, push_all, PaperStrategy, Strategy,
};
use h2push::testbed::{
    push_orders, strategy_label, write_waterfall, Mode, ReplayConfig, ReplayError, ReplayInputs,
    ReplayOutcome, RunPlan,
};
use h2push::trace::WaterfallMeta;
use h2push::webmodel::{
    generate_site, realworld_site, synthetic_site, CorpusKind, Page, RecordDb, ResourceId,
};
use serde_json::Value;

/// One replay of `page` under `strategy` in the paper's testbed profile.
fn replay(page: &Page, strategy: Strategy) -> Result<ReplayOutcome, ReplayError> {
    RunPlan::new(page).config(ReplayConfig::testbed(strategy)).run_one().map(|run| run.outcome)
}

/// The §4.2 computed push order of one page.
fn computed_push_order(page: &Page, runs: usize, seed: u64) -> Vec<ResourceId> {
    let mut lost = Vec::new();
    let order = push_orders(&[ReplayInputs::from(page)], runs, seed, &mut lost).pop();
    assert!(lost.is_empty(), "{lost:?}");
    order.expect("one site in, one order out")
}

#[test]
fn paper_strategy_suite_runs_on_w16() {
    // Twitter profile: the already-critical-CSS-optimized page of §5.
    let page = realworld_site(16);
    let mut results = Vec::new();
    for which in PaperStrategy::ALL {
        let (variant, strategy) = paper_strategy(&page, which);
        let out = replay(&variant, strategy).unwrap();
        assert!(out.load.finished(), "{} did not finish", which.label());
        results.push((which, out));
    }
    let base_si = results
        .iter()
        .find(|(w, _)| *w == PaperStrategy::NoPush)
        .map(|(_, o)| o.load.speed_index())
        .unwrap();
    let pco = results
        .iter()
        .find(|(w, _)| *w == PaperStrategy::PushCriticalOptimized)
        .map(|(_, o)| o.load.speed_index())
        .unwrap();
    // The paper's w16 result: interleaving critical resources wins notably
    // even though the critical-CSS rewrite itself is a no-op here.
    assert!(
        pco < base_si * 0.90,
        "w16 interleaving should improve SI ≥10%: {pco:.0} vs {base_si:.0}"
    );
    // And it pushes far less than push-all-optimized (the paper reports
    // 10.2 KB; our model's critical set also carries the hero image and
    // fonts, so the budget is larger but still a fraction of push-all).
    let pushed_of = |w: PaperStrategy| {
        results.iter().find(|(x, _)| *x == w).map(|(_, o)| o.server_pushed_bytes).unwrap()
    };
    let crit = pushed_of(PaperStrategy::PushCriticalOptimized);
    let all = pushed_of(PaperStrategy::PushAllOptimized);
    assert!(crit * 2 < all, "w16 critical budget {crit} not ≪ push-all {all}");
}

#[test]
fn computed_push_order_is_stable_and_pushable() {
    let page = generate_site(CorpusKind::Random, 99);
    let a = computed_push_order(&page, 5, 7);
    let b = computed_push_order(&page, 5, 7);
    assert_eq!(a, b, "order computation must be deterministic");
    let pushable = page.pushable();
    // The order is computed from the origin connection: everything the
    // main server saw is pushable by definition (§4.2).
    for id in &a {
        assert!(pushable.contains(id), "{id:?} in computed order but not pushable");
    }
    // And it covers the pushable set that gets requested at all.
    assert!(!a.is_empty());
}

#[test]
fn push_all_uses_computed_order() {
    let page = generate_site(CorpusKind::Random, 17);
    let order = computed_push_order(&page, 3, 1);
    let strategy = push_all(&page, &order);
    let out = replay(&page, strategy.clone()).unwrap();
    assert!(out.load.finished());
    assert_eq!(
        out.server_pushed_bytes as usize,
        strategy.pushed_bytes(&page),
        "server pushed exactly the strategy's bytes"
    );
}

#[test]
fn record_db_round_trip_preserves_replay() {
    let page = synthetic_site(3);
    let db = RecordDb::record(&page);
    let db2 = RecordDb::from_json(&db.to_json()).unwrap();
    assert_eq!(db.len(), db2.len());
    // Same replay regardless of which DB instance a server would load.
    let out = replay(&page, Strategy::NoPush).unwrap();
    assert!(out.load.finished());
}

#[test]
fn testbed_mode_is_far_less_variable_than_internet_mode() {
    let page = generate_site(CorpusKind::PushUsers, 5);
    let plan = RunPlan::new(&page).reps(9).seed(3);
    let tb = plan.clone().mode(Mode::Testbed).run().into_outcomes();
    let inet = plan.mode(Mode::Internet).run().into_outcomes();
    assert!(tb.len() >= 8 && inet.len() >= 8, "runs must complete");
    let spread = |outs: &[h2push::testbed::ReplayOutcome]| {
        let p: Vec<f64> = outs.iter().map(|o| o.load.plt()).collect();
        let s = h2push::metrics::RunStats::of(&p);
        s.std_dev
    };
    assert!(
        spread(&tb) * 2.0 < spread(&inet),
        "testbed σ {} should be well below internet σ {}",
        spread(&tb),
        spread(&inet)
    );
}

#[test]
fn interleaving_beats_default_push_on_late_css_large_html() {
    // The Fig. 5 mechanism end-to-end through the public API.
    let page = realworld_site(1); // wikipedia: 236 KB HTML
    let base = evaluate(&page, Strategy::NoPush).unwrap();
    let plain_push = evaluate(&page, Strategy::PushList { order: critical_set(&page) }).unwrap();
    let interleaved = evaluate(
        &page,
        Strategy::Interleaved {
            offset: interleave_offset(&page),
            critical: critical_set(&page),
            after: Vec::new(),
        },
    )
    .unwrap();
    // Plain push is a child of the HTML stream: it cannot bring the CSS
    // forward, so it performs like no push (Fig. 5b).
    assert!(
        (plain_push.speed_index - base.speed_index).abs() < base.speed_index * 0.12,
        "plain push should track no-push: {} vs {}",
        plain_push.speed_index,
        base.speed_index
    );
    // Interleaving breaks the document's monopoly.
    assert!(
        interleaved.speed_index < base.speed_index * 0.75,
        "interleaving must win ≥25% on w1: {} vs {}",
        interleaved.speed_index,
        base.speed_index
    );
}

#[test]
fn planner_prefers_cheaper_strategy_among_ties() {
    // On s7, push-all-optimized and push-critical-optimized tie on
    // SpeedIndex (within ~2%), but the critical variant pushes a fraction
    // of the bytes: the planner must pick it ("pushing less is
    // preferable", §4.2.1).
    let page = synthetic_site(7);
    let planner = PushPlanner { runs: 3, byte_tolerance: 0.05, ..Default::default() };
    let plan = planner.plan(&page);
    assert_eq!(plan.winner().which, PaperStrategy::PushCriticalOptimized);
    let pao = plan.candidates.iter().find(|c| c.which == PaperStrategy::PushAllOptimized).unwrap();
    assert!(plan.winner().pushed_bytes < pao.pushed_bytes / 2.0);
    assert!(plan.improvement_pct() < -15.0, "got {}%", plan.improvement_pct());
}

#[test]
fn cancelled_pushes_count_and_load_still_finishes() {
    // Push the same resources the browser will request immediately: on a
    // real network the promise beats most requests, but late pushes on a
    // *subresource* request race and get cancelled.
    let page = generate_site(CorpusKind::Random, 55);
    let strategy = push_all(&page, &[]);
    let out = replay(&page, strategy).unwrap();
    assert!(out.load.finished());
    // All pushes accepted (the promise precedes the HTML bytes).
    assert_eq!(out.load.cancelled_pushes, 0);
}

#[test]
fn six_strategies_all_finish_on_every_synthetic_site() {
    for n in 1..=10 {
        let page = synthetic_site(n);
        for which in PaperStrategy::ALL {
            let (variant, strategy) = paper_strategy(&page, which);
            let out = replay(&variant, strategy)
                .unwrap_or_else(|e| panic!("s{n} × {}: {e}", which.label()));
            assert!(out.load.finished());
        }
    }
}

/// Check `value` against a draft-07 subset schema node (`type`, `required`,
/// `properties`, `items`; `type` may be a name or a list of names),
/// collecting violations with a JSON-pointer-ish path.
fn schema_violations(value: &Value, schema: &Value, path: &str, errs: &mut Vec<String>) {
    let type_name = match value {
        Value::Null => "null",
        Value::Bool(_) => "boolean",
        Value::U64(_) | Value::I64(_) => "integer",
        Value::F64(f) if f.fract() == 0.0 => "integer",
        Value::F64(_) => "number",
        Value::Str(_) => "string",
        Value::Array(_) => "array",
        Value::Object(_) => "object",
    };
    let allows = |t: &Value| t == type_name || (t == "number" && type_name == "integer");
    let type_ok = match schema.get("type") {
        None => true,
        Some(Value::Array(options)) => options.iter().any(allows),
        Some(t) => allows(t),
    };
    if !type_ok {
        errs.push(format!("{path}: expected {:?}, got {type_name}", schema.get("type")));
        return;
    }
    for key in schema.get("required").and_then(Value::as_array).into_iter().flatten() {
        let key = key.as_str().expect("required keys are strings");
        if value.get(key).is_none() {
            errs.push(format!("{path}: missing required key \"{key}\""));
        }
    }
    if let Some(Value::Object(props)) = schema.get("properties") {
        for (key, sub) in props {
            if let Some(v) = value.get(key) {
                schema_violations(v, sub, &format!("{path}/{key}"), errs);
            }
        }
    }
    if let (Some(items), Value::Array(elems)) = (schema.get("items"), value) {
        for (i, v) in elems.iter().enumerate() {
            schema_violations(v, items, &format!("{path}/{i}"), errs);
        }
    }
}

#[test]
fn waterfall_json_matches_the_checked_in_schema_and_same_seed_traces_agree() {
    let results = concat!(env!("CARGO_MANIFEST_DIR"), "/results");
    let read =
        |path: String| std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let schema: Value =
        serde_json::from_str(&read(format!("{results}/waterfall.schema.json"))).expect("schema");
    let check = |what: &str, json: &str| {
        let doc: Value = serde_json::from_str(json).unwrap_or_else(|e| panic!("{what}: {e:?}"));
        let mut errs = Vec::new();
        schema_violations(&doc, &schema, "", &mut errs);
        assert!(errs.is_empty(), "{what}: schema violations:\n{}", errs.join("\n"));
    };

    // The validator itself rejects a wrong type and missing keys.
    let mut errs = Vec::new();
    schema_violations(&serde_json::json!({ "site": 7, "seed": 1 }), &schema, "", &mut errs);
    assert!(errs.iter().any(|e| e.starts_with("/site: expected")), "{errs:?}");
    assert!(errs.iter().any(|e| e.contains("missing required key \"faults\"")), "{errs:?}");

    // Fresh renders, each traced twice and written through
    // `write_waterfall`: s7 without push and under the planner's
    // interleaved recommendation, and `examples/waterfall.rs`'s w16 pair.
    // Every one of them reproduces its committed export byte for byte.
    let out_dir = std::env::temp_dir().join(format!("h2push-wf-pin-{}", std::process::id()));
    let s7 = synthetic_site(7);
    let w16 = realworld_site(16);
    let mut renders =
        vec![(s7.clone(), Strategy::NoPush), (s7.clone(), PushPlanner::static_recommendation(&s7))];
    for which in [PaperStrategy::NoPush, PaperStrategy::PushCriticalOptimized] {
        renders.push(paper_strategy(&w16, which));
    }
    for (page, strategy) in renders {
        let label = strategy_label(&strategy);
        let traced = || {
            let plan = RunPlan::new(&page).strategy(strategy.clone()).seed(42).traced();
            plan.run_one().expect("traced replay completes").timeline.expect("timeline")
        };
        let (timeline, again) = (traced(), traced());
        assert_eq!(timeline, again, "same-seed timelines diverged for {} {label}", page.name);
        let meta = WaterfallMeta { site: &page.name, strategy: label, seed: 42 };
        let names = |id: usize| page.resources.get(id).map(|r| r.path.clone());
        check(label, &timeline.waterfall_json(&meta, &names));
        let (txt, json) =
            write_waterfall(&out_dir, &page, &strategy, 42, &timeline).expect("waterfall written");
        for fresh in [txt, json] {
            let name = fresh.file_name().unwrap().to_str().unwrap().to_string();
            assert!(
                read(fresh.display().to_string()) == read(format!("{results}/{name}")),
                "results/{name} no longer matches a fresh render"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&out_dir);

    // And every export committed under results/.
    let mut committed = 0;
    for entry in std::fs::read_dir(results).expect("results/") {
        let name = entry.expect("directory entry").file_name().into_string().unwrap();
        if name.starts_with("waterfall_") && name.ends_with(".json") {
            check(&name, &read(format!("{results}/{name}")));
            committed += 1;
        }
    }
    assert!(committed >= 4, "results/ lost its waterfall exports");
}
