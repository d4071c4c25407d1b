//! Golden-file test of the JSONL trace schema: the byte-exact stream a
//! fixed toy run emits is pinned under `tests/golden/`, so any schema
//! drift (field rename, ordering change, number formatting) fails loudly
//! instead of silently breaking downstream consumers.
//!
//! To regenerate after an *intentional* schema change:
//! `UPDATE_GOLDEN=1 cargo test --test trace_golden`.

use hypart::prelude::*;
use hypart::trace::json::JsonValue;

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/trace_toy.jsonl");
const GOLDEN_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden");

/// The fixed toy run: two 4-cliques bridged by two nets, flat LIFO FM,
/// seed 3. Small enough that the whole trace stays reviewable in a diff.
fn toy_trace() -> String {
    let mut b = HypergraphBuilder::new();
    let v: Vec<_> = (0..8).map(|_| b.add_vertex(1)).collect();
    for g in [&v[0..4], &v[4..8]] {
        for i in 0..4 {
            for j in (i + 1)..4 {
                b.add_net([g[i], g[j]], 1).unwrap();
            }
        }
    }
    b.add_net([v[0], v[4]], 1).unwrap();
    b.add_net([v[3], v[7]], 1).unwrap();
    let h = b.build().unwrap();

    let c = BalanceConstraint::with_fraction(h.total_vertex_weight(), 0.25);
    let sink = JsonlSink::new(Vec::new());
    FmPartitioner::new(FmConfig::lifo()).run_with(&h, &c, &mut RunCtx::new(3).with_sink(&sink));
    String::from_utf8(sink.finish().expect("in-memory write")).expect("utf-8")
}

#[test]
fn jsonl_schema_matches_golden_file() {
    let got = toy_trace();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(GOLDEN, &got).expect("write golden");
    }
    let want = std::fs::read_to_string(GOLDEN)
        .expect("golden file missing — run with UPDATE_GOLDEN=1 to create");
    assert_eq!(
        got, want,
        "JSONL trace schema drifted from tests/golden/trace_toy.jsonl; \
         if intentional, regenerate with UPDATE_GOLDEN=1"
    );
}

/// Engine-level golden traces on a small `ispd98_like` instance: flat FM,
/// CLIP, multilevel, and recursive bisection each pin their full JSONL
/// stream. These are
/// the hot-path-optimization oracle — `FmWorkspace` reuse, per-rule bucket
/// sizing, and the O(touched) container clear must all be *behaviorally
/// invisible*, so the streams have to stay bitwise identical.
///
/// To regenerate after an *intentional* behavior change:
/// `UPDATE_GOLDEN=1 cargo test --test trace_golden`.
fn engine_traces() -> Vec<(&'static str, String)> {
    use hypart::benchgen::ispd98_like;

    let trace_of = |f: &dyn Fn(&JsonlSink<Vec<u8>>)| -> String {
        let sink = JsonlSink::new(Vec::new());
        f(&sink);
        String::from_utf8(sink.finish().expect("in-memory write")).expect("utf-8")
    };

    let h = ispd98_like(1, 0.01, 13);
    let c = BalanceConstraint::with_fraction(h.total_vertex_weight(), 0.10);
    let flat = trace_of(&|sink| {
        FmPartitioner::new(FmConfig::lifo()).run_with(&h, &c, &mut RunCtx::new(5).with_sink(sink));
    });
    let clip = trace_of(&|sink| {
        FmPartitioner::new(FmConfig::clip()).run_with(&h, &c, &mut RunCtx::new(5).with_sink(sink));
    });

    let hm = ispd98_like(2, 0.012, 17);
    let cm = BalanceConstraint::with_fraction(hm.total_vertex_weight(), 0.10);
    let ml = trace_of(&|sink| {
        multi_start_with(
            &MlPartitioner::new(MlConfig::ml_clip()),
            &hm,
            &cm,
            &MultiStartPlan::count(2, 1),
            &mut RunCtx::new(9).with_sink(sink),
        )
        .expect("no start panics");
    });

    // Recursive bisection at k = 3: the first split pads its smaller
    // side, so this golden pins the uneven split.
    let rb3 = trace_of(&|sink| {
        let mut ctx = RunCtx::new(7).with_sink(sink);
        recursive_bisection_with(&h, 3, 0.15, &MlConfig::ml_lifo(), &mut ctx);
    });

    // Deep multilevel: an instance large enough that the multi-start run
    // descends through at least three coarsening levels (asserted by
    // `deep_ml_trace_has_three_coarsening_levels`), plus a V-cycle so the
    // restricted-coarsening path is pinned too. This is the oracle for
    // the coarsening hot-path rewrite: dense-scratch matching and
    // fingerprint net dedup must be behaviorally invisible level by level.
    let hd = ispd98_like(1, 0.1, 29);
    let cd = BalanceConstraint::with_fraction(hd.total_vertex_weight(), 0.10);
    let deep_coarsen = hypart::ml::coarsen::CoarsenConfig {
        stop_size: 30,
        ..Default::default()
    };
    let ml_deep = trace_of(&|sink| {
        multi_start_with(
            &MlPartitioner::new(MlConfig::ml_lifo().with_coarsen(deep_coarsen)),
            &hd,
            &cd,
            &MultiStartPlan::count(1, 1),
            &mut RunCtx::new(3).with_sink(sink),
        )
        .expect("no start panics");
    });

    // n-level backend: single-pair contraction with memento undo and
    // localized refinement. The bisection golden pins the
    // contraction/uncontraction bracket vocabulary plus every localized
    // move; the k-way one pins the recursive-bisection composition.
    // stop_size 30 so the schedule contracts ~100 pairs on the
    // 128-vertex instance instead of stalling at the default 120.
    let nlevel_config = MlConfig::default()
        .with_engine(EngineKind::NLevel)
        .with_coarsen(deep_coarsen);
    let nlevel = trace_of(&|sink| {
        let mut ctx = RunCtx::new(5).with_sink(sink);
        MlPartitioner::new(nlevel_config.clone()).run_with(&h, &c, &mut ctx);
    });
    let nlevel_kway = trace_of(&|sink| {
        let mut ctx = RunCtx::new(7).with_sink(sink);
        hypart::kway::recursive_bisection_with(&h, 4, 0.15, &nlevel_config, &mut ctx);
    });
    // Multi-start n-level with a V-cycle on one shared context: every
    // start after the first runs on warm workspace arenas, so this
    // golden pins the recycling path itself — reuse must be bitwise
    // invisible start over start.
    let nlevel_multistart = trace_of(&|sink| {
        multi_start_with(
            &MlPartitioner::new(nlevel_config.clone()),
            &h,
            &c,
            &MultiStartPlan::count(2, 1),
            &mut RunCtx::new(9).with_sink(sink),
        )
        .expect("no start panics");
    });
    // Random bucket insertion draws from the run's RNG on every gain
    // container insert and update, so this golden pins the localized
    // refiner's RNG-draw order; the LIFO goldens above draw only in the
    // initial portfolio.
    let nlevel_random = trace_of(&|sink| {
        multi_start_with(
            &MlPartitioner::new(
                nlevel_config
                    .clone()
                    .with_refine(FmConfig::lifo().with_insertion(InsertionPolicy::Random)),
            ),
            &h,
            &c,
            &MultiStartPlan::count(1, 1),
            &mut RunCtx::new(11).with_sink(sink),
        )
        .expect("no start panics");
    });

    vec![
        ("trace_fm_ispd98.jsonl", flat),
        ("trace_clip_ispd98.jsonl", clip),
        ("trace_ml_ispd98.jsonl", ml),
        ("trace_rb3_ispd98.jsonl", rb3),
        ("trace_ml_deep.jsonl", ml_deep),
        ("trace_nlevel_ispd98.jsonl", nlevel),
        ("trace_nlevel_kway_ispd98.jsonl", nlevel_kway),
        ("trace_nlevel_multistart_ispd98.jsonl", nlevel_multistart),
        ("trace_nlevel_random_ispd98.jsonl", nlevel_random),
    ]
}

/// The n-level goldens really exercise the n-level path: both traces
/// must open a contraction bracket and close an uncontraction bracket,
/// and the bisection one must report one memento per uncontracted pair.
#[test]
fn nlevel_traces_carry_contraction_brackets() {
    for file in [
        "trace_nlevel_ispd98.jsonl",
        "trace_nlevel_kway_ispd98.jsonl",
    ] {
        let (_, text) = engine_traces()
            .into_iter()
            .find(|(f, _)| *f == file)
            .expect("nlevel trace present");
        let events: Vec<RunEvent> = text
            .lines()
            .map(|line| {
                let value = JsonValue::parse(line).expect("golden line parses");
                RunEvent::from_json(&value).expect("golden line is an event")
            })
            .collect();
        let begins = events
            .iter()
            .filter(|e| matches!(e, RunEvent::ContractionBegin { .. }))
            .count();
        let ends = events
            .iter()
            .filter(|e| matches!(e, RunEvent::UncontractionEnd { .. }))
            .count();
        assert!(begins >= 1, "{file}: no contraction_begin events");
        assert_eq!(
            begins, ends,
            "{file}: contraction/uncontraction phases must pair up"
        );
    }
}

/// The deep-ML golden really exercises a multi-level hierarchy: its trace
/// must announce at least three `LevelDown` events, otherwise the golden
/// would silently stop covering the coarsening recursion it exists to pin.
#[test]
fn deep_ml_trace_has_three_coarsening_levels() {
    let (_, text) = engine_traces()
        .into_iter()
        .find(|(f, _)| *f == "trace_ml_deep.jsonl")
        .expect("deep trace present");
    let max_level = text
        .lines()
        .map(|line| {
            let value = JsonValue::parse(line).expect("golden line parses");
            RunEvent::from_json(&value).expect("golden line is an event")
        })
        .filter_map(|e| match e {
            RunEvent::LevelDown { level, .. } => Some(level),
            _ => None,
        })
        .max()
        .unwrap_or(0);
    assert!(
        max_level >= 3,
        "trace_ml_deep.jsonl: expected >=3 coarsening levels, got {max_level}"
    );
}

#[test]
fn engine_jsonl_streams_match_golden_files() {
    for (file, got) in engine_traces() {
        let path = format!("{GOLDEN_DIR}/{file}");
        if std::env::var_os("UPDATE_GOLDEN").is_some() {
            std::fs::write(&path, &got).expect("write golden");
        }
        let want = std::fs::read_to_string(&path)
            .unwrap_or_else(|_| panic!("{file} missing — run with UPDATE_GOLDEN=1 to create"));
        assert_eq!(
            got, want,
            "{file} drifted: the engines must emit bitwise-identical JSONL \
             streams; if the change is intentional, regenerate with UPDATE_GOLDEN=1"
        );
    }
}

#[test]
fn golden_lines_parse_back_to_events() {
    let text = toy_trace();
    let mut events = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let value = JsonValue::parse(line).unwrap_or_else(|e| panic!("line {i}: {e}"));
        let event = RunEvent::from_json(&value).unwrap_or_else(|e| panic!("line {i}: {e}"));
        // Round-trip: event -> JSON -> text reproduces the line exactly.
        assert_eq!(event.to_json().to_string(), line, "line {i}");
        events.push(event);
    }
    assert!(matches!(events.first(), Some(RunEvent::RunBegin { .. })));
    assert!(matches!(events.last(), Some(RunEvent::RunEnd { .. })));
    // Every line advertises its kind in the "ev" field.
    for (event, line) in events.iter().zip(text.lines()) {
        assert!(line.contains(&format!("\"ev\":\"{}\"", event.kind())));
    }
}
