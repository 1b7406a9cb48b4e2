//! Smoke test of the benchmark itself: every workload shape at tiny
//! size, every metric emitted with its unit, and output checks that
//! fail when the decoder under test is wrong.

use ftqc_decoder::{AnyDecoder, Decoder, DecoderScratch, ScratchCapacity};
use syncbench::{measure_check, run, Check, Options, Report, Workload, END_TO_END, PER_LAYER};

/// Both workload shapes at d = 3, with bands measured the way the
/// committed ones are.
fn tiny() -> Vec<Workload> {
    let placeholder = || Check::LerBelow(Vec::new());
    let mut workloads = vec![
        Workload::surgery_mwpm(3, placeholder()),
        Workload::stream_uf(3, 8, placeholder()),
    ];
    for w in &mut workloads {
        w.check = measure_check(w, 2_048);
    }
    workloads
}

fn options(trace: bool) -> Options {
    Options {
        seed: 7,
        seconds: 0.3,
        trace,
        substitute: None,
    }
}

fn assert_metrics(report: &Report, expected: &[(&str, &str)]) {
    let got: Vec<(&str, &str)> = report.metrics.iter().map(|m| (m.name, m.unit)).collect();
    assert_eq!(got, expected);
    assert!(report.metrics.iter().all(|m| m.value.is_finite()));
    let json = report.to_json();
    for (name, unit) in expected {
        assert!(
            json.contains(&format!("\"{name}\": {{\"value\": "))
                && json.contains(&format!("\"unit\": \"{unit}\"")),
            "{name} missing from {json}"
        );
    }
}

#[test]
fn every_metric_is_emitted_with_its_unit() {
    for w in tiny() {
        let untraced = run(&w, &options(false));
        assert!(untraced.correct, "{}: {:?}", w.name, untraced.notes);
        assert!(untraced.attempted > 0 && untraced.failed == 0);
        assert_metrics(&untraced, &END_TO_END);
        for m in &untraced.metrics {
            assert!(
                m.value > 0.0,
                "{}: end-to-end metric {} is 0",
                w.name,
                m.name
            );
        }

        let traced = run(&w, &options(true));
        assert!(traced.correct, "{}: {:?}", w.name, traced.notes);
        assert_metrics(&traced, &PER_LAYER);
        let coverage = traced.metric("exp.layer_coverage").unwrap();
        assert!(
            coverage > 0.0 && coverage <= 1.0,
            "{}: coverage {coverage}",
            w.name
        );
        let streamed = traced.metric("stream.push_s").unwrap() > 0.0;
        assert_eq!(streamed, w.stream.is_some(), "{}", w.name);
        assert!(traced.metric("decoder.decode_calls").unwrap() > 0.0);
    }
}

/// A decoder wrapper that always predicts no logical flip.
struct Zero<'a>(&'a AnyDecoder);

impl Decoder for Zero<'_> {
    fn decode_into(&self, _: &mut DecoderScratch, _: &[u32], correction: &mut u32) {
        *correction = 0;
    }

    fn scratch_capacity(&self) -> ScratchCapacity {
        self.0.scratch_capacity()
    }
}

fn zero(real: &AnyDecoder) -> Box<dyn Decoder + '_> {
    Box::new(Zero(real))
}

#[test]
fn a_decoder_that_always_predicts_zero_is_reported_as_failed() {
    for w in tiny() {
        for trace in [false, true] {
            let report = run(
                &w,
                &Options {
                    substitute: Some(zero),
                    seconds: 1.0,
                    ..options(trace)
                },
            );
            assert!(
                !report.correct,
                "{} (trace {trace}) passed: {:?}",
                w.name, report.notes
            );
            assert!(report.failed > 0 && report.failed == report.attempted);
        }
    }
}

#[test]
fn benchmark_json_names_every_workload_and_metric() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    for name in ["surgery-mwpm-d5", "stream-uf-d11"] {
        assert!(json.contains(&format!("\"name\": \"{name}\"")), "{name}");
        assert_eq!(
            Workload::named(name).map(|w| w.name),
            Some(name.to_string())
        );
    }
    for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
        assert!(
            json.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
            "{name} [{unit}] missing from BENCHMARK.json"
        );
    }
}
