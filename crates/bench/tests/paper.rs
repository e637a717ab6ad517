//! The paper's qualitative shapes and Table 1's assembly, asserted on the
//! cells `insum_bench::paper` computes at its test configuration, so the
//! tests and `paperbench` share one setup per experiment.

use insum_bench::geomean;
use insum_bench::paper::{self, Config};
use insum_telemetry::json::{self, Value};

#[test]
fn ablation_ladder_is_monotone() {
    // Fig. 13's ladder: unfused < fused-eager < fused-lazy (in speed).
    let fig13 = paper::fig13(&Config::TEST);
    let time = |rung| fig13.get(&[rung], "time (us)");
    let unfused = time("COO + Group + Block (unfused)");
    let (eager, lazy) = (time("+ Tensor Core fusion"), time("+ Lazy Broadcasting"));
    assert!(lazy < eager, "lazy {lazy} us must beat eager {eager} us");
    assert!(
        eager < unfused,
        "fused {eager} us must beat unfused {unfused} us"
    );
}

#[test]
fn heuristic_group_size_is_near_optimal_in_simulated_time() {
    let fig7 = paper::fig7(&Config::TEST);
    let g_star = fig7.fact("heuristic g");
    let t_star = fig7.get(&[&g_star.to_string()], "runtime (us)");
    let runtimes = fig7.column("runtime (us)");
    let best = runtimes.into_iter().fold(f64::MAX, f64::min);
    assert!(
        t_star <= best * 1.25,
        "heuristic g={g_star} time {t_star} us within 25% of best {best} us"
    );
}

#[test]
fn table1_cells_are_the_cells_they_name() {
    let cfg = Config::TEST;
    let (fig10, fig11) = (paper::fig10(&cfg), paper::fig11(&cfg));
    let (fig12, table2) = (paper::fig12(&cfg), paper::table2(&cfg));
    let t1 = paper::table1(&fig10, &fig11, &fig12, &table2);
    let cell = |application| t1.get(&[application], "speedup (measured)");

    let room = |c| fig12.get(&["conferenceRoom"], c);
    let geomeans = |c| fig11.get(&["geomean"], c);
    let conv = room("vs Algo1 (ImplicitGEMM)").min(room("vs Algo2 (Fetch-on-Demand)"));
    let named = [
        ("Structured SpMM", fig10.get(&["90%"], "ours vs TorchBSR")),
        ("Unstructured SpMM", geomeans("ours") / geomeans("Sputnik")),
        ("Sparse Convolution", conv),
        ("Equivariant Tensor Prod.", table2.get(&["2", "32"], "ours")),
    ];
    for (application, want) in named {
        assert_eq!(cell(application).to_bits(), want.to_bits(), "{application}");
    }
    // The ratio of the geomeans is the geomean of Sputnik / ours per graph
    // (the last row is the geomean row).
    let (ours, sputnik) = (fig11.column("ours"), fig11.column("Sputnik"));
    let per_graph = geomean((0..ours.len() - 1).map(|i| ours[i] / sputnik[i]));
    assert!((cell("Unstructured SpMM") / per_graph - 1.0).abs() < 1e-12);

    // What CI diffs parses back to the cells Table 1 printed.
    let recorded = json::parse(&paper::render_results(&[("table1", &t1)]));
    let recorded = recorded.expect("PAPER_RESULTS.json parses");
    let rows = recorded.get("table1").and_then(|t| t.get("rows"));
    let rows = rows.and_then(Value::as_arr).expect("recorded rows");
    for (row, (application, _)) in rows.iter().zip(named) {
        let speedup = row.get("speedup (measured)").and_then(Value::as_f64);
        assert_eq!(speedup, Some(cell(application)));
    }
}
