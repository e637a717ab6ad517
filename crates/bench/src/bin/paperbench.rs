//! `paperbench [artifact…]`: print the paper's tables and figures at
//! `insum_bench::paper`'s harness configuration. With no argument it
//! prints all of them and writes every simulated cell to
//! `PAPER_RESULTS.json` at the repository root; CI regenerates the file
//! and fails when it differs from the committed one. Each experiment runs
//! at most once: Table 1 reads the rows of Figs. 10–12 and Table 2,
//! computing them unprinted when they were not asked for.

use insum_bench::paper::{self, Config, Table};
use std::cell::OnceCell;

const ARTIFACTS: [&str; 9] = [
    "fig7", "fig8", "fig10", "fig11", "fig12", "fig13", "table1", "table2", "table3",
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(bad) = args.iter().find(|a| !ARTIFACTS.contains(&a.as_str())) {
        eprintln!("paperbench: unknown artifact `{bad}`; expected any of {ARTIFACTS:?}");
        std::process::exit(2);
    }
    let cfg = Config::HARNESS;
    let tables: [OnceCell<Table>; 9] = Default::default();
    let artifact = |name: &str| -> &Table {
        let i = ARTIFACTS
            .iter()
            .position(|a| *a == name)
            .expect("an artifact");
        tables[i].get_or_init(|| match name {
            "fig7" => paper::fig7(&cfg),
            "fig8" => paper::fig8(&cfg),
            "fig10" => paper::fig10(&cfg),
            "fig11" => paper::fig11(&cfg),
            "fig12" => paper::fig12(&cfg),
            "fig13" => paper::fig13(&cfg),
            "table2" => paper::table2(&cfg),
            "table3" => paper::table3(&cfg),
            other => unreachable!("{other} is assembled from the other tables"),
        })
    };
    let table1 = OnceCell::new();
    let asked = ARTIFACTS
        .into_iter()
        .filter(|a| args.is_empty() || args.iter().any(|b| b == a));
    let printed: Vec<(&str, &Table)> = asked
        .map(|name| {
            let table = match name {
                "table1" => table1.get_or_init(|| {
                    let [f10, f11, f12, t2] = ["fig10", "fig11", "fig12", "table2"].map(artifact);
                    paper::table1(f10, f11, f12, t2)
                }),
                _ => artifact(name),
            };
            table.print();
            (name, table)
        })
        .collect();
    if args.is_empty() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../PAPER_RESULTS.json");
        std::fs::write(path, paper::render_results(&printed)).expect("write PAPER_RESULTS.json");
    }
}
