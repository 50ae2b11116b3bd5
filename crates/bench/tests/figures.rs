//! Holds every figure to the direction the paper reports (ROADMAP item 7).
//!
//! Every registry entry runs at CI scale, one repetition; `run_once` has
//! checked every run's answer against the workload's sequential reference
//! before a table comes back.  Only
//! counters are compared — locks per operation, in-node ratio, simulated
//! rank — never timings, so the test does not depend on the machine.
//! Work increase against `p_steal` stays with `tests/relaxation_quality.rs`
//! and its deterministic driver; here it is only finite and positive.

use std::collections::HashMap;

use smq_bench::args::{BenchArgs, Scale};
use smq_bench::figures::REGISTRY;
use smq_bench::report::{Table, Value};

/// Runs the registered figure at CI scale, one repetition, and checks what
/// holds for every table: it has rows, and every number is finite.
fn run(name: &str, flags: &[&str]) -> Vec<Table> {
    let args = BenchArgs {
        // Two workers per simulated node for the NUMA tables.
        threads: if name.contains("numa") { 4 } else { 2 },
        scale: Scale::Ci,
        repetitions: 1,
        ..BenchArgs::default()
    };
    let (_, figure) = REGISTRY
        .iter()
        .find(|(registered, _)| *registered == name)
        .expect("registered figure");
    let tables = figure(&args, flags.iter().map(|flag| flag.to_string()).collect());
    assert!(!tables.is_empty(), "{name} returned no table");
    for table in &tables {
        assert!(!table.rows().is_empty(), "'{}' is empty", table.title());
        for x in table.rows().iter().flatten().filter_map(Value::as_f64) {
            assert!(x.is_finite(), "'{}' holds {x}", table.title());
        }
    }
    tables
}

/// The number in `column` of the row whose leading cells are `key`.
fn num(table: &Table, key: &[&str], column: &str) -> f64 {
    let at = table.header().iter().position(|name| name == column);
    let row = table.rows().iter().find(|row| {
        key.iter()
            .zip(row.iter())
            .all(|(k, v)| *v == Value::from(*k))
    });
    match (at, row) {
        (Some(at), Some(row)) => row[at].as_f64(),
        _ => None,
    }
    .unwrap_or_else(|| panic!("'{}' has no number at {key:?} / {column}", table.title()))
}

/// Every work-increase number a table shows: its `Work increase` column,
/// or every cell when the table is a `: Work increase` grid.
fn work_increases(table: &Table) -> Vec<f64> {
    let grid = table.title().ends_with(": Work increase");
    let column = table
        .header()
        .iter()
        .position(|name| name == "Work increase");
    let cells = table.rows().iter().flat_map(|row| match column {
        Some(at) => &row[at..=at],
        None if grid => &row[1..],
        None => &row[..0],
    });
    cells.filter_map(Value::as_f64).collect()
}

#[test]
fn figures_hold_the_papers_directions() {
    let all: HashMap<&str, Vec<Table>> = REGISTRY
        .iter()
        .map(|(name, _)| (*name, run(name, &[])))
        .collect();
    let work: Vec<f64> = all.values().flatten().flat_map(work_increases).collect();
    assert!(
        work.len() > 100,
        "figs 1, 2, 7-16 and 19 report work increase"
    );
    assert!(work.iter().all(|x| *x > 0.0), "work increases: {work:?}");

    // Fig. 2: a larger hot-path batch takes fewer locks per operation.
    for table in &all["fig2_scheduler_comparison"] {
        for scheduler in ["SMQ (Default)", "SMQ skip-list", "OBIM"] {
            let (per_task, batched) = (
                num(table, &[scheduler, "1"], "Locks/op"),
                num(table, &[scheduler, "8"], "Locks/op"),
            );
            assert!(
                batched < per_task,
                "'{}': {scheduler} takes {batched} locks/op at batch 8, {per_task} at batch 1",
                table.title()
            );
        }
    }

    // Figs 15-16: batching both sides of the Multi-Queue amortizes its
    // locks; the same pair through the figs 7-14 grid.
    for table in &all["fig15_16_mq_best_variants"] {
        let classic = num(table, &["classic"], "Locks/op");
        let batched = num(table, &["insert=B delete=B"], "Locks/op");
        assert!(
            batched < classic,
            "'{}': {batched} vs {classic}",
            table.title()
        );
    }
    // ... and the SMQ takes fewer than the classic Multi-Queue at equal
    // threads (figs 15-16's inputs are the first four of Fig. 2's).
    let pairs = all["fig2_scheduler_comparison"]
        .iter()
        .zip(&all["fig15_16_mq_best_variants"]);
    for (smq, mq) in pairs {
        let input = |table: &Table| table.title().rsplit(": ").next().map(str::to_string);
        assert_eq!(input(smq), input(mq));
        let smq = num(smq, &["SMQ (Default)", "1"], "Locks/op");
        let classic = num(mq, &["classic"], "Locks/op");
        assert!(smq < classic, "{:?}: SMQ {smq} vs MQ {classic}", input(mq));
    }
    let grids = run(
        "fig7_14_mq_optimizations",
        &["--insert", "batch", "--delete", "batch"],
    );
    let lock_grids: Vec<&Table> = grids
        .iter()
        .filter(|table| table.title().ends_with(": Locks/op"))
        .collect();
    assert!(!lock_grids.is_empty());
    for table in lock_grids {
        let (classic, batched) = (num(table, &["B=1"], "B=1"), num(table, &["B=16"], "B=16"));
        assert!(
            batched < classic,
            "'{}': {batched} vs {classic}",
            table.title()
        );
    }

    // Tables 16-27: a larger NUMA weight K keeps more accesses in-node.
    for name in ["table16_23_mq_numa", "table24_27_smq_numa"] {
        for table in &all[name] {
            for batch in ["1", "8"] {
                let (uniform, weighted) = (
                    num(table, &["1", batch], "E_int"),
                    num(table, &["64", batch], "E_int"),
                );
                assert!(
                    weighted > uniform,
                    "'{}' batch {batch}: E_int {weighted} at K=64, {uniform} at K=1",
                    table.title()
                );
            }
        }
    }

    // Theorem 1: the measured rank over the predicted n·B·(1+γ)/p_steal
    // stays in a fixed band, and the simulation is a function of its seed.
    let theorem = &all["theorem1_rank_bounds"];
    let at = theorem[0].header().len() - 1;
    for row in theorem[0].rows() {
        let normalized = row[at].as_f64().expect("a number");
        assert!(
            (0.25..=2.0).contains(&normalized),
            "avg rank / (nB/p) = {normalized} in {row:?}"
        );
    }
    assert_eq!(theorem, &run("theorem1_rank_bounds", &[]));
    assert_eq!(all["table1_graphs"], run("table1_graphs", &[]));
}

#[test]
fn table_json_round_trips() {
    let mut table = Table::new("A \"quoted\" title \\ with a backslash", ["K", "E_int"]);
    table.add_row(vec!["blind".into(), 0.125.into()]);
    table.add_row(vec!["64".into(), None.into()]);
    let doc = serde_json::from_str(&table.to_json()).expect("valid JSON");
    let text = |value: &serde_json::Value| value.as_str().map(str::to_string);
    assert_eq!(
        doc.get("title").and_then(text).as_deref(),
        Some(table.title())
    );
    let columns = doc
        .get("columns")
        .and_then(|c| c.as_array())
        .expect("columns");
    assert_eq!(
        columns.iter().filter_map(text).collect::<Vec<_>>(),
        table.header()
    );
    let rows = doc.get("rows").and_then(|r| r.as_array()).expect("rows");
    assert_eq!(rows.len(), 2);
    let first = rows[0].as_array().expect("a row");
    assert_eq!(first[0].as_str(), Some("blind"));
    assert_eq!(first[1].as_f64(), Some(0.125));
    let second = rows[1].as_array().expect("a row");
    assert_eq!(
        second[0].as_str(),
        Some("64"),
        "integer parameters stay text"
    );
    assert!(second[1].is_null());
}
