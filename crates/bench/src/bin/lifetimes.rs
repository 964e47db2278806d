//! §III-D: data lifetimes and the size of the weighting bias.
//!
//! "The results are extremely skewed depending on the amount of memory
//! accesses the benchmark executes, and the variance in memory-data
//! lifetimes." This experiment quantifies that: for every benchmark it
//! prints the lifetime distribution of its def/use classes and the
//! resulting gap between unweighted and weighted fault coverage.

use sofi::campaign::{Campaign, FaultDomain};
use sofi::metrics::{fault_coverage, Weighting};
use sofi::report::{bar_chart, Table};
use sofi_bench::save_artifact;

struct LifetimeRow {
    benchmark: String,
    classes: u64,
    min: u64,
    median: f64,
    max: u64,
    mean: f64,
    std_dev: f64,
    coverage_gap_pp: f64,
}
sofi::report::impl_to_json!(LifetimeRow {
    benchmark,
    classes,
    min,
    median,
    max,
    mean,
    std_dev,
    coverage_gap_pp
});

fn main() {
    let mut rows = Vec::new();
    let mut histogram_demo = None;
    for program in sofi::workloads::all_baselines() {
        eprintln!("analyzing {} ...", program.name);
        let campaign = Campaign::new(&program).expect("golden run");
        let stats = campaign.analysis_for(FaultDomain::Memory).lifetime_stats();
        let result = campaign.run_full_defuse_in(FaultDomain::Memory);
        let gap = (fault_coverage(&result, Weighting::Weighted)
            - fault_coverage(&result, Weighting::Unweighted))
            * 100.0;
        if program.name == "bin_sem2" {
            histogram_demo = Some(stats.clone());
        }
        rows.push(LifetimeRow {
            benchmark: program.name.clone(),
            classes: stats.classes,
            min: stats.min,
            median: stats.median,
            max: stats.max,
            mean: stats.mean,
            std_dev: stats.std_dev,
            coverage_gap_pp: gap,
        });
    }

    println!("== §III-D: data-lifetime distributions and the weighting bias ==");
    let mut t = Table::new(vec![
        "benchmark",
        "classes",
        "min",
        "median",
        "max",
        "mean",
        "std dev",
        "cov gap [pp]",
    ]);
    for r in &rows {
        t.row(vec![
            r.benchmark.clone(),
            r.classes.to_string(),
            r.min.to_string(),
            format!("{:.1}", r.median),
            r.max.to_string(),
            format!("{:.1}", r.mean),
            format!("{:.1}", r.std_dev),
            format!("{:+.1}", r.coverage_gap_pp),
        ]);
    }
    println!("{t}");

    if let Some(stats) = histogram_demo {
        println!("lifetime histogram, bin_sem2 (log2 buckets of cycles):");
        let bars: Vec<(String, f64)> = stats
            .histogram
            .iter()
            .enumerate()
            .take_while(|&(k, _)| stats.histogram[k..].iter().any(|&c| c > 0))
            .map(|(k, &c)| (format!("2^{k:<2}"), c as f64))
            .collect();
        println!("{}", bar_chart(&bars, 50));
    }

    println!("Benchmarks whose lifetimes span orders of magnitude (large std dev,");
    println!("max >> median) show the biggest unweighted-vs-weighted coverage gaps —");
    println!("exactly the correlation §III-D describes.");

    save_artifact("lifetimes.json", &rows);
}
