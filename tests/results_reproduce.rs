//! Every committed full-scale result is rebuilt exactly from the code: the
//! whole experiment suite regenerates into a temporary directory, and each
//! CSV must equal its copy under `results/` byte for byte, so no change can
//! move a decision without this test noticing. `fig7_scalability.csv` holds
//! wall-clock decision times, so only its header and row count are checked.

use std::collections::BTreeSet;
use std::path::Path;

use hadar_bench::figures::run_all;
use hadar_sim::SweepRunner;

/// The CSV that records timings rather than decisions.
const TIMED: &str = "fig7_scalability.csv";

/// The suite's distinct simulation cells; a cell that repeats another
/// (same cluster, trace, config and policy) would raise the count.
const CELLS: usize = 111;

fn csv_names(dir: &Path) -> BTreeSet<String> {
    std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("reading {}: {e}", dir.display()))
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|n| n.ends_with(".csv"))
        .collect()
}

#[test]
fn results_reproduce_from_head() {
    let committed = Path::new(env!("CARGO_MANIFEST_DIR")).join("results");
    let out = std::env::temp_dir().join(format!("hadar-results-{}", std::process::id()));
    std::fs::create_dir_all(&out).unwrap();
    let results = run_all(false, &SweepRunner::new(2), &out);
    let cells: usize = results.iter().map(|r| r.timings.len()).sum();
    assert_eq!(cells, CELLS, "the full suite's sweep cell count moved");

    assert_eq!(
        csv_names(&out),
        csv_names(&committed),
        "the suite's CSVs differ from the set committed under results/"
    );
    for name in csv_names(&committed) {
        let want = std::fs::read_to_string(committed.join(&name)).unwrap();
        let got = std::fs::read_to_string(out.join(&name)).unwrap();
        if name == TIMED {
            assert_eq!(got.lines().next(), want.lines().next(), "{name}: header");
            assert_eq!(got.lines().count(), want.lines().count(), "{name}: rows");
        } else {
            assert!(
                got == want,
                "{name} no longer reproduces from the code: regenerate results/ \
                 with `all_experiments` if the change is meant to move it"
            );
        }
    }
    std::fs::remove_dir_all(&out).unwrap();
}
