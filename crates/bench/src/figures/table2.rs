//! Table II: the evaluation workload catalog — task, model, dataset, and
//! relative size class — plus the synthetic per-GPU throughputs this
//! reproduction uses in place of Gavel's raw measurements.

use std::path::Path;

use hadar_metrics::{CsvWriter, Table};
use hadar_workload::DlTask;

use crate::figures::FigureResult;

/// Regenerate Table II.
pub fn run(out_dir: &Path) -> FigureResult {
    let mut table = Table::new(vec![
        "Task",
        "Model",
        "Dataset",
        "Size",
        "V100 it/s",
        "P100 it/s",
        "K80 it/s",
    ]);
    let mut csv = CsvWriter::new(&[
        "task",
        "model",
        "dataset",
        "size_class",
        "v100_its",
        "p100_its",
        "k80_its",
        "checkpoint_mib",
    ]);
    for t in DlTask::ALL {
        let x = |g: &str| t.throughput_on(g).expect("known type");
        table.row(vec![
            t.task_name().to_owned(),
            t.model_name().to_owned(),
            t.dataset().to_owned(),
            t.size_class().label().to_owned(),
            format!("{}", x("V100")),
            format!("{}", x("P100")),
            format!("{}", x("K80")),
        ]);
        csv.row(vec![
            t.task_name().to_owned(),
            t.model_name().to_owned(),
            t.dataset().to_owned(),
            t.size_class().label().to_owned(),
            format!("{}", x("V100")),
            format!("{}", x("P100")),
            format!("{}", x("K80")),
            format!("{}", t.checkpoint_mib()),
        ]);
    }
    let path = out_dir.join("table2_workloads.csv");
    csv.write_to(&path).expect("write table2 csv");
    FigureResult::new(
        "table2",
        format!("Table II: evaluation workloads\n{}", table.render()),
        vec![path],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lists_all_five_models() {
        let r = run(&crate::figures::test_out());
        for m in ["ResNet-50", "ResNet-18", "LSTM", "CycleGAN", "Transformer"] {
            assert!(r.summary.contains(m), "{m} missing");
        }
        let csv = std::fs::read_to_string(&r.csv_paths[0]).unwrap();
        assert_eq!(csv.lines().count(), 6);
    }
}
