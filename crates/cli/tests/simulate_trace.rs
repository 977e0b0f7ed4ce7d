//! `hadar-cli simulate --trace` on a trace the cluster cannot run: the
//! process must fail with exit status 2 and name the job, not spin to the
//! round cap and report a timed-out run.

use std::process::Command;

#[test]
fn unplaceable_gang_exits_2_and_names_the_job() {
    let dir = std::env::temp_dir().join(format!("hadar-cli-trace-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("trace.csv");
    std::fs::write(
        &path,
        "id,model,arrival_s,gang,epochs,iters_per_epoch\n\
         0,ResNet-18,0,1,5,390\n\
         1,ResNet-18,0,1000,5,390\n",
    )
    .unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_hadar-cli"))
        .args([
            "simulate",
            "--scheduler",
            "yarn",
            "--cluster",
            "toy",
            "--trace",
        ])
        .arg(&path)
        .output()
        .unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("job J1 has gang 1000"), "stderr: {stderr}");
}
