//! `tlc workload` on spec files whose sizes would wrap or exhaust memory:
//! the binary exits 2 with an error naming the field, not 101 (a panic).

#[test]
fn oversized_spec_sizes_exit_2_naming_the_field() {
    let dir = std::env::temp_dir().join(format!("tlc-workload-spec-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let cases = [
        (
            r#"{"regions":[{"base":0,"size_kb":18014398509481984,"weight":1,"mean_run":2}]}"#,
            "region",
        ),
        (r#"{"chase":{"base":1073741824,"size_kb":134217728,"p_restart":0}}"#, "chase"),
    ];
    for (data, field) in cases {
        let path = dir.join(format!("{field}.json"));
        let spec = format!(
            r#"{{"name":"huge","seed":1,"data_per_instr":0.3,"store_fraction":0.2,"data":{data},
               "code":{{"footprint_kb":16,"n_sites":4,"body_min_bytes":64,"body_max_bytes":256,
                        "mean_iters":4,"zipf_theta":1,"p_excursion":0.01,"excursion_bytes":256}}}}"#
        );
        std::fs::write(&path, spec).expect("write spec");
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_tlc"))
            .args(["workload", path.to_str().expect("utf8"), "--instr", "1000"])
            .output()
            .expect("run tlc");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{field}: {stderr}");
        assert!(stderr.contains(&format!("{field} size_kb")), "{field}: {stderr:?}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
