//! Tests of the `cluster:…` spec family of [`crate::GpuSimBackend`]: its
//! label, its typed errors, and the host and communication rows of its
//! report.

#[cfg(test)]
mod tests {
    use crate::{BackendSpec, DeviceKind, GpuSimBackend, KernelStrategy, SolveBackend};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sshopm::starts::random_uniform_starts;
    use sshopm::{IterationPolicy, Shift, SsHopm};
    use symtensor::TensorBatch;
    use telemetry::Telemetry;

    fn workload(t: usize, v: usize) -> (TensorBatch<f64>, Vec<Vec<f64>>) {
        let mut rng = StdRng::seed_from_u64(21);
        let tensors = TensorBatch::random(4, 3, t, &mut rng).unwrap();
        let starts = random_uniform_starts(3, v, &mut rng);
        (tensors, starts)
    }

    fn cluster(spec: &str) -> GpuSimBackend {
        BackendSpec::parse(spec)
            .unwrap()
            .build_gpusim(KernelStrategy::Tape)
            .unwrap()
    }

    #[test]
    fn label_names_topology_and_streams() {
        let b = cluster("cluster:4:2");
        assert_eq!(
            SolveBackend::<f64>::label(&b),
            "cluster:gpusim:tesla-c2050:4x2x1"
        );
        let piped = b.with_streams(3).unwrap();
        assert_eq!(
            SolveBackend::<f64>::label(&piped),
            "cluster:gpusim:tesla-c2050:4x2x3"
        );
    }

    #[test]
    fn zero_streams_and_zero_chunks_are_typed_errors_naming_the_flags() {
        let b = cluster("cluster:2:2");
        let err = b.clone().with_streams(0).unwrap_err();
        assert!(err.to_string().contains("--streams"), "{err}");
        let err = b.with_chunk_tensors(0).unwrap_err();
        assert!(err.to_string().contains("--chunk-tensors"), "{err}");
    }

    #[test]
    fn zero_hosts_or_devices_are_errors() {
        let spec = |hosts, devices| BackendSpec::Cluster {
            device: DeviceKind::TeslaC2050,
            hosts,
            devices,
            streams: 1,
        };
        assert!(spec(0, 2).build_gpusim(KernelStrategy::Tape).is_err());
        assert!(spec(2, 0).build_gpusim(KernelStrategy::Tape).is_err());
    }

    #[test]
    fn report_carries_host_rows_and_comm_accounting() {
        let (tensors, starts) = workload(96, 8);
        let backend = cluster("cluster:2:2");
        let solver = SsHopm::new(Shift::Fixed(0.0)).with_policy(IterationPolicy::Fixed(6));
        let report = backend
            .solve_batch(&tensors, &starts, &solver, &Telemetry::disabled())
            .unwrap();
        assert_eq!(report.hosts.len(), 2);
        assert_eq!(report.hosts[0].nic_down_bytes, 0);
        assert!(report.hosts[1].nic_down_bytes > 0);
        assert!(report.comm.nic_bytes > 0);
        assert!(report.comm.lower_bound_bytes > 0);
        assert!(
            report.comm.ratio > 0.9 && report.comm.ratio < 8.0,
            "{}",
            report.comm.ratio
        );
        assert_eq!(report.profiles.len(), 4);
        assert_eq!(report.profiles[2].host_index, 1);
        assert_eq!(report.profiles[2].device_index, 2);
        let run = report.run_report();
        assert_eq!(run.hosts.len(), 2);
        assert!(run.latency("host").is_some());
    }

    #[test]
    fn adaptive_solvers_are_rejected_with_a_pointer_to_cpu() {
        let (tensors, starts) = workload(4, 2);
        let backend = cluster("cluster:2:1");
        let solver = SsHopm::new(Shift::Adaptive).with_policy(IterationPolicy::Fixed(4));
        let err = backend
            .solve_batch(&tensors, &starts, &solver, &Telemetry::disabled())
            .unwrap_err();
        assert!(err.to_string().contains("cpu"), "{err}");
    }
}
