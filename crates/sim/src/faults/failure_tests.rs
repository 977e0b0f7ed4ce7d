#[cfg(test)]
mod tests {
    //! Unit tests of the failure model on the shared fault process in
    //! [`crate::faults`].

    use crate::faults::tests::{failures, stragglers, trace};
    use crate::faults::MachineFaults;
    use crate::FailureModel;

    #[test]
    fn disabled_model_keeps_everything_up() {
        // Stragglers on, failures off: nothing ever goes down.
        let mut f = MachineFaults::new(Some(stragglers(0.5, 0.4, 2.0, 6)), None, 6);
        for _ in 0..20 {
            let (failed, recovered) = f.step();
            assert!(failed.is_empty() && recovered.is_empty());
            assert!(f.factors().iter().all(|&x| x > 0.0));
        }
        assert!(!f.availability().any_down());
        assert_eq!(f.availability().num_down(), 0);
    }

    #[test]
    fn deterministic_under_seed() {
        let run = |seed: u64| {
            let mut f = MachineFaults::new(None, Some(failures(4.0, 2.0, seed)), 8);
            trace(&mut f, 100)
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn machines_fail_and_recover() {
        let mut f = MachineFaults::new(None, Some(failures(3.0, 2.0, 5)), 8);
        let (mut saw_failure, mut saw_recovery) = (false, false);
        for _ in 0..200 {
            let (failed, recovered) = f.step();
            let (failed, recovered) = (failed.to_vec(), recovered.to_vec());
            saw_failure |= !failed.is_empty();
            saw_recovery |= !recovered.is_empty();
            let a = f.availability();
            assert!(failed
                .iter()
                .all(|&h| !a.is_up(h) && f.factors()[h.index()] == 0.0));
            assert!(recovered
                .iter()
                .all(|&h| a.is_up(h) && f.factors()[h.index()] == 1.0));
            let zeros = f.factors().iter().filter(|&&x| x == 0.0).count();
            assert_eq!(zeros, a.num_down());
        }
        assert!(saw_failure, "no failure in 200 rounds at mtbf=3");
        assert!(saw_recovery, "no recovery in 200 rounds at mttr=2");
    }

    #[test]
    fn invalid_parameters_rejected() {
        let ok = FailureModel::default();
        assert!(ok.validate().is_ok());
        assert!(FailureModel {
            mtbf_rounds: 0.5,
            ..ok
        }
        .validate()
        .unwrap_err()
        .contains("mtbf"));
        assert!(FailureModel {
            mttr_rounds: f64::NAN,
            ..ok
        }
        .validate()
        .unwrap_err()
        .contains("mttr"));
    }
}
