#[cfg(test)]
mod tests {
    //! Unit tests of the straggler model on the shared fault process in
    //! [`crate::faults`].

    use crate::faults::tests::{failures, stragglers, trace};
    use crate::faults::MachineFaults;
    use crate::StragglerModel;

    #[test]
    fn disabled_model_is_identity() {
        let mut f = MachineFaults::new(None, None, 4);
        for _ in 0..10 {
            let (failed, recovered) = f.step();
            assert!(failed.is_empty() && recovered.is_empty());
            assert!(f.factors().iter().all(|&x| x == 1.0));
        }
        // With failures on, a machine that is up still reads 1.0.
        let mut f = MachineFaults::new(None, Some(failures(3.0, 2.0, 4)), 6);
        for _ in 0..100 {
            f.step();
            assert!(f.factors().iter().all(|&x| x == 1.0 || x == 0.0));
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let run = |seed: u64| {
            let mut f = MachineFaults::new(Some(stragglers(0.3, 0.4, 5.0, seed)), None, 6);
            trace(&mut f, 50)
        };
        assert_eq!(run(1), run(1));
        assert_ne!(run(1), run(2));
    }

    #[test]
    fn stragglers_occur_and_recover() {
        let mut f = MachineFaults::new(Some(stragglers(0.5, 0.25, 2.0, 3)), None, 8);
        let (mut saw_straggle, mut saw_recovery_after_straggle, mut prev) = (false, false, 0);
        for _ in 0..200 {
            let (failed, recovered) = f.step();
            assert!(failed.is_empty() && recovered.is_empty());
            assert!(f.factors().iter().all(|&x| x == 1.0 || x == 0.25));
            let now = f.factors().iter().filter(|&&x| x < 1.0).count();
            saw_straggle |= now > 0;
            saw_recovery_after_straggle |= prev > 0 && now < prev;
            prev = now;
        }
        assert!(saw_straggle, "no straggle event in 200 rounds at p=0.5");
        assert!(saw_recovery_after_straggle, "machines never recovered");
    }

    #[test]
    fn invalid_slowdown_rejected() {
        let ok = StragglerModel::default();
        assert!(ok.validate().is_ok());
        let err = StragglerModel {
            slowdown: 0.0,
            ..ok
        }
        .validate()
        .unwrap_err();
        assert!(err.contains("slowdown"), "{err}");
        assert!(StragglerModel {
            incidence: 1.5,
            ..ok
        }
        .validate()
        .unwrap_err()
        .contains("incidence"));
    }
}
