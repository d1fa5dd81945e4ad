//! Replays the committed regression corpus under `crates/lab/corpus/`
//! against the corpus-level conformance invariants. Entries are minimized
//! (see `regenerate_committed_corpus`) so the replay is cheap, but each
//! still drives the full codec → streaming → window → incremental path.

use aid_core::analyze;
use aid_lab::{corpus_violations, default_corpus_dir, load_dir, BugClass};
use std::collections::BTreeSet;

#[test]
fn committed_corpus_replays_clean() {
    let entries = load_dir(&default_corpus_dir()).expect("corpus dir loads");
    assert!(
        !entries.is_empty(),
        "the committed regression corpus is empty"
    );
    let mut classes = BTreeSet::new();
    for e in &entries {
        let violations = corpus_violations(&e.name, &e.set, &e.config(), 1);
        assert!(violations.is_empty(), "{}: {violations:?}", e.name);
        let (ok, fail) = e.set.counts();
        assert!(
            ok >= 1 && fail >= 1,
            "{}: entries stay analyzable (got {ok} ok / {fail} fail)",
            e.name
        );
        assert!(
            !analyze(&e.set, &e.config()).candidates.is_empty(),
            "{}: entry no longer yields intervenable candidates",
            e.name
        );
        classes.extend(e.bug_class);
    }
    assert!(
        classes.len() >= BugClass::ALL.len(),
        "corpus must cover every bug class, has {classes:?}"
    );
}

/// Regenerates the committed corpus deterministically: one scenario per bug
/// class, its corpus shrunk to the smallest set that still analyzes (≥1
/// success, ≥1 failure, ≥1 candidate). Run manually after intentional
/// format or generator changes:
///
/// ```sh
/// cargo test -p aid_lab --release regenerate_committed_corpus -- --ignored
/// ```
#[test]
#[ignore = "writes crates/lab/corpus/; run explicitly after format changes"]
fn regenerate_committed_corpus() {
    use aid_lab::{generate_validated, shrink_corpus, CorpusEntry, LabParams};

    let params = LabParams::default();
    for seed in 1..=9u64 {
        let (scenario, set) = generate_validated(&params, seed);
        let config = scenario.config.clone();
        let shrunk = shrink_corpus(&set, &mut |s| {
            let (ok, fail) = s.counts();
            ok >= 1 && fail >= 1 && !analyze(s, &config).candidates.is_empty()
        });
        let entry = CorpusEntry {
            name: format!("regression-{}", scenario.name),
            bug_class: Some(scenario.spec.bug_class),
            seed,
            invariant: "regression-replay".into(),
            pure_methods: config.pure_methods.iter().map(|m| m.raw()).collect(),
            set: shrunk,
        };
        let path = aid_lab::save_entry(&default_corpus_dir(), &entry).expect("save entry");
        eprintln!("wrote {}", path.display());
    }
}
