//! Outcome digests pinned from serial runs of the code the benchmark was
//! written against. A cell whose digest differs gave a wrong verdict. A
//! deliberate change of semantics re-pins from the digests the mismatch
//! messages print.

/// Outcome digest per Table-2 row, as in `BENCH_baseline.json`.
/// Promise-first (shared-location configuration) and Flat-lite
/// (unshared) both reproduce it on every row they run.
pub const TABLE2: &[(&str, &str)] = &[
    ("SLA-1", "56c81f7c2a7170f2f3a5a25c84bfeca8"),
    ("SLA-2", "56c81f7c2a7170f2f3a5a25c84bfeca8"),
    ("SLA-3", "56c81f7c2a7170f2f3a5a25c84bfeca8"),
    ("SLA-4", "56c81f7c2a7170f2f3a5a25c84bfeca8"),
    ("SLC-1", "3568299343476840191fe445e7c695ba"),
    ("SLC-2", "3568299343476840191fe445e7c695ba"),
    ("SLR-1", "ca7fc48f63e749bddb34aa3bf9bae17d"),
    ("SLR-2", "ca7fc48f63e749bddb34aa3bf9bae17d"),
    ("PCS-1-1", "64bff9b8e24cce71add6816a8d654271"),
    ("PCS-2-2", "4844d2c30cc60246c82c62324d70bb0b"),
    ("PCM-1-1-1", "5cb42f15c9e58846d33830ef1c047ef5"),
    ("TL-1", "41545a6981eb60f9f1482f904e7f98a4"),
    ("STC-100-010-000", "124f6b4d1f51246cb92d3a75eb172453"),
    ("STC-100-010-010", "408bc2419d052e604846542a19afa368"),
    ("STC(opt)-100-010-000", "124f6b4d1f51246cb92d3a75eb172453"),
    ("STR-100-010-000", "124f6b4d1f51246cb92d3a75eb172453"),
    ("STR-100-010-010", "91588edd5c0226d7ed9453142c4f4a7b"),
    ("DQ-100-1-0", "87eaf0fa9f3790c16ef03fcbd134bc43"),
    ("DQ-110-1-0", "32167d0453cc3e452046b5b53d118f5e"),
    ("DQ(opt)-100-1-0", "87eaf0fa9f3790c16ef03fcbd134bc43"),
    ("QU-100-000-000", "f619f905dbff15a75db6333b99684115"),
    ("QU-100-010-000", "c31093fa2758958435fadf202b709518"),
    ("QU(opt)-100-000-000", "f619f905dbff15a75db6333b99684115"),
];

/// Tests in the litmus corpus.
pub const CORPUS_TESTS: usize = 2915;

/// Digest over the corpus, in corpus order, of every test's outcome
/// digest. Every model must reproduce it: the promising, naive and flat
/// runs of `litmus-operational` and the axiomatic runs of
/// `litmus-axiomatic`, which makes it the cross-workload agreement check.
pub const CORPUS: &str = "aaab4eddb88ad771bd84653d2f6e7861";

/// The pinned digest of `key` in `table`.
pub fn lookup(table: &[(&str, &'static str)], key: &str) -> Option<&'static str> {
    table.iter().find(|(k, _)| *k == key).map(|(_, d)| *d)
}
