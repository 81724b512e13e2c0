//! Job identity is frozen: a fingerprint is a result-cache key, a journal
//! id, a public job id and a checkpoint stamp, so a change to *how* it is
//! computed must not change *what* it is. The table below was printed by
//! the binary of the commit before fingerprints stopped generating scenes
//! and assembling kernels on every call (`campaign::job_fingerprint` per
//! workload × {test, quick, paper} × json {false, true}). A change that
//! means to re-key jobs — new kernel bytes, a new `GpuConfig` field —
//! re-records it, and `tests/fixtures/parent_cache`, in the same commit.

use experiments::{campaign, Scale};
use raytrace::scenes::{self, SceneScale};

/// `(workload, [test, test+json, quick, quick+json, paper, paper+json])`.
const GOLDEN: [(&str, [u64; 6]); 15] = [
    (
        "table1",
        [
            0x001ab35127651fd6,
            0x7103db0b3e1c0ba5,
            0x6f646a56554f77e0,
            0x9bd47770ae224ffb,
            0x04919918e52ce772,
            0xb6e8446e4118ddf9,
        ],
    ),
    (
        "table2",
        [
            0x62af2c28972ebb59,
            0xf4aefd666bfefb2a,
            0x02da189829f2fc2f,
            0xca7b586e5f7835a4,
            0x73236c3a1160032d,
            0xab3488e540308886,
        ],
    ),
    (
        "table3",
        [
            0xaa793558610d4ed8,
            0xe590b37a8c5862b7,
            0x3a91ea80772f5d32,
            0x5c914a7c709b4645,
            0x803c6a08d6364a64,
            0xbb6b749d4c73b893,
        ],
    ),
    (
        "table4",
        [
            0xdf50a83e92e59dd3,
            0xcfb2e0b9dbd78de4,
            0x6e24374d9e2ac0d1,
            0x8b9184e6ce9a64fe,
            0xbf7c20da43ba4e9f,
            0xffa0f98619246120,
        ],
    ),
    (
        "fig2",
        [
            0xd5ede61cbc39102d,
            0xde13e1dcb0715abe,
            0x19afa28a42de9103,
            0x0830d83963c12088,
            0xaddb5116e39ab0a1,
            0xe129579e15e91a5a,
        ],
    ),
    (
        "fig3",
        [
            0xb08285294592dd5c,
            0x5018dbd9b770078b,
            0x1007104e48fd5956,
            0xe709186c40d112e9,
            0x902d5ff5cbd59f58,
            0x30a16fd3c7ef57f7,
        ],
    ),
    (
        "fig7",
        [
            0xe2edb34d1425b998,
            0x62409a4c9674ff77,
            0xa6b385873900f972,
            0x1ac23392c7b85885,
            0x160a009d120643a4,
            0xa27d0cc20ea145d3,
        ],
    ),
    (
        "fig8",
        [
            0xfcdcd0dfe94646db,
            0xddc648a01c1cb2ac,
            0xdf5c40d788587dd9,
            0x1a5fa42dc4093f86,
            0xeb475fd973a64467,
            0x8833bebe79f56d08,
        ],
    ),
    (
        "fig9",
        [
            0xe402588416e4e7f2,
            0x1c63733a2c1f2f41,
            0x3ab8e0abf69823ac,
            0x4ea1aa2224f09a77,
            0xff5bba7dec67818e,
            0x3b5094a78df72b95,
        ],
    ),
    (
        "fig10",
        [
            0x155e37f5b8e5f1af,
            0x216bb2dfe8a48fd0,
            0x4dd1a101b101a97d,
            0x9fdd80c7c866af8a,
            0x99a7f6f85298060b,
            0x0ba31fef76ac875c,
        ],
    ),
    (
        "ablation",
        [
            0x61229ada162fdde7,
            0xf1773a252a2e5108,
            0x2cfc2730524c3dd5,
            0xe2651b803e8a87c2,
            0x0d733c106a376663,
            0x71400c2d557625f4,
        ],
    ),
    (
        "shadow",
        [
            0xb502bb9e802ad07b,
            0xd9ca4d8e491b344c,
            0x23861e160fcad4b9,
            0x44c7e11d19a69266,
            0x2b4a6f130f75c307,
            0x60c5ba7341900028,
        ],
    ),
    (
        "bvh",
        [
            0x345dd0dfdcdff0ca,
            0xe8457c2b01406283,
            0xa2665c0a968d4244,
            0xd8fa716f6eca3a71,
            0x1277b4cd95b1681e,
            0xe45fedda9744de57,
        ],
    ),
    (
        "microdiv",
        [
            0x191188343a347bf4,
            0xf0569af1b7b4d651,
            0x79c7fe33ac745bfc,
            0xb019787879fb7125,
            0x19c879533cb17f65,
            0xf0a1f1f423d5b60c,
        ],
    ),
    (
        "cacheabl",
        [
            0x67af3e5bc20e4c81,
            0x96ee1c270ec23c08,
            0xe2a12ccd518e41e3,
            0x5f5d108d9a5a6f4e,
            0xa4147818b4997efa,
            0x6cb1b48bb9a7552f,
        ],
    ),
];

/// The scales, in the table's column order.
fn scales() -> [(&'static str, Scale); 3] {
    [
        ("test", Scale::test()),
        ("quick", Scale::quick()),
        ("paper", Scale::paper()),
    ]
}

#[test]
fn job_fingerprints_are_the_recorded_ones() {
    let paper = campaign::artifacts();
    assert_eq!(paper.len(), 12, "the twelve paper artifacts");
    for id in paper {
        assert!(
            GOLDEN.iter().any(|(name, _)| *name == id),
            "{id} has no recorded fingerprint"
        );
    }
    for (name, recorded) in GOLDEN {
        let mut column = recorded.iter();
        for (scale_name, scale) in scales() {
            for json in [false, true] {
                let want = *column.next().expect("six columns");
                let got = campaign::job_fingerprint(name, scale, json);
                assert_eq!(
                    got, want,
                    "{name} at {scale_name}, json {json}: {got:#018x}, recorded {want:#018x}"
                );
            }
        }
    }
}

#[test]
fn the_scene_name_list_is_the_generated_scenes_in_order() {
    let built: Vec<&str> = scenes::all(SceneScale::Tiny)
        .iter()
        .map(|s| s.name)
        .collect();
    assert_eq!(built, scenes::NAMES);
}
