//! Every LLC energy figure, bit for bit.
//!
//! `llc_energy` sums per-event costs in a fixed order, and Figs. 11,
//! 13 and 14c, the Touche and breakdown tables and the benchmark's
//! agreement metric all read its floats. This test pins the bits of
//! each float it returns, for one fixed non-zero counter vector, on
//! every configuration the evaluation runs, so a reordered sum or a
//! changed cost is a visible diff here.

use dg_bench::check::check_configs;
use dg_bench::Scale;
use dg_system::{llc_energy, EnergyBreakdown, LlcCounters, LlcStructure, SystemConfig};

/// `[dynamic, leakage, area, KB, precise, dopp tag, MTag, dopp data,
/// map, codec]` as `f64::to_bits`, per configuration.
#[rustfmt::skip]
const EXPECTED: [(&str, [u64; 10]); 24] = [
    ("paper baseline", [0x41d42d06122d2f3c, 0x4213d4d80e5ae147, 0x400f1f32d87c0333, 0x40a0d80000000000, 0x41d42d06122d2f3c, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000]),
    ("paper split m=12 data=1/4", [0x41f0c53d6e515de0, 0x420b9cf6b0b8f5c3, 0x40050b67573aa191, 0x4097740000000000, 0x41c3fa9adb1c56cb, 0x41c0255e8c2455dc, 0x4195218709491409, 0x41d6aa2983108fe9, 0x41d908b712000000, 0x0000000000000000]),
    ("paper split m=13 data=1/4", [0x41f0d58af4d877a3, 0x420bb482da95c290, 0x4005184bb4e2673f, 0x4097880000000000, 0x41c3fa9adb1c56cb, 0x41c08599c6cd9d6b, 0x4196330ed5c54875, 0x41d6aa2983108fe9, 0x41d908b712000000, 0x0000000000000000]),
    ("paper split m=14 data=1/4", [0x41f0dfc84d8512db, 0x420bc2a3c080a3d7, 0x40051ff62d09908e, 0x4097940000000000, 0x41c3fa9adb1c56cb, 0x41c0b595f9e601fe, 0x419742836828f1ff, 0x41d6aa2983108fe9, 0x41d908b712000000, 0x0000000000000000]),
    ("paper split m=14 data=1/2", [0x41f6f713d536417b, 0x421066858e7bd70b, 0x4008fa47250c1876, 0x409bdc0000000000, 0x41c3fa9adb1c56cb, 0x41c0b595f9e601fe, 0x41a4abe1558a0887, 0x41e6f301d6d34c3c, 0x41d908b712000000, 0x0000000000000000]),
    ("paper split m=14 data=1/8", [0x41ebb1964deea0bb, 0x42093c42a9c6e148, 0x40033c6bcad5b0eb, 0x40956f0000000000, 0x41c3fa9adb1c56cb, 0x41c0b595f9e601fe, 0x418a281d6472f5df, 0x41c662386870fac6, 0x41d908b712000000, 0x0000000000000000]),
    ("paper unified data=3/4", [0x420775e18e4a67cc, 0x42120e6080023d70, 0x400b48dbc64b7d24, 0x409eac0000000000, 0x0000000000000000, 0x41cf123ba0b45c85, 0x41baaca99d013aef, 0x42018e41a517182c, 0x41d908b712000000, 0x0000000000000000]),
    ("paper unified data=1/2", [0x42014a80ee14d209, 0x420a0ca7e90f5c29, 0x40034cd48daaf70a, 0x4096200000000000, 0x0000000000000000, 0x41cf123ba0b45c85, 0x41b33c858b1598a0, 0x41f73cc44ae1bef7, 0x41d908b712000000, 0x0000000000000000]),
    ("paper unified data=1/4", [0x41f64b04e357ddf0, 0x41ffe6471c50a3d7, 0x3ff6d7840a62a6fe, 0x408b180000000000, 0x0000000000000000, 0x41cf123ba0b45c85, 0x41a5a1d7eaf5882e, 0x41e6f301d6d34c3c, 0x41d908b712000000, 0x0000000000000000]),
    ("paper compressed sb=2", [0x41efd79ef5684c22, 0x421416c6e9f851eb, 0x400f67efbef7b0ec, 0x40a1100000000000, 0x41eaa81a1b684c22, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x41c4be1368000000]),
    ("paper compressed sb=4", [0x41f0db81547b8085, 0x42147e62d55d70a4, 0x400fdb4dbe914a5d, 0x40a1680000000000, 0x41ec877dcef7010a, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x41c4be1368000000]),
    ("small baseline", [0x41834a10a9f302bd, 0x41c403f062147ae2, 0x3fbc353f88368380, 0x4051000000000000, 0x41834a10a9f302bd, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000]),
    ("small split m=12 data=1/4", [0x41da72623ccebf83, 0x41bb9cf6b0b8f5c3, 0x3fc369dc45bbd6b5, 0x4047740000000000, 0x41732541539dbf70, 0x41786fe57cb93098, 0x4150fc743b3836bb, 0x41854b436a457180, 0x41d908b712000000, 0x0000000000000000]),
    ("small split m=13 data=1/4", [0x41da75aed693066c, 0x41bbb482da95c290, 0x3fc36f89f5908452, 0x4047880000000000, 0x41732541539dbf70, 0x41790c13c0fdd6ba, 0x4151d854ee6c87bf, 0x41854b436a457180, 0x41d908b712000000, 0x0000000000000000]),
    ("small split m=14 data=1/4", [0x41da77c08085e1bb, 0x41bbc2a3c080a3d7, 0x3fc372eaa8d5809b, 0x4047940000000000, 0x41732541539dbf70, 0x417959f0d2a6dd00, 0x4152b28a9aa3bd58, 0x41854b436a457180, 0x41d908b712000000, 0x0000000000000000]),
    ("small split m=14 data=1/2", [0x41db34eadddaf010, 0x41c066858e7bd70a, 0x3fc52ef6f032d641, 0x404bdc0000000000, 0x41732541539dbf70, 0x417959f0d2a6dd00, 0x41609de2162d34c2, 0x41958fb3f158334f, 0x41d908b712000000, 0x0000000000000000]),
    ("small split m=14 data=1/8", [0x41da1955e1f50b6b, 0x41b93c42a9c6e148, 0x3fc2993a2f104460, 0x40456f0000000000, 0x41732541539dbf70, 0x417959f0d2a6dd00, 0x414506adb3f7e39f, 0x417507ac207f41eb, 0x41d908b712000000, 0x0000000000000000]),
    ("small unified data=3/4", [0x41de3af2f5c1050a, 0x41c1df482c48a3d7, 0x3fc61d48012195fa, 0x404e5c0000000000, 0x0000000000000000, 0x41879b39316465ae, 0x4175713a27041e4b, 0x41b07e74c667458e, 0x41d908b712000000, 0x0000000000000000]),
    ("small unified data=1/2", [0x41dcbe0b3d1a8902, 0x41b9ae77419c28f6, 0x3fc285068f93a38c, 0x4045d00000000000, 0x0000000000000000, 0x41879b39316465ae, 0x416eed29c8ccdc6f, 0x41a5d5006fee60dc, 0x41d908b712000000, 0x0000000000000000]),
    ("small unified data=1/4", [0x41db41534e4d585d, 0x41af29e5cd6a3d71, 0x3fbdf1e5e3800289, 0x403a780000000000, 0x0000000000000000, 0x41879b39316465ae, 0x41616399d658fd62, 0x41958fb3f158334f, 0x41d908b712000000, 0x0000000000000000]),
    ("small compressed sb=2", [0x41c89e0f0c2a43e0, 0x41c445df3db1eb85, 0x3fbc75cea94c41c5, 0x4051380000000000, 0x419effdd21521f04, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x41c4be1368000000]),
    ("small compressed sb=4", [0x41c8fcd3dfd56b7a, 0x41c4ad7b29170a3e, 0x3fbcdc1523b21329, 0x4051900000000000, 0x41a0fb01df55adea, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x41c4be1368000000]),
    ("paper_compressed(2)", [0x41efd79ef5684c22, 0x421416c6e9f851eb, 0x400f67efbef7b0ec, 0x40a1100000000000, 0x41eaa81a1b684c22, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x41c4be1368000000]),
    ("paper_compressed(4)", [0x41f0db81547b8085, 0x42147e62d55d70a4, 0x400fdb4dbe914a5d, 0x40a1680000000000, 0x41ec877dcef7010a, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x41c4be1368000000]),
];

const CYCLES: u64 = 123_456_789;

fn breakdown(b: &EnergyBreakdown) -> [f64; 6] {
    use LlcStructure::*;
    [Precise, DoppTag, MTag, DoppData, Map, Codec].map(|s| b.pj(s))
}

/// The 11 checked configurations at paper and small scale, then the
/// paper compressed constructors (equal to `Scale::Paper.compressed`).
fn configs() -> Vec<(String, SystemConfig)> {
    let mut configs = Vec::new();
    for (scale, name) in [(Scale::Paper, "paper"), (Scale::Small, "small")] {
        configs.extend(check_configs(scale).into_iter().map(|(l, c)| (format!("{name} {l}"), c)));
    }
    configs.push(("paper_compressed(2)".into(), SystemConfig::paper_compressed(2)));
    configs.push(("paper_compressed(4)".into(), SystemConfig::paper_compressed(4)));
    configs
}

#[test]
fn llc_energy_bits_are_pinned_for_every_configuration() {
    let values: Vec<u64> = (1..=LlcCounters::LEN as u64).map(|i| i * 1_000_003 + 7).collect();
    let counters = LlcCounters::from_values(&values);
    let configs = configs();
    assert_eq!(configs.len(), EXPECTED.len());
    for ((label, cfg), (want_label, want)) in configs.iter().zip(EXPECTED) {
        assert_eq!(label, want_label);
        let e = llc_energy(cfg, &counters, CYCLES);
        let mut got = vec![e.llc_dynamic_pj, e.llc_leakage_pj, e.llc_area_mm2, e.llc_kbytes];
        got.extend(breakdown(&e.breakdown));
        let got: Vec<u64> = got.iter().map(|x| x.to_bits()).collect();
        assert_eq!(got, want, "{label}");
    }
}
