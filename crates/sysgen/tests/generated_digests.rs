//! Golden digests of the generator's output: the `{:?}` rendering of every
//! generated spec — system names, releases, costs, routing, deadlines,
//! values, fault plans and mode schedules — folded into one FNV-1a digest
//! per generator. Any change to a random draw, to the order of draws or to
//! the name format moves a digest. The table tests and the pipeline
//! benchmark's digests read only the measures, never `SystemSpec::name`.

use rt_model::{Instant, ModeChange, ServerPolicyKind, Span, SystemSpec};
use rt_sysgen::{
    ExtraServer, FaultModel, GeneratorParams, PeriodicLoad, RandomSystemGenerator, ValueModel,
};

/// 64-bit FNV-1a over the `{:?}` rendering of a batch of specs.
fn digest(specs: &[SystemSpec]) -> u64 {
    format!("{specs:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
            (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

fn paper_generator(set: (u32, u32), policy: ServerPolicyKind) -> RandomSystemGenerator {
    let mut params = GeneratorParams::paper_set(set.0, set.1);
    params.nb_generation = 10;
    params.seed = 1983;
    RandomSystemGenerator::new(params, policy).expect("paper parameters are valid")
}

#[test]
fn paper_sets_generate_their_recorded_systems() {
    let expected: [((u32, u32), [u64; 2]); 6] = [
        ((1, 0), [0x688a_2f16_f620_580d, 0xe1bc_df07_eaf4_fb45]),
        ((2, 0), [0x23b2_9cf0_2b44_db7b, 0xf13b_ad04_4fc5_fec5]),
        ((3, 0), [0x163c_cba8_9f30_5b1e, 0x6eee_8d8c_0445_b1d8]),
        ((1, 2), [0x7aa3_cf39_6477_ed8e, 0xde44_acdf_9789_8f60]),
        ((2, 2), [0x68de_8e2a_7d34_b428, 0xd4fd_ad6d_3b05_2cf8]),
        ((3, 2), [0x17f6_d385_2d81_9b8c, 0xf8fa_2eb7_2f48_56ec]),
    ];
    let mut failures = Vec::new();
    for (set, digests) in expected {
        for (policy, want) in [ServerPolicyKind::Polling, ServerPolicyKind::Deferrable]
            .into_iter()
            .zip(digests)
        {
            let got = digest(&paper_generator(set, policy).generate());
            if got != want {
                failures.push(format!("{set:?} {policy:?}: {got:#018x} != {want:#018x}"));
            }
        }
    }
    assert!(failures.is_empty(), "generator output moved: {failures:#?}");
}

#[test]
fn every_generator_option_generates_its_recorded_systems() {
    let generator = paper_generator((2, 2), ServerPolicyKind::Deferrable)
        .with_extra_servers(vec![ExtraServer::new(
            ServerPolicyKind::Sporadic,
            Span::from_units(2),
            Span::from_units(6),
        )])
        .expect("one extra server fits the priority range")
        .with_periodic_load(PeriodicLoad {
            count: 3,
            utilization: 0.3,
            min_period: 5.0,
            max_period: 20.0,
        })
        .expect("three tasks fit the priority range")
        .with_aperiodic_deadline_factor(4)
        .with_value_model(ValueModel::UniformDensity { lo: 1, hi: 5 })
        .with_fault_model(FaultModel {
            overrun_rate: 0.2,
            overrun_factor: 1,
            jitter_rate: 0.1,
            max_jitter: Span::from_units(3),
            drop_rate: 0.05,
        })
        .expect("the fault model's rates are probabilities")
        .with_mode_schedule(vec![
            ModeChange::at(Instant::from_units(30), 1).with_capacity(Span::from_units(1))
        ]);
    let got = digest(&generator.generate());
    assert_eq!(
        got, 0xfcd5_be24_a332_0ddf,
        "generator output moved: {got:#018x}"
    );
}
