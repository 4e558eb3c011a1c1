//! End-to-end coverage for the figure pipelines that previously had no
//! integration tests: Fig. 8 (throughput before/after reboot), Fig. 9
//! (cluster throughput under rolling rejuvenation), §5.2 (quick reload
//! vs hardware reset), §5.3 (availability) and the `fleetbench --quick`
//! datacenter table. Each test drives the full `run()` pipeline on a
//! reduced range and pins the paper's headline numbers, then re-runs it
//! to confirm the pipeline is deterministic end to end (byte-identical
//! rendered report).

use rh_vmm::config::RebootStrategy;

#[test]
fn fig8_cold_degradations_match_paper_warm_loses_nothing() {
    // Reduced corpus (1 200 files instead of 10 000); the degradation is a
    // rate ratio, so the headline fractions are corpus-size-independent.
    let cold = rh_bench::fig8::run(RebootStrategy::Cold, 1_200);
    let warm = rh_bench::fig8::run(RebootStrategy::Warm, 1_200);

    let file_deg = cold.file_read.degradation();
    assert!(
        (file_deg - 0.91).abs() < 0.03,
        "cold file-read degradation {file_deg:.2} (paper: 0.91)"
    );
    let web_deg = cold.web.degradation();
    assert!(
        (web_deg - 0.69).abs() < 0.08,
        "cold web degradation {web_deg:.2} (paper: 0.69)"
    );
    assert!(
        warm.file_read.degradation().abs() < 0.02,
        "warm file-read degradation {:.3} (paper: none)",
        warm.file_read.degradation()
    );
    assert!(
        warm.web.degradation().abs() < 0.05,
        "warm web degradation {:.3} (paper: none)",
        warm.web.degradation()
    );

    // The whole pipeline is deterministic: a second run is equal, field
    // for field (Fig8Result is PartialEq over every measured float).
    assert_eq!(cold, rh_bench::fig8::run(RebootStrategy::Cold, 1_200));
}

#[test]
fn fig9_reduced_cluster_preserves_section_6_ordering() {
    // 3 hosts × 3 VMs instead of the paper's 11-VM hosts: the §6 ordering
    // (warm < cold < migration loss) and the ~17-minute evacuation
    // estimate are configuration-independent headlines.
    let r = rh_bench::fig9::run(3, 215.0, 3);
    assert!(
        r.warm_loss < r.cold_loss,
        "warm loss {} !< cold loss {}",
        r.warm_loss,
        r.cold_loss
    );
    assert!(
        r.cold_loss < r.migration_loss,
        "cold loss {} !< migration loss {}",
        r.cold_loss,
        r.migration_loss
    );
    assert!(
        (r.evacuation_secs / 60.0 - 17.0).abs() < 1.5,
        "evacuation {:.1} min (paper: ~17)",
        r.evacuation_secs / 60.0
    );

    // The live rolling cross-check carries the typed cluster timeline:
    // one HostDown/HostUp pair per rejuvenated host, and matching stats.
    assert!(r.rolling_warm.service_never_fully_down);
    assert_eq!(r.rolling_warm.events.len(), 2 * 3);
    assert_eq!(r.rolling_warm.stats.counter("cluster.reboots.warm"), 3);
    assert_eq!(r.rolling_cold.stats.counter("cluster.reboots.cold"), 3);

    // Rendered report is byte-identical on a second full run.
    let text = rh_bench::fig9::render(&r);
    let again = rh_bench::fig9::run(3, 215.0, 3);
    assert_eq!(text, rh_bench::fig9::render(&again));
}

#[test]
fn sec52_quick_reload_headline_numbers() {
    let r = rh_bench::sec52::run();
    assert!(
        (r.quick_reload - 11.0).abs() < 1.0,
        "quick reload {:.1} s (paper: ~11)",
        r.quick_reload
    );
    assert!(
        (r.hardware_reset - 59.0).abs() < 6.0,
        "hardware reset {:.1} s (paper: ~59)",
        r.hardware_reset
    );
    assert!(
        (r.saving() - 48.0).abs() < 7.0,
        "saving {:.1} s (paper: ~48)",
        r.saving()
    );
    let text = rh_bench::sec52::render(&r);
    assert!(text.contains("quick reload"));
    assert_eq!(text, rh_bench::sec52::render(&rh_bench::sec52::run()));
}

#[test]
fn sec53_availability_gives_warm_four_nines() {
    use rh_rejuv::availability::nines;

    let r = rh_bench::sec53::run();
    assert!(
        (r.os_downtime - 33.6).abs() < 4.0,
        "OS rejuvenation downtime {:.1} s (paper: 33.6)",
        r.os_downtime
    );
    // §5.3's headline: the warm-VM reboot reaches four nines where cold
    // and saved stay at three.
    assert_eq!(nines(r.comparison.warm), 4, "warm {}", r.comparison.warm);
    assert_eq!(nines(r.comparison.cold), 3, "cold {}", r.comparison.cold);
    assert_eq!(nines(r.comparison.saved), 3, "saved {}", r.comparison.saved);
    assert!(r.comparison.warm > r.comparison.cold);
    assert!(r.comparison.cold > r.comparison.saved);
    assert!(rh_bench::sec53::render(&r).contains("four 9s"));
}

#[test]
fn fleetbench_quick_table_is_golden() {
    // The `fleetbench --quick` table, verbatim: four 200-host campaigns on
    // a 6,000 s horizon. Events, capacity dips, pair losses and finish
    // times all come from one seeded run per cell, so any change to event
    // dispatch, placement or SLA accounting in rh-fleet shows up here.
    let text = rh_bench::fleet::render(&rh_bench::fleet::sweep(true, 1)).to_string();
    assert_eq!(text, FLEETBENCH_QUICK);
}

const FLEETBENCH_QUICK: &str = "\
## fleet: SLA-aware rolling campaigns at datacenter scale
hosts      placement           campaign  events  peak   min%    viol  pairs  migr  finish
-----------------------------------------------------------------------------------------
  200      first-fit      in-place-cold   12161  1175  94.03   902.1     75     0  5417.6
  200      first-fit  in-place-streamed   12145  1175  94.17  1103.4     77     0       -
  200  anti-affinity      in-place-cold   12161  1175  97.83     0.0      0     0  5292.2
  200  anti-affinity  in-place-streamed   12161  1175  97.65     0.0      0     0  5904.0
";
