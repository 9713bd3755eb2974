/// Migration admission control (docs/ADMISSION.md): benefit/cost scoring
/// determinism, token-bucket refill arithmetic at simulated-time edges,
/// ping-pong cool-down escalation and expiry, storm-brake shed order under
/// rank ties, the off-mode pass-through guarantee, controller checkpoint
/// round-trips and thread-count invariance of admission-gated runs.

#include "tiering/admission.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <vector>

#include "telemetry/telemetry.hpp"
#include "tiering/mover.hpp"
#include "tiering/runner.hpp"
#include "util/ckpt.hpp"
#include "util/rng.hpp"
#include "workloads/registry.hpp"
#include "workloads/synthetic.hpp"

namespace tmprof::tiering {
namespace {

PageKey page(std::uint64_t n) { return PageKey{1, n << mem::kPageShift}; }

std::vector<core::PageRank> ranking_of(
    std::initializer_list<std::pair<std::uint64_t, std::uint64_t>> entries) {
  std::vector<core::PageRank> ranking;
  for (const auto& [idx, rank] : entries) {
    core::PageRank pr;
    pr.key = page(idx);
    pr.rank = rank;
    ranking.push_back(pr);
  }
  return ranking;
}

constexpr std::uint64_t kPageBytes = 1ULL << mem::kPageShift;

TEST(AdmissionUnit, ParseModeEnumeration) {
  EXPECT_EQ(parse_admission_mode("off"), AdmissionMode::Off);
  EXPECT_EQ(parse_admission_mode("static"), AdmissionMode::Static);
  EXPECT_EQ(parse_admission_mode("adaptive"), AdmissionMode::Adaptive);
  try {
    (void)parse_admission_mode("banana");
    FAIL() << "unknown mode accepted";
  } catch (const std::invalid_argument& err) {
    const std::string msg = err.what();
    EXPECT_NE(msg.find("--admission"), std::string::npos);
    EXPECT_NE(msg.find("banana"), std::string::npos);
    for (const char* mode : {"off", "static", "adaptive"}) {
      EXPECT_NE(msg.find(mode), std::string::npos) << mode;
    }
  }
}

TEST(AdmissionUnit, ModeNamesRoundTrip) {
  for (const auto mode : {AdmissionMode::Off, AdmissionMode::Static,
                          AdmissionMode::Adaptive}) {
    EXPECT_EQ(parse_admission_mode(std::string(to_string(mode))), mode);
  }
}

TEST(AdmissionUnit, TokenBucketRefillCarriesSubTokenRemainders) {
  AdmissionConfig cfg;
  cfg.mode = AdmissionMode::Static;
  cfg.min_history = 1;
  cfg.bandwidth_bytes_per_sec = 2;  // 1 byte per half simulated second
  cfg.burst_bytes = 2 * kPageBytes;
  AdmissionController adm(cfg);
  EXPECT_EQ(adm.tokens(), 2 * kPageBytes);  // bucket starts full

  const auto ranking = ranking_of({{1, 10}, {2, 10}, {3, 10}});
  adm.begin_epoch(0, ranking);
  EXPECT_EQ(adm.decide(page(1), kPageBytes), AdmissionDecision::Admit);
  EXPECT_EQ(adm.decide(page(2), kPageBytes), AdmissionDecision::Admit);
  EXPECT_EQ(adm.tokens(), 0U);
  EXPECT_EQ(adm.decide(page(3), kPageBytes),
            AdmissionDecision::RejectBandwidth);

  // A quarter second owes 0.5 bytes: zero whole tokens, carry 0.5.
  adm.begin_epoch(util::kSecond / 4, ranking);
  EXPECT_EQ(adm.tokens(), 0U);
  // Another quarter second: the carried half rounds the refill up to 1.
  adm.begin_epoch(util::kSecond / 2, ranking);
  EXPECT_EQ(adm.tokens(), 1U);
  EXPECT_EQ(adm.decide(page(3), kPageBytes),
            AdmissionDecision::RejectBandwidth);

  // Enough time to overfill clamps at the burst and zeroes the carry: the
  // next sub-token interval starts from scratch.
  adm.begin_epoch(util::kSecond / 2 + util::kSecond * 4 * kPageBytes,
                  ranking);
  EXPECT_EQ(adm.tokens(), 2 * kPageBytes);
  adm.begin_epoch(util::kSecond / 2 + util::kSecond * 4 * kPageBytes +
                      util::kSecond / 4,
                  ranking);
  EXPECT_EQ(adm.tokens(), 2 * kPageBytes);  // still clamped, carry was reset
}

TEST(AdmissionUnit, ZeroBandwidthMeansUnlimited) {
  AdmissionConfig cfg;
  cfg.mode = AdmissionMode::Static;
  cfg.min_history = 1;
  cfg.bandwidth_bytes_per_sec = 0;
  AdmissionController adm(cfg);
  const auto ranking = ranking_of({{1, 10}});
  adm.begin_epoch(0, ranking);
  for (int i = 0; i < 3; ++i) {
    adm.begin_epoch(util::SimNs(i + 1), ranking_of({{1, 10}}));
    EXPECT_EQ(adm.decide(page(1), 1ULL << 30), AdmissionDecision::Admit) << i;
  }
}

TEST(AdmissionUnit, BenefitDecaysGeometricallyAndIsDeterministic) {
  AdmissionConfig cfg;
  cfg.mode = AdmissionMode::Static;
  AdmissionController a(cfg);
  AdmissionController b(cfg);
  for (AdmissionController* adm : {&a, &b}) {
    adm->begin_epoch(100, ranking_of({{1, 8}, {2, 3}}));
    adm->begin_epoch(200, ranking_of({{1, 8}}));
    adm->begin_epoch(300, ranking_of({{1, 8}, {2, 5}}));
  }
  // Page 1: ranks [8, 8, 8] at ages 0..2 -> 8 + 4 + 2.
  EXPECT_EQ(a.benefit(page(1)), 14U);
  EXPECT_EQ(a.evidence(page(1)), 3U);
  // Page 2: rank 5 at age 0 plus rank 3 at age 2 -> 5 + (3 >> 2).
  EXPECT_EQ(a.benefit(page(2)), 5U);
  EXPECT_EQ(a.evidence(page(2)), 2U);
  EXPECT_EQ(a.benefit(page(3)), 0U);  // never ranked
  EXPECT_EQ(b.benefit(page(1)), a.benefit(page(1)));
  EXPECT_EQ(b.benefit(page(2)), a.benefit(page(2)));
}

TEST(AdmissionUnit, EvidenceWindowForgetsOldSightings) {
  AdmissionConfig cfg;
  cfg.mode = AdmissionMode::Static;
  AdmissionController adm(cfg);
  adm.begin_epoch(1, ranking_of({{1, 9}}));
  EXPECT_EQ(adm.evidence(page(1)), 1U);
  for (std::uint32_t age = 1; age < kHistoryEpochs; ++age) {
    adm.begin_epoch(1 + age, ranking_of({}));
    // Still inside the window.
    EXPECT_EQ(adm.evidence(page(1)), 1U) << age;
    EXPECT_EQ(adm.benefit(page(1)), 9U >> age) << age;
  }
  adm.begin_epoch(1 + kHistoryEpochs, ranking_of({}));
  EXPECT_EQ(adm.evidence(page(1)), 0U);  // aged out
  EXPECT_EQ(adm.benefit(page(1)), 0U);
}

TEST(AdmissionUnit, MinHistoryFiltersOneEpochWonders) {
  AdmissionConfig cfg;
  cfg.mode = AdmissionMode::Static;
  cfg.min_history = 2;
  AdmissionController adm(cfg);
  adm.begin_epoch(1, ranking_of({{1, 50}}));
  EXPECT_EQ(adm.decide(page(1), kPageBytes),
            AdmissionDecision::RejectBenefit);
  adm.begin_epoch(2, ranking_of({{1, 50}}));
  EXPECT_EQ(adm.decide(page(1), kPageBytes), AdmissionDecision::Admit);
}

TEST(AdmissionUnit, StaticBenefitFloorRejectsColdCandidates) {
  AdmissionConfig cfg;
  cfg.mode = AdmissionMode::Static;
  cfg.min_history = 1;
  cfg.min_benefit = 10;
  AdmissionController adm(cfg);
  adm.begin_epoch(1, ranking_of({{1, 9}, {2, 10}}));
  EXPECT_EQ(adm.decide(page(1), kPageBytes),
            AdmissionDecision::RejectBenefit);
  EXPECT_EQ(adm.decide(page(2), kPageBytes), AdmissionDecision::Admit);
}

TEST(AdmissionUnit, PingPongCooldownEscalatesAndExpires) {
  AdmissionConfig cfg;
  cfg.mode = AdmissionMode::Static;
  cfg.min_history = 1;
  cfg.cooldown_epochs = 2;
  AdmissionController adm(cfg);
  const auto hot = ranking_of({{1, 40}});

  adm.begin_epoch(1, hot);  // epoch 1
  EXPECT_EQ(adm.decide(page(1), kPageBytes), AdmissionDecision::Admit);
  adm.note_demoted(page(1));

  // Re-requested one epoch after the demotion: strike 1, cool 2 epochs.
  adm.begin_epoch(2, hot);
  EXPECT_EQ(adm.decide(page(1), kPageBytes), AdmissionDecision::Cooled);
  adm.begin_epoch(3, hot);
  EXPECT_EQ(adm.decide(page(1), kPageBytes), AdmissionDecision::Cooled);
  adm.begin_epoch(4, hot);
  EXPECT_EQ(adm.decide(page(1), kPageBytes), AdmissionDecision::Cooled);

  // Epoch 5: cool-down over, the old demotion (epoch 1) is outside the
  // window, so the page admits cleanly.
  adm.begin_epoch(5, hot);
  EXPECT_EQ(adm.decide(page(1), kPageBytes), AdmissionDecision::Admit);
  adm.note_demoted(page(1));

  // Second offence escalates: 2 << 1 = 4 epochs of cool-down (6..10).
  adm.begin_epoch(6, hot);
  EXPECT_EQ(adm.decide(page(1), kPageBytes), AdmissionDecision::Cooled);
  for (std::uint32_t e = 7; e <= 10; ++e) {
    adm.begin_epoch(e, hot);
    EXPECT_EQ(adm.decide(page(1), kPageBytes), AdmissionDecision::Cooled)
        << e;
  }
  adm.begin_epoch(11, hot);
  EXPECT_EQ(adm.decide(page(1), kPageBytes), AdmissionDecision::Admit);
}

TEST(AdmissionUnit, CooldownSpanIsCapped) {
  AdmissionConfig cfg;
  cfg.mode = AdmissionMode::Static;
  cfg.min_history = 1;
  cfg.cooldown_epochs = kMaxCooldownEpochs;  // escalation must clamp at once
  AdmissionController adm(cfg);
  const auto hot = ranking_of({{1, 40}});
  std::uint32_t epoch = 1;
  for (int offence = 0; offence < 3; ++offence) {
    adm.begin_epoch(epoch++, hot);
    ASSERT_EQ(adm.decide(page(1), kPageBytes), AdmissionDecision::Admit)
        << offence;
    adm.note_demoted(page(1));
    adm.begin_epoch(epoch++, hot);
    ASSERT_EQ(adm.decide(page(1), kPageBytes), AdmissionDecision::Cooled)
        << offence;
    // Capped at 64 epochs regardless of the strike count.
    for (std::uint32_t cool = 0; cool < kMaxCooldownEpochs; ++cool) {
      adm.begin_epoch(epoch++, hot);
      ASSERT_EQ(adm.decide(page(1), kPageBytes), AdmissionDecision::Cooled);
    }
  }
}

TEST(AdmissionUnit, StormBrakeShedsLowestBenefitUnderTies) {
  AdmissionConfig cfg;
  cfg.mode = AdmissionMode::Static;
  cfg.min_history = 1;
  cfg.max_moves_per_epoch = 2;
  AdmissionController adm(cfg);
  // Four candidates, tied rank: the mover consults them in RankOrder
  // (ascending key breaks the tie), so keys 1 and 2 win the brake slots.
  adm.begin_epoch(1, ranking_of({{1, 7}, {2, 7}, {3, 7}, {4, 7}}));
  EXPECT_EQ(adm.decide(page(1), kPageBytes), AdmissionDecision::Admit);
  EXPECT_EQ(adm.decide(page(2), kPageBytes), AdmissionDecision::Admit);
  EXPECT_EQ(adm.decide(page(3), kPageBytes), AdmissionDecision::Shed);
  EXPECT_EQ(adm.decide(page(4), kPageBytes), AdmissionDecision::Shed);
  EXPECT_EQ(adm.throttled_epochs(), 1U);
  // The brake resets at the epoch barrier.
  adm.begin_epoch(2, ranking_of({{1, 7}, {2, 7}}));
  EXPECT_EQ(adm.decide(page(3), kPageBytes), AdmissionDecision::Admit);
  EXPECT_EQ(adm.throttled_epochs(), 1U);  // no shedding this epoch
}

TEST(AdmissionUnit, RegistryTalliesMatchDecisions) {
  AdmissionConfig cfg;
  cfg.mode = AdmissionMode::Static;
  cfg.min_history = 2;
  cfg.max_moves_per_epoch = 1;
  AdmissionController adm(cfg);
  adm.begin_epoch(1, ranking_of({{1, 9}, {2, 9}, {3, 9}}));
  (void)adm.decide(page(1), kPageBytes);  // RejectBenefit (evidence 1 < 2)
  adm.begin_epoch(2, ranking_of({{1, 9}, {2, 9}, {3, 9}}));
  (void)adm.decide(page(1), kPageBytes);  // Admit
  (void)adm.decide(page(2), kPageBytes);  // Shed (brake cap 1)
  const telemetry::MetricsRegistry& reg = adm.registry();
  EXPECT_EQ(reg.counter_value("mover_rejected_total"), 1U);
  EXPECT_EQ(reg.counter_value("mover_admitted_total"), 1U);
  EXPECT_EQ(reg.counter_value("mover_shed_total"), 1U);
  EXPECT_EQ(reg.counter_value("mover_cooled_total"), 0U);
  EXPECT_EQ(reg.gauge_value("admission_tokens"), adm.tokens());
}

TEST(AdmissionUnit, AdaptiveThresholdRisesUnderPressureAndDecays) {
  AdmissionConfig cfg;
  cfg.mode = AdmissionMode::Adaptive;
  cfg.min_history = 1;
  cfg.min_benefit = 1;
  cfg.max_moves_per_epoch = 1;
  AdmissionController adm(cfg);
  const auto ranking = ranking_of({{1, 60}, {2, 60}, {3, 60}});
  adm.begin_epoch(1, ranking);
  EXPECT_EQ(adm.threshold(), 1U);
  (void)adm.decide(page(1), kPageBytes);  // Admit
  (void)adm.decide(page(2), kPageBytes);  // Shed -> pressure
  // The retune at the next barrier sees the shed and doubles the floor.
  adm.begin_epoch(2, ranking);
  EXPECT_EQ(adm.threshold(), 2U);
  (void)adm.decide(page(1), kPageBytes);
  (void)adm.decide(page(2), kPageBytes);  // Shed again
  adm.begin_epoch(3, ranking);
  EXPECT_EQ(adm.threshold(), 4U);
  // Calm epochs decay the floor halfway back each barrier.
  adm.begin_epoch(4, ranking);
  adm.begin_epoch(5, ranking);
  EXPECT_LT(adm.threshold(), 4U);
  EXPECT_GE(adm.threshold(), 1U);
}

TEST(AdmissionUnit, HistoryCompactionKeepsCooledAndRecentPages) {
  AdmissionConfig cfg;
  cfg.mode = AdmissionMode::Static;
  cfg.min_history = 1;
  cfg.cooldown_epochs = 32;  // long enough to outlive the flood below
  AdmissionController adm(cfg);
  // Cool page 0 so compaction must preserve it even when it goes unseen.
  adm.begin_epoch(1, ranking_of({{0, 90}}));
  ASSERT_EQ(adm.decide(page(0), kPageBytes), AdmissionDecision::Admit);
  adm.note_demoted(page(0));
  adm.begin_epoch(2, ranking_of({{0, 90}}));
  ASSERT_EQ(adm.decide(page(0), kPageBytes), AdmissionDecision::Cooled);
  // Flood the history with one-epoch wonders over several epochs, 3.3
  // times the cap in all; entries whose sightings age out of the window
  // must be dropped at the cap. A window holds 4 x 12,000 pages, fewer
  // than the cap, so each compaction brings the history back under it.
  constexpr std::uint64_t kFlood = 12000;
  std::size_t most = 0;
  for (std::uint32_t e = 3; e < 21; ++e) {
    std::vector<core::PageRank> flood;
    for (std::uint64_t i = 0; i < kFlood; ++i) {
      core::PageRank pr;
      pr.key = page(100 + (e * kFlood) + i);
      pr.rank = 5;
      flood.push_back(pr);
    }
    adm.begin_epoch(e, flood);
    most = std::max(most, adm.history_pages());
  }
  EXPECT_GT(most, kMaxHistoryPages - kFlood);  // the cap was reached
  EXPECT_LE(most, kMaxHistoryPages);  // bounded by the cap, not growing
  // The cooled page survived compaction despite ageing out of the ranking
  // window: its live cool-down still holds at epoch 21.
  adm.begin_epoch(21, ranking_of({}));
  EXPECT_EQ(adm.decide(page(0), kPageBytes), AdmissionDecision::Cooled);
}

TEST(AdmissionUnit, ControllerCheckpointRoundTripsBitwise) {
  AdmissionConfig cfg;
  cfg.mode = AdmissionMode::Adaptive;
  cfg.min_history = 1;
  cfg.min_benefit = 1;
  cfg.bandwidth_bytes_per_sec = 64 * kPageBytes;
  cfg.burst_bytes = 4 * kPageBytes;
  cfg.max_moves_per_epoch = 2;
  AdmissionController a(cfg);
  const auto ranking = ranking_of({{1, 30}, {2, 20}, {3, 10}, {4, 5}});
  util::SimNs now = 0;
  for (std::uint32_t e = 1; e <= 4; ++e) {
    now += util::kMillisecond;
    a.begin_epoch(now, ranking);
    (void)a.decide(page(1), kPageBytes);
    (void)a.decide(page(2), kPageBytes);
    (void)a.decide(page(3), kPageBytes);
    a.note_demoted(page(2));
  }

  util::ckpt::Writer w;
  w.begin_section("admission");
  a.save_state(w);
  w.end_section();
  const std::vector<std::uint8_t> image = w.finish();

  AdmissionController b(cfg);
  util::ckpt::Reader r(image);
  r.enter_section("admission");
  b.load_state(r);
  r.end_section();

  EXPECT_EQ(b.epoch(), a.epoch());
  EXPECT_EQ(b.tokens(), a.tokens());
  EXPECT_EQ(b.threshold(), a.threshold());
  EXPECT_EQ(b.history_pages(), a.history_pages());
  EXPECT_EQ(b.registry().counter_value("mover_cooled_total"),
            a.registry().counter_value("mover_cooled_total"));

  // Drive both controllers forward identically: every verdict and every
  // re-serialized image must stay bitwise identical.
  for (std::uint32_t e = 5; e <= 8; ++e) {
    now += util::kMillisecond;
    a.begin_epoch(now, ranking);
    b.begin_epoch(now, ranking);
    for (std::uint64_t p = 1; p <= 4; ++p) {
      EXPECT_EQ(a.decide(page(p), kPageBytes), b.decide(page(p), kPageBytes))
          << "epoch " << e << " page " << p;
    }
  }
  util::ckpt::Writer wa, wb;
  wa.begin_section("admission");
  a.save_state(wa);
  wa.end_section();
  wb.begin_section("admission");
  b.save_state(wb);
  wb.end_section();
  EXPECT_EQ(wa.finish(), wb.finish());
}

std::vector<std::uint8_t> admission_image(const AdmissionController& c) {
  util::ckpt::Writer w;
  w.begin_section("admission");
  c.save_state(w);
  w.end_section();
  return w.finish();
}

std::unique_ptr<AdmissionController> loaded_from(
    const AdmissionConfig& cfg, const std::vector<std::uint8_t>& image) {
  auto c = std::make_unique<AdmissionController>(cfg);
  util::ckpt::Reader r(image);
  r.enter_section("admission");
  c->load_state(r);
  r.end_section();
  return c;
}

// Saves keep the history's key order across saves and merge in only the
// keys inserted since; a controller freshly loaded from the same image
// sorts its whole history (fold_sorted order) at its first save, so the
// two images must be identical after any sequence of records, demotions
// and compactions.
TEST(AdmissionUnit, IncrementalSaveOrderMatchesFullSort) {
  util::Rng rng(0xad5a7eULL);
  for (int trial = 0; trial < 40; ++trial) {
    AdmissionConfig cfg;
    cfg.mode = AdmissionMode::Adaptive;
    cfg.min_history = 1;
    cfg.cooldown_epochs = 1 + static_cast<std::uint32_t>(rng.below(3));
    auto a = std::make_unique<AdmissionController>(cfg);
    util::SimNs now = 0;
    for (int step = 0; step < 120; ++step) {
      const std::uint64_t roll = rng.below(10);
      if (trial % 8 == 0 && step == 40) {
        // One epoch sights more fresh pages than the history holds, so
        // compact() runs at every barrier until they age out.
        std::vector<core::PageRank> flood(kMaxHistoryPages + 1);
        for (std::size_t i = 0; i < flood.size(); ++i) {
          flood[i].key = PageKey{4, (std::uint64_t{1000} + i)
                                        << mem::kPageShift};
          flood[i].rank = 1 + i % 50;
        }
        now += util::kMillisecond;
        a->begin_epoch(now, flood);
      } else if (roll < 4) {
        std::vector<core::PageRank> ranking;
        for (std::uint64_t i = rng.below(12); i > 0; --i) {
          core::PageRank pr;
          pr.key = PageKey{static_cast<mem::Pid>(1 + rng.below(3)),
                           rng.below(200) << mem::kPageShift};
          pr.rank = 1 + rng.below(50);
          ranking.push_back(pr);
        }
        now += util::kMillisecond;
        a->begin_epoch(now, ranking);
      } else if (roll < 6) {
        a->note_demoted(PageKey{static_cast<mem::Pid>(1 + rng.below(3)),
                                rng.below(200) << mem::kPageShift});
      } else if (roll < 7) {
        (void)a->decide(PageKey{static_cast<mem::Pid>(1 + rng.below(3)),
                                rng.below(200) << mem::kPageShift},
                        kPageBytes);
      } else {
        const std::vector<std::uint8_t> image = admission_image(*a);
        ASSERT_EQ(image, admission_image(*loaded_from(cfg, image)))
            << "trial " << trial << " step " << step;
        if (roll == 9) a = loaded_from(cfg, image);  // resume mid-stream
      }
    }
  }
}

TEST(AdmissionUnit, LoadRejectsCorruptBucketState) {
  AdmissionConfig cfg;
  cfg.mode = AdmissionMode::Static;
  cfg.burst_bytes = kPageBytes;
  AdmissionController a(cfg);
  a.begin_epoch(1, ranking_of({{1, 5}}));
  util::ckpt::Writer w;
  w.begin_section("admission");
  a.save_state(w);
  w.end_section();
  std::vector<std::uint8_t> image = w.finish();

  // A controller configured with a smaller burst must refuse the saved
  // token count instead of silently over-crediting bandwidth.
  AdmissionConfig small = cfg;
  small.burst_bytes = kPageBytes / 2;
  AdmissionController b(small);
  util::ckpt::Reader r(image);
  r.enter_section("admission");
  try {
    b.load_state(r);
    FAIL() << "oversized token count accepted";
  } catch (const util::ckpt::CkptError& err) {
    EXPECT_EQ(err.section(), "admission");
  }
}

TEST(AdmissionUnit, ExternalTelemetryMirrorsOnlyWhenEnabled) {
  telemetry::TelemetryConfig tcfg;
  tcfg.metrics_out = "unused.prom";  // never exported in this test
  // Gate off: attaching a sink must register nothing, so disabled runs
  // export byte-identical metric sets.
  {
    telemetry::Telemetry sink(tcfg);
    AdmissionController off{AdmissionConfig{}};
    off.set_telemetry(&sink);
    EXPECT_EQ(sink.metrics().counters().count("mover_rejected_total"), 0U);
  }
  // Gate on: the external registry carries the mirrored tallies.
  {
    telemetry::Telemetry sink(tcfg);
    AdmissionConfig cfg;
    cfg.mode = AdmissionMode::Static;
    cfg.min_history = 2;
    AdmissionController adm(cfg);
    adm.set_telemetry(&sink);
    adm.begin_epoch(1, ranking_of({{1, 9}}));
    (void)adm.decide(page(1), kPageBytes);  // RejectBenefit
    EXPECT_EQ(sink.metrics().counter_value("mover_rejected_total"), 1U);
    EXPECT_EQ(sink.metrics().gauge_value("admission_tokens"), adm.tokens());
    EXPECT_EQ(sink.metrics().counters().count("mover_cooled_total"), 1U);
  }
}

// ---------------------------------------------------------------------------
// Runner-level properties.

sim::SimConfig tiny_config() {
  sim::SimConfig cfg;
  cfg.cores = 2;
  cfg.llc_bytes = 1 << 18;
  cfg.tier1_frames = 1 << 9;
  cfg.tier2_frames = 1 << 14;
  return cfg;
}

RunnerOptions tiny_runner(const AdmissionConfig& admission) {
  RunnerOptions opt;
  opt.policy = "history";
  opt.n_epochs = 5;
  opt.ops_per_epoch = 30000;
  opt.daemon.driver.ibs = monitors::IbsConfig::with_period(256);
  opt.mover.admission = admission;
  return opt;
}

AdmissionConfig gated_config(AdmissionMode mode) {
  AdmissionConfig adm;
  adm.mode = mode;
  adm.min_history = 1;
  adm.bandwidth_bytes_per_sec = 512 * kPageBytes;
  adm.burst_bytes = 64 * kPageBytes;
  adm.cooldown_epochs = 2;
  return adm;
}

void expect_bitwise_equal(const RunnerResult& a, const RunnerResult& b) {
  EXPECT_EQ(a.runtime_ns, b.runtime_ns);
  std::uint64_t ha = 0, hb = 0;
  std::memcpy(&ha, &a.tier1_hitrate, sizeof ha);
  std::memcpy(&hb, &b.tier1_hitrate, sizeof hb);
  EXPECT_EQ(ha, hb);
  EXPECT_EQ(a.migrations, b.migrations);
  EXPECT_EQ(a.moves.promoted, b.moves.promoted);
  EXPECT_EQ(a.moves.demoted, b.moves.demoted);
  EXPECT_EQ(a.moves.rejected, b.moves.rejected);
  EXPECT_EQ(a.moves.cooled, b.moves.cooled);
  EXPECT_EQ(a.moves.shed, b.moves.shed);
  EXPECT_EQ(a.moves.moved_bytes, b.moves.moved_bytes);
  EXPECT_EQ(a.degrade.throttled_epochs, b.degrade.throttled_epochs);
}

TEST(AdmissionRunner, OffModeIgnoresEveryOtherKnob) {
  // Acceptance: with --admission=off the gate is pass-through — bandwidth,
  // cool-down and brake knobs must not perturb a single bit.
  const auto spec = workloads::find_spec("gups", 0.05);
  const RunnerResult plain =
      EndToEndRunner::run(spec, tiny_config(), tiny_runner(AdmissionConfig{}));
  AdmissionConfig noisy;
  noisy.mode = AdmissionMode::Off;
  noisy.bandwidth_bytes_per_sec = 17;
  noisy.burst_bytes = 1;
  noisy.cooldown_epochs = 9;
  noisy.min_benefit = 1000;
  noisy.max_moves_per_epoch = 1;
  const RunnerResult off =
      EndToEndRunner::run(spec, tiny_config(), tiny_runner(noisy));
  expect_bitwise_equal(off, plain);
  EXPECT_EQ(off.moves.rejected, 0U);
  EXPECT_EQ(off.moves.cooled, 0U);
  EXPECT_EQ(off.moves.shed, 0U);
}

TEST(AdmissionRunner, GatedRunIsThreadCountInvariant) {
  const auto spec = workloads::find_spec("gups", 0.05);
  for (const auto mode : {AdmissionMode::Static, AdmissionMode::Adaptive}) {
    RunnerOptions opt = tiny_runner(gated_config(mode));
    opt.n_threads = 1;
    const RunnerResult one = EndToEndRunner::run(spec, tiny_config(), opt);
    opt.n_threads = 8;
    const RunnerResult eight = EndToEndRunner::run(spec, tiny_config(), opt);
    expect_bitwise_equal(one, eight);
  }
}

TEST(AdmissionRunner, GateChangesMoveTotalsButTalliesBalance) {
  const auto spec = workloads::find_spec("gups", 0.05);
  RunnerOptions opt = tiny_runner(gated_config(AdmissionMode::Static));
  opt.mover.admission.min_history = 2;
  const RunnerResult gated = EndToEndRunner::run(spec, tiny_config(), opt);
  // The gate must actually veto something on a migration-heavy run...
  EXPECT_GT(gated.moves.rejected + gated.moves.cooled + gated.moves.shed, 0U);
  // ...and bytes tally every move both ways (promotions + demotions).
  EXPECT_GE(gated.moves.moved_bytes,
            (gated.moves.promoted + gated.moves.demoted) * kPageBytes);
}

}  // namespace
}  // namespace tmprof::tiering
