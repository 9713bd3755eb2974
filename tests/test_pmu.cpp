#include "pmu/counters.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "util/assert.hpp"
#include "util/ckpt.hpp"
#include "util/rng.hpp"

namespace tmprof::pmu {
namespace {

TEST(PmuCore, TruthAlwaysCounts) {
  PmuCore core(4);
  core.record(Event::LlcMiss, 0, 5);
  core.record(Event::LlcMiss, 10, 2);
  EXPECT_EQ(core.truth(Event::LlcMiss), 7U);
}

TEST(PmuCore, UnprogrammedEventReadsZero) {
  PmuCore core(4);
  core.record(Event::LlcMiss, 0, 100);
  EXPECT_EQ(core.read(Event::LlcMiss), 0U);
}

TEST(PmuCore, ProgrammedEventReadsExactWithoutMultiplexing) {
  PmuCore core(4);
  core.program({Event::LlcMiss, Event::DtlbWalk});
  EXPECT_FALSE(core.multiplexing());
  core.record(Event::LlcMiss, 0, 42);
  core.record(Event::DtlbWalk, 0, 17);
  EXPECT_EQ(core.read(Event::LlcMiss), 42U);
  EXPECT_EQ(core.read(Event::DtlbWalk), 17U);
}

TEST(PmuCore, MultiplexingScalesEstimates) {
  PmuCore core(1);  // one register, two events -> 50% duty cycle each
  core.program({Event::LlcMiss, Event::DtlbWalk});
  EXPECT_TRUE(core.multiplexing());
  // Emit a steady stream of both events over many slices.
  const util::SimNs horizon = 100 * PmuCore::kSliceNs;
  for (util::SimNs t = 0; t < horizon; t += util::kMicrosecond * 100) {
    core.record(Event::LlcMiss, t, 10);
    core.record(Event::DtlbWalk, t, 10);
  }
  const std::uint64_t true_count = core.truth(Event::LlcMiss);
  const std::uint64_t estimate = core.read(Event::LlcMiss);
  // The scaled estimate should be within 15% of truth for a steady stream.
  EXPECT_NEAR(static_cast<double>(estimate), static_cast<double>(true_count),
              0.15 * static_cast<double>(true_count));
}

TEST(PmuCore, DuplicateProgrammingRejected) {
  PmuCore core(2);
  EXPECT_THROW(core.program({Event::LlcMiss, Event::LlcMiss}),
               util::AssertionError);
}

TEST(PmuCore, ReprogramResetsObservation) {
  PmuCore core(2);
  core.program({Event::LlcMiss});
  core.record(Event::LlcMiss, 0, 5);
  core.program({Event::LlcMiss});
  EXPECT_EQ(core.read(Event::LlcMiss), 0U);
  EXPECT_EQ(core.truth(Event::LlcMiss), 5U);
}

TEST(Pmu, AggregatesAcrossCores) {
  Pmu pmu(3, 4);
  pmu.program_all({Event::LlcMiss});
  pmu.core(0).record(Event::LlcMiss, 0, 1);
  pmu.core(1).record(Event::LlcMiss, 0, 2);
  pmu.core(2).record(Event::LlcMiss, 0, 3);
  EXPECT_EQ(pmu.read_total(Event::LlcMiss), 6U);
  EXPECT_EQ(pmu.truth_total(Event::LlcMiss), 6U);
}

TEST(Pmu, CoreIndexValidated) {
  Pmu pmu(2);
  EXPECT_THROW((void)pmu.core(2), util::AssertionError);
}

TEST(Events, NamesAreUnique) {
  for (std::size_t i = 0; i < kEventCount; ++i) {
    for (std::size_t j = i + 1; j < kEventCount; ++j) {
      EXPECT_NE(event_name(static_cast<Event>(i)),
                event_name(static_cast<Event>(j)));
    }
  }
}

// ---------------------------------------------------------------------------
// Differential: the slot-indexed PmuCore against the linear-find PmuCore it
// replaced, kept here as the reference model.

namespace reference {

class PmuCore {
 public:
  explicit PmuCore(std::uint32_t registers) : registers_(registers) {}

  void record(Event e, util::SimNs now, std::uint64_t n) {
    tick(now);
    at(true_, e) += n;
    if (Observation* obs = find(e); obs != nullptr && obs->live) {
      obs->raw += n;
    }
  }

  void program(const std::vector<Event>& events) {
    programmed_.clear();
    for (Event e : events) {
      Observation obs;
      obs.event = e;
      programmed_.push_back(obs);
    }
    rotation_head_ = 0;
    slice_start_ = last_now_;
    observe_start_ = last_now_;
    const std::size_t live_n =
        programmed_.size() < registers_ ? programmed_.size() : registers_;
    for (std::size_t i = 0; i < live_n; ++i) programmed_[i].live = true;
  }

  void tick(util::SimNs now) {
    if (now < last_now_) return;
    last_now_ = now;
    if (!multiplexing()) return;
    while (now - slice_start_ >= kSliceNs) rotate(slice_start_ + kSliceNs);
  }

  [[nodiscard]] std::uint64_t read(Event e) const {
    const Observation* obs = find(e);
    if (obs == nullptr) return 0;
    if (!multiplexing()) return obs->raw;
    util::SimNs live = obs->live_ns;
    if (obs->live) live += last_now_ - slice_start_;
    const util::SimNs total = last_now_ - observe_start_;
    if (live == 0 || total == 0) return obs->raw;
    const double scale =
        static_cast<double>(total) / static_cast<double>(live);
    return static_cast<std::uint64_t>(static_cast<double>(obs->raw) * scale);
  }

  [[nodiscard]] std::uint64_t truth(Event e) const { return at(true_, e); }
  [[nodiscard]] bool multiplexing() const {
    return programmed_.size() > registers_;
  }

  void save_state(util::ckpt::Writer& w) const {
    for (const std::uint64_t count : true_) w.put_u64(count);
    w.put_u64(programmed_.size());
    for (const Observation& obs : programmed_) {
      w.put_u8(static_cast<std::uint8_t>(obs.event));
      w.put_u64(obs.raw);
      w.put_u64(obs.live_ns);
      w.put_bool(obs.live);
    }
    w.put_u64(rotation_head_);
    w.put_u64(slice_start_);
    w.put_u64(observe_start_);
    w.put_u64(last_now_);
  }

 private:
  struct Observation {
    Event event = Event::RetiredUops;
    std::uint64_t raw = 0;
    util::SimNs live_ns = 0;
    bool live = false;
  };

  static constexpr util::SimNs kSliceNs = pmu::PmuCore::kSliceNs;

  /// The linear scan the slot index replaced.
  Observation* find(Event e) {
    for (auto& obs : programmed_) {
      if (obs.event == e) return &obs;
    }
    return nullptr;
  }
  const Observation* find(Event e) const {
    for (const auto& obs : programmed_) {
      if (obs.event == e) return &obs;
    }
    return nullptr;
  }

  void rotate(util::SimNs slice_end) {
    const util::SimNs lived = slice_end - slice_start_;
    for (auto& obs : programmed_) {
      if (obs.live) {
        obs.live_ns += lived;
        obs.live = false;
      }
    }
    rotation_head_ = (rotation_head_ + registers_) % programmed_.size();
    for (std::size_t i = 0; i < registers_ && i < programmed_.size(); ++i) {
      programmed_[(rotation_head_ + i) % programmed_.size()].live = true;
    }
    slice_start_ = slice_end;
  }

  std::uint32_t registers_;
  EventCounts true_{};
  std::vector<Observation> programmed_;
  std::size_t rotation_head_ = 0;
  util::SimNs slice_start_ = 0;
  util::SimNs observe_start_ = 0;
  util::SimNs last_now_ = 0;
};

}  // namespace reference

template <class Core>
std::vector<std::uint8_t> pmu_bytes(const Core& core) {
  util::ckpt::Writer w;
  w.begin_section("pmu");
  core.save_state(w);
  w.end_section();
  return w.finish();
}

/// A random subset of the events in random order (possibly empty).
std::vector<Event> random_events(util::Rng& rng) {
  std::vector<Event> all;
  for (std::size_t i = 0; i < kEventCount; ++i) {
    all.push_back(static_cast<Event>(i));
  }
  for (std::size_t i = all.size(); i > 1; --i) {
    std::swap(all[i - 1], all[rng.below(i)]);
  }
  all.resize(rng.below(kEventCount + 1));
  return all;
}

TEST(PmuDifferential, SlotIndexMatchesLinearFindReference) {
  std::uint64_t multiplexed_reads = 0;
  std::uint64_t reloads = 0;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed=" << seed);
    util::Rng rng(seed);
    const std::uint32_t registers =
        std::vector<std::uint32_t>{1, 2, 3, 6}[rng.below(4)];
    PmuCore got(registers);
    reference::PmuCore want(registers);
    util::SimNs now = 0;
    for (int op = 0; op < 2000; ++op) {
      const std::uint64_t kind = rng.below(100);
      if (kind < 4) {
        const std::vector<Event> events = random_events(rng);
        got.program(events);
        want.program(events);
      } else if (kind < 84) {
        // Mostly forward in time across slice boundaries; now and then an
        // out-of-order hook from the past.
        util::SimNs at_time = 0;
        if (rng.below(10) == 0 && now > 0) {
          at_time = now - rng.below(now);
        } else {
          now += rng.below(2 * util::kMillisecond);
          at_time = now;
        }
        const auto e = static_cast<Event>(rng.below(kEventCount));
        const std::uint64_t n = 1 + rng.below(8);
        got.record(e, at_time, n);
        want.record(e, at_time, n);
      } else if (kind < 92) {
        now += rng.below(6 * util::kMillisecond);
        got.tick(now);
        want.tick(now);
      } else if (kind < 96) {
        // Restore from the checkpoint bytes: load_state rebuilds the index.
        const std::vector<std::uint8_t> image = pmu_bytes(got);
        util::ckpt::Reader r(image);
        r.enter_section("pmu");
        PmuCore restored(registers);
        restored.load_state(r);
        r.end_section();
        got = restored;
        ++reloads;
      } else {
        ASSERT_EQ(pmu_bytes(got), pmu_bytes(want)) << "op " << op;
      }
      ASSERT_EQ(got.multiplexing(), want.multiplexing()) << "op " << op;
      for (std::size_t i = 0; i < kEventCount; ++i) {
        const auto e = static_cast<Event>(i);
        ASSERT_EQ(got.read(e), want.read(e)) << "op " << op << " " << i;
        ASSERT_EQ(got.truth(e), want.truth(e)) << "op " << op << " " << i;
        multiplexed_reads += got.multiplexing() && got.read(e) > 0 ? 1U : 0U;
      }
    }
    ASSERT_EQ(pmu_bytes(got), pmu_bytes(want));
  }
  EXPECT_GT(multiplexed_reads, 0U);
  EXPECT_GT(reloads, 0U);
}

}  // namespace
}  // namespace tmprof::pmu
