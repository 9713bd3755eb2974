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
  PmuCore core;
  core.record(Event::LlcMiss, 5);
  core.record(Event::LlcMiss, 2);
  EXPECT_EQ(core.truth(Event::LlcMiss), 7U);
}

TEST(PmuCore, UnprogrammedEventReadsZero) {
  PmuCore core;
  core.record(Event::LlcMiss, 100);
  EXPECT_EQ(core.read(Event::LlcMiss), 0U);
}

TEST(PmuCore, ProgrammedEventReadsExactWithoutMultiplexing) {
  PmuCore core;
  core.program({Event::LlcMiss, Event::DtlbWalk});
  core.record(Event::LlcMiss, 42);
  core.record(Event::DtlbWalk, 17);
  EXPECT_EQ(core.read(Event::LlcMiss), 42U);
  EXPECT_EQ(core.read(Event::DtlbWalk), 17U);
}

TEST(PmuCore, ProgrammingBeyondRegistersIsRejected) {
  std::vector<Event> events;
  for (std::size_t i = 0; i < PmuCore::kRegisters; ++i) {
    events.push_back(static_cast<Event>(i));
  }
  PmuCore core;
  core.program(events);  // exactly one event per register
  core.record(events.back(), 3);
  EXPECT_EQ(core.read(events.back()), 3U);
  events.push_back(static_cast<Event>(PmuCore::kRegisters));
  EXPECT_THROW(core.program(events), util::AssertionError);
}

TEST(PmuCore, DuplicateProgrammingRejected) {
  PmuCore core;
  EXPECT_THROW(core.program({Event::LlcMiss, Event::LlcMiss}),
               util::AssertionError);
}

TEST(PmuCore, ReprogramResetsObservation) {
  PmuCore core;
  core.program({Event::LlcMiss});
  core.record(Event::LlcMiss, 5);
  core.program({Event::LlcMiss});
  EXPECT_EQ(core.read(Event::LlcMiss), 0U);
  EXPECT_EQ(core.truth(Event::LlcMiss), 5U);
}

TEST(Pmu, AggregatesAcrossCores) {
  Pmu pmu(3);
  pmu.program_all({Event::LlcMiss});
  pmu.core(0).record(Event::LlcMiss, 1);
  pmu.core(1).record(Event::LlcMiss, 2);
  pmu.core(2).record(Event::LlcMiss, 3);
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
  void record(Event e, std::uint64_t n) {
    at(true_, e) += n;
    if (Observation* obs = find(e); obs != nullptr) obs->raw += n;
  }

  void program(const std::vector<Event>& events) {
    programmed_.clear();
    for (Event e : events) programmed_.push_back(Observation{e, 0});
  }

  [[nodiscard]] std::uint64_t read(Event e) const {
    const Observation* obs = find(e);
    return obs == nullptr ? 0 : obs->raw;
  }

  [[nodiscard]] std::uint64_t truth(Event e) const { return at(true_, e); }

  void save_state(util::ckpt::Writer& w) const {
    for (const std::uint64_t count : true_) w.put_u64(count);
    w.put_u64(programmed_.size());
    for (const Observation& obs : programmed_) {
      w.put_u8(static_cast<std::uint8_t>(obs.event));
      w.put_u64(obs.raw);
    }
  }

 private:
  struct Observation {
    Event event = Event::RetiredUops;
    std::uint64_t raw = 0;
  };

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

  EventCounts true_{};
  std::vector<Observation> programmed_;
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

/// A random subset of at most PmuCore::kRegisters events in random order
/// (possibly empty).
std::vector<Event> random_events(util::Rng& rng) {
  std::vector<Event> all;
  for (std::size_t i = 0; i < kEventCount; ++i) {
    all.push_back(static_cast<Event>(i));
  }
  for (std::size_t i = all.size(); i > 1; --i) {
    std::swap(all[i - 1], all[rng.below(i)]);
  }
  all.resize(rng.below(PmuCore::kRegisters + 1));
  return all;
}

TEST(PmuDifferential, SlotIndexMatchesLinearFindReference) {
  std::uint64_t programmed_reads = 0;
  std::uint64_t reloads = 0;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed=" << seed);
    util::Rng rng(seed);
    PmuCore got;
    reference::PmuCore want;
    for (int op = 0; op < 2000; ++op) {
      const std::uint64_t kind = rng.below(100);
      if (kind < 4) {
        const std::vector<Event> events = random_events(rng);
        got.program(events);
        want.program(events);
      } else if (kind < 92) {
        const auto e = static_cast<Event>(rng.below(kEventCount));
        const std::uint64_t n = 1 + rng.below(8);
        got.record(e, n);
        want.record(e, n);
      } else if (kind < 96) {
        // Restore from the checkpoint bytes: load_state rebuilds the index.
        const std::vector<std::uint8_t> image = pmu_bytes(got);
        util::ckpt::Reader r(image);
        r.enter_section("pmu");
        PmuCore restored;
        restored.load_state(r);
        r.end_section();
        got = restored;
        ++reloads;
      } else {
        ASSERT_EQ(pmu_bytes(got), pmu_bytes(want)) << "op " << op;
      }
      for (std::size_t i = 0; i < kEventCount; ++i) {
        const auto e = static_cast<Event>(i);
        ASSERT_EQ(got.read(e), want.read(e)) << "op " << op << " " << i;
        ASSERT_EQ(got.truth(e), want.truth(e)) << "op " << op << " " << i;
        programmed_reads += got.read(e) > 0 ? 1U : 0U;
      }
    }
    ASSERT_EQ(pmu_bytes(got), pmu_bytes(want));
  }
  EXPECT_GT(programmed_reads, 0U);
  EXPECT_GT(reloads, 0U);
}

}  // namespace
}  // namespace tmprof::pmu
