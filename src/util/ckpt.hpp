#pragma once
/// \file ckpt.hpp
/// Crash-consistent binary checkpoint format (docs/RECOVERY.md).
///
/// Layout: an 8-byte magic ("TMPROFCK"), a u32 format version, then a list
/// of framed sections `[u32 name_len][name][u64 payload_len][payload]
/// [u32 crc32(payload)]`. Every multi-byte integer is little-endian and
/// fixed-width; doubles travel as their raw IEEE-754 bit pattern so a
/// restored run is bit-identical to the uninterrupted one.
///
/// The Reader validates the whole file up front (magic, version, frame
/// bounds, per-section CRC) and every later failure — a missing section, a
/// read past a section's end, trailing unread bytes — throws CkptError
/// carrying the *section name*, so callers can print a diagnostic naming
/// the bad section and fall back to a cold start. Writes are atomic:
/// `save_atomic` streams to `<path>.tmp` and renames over the target, so a
/// kill mid-write never leaves a half-written checkpoint under the real
/// name.

#include <bit>
#include <cstdint>
#include <cstring>
#include <functional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace tmprof::util::ckpt {

inline constexpr char kMagic[8] = {'T', 'M', 'P', 'R', 'O', 'F', 'C', 'K'};
inline constexpr std::uint32_t kFormatVersion = 3;
/// Bytes before the first section frame: magic, then the format version.
inline constexpr std::size_t kHeaderSize =
    sizeof(kMagic) + sizeof(kFormatVersion);

/// CRC-32 (IEEE 802.3 polynomial, reflected), computed slicing-by-8: eight
/// bytes per step through eight 256-entry tables, then a byte-at-a-time
/// tail. Same values as the classic one-table loop, so the on-disk format
/// does not depend on it. `seed` chains: crc32(b, crc32(a)) is
/// the CRC of `a` followed by `b`.
[[nodiscard]] std::uint32_t crc32(const void* data, std::size_t size,
                                  std::uint32_t seed = 0) noexcept;

/// Store `v` little-endian at `at` and advance `at` past it: one memcpy on
/// little-endian hosts, a byte loop elsewhere. Bulk packers fill a span
/// from Writer::extend with it, field by field, in put_* layout.
template <class T>
void pack_le(std::uint8_t*& at, T v) noexcept {
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(at, &v, sizeof v);
  } else {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      at[i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
  }
  at += sizeof(T);
}

/// The little-endian T stored at `at` (pack_le's inverse).
template <class T>
[[nodiscard]] T unpack_le(const std::uint8_t* at) noexcept {
  T v = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&v, at, sizeof v);
  } else {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v = static_cast<T>(v | (static_cast<T>(at[i]) << (8 * i)));
    }
  }
  return v;
}

/// Typed checkpoint failure. `section()` names the section being written
/// or read when the error was detected ("<header>" for pre-section
/// failures such as a bad magic or version skew).
class CkptError : public std::runtime_error {
 public:
  CkptError(std::string section, const std::string& message)
      : std::runtime_error("checkpoint section '" + section +
                           "': " + message),
        section_(std::move(section)) {}

  [[nodiscard]] const std::string& section() const noexcept {
    return section_;
  }

 private:
  std::string section_;
};

/// Serializes sections into an in-memory image, then writes it atomically.
/// The image grows by doubling and writes at an offset, so every put costs
/// a bounds check and a memcpy.
class Writer {
 public:
  Writer();
  /// Build the image in `recycled`'s storage: its bytes are discarded and
  /// its capacity kept, so a caller that hands each finish() result back
  /// reallocates nothing once the image has reached its steady size.
  explicit Writer(std::vector<std::uint8_t> recycled);

  /// Open a new section. Sections may not nest.
  void begin_section(std::string_view name);
  /// Seal the current section (computes its CRC frame).
  void end_section();

  void put_u8(std::uint8_t v) { put_le(v); }
  void put_u32(std::uint32_t v) { put_le(v); }
  void put_u64(std::uint64_t v) { put_le(v); }
  void put_i64(std::int64_t v) { put_le(static_cast<std::uint64_t>(v)); }
  void put_bool(bool v) { put_u8(v ? 1 : 0); }
  /// Raw IEEE-754 bits: round-trips NaN payloads and signed zeros exactly.
  void put_f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    put_u64(bits);
  }
  void put_str(std::string_view s);
  void put_bytes(const void* data, std::size_t size);

  /// Append `n` bytes and return where they start, for the caller to fill
  /// (with pack_le) before the next write. The bulk path for fixed-layout
  /// arrays: one bounds check for the whole array.
  [[nodiscard]] std::uint8_t* extend(std::size_t n) {
    if (n > buffer_.size() - size_) grow(n);
    std::uint8_t* at = buffer_.data() + size_;
    size_ += n;
    return at;
  }

  /// Finish the image (seals an open section, if any) and return it.
  [[nodiscard]] std::vector<std::uint8_t> finish();

  /// Write `image` to `path` via `<path>.tmp` + rename. Throws CkptError
  /// ("<io>") on filesystem failure.
  static void save_atomic(const std::string& path,
                          const std::vector<std::uint8_t>& image);

 private:
  template <class T>
  void put_le(T v) {
    std::uint8_t* at = extend(sizeof(T));
    pack_le(at, v);
  }
  /// Make room for `n` more bytes past size_.
  void grow(std::size_t n);

  /// Bytes [0, size_) are the image; the rest is zeroed or stale room.
  std::vector<std::uint8_t> buffer_;
  std::size_t size_ = 0;
  std::size_t section_start_ = 0;  ///< payload offset of the open section
  bool in_section_ = false;
  std::string section_name_;
};

/// Parses and validates a checkpoint image, then serves typed reads.
class Reader {
 public:
  /// Validates magic, version, frame bounds and every section CRC; throws
  /// CkptError naming the offending section (or "<header>") otherwise.
  explicit Reader(std::vector<std::uint8_t> image);

  /// Read and validate `path`. Throws CkptError ("<io>") if unreadable.
  static Reader from_file(const std::string& path);

  [[nodiscard]] bool has_section(std::string_view name) const;
  /// Position at the start of section `name`; throws if absent.
  void enter_section(std::string_view name);
  /// Assert the current section was fully consumed (catches skew between
  /// writer and reader field lists).
  void end_section();

  std::uint8_t get_u8() { return get_le<std::uint8_t>(); }
  std::uint32_t get_u32() { return get_le<std::uint32_t>(); }
  std::uint64_t get_u64() { return get_le<std::uint64_t>(); }
  std::int64_t get_i64() { return static_cast<std::int64_t>(get_u64()); }
  bool get_bool();
  double get_f64() {
    const std::uint64_t bits = get_u64();
    double v = 0;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }
  std::string get_str();
  void get_bytes(void* out, std::size_t size);

  /// Names of all sections, in file order.
  [[nodiscard]] std::vector<std::string> section_names() const;

 private:
  struct Section {
    std::string name;
    std::size_t offset;  ///< payload start within image_
    std::size_t size;
  };

  template <class T>
  T get_le() {
    require(sizeof(T));
    const T v = unpack_le<T>(image_.data() + cursor_);
    cursor_ += sizeof(T);
    return v;
  }

  void require(std::size_t bytes);
  [[nodiscard]] const Section* find(std::string_view name) const;

  std::vector<std::uint8_t> image_;
  std::vector<Section> sections_;
  std::size_t cursor_ = 0;
  std::size_t section_end_ = 0;
  std::string current_;  ///< name of the section being read
};

/// One stateful component's section in a Manifest.
struct Participant {
  std::string name;
  /// Presence byte. When set, the section opens with put_bool(present())
  /// and `save` / `load` run only when it is true; loading a checkpoint
  /// whose byte differs from this run's throws. Unset: the section has no
  /// presence byte and always holds `save`'s output.
  std::function<bool()> present;
  std::function<void(Writer&)> save;
  std::function<void(Reader&)> load;
};

/// The participant for a component with save_state / load_state members.
template <class Component>
[[nodiscard]] Participant participant_of(std::string name,
                                         Component& component,
                                         std::function<bool()> present = {}) {
  return {std::move(name), std::move(present),
          [&component](Writer& w) { component.save_state(w); },
          [&component](Reader& r) { component.load_state(r); }};
}

/// The participant for an optional component: present iff `component` is
/// non-null.
template <class Component>
[[nodiscard]] Participant participant_of(std::string name,
                                         Component* component) {
  return {std::move(name), [component] { return component != nullptr; },
          [component](Writer& w) { component->save_state(w); },
          [component](Reader& r) { component->load_state(r); }};
}

/// The ordered sections of one checkpoint kind. Each component registers
/// once; save() writes the sections in registration order, and load()
/// requires exactly that order, checks each presence byte and that each
/// section is read to its end. Every failure is a CkptError naming the
/// section at fault.
class Manifest {
 public:
  void add(Participant participant);
  void save(Writer& w) const;
  void load(Reader& r) const;

 private:
  std::vector<Participant> participants_;
};

/// Checkpoint scheduling/retention knobs shared by runner and benches.
struct Options {
  std::uint32_t every = 0;      ///< checkpoint period in epochs; 0 = off
  std::string dir;              ///< directory for periodic checkpoints
  std::string resume_from;      ///< explicit file, or "" (see `resume_latest`)
  bool resume_latest = false;   ///< resume from latest_in(dir) if present
  std::uint32_t keep_last = 3;  ///< retention: newest K checkpoints kept
  std::string basename = "ckpt";

  [[nodiscard]] bool enabled() const noexcept {
    return every != 0 && !dir.empty();
  }
};

/// `<dir>/<basename>-e<epoch>.tmck` — epoch zero-padded so lexicographic
/// and numeric order agree.
[[nodiscard]] std::string checkpoint_path(const std::string& dir,
                                          const std::string& basename,
                                          std::uint32_t epoch);

/// Highest-epoch checkpoint in `dir` matching `basename`, or "" if none.
[[nodiscard]] std::string latest_in(const std::string& dir,
                                    const std::string& basename);

/// Delete all but the newest `keep_last` checkpoints for `basename`.
void prune(const std::string& dir, const std::string& basename,
           std::uint32_t keep_last);

}  // namespace tmprof::util::ckpt
