#ifndef IUAD_UTIL_INTERNER_H_
#define IUAD_UTIL_INTERNER_H_

/// \file interner.h
/// Arena-backed string interning: every distinct string gets one stable
/// dense `NameId` and one arena copy whose `string_view` never moves or
/// dies for the interner's lifetime. The hot structures (graph name index,
/// WL labels, block placement, serve read views) key on the 4-byte id
/// instead of owning string copies; the string itself is materialized only
/// at protocol boundaries.
///
/// Concurrency contract (the serving one): one writer thread may Intern
/// while any number of reader threads Lookup/View/size concurrently — the
/// id space only grows and published ids stay valid forever. Synchronized
/// with a shared_mutex; the uncontended shared lock is a few nanoseconds,
/// far below the hash probe it guards.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace iuad::util {

/// Dense id of an interned string. Ids are assigned 0, 1, 2, ... in first-
/// Intern order and are never reused or invalidated.
using NameId = int32_t;

/// Returned by Lookup for strings never interned.
inline constexpr NameId kInvalidNameId = -1;

class StringInterner {
 public:
  StringInterner() = default;

  /// Deep copy: the copy re-interns every string into its own arena, so the
  /// two interners are fully independent (same id assignment, different
  /// storage).
  StringInterner(const StringInterner& other);
  StringInterner& operator=(const StringInterner& other);
  StringInterner(StringInterner&& other) noexcept;
  StringInterner& operator=(StringInterner&& other) noexcept;

  /// Returns the id of `s`, interning it first if new. Writer-side call.
  NameId Intern(std::string_view s);

  /// Id of `s` if already interned, kInvalidNameId otherwise. Reader-safe.
  NameId Lookup(std::string_view s) const;

  /// The arena-backed string of `id`. Valid for the interner's lifetime.
  /// `id` must be a value previously returned by Intern. Reader-safe.
  std::string_view View(NameId id) const;

  /// Number of interned strings (== the id one past the last assigned).
  int32_t size() const;

  /// Heap footprint: arena blocks + id table + hash index.
  size_t MemoryBytes() const;

 private:
  static constexpr size_t kBlockSize = 1 << 16;

  /// Copies `s` into the arena; the result outlives every later Intern.
  std::string_view ArenaCopy(std::string_view s);
  // Callers hold `other`'s lock, and this object's unless constructing.
  void CopyFrom(const StringInterner& other);
  void MoveFrom(StringInterner& other);

  mutable std::shared_mutex mu_;
  std::vector<std::unique_ptr<char[]>> blocks_;
  size_t block_used_ = 0;      ///< bytes used in blocks_.back()
  size_t arena_bytes_ = 0;     ///< total bytes allocated across blocks
  std::vector<std::string_view> views_;            ///< id -> string
  std::unordered_map<std::string_view, NameId> ids_;  ///< string -> id
};

}  // namespace iuad::util

#endif  // IUAD_UTIL_INTERNER_H_
