#include "util/interner.h"

#include <cstring>
#include <mutex>

namespace iuad::util {

// Constructors lock only the source: the object under construction is not
// yet visible to any other thread. Assignments take both locks through
// std::lock, which imposes no fixed order, so no pair of copies or moves
// between the same two interners can form a lock-order cycle.

StringInterner::StringInterner(const StringInterner& other) {
  std::shared_lock other_lock(other.mu_);
  CopyFrom(other);
}

StringInterner& StringInterner::operator=(const StringInterner& other) {
  if (this != &other) {
    std::unique_lock self_lock(mu_, std::defer_lock);
    std::shared_lock other_lock(other.mu_, std::defer_lock);
    std::lock(self_lock, other_lock);
    CopyFrom(other);
  }
  return *this;
}

StringInterner::StringInterner(StringInterner&& other) noexcept {
  std::unique_lock other_lock(other.mu_);
  MoveFrom(other);
}

StringInterner& StringInterner::operator=(StringInterner&& other) noexcept {
  if (this != &other) {
    std::scoped_lock lock(mu_, other.mu_);
    MoveFrom(other);
  }
  return *this;
}

void StringInterner::CopyFrom(const StringInterner& other) {
  blocks_.clear();
  block_used_ = 0;
  arena_bytes_ = 0;
  views_.clear();
  ids_.clear();
  views_.reserve(other.views_.size());
  ids_.reserve(other.ids_.size());
  for (std::string_view s : other.views_) {
    const std::string_view copy = ArenaCopy(s);
    ids_.emplace(copy, static_cast<NameId>(views_.size()));
    views_.push_back(copy);
  }
}

void StringInterner::MoveFrom(StringInterner& other) {
  blocks_ = std::move(other.blocks_);
  block_used_ = other.block_used_;
  arena_bytes_ = other.arena_bytes_;
  views_ = std::move(other.views_);
  ids_ = std::move(other.ids_);
  other.blocks_.clear();
  other.block_used_ = 0;
  other.arena_bytes_ = 0;
  other.views_.clear();
  other.ids_.clear();
}

std::string_view StringInterner::ArenaCopy(std::string_view s) {
  if (s.size() > kBlockSize) {
    // Oversized strings get a dedicated block, spliced in *before* the
    // current block so its free tail stays usable.
    auto block = std::make_unique<char[]>(s.size());
    std::memcpy(block.get(), s.data(), s.size());
    arena_bytes_ += s.size();
    const std::string_view out(block.get(), s.size());
    const size_t at = blocks_.empty() ? 0 : blocks_.size() - 1;
    blocks_.insert(blocks_.begin() + static_cast<ptrdiff_t>(at),
                   std::move(block));
    return out;
  }
  if (blocks_.empty() || block_used_ + s.size() > kBlockSize) {
    blocks_.push_back(std::make_unique<char[]>(kBlockSize));
    arena_bytes_ += kBlockSize;
    block_used_ = 0;
  }
  char* dst = blocks_.back().get() + block_used_;
  std::memcpy(dst, s.data(), s.size());
  block_used_ += s.size();
  return std::string_view(dst, s.size());
}

NameId StringInterner::Intern(std::string_view s) {
  {
    std::shared_lock lock(mu_);
    auto it = ids_.find(s);
    if (it != ids_.end()) return it->second;
  }
  std::unique_lock lock(mu_);
  auto it = ids_.find(s);  // raced insert between the two locks
  if (it != ids_.end()) return it->second;
  const std::string_view copy = ArenaCopy(s);
  const NameId id = static_cast<NameId>(views_.size());
  ids_.emplace(copy, id);
  views_.push_back(copy);
  return id;
}

NameId StringInterner::Lookup(std::string_view s) const {
  std::shared_lock lock(mu_);
  auto it = ids_.find(s);
  return it == ids_.end() ? kInvalidNameId : it->second;
}

std::string_view StringInterner::View(NameId id) const {
  std::shared_lock lock(mu_);
  return views_[static_cast<size_t>(id)];
}

int32_t StringInterner::size() const {
  std::shared_lock lock(mu_);
  return static_cast<int32_t>(views_.size());
}

size_t StringInterner::MemoryBytes() const {
  std::shared_lock lock(mu_);
  // Hash node: next pointer + cached hash + value pair.
  constexpr size_t kNode =
      16 + sizeof(std::pair<const std::string_view, NameId>);
  return arena_bytes_ + blocks_.capacity() * sizeof(blocks_[0]) +
         views_.capacity() * sizeof(std::string_view) +
         ids_.bucket_count() * sizeof(void*) + ids_.size() * kNode;
}

}  // namespace iuad::util
