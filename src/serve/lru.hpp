// Bounded LRU map: the recency list, key index and entry/byte-bound
// eviction shared by the serving stack's caches (ScheduleCache and
// FrontEndMemo). Not thread-safe: each owner guards its instance with its
// own OrderedMutex and keeps its own hit/miss accounting.
//
// Keys live once, in the list node; the index refers to them by reference
// (list nodes never move), so a large key — FrontEndMemo's keys carry the
// request's source text — is not stored twice.
#pragma once

#include <cstddef>
#include <functional>
#include <list>
#include <unordered_map>
#include <utility>

namespace bm::serve {

template <class Key, class Value, class Hash>
class BoundedLru {
 public:
  /// `max_entries` == 0 disables the map (put() drops everything);
  /// `max_bytes` == 0 leaves the byte footprint unbounded.
  BoundedLru(std::size_t max_entries, std::size_t max_bytes)
      : max_entries_(max_entries), max_bytes_(max_bytes) {}

  bool enabled() const { return max_entries_ > 0; }

  /// The value stored under `key`, now most recently used; nullptr if
  /// absent. Valid until the next put() or clear().
  Value* find(const Key& key) {
    auto it = index_.find(std::cref(key));
    if (it == index_.end()) return nullptr;
    lru_.splice(lru_.begin(), lru_, it->second);
    return &it->second->value;
  }

  /// Stores `value` under `key` as the most recently used entry, replacing
  /// any entry with an equal key. The entry's footprint, charged against
  /// the byte bound, is its node plus the `heap_bytes` its key and value
  /// own. Then evicts least-recently-used entries until both bounds
  /// hold; the new entry itself is never evicted for bytes alone. Returns
  /// the number of entries evicted (a replaced entry is not counted).
  std::size_t put(Key key, Value value, std::size_t heap_bytes) {
    if (!enabled()) return 0;
    const std::size_t footprint = sizeof(Node) + heap_bytes;
    if (auto it = index_.find(std::cref(key)); it != index_.end()) {
      bytes_ -= it->second->footprint;
      auto node = it->second;
      index_.erase(it);
      lru_.erase(node);
    }
    lru_.push_front(Node{std::move(key), std::move(value), footprint});
    index_.emplace(std::cref(lru_.front().key), lru_.begin());
    bytes_ += footprint;
    std::size_t evicted = 0;
    while (lru_.size() > max_entries_ ||
           (max_bytes_ > 0 && bytes_ > max_bytes_ && lru_.size() > 1)) {
      bytes_ -= lru_.back().footprint;
      index_.erase(std::cref(lru_.back().key));
      lru_.pop_back();
      ++evicted;
    }
    return evicted;
  }

  std::size_t size() const { return lru_.size(); }
  std::size_t bytes() const { return bytes_; }

  void clear() {
    index_.clear();
    lru_.clear();
    bytes_ = 0;
  }

 private:
  struct Node {
    Key key;
    Value value;
    std::size_t footprint = 0;
  };
  using Iter = typename std::list<Node>::iterator;

  const std::size_t max_entries_;
  const std::size_t max_bytes_;
  std::list<Node> lru_;  ///< front = most recently used
  std::unordered_map<std::reference_wrapper<const Key>, Iter, Hash,
                     std::equal_to<Key>>
      index_;
  std::size_t bytes_ = 0;
};

}  // namespace bm::serve
