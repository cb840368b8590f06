#include "relational/extension_registry.h"

#include <algorithm>
#include <bit>
#include <iterator>
#include <utility>

#include "obs/metrics.h"
#include "relational/query_cache.h"

namespace dbre {
namespace {

// Process-wide mirrors of the per-registry Stats, so `metrics` shows
// intern traffic without walking every registry instance.
struct InternCounters {
  obs::Counter* lookups;
  obs::Counter* hits;
  obs::Counter* evictions;
  obs::Counter* releases;
  obs::Gauge* live_entries;
  obs::Gauge* resident_bytes;
};

const InternCounters& RegistryCounters() {
  static const InternCounters counters = [] {
    obs::Registry& registry = obs::Registry::Default();
    return InternCounters{
        registry.GetCounter("dbre_extension_intern_lookups_total", {},
                            "Extension-registry intern attempts"),
        registry.GetCounter(
            "dbre_extension_intern_hits_total", {},
            "Intern attempts that adopted an existing shared extension"),
        registry.GetCounter("dbre_extension_intern_evictions_total", {},
                            "Canonical extensions evicted by capacity"),
        registry.GetCounter(
            "dbre_extension_intern_releases_total", {},
            "Canonical extensions released by Sweep after their last "
            "referencing session closed"),
        registry.GetGauge("dbre_extension_registry_live_entries", {},
                          "Canonical extensions currently interned"),
        registry.GetGauge(
            "dbre_extension_registry_resident_bytes", {},
            "ApproximateBytes of every interned canonical extension"),
    };
  }();
  return counters;
}

// Byte-wise FNV-1a accumulator. Value::Hash is not used on purpose: it
// delegates to std::hash, whose result is implementation-defined, while
// this fingerprint is persisted in snapshot footers and must stay stable
// across processes and standard libraries.
struct Fnv {
  uint64_t h = 1469598103934665603ull;

  void Byte(unsigned char b) {
    h ^= b;
    h *= 1099511628211ull;
  }
  void U64(uint64_t v) {
    for (int i = 0; i < 8; ++i) Byte(static_cast<unsigned char>(v >> (i * 8)));
  }
  void Str(const std::string& s) {
    U64(s.size());
    for (char c : s) Byte(static_cast<unsigned char>(c));
  }
};

}  // namespace

uint64_t ExtensionRegistry::ComputeFingerprint(const Table& table) {
  if (table.is_paged()) {
    // The snapshot footer already holds this very fingerprint, computed at
    // write time over the same layout and cells; rescanning the extension
    // through the buffer pool would defeat the point of paging. The value
    // is only a hash key — AdoptSharedExtension does the exact comparison.
    return table.paged_fingerprint();
  }
  // FNV-1a over the column layout and every cell, order-dependent: the row
  // order matters for partition group ids, so only identically-ordered
  // loads may share storage.
  Fnv fnv;
  for (const Attribute& attribute : table.schema().attributes()) {
    fnv.Str(attribute.name);
    fnv.Byte(static_cast<unsigned char>(attribute.type));
  }
  fnv.U64(table.num_rows());
  (void)table.ForEachRow([&fnv](const ValueVector& row) {
    for (const Value& value : row) {
      if (value.is_null()) {
        fnv.Byte(0);
      } else if (value.is_int()) {
        fnv.Byte(1);
        fnv.U64(static_cast<uint64_t>(value.as_int()));
      } else if (value.is_real()) {
        fnv.Byte(2);
        fnv.U64(std::bit_cast<uint64_t>(value.as_real()));
      } else if (value.is_bool()) {
        fnv.Byte(3);
        fnv.Byte(value.as_bool() ? 1 : 0);
      } else {
        fnv.Byte(4);
        fnv.Str(value.as_text());
      }
    }
  });
  return fnv.h;
}

bool ExtensionRegistry::Intern(Table* table) {
  return InternPrecomputed(table, ComputeFingerprint(*table));
}

void ExtensionRegistry::AccountInsertLocked(const Table& table) {
  stats_.resident_bytes += table.ApproximateBytes();
  ++stats_.entries;
  RegistryCounters().live_entries->Set(
      static_cast<int64_t>(stats_.entries));
  RegistryCounters().resident_bytes->Set(
      static_cast<int64_t>(stats_.resident_bytes));
}

void ExtensionRegistry::AccountEraseLocked(const Table& table) {
  size_t bytes = table.ApproximateBytes();
  stats_.resident_bytes -= bytes < stats_.resident_bytes
                               ? bytes
                               : stats_.resident_bytes;
  --stats_.entries;
  RegistryCounters().live_entries->Set(
      static_cast<int64_t>(stats_.entries));
  RegistryCounters().resident_bytes->Set(
      static_cast<int64_t>(stats_.resident_bytes));
}

bool ExtensionRegistry::InternPrecomputed(Table* table,
                                          uint64_t fingerprint) {
  // Materialize the cache before donating: a copy taken now shares the
  // cache pointer, so partitions memoized later through either handle are
  // visible to both.
  bool cacheable = table->query_cache().ok();

  std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.lookups;
  RegistryCounters().lookups->Add(1);
  auto it = entries_.find(fingerprint);
  if (it != entries_.end()) {
    for (const Table& canonical : it->second) {
      if (table->AdoptSharedExtension(canonical)) {
        ++stats_.hits;
        RegistryCounters().hits->Add(1);
        return true;
      }
    }
  }
  if (!cacheable) return false;
  while (stats_.entries >= max_entries_ && !insertion_order_.empty()) {
    uint64_t oldest = insertion_order_.front();
    insertion_order_.pop_front();
    auto evict = entries_.find(oldest);
    if (evict != entries_.end() && !evict->second.empty()) {
      AccountEraseLocked(evict->second.front());
      evict->second.erase(evict->second.begin());
      if (evict->second.empty()) entries_.erase(evict);
      ++stats_.evictions;
      RegistryCounters().evictions->Add(1);
    }
  }
  entries_[fingerprint].push_back(*table);
  insertion_order_.push_back(fingerprint);
  AccountInsertLocked(entries_[fingerprint].back());
  return false;
}

size_t ExtensionRegistry::Sweep() {
  std::lock_guard<std::mutex> lock(mutex_);
  size_t released = 0;
  for (auto it = entries_.begin(); it != entries_.end();) {
    std::vector<Table>& tables = it->second;
    for (auto entry = tables.begin(); entry != tables.end();) {
      // Entries are only inserted cacheable, so cache_ is never null here;
      // a use count of one means this registry copy is the last reference.
      if (entry->cache_ != nullptr && entry->cache_.use_count() == 1) {
        AccountEraseLocked(*entry);
        ++stats_.releases;
        RegistryCounters().releases->Add(1);
        auto order = std::find(insertion_order_.begin(),
                               insertion_order_.end(), it->first);
        if (order != insertion_order_.end()) insertion_order_.erase(order);
        entry = tables.erase(entry);
        ++released;
      } else {
        ++entry;
      }
    }
    it = tables.empty() ? entries_.erase(it) : std::next(it);
  }
  return released;
}

size_t ExtensionRegistry::InternDatabase(Database* database) {
  size_t hits = 0;
  for (const std::string& relation : database->RelationNames()) {
    auto table = database->GetMutableTable(relation);
    if (!table.ok()) continue;
    if (Intern(*table)) ++hits;
  }
  return hits;
}

ExtensionRegistry::Stats ExtensionRegistry::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

void ExtensionRegistry::Clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  entries_.clear();
  insertion_order_.clear();
  stats_.entries = 0;
  stats_.resident_bytes = 0;
  RegistryCounters().live_entries->Set(0);
  RegistryCounters().resident_bytes->Set(0);
}

}  // namespace dbre
