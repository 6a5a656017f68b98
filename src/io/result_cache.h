// Content-addressed persistent result cache for solved delay profiles.
//
// Keying: entries are addressed by the canonical key of io::cache_key
// (the compact JSON dump of the effective scenario, solve options and
// epsilon levels) hashed with 64-bit FNV-1a into the file name
// `<16 hex digits>.json`.  The full key string is stored *inside* each
// entry and compared on lookup, so a hash collision degrades to a miss,
// never to a wrong answer.
//
// One answer type: every entry holds an encoded e2e::DelayProfile.  A
// scalar request is the one-level profile [scenario.epsilon], so it
// keys, stores and reads exactly like a profile request over that level
// (lookup_profile / store_profile / try_store).  The BoundResult
// lookup/store overloads are thin views over that one path for callers
// that hold a single level.
//
// Layout: entries live at `<dir>/v<kSchemaVersion>/<fnv>.json`, one
// directory per wire schema.  A schema bump therefore never opens an
// older entry -- zero wrong hits holds by construction, and a future
// bump costs no code.  Entries of other epochs (the flat pre-epoch
// layout directly under `<dir>`, or another `v<N>/`) are left alone and
// counted by foreign_entries(), so they stay visible.
//
// Versioning: each entry also records the library version
// (DELTANC_VERSION_STRING) and the wire schema it was written with.  An
// entry in the current directory from another library version (or with
// a doctored schema field) classifies as *stale* -- observable in
// CacheStats and in the response's "cache" tag -- re-solves, and is
// overwritten.
//
// Answers only: an entry holds exactly the encoded DelayProfile, a pure
// function of its key.  How a response was obtained is the caller's to
// record (CacheLookup, CacheStats), never part of the stored bytes.
//
// Durability: stores write to `<name>.tmp.<pid>` next to the entry and
// rename(2) into place, so concurrent writers and crashes can leave at
// worst a stray tmp file, never a torn entry.  An entry that fails to
// read or decode is classified kCorrupt and is overwritten by the
// re-solve.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>

#include "io/codec.h"

namespace deltanc::io {

/// 64-bit FNV-1a of `text` -- the content address behind entry file
/// names.  Stable across platforms and runs (unlike std::hash).
[[nodiscard]] std::uint64_t fnv1a64(std::string_view text);

/// Outcome of one ResultCache::lookup.
enum class CacheLookup {
  kHit,      ///< entry present, same key, same schema + library version
  kMiss,     ///< no entry (or a hash collision with a different key)
  kStale,    ///< entry from another schema or library version
  kCorrupt,  ///< entry file exists but is unreadable or undecodable
};

/// Running totals of one ResultCache's traffic.
struct CacheStats {
  std::int64_t hits = 0;
  std::int64_t misses = 0;
  std::int64_t stale = 0;
  std::int64_t corrupt = 0;
  std::int64_t stores = 0;
  /// Stores that could not be written (read-only directory, full disk,
  /// or an injected fault): the caller solved through and kept serving.
  std::int64_t store_failures = 0;

  [[nodiscard]] std::int64_t lookups() const noexcept {
    return hits + misses + stale + corrupt;
  }
  CacheStats& operator+=(const CacheStats& other) noexcept;
  /// Field-wise difference (e.g. one run's traffic: after -= before).
  CacheStats& operator-=(const CacheStats& other) noexcept;
};

/// One slice of the cache keyspace: shard `index` of `count` owns the
/// keys whose FNV file-name prefix falls in its contiguous range (see
/// ResultCache::shard_of).  The default (0 of 1) owns everything.
struct CacheShard {
  int index = 0;
  int count = 1;
};

/// Filesystem-backed store of DelayProfiles addressed by canonical
/// cache key.  Lookup/store are safe to call from one thread at a time per
/// ResultCache object; distinct processes sharing a directory are safe
/// against each other thanks to the atomic rename stores.
class ResultCache {
 public:
  /// Opens (and creates if needed) the cache directory and its current
  /// epoch subdirectory `v<kSchemaVersion>/`.
  /// @throws std::runtime_error when the directory cannot be created.
  explicit ResultCache(std::filesystem::path dir);

  /// Shard-aware open: same directory layout (shards share one
  /// directory -- entries stay compatible with unsharded readers), but
  /// this handle records which contiguous slice of the FNV keyspace it
  /// serves.  Routing keys with shard_of() so that exactly one handle
  /// ever touches a given key is what makes per-worker caches safe to
  /// run lock-free against each other.
  /// @throws std::invalid_argument on a malformed shard (count < 1 or
  /// index outside [0, count)).
  ResultCache(std::filesystem::path dir, CacheShard shard);

  /// The shard owning `key` when the keyspace is split `shard_count`
  /// ways: contiguous ranges of the top byte of the FNV-1a hash (the
  /// first two hex digits of the entry file name), so shard i owns a
  /// prefix range of the directory listing.
  [[nodiscard]] static int shard_of(std::string_view key,
                                    int shard_count) noexcept;

  [[nodiscard]] const CacheShard& shard() const noexcept { return shard_; }

  /// True when `key` falls in this handle's shard.
  [[nodiscard]] bool owns(std::string_view key) const noexcept {
    return shard_of(key, shard_.count) == shard_.index;
  }

  /// The directory from DELTANC_CACHE_DIR, or `fallback` when the
  /// variable is unset or empty.
  [[nodiscard]] static std::filesystem::path directory_from_env(
      std::filesystem::path fallback);

  [[nodiscard]] const std::filesystem::path& directory() const noexcept {
    return dir_;
  }

  /// Entries under `dir` that this build never opens: `*.json` files of
  /// the flat pre-epoch layout directly in `dir`, plus those under any
  /// `v<N>/` other than the current epoch.  0 when `dir` does not exist.
  [[nodiscard]] static std::int64_t foreign_entries(
      const std::filesystem::path& dir);

  /// Entry file path for a canonical key, inside the current epoch
  /// directory (exposed for tests that doctor entries on disk).
  [[nodiscard]] std::filesystem::path entry_path(std::string_view key) const;

  /// Looks up `key`; fills `profile` only on kHit.  Every outcome bumps
  /// the matching CacheStats counter.
  [[nodiscard]] CacheLookup lookup_profile(const std::string& key,
                                           e2e::DelayProfile& profile);

  /// Stores (overwriting any previous entry -- including stale and
  /// corrupt ones) via atomic tmp + rename.
  /// @throws std::runtime_error when the entry cannot be written.
  void store_profile(const std::string& key, const e2e::DelayProfile& profile);

  /// Non-throwing store: a failed write (read-only directory, full
  /// disk, or a fail_next_stores fault) bumps
  /// CacheStats::store_failures and returns false so callers degrade to
  /// solve-through instead of aborting mid-batch.
  bool try_store(const std::string& key,
                 const e2e::DelayProfile& profile) noexcept;

  /// Single-level view of lookup_profile: fills `result` with the
  /// entry's first level on kHit.
  [[nodiscard]] CacheLookup lookup(const std::string& key,
                                   e2e::BoundResult& result);

  /// Single-level view of store_profile for a one-level key (a scalar
  /// request's io::cache_key): writes byte for byte the entry the solved
  /// one-level profile would.
  /// @throws std::runtime_error as store_profile, or when `key` names
  /// no epsilon level.
  void store(const std::string& key, const e2e::BoundResult& result);

  /// Deterministic fault injection: the next `n` try_store calls fail
  /// (counted as store_failures) without touching the disk -- a
  /// full-disk simulation for tests and serve::FaultPlan.
  void fail_next_stores(int n) noexcept { injected_store_failures_ += n; }

  [[nodiscard]] const CacheStats& stats() const noexcept { return stats_; }
  void reset_stats() noexcept { stats_ = CacheStats{}; }

 private:
  void count(CacheLookup outcome) noexcept;

  std::filesystem::path dir_;
  CacheShard shard_{};
  CacheStats stats_;
  int injected_store_failures_ = 0;
};

}  // namespace deltanc::io
