#include "io/result_cache.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <system_error>

#include "deltanc/version.h"

namespace deltanc::io {

std::uint64_t fnv1a64(std::string_view text) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

CacheStats& CacheStats::operator+=(const CacheStats& other) noexcept {
  hits += other.hits;
  misses += other.misses;
  stale += other.stale;
  corrupt += other.corrupt;
  stores += other.stores;
  store_failures += other.store_failures;
  return *this;
}

CacheStats& CacheStats::operator-=(const CacheStats& other) noexcept {
  hits -= other.hits;
  misses -= other.misses;
  stale -= other.stale;
  corrupt -= other.corrupt;
  stores -= other.stores;
  store_failures -= other.store_failures;
  return *this;
}

namespace {

/// The current epoch's directory name, "v<kSchemaVersion>".
const std::string& epoch_name() {
  static const std::string name = "v" + std::to_string(kSchemaVersion);
  return name;
}

/// True for "v" followed by one or more digits.
bool is_epoch_name(const std::string& name) {
  return name.size() > 1 && name[0] == 'v' &&
         name.find_first_not_of("0123456789", 1) == std::string::npos;
}

/// Regular `*.json` files directly under `dir`.
std::int64_t count_entries(const std::filesystem::path& dir) {
  std::int64_t n = 0;
  std::error_code ec;
  for (const auto& item : std::filesystem::directory_iterator(dir, ec)) {
    if (item.is_regular_file(ec) && item.path().extension() == ".json") ++n;
  }
  return n;
}

}  // namespace

ResultCache::ResultCache(std::filesystem::path dir)
    : ResultCache(std::move(dir), CacheShard{}) {}

ResultCache::ResultCache(std::filesystem::path dir, CacheShard shard)
    : dir_(std::move(dir)), shard_(shard) {
  if (shard_.count < 1 || shard_.index < 0 || shard_.index >= shard_.count) {
    throw std::invalid_argument("result cache: malformed shard " +
                                std::to_string(shard_.index) + " of " +
                                std::to_string(shard_.count));
  }
  const std::filesystem::path epoch = dir_ / epoch_name();
  epoch_dir_ = epoch.string();
  std::error_code ec;
  std::filesystem::create_directories(epoch, ec);
  if (ec || !std::filesystem::is_directory(epoch)) {
    throw std::runtime_error("result cache: cannot create directory " +
                             epoch.string() +
                             (ec ? ": " + ec.message() : std::string()));
  }
}

std::int64_t ResultCache::foreign_entries(const std::filesystem::path& dir) {
  std::int64_t n = count_entries(dir);
  std::error_code ec;
  for (const auto& item : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = item.path().filename().string();
    if (item.is_directory(ec) && is_epoch_name(name) && name != epoch_name()) {
      n += count_entries(item.path());
    }
  }
  return n;
}

int ResultCache::shard_of(std::string_view key, int shard_count) noexcept {
  if (shard_count <= 1) return 0;
  // Top byte of the hash = the first two hex digits of the entry file
  // name, so each shard owns a contiguous *prefix* range of the
  // directory listing.
  const std::uint64_t prefix = fnv1a64(key) >> 56;
  return static_cast<int>(prefix * static_cast<std::uint64_t>(shard_count) /
                          256);
}

std::filesystem::path ResultCache::directory_from_env(
    std::filesystem::path fallback) {
  const char* env = std::getenv("DELTANC_CACHE_DIR");
  if (env != nullptr && *env != '\0') return std::filesystem::path(env);
  return fallback;
}

std::string ResultCache::entry_file(std::string_view key) const {
  char name[32];
  std::snprintf(name, sizeof(name), "/%016llx.json",
                static_cast<unsigned long long>(fnv1a64(key)));
  return epoch_dir_ + name;
}

std::filesystem::path ResultCache::entry_path(std::string_view key) const {
  return entry_file(key);
}

namespace {

/// Reads and classifies the entry at `file`; decodes its profile into
/// `profile` only when the entry is a hit for `key`.
CacheLookup classify_entry(const std::string& file, const std::string& key,
                           e2e::DelayProfile& profile) {
  std::string text;
  {
    const int fd = ::open(file.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) return CacheLookup::kMiss;
    char buf[4096];
    ssize_t got = 0;
    while ((got = ::read(fd, buf, sizeof buf)) != 0) {
      if (got > 0) {
        text.append(buf, static_cast<std::size_t>(got));
      } else if (errno != EINTR) {
        break;
      }
    }
    ::close(fd);
    if (got < 0) return CacheLookup::kCorrupt;
  }
  try {
    const json::Value entry = json::Value::parse(text);
    // Schema or library version drift makes the entry stale, not corrupt:
    // the bytes are fine, the producer was just a different build.
    const json::Value* schema = entry.is_object() ? entry.find("schema") : nullptr;
    if (schema == nullptr || !schema->is_number() ||
        schema->as_number() != kSchemaVersion ||
        entry.at("version").as_string() != DELTANC_VERSION_STRING) {
      return CacheLookup::kStale;
    }
    // The stored full key disambiguates FNV collisions: a different key
    // in the same slot is somebody else's entry, i.e. a miss.
    if (entry.at("key").as_string() != key) return CacheLookup::kMiss;
    e2e::DelayProfile decoded = decode_delay_profile(entry.at("profile"));
    // Every key names at least one level, so an empty answer is damage.
    if (decoded.levels.empty()) return CacheLookup::kCorrupt;
    profile = std::move(decoded);
  } catch (const json::ParseError&) {
    return CacheLookup::kCorrupt;
  } catch (const json::TypeError&) {
    return CacheLookup::kCorrupt;
  } catch (const SchemaError&) {
    // A decoder rejected an enum name or layout this build does not know
    // -- a different producer, not bit rot.
    return CacheLookup::kStale;
  } catch (const CodecError&) {
    return CacheLookup::kCorrupt;
  }
  return CacheLookup::kHit;
}

}  // namespace

void ResultCache::record(CacheLookup outcome) noexcept {
  switch (outcome) {
    case CacheLookup::kHit:
      ++stats_.hits;
      return;
    case CacheLookup::kMiss:
      ++stats_.misses;
      return;
    case CacheLookup::kStale:
      ++stats_.stale;
      return;
    case CacheLookup::kCorrupt:
      ++stats_.corrupt;
      return;
  }
}

CacheLookup ResultCache::lookup_profile(const std::string& key,
                                        e2e::DelayProfile& profile) {
  const CacheLookup outcome = peek_profile(key, profile);
  record(outcome);
  return outcome;
}

CacheLookup ResultCache::peek_profile(const std::string& key,
                                      e2e::DelayProfile& profile) const {
  return classify_entry(entry_file(key), key, profile);
}

void ResultCache::store_profile(const std::string& key,
                                const e2e::DelayProfile& profile) {
  json::Value entry = json::Value::object();
  entry.set("schema", json::Value::number(kSchemaVersion))
      .set("version", json::Value::string(DELTANC_VERSION_STRING))
      .set("key", json::Value::string(key))
      .set("profile", encode_delay_profile(profile));

  const std::filesystem::path path = entry_path(key);
  std::filesystem::path tmp = path;
  tmp += ".tmp." + std::to_string(::getpid());
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    out << entry.dump() << '\n';
    if (!out.good()) {
      std::error_code ec;
      std::filesystem::remove(tmp, ec);
      throw std::runtime_error("result cache: cannot write " + tmp.string());
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::filesystem::remove(tmp, ec);
    throw std::runtime_error("result cache: cannot publish " + path.string());
  }
  ++stats_.stores;
}

bool ResultCache::try_store(const std::string& key,
                            const e2e::DelayProfile& profile) noexcept {
  if (injected_store_failures_ > 0) {
    --injected_store_failures_;
    ++stats_.store_failures;
    return false;
  }
  try {
    store_profile(key, profile);
    return true;
  } catch (...) {
    ++stats_.store_failures;
    return false;
  }
}

CacheLookup ResultCache::lookup(const std::string& key,
                                e2e::BoundResult& result) {
  e2e::DelayProfile profile;
  const CacheLookup outcome = lookup_profile(key, profile);
  if (outcome == CacheLookup::kHit) result = profile.levels.front();
  return outcome;
}

void ResultCache::store(const std::string& key,
                        const e2e::BoundResult& result) {
  e2e::DelayProfile one{
      {decode_double(json::Value::parse(key).at("epsilons").at(0))},
      {result},
      result.stats};
  one.stats.profile_levels = 1;  // what solve_profile counts for one level
  store_profile(key, one);
}

}  // namespace deltanc::io
