// Journal: append-only durable progress log for training-data collection.
//
// One record is fsync'd per completed job, so after a crash (or an injected
// abort) `collect_or_load` replays the journal and re-runs only the missing
// cells — the resumed cache is bit-identical to an uninterrupted run.
//
// On-disk format (line oriented, one write() + fsync() per record):
//
//   fsml-journal v1 <config-hash, 16 hex digits>
//   J <job-index> <crc32, 8 hex digits> <payload>
//   ...
//
// The CRC covers "<job-index> <payload>". Replay accepts the longest valid
// *prefix*: the first malformed, CRC-failing, or torn record ends the scan
// and everything after it is discarded (a torn write leaves no trustworthy
// framing behind it). The config hash pins the journal to one exact job
// grid — a journal written under a different TrainingConfig is ignored
// wholesale rather than half-applied.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>

namespace fsml::core {

class Journal {
 public:
  Journal() = default;
  ~Journal();

  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  /// Opens `path` for appending, creating it (with a header) if absent.
  /// When the file exists: a matching header replays the valid record
  /// prefix into the returned map and truncates any torn tail; a missing or
  /// mismatched header resets the file to a fresh header. `note`, if
  /// non-null, receives a one-line human-readable summary.
  std::map<std::size_t, std::string> open_and_replay(
      const std::string& path, std::uint64_t config_hash,
      std::string* note = nullptr);

  bool is_open() const { return fd_ >= 0; }

  /// Appends one record durably (single write + fsync). The payload must
  /// not contain newlines. Safe to call from multiple threads.
  void append(std::size_t index, std::string_view payload);

  void close();

 private:
  int fd_ = -1;
  std::string path_;
  std::mutex append_mutex_;
};

}  // namespace fsml::core
