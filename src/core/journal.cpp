#include "core/journal.hpp"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include <fcntl.h>
#include <unistd.h>

#include "util/check.hpp"
#include "util/crc32.hpp"

namespace fsml::core {

namespace {

constexpr std::string_view kMagic = "fsml-journal v1";

std::string header_line(std::uint64_t config_hash) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%s %016llx\n", std::string(kMagic).c_str(),
                static_cast<unsigned long long>(config_hash));
  return buf;
}

/// Parses "J <index> <crc8> <payload>"; returns false on any mismatch.
bool parse_record(const std::string& line, std::size_t& index,
                  std::string& payload) {
  if (line.size() < 2 || line[0] != 'J' || line[1] != ' ') return false;
  const std::size_t idx_end = line.find(' ', 2);
  if (idx_end == std::string::npos) return false;
  const std::size_t crc_end = line.find(' ', idx_end + 1);
  if (crc_end == std::string::npos || crc_end - idx_end != 9) return false;

  errno = 0;
  char* end = nullptr;
  const unsigned long long idx = std::strtoull(line.c_str() + 2, &end, 10);
  if (errno != 0 || end != line.c_str() + idx_end) return false;
  const unsigned long long crc =
      std::strtoull(line.c_str() + idx_end + 1, &end, 16);
  if (errno != 0 || end != line.c_str() + crc_end) return false;

  payload = line.substr(crc_end + 1);
  const std::string covered =
      line.substr(2, idx_end - 2) + " " + payload;
  if (util::crc32(covered) != crc) return false;
  index = static_cast<std::size_t>(idx);
  return true;
}

}  // namespace

Journal::~Journal() { close(); }

std::map<std::size_t, std::string> Journal::open_and_replay(
    const std::string& path, std::uint64_t config_hash, std::string* note) {
  FSML_CHECK_MSG(fd_ < 0, "journal is already open");
  path_ = path;

  std::map<std::size_t, std::string> records;
  std::string text;
  {
    std::ifstream in(path, std::ios::binary);
    if (in) {
      std::ostringstream ss;
      ss << in.rdbuf();
      text = ss.str();
    }
  }

  const std::string header = header_line(config_hash);
  std::size_t valid_bytes = 0;
  std::string why;
  if (text.empty()) {
    why = "no journal";
  } else if (text.compare(0, header.size(), header) != 0) {
    why = "journal header does not match this configuration; starting over";
  } else {
    valid_bytes = header.size();
    std::size_t pos = header.size();
    while (pos < text.size()) {
      const std::size_t eol = text.find('\n', pos);
      if (eol == std::string::npos) {
        why = "torn final record discarded";
        break;
      }
      std::size_t index = 0;
      std::string payload;
      if (!parse_record(text.substr(pos, eol - pos), index, payload)) {
        why = "invalid record ends the valid prefix";
        break;
      }
      records[index] = std::move(payload);
      pos = eol + 1;
      valid_bytes = pos;
    }
  }

  // Rewrite the file to exactly the valid prefix (fresh header when none of
  // it was usable), then append from there.
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_CLOEXEC, 0644);
  if (fd < 0)
    throw std::runtime_error("cannot open journal " + path + ": " +
                             std::strerror(errno));
  if (valid_bytes == 0) {
    records.clear();
    if (::ftruncate(fd, 0) != 0 ||
        ::write(fd, header.data(), header.size()) !=
            static_cast<ssize_t>(header.size())) {
      ::close(fd);
      throw std::runtime_error("cannot initialize journal " + path);
    }
  } else if (valid_bytes < text.size()) {
    if (::ftruncate(fd, static_cast<off_t>(valid_bytes)) != 0) {
      ::close(fd);
      throw std::runtime_error("cannot truncate journal " + path);
    }
  }
  if (::lseek(fd, 0, SEEK_END) < 0) {
    ::close(fd);
    throw std::runtime_error("cannot seek journal " + path);
  }
  ::fsync(fd);
  fd_ = fd;

  if (note) {
    std::ostringstream ss;
    ss << "journal " << path << ": replayed " << records.size()
       << " record(s)";
    if (!why.empty()) ss << " (" << why << ")";
    *note = ss.str();
  }
  return records;
}

void Journal::append(std::size_t index, std::string_view payload) {
  FSML_CHECK_MSG(fd_ >= 0, "journal is not open");
  FSML_CHECK_MSG(payload.find('\n') == std::string_view::npos,
                 "journal payloads must be single-line");
  const std::string covered =
      std::to_string(index) + " " + std::string(payload);
  char crc[16];
  std::snprintf(crc, sizeof crc, "%08x", util::crc32(covered));
  const std::string record =
      "J " + std::to_string(index) + " " + crc + " " +
      std::string(payload) + "\n";
  // One write() per record: either the whole line lands or replay sees a
  // torn tail and discards it. O_APPEND-less single-fd appends are ordered
  // because every append happens under the lock.
  std::lock_guard<std::mutex> lock(append_mutex_);
  std::size_t written = 0;
  while (written < record.size()) {
    const ssize_t n =
        ::write(fd_, record.data() + written, record.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error("cannot append to journal " + path_ + ": " +
                               std::strerror(errno));
    }
    written += static_cast<std::size_t>(n);
  }
  if (::fsync(fd_) != 0)
    throw std::runtime_error("cannot fsync journal " + path_);
}

void Journal::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

}  // namespace fsml::core
