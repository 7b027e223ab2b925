#include "sttsim/exec/append_log.hpp"

#include <cerrno>
#include <cstring>
#include <stdexcept>

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include "sttsim/util/hash.hpp"

namespace sttsim::exec {
namespace {

constexpr std::size_t kRecordHeadBytes = 8 + 4;  // digest u64, len u32
constexpr std::size_t kRecordTailBytes = 8;      // checksum u64

void put_u64(std::uint8_t* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}
void put_u32(std::uint8_t* p, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}
std::uint64_t get_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}
std::uint32_t get_u32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return v;
}

/// Advisory exclusive flock(2) on the log file for the guard's lifetime.
/// Released automatically when the holder closes the file or dies.
class FileLock {
 public:
  explicit FileLock(std::FILE* file) : fd_(fileno(file)) {
    while (flock(fd_, LOCK_EX) != 0 && errno == EINTR) {}
  }
  ~FileLock() { flock(fd_, LOCK_UN); }
  FileLock(const FileLock&) = delete;
  FileLock& operator=(const FileLock&) = delete;

 private:
  int fd_;
};

}  // namespace

AppendLog::AppendLog(std::string path, std::string what, std::uint64_t magic,
                     std::uint32_t version, std::uint32_t aux,
                     std::uint32_t record_len)
    : path_(std::move(path)),
      what_(std::move(what)),
      magic_(magic),
      version_(version),
      aux_(aux),
      record_len_(record_len) {
  const int fd = ::open(path_.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd < 0) {
    const int err = errno;
    std::string reason = std::strerror(err);
    if (err == EISDIR) {
      reason = "path is a directory";
    } else {
      struct stat st;
      if (stat(path_.c_str(), &st) == 0 && S_ISDIR(st.st_mode)) {
        reason = "path is a directory";
      } else if (err == ENOENT) {
        reason = "parent directory does not exist";
      } else if (err == EACCES) {
        reason = "permission denied (unwritable directory or file)";
      }
    }
    throw std::runtime_error(what_ + ": cannot open " + path_ +
                             " read-write: " + reason);
  }
  file_ = fdopen(fd, "r+b");
  if (file_ == nullptr) {
    ::close(fd);
    throw std::runtime_error(what_ + ": cannot open " + path_ +
                             " read-write: " + std::strerror(errno));
  }
  try {
    FileLock file_lock(file_);
    load_or_init_locked();
  } catch (...) {
    std::fclose(file_);
    throw;
  }
}

AppendLog::~AppendLog() {
  if (file_ != nullptr) std::fclose(file_);
}

std::size_t AppendLog::file_size() const {
  struct stat st;
  if (fstat(fileno(file_), &st) != 0) return 0;
  return static_cast<std::size_t>(st.st_size);
}

std::size_t AppendLog::entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return index_.size();
}

void AppendLog::write_header() {
  std::uint8_t header[kHeaderBytes];
  put_u64(header, magic_);
  put_u32(header + 8, version_);
  put_u32(header + 12, aux_);
  put_u64(header + 16, util::hash_bytes(header, 16));
  std::fwrite(header, 1, sizeof header, file_);
  std::fflush(file_);
}

void AppendLog::init_locked() {
  if (ftruncate(fileno(file_), 0) != 0) {
    throw std::runtime_error(what_ + ": cannot truncate " + path_ + ": " +
                             std::strerror(errno));
  }
  std::fseek(file_, 0, SEEK_SET);
  write_header();
  scan_end_ = kHeaderBytes;
}

void AppendLog::load_or_init_locked() {
  index_.clear();
  arena_.clear();
  if (file_size() == 0) {
    // Fresh file (we created it, or we won the creation race).
    init_locked();
    return;
  }
  // Wrong magic / schema / aux / checksum invalidates the whole file —
  // recompute everything rather than misread old records.
  std::uint8_t header[kHeaderBytes];
  std::fseek(file_, 0, SEEK_SET);
  const bool ok =
      std::fread(header, 1, sizeof header, file_) == sizeof header &&
      get_u64(header) == magic_ && get_u32(header + 8) == version_ &&
      get_u32(header + 12) == aux_ &&
      get_u64(header + 16) == util::hash_bytes(header, 16);
  if (!ok) {
    std::fprintf(stderr,
                 "[sttsim] %s %s: header/schema mismatch, "
                 "re-initializing empty (old records invalidated)\n",
                 what_.c_str(), path_.c_str());
    init_locked();
    return;
  }
  scan_end_ = kHeaderBytes;
  scan_new_locked();
}

std::size_t AppendLog::scan_new_locked() {
  const std::size_t size = file_size();
  if (size < scan_end_) {
    // The file shrank below our high-water mark: a foreign process
    // re-initialized it. Reload rather than serve an index the bytes no
    // longer back.
    load_or_init_locked();
    return index_.size();
  }

  // Index every complete record whose checksum matches, straight into the
  // arena; skip complete corrupt ones in place. Under the exclusive lock
  // nobody is mid-append, so anything left over — a partial record, or a
  // stated length that cannot fit — is a dead writer's torn tail.
  std::size_t added = 0;
  std::fseek(file_, static_cast<long>(scan_end_), SEEK_SET);
  while (size - scan_end_ >= kRecordHeadBytes + kRecordTailBytes) {
    std::uint8_t head[kRecordHeadBytes];
    std::uint8_t tail[kRecordTailBytes];
    if (std::fread(head, 1, sizeof head, file_) < sizeof head) break;
    const std::uint32_t len = get_u32(head + 8);
    const std::size_t bytes = sizeof head + len + sizeof tail;
    if (len > kMaxBlobBytes || bytes > size - scan_end_) break;
    const std::size_t offset = arena_.size();
    arena_.resize(offset + len);
    const bool short_read =
        (len != 0 &&
         std::fread(arena_.data() + offset, 1, len, file_) < len) ||
        std::fread(tail, 1, sizeof tail, file_) < sizeof tail;
    if (short_read) {
      arena_.resize(offset);
      break;
    }
    scan_end_ += bytes;
    const std::uint64_t digest = get_u64(head);
    const std::uint64_t check = util::Hash64()
                                    .bytes(head, sizeof head)
                                    .bytes(arena_.data() + offset, len)
                                    .digest();
    if (get_u64(tail) != check || !accepts(len)) {
      dropped_ += 1;
      arena_.resize(offset);
    } else if (!index_.try_emplace(digest, Entry{offset, len}).second) {
      arena_.resize(offset);  // first write wins
    } else {
      ++added;
    }
  }
  if (scan_end_ < size) {
    truncated_ += size - scan_end_;
    if (ftruncate(fileno(file_), static_cast<off_t>(scan_end_)) != 0) {
      rewrite_locked();
    }
  }
  return added;
}

void AppendLog::write_record(std::uint64_t digest, const void* payload,
                             std::uint32_t len) {
  std::uint8_t head[kRecordHeadBytes];
  std::uint8_t tail[kRecordTailBytes];
  put_u64(head, digest);
  put_u32(head + 8, len);
  put_u64(tail,
          util::Hash64().bytes(head, sizeof head).bytes(payload, len).digest());
  std::fwrite(head, 1, sizeof head, file_);
  if (len != 0) std::fwrite(payload, 1, len, file_);
  std::fwrite(tail, 1, sizeof tail, file_);
  scan_end_ += sizeof head + len + sizeof tail;
}

void AppendLog::rewrite_locked() {
  // freopen drops the flock with the old descriptor; this process is the
  // only one that can see the torn file anyway.
  if (std::freopen(path_.c_str(), "w+b", file_) == nullptr) {
    throw std::runtime_error(what_ + ": cannot rewrite " + path_);
  }
  write_header();
  scan_end_ = kHeaderBytes;
  for (const auto& [digest, entry] : index_) {
    write_record(digest, arena_.data() + entry.offset, entry.len);
  }
  std::fflush(file_);
}

bool AppendLog::contains(std::uint64_t digest) const {
  std::lock_guard<std::mutex> lock(mu_);
  return index_.find(digest) != index_.end();
}

bool AppendLog::lookup(std::uint64_t digest, void* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = index_.find(digest);
  if (it == index_.end()) return false;
  std::memcpy(out, arena_.data() + it->second.offset, record_len_);
  return true;
}

bool AppendLog::lookup(std::uint64_t digest,
                       std::vector<std::uint8_t>& out) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = index_.find(digest);
  if (it == index_.end()) return false;
  const auto first =
      arena_.begin() + static_cast<std::ptrdiff_t>(it->second.offset);
  out.assign(first, first + it->second.len);
  return true;
}

void AppendLog::append(std::uint64_t digest, const void* payload,
                       std::size_t len) {
  if (!accepts(len)) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (index_.count(digest) != 0) return;  // first write wins (this process)
  FileLock file_lock(file_);
  // Pick up records concurrent campaigns appended since our last scan:
  // first-write-wins must hold across processes too.
  scan_new_locked();
  if (index_.count(digest) != 0) return;  // first write wins (cross-process)
  std::fseek(file_, static_cast<long>(scan_end_), SEEK_SET);
  write_record(digest, payload, static_cast<std::uint32_t>(len));
  std::fflush(file_);
  const auto* p = static_cast<const std::uint8_t*>(payload);
  index_.emplace(digest,
                 Entry{arena_.size(), static_cast<std::uint32_t>(len)});
  arena_.insert(arena_.end(), p, p + len);
}

std::size_t AppendLog::refresh() {
  std::lock_guard<std::mutex> lock(mu_);
  FileLock file_lock(file_);
  return scan_new_locked();
}

}  // namespace sttsim::exec
