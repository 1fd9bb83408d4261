#include "store/mode_result_store.hpp"

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <filesystem>

#include "io/fortran_binary.hpp"
#include "plinger/records.hpp"
#include "store/crc32.hpp"

namespace plinger::store {

namespace fs = std::filesystem;

namespace {

/// File header record: [magic, version, identity_hi, identity_lo, n_k,
/// reserved].  The identity's 32-bit halves are exact as doubles.
constexpr double kMagic = 1347440199.0;  // 0x504C4E47, "PLNG"
constexpr double kVersion = 1.0;
constexpr std::size_t kFileHeaderLength = 6;

/// Reject absurd framing lengths before allocating (a torn tail can
/// leave arbitrary garbage where a length marker should be).
constexpr std::uint32_t kMaxRecordBytes = 1u << 26;

std::string hex64(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// Reads length-framed records like io::FortranRecordReader, but damage
/// tolerant: instead of throwing on a torn frame it reports `torn`, and
/// it tracks the byte offset of the end of the last good record so the
/// caller can truncate there.
class RawReader {
 public:
  enum class Status { record, eof, torn };

  explicit RawReader(std::istream& is) : is_(is) {}

  Status next(std::vector<double>& out) {
    std::uint32_t head = 0;
    is_.read(reinterpret_cast<char*>(&head), sizeof(head));
    if (is_.gcount() == 0) return Status::eof;
    if (is_.gcount() < static_cast<std::streamsize>(sizeof(head))) {
      return Status::torn;
    }
    if (head == 0 || head % sizeof(double) != 0 || head > kMaxRecordBytes) {
      return Status::torn;
    }
    out.resize(head / sizeof(double));
    is_.read(reinterpret_cast<char*>(out.data()),
             static_cast<std::streamsize>(head));
    if (is_.gcount() < static_cast<std::streamsize>(head)) {
      return Status::torn;
    }
    std::uint32_t tail = 0;
    is_.read(reinterpret_cast<char*>(&tail), sizeof(tail));
    if (is_.gcount() < static_cast<std::streamsize>(sizeof(tail)) ||
        tail != head) {
      return Status::torn;
    }
    offset_ += 2 * sizeof(std::uint32_t) + head;
    return Status::record;
  }

  /// Byte offset just past the last good record.
  std::uint64_t offset() const { return offset_; }

 private:
  std::istream& is_;
  std::uint64_t offset_ = 0;
};

/// True when `v` is an exact non-negative integer below `limit` — i.e.
/// safe to cast to an unsigned integer type of that range.
bool castable_field(double v, double limit) {
  return std::isfinite(v) && v >= 0.0 && v < limit && v == std::floor(v);
}

/// Parse the file header record; throws StoreCorrupt when it is not one.
void parse_file_header(const std::vector<double>& rec, std::uint64_t& id,
                       std::size_t& n_k) {
  if (rec.size() != kFileHeaderLength || rec[0] != kMagic ||
      rec[1] != kVersion) {
    throw StoreCorrupt(
        "ModeResultStore: file is not a version-1 checkpoint journal");
  }
  // The identity halves and grid size travel as doubles; a well-framed
  // but corrupt header (NaN, negative, out of range) must be rejected
  // here — casting it first would be undefined behavior.
  constexpr double kTwo32 = 4294967296.0;
  constexpr double kTwo53 = 9007199254740992.0;
  if (!castable_field(rec[2], kTwo32) || !castable_field(rec[3], kTwo32) ||
      !castable_field(rec[4], kTwo53)) {
    throw StoreCorrupt(
        "ModeResultStore: checkpoint journal header fields are corrupt");
  }
  id = (static_cast<std::uint64_t>(rec[2]) << 32) |
       static_cast<std::uint64_t>(rec[3]);
  n_k = static_cast<std::size_t>(rec[4]);
}

/// Validate and unpack one mode record (21-double header + payload +
/// trailing CRC).  Returns false on any damage — the caller treats the
/// record, and everything after it, as the torn tail.
bool parse_mode_record(const std::vector<double>& rec, std::size_t& ik,
                       boltzmann::ModeResult& result) {
  using parallel::kHeaderLength;
  // Minimum: header + 8-slot preamble + one moment each + CRC.
  if (rec.size() < kHeaderLength + 8 + 2 + 1) return false;
  const std::span<const double> body(rec.data(), rec.size() - 1);
  if (static_cast<double>(crc32_doubles(body)) != rec.back()) return false;
  const std::vector<double> header(rec.begin(),
                                   rec.begin() + kHeaderLength);
  const std::vector<double> payload(rec.begin() + kHeaderLength,
                                    rec.end() - 1);
  // A CRC-clean record of the retired version-2 layout is not damage —
  // treating it as a torn tail would silently drop and recompute it.
  // Refuse the journal loudly instead.
  if (payload.size() >= 8 &&
      payload[7] == parallel::kPayloadWithSamples) {
    throw StoreCorrupt(
        "ModeResultStore: journal holds retired version-2 line-of-sight "
        "records (pre-SourceTable: their Pi column is zero through tight "
        "coupling, so E-mode sources cannot be rebuilt from them) — "
        "delete the journal and rerun the line-of-sight modes instead "
        "of resuming it");
  }
  try {
    result = parallel::unpack_records(header, payload, ik);
  } catch (const Error&) {
    return false;  // inconsistent lengths / ik mismatch
  }
  return true;
}

}  // namespace

ModeResultStore::ModeResultStore(const StoreOptions& opts, RunIdentity id,
                                 std::size_t n_k)
    : opts_(opts), id_(id), n_k_(n_k) {
  PLINGER_REQUIRE(!opts_.path.empty(), "ModeResultStore: empty path");

  // Advisory writer lock, held for the store's lifetime: a second
  // writer (a daemon and a CLI run pointed at the same journal) must
  // fail fast instead of interleaving appends.  Taken before the scan
  // below so no writer ever reads a journal another writer is mutating.
  lock_fd_ = ::open(opts_.path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  PLINGER_REQUIRE(lock_fd_ >= 0,
                  "ModeResultStore: cannot open " + opts_.path);
  if (::flock(lock_fd_, LOCK_EX | LOCK_NB) != 0) {
    const bool held = errno == EWOULDBLOCK || errno == EAGAIN;
    ::close(lock_fd_);
    lock_fd_ = -1;
    if (held) {
      throw StoreBusy("ModeResultStore: journal " + opts_.path +
                      " is locked by another writer (a daemon or a "
                      "concurrent run); refusing to append concurrently");
    }
    throw StoreWriteError("ModeResultStore: cannot lock " + opts_.path);
  }

  // From here on a throw must release the lock: a failed constructor
  // never runs the destructor.
  try {
    open_journal();
  } catch (...) {
    ::flock(lock_fd_, LOCK_UN);
    ::close(lock_fd_);
    lock_fd_ = -1;
    throw;
  }
}

void ModeResultStore::open_journal() {
  std::error_code ec;
  const std::uint64_t file_size =
      fs::exists(opts_.path, ec) ? fs::file_size(opts_.path, ec) : 0;

  bool fresh = file_size == 0;
  if (!fresh) {
    std::ifstream in(opts_.path, std::ios::binary);
    PLINGER_REQUIRE(in.is_open(),
                    "ModeResultStore: cannot open " + opts_.path);
    RawReader raw(in);
    std::vector<double> rec;
    const auto first = raw.next(rec);
    if (first == RawReader::Status::torn) {
      // Crash before even the file header was flushed: no result can
      // have been recorded, so start over.
      fresh = true;
      torn_tail_recovered_ = true;
    } else {
      PLINGER_REQUIRE(first == RawReader::Status::record,
                      "ModeResultStore: empty journal frame");
      std::uint64_t journal_id = 0;
      std::size_t journal_n_k = 0;
      parse_file_header(rec, journal_id, journal_n_k);
      if (journal_id != id_.value || journal_n_k != n_k_) {
        throw StoreIdentityMismatch(
            "ModeResultStore: journal " + opts_.path + " belongs to run " +
            hex64(journal_id) + " over " + std::to_string(journal_n_k) +
            " modes, but this run is " + hex64(id_.value) + " over " +
            std::to_string(n_k_) +
            " modes; refusing to mix results from different physics.  "
            "To start this run afresh, move or delete the journal, or "
            "point store= at a new path");
      }
      std::uint64_t good = raw.offset();
      for (;;) {
        const auto st = raw.next(rec);
        if (st != RawReader::Status::record) break;
        std::size_t ik = 0;
        boltzmann::ModeResult r;
        if (!parse_mode_record(rec, ik, r)) break;
        good = raw.offset();
        if (!in_journal_.insert(ik).second) {
          ++n_duplicates_;
          continue;
        }
        if (opts_.resume) loaded_.emplace(ik, std::move(r));
      }
      in.close();
      if (good < file_size) {
        // Torn tail from a crash mid-write: drop it, keep the prefix.
        fs::resize_file(opts_.path, good);
        torn_tail_recovered_ = true;
      }
    }
  }

  if (fresh) {
    out_.open(opts_.path, std::ios::binary | std::ios::trunc);
    PLINGER_REQUIRE(out_.is_open(),
                    "ModeResultStore: cannot create " + opts_.path);
    write_file_header();
    out_.flush();
    require_writable("file header flush");
  } else {
    out_.open(opts_.path, std::ios::binary | std::ios::app);
    PLINGER_REQUIRE(out_.is_open(),
                    "ModeResultStore: cannot append to " + opts_.path);
  }
}

ModeResultStore::~ModeResultStore() {
  try {
    flush();
  } catch (...) {
    // Destructor: a failed final flush must not terminate the process;
    // the journal simply ends at the last successful flush.
  }
  if (lock_fd_ >= 0) {
    // Close the stream (releasing its buffered state) before dropping
    // the lock, so the next writer never sees a half-flushed tail while
    // we still could have written more.
    out_.close();
    ::flock(lock_fd_, LOCK_UN);
    ::close(lock_fd_);
  }
}

void ModeResultStore::require_writable(const char* when) {
  if (!out_.good()) {
    throw StoreWriteError(
        std::string("ModeResultStore: ") + when + " failed on " +
        opts_.path +
        " (disk full or I/O error); results are no longer being "
        "checkpointed");
  }
}

void ModeResultStore::write_file_header() {
  const double hi = static_cast<double>(id_.value >> 32);
  const double lo = static_cast<double>(id_.value & 0xFFFFFFFFull);
  const std::vector<double> rec = {
      kMagic, kVersion, hi, lo, static_cast<double>(n_k_), 0.0};
  io::FortranRecordWriter writer(out_);
  writer.record(rec);
  require_writable("file header write");
}

void ModeResultStore::append(std::size_t ik,
                             const boltzmann::ModeResult& result) {
  const auto header = parallel::pack_header(ik, result);
  const auto payload = parallel::pack_payload(ik, result);
  std::vector<double> rec;
  rec.reserve(header.size() + payload.size() + 1);
  rec.insert(rec.end(), header.begin(), header.end());
  rec.insert(rec.end(), payload.begin(), payload.end());
  rec.push_back(static_cast<double>(crc32_doubles(rec)));

  const std::lock_guard<std::mutex> lock(mutex_);
  if (!in_journal_.insert(ik).second) {
    // With resume on the drivers only schedule the residual, so a
    // duplicate append is a caller bug.  With resume off they recompute
    // the full schedule over the existing journal; the journal is
    // append-only and the first record wins, so the recompute is
    // absorbed without rewriting.
    PLINGER_REQUIRE(!opts_.resume,
                    "ModeResultStore: ik " + std::to_string(ik) +
                        " already checkpointed");
    ++n_append_skipped_;
    return;
  }
  io::FortranRecordWriter writer(out_);
  writer.record(rec);
  require_writable("append");
  ++n_appended_;
  ++n_unflushed_;
  if (opts_.flush_interval > 0 && n_unflushed_ >= opts_.flush_interval) {
    out_.flush();
    require_writable("flush");
    n_unflushed_ = 0;
  }
  if (opts_.stop_after > 0 && !stop_requested_ &&
      n_appended_ >= opts_.stop_after) {
    out_.flush();  // flush-then-stop: the journal survives the "crash"
    require_writable("flush");
    n_unflushed_ = 0;
    stop_requested_ = true;
  }
}

std::size_t ModeResultStore::n_appended() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return n_appended_;
}

std::size_t ModeResultStore::n_append_skipped() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return n_append_skipped_;
}

void ModeResultStore::flush() {
  const std::lock_guard<std::mutex> lock(mutex_);
  out_.flush();
  require_writable("flush");
  n_unflushed_ = 0;
}

bool ModeResultStore::stop_requested() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return stop_requested_;
}

JournalScan ModeResultStore::scan(const std::string& path) {
  JournalScan s;
  std::error_code ec;
  const std::uint64_t file_size =
      fs::exists(path, ec) ? fs::file_size(path, ec) : 0;
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) {
    throw StoreCorrupt("ModeResultStore::scan: cannot open " + path);
  }
  RawReader raw(in);
  std::vector<double> rec;
  if (raw.next(rec) != RawReader::Status::record) {
    throw StoreCorrupt("ModeResultStore::scan: no file header in " + path);
  }
  parse_file_header(rec, s.identity.value, s.n_k);
  s.good_bytes = raw.offset();
  for (;;) {
    const auto st = raw.next(rec);
    if (st != RawReader::Status::record) break;
    std::size_t ik = 0;
    boltzmann::ModeResult r;
    if (!parse_mode_record(rec, ik, r)) break;
    s.iks.push_back(ik);
    if (!r.samples.empty()) ++s.n_los_records;
    s.good_bytes = raw.offset();
  }
  s.torn_tail = s.good_bytes < file_size;
  return s;
}

JournalContents read_journal(const std::string& path) {
  JournalContents c;
  std::error_code ec;
  const std::uint64_t file_size =
      fs::exists(path, ec) ? fs::file_size(path, ec) : 0;
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) {
    throw StoreCorrupt("read_journal: cannot open " + path);
  }
  RawReader raw(in);
  std::vector<double> rec;
  if (raw.next(rec) != RawReader::Status::record) {
    throw StoreCorrupt("read_journal: no file header in " + path);
  }
  parse_file_header(rec, c.identity.value, c.n_k);
  std::uint64_t good = raw.offset();
  for (;;) {
    const auto st = raw.next(rec);
    if (st != RawReader::Status::record) break;
    std::size_t ik = 0;
    boltzmann::ModeResult r;
    if (!parse_mode_record(rec, ik, r)) break;
    good = raw.offset();
    c.results.emplace(ik, std::move(r));  // first record wins
  }
  c.torn_tail = good < file_size;
  return c;
}

}  // namespace plinger::store
