#ifndef HPCMIXP_SUPPORT_MEMO_LOG_H_
#define HPCMIXP_SUPPORT_MEMO_LOG_H_

/**
 * @file
 * Crash-safe append-only record log.
 *
 * The persistence layer under the cross-run evaluation memo-cache
 * (DESIGN.md, Section 12). A log file is a header line followed by one
 * checksummed record per line:
 *
 *   <header>\n
 *   <fnv1a32-hex> <record>\n
 *   ...
 *
 * A record is durable once its newline is on disk; a record whose line
 * is missing the terminator or whose checksum does not match — the
 * signature of a crash mid-append — is a *partial tail*: load()
 * truncates the file back to the last durable record and the log
 * continues from there. A header that does not match the expected one
 * (the caller's fingerprint changed) resets the file: stale records
 * must not survive an invalidated key space.
 *
 * Appends are serialized by the caller (MemoTable holds one append
 * mutex per log); the class itself performs no locking.
 */

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

namespace hpcmixp::support {

/** FNV-1a over @p size bytes at @p data. */
std::uint64_t fnv1a64(const void* data, std::size_t size);

/** FNV-1a over the bytes of @p text. */
std::uint64_t fnv1a64(const std::string& text);

/**
 * XXH64 (seed 0) over @p size bytes at @p data: four independent
 * lanes of little-endian 8-byte words, then an avalanche step. Several
 * times faster than fnv1a64() on large inputs; it hashes the reference
 * output into the memo store's input signature, whose value is
 * persisted in segment names and so must never change.
 */
std::uint64_t xxh64(const void* data, std::size_t size);

/** An append-only log of newline-free records with crash recovery. */
class AppendLog {
  public:
    /**
     * Open (or create) the log at @p path, expecting @p header on the
     * first line. Loads every durable record, truncates a partial
     * trailing record, and resets the file when the header mismatches.
     */
    AppendLog(std::string path, std::string header);

    AppendLog(const AppendLog&) = delete;
    AppendLog& operator=(const AppendLog&) = delete;

    /** Records recovered at open time, in append order. */
    const std::vector<std::string>& records() const { return records_; }

    /** Release the loaded records (the caller has indexed them). */
    std::vector<std::string> takeRecords() { return std::move(records_); }

    /** True when a header mismatch discarded the previous contents. */
    bool reset() const { return reset_; }

    /** Bytes of partial trailing record dropped at open time. */
    std::size_t truncatedBytes() const { return truncatedBytes_; }

    /** Append one record (must not contain newlines) and flush. */
    void append(const std::string& record);

    /** Path of the backing file. */
    const std::string& path() const { return path_; }

  private:
    void load(const std::string& header);

    std::string path_;
    std::ofstream out_;
    std::vector<std::string> records_;
    bool reset_ = false;
    std::size_t truncatedBytes_ = 0;
};

} // namespace hpcmixp::support

#endif // HPCMIXP_SUPPORT_MEMO_LOG_H_
